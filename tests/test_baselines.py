"""Baseline estimator tests: windowed-peak and short-term-energy HR, and
the choice of the channel they run on."""

import numpy as np
import pytest

from baselines_reference import en_hr, pick_best_channel, wppd_hr
from bcgbeat.signals import Recording
from bcgbeat.synth import SynthConfig, generate

FS = 100.0


@pytest.fixture(scope="module")
def clean_periodic():
    cfg = SynthConfig(
        duration_s=180.0,
        hr_bpm=60.0,
        snr_db=None,
        noise_sd=0.0,
        jitter_sd_samples=0.0,
        respiration_amp=0.0,
        seed=3,
    )
    return generate(cfg)


class TestWppd:
    def test_recovers_sixty_bpm_on_clean_beats(self, clean_periodic):
        hr = wppd_hr(clean_periodic.recording.channels[0], FS)
        assert hr.n_windows > 0
        assert np.all(np.abs(hr.bpm - 60.0) <= 2.0)

    def test_all_zero_signal_gives_all_gaps(self):
        hr = wppd_hr(np.zeros(9000), FS)
        assert hr.n_windows > 0
        assert np.all(np.isnan(hr.bpm))

    def test_deterministic(self, clean_periodic):
        x = clean_periodic.recording.channels[1]
        a = wppd_hr(x, FS)
        b = wppd_hr(x.copy(), FS)
        np.testing.assert_array_equal(a.bpm, b.bpm)

    def test_amplitude_scale_invariant(self, clean_periodic):
        x = clean_periodic.recording.channels[0]
        base = wppd_hr(x, FS)
        for c in (8.0, 2.0 ** -7, 7.3):
            scaled = wppd_hr(c * x, FS)
            np.testing.assert_array_equal(base.bpm, scaled.bpm)

    def test_rejects_low_sample_rate(self):
        with pytest.raises(ValueError):
            wppd_hr(np.zeros(1000), fs=8.0)

    def test_rejects_short_signal(self):
        with pytest.raises(ValueError):
            wppd_hr(np.zeros(3000), FS)  # 30 s < one 60 s window


class TestEn:
    def test_recovers_sixty_bpm_on_clean_beats(self, clean_periodic):
        hr = en_hr(clean_periodic.recording.channels[0], FS)
        assert hr.n_windows > 0
        assert np.all(np.abs(hr.bpm - 60.0) <= 2.0)

    def test_all_zero_signal_gives_all_gaps(self):
        hr = en_hr(np.zeros(9000), FS)
        assert np.all(np.isnan(hr.bpm))

    def test_amplitude_scale_invariant(self, clean_periodic):
        # power-of-two scales are exact in binary floating point, so the
        # energy pipeline commutes with them bit for bit
        x = clean_periodic.recording.channels[0]
        base = en_hr(x, FS)
        for c in (8.0, 2.0 ** -7):
            scaled = en_hr(c * x, FS)
            np.testing.assert_array_equal(base.bpm, scaled.bpm)

    def test_arbitrary_scale_changes_nothing_material(self, clean_periodic):
        x = clean_periodic.recording.channels[0]
        base = en_hr(x, FS)
        scaled = en_hr(7.3 * x, FS)
        np.testing.assert_allclose(scaled.bpm, base.bpm, atol=0.1)

    def test_rejects_low_sample_rate(self):
        with pytest.raises(ValueError):
            en_hr(np.zeros(1000), fs=20.0)

    def test_rejects_short_signal(self):
        with pytest.raises(ValueError):
            en_hr(np.zeros(3000), FS)


class TestPickBestChannel:
    def test_prefers_the_channel_with_real_beats(self, clean_periodic):
        rec = clean_periodic.recording
        rng = np.random.default_rng(5)
        mixed = Recording(
            channels=[rng.standard_normal(rec.n_samples) * 0.5, rec.channels[0]],
            sample_rate_hz=FS,
            gt_beat_times=rec.gt_beat_times,
        )
        assert pick_best_channel(mixed, en_hr) == 1

    def test_requires_groundtruth(self, clean_periodic):
        rec = Recording(
            channels=clean_periodic.recording.channels, sample_rate_hz=FS
        )
        with pytest.raises(ValueError):
            pick_best_channel(rec, wppd_hr)
