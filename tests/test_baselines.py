"""Baseline estimator tests: windowed-peak and short-term-energy HR, and
their NumPy filters against scipy's."""

import dataclasses

import numpy as np
import pytest

from bcgbeat.baselines import _moving_mean, _sliding_max, en_hr, pick_best_channel, wppd_hr
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


@pytest.mark.parametrize("size", [1, 2, 3, 4, 25, 30, 75])
@pytest.mark.parametrize("n", [1, 7, 100, 3000])
class TestFiltersMatchScipy:
    """scipy.ndimage as a test-only oracle for the baselines' filters, on
    odd and even window sizes, some longer than the signal."""

    def test_sliding_max_is_maximum_filter1d(self, size, n):
        ndimage = pytest.importorskip("scipy.ndimage")
        x = np.round(np.random.default_rng(n + size).standard_normal(n), 1)  # with ties
        want = ndimage.maximum_filter1d(x, size=size, mode="nearest")
        np.testing.assert_array_equal(_sliding_max(x, size), want)

    def test_moving_mean_is_uniform_filter1d(self, size, n):
        ndimage = pytest.importorskip("scipy.ndimage")
        x = 3.0 + np.random.default_rng(n * size).standard_normal(n) ** 2
        want = ndimage.uniform_filter1d(x, size=size, mode="nearest")
        assert np.max(np.abs(_moving_mean(x, size) - want)) <= 1e-12 * np.max(np.abs(want))


def c12_channels():
    """The channels of c12's held-out recording and of its clean one."""
    train_cfg = SynthConfig(duration_s=300.0, hr_bpm=70.0, snr_db=10.0,
                            artifact_rate_per_min=3.0, artifact_amp=6.0, seed=10)
    held_out = generate(dataclasses.replace(train_cfg, hrv_amp_bpm=5.0, hrv_period_s=60.0, seed=11))
    clean = generate(SynthConfig(duration_s=180.0, hr_bpm=60.0, snr_db=None, noise_sd=0.0,
                                 jitter_sd_samples=0.0, respiration_amp=0.0, seed=3))
    return [*held_out.recording.channels, *clean.recording.channels]


def test_estimators_are_the_scipy_references_bit_for_bit():
    """wppd_hr and en_hr give the HR series of their scipy versions
    (tests/baselines_reference.py) on c12's recordings, noise and zeros."""
    pytest.importorskip("scipy")
    import baselines_reference as ref

    signals = [*c12_channels(), np.random.default_rng(4).standard_normal(12000), np.zeros(9000)]
    for x in signals:
        for ours, theirs in ((wppd_hr, ref.wppd_hr), (en_hr, ref.en_hr)):
            got, want = ours(x, FS), theirs(x, FS)
            assert got.times.tobytes() == want.times.tobytes()
            assert got.bpm.tobytes() == want.bpm.tobytes()
