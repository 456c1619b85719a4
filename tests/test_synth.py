"""Synthetic BCG generator tests."""

import dataclasses

import numpy as np
import pytest

from bcgbeat.synth import SynthConfig, _beat_phase_times, generate, make_template

FS = 100.0


class TestTemplate:
    def test_unit_norm(self):
        t = make_template(FS)
        assert t.shape == (91,)
        assert abs(np.linalg.norm(t) - 1.0) <= 1e-12

    def test_central_peak_is_prominent_and_positive(self):
        t = make_template(FS)
        assert np.argmax(t) == 45
        assert t[45] > 0
        assert t[45] == np.max(np.abs(t))
        # central lobe dominates the side lobes
        interior = (t[1:-1] > t[:-2]) & (t[1:-1] > t[2:])
        side_peaks = np.flatnonzero(interior) + 1
        side_peaks = side_peaks[side_peaks != 45]
        assert t[45] >= 1.5 * np.max(t[side_peaks])


class TestConstantRate:
    def test_sixty_bpm_sixty_seconds(self):
        cfg = SynthConfig(duration_s=60.0, hr_bpm=60.0, jitter_sd_samples=0.0, seed=0)
        times = generate(cfg).recording.gt_beat_times / cfg.fs
        assert times.size in (60, 61)
        np.testing.assert_allclose(np.diff(times), 1.0, atol=1e-9)

    def test_groundtruth_indices_are_exactly_periodic(self):
        cfg = SynthConfig(duration_s=60.0, hr_bpm=60.0, jitter_sd_samples=0.0, seed=0)
        rec = generate(cfg).recording
        idx = rec.gt_beat_times
        assert np.all(np.diff(idx) == 100)

    def test_jitter_bounds_intervals(self):
        cfg = SynthConfig(duration_s=120.0, hr_bpm=60.0, jitter_sd_samples=2.0, seed=1)
        res = generate(cfg)
        iv = np.diff(res.recording.gt_beat_times)
        # nominal 100 samples, two jittered endpoints
        max_dev = np.max(np.abs(iv - 100))
        assert max_dev <= 20  # 10 sd, far beyond plausible draws


class TestCleanConstruction:
    def test_channels_are_exact_template_trains(self):
        cfg = SynthConfig(
            duration_s=30.0,
            hr_bpm=60.0,
            jitter_sd_samples=0.0,
            gains=(1.0, 1.0, 1.0, 1.0),
            delays=(0, 0, 0, 0),
            respiration_amp=0.0,
            snr_db=None,
            noise_sd=0.0,
            seed=0,
        )
        res = generate(cfg)
        expected = np.zeros(res.recording.n_samples)
        for b in res.recording.gt_beat_times:
            lo, hi = b - 45, b + 46
            s0, s1 = max(lo, 0), min(hi, expected.size)
            expected[s0:s1] += res.template[s0 - lo : s1 - lo]
        for x in res.recording.channels:
            np.testing.assert_array_equal(x, expected)

    def test_cross_correlation_peaks_at_every_beat(self):
        cfg = SynthConfig(
            duration_s=30.0,
            hr_bpm=60.0,
            jitter_sd_samples=0.0,
            gains=(1.0, 0.9, 0.8, 0.7),
            delays=(0, 0, 0, 0),
            respiration_amp=0.0,
            snr_db=None,
            noise_sd=0.0,
            seed=0,
        )
        res = generate(cfg)
        x = res.recording.channels[0]
        corr = np.correlate(x, res.template, mode="same")
        for b in res.recording.gt_beat_times[1:-1]:
            lo, hi = b - 30, b + 31
            assert lo + np.argmax(corr[lo:hi]) == b

    def test_channel_delay_shifts_the_train(self):
        cfg = SynthConfig(
            duration_s=30.0,
            hr_bpm=60.0,
            jitter_sd_samples=0.0,
            gains=(1.0, 1.0, 1.0, 1.0),
            delays=(0, 3, 6, 9),
            respiration_amp=0.0,
            snr_db=None,
            noise_sd=0.0,
            seed=0,
        )
        rec = generate(cfg).recording
        a, b = rec.channels[0], rec.channels[1]
        np.testing.assert_array_equal(b[3:], a[:-3])


def profile_mean(cfg: SynthConfig, start_s: float, window_s: float) -> float:
    """The configured heart-rate profile's mean over a window, in closed form."""
    w = 2.0 * np.pi / cfg.hrv_period_s
    return cfg.hr_bpm + cfg.hrv_amp_bpm / (w * window_s) * (
        np.cos(w * start_s) - np.cos(w * (start_s + window_s)))


class TestHrvProfile:
    def test_windowed_mean_tracks_analytic_profile(self):
        cfg = SynthConfig(
            duration_s=300.0,
            hr_bpm=70.0,
            hrv_amp_bpm=5.0,
            hrv_period_s=60.0,
            jitter_sd_samples=0.0,
            seed=2,
        )
        times = generate(cfg).recording.gt_beat_times / cfg.fs
        for start in np.arange(0.0, 300.0 - 60.0 + 1e-9, 15.0):
            inside = times[(times >= start) & (times <= start + 60.0)]
            ivs = np.diff(inside)
            measured = float(np.mean(60.0 / ivs))
            assert abs(measured - profile_mean(cfg, start, 60.0)) <= 0.5

    @pytest.mark.parametrize(
        "duration_s, hr_bpm, hrv_amp_bpm, hrv_period_s",
        [
            (300.0, 70.0, 5.0, 47.0),
            (1200.0, 66.0, 6.0, 47.0),
            (240.0, 60.0, 0.0, 60.0),
            (240.0, 70.0, 0.0, 60.0),
            (3600.0, 40.0, -39.0, 5.0),
            (100.0, 120.0, 119.9, 1.3),
            (10.0, 60.0, 30.0, 1000.0),
            (240.0, 60.0, 30.0, 120.0),
        ],
    )
    def test_beat_phase_roots_match_brentq(self, duration_s, hr_bpm, hrv_amp_bpm, hrv_period_s):
        optimize = pytest.importorskip("scipy.optimize")
        cfg = SynthConfig(duration_s=duration_s, hr_bpm=hr_bpm, hrv_amp_bpm=hrv_amp_bpm,
                          hrv_period_s=hrv_period_s)
        mean_bps, amp_bps = hr_bpm / 60.0, hrv_amp_bpm / 60.0

        def phase(t):
            return mean_bps * t + amp_bps * hrv_period_s / (2.0 * np.pi) * (
                1.0 - np.cos(2.0 * np.pi * t / hrv_period_s)
            )

        want, lo = [0.0], 0.0
        for k in range(1, int(np.floor(phase(duration_s))) + 1):
            lo = optimize.brentq(lambda t: phase(t) - k, lo, duration_s, xtol=1e-10)
            want.append(lo)
        got = _beat_phase_times(cfg)
        assert got.shape == (len(want),)
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-9)


class TestDeterminism:
    def test_same_seed_bit_identical(self):
        cfg = SynthConfig(duration_s=45.0, seed=9)
        a = generate(cfg)
        b = generate(cfg)
        for xa, xb in zip(a.recording.channels, b.recording.channels):
            np.testing.assert_array_equal(xa, xb)
        np.testing.assert_array_equal(
            a.recording.gt_beat_times, b.recording.gt_beat_times
        )
        assert a.noise_sd == b.noise_sd

    def test_different_seed_differs(self):
        a = generate(SynthConfig(duration_s=45.0, seed=9))
        b = generate(SynthConfig(duration_s=45.0, seed=10))
        assert not np.array_equal(a.recording.channels[0], b.recording.channels[0])

    def test_artifact_amp_irrelevant_when_rate_zero(self):
        a = generate(SynthConfig(duration_s=45.0, seed=9, artifact_amp=4.0))
        b = generate(SynthConfig(duration_s=45.0, seed=9, artifact_amp=99.0))
        for xa, xb in zip(a.recording.channels, b.recording.channels):
            np.testing.assert_array_equal(xa, xb)

    def test_artifacts_change_signal_when_enabled(self):
        base = generate(SynthConfig(duration_s=60.0, seed=9))
        spiky = generate(
            SynthConfig(duration_s=60.0, seed=9, artifact_rate_per_min=6.0)
        )
        assert not np.array_equal(
            base.recording.channels[0], spiky.recording.channels[0]
        )
        np.testing.assert_array_equal(
            base.recording.gt_beat_times, spiky.recording.gt_beat_times
        )


class TestSnrCalibration:
    def test_requested_snr_is_met_on_clean_power(self):
        cfg = SynthConfig(duration_s=120.0, snr_db=10.0, respiration_amp=0.0, seed=3)
        res = generate(cfg)
        clean = generate(dataclasses.replace(cfg, snr_db=None, noise_sd=0.0))
        p_sig = float(np.mean(np.square(np.stack(clean.recording.channels))))
        assert res.noise_sd == pytest.approx(np.sqrt(p_sig / 10.0), rel=1e-9)

    def test_explicit_noise_sd_overrides_snr(self):
        cfg = SynthConfig(duration_s=30.0, snr_db=None, noise_sd=0.25, seed=3)
        assert generate(cfg).noise_sd == 0.25


class TestConfigValidation:
    def test_rejects_negative_gain(self):
        with pytest.raises(ValueError):
            generate(SynthConfig(duration_s=30.0, gains=(1.0, -0.5, 1.0, 1.0)))

    def test_rejects_gain_delay_length_mismatch(self):
        with pytest.raises(ValueError):
            generate(SynthConfig(duration_s=30.0, gains=(1.0, 1.0), delays=(0, 1, 2)))

    def test_rejects_nonpositive_rate(self):
        with pytest.raises(ValueError):
            generate(SynthConfig(duration_s=30.0, hr_bpm=0.0))

    def test_rejects_hrv_amplitude_exceeding_mean(self):
        with pytest.raises(ValueError):
            generate(SynthConfig(duration_s=30.0, hr_bpm=60.0, hrv_amp_bpm=60.0))

    def test_rejects_bad_artifact_width(self):
        with pytest.raises(ValueError):
            generate(
                SynthConfig(duration_s=30.0, artifact_width_s=(1.2, 0.4))
            )
