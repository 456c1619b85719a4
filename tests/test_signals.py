"""Preprocessing tests: band-pass filter, peak picking, instance windows,
bags and their instance blocks."""

import warnings

import numpy as np
import pytest

from bcgbeat.signals import (
    InstanceBlocks,
    Recording,
    _compensated_band_edges,
    bandpass_filter,
    build_bags,
    butter_sos,
    candidate_peaks,
    extract_instances,
    find_peaks,
    zero_phase_filter,
)

FS = 100.0


def tone_amplitude(freq_hz: float, fs: float = FS) -> float:
    """Steady-state amplitude of a unit sine after filtering.

    Long signal with generous edge trim so filter transients do not
    contaminate the measurement.
    """
    t = np.arange(int(600.0 * fs)) / fs
    y = bandpass_filter(np.sin(2.0 * np.pi * freq_hz * t), fs)
    core = y[int(60.0 * fs) : -int(60.0 * fs)]
    return float(np.sqrt(2.0 * np.mean(core**2)))


class TestBandpassFilter:
    def test_dc_is_rejected(self):
        y = bandpass_filter(np.ones(60000), FS)
        assert np.max(np.abs(y[6000:-6000])) < 0.01

    def test_midband_tone_passes_through(self):
        amp = tone_amplitude(2.0)
        assert 0.95 <= amp <= 1.05

    def test_low_edge_sits_at_half_power(self):
        # 0.4 Hz is the lower cutoff: amplitude 1/sqrt(2)
        amp = tone_amplitude(0.4)
        assert abs(amp - 0.708) <= 0.04

    def test_high_edge_sits_at_half_power(self):
        amp = tone_amplitude(10.0)
        assert abs(amp - 0.708) <= 0.04

    def test_linearity(self):
        rng = np.random.default_rng(0)
        x = rng.standard_normal(4000)
        y = rng.standard_normal(4000)
        lhs = bandpass_filter(2.5 * x - 0.7 * y, FS)
        rhs = 2.5 * bandpass_filter(x, FS) - 0.7 * bandpass_filter(y, FS)
        scale = np.max(np.abs(rhs))
        assert np.max(np.abs(lhs - rhs)) <= 1e-9 * scale

    def test_output_length_matches_input(self):
        x = np.random.default_rng(1).standard_normal(512)
        assert bandpass_filter(x, FS).shape == x.shape

    def test_rejects_bad_band_and_order(self):
        x = np.zeros(1000)
        with pytest.raises(ValueError):
            bandpass_filter(x, FS, low=5.0, high=1.0)
        with pytest.raises(ValueError):
            bandpass_filter(x, FS, order=5)
        with pytest.raises(ValueError):
            bandpass_filter(x, FS, low=0.4, high=60.0)

    def test_rejects_too_short_signal(self):
        with pytest.raises(ValueError):
            bandpass_filter(np.zeros(10), FS)


def scipy_bandpass(x, fs, low=0.4, high=10.0, order=6):
    """The scipy filter bandpass_filter replaces: butter + sosfiltfilt."""
    signal = pytest.importorskip("scipy.signal")
    lo, hi = _compensated_band_edges(low, high, order // 2)
    sos = signal.butter(order // 2, [lo, hi], btype="bandpass", fs=fs, output="sos")
    return signal.sosfiltfilt(sos, x, axis=-1)


def probe_signal(kind, n):
    rng = np.random.default_rng(n)
    if kind == "noise":
        return 3.0 + rng.standard_normal(n)
    if kind == "step":
        return np.where(np.arange(n) < n // 3, -1.5, 2.0)
    return np.full(n, 2.5)


class TestBandpassMatchesScipy:
    """scipy.signal as a test-only oracle for the NumPy filter."""

    @pytest.mark.parametrize("kind", ["noise", "step", "constant"])
    @pytest.mark.parametrize(
        "n, order, band",
        [
            (19, 2, (0.4, 10.0)),
            (19, 4, (1.0, 5.0)),
            (22, 6, (0.4, 10.0)),
            (127, 6, (0.4, 10.0)),
            (128, 6, (0.4, 10.0)),
            (129, 8, (2.0, 4.0)),
            (1000, 6, (0.5, 30.0)),
            (18_000, 6, (0.4, 10.0)),
            (100_000, 10, (0.4, 10.0)),
        ],
    )
    def test_matches_sosfiltfilt(self, kind, n, order, band):
        x = probe_signal(kind, n)
        got = bandpass_filter(x, FS, *band, order=order)
        want = scipy_bandpass(x, FS, *band, order=order)
        # relative to the input's peak: a constant's output is all round-off
        assert got.shape == want.shape
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(x))

    def test_two_dimensional_input_equals_its_rows(self):
        rng = np.random.default_rng(5)
        x = rng.standard_normal((4, 5000)) + np.arange(4)[:, None]
        got = bandpass_filter(x, FS)
        rows = np.array([bandpass_filter(r, FS) for r in x])
        assert got.shape == x.shape
        # equal up to round-off: a row's sums may split differently in one
        # matmul over four channels than over one
        assert np.max(np.abs(got - rows)) <= 1e-12 * np.max(np.abs(x))
        assert np.max(np.abs(got - scipy_bandpass(x, FS))) <= 1e-12 * np.max(np.abs(x))

    @pytest.mark.parametrize("order", [2, 4, 6])
    def test_shortest_signal_is_scipys(self, order):
        # sosfiltfilt pads 3 (2 sections + 1) samples and needs more
        pad = 3 * (order + 1)
        with pytest.raises(ValueError, match="too short"):
            bandpass_filter(np.ones(pad), FS, order=order)
        with pytest.raises(ValueError):
            scipy_bandpass(np.ones(pad), FS, order=order)
        with pytest.raises(ValueError, match="too short"):
            bandpass_filter(np.ones((3, pad)), FS, order=order)
        x = probe_signal("noise", pad + 1)
        err = bandpass_filter(x, FS, order=order) - scipy_bandpass(x, FS, order=order)
        assert np.max(np.abs(err)) <= 1e-12 * np.max(np.abs(x))

    def test_rejects_three_dimensional_input(self):
        with pytest.raises(ValueError):
            bandpass_filter(np.zeros((2, 2, 100)), FS)

    @pytest.mark.parametrize(
        "half_order, band, fs",
        [(1, (1.0, 5.0), 100.0), (2, (0.5, 20.0), 250.0), (3, (0.35, 11.47), 100.0),
         (3, (2.0, 4.0), 100.0), (4, (3.0, 6.0), 50.0), (5, (0.3, 10.0), 100.0)],
    )
    def test_design_has_butters_frequency_response(self, half_order, band, fs):
        signal = pytest.importorskip("scipy.signal")
        want = signal.butter(half_order, band, btype="bandpass", fs=fs, output="sos")
        got = butter_sos(2 * half_order, fs, *band)
        z = np.exp(-1j * np.linspace(0.0, np.pi, 4096))  # z^-1 on the unit circle

        def response(sos):
            return np.prod(
                [np.polyval(s[2::-1], z) / np.polyval(s[:2:-1], z) for s in sos], axis=0
            )

        assert got.shape == want.shape
        assert np.max(np.abs(response(got) - response(want))) <= 1e-10


class TestLowpassMatchesScipy:
    """The zero-phase filter against scipy.signal's sosfiltfilt, on
    scipy's own low-pass sections: zero_phase_filter takes any sections."""

    @pytest.mark.parametrize("order", [2, 4, 8])
    @pytest.mark.parametrize("kind", ["noise", "step", "constant"])
    @pytest.mark.parametrize("n", [10, 128, 5000])
    def test_zero_phase_filter_is_sosfiltfilt(self, order, kind, n):
        signal = pytest.importorskip("scipy.signal")
        sos = signal.butter(order, 4.0, "lowpass", fs=FS, output="sos")
        x = probe_signal(kind, n)
        if n <= 3 * (order + 1):
            with pytest.raises(ValueError, match="too short"):
                zero_phase_filter(x, sos)
            with pytest.raises(ValueError):
                signal.sosfiltfilt(sos, x)
            return
        got, want = zero_phase_filter(x, sos), signal.sosfiltfilt(sos, x)
        assert got.shape == want.shape
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(x))


class TestFindPeaks:
    def test_single_interior_maximum(self):
        assert find_peaks(np.array([1.0, 3.0, 2.0]), min_separation=1).tolist() == [1]

    def test_monotone_signal_has_no_peaks(self):
        assert find_peaks(np.arange(50, dtype=float)).size == 0

    def test_sine_peak_positions(self):
        t = np.arange(500) / FS
        peaks = find_peaks(np.sin(2.0 * np.pi * 1.0 * t), min_separation=10)
        assert peaks.size == 5
        for got, want in zip(peaks, (25, 125, 225, 325, 425)):
            assert abs(int(got) - want) <= 1

    def test_invariant_under_constant_offset(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            x = rng.standard_normal(400)
            base = find_peaks(x, min_separation=7)
            shifted = find_peaks(x + 123.456, min_separation=7)
            assert np.array_equal(base, shifted)

    def test_separation_and_local_maximality(self):
        rng = np.random.default_rng(4)
        for _ in range(25):
            x = rng.standard_normal(600)
            sep = int(rng.integers(1, 30))
            p = find_peaks(x, min_separation=sep)
            if p.size > 1:
                assert np.min(np.diff(p)) >= sep
            for i in p:
                assert x[i] > x[i - 1] and x[i] > x[i + 1]

    def test_conflict_keeps_larger_peak(self):
        x = np.array([0.0, 1.0, 0.5, 2.0, 0.0])
        assert find_peaks(x, min_separation=5).tolist() == [3]

    def test_rejects_bad_separation(self):
        with pytest.raises(ValueError):
            find_peaks(np.zeros(10), min_separation=0)


class TestExtractInstances:
    def test_window_covering_whole_signal(self):
        x = np.random.default_rng(5).standard_normal(91)
        out = extract_instances(x, np.array([45]), half_len=45)
        assert out.shape == (1, 91)
        np.testing.assert_array_equal(out[0], x)

    def test_boundary_peak_raises(self):
        x = np.zeros(91)
        for p in (10, 80):
            with pytest.raises(ValueError, match=f"window around peak {p} crosses"):
                extract_instances(x, np.array([45, p]), half_len=45)

    def test_interior_peaks_all_extracted(self):
        x = np.random.default_rng(6).standard_normal(1000)
        peaks = np.array([100, 220, 400, 610, 900])
        out = extract_instances(x, peaks, half_len=45)
        assert out.shape == (5, 91)
        assert out.flags.c_contiguous
        for w, p in zip(out, peaks):
            np.testing.assert_array_equal(w, x[p - 45 : p + 46])

    def test_zscore_standardizes_each_window(self):
        x = np.random.default_rng(7).standard_normal(500) * 3.0 + 10.0
        out = extract_instances(x, np.array([100, 300]), half_len=45, zscore=True)
        assert len(out) == 2
        for w in out:
            assert abs(w.mean()) < 1e-12
            assert abs(w.std() - 1.0) < 1e-12

    @pytest.mark.parametrize("scale, noise", [(1e160, 1.0), (1e306, 1.0), (1e308, 0.0)],
                             ids=["sd_1e160", "sd_1e306", "mean_1e308"])
    def test_a_window_whose_mean_or_sd_overflows_is_rejected(self, scale, noise):
        x = np.random.default_rng(8).standard_normal(500)
        x[255:346] = scale * (1.5 + noise * x[255:346])
        with pytest.raises(ValueError, match="window around peak 300 is too large to z-score"):
            extract_instances(x, np.array([100, 300]), half_len=45, zscore=True)
        assert np.array_equal(extract_instances(x, np.array([300]), half_len=45), x[None, 255:346])


def _synthetic_candidates(rng, n_channels, n_samples, n_per_channel):
    """Per channel (channel id, noise signal, sorted peaks whose windows fit)."""
    candidates = []
    for ch in range(n_channels):
        peaks = np.sort(
            rng.choice(np.arange(50, n_samples - 50), size=n_per_channel, replace=False)
        )
        candidates.append((ch, rng.standard_normal(n_samples), peaks))
    return candidates


def _one(candidates, beats, **kwargs):
    """build_bags on one recording."""
    return build_bags([candidates], [np.asarray(beats, dtype=int)], **kwargs)


def _column(blocks, i):
    """The window of instance i of the blocks' [Xp | Xn] columns."""
    n_pos = blocks.Xp.shape[1]
    return blocks.Xp[:, i] if i < n_pos else blocks.Xn[:, i - n_pos]


class TestBuildBags:
    def test_single_beat_takes_three_per_channel(self):
        rng = np.random.default_rng(8)
        n = 2000
        peaks = np.array([900, 960, 1000, 1040, 1100])
        candidates = [(ch, rng.standard_normal(n), peaks) for ch in range(4)]
        blocks = _one(candidates, [1000], per_positive=3)
        pos = [b for b in blocks if b.label == 1]
        assert len(pos) == 1
        assert (pos[0].start, pos[0].stop) == (0, 12)
        assert blocks.Xp.shape == (91, 12)
        assert blocks.bag[:12].tolist() == [0] * 12  # the bag of beat 0, at 1000
        # the three closest peaks per channel are 960, 1000, 1040
        for ch in range(4):
            got = sorted(blocks.peak[:12][blocks.channel[:12] == ch].tolist())
            assert got == [960, 1000, 1040]

    def test_every_instance_lands_in_exactly_one_bag(self):
        rng = np.random.default_rng(10)
        for _ in range(10):
            n_ch = int(rng.integers(1, 5))
            candidates = _synthetic_candidates(rng, n_ch, 3000, 12)
            beats = np.sort(
                rng.choice(np.arange(100, 2900), size=int(rng.integers(1, 6)), replace=False)
            )
            per_pos = int(rng.integers(1, 5))
            blocks = _one(candidates, beats, per_positive=per_pos)
            total_in = sum(p.size for _, _, p in candidates)
            assert blocks.Xp.shape[1] + blocks.Xn.shape[1] == total_in
            assert sum(b.stop - b.start for b in blocks) == total_in
            keys = list(zip(blocks.channel.tolist(), blocks.peak.tolist()))
            assert len(set(keys)) == total_in
            for b in blocks:
                assert b.stop > b.start
                if b.label == 1:
                    for ch in range(n_ch):
                        assert np.count_nonzero(blocks.channel[b.start : b.stop] == ch) <= per_pos

    def test_positive_bags_precede_negative_and_follow_beat_order(self):
        rng = np.random.default_rng(11)
        candidates = _synthetic_candidates(rng, 3, 3000, 15)
        beats = np.array([500, 1500, 2500])
        blocks = _one(candidates, beats, per_positive=2)
        labels = [b.label for b in blocks]
        assert labels == sorted(labels, reverse=True)
        anchors = [int(beats[blocks.bag[b.start]]) for b in blocks if b.label == 1]
        assert anchors == sorted(anchors)

    def test_pooled_blocks_are_each_recordings_blocks_in_turn(self):
        rng = np.random.default_rng(15)
        recs = [_synthetic_candidates(rng, 3, 3000, 12) for _ in range(4)]
        beats = [np.array([700, 1500, 2300]), np.array([400]), np.array([1000, 2600]),
                 np.array([1200])]
        pooled = build_bags(recs, beats)
        alone = [_one(c, b) for c, b in zip(recs, beats)]
        assert pooled.Xp.tobytes() == np.hstack([a.Xp for a in alone]).tobytes()
        assert pooled.Xn.tobytes() == np.hstack([a.Xn for a in alone]).tobytes()
        assert len(pooled) == sum(len(a) for a in alone)
        for key in ("channel", "peak", "bag"):
            want = [getattr(a, key)[: a.Xp.shape[1]] for a in alone]
            want += [getattr(a, key)[a.Xp.shape[1] :] for a in alone]
            assert getattr(pooled, key).tolist() == np.concatenate(want).tolist()
        n_pos = [a.Xp.shape[1] for a in alone]
        n_neg = [a.Xn.shape[1] for a in alone]
        assert pooled.recording.tolist() == np.repeat([0, 1, 2, 3] * 2, n_pos + n_neg).tolist()


class TestBagColumns:
    def test_columns_are_c_contiguous_and_in_bag_order(self):
        rng = np.random.default_rng(14)
        candidates = _synthetic_candidates(rng, 3, 3000, 12)
        blocks = _one(candidates, [700, 1500, 2300])
        assert blocks.Xp.flags.c_contiguous and blocks.Xn.flags.c_contiguous
        signals = {ch: x for ch, x, _ in candidates}
        for i, (ch, p) in enumerate(zip(blocks.channel.tolist(), blocks.peak.tolist())):
            want = extract_instances(signals[ch], np.array([p]))[0]
            assert _column(blocks, i).tobytes() == want.tobytes()

    def test_rejects_mixed_feature_dimensions(self):
        ids = np.zeros(2, dtype=int)
        with pytest.raises(ValueError, match="one feature dim"):
            InstanceBlocks(np.zeros((91, 1)), np.zeros((61, 1)), ids, ids, ids, ids)


class TestRecording:
    def test_rejects_unequal_channel_lengths(self):
        with pytest.raises(ValueError):
            Recording(channels=[np.zeros(10), np.zeros(11)], sample_rate_hz=FS)

    def test_rejects_out_of_range_groundtruth(self):
        with pytest.raises(ValueError):
            Recording(
                channels=[np.zeros(10)], sample_rate_hz=FS, gt_beat_times=np.array([99])
            )

    def test_rejects_non_integral_groundtruth_and_names_it(self):
        with pytest.raises(ValueError, match=r"but 0\.5 is not an integer"):
            Recording([np.zeros(400)], FS, gt_beat_times=np.array([0.5, 1.7, 2.9]))
        rec = Recording([np.zeros(400)], FS, gt_beat_times=np.array([5.0, 170.0]))
        assert rec.gt_beat_times.tolist() == [5, 170]

    @pytest.mark.parametrize(
        "bad, message",
        [(np.nan, "but nan is not an integer"), (np.inf, "but inf is not an integer"),
         (-np.inf, "but -inf is not an integer"), (1e30, "strictly increasing and in range")],
    )
    def test_rejects_groundtruth_an_int_cannot_hold_without_a_warning(self, bad, message):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=message):
                Recording([np.zeros(400)], FS, gt_beat_times=np.array([1.0, bad]))

    def test_rejects_nonincreasing_groundtruth(self):
        with pytest.raises(ValueError):
            Recording(
                channels=[np.zeros(10)],
                sample_rate_hz=FS,
                gt_beat_times=np.array([5, 5]),
            )

    @pytest.mark.parametrize("fs", [np.nan, np.inf, 0.0])
    def test_rejects_a_sample_rate_that_is_not_positive_and_finite(self, fs):
        with pytest.raises(ValueError, match="sample_rate_hz must be positive and finite"):
            Recording(channels=[np.zeros(10)], sample_rate_hz=fs)

    def test_stores_the_sample_rate_as_a_float(self):
        rec = Recording(channels=[np.zeros(10)], sample_rate_hz=np.float64(FS))
        assert type(rec.sample_rate_hz) is float

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_samples_and_names_the_channel(self, bad):
        ch1 = np.zeros(10)
        ch1[4] = bad
        with pytest.raises(ValueError, match="channel ch1 has non-finite samples"):
            Recording(channels=[np.zeros(10), ch1], sample_rate_hz=FS)


class TestBagValidation:
    @pytest.mark.parametrize("rows, ids, peaks", [(2, 3, 3), (3, 2, 3), (3, 3, 2)])
    def test_rejects_rows_that_do_not_match_their_ids(self, rows, ids, peaks):
        """One (recording, channel, peak, bag) per window, here a column."""
        with pytest.raises(ValueError, match="one \\(recording, channel, peak, bag\\) per column"):
            InstanceBlocks(np.zeros((91, rows - 1)), np.zeros((91, 1)), np.zeros(ids, dtype=int),
                           np.zeros(ids, dtype=int), np.arange(peaks), np.zeros(3, dtype=int))

    def test_rejects_blocks_that_are_not_2d(self):
        ids = np.zeros(1, dtype=int)
        with pytest.raises(ValueError, match="2-D, a window per column"):
            InstanceBlocks(np.zeros(91), np.zeros((91, 0)), ids, ids, ids, ids)


def test_flat_channel_gives_no_candidates_and_is_logged(caplog):
    rng = np.random.default_rng(13)
    noise = [rng.standard_normal(3000) for _ in range(3)]
    rec = Recording(channels=[*noise[:2], np.full(3000, 0.25), noise[2]], sample_rate_hz=FS)
    with caplog.at_level("WARNING", logger="bcgbeat.signals"):
        candidates = candidate_peaks(rec)
    assert [p.size > 0 for _, _, p in candidates] == [True, True, False, True]
    _, filt, peaks = candidates[2]
    assert extract_instances(filt, peaks).shape == (0, 91)
    flat = [r.getMessage() for r in caplog.records if "is flat" in r.getMessage()]
    assert len(flat) == 1 and flat[0].startswith("ch2 is flat")


def test_candidate_windows_shapes():
    rng = np.random.default_rng(12)
    rec = Recording(
        channels=[rng.standard_normal(3000) for _ in range(4)], sample_rate_hz=FS
    )
    candidates = candidate_peaks(rec)
    assert [ch_id for ch_id, _, _ in candidates] == [0, 1, 2, 3]
    for _, filt, peaks in candidates:
        assert peaks.size > 0, "filtered noise should still produce candidate peaks"
        assert extract_instances(filt, peaks).shape == (peaks.size, 91)
