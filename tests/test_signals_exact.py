"""The array peak picking, window cutting and bag building against their
loop references (tests/signals_reference.py): identical peaks, byte-identical
windows and peak indices, identical bags; plus properties of the results.
The band-pass filter's buffered scan against the allocating one: bit for
bit the same output."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import signals_reference as ref
from bcgbeat.signals import (
    _BLOCK,
    Preprocessing,
    bandpass_filter,
    build_bags,
    extract_instances,
    find_peaks,
)

exact = settings(max_examples=300, deadline=None, derandomize=True)

# Few distinct values give plateaus, repeated peak heights and constant
# windows; arbitrary floats give everything else.
sample = st.one_of(
    st.sampled_from((-1.0, 0.0, 0.5, 1.0, 2.0)),
    st.floats(-1e3, 1e3, allow_nan=False, allow_infinity=False),
)
signal = st.lists(sample, min_size=0, max_size=80).map(lambda v: np.asarray(v, dtype=float))
short_signal = st.lists(sample, min_size=0, max_size=5).map(lambda v: np.asarray(v, dtype=float))


@st.composite
def long_signal(draw):
    """Up to 300 samples, so that windows are long enough for NumPy's
    pairwise summation to differ from a left-to-right sum; optionally
    stepped so that some windows are constant."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    x = rng.standard_normal(draw(st.integers(0, 300))) * draw(st.sampled_from((1e-3, 1.0, 1e4)))
    if draw(st.booleans()):
        x = np.repeat(x[::60], 60)[: x.size]
    return x


@exact
@given(st.one_of(signal, short_signal), st.integers(1, 40))
def test_find_peaks_matches_loop(x, min_separation):
    got = find_peaks(x, min_separation)
    want = ref.find_peaks(x, min_separation)
    assert got.dtype == want.dtype
    assert got.tolist() == want.tolist()


@exact
@given(signal, st.integers(1, 40))
def test_find_peaks_spacing_and_maximality(x, min_separation):
    kept = find_peaks(x, min_separation)
    assert np.all(np.diff(kept) >= min_separation)
    for k in kept:
        assert x[k] > x[k - 1] and x[k] > x[k + 1]
    # A strict local maximum is dropped only for a kept peak closer than
    # min_separation that is larger, or equal and earlier.
    kept_set = set(kept.tolist())
    for c in range(1, x.size - 1):
        if c in kept_set or not (x[c] > x[c - 1] and x[c] > x[c + 1]):
            continue
        assert any(
            abs(k - c) < min_separation and (x[k] > x[c] or (x[k] == x[c] and k < c))
            for k in kept_set
        )


@exact
@given(
    st.one_of(signal, short_signal, long_signal()),
    st.one_of(st.integers(0, 6), st.integers(7, 50)),
    st.lists(st.integers(-60, 360), max_size=20),
    st.booleans(),
)
def test_extract_instances_matches_loop(x, half_len, peaks, zscore):
    # peaks unsorted, repeated and at or beyond both edges: any window
    # across an edge raises, the ones that fit match the loop
    peaks = np.asarray(peaks, dtype=int)
    fits = (peaks >= half_len) & (peaks + half_len < x.size)
    if not fits.all():
        with pytest.raises(ValueError, match="crosses the boundary"):
            extract_instances(x, peaks, half_len, zscore)
    peaks = peaks[fits]
    got = extract_instances(x, peaks, half_len, zscore)
    want = ref.extract_instances(x, peaks, half_len, zscore=zscore)
    width = 2 * half_len + 1
    assert [i.peak_index for i in want] == peaks.tolist()
    assert got.shape == (len(want), width)
    assert got.dtype == np.float64 and got.flags.c_contiguous
    want_rows = np.asarray([i.features for i in want], dtype=float).reshape(-1, width)
    assert got.tobytes() == want_rows.tobytes()


@st.composite
def candidates(draw, unique_peaks=False):
    """Up to four channels as `candidate_peaks` yields them, (channel id,
    signal, peaks in [half_len, 300]), with the Preprocessing record their
    windows are cut under.  Each signal is noise just long enough for its
    peaks' windows, so misplaced instances show in the window bytes.
    Without unique_peaks the peaks are unsorted and may repeat."""
    pre = Preprocessing(half_len=draw(st.integers(0, 50)), zscore=draw(st.booleans()))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    peak = st.integers(pre.half_len, 300)
    out = []
    for ch in range(draw(st.integers(0, 4))):
        if unique_peaks:
            peaks = sorted(draw(st.sets(peak, max_size=25)))
        else:
            peaks = draw(st.lists(peak, max_size=25))
        x = rng.standard_normal(301 + pre.half_len)
        out.append((ch, x, np.asarray(peaks, dtype=int)))
    return out, pre


beat_times = st.sets(st.integers(0, 300), min_size=1, max_size=8).map(
    lambda s: np.asarray(sorted(s), dtype=int)
)


def bags(blocks, beats):
    """Per bag of the blocks: (label, anchor beat or None, its (channel,
    peak, window bytes) rows)."""
    X = np.hstack([blocks.Xp, blocks.Xn])
    return [
        (
            b.label,
            int(beats[blocks.bag[b.start]]) if b.label else None,
            [(int(blocks.channel[i]), int(blocks.peak[i]), X[:, i].tobytes())
             for i in range(b.start, b.stop)],
        )
        for b in blocks
    ]


@exact
@given(candidates(), beat_times, st.integers(0, 5))
def test_build_bags_matches_loop(case, beats, per_positive):
    chans, pre = case
    got = build_bags([chans], [beats], per_positive, pre)
    windows = [ref.extract_instances(x, p, pre.half_len, ch, pre.zscore) for ch, x, p in chans]
    want = ref.build_bags(windows, beats, per_positive)
    assert bags(got, beats) == [
        (b.label, b.anchor_time, [(w.channel_id, w.peak_index, w.features.tobytes()) for w in b.windows])
        for b in want
    ]
    assert got.Xp.dtype == got.Xn.dtype == np.float64
    assert got.Xp.flags.c_contiguous and got.Xn.flags.c_contiguous
    for ids in (got.recording, got.channel, got.peak, got.bag):
        assert ids.dtype == np.asarray(0).dtype


@exact
@given(candidates(unique_peaks=True), beat_times, st.integers(1, 5))
def test_build_bags_is_a_partition(case, beats, per_positive):
    chans, pre = case
    blocks = build_bags([chans], [beats], per_positive, pre)
    placed = list(zip(blocks.channel.tolist(), blocks.peak.tolist()))
    every = [(ch, p) for ch, _, peaks in chans for p in peaks.tolist()]
    assert sorted(placed) == sorted(every)
    assert len(set(placed)) == len(placed)
    for b in blocks:
        ids = blocks.bag[b.start : b.stop]
        assert np.all(ids == ids[0])
        if b.label == 1:
            per_channel = blocks.channel[b.start : b.stop].tolist()
            assert max(per_channel.count(c) for c in set(per_channel)) <= per_positive
            assert 0 <= ids[0] < beats.size
        else:
            gaps = set(np.searchsorted(beats, blocks.peak[b.start : b.stop]).tolist())
            assert gaps == {ids[0] - beats.size}


@st.composite
def filter_input(draw):
    """1-5 channels of noise with an offset, from one sample more than the
    3 * (order + 1) pad to four blocks long, often within 2 samples of a
    whole number of blocks once the pad is on both ends, at one of three
    rates."""
    order = draw(st.sampled_from((2, 4, 6, 8, 10)))
    pad = 3 * (order + 1)
    blocks = draw(st.integers(1, 4))
    n = draw(st.one_of(
        st.integers(pad + 1, 4 * _BLOCK),
        st.integers(-2, 2).map(lambda e: blocks * _BLOCK - 2 * pad + e),
    ))
    n = max(n, pad + 1)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    x = rng.standard_normal((draw(st.integers(1, 5)), n)) * draw(st.sampled_from((1e-3, 1.0, 1e4)))
    x += draw(st.sampled_from((0.0, -3.5, 100.0)))
    return x, draw(st.sampled_from((50.0, 100.0, 250.0))), order


@exact
@given(filter_input(), st.booleans())
def test_bandpass_filter_matches_the_allocating_scan(case, as_list):
    x, fs, order = case
    want = ref.bandpass_filter(x, fs, order=order)
    got = bandpass_filter(list(x) if as_list else x, fs, order=order)
    assert got.shape == want.shape
    assert got.dtype == np.float64 and got.flags.c_contiguous
    assert got.tobytes() == want.tobytes()
    if x.shape[0] == 1:
        assert bandpass_filter(x[0], fs, order=order).tobytes() == want.tobytes()
