"""Loop versions of peak picking, window cutting and bag building, and the
allocating blocked scan of the band-pass filter.

These are the straightforward per-peak implementations that the array
versions in bcgbeat.signals replaced, and the filter scan that stacked a
new block array for every section.  They are kept only as the reference
that tests/test_signals_exact.py compares against: both must return
identical peaks, byte-identical windows, identical bags and bit-identical
filter output.  They build their own plain records, not the package's
types they are the oracle for.
"""

from typing import NamedTuple

import numpy as np

from bcgbeat.signals import (
    _BLOCK,
    _block_operators,
    _compensated_band_edges,
    _steady_states,
    butter_sos,
)


class Window(NamedTuple):
    features: np.ndarray
    channel_id: int
    peak_index: int


class RefBag(NamedTuple):
    windows: tuple
    label: int
    anchor_time: int | None = None


def find_peaks(x, min_separation=10):
    x = np.asarray(x, dtype=float)
    if x.ndim != 1:
        raise ValueError("expected a 1-D signal")
    if min_separation < 1:
        raise ValueError("min_separation must be >= 1")
    if x.size < 3:
        return np.empty(0, dtype=int)
    interior = (x[1:-1] > x[:-2]) & (x[1:-1] > x[2:])
    cand = np.flatnonzero(interior) + 1
    if cand.size == 0 or min_separation == 1:
        return cand
    # Greedy by amplitude, earlier index on ties; then enforce spacing.
    order = sorted(range(cand.size), key=lambda j: (-x[cand[j]], cand[j]))
    kept_mask = np.zeros(x.size, dtype=bool)
    kept = []
    for j in order:
        idx = cand[j]
        lo = max(0, idx - min_separation + 1)
        hi = min(x.size, idx + min_separation)
        if not kept_mask[lo:hi].any():
            kept_mask[idx] = True
            kept.append(idx)
    kept.sort()
    return np.asarray(kept, dtype=int)


def extract_instances(x, peaks, half_len=45, channel_id=0, zscore=False):
    """One Window per in-range peak, in the order of `peaks`."""
    x = np.asarray(x, dtype=float)
    out = []
    for p in np.asarray(peaks, dtype=int):
        if p - half_len < 0 or p + half_len >= x.size:
            continue
        w = x[p - half_len : p + half_len + 1].copy()
        if zscore:
            sd = w.std()
            w = (w - w.mean()) / (sd if sd > 0 else 1.0)
        out.append(Window(features=w, channel_id=channel_id, peak_index=int(p)))
    return out


def _nearest_beat(peak, beats):
    """Index of the groundtruth beat nearest to `peak` (ties -> earlier)."""
    j = int(np.searchsorted(beats, peak))
    if j == 0:
        return 0
    if j == beats.size:
        return beats.size - 1
    left, right = beats[j - 1], beats[j]
    return j - 1 if peak - left <= right - peak else j


def build_bags(per_channel_instances, gt_beat_times, per_positive=3):
    """build_bags over per-channel lists of Window records."""
    beats = np.asarray(gt_beat_times, dtype=int)

    assigned = {}
    for ch_id, ch_instances in enumerate(per_channel_instances):
        for inst in ch_instances:
            b = _nearest_beat(inst.peak_index, beats)
            assigned.setdefault((b, ch_id), []).append(inst)

    leftovers = []
    bags = []
    for b in range(beats.size):
        chosen = []
        for ch_id in range(len(per_channel_instances)):
            cand = assigned.get((b, ch_id), [])
            cand.sort(key=lambda i: (abs(i.peak_index - beats[b]), i.peak_index))
            chosen.extend(cand[:per_positive])
            leftovers.extend(cand[per_positive:])
        if chosen:
            chosen.sort(key=lambda i: (i.channel_id, i.peak_index))
            bags.append(RefBag(windows=tuple(chosen), label=1, anchor_time=int(beats[b])))

    gaps = {}
    for inst in leftovers:
        g = int(np.searchsorted(beats, inst.peak_index))
        gaps.setdefault(g, []).append(inst)
    for g in sorted(gaps):
        members = sorted(gaps[g], key=lambda i: (i.channel_id, i.peak_index))
        bags.append(RefBag(windows=tuple(members), label=0))
    return bags


def _sosfilt(operators, x, zi):
    c, m = x.shape
    nb = -(-m // _BLOCK)
    y = np.zeros((c * nb, _BLOCK))
    y.reshape(c, -1)[:, :m] = x
    for (W, F, A_block), z in zip(operators, zi):
        ends = (y @ F).reshape(c, nb, 2).transpose(1, 0, 2).copy()
        starts = np.empty((nb, c, 2))
        for k in range(nb):
            starts[k] = z
            z = z @ A_block.T + ends[k]
        y = np.hstack([y, starts.transpose(1, 0, 2).reshape(c * nb, 2)]) @ W
    return y.reshape(c, -1)[:, :m]


def bandpass_filter(x, fs, low=0.4, high=10.0, order=6):
    """The band-pass of a 1-D signal or a (channels, n) array, as two
    allocating blocked scans over an odd-extended copy of the input."""
    x = np.asarray(x, dtype=float)
    half_order = order // 2
    lo, hi = _compensated_band_edges(low, high, half_order)
    pad = 3 * (2 * half_order + 1)
    sos = butter_sos(order, fs, lo, hi)
    rows = np.atleast_2d(x)
    ext = np.concatenate(
        [2 * rows[:, :1] - rows[:, pad:0:-1], rows, 2 * rows[:, -1:] - rows[:, -2 : -pad - 2 : -1]],
        axis=1,
    )
    operators = [_block_operators(s, _BLOCK) for s in sos]
    zi = _steady_states(sos)[:, None, :]
    y = _sosfilt(operators, ext, zi * ext[:, :1])
    y = _sosfilt(operators, y[:, ::-1], zi * y[:, -1:])
    return np.ascontiguousarray(y[:, ::-1][:, pad:-pad]).reshape(x.shape)
