"""Preprocessing of multi-channel BCG recordings.

Turns raw transducer signals into the unit objects the learner consumes:
band-pass filtered channels, candidate peak locations, fixed-length
peak-centered instances, and labeled bags built around groundtruth beats.
The learner works per instance, so build_bags cuts each training window
once into a positive or a negative instance block (InstanceBlocks).
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

log = logging.getLogger(__name__)

DEFAULT_BAND_HZ = (0.4, 10.0)
DEFAULT_FILTER_ORDER = 6
DEFAULT_MIN_SEPARATION = 10
DEFAULT_HALF_LEN = 45
DEFAULT_PER_POSITIVE = 3


@dataclass
class Recording:
    """A multi-channel recording sampled on a common uniform time grid.

    channels       : list of equal-length 1-D arrays of finite floats
    sample_rate_hz : sampling rate shared by all channels, stored as a
                     float; 0 < sample_rate_hz < inf must hold
    gt_beat_times  : optional strictly increasing sample indices of
                     groundtruth beats (reference-sensor role), integers
                     of any dtype, stored as ints
    """

    channels: list[np.ndarray]
    sample_rate_hz: float
    gt_beat_times: np.ndarray | None = None

    def __post_init__(self):
        if not self.channels:
            raise ValueError("recording needs at least one channel")
        self.channels = [np.asarray(c, dtype=float) for c in self.channels]
        n = self.channels[0].size
        for i, c in enumerate(self.channels):
            if c.ndim != 1 or c.size != n:
                raise ValueError("all channels must be 1-D and equal length")
            if not np.all(np.isfinite(c)):
                raise ValueError(f"channel ch{i} has non-finite samples")
        self.sample_rate_hz = float(self.sample_rate_hz)
        if not 0.0 < self.sample_rate_hz < np.inf:
            raise ValueError(
                f"sample_rate_hz must be positive and finite, got {self.sample_rate_hz!r}"
            )
        if self.gt_beat_times is not None:
            given = np.asarray(self.gt_beat_times)
            # checked before the int cast, which warns on NaN, inf and values
            # past its range
            off = np.flatnonzero(~np.isfinite(given) | (given != np.trunc(given)))
            if off.size:  # seconds passed as sample indices would be truncated
                raise ValueError(f"gt_beat_times must be sample indices, "
                                 f"but {given[off[0]].item()!r} is not an integer")
            if np.any((given < 0) | (given >= n)) or np.any(np.diff(given) <= 0):
                raise ValueError(
                    "gt_beat_times must be strictly increasing and in range"
                )
            self.gt_beat_times = given.astype(int)

    @property
    def n_samples(self) -> int:
        return self.channels[0].size

    @property
    def duration_s(self) -> float:
        return self.n_samples / self.sample_rate_hz


@dataclass(frozen=True)
class Preprocessing:
    """How a recording becomes candidate windows: the band-pass edges (Hz)
    and order, the least spacing of candidate peaks (samples), the window
    half-length (samples) and whether each window is z-scored.  A learned
    dictionary holds only on windows cut under the record it was trained
    with.  The band-pass filter checks the band and order, the peak picker
    the spacing, and the CLI's settings table `half_len`."""

    band_low: float = DEFAULT_BAND_HZ[0]
    band_high: float = DEFAULT_BAND_HZ[1]
    filter_order: int = DEFAULT_FILTER_ORDER
    min_separation: int = DEFAULT_MIN_SEPARATION
    half_len: int = DEFAULT_HALF_LEN
    zscore: bool = False


class Bag(NamedTuple):
    """A bag's label (1 or 0) and its instances' range in InstanceBlocks."""

    label: int
    start: int
    stop: int


@dataclass(frozen=True, eq=False)
class InstanceBlocks:
    """The training windows, one per column of two C-contiguous blocks: Xp
    (d, n_pos) of the positive bags, Xn (d, n_neg) of the negative ones.
    recording, channel, peak and bag give, over the columns of Xp, then of
    Xn, each instance's recording (its place in build_bags' lists), channel
    id, peak sample and bag id: beat b's positive bag is b, and the gap
    before beat g (g = n_beats after the last) is n_beats + g.  A bag is a
    run of one (recording, bag id); iterating yields one Bag per run,
    positive bags first, and len() counts them."""

    Xp: np.ndarray
    Xn: np.ndarray
    recording: np.ndarray
    channel: np.ndarray
    peak: np.ndarray
    bag: np.ndarray

    def __post_init__(self):
        if self.Xp.ndim != 2 or self.Xn.ndim != 2 or self.Xp.shape[0] != self.Xn.shape[0]:
            raise ValueError("instance blocks must be 2-D, a window per column, of one feature dim")
        n = self.Xp.shape[1] + self.Xn.shape[1]
        if any(a.shape != (n,) for a in (self.recording, self.channel, self.peak, self.bag)):
            raise ValueError("instance blocks need one (recording, channel, peak, bag) per column")

    def __iter__(self):
        ends = np.flatnonzero(np.diff(self.recording) | np.diff(self.bag)) + 1
        bounds = [0, *ends.tolist(), self.bag.size] if self.bag.size else [0]
        n_pos = self.Xp.shape[1]
        return (Bag(int(a < n_pos), a, b) for a, b in zip(bounds, bounds[1:]))

    def __len__(self) -> int:
        return sum(1 for _ in self)


def _compensated_band_edges(low: float, high: float, half_order: int):
    # A zero-phase (forward-backward) pass squares the magnitude response,
    # so a filter designed at (low, high) would sit at -6 dB there.  Widen
    # the band so the cascade lands at -3 dB at the requested cutoffs: the
    # lowpass-prototype frequency where a single pass is -1.5 dB is
    # kappa = (sqrt(2)-1)^(1/(2n)) < 1, and the band-pass mapping
    # preserves the edge product while scaling the width by 1/kappa.
    kappa = (np.sqrt(2.0) - 1.0) ** (1.0 / (2.0 * half_order))
    width = (high - low) / kappa
    s = np.sqrt(width * width + 4.0 * low * high)
    return (s - width) / 2.0, (s + width) / 2.0


def butter_sos(n: int, fs: float, high: float, low: float | None = None) -> np.ndarray:
    """Digital Butterworth of order n (even) as (n/2, 6) second-order
    sections [b0, b1, b2, 1, a1, a2]: a low-pass with its -3 dB point at
    high, or, given low, a band-pass with -3 dB points at low and high.

    The design of scipy.signal.butter(..., output="sos"): analog prototype
    poles (of order n, or n/2 for the band-pass), the low-pass to low-pass
    or band-pass transform, the bilinear transform, and one section per
    conjugate pole pair (or per pair of real poles).  The section with the
    poles nearest the unit circle comes last and chooses its zeros (+1 or
    -1, whichever is nearer) first; the gain sits in the first section.
    """
    m = n if low is None else n // 2
    p = -np.exp(1j * np.pi * np.arange(1 - m, m, 2) / (2 * m))
    # Edges pre-warped for a bilinear transform at 2 samples per unit time.
    if low is None:
        w = 4.0 * np.tan(np.pi * high / fs)
        p, zeros_at_dc = p * w, 0
    else:
        w_lo, w_hi = 4.0 * np.tan(np.pi * np.array([low, high]) / fs)
        w, w0 = w_hi - w_lo, np.sqrt(w_lo * w_hi)
        p = p * (w / 2.0)
        split = np.sqrt(p * p - w0 * w0)
        p, zeros_at_dc = np.concatenate([p + split, p - split]), m
    # Analog zeros at s = 0 map to z = 1, the m at infinity to z = -1.
    gain = w**m * np.real(4.0**zeros_at_dc / np.prod(4.0 - p))
    p = (4.0 + p) / (4.0 - p)
    pairs = [np.array([q, q.conjugate()]) for q in p[p.imag > 0]]
    if np.any(p.imag == 0):  # the odd prototype pole split into two real ones
        pairs.append(p[p.imag == 0])
    pairs.sort(key=lambda q: np.abs(q).max())
    free = {1.0: zeros_at_dc, -1.0: m}
    sos = np.empty((n // 2, 6))
    for i in reversed(range(n // 2)):
        zeros = []
        for q in sorted(pairs[i], key=abs, reverse=True):
            z = 1.0 if (q.real > 0 and free[1.0]) or not free[-1.0] else -1.0
            free[z] -= 1
            zeros.append(z)
        sos[i, :3] = np.poly(zeros)
        sos[i, 3:] = np.poly(pairs[i]).real
    sos[0, :3] *= gain
    return sos


def _steady_states(sos: np.ndarray) -> np.ndarray:
    """(sections, 2) states of the cascade at rest under a unit constant
    input (scipy's sosfilt_zi): each section's 2x2 steady-state system,
    solved in closed form and scaled by the DC gain of the sections
    before it."""
    zi = np.empty((len(sos), 2))
    scale = 1.0
    for s, (b0, b1, b2, _, a1, a2) in enumerate(sos):
        u0, u1 = b1 - a1 * b0, b2 - a2 * b0
        z0 = (u0 + u1) / (1.0 + a1 + a2)
        zi[s] = scale * z0, scale * (u1 - a2 * z0)
        scale *= (b0 + b1 + b2) / (1.0 + a1 + a2)
    return zi


# Samples per block of the scan: each block costs one (block x block)
# matmul per section, and the state is carried across blocks in Python.
# Of 32-256, 96-256 were fastest on 4 channels of 18k and 120k samples
# (2-vCPU host, one BLAS thread).
_BLOCK = 128


def _block_operators(section: np.ndarray, length: int):
    """One direct-form-II-transposed section over a block of `length`
    samples as matrices.  For a block x (a row) started from state z, the
    output is [x, z] @ W and the final state x @ F + z @ A^length.T;
    returns (W, F, A^length)."""
    b0, b1, b2, _, a1, a2 = section
    A = np.array([[-a1, 1.0], [-a2, 0.0]])
    u = np.array([b1 - a1 * b0, b2 - a2 * b0])
    powers = [np.eye(2)]
    for _ in range(length):
        powers.append(A @ powers[-1])
    powers = np.array(powers)
    impulse = np.concatenate([[b0], powers[: length - 1, 0] @ u])
    lag = np.subtract.outer(np.arange(length), np.arange(length))
    toeplitz = np.where(lag >= 0, impulse[np.maximum(lag, 0)], 0.0)
    W = np.vstack([toeplitz.T, powers[:length, 0].T])
    return W, powers[length - 1 :: -1] @ u, powers[length]


def _sosfilt(operators, src: np.ndarray, dst: np.ndarray, c: int, zi: np.ndarray):
    """The section cascade run over c rows from the states zi (sections, c, 2),
    as a blocked scan.  Row r's samples are blocks r*nb .. r*nb + nb - 1 of
    the buffers, each (c * nb, _BLOCK + 2): a block's _BLOCK samples, then
    the 2-state it starts from.  The input is in src; per section, every
    block's start state is carried from block to block, and one matmul
    over all blocks writes the section's output into the other buffer.
    Returns (the buffer holding the output, the other one)."""
    nb = src.shape[0] // c
    for (W, F, A_block), z in zip(operators, zi):
        ends = (src[:, :_BLOCK] @ F).reshape(c, nb, 2).transpose(1, 0, 2).copy()
        starts = src[:, _BLOCK:].reshape(c, nb, 2).transpose(1, 0, 2)
        for k in range(nb):
            starts[k] = z
            z = z @ A_block.T + ends[k]
        np.matmul(src, W, out=dst[:, :_BLOCK])
        src, dst = dst, src
    return src, dst


def zero_phase_filter(x, sos: np.ndarray) -> np.ndarray:
    """The cascade of second-order sections `sos` applied forward and
    backward: scipy's sosfiltfilt, with odd extension by 3 (2 sections + 1)
    samples at each end and both passes started from the steady state of
    their first sample (Gustafsson, IEEE TSP 44(4), 1996).  `x` is one
    signal, a (channels, n) array or a list of equal-length channels,
    filtered row by row; the output is 1-D for one signal and (channels, n)
    otherwise.

    Both passes run in two (channels * blocks, _BLOCK + 2) buffers that
    each section writes alternately, and the output is a view of one of
    them, so the filter holds about twice the channels' bytes at its peak
    and no copy of its input.
    """
    if isinstance(x, (list, tuple)) and x and all(np.ndim(r) == 1 for r in x):
        rows = [np.asarray(r, dtype=float) for r in x]
        if len({r.size for r in rows}) != 1:
            raise ValueError("channels must have equal length")
        shape = (len(rows), rows[0].size)
    else:
        x = np.asarray(x, dtype=float)
        if x.ndim not in (1, 2):
            raise ValueError("expected a 1-D signal or a (channels, n) array")
        rows, shape = np.atleast_2d(x), x.shape
    pad = 3 * (2 * len(sos) + 1)
    n = shape[-1]
    if n <= pad:
        raise ValueError("signal too short for zero-phase filtering")
    operators = [_block_operators(s, _BLOCK) for s in sos]
    zi = _steady_states(sos)[:, None, :]

    c, m = len(rows), n + 2 * pad
    nb = -(-m // _BLOCK)
    tail = nb * _BLOCK - m
    src, dst = np.empty((c * nb, _BLOCK + 2)), np.empty((c * nb, _BLOCK + 2))

    def row_blocks(buf, r):
        return buf[r * nb : (r + 1) * nb, :_BLOCK]

    # One row's samples as blocks, zero after its m samples for the first
    # pass.  line stays zero from nb * _BLOCK on, so after reversed_row
    # line[tail:] holds a pass's output row reversed, zero-padded likewise.
    line = np.zeros((nb + 1) * _BLOCK)
    seq = line[: nb * _BLOCK].reshape(nb, _BLOCK)

    def reversed_row(buf, r):
        seq[::-1, ::-1] = row_blocks(buf, r)
        return line[tail : tail + nb * _BLOCK]

    first = np.empty((c, 1))  # each row's first input sample, per pass
    for r, row in enumerate(rows):
        line[:pad] = 2 * row[:1] - row[pad:0:-1]
        line[pad : pad + n] = row
        line[pad + n : m] = 2 * row[-1:] - row[-2 : -pad - 2 : -1]
        row_blocks(src, r)[...] = seq
        first[r] = line[0]
    src, dst = _sosfilt(operators, src, dst, c, zi * first)
    for r in range(c):
        rev = reversed_row(src, r)
        row_blocks(dst, r)[...] = rev.reshape(nb, _BLOCK)
        first[r] = rev[0]
    src, dst = _sosfilt(operators, dst, src, c, zi * first)
    # The result reuses the memory of the buffer the last section read.
    y = dst.reshape(-1)[: c * n].reshape(c, n)
    for r in range(c):
        y[r] = reversed_row(src, r)[pad : pad + n]
    return y.reshape(shape)


def bandpass_filter(
    x,
    fs: float,
    low: float = DEFAULT_BAND_HZ[0],
    high: float = DEFAULT_BAND_HZ[1],
    order: int = DEFAULT_FILTER_ORDER,
) -> np.ndarray:
    """Zero-phase Butterworth band-pass with -3 dB points at low and high,
    over `x` as zero_phase_filter takes it.

    `order` is the analog prototype order of the band-pass (must be even,
    >= 2); the forward-backward application doubles the effective rolloff
    but the -3 dB contract refers to the full zero-phase result.
    """
    if order % 2 != 0 or order < 2:
        raise ValueError("filter order must be even and >= 2")
    if not (0.0 < low < high < fs / 2.0):
        raise ValueError("need 0 < low < high < Nyquist")
    lo, hi = _compensated_band_edges(low, high, order // 2)
    if hi >= fs / 2.0:
        raise ValueError("compensated upper edge reaches Nyquist; raise fs")
    return zero_phase_filter(x, butter_sos(order, fs, hi, lo))


def find_peaks(x: np.ndarray, min_separation: int = DEFAULT_MIN_SEPARATION) -> np.ndarray:
    """Indices of strict local maxima at least `min_separation` apart.

    On a conflict the larger-valued peak is kept; exact value ties keep the
    earlier index.  The result is strictly increasing.
    """
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
    kept = bytearray(x.size)
    for idx in cand[np.lexsort((cand, -x[cand]))].tolist():
        if kept.find(1, max(0, idx - min_separation + 1), idx + min_separation) < 0:
            kept[idx] = 1
    return np.flatnonzero(np.frombuffer(kept, dtype=np.uint8))


def extract_instances(
    x: np.ndarray,
    peaks: np.ndarray,
    half_len: int = DEFAULT_HALF_LEN,
    zscore: bool = False,
) -> np.ndarray:
    """The (len(peaks), 2*half_len + 1) C-contiguous array whose row i is
    the window centered on sample peaks[i].

    A window that would cross a signal boundary raises ValueError rather
    than being skipped, which would misalign rows and peaks.  With `zscore`
    each window is standardized to zero mean, unit variance (a constant
    window is only centered).
    """
    x = np.asarray(x, dtype=float)
    peaks = np.asarray(peaks, dtype=int)
    width = 2 * half_len + 1
    if peaks.size == 0:
        return np.empty((0, width))
    outside = (peaks < half_len) | (peaks + half_len >= x.size)
    if np.any(outside):
        raise ValueError(
            f"the {width}-sample window around peak {int(peaks[np.argmax(outside)])} "
            f"crosses the boundary of a {x.size}-sample signal"
        )
    W = sliding_window_view(x, width)[peaks - half_len]
    if zscore:
        # Row-wise reductions sum each window exactly as its own 1-D
        # std()/mean() would; reducing down columns would round differently.
        sd = W.std(axis=1, keepdims=True)
        W -= W.mean(axis=1, keepdims=True)
        W /= np.where(sd > 0, sd, 1.0)
    return W


def flat_channel(raw: np.ndarray, channel_id: int) -> bool:
    """True, with a logged warning naming the channel, when every raw
    sample is the same value.  Band-passing such a channel leaves round-off
    noise only, so it must give no candidate peaks."""
    if raw.size == 0 or raw.min() != raw.max():
        return False
    log.warning("ch%d is flat (every sample is %r); it gives no candidate peaks",
                channel_id, float(raw[0]))
    return True


def build_bags(
    candidates_list,
    gt_list,
    per_positive: int = DEFAULT_PER_POSITIVE,
    pre: Preprocessing = Preprocessing(),
) -> InstanceBlocks:
    """Group each recording's candidates into one positive bag per beat
    plus gap negative bags, and cut each window once into its column of
    the positive or the negative block.

    `candidates_list` holds per recording what `candidate_peaks(rec, pre)`
    returns: per channel (its unique id, filtered channel, int peaks
    whose windows fit); `gt_list` their groundtruth beats, at least one
    per recording.  Every instance is first assigned to its nearest beat
    (ties -> earlier beat).  A beat's positive bag takes, per channel, the
    `per_positive` assigned instances closest in time (ties -> earlier
    peak index).  Instances left over fall into one negative bag per
    inter-beat gap.  Empty bags are not emitted.  Positive bags come first, each kind by recording, then
    beat or gap, and list their instances by channel id, then peak index.
    Each channel's windows are cut in one `extract_instances` call (under
    `pre.half_len` and `pre.zscore`) into blocks allocated once.
    """
    filtered, rows = [], []
    for r, (candidates, beats) in enumerate(zip(candidates_list, gt_list)):
        beats = np.asarray(beats, dtype=int)
        sizes = [p.size for _, _, p in candidates]
        peak = np.concatenate([np.empty(0, dtype=int), *(p for _, _, p in candidates)])
        channel = np.repeat(np.asarray([ch_id for ch_id, _, _ in candidates], dtype=int), sizes)
        filtered += [(r, ch_id, filt) for ch_id, filt, _ in candidates]
        # Nearest beat; an equidistant peak goes to the earlier beat.
        gap = np.searchsorted(beats, peak)
        left = beats[np.maximum(gap - 1, 0)]
        right = beats[np.minimum(gap, beats.size - 1)]
        earlier = (gap == beats.size) | ((gap > 0) & (peak - left <= right - peak))
        nearest = np.where(earlier, gap - 1, gap)

        # Within each (beat, channel) the instances closest in time, then
        # earliest, fill the beat's positive bag up to per_positive; the
        # stable lexsort keeps candidate order among equal keys.
        order = np.lexsort((peak, np.abs(peak - beats[nearest]), channel, nearest))
        new_group = np.ones(order.size, dtype=bool)
        new_group[1:] = (np.diff(nearest[order]) != 0) | (np.diff(channel[order]) != 0)
        starts = np.flatnonzero(new_group)
        rank = np.arange(order.size) - np.repeat(starts, np.diff(starts, append=order.size))
        positive = np.empty(order.size, dtype=bool)
        positive[order] = rank < per_positive
        bag = np.where(positive, nearest, beats.size + gap)
        order = np.lexsort((peak, channel, bag))
        rows.append([a[order] for a in (np.full(peak.size, r), channel, peak, bag, positive)])
    recording, channel, peak, bag, positive = map(np.concatenate, zip(*rows))
    order = np.argsort(~positive, kind="stable")  # each recording's order is kept
    recording, channel, peak, bag = (a[order] for a in (recording, channel, peak, bag))
    n_pos = int(np.count_nonzero(positive))
    width = 2 * pre.half_len + 1
    Xp, Xn = np.empty((width, n_pos)), np.empty((width, peak.size - n_pos))
    for r, ch_id, filt in filtered:
        cols = np.flatnonzero((recording == r) & (channel == ch_id))
        W = extract_instances(filt, peak[cols], pre.half_len, pre.zscore)
        m = int(np.searchsorted(cols, n_pos))  # the channel's positive columns come first
        Xp[:, cols[:m]] = W[:m].T
        Xn[:, cols[m:] - n_pos] = W[m:].T
    return InstanceBlocks(Xp, Xn, recording, channel, peak, bag)


def candidate_peaks(rec: Recording, pre: Preprocessing = Preprocessing()) -> list:
    """Filter every channel in one call, then per channel (channel id,
    filtered channel, candidate peaks): the peaks whose window fits inside
    the recording, none on a flat channel (see `flat_channel`).  The
    filtered channels are rows of one (channels, n) array."""
    filtered = bandpass_filter(
        rec.channels, rec.sample_rate_hz, pre.band_low, pre.band_high, pre.filter_order
    )
    candidates = []
    for ch_id, (raw, filt) in enumerate(zip(rec.channels, filtered)):
        if flat_channel(raw, ch_id):
            peaks = np.empty(0, dtype=int)
        else:
            peaks = find_peaks(filt, pre.min_separation)
        fits = (peaks >= pre.half_len) & (peaks + pre.half_len < filt.size)
        candidates.append((ch_id, filt, peaks[fits]))
    return candidates
