"""Preprocessing of multi-channel BCG recordings.

Turns raw transducer signals into the unit objects the learner consumes:
band-pass filtered channels, candidate peak locations, fixed-length
peak-centered instances, and labeled bags built around groundtruth beats.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

DEFAULT_BAND_HZ = (0.4, 10.0)
DEFAULT_FILTER_ORDER = 6
DEFAULT_MIN_SEPARATION = 10
DEFAULT_HALF_LEN = 45
DEFAULT_PER_POSITIVE = 3


@dataclass
class Recording:
    """A multi-channel recording sampled on a common uniform time grid.

    channels       : list of equal-length 1-D arrays of finite floats
    sample_rate_hz : sampling rate shared by all channels
    gt_beat_times  : optional strictly increasing int sample indices of
                     groundtruth beats (reference-sensor role)
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
        if self.sample_rate_hz <= 0:
            raise ValueError("sample_rate_hz must be positive")
        if self.gt_beat_times is not None:
            gt = np.asarray(self.gt_beat_times, dtype=int)
            if gt.size and (np.any(np.diff(gt) <= 0) or gt[0] < 0 or gt[-1] >= n):
                raise ValueError(
                    "gt_beat_times must be strictly increasing and in range"
                )
            self.gt_beat_times = gt

    @property
    def n_samples(self) -> int:
        return self.channels[0].size

    @property
    def duration_s(self) -> float:
        return self.n_samples / self.sample_rate_hz


@dataclass(frozen=True)
class Instance:
    """A fixed-length window centered on one candidate peak."""

    features: np.ndarray
    channel_id: int
    peak_index: int


@dataclass(frozen=True)
class Bag:
    """A labeled multiset of instances.

    label 1 marks a positive bag (at least one instance is a true heartbeat
    window); label 0 marks a bag of pure-background instances.
    anchor_time is the groundtruth beat sample for positive bags.
    """

    instances: tuple[Instance, ...]
    label: int
    anchor_time: int | None = None

    def __post_init__(self):
        if self.label not in (0, 1):
            raise ValueError("bag label must be 0 or 1")
        if not self.instances:
            raise ValueError("bags must be non-empty")


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


def bandpass_filter(
    x: np.ndarray,
    fs: float,
    low: float = DEFAULT_BAND_HZ[0],
    high: float = DEFAULT_BAND_HZ[1],
    order: int = DEFAULT_FILTER_ORDER,
) -> np.ndarray:
    """Zero-phase Butterworth band-pass with -3 dB points at low and high.

    `order` is the analog prototype order of the band-pass (must be even,
    >= 2); the forward-backward application doubles the effective rolloff
    but the -3 dB contract refers to the full zero-phase result.  Output
    has the same length as the input.
    """
    x = np.asarray(x, dtype=float)
    if x.ndim != 1:
        raise ValueError("expected a 1-D signal")
    if order % 2 != 0 or order < 2:
        raise ValueError("filter order must be even and >= 2")
    if not (0.0 < low < high < fs / 2.0):
        raise ValueError("need 0 < low < high < Nyquist")
    half_order = order // 2
    lo, hi = _compensated_band_edges(low, high, half_order)
    if hi >= fs / 2.0:
        raise ValueError("compensated upper edge reaches Nyquist; raise fs")
    # scipy.signal costs about a second to import; only filtering pays it
    from scipy.signal import butter, sosfiltfilt

    sos = butter(half_order, [lo, hi], btype="bandpass", fs=fs, output="sos")
    if x.size <= 3 * (2 * half_order + 1):
        raise ValueError("signal too short for zero-phase filtering")
    return sosfiltfilt(sos, x)


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
    order = sorted(range(cand.size), key=lambda j: (-x[cand[j]], cand[j]))
    kept_mask = np.zeros(x.size, dtype=bool)
    kept: list[int] = []
    for j in order:
        idx = cand[j]
        lo = max(0, idx - min_separation + 1)
        hi = min(x.size, idx + min_separation)
        if not kept_mask[lo:hi].any():
            kept_mask[idx] = True
            kept.append(idx)
    kept.sort()
    return np.asarray(kept, dtype=int)


def extract_instances(
    x: np.ndarray,
    peaks: np.ndarray,
    half_len: int = DEFAULT_HALF_LEN,
    channel_id: int = 0,
    zscore: bool = False,
) -> list[Instance]:
    """Cut a (2*half_len + 1)-sample window around each peak.

    Peaks whose window would cross a signal boundary are skipped.  With
    `zscore` each window is standardized to zero mean, unit variance.
    """
    x = np.asarray(x, dtype=float)
    out: list[Instance] = []
    for p in np.asarray(peaks, dtype=int):
        if p - half_len < 0 or p + half_len >= x.size:
            continue
        w = x[p - half_len : p + half_len + 1].copy()
        if zscore:
            sd = w.std()
            w = (w - w.mean()) / (sd if sd > 0 else 1.0)
        out.append(Instance(features=w, channel_id=channel_id, peak_index=int(p)))
    return out


def _nearest_beat(peak: int, beats: np.ndarray) -> int:
    """Index of the groundtruth beat nearest to `peak` (ties -> earlier)."""
    j = int(np.searchsorted(beats, peak))
    if j == 0:
        return 0
    if j == beats.size:
        return beats.size - 1
    left, right = beats[j - 1], beats[j]
    # tie (equidistant) goes to the earlier beat
    return j - 1 if peak - left <= right - peak else j


def build_bags(
    per_channel_instances: list[list[Instance]],
    gt_beat_times: np.ndarray,
    per_positive: int = DEFAULT_PER_POSITIVE,
) -> list[Bag]:
    """Group instances into one positive bag per beat plus gap negative bags.

    Every instance is first assigned to its nearest groundtruth beat
    (ties -> earlier beat).  A beat's positive bag takes, per channel, the
    `per_positive` assigned instances closest in time (ties -> earlier peak
    index).  Instances left over fall into one negative bag per inter-beat
    gap (including the gaps before the first and after the last beat).
    Every instance lands in exactly one bag; empty bags are not emitted.
    Positive bags come first in beat order, then negative bags in gap order.
    """
    beats = np.asarray(gt_beat_times, dtype=int)
    all_instances = [inst for ch in per_channel_instances for inst in ch]
    if beats.size == 0:
        if not all_instances:
            return []
        return [Bag(instances=tuple(all_instances), label=0)]

    assigned: dict[tuple[int, int], list[Instance]] = {}
    for ch_id, ch_instances in enumerate(per_channel_instances):
        for inst in ch_instances:
            b = _nearest_beat(inst.peak_index, beats)
            assigned.setdefault((b, ch_id), []).append(inst)

    leftovers: list[Instance] = []
    bags: list[Bag] = []
    for b in range(beats.size):
        chosen: list[Instance] = []
        for ch_id in range(len(per_channel_instances)):
            cand = assigned.get((b, ch_id), [])
            cand.sort(key=lambda i: (abs(i.peak_index - beats[b]), i.peak_index))
            chosen.extend(cand[:per_positive])
            leftovers.extend(cand[per_positive:])
        if chosen:
            chosen.sort(key=lambda i: (i.channel_id, i.peak_index))
            bags.append(Bag(instances=tuple(chosen), label=1, anchor_time=int(beats[b])))

    gaps: dict[int, list[Instance]] = {}
    for inst in leftovers:
        g = int(np.searchsorted(beats, inst.peak_index))
        gaps.setdefault(g, []).append(inst)
    for g in sorted(gaps):
        members = sorted(gaps[g], key=lambda i: (i.channel_id, i.peak_index))
        bags.append(Bag(instances=tuple(members), label=0))
    return bags


def preprocess_recording(
    rec: Recording,
    low: float = DEFAULT_BAND_HZ[0],
    high: float = DEFAULT_BAND_HZ[1],
    order: int = DEFAULT_FILTER_ORDER,
    min_separation: int = DEFAULT_MIN_SEPARATION,
    half_len: int = DEFAULT_HALF_LEN,
    zscore: bool = False,
) -> list[list[Instance]]:
    """Filter every channel, locate candidate peaks, and cut instances."""
    per_channel: list[list[Instance]] = []
    for ch_id, raw in enumerate(rec.channels):
        filt = bandpass_filter(raw, rec.sample_rate_hz, low, high, order)
        peaks = find_peaks(filt, min_separation)
        per_channel.append(
            extract_instances(filt, peaks, half_len, channel_id=ch_id, zscore=zscore)
        )
    return per_channel
