"""Heart-rate series containers and agreement statistics.

The estimators (detector and baselines) emit HrSeries objects on a common
sliding-window grid; everything here compares two such series, or two beat
sequences, without caring where they came from.  HR series compare only on
one grid (equal window centres, else ValueError); beats match within
BEAT_MATCH_TOL_S, the one tolerance of eval and the voting-parameter grid.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# Largest distance (s) at which an estimated beat matches a groundtruth beat.
BEAT_MATCH_TOL_S = 0.3


@dataclass
class HrSeries:
    """Windowed heart-rate estimates.

    times holds window centers in seconds, bpm the estimates with NaN
    marking windows where no estimate was possible (gaps).
    low_confidence is an estimator-set quality flag for the whole series.
    """

    times: np.ndarray
    bpm: np.ndarray
    low_confidence: bool = False

    def __post_init__(self):
        self.times = np.asarray(self.times, dtype=float)
        self.bpm = np.asarray(self.bpm, dtype=float)
        if self.times.shape != self.bpm.shape or self.times.ndim != 1:
            raise ValueError("times and bpm must be equal-length 1-D arrays")

    @property
    def n_windows(self) -> int:
        return self.times.size


@dataclass(frozen=True)
class AgreementStats:
    """Bland-Altman agreement between paired measurements."""

    bias: float
    sd: float
    loa_low: float
    loa_high: float
    n: int


def greedy_match(
    est_times: np.ndarray, gt_times: np.ndarray, tol_s: float = BEAT_MATCH_TOL_S
) -> list[tuple[int, int]]:
    """One-to-one greedy matching of two event-time sequences.

    Candidate pairs within tol_s are taken closest-first (ties prefer the
    earlier estimate index, then the earlier groundtruth index); each event
    matches at most once.  Returns (est_index, gt_index) pairs sorted by
    estimate index.
    """
    est = np.asarray(est_times, dtype=float)
    gt = np.asarray(gt_times, dtype=float)
    lo = np.searchsorted(gt, est - tol_s, side="left")
    hi = np.searchsorted(gt, est + tol_s, side="right")
    counts = np.maximum(hi - lo, 0)
    # every (i, j) with lo[i] <= j < hi[i], ordered by (distance, i, j)
    i = np.repeat(np.arange(est.size), counts)
    j = np.arange(i.size) + np.repeat(lo - (np.cumsum(counts) - counts), counts)
    dist = np.abs(est[i] - gt[j])
    order = np.lexsort((j, i, dist))
    used_e = [False] * est.size
    used_g = [False] * gt.size
    pairs: list[tuple[int, int]] = []
    for a, b in zip(i[order].tolist(), j[order].tolist()):
        if not used_e[a] and not used_g[b]:
            used_e[a] = used_g[b] = True
            pairs.append((a, b))
    pairs.sort()
    return pairs


def window_errors(est: HrSeries, gt: HrSeries) -> np.ndarray:
    """|est - gt| in each window, NaN where either series has a gap.
    Raises ValueError unless both series hold the same window centres."""
    if not np.array_equal(est.times, gt.times):
        a, b = (f"{s.n_windows} windows, first centres {s.times[:2].tolist()} s" for s in (est, gt))
        raise ValueError(f"the series lie on different HR window grids: {a} vs {b}")
    return np.abs(est.bpm - gt.bpm)


def per_window_errors(est: HrSeries, gt: HrSeries):
    """(time, est, gt, abs err) rows over the windows of the one grid both
    series lie on (see window_errors), gaps in either dropped."""
    err = window_errors(est, gt)
    keep = ~np.isnan(err)
    return list(zip(*(a[keep].tolist() for a in (est.times, est.bpm, gt.bpm, err))))


def mae(est: HrSeries, gt: HrSeries) -> float:
    """Mean absolute error over shared non-gap windows (bpm)."""
    rows = per_window_errors(est, gt)
    if not rows:
        raise ValueError("no overlapping non-gap windows to compare")
    return float(np.mean([r[3] for r in rows]))


def matched_interval_pairs(est_beats_s: np.ndarray, gt_beats_s: np.ndarray):
    """Beat-to-beat intervals over consecutively matched beat pairs.

    Matches beats one-to-one (greedy_match) and keeps intervals
    whose endpoints are matched consecutively in both sequences.  Returns
    (est_intervals, gt_intervals) in seconds.
    """
    est = np.asarray(est_beats_s, dtype=float)
    gt = np.asarray(gt_beats_s, dtype=float)
    pairs = greedy_match(est, gt)
    e_iv, g_iv = [], []
    for (i0, j0), (i1, j1) in zip(pairs, pairs[1:]):
        if i1 == i0 + 1 and j1 == j0 + 1:
            e_iv.append(est[i1] - est[i0])
            g_iv.append(gt[j1] - gt[j0])
    return np.asarray(e_iv), np.asarray(g_iv)


def bbi_relative_error(est_beats_s: np.ndarray, gt_beats_s: np.ndarray) -> float:
    """Mean relative beat-to-beat-interval error in percent."""
    e_iv, g_iv = matched_interval_pairs(est_beats_s, gt_beats_s)
    if e_iv.size == 0:
        raise ValueError("no consecutively matched beat pairs")
    return float(np.mean(np.abs(e_iv - g_iv) / g_iv) * 100.0)


def bland_altman(est: np.ndarray, gt: np.ndarray) -> AgreementStats:
    """Bias and 1.96-sd limits of agreement of est - gt."""
    est = np.asarray(est, dtype=float)
    gt = np.asarray(gt, dtype=float)
    if est.shape != gt.shape or est.ndim != 1:
        raise ValueError("need two equal-length 1-D arrays")
    if est.size < 2:
        raise ValueError("need at least two pairs")
    d = est - gt
    bias = float(np.mean(d))
    sd = float(np.std(d, ddof=1))
    return AgreementStats(
        bias=bias, sd=sd, loa_low=bias - 1.96 * sd, loa_high=bias + 1.96 * sd, n=d.size
    )


def pearson_r(x: np.ndarray, y: np.ndarray) -> float:
    """Sample correlation coefficient."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.shape != y.shape or x.ndim != 1 or x.size < 2:
        raise ValueError("need two equal-length 1-D arrays of size >= 2")
    xc = x - x.mean()
    yc = y - y.mean()
    den = np.sqrt(np.sum(xc * xc) * np.sum(yc * yc))
    if den == 0.0:
        raise ValueError("zero variance input")
    return float(np.sum(xc * yc) / den)


def paired_t(a: np.ndarray, b: np.ndarray) -> float:
    """Paired t statistic: mean(a-b) / (sd(a-b)/sqrt(n)), sd with n-1.

    Antisymmetric in its arguments; degrees of freedom are len(a) - 1.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.shape != b.shape or a.ndim != 1 or a.size < 2:
        raise ValueError("need two equal-length samples of size >= 2")
    d = a - b
    sd = float(np.std(d, ddof=1))
    if sd == 0.0:
        raise ValueError("zero-variance differences")
    return float(np.mean(d) / (sd / np.sqrt(d.size)))
