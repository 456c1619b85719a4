"""Heart-rate series containers and agreement statistics.

An HR estimator (the detector, or any other on the same windows) emits
HrSeries objects on a common sliding-window grid; everything here compares
two such series, or two beat sequences, without caring where they came
from.  HR series compare only on one grid (equal window centres, else
ValueError); beats match within BEAT_MATCH_TOL_S, the one tolerance of
eval and the voting-parameter grid.  `evaluate` composes eval's report
from them.
"""

from __future__ import annotations

from contextlib import contextmanager, suppress
from dataclasses import dataclass

import numpy as np

# Largest distance (s) at which an estimated beat matches a groundtruth beat.
BEAT_MATCH_TOL_S = 0.3


@dataclass
class HrSeries:
    """Windowed heart-rate estimates.

    times holds window centers in seconds, bpm the estimates with NaN
    marking windows where no estimate was possible (gaps).
    """

    times: np.ndarray
    bpm: np.ndarray

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


def match_segments(est: np.ndarray, seg: np.ndarray, gt: np.ndarray, tol_s: float):
    """greedy_match of each segment's estimates against the one sorted
    groundtruth gt: est holds the estimates of all segments, sorted within
    each, and seg the segment of each (non-decreasing).  Returns the
    (est index, gt index) arrays of the matched pairs, in no set order.

    Candidate pairs within tol_s are ranked by (distance, est index, gt
    index).  Each round takes every pair that ranks first among the pairs
    left at both of its ends, and drops the pairs that share an end with
    one taken.  Such a pair is one the closest-first pass would take when
    it came to it, since no pair before it touches its ends, and every
    dropped pair is one that pass would refuse; so the rounds take exactly
    the pairs of that pass.  A groundtruth beat is matched once per
    segment, and pairs of different segments never share an end."""
    lo = np.searchsorted(gt, est - tol_s, side="left")
    hi = np.searchsorted(gt, est + tol_s, side="right")
    counts = np.maximum(hi - lo, 0)
    # every (i, j) with lo[i] <= j < hi[i], made in (i, j) order, so a
    # stable sort on the distance orders them by (distance, i, j)
    i = np.repeat(np.arange(est.size), counts)
    j = np.arange(i.size) + np.repeat(lo - (np.cumsum(counts) - counts), counts)
    order = np.argsort(np.abs(est[i] - gt[j]), kind="stable")
    i, j = i[order], j[order]
    g = seg[i] * gt.size + j  # the groundtruth end, one node per segment
    free_e = np.ones(est.size, dtype=bool)
    free_g = np.ones((int(seg[-1]) + 1 if seg.size else 0) * gt.size, dtype=bool)
    taken_i, taken_j = [], []
    while i.size:
        rank = np.arange(i.size)
        first_e = np.full(free_e.size, i.size)
        np.minimum.at(first_e, i, rank)
        first_g = np.full(free_g.size, i.size)
        np.minimum.at(first_g, g, rank)
        take = (first_e[i] == rank) & (first_g[g] == rank)
        taken_i.append(i[take])
        taken_j.append(j[take])
        free_e[i[take]] = False
        free_g[g[take]] = False
        left = free_e[i] & free_g[g]
        i, j, g = i[left], j[left], g[left]
    empty = np.empty(0, dtype=int)
    return np.concatenate([empty, *taken_i]), np.concatenate([empty, *taken_j])


def greedy_match(
    est_times: np.ndarray, gt_times: np.ndarray, tol_s: float = BEAT_MATCH_TOL_S
) -> list[tuple[int, int]]:
    """One-to-one greedy matching of two sorted event-time sequences.

    Candidate pairs within tol_s are taken closest-first (ties prefer the
    earlier estimate index, then the earlier groundtruth index); each event
    matches at most once.  Returns (est_index, gt_index) pairs sorted by
    estimate index.  This is match_segments on one segment.
    """
    est = np.asarray(est_times, dtype=float)
    gt = np.asarray(gt_times, dtype=float)
    i, j = match_segments(est, np.zeros(est.size, dtype=int), gt, tol_s)
    order = np.argsort(i)
    return list(zip(i[order].tolist(), j[order].tolist()))


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


def _unit_scaled(x: np.ndarray) -> np.ndarray:
    """x times the power of two that brings its largest magnitude into
    [0.5, 1).  Exact wherever the values stay normal, so a scale-free
    statistic keeps its bits, and its squares cannot overflow."""
    return np.ldexp(x, -np.frexp(np.max(np.abs(x)))[1])


def pearson_r(x: np.ndarray, y: np.ndarray) -> float:
    """Sample correlation coefficient."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.shape != y.shape or x.ndim != 1 or x.size < 2:
        raise ValueError("need two equal-length 1-D arrays of size >= 2")
    x, y = _unit_scaled(x), _unit_scaled(y)
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
    d = _unit_scaled(a - b)
    sd = float(np.std(d, ddof=1))
    if sd == 0.0:
        raise ValueError("zero-variance differences")
    return float(np.mean(d) / (sd / np.sqrt(d.size)))


def beat_f1(tp, n_est, n_gt):
    """Beat F1 of tp matches among n_est estimated and n_gt groundtruth
    beats (counts or arrays): 2 tp / (2 tp + fp + fn)."""
    return 2.0 * tp / (n_est + n_gt)


@contextmanager
def _impossible(what: str):
    """Prefix a ValueError in the block with `<what> comparison impossible: `."""
    try:
        yield
    except ValueError as exc:
        raise ValueError(f"{what} comparison impossible: {exc}") from exc


def evaluate(gt_hr: HrSeries, est_hr: HrSeries, est_beats_s=None, gt_beats_s=None,
             baseline_hr: HrSeries | None = None):
    """eval's (report, per_window_errors rows, bbi_impossible) of est_hr
    against gt_hr.  The report maps eval's keys to floats and ints, in
    eval's order; the beat keys need both beat trains (s), matched once by
    greedy_match, and the paired t baseline_hr.  Pearson r needs two
    windows and a varying series, the BBI error one consecutively matched
    interval and Bland-Altman two.  Without that interval the report keeps
    the scores it has, and bbi_impossible says why; it is None otherwise.
    Raises ValueError when the HR or the paired comparison is impossible."""
    bbi_impossible = None
    with _impossible("HR"):
        report = {"mae_bpm": mae(est_hr, gt_hr)}
    rows = per_window_errors(est_hr, gt_hr)
    report["n_windows_compared"] = len(rows)
    with suppress(ValueError):  # fewer than two windows, or a constant series
        report["pearson_r"] = pearson_r(*np.asarray(rows)[:, 1:3].T)

    if est_beats_s is not None:
        est, gt = (np.asarray(b, dtype=float) for b in (est_beats_s, gt_beats_s))
        i, j = np.asarray(greedy_match(est, gt), dtype=int).reshape(-1, 2).T
        report["beat_f1"] = beat_f1(i.size, est.size, gt.size)
        report.update(n_beats_matched=i.size, n_beats_est=est.size, n_beats_gt=gt.size)
        # intervals whose two ends are matched consecutively in both trains
        run = (np.diff(i) == 1) & (np.diff(j) == 1)
        e_iv, g_iv = np.diff(est[i])[run], np.diff(gt[j])[run]
        if e_iv.size:
            report["bbi_relative_error_pct"] = float(np.mean(np.abs(e_iv - g_iv) / g_iv) * 100.0)
        else:
            bbi_impossible = "BBI comparison impossible: no consecutively matched beat pairs"
        if e_iv.size >= 2:
            stats = bland_altman(60.0 / e_iv, 60.0 / g_iv)
            for k in ("bias", "sd", "loa_low", "loa_high"):
                report[f"bland_altman_{k}_bpm"] = getattr(stats, k)
            report["n_beat_pairs"] = stats.n

    if baseline_hr is not None:
        with _impossible("paired"):
            errs = np.stack([window_errors(est_hr, gt_hr), window_errors(baseline_hr, gt_hr)])
            errs = errs[:, ~np.isnan(errs).any(axis=0)]
            report["paired_t_stat"] = paired_t(*errs)
        report["paired_t_df"] = errs.shape[1] - 1
    return report, rows, bbi_impossible
