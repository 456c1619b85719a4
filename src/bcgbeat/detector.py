"""Heartbeat detection on top of a learned concept dictionary.

Every candidate peak gets a GLRT-style confidence: the ratio of the
background-only reconstruction error to the full-dictionary reconstruction
error, both measured in the Mahalanobis metric of the training background
covariance and, like dlfumi's residual norms, read in gram form.  Peaks
that look like heartbeats reconstruct much better once the target atoms
are allowed in, so their ratio is large.  Cross-channel voting turns
per-channel confidences into beat decisions, and two HR estimators
(beat-to-beat and spectral) turn those into windowed series.
`train_model` and `detect_recording` run the whole pipeline on recordings
in memory, and are what the CLI's `train` and `detect` run.

Training picks the voting threshold and neighborhood on a grid scored as
one table (score_grid): matched and voted beats at every point.  The
events above each threshold are one segment, and vote_segments votes the
segments of many thresholds in one pass of array operations;
metrics.match_segments matches them.  vote_beats and metrics.greedy_match
are the one-segment calls of the same two cores.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from . import kernels
from .dlfumi import Dictionary, FumiParams, coding_operands, fit
from .dlfumi import _column_sq_norms, _residual_sq_norms
from .metrics import BEAT_MATCH_TOL_S, HrSeries, beat_f1, match_segments
from .signals import DEFAULT_PER_POSITIVE, Preprocessing, Recording, build_bags
from .signals import candidate_peaks, extract_instances

log = logging.getLogger(__name__)

_RATIO_FLOOR = 1e-12
DEFAULT_CODE_ITERS = 50
DEFAULT_THRESHOLD_GRID = tuple(round(1.0 + 0.05 * i, 2) for i in range(41))
DEFAULT_NEIGHBORHOOD_GRID = (15, 20, 25, 30, 35)
DEFAULT_WINDOW_S = 60.0
DEFAULT_STEP_S = 15.0
DEFAULT_DFT_BAND_HZ = (0.66, 3.0)


class ModelMismatch(ValueError):
    """The model does not fit the data: an instance or covariance dimension
    differs from the dictionary's, or the full-dictionary codes come out
    worse than their warm start."""


@dataclass
class BackgroundModel:
    """Training background covariance Sigma = L L^T, with L^-1 kept."""

    covariance: np.ndarray
    ridge: float

    def __post_init__(self):
        self.covariance = np.asarray(self.covariance, dtype=float)
        if self.covariance.ndim != 2 or self.covariance.shape[0] != self.covariance.shape[1]:
            raise ValueError("covariance must be square")
        # cholesky raises LinAlgError unless Sigma is positive definite
        self._whiten = np.linalg.inv(np.linalg.cholesky(self.covariance))

    @property
    def d(self) -> int:
        return self.covariance.shape[0]

    def mahalanobis_sq(self, residuals: np.ndarray) -> np.ndarray:
        """r^T Sigma^-1 r = ||L^-1 r||^2 for each column r of a (d, n)
        block: windows, or their residuals."""
        R = np.asarray(residuals, dtype=float)
        if R.ndim != 2 or R.shape[0] != self.d:
            raise ValueError(f"residuals must be ({self.d}, n), got shape {R.shape}")
        return _column_sq_norms(self._whiten @ R)


@dataclass(frozen=True)
class DetectionParams:
    """Voting parameters for turning confidences into beats."""

    threshold: float = 1.32
    neighborhood: int = 25
    min_votes: int = 2
    refractory_s: float = 0.3


@dataclass
class ConfidenceSeries:
    """Per-channel candidate-peak confidences for one recording."""

    fs: float
    n_samples: int
    peak_indices: list[np.ndarray]
    confidences: list[np.ndarray]

    def __post_init__(self):
        if len(self.peak_indices) != len(self.confidences):
            raise ValueError("per-channel index/confidence lists disagree")
        self.peak_indices = [np.asarray(p, dtype=int) for p in self.peak_indices]
        self.confidences = [np.asarray(c, dtype=float) for c in self.confidences]
        for p, c in zip(self.peak_indices, self.confidences):
            if p.shape != c.shape:
                raise ValueError("indices and confidences must align per channel")

    @property
    def n_channels(self) -> int:
        return len(self.peak_indices)


@dataclass(frozen=True, eq=False)
class Model:
    """A trained detector and the settings its windows are cut and coded with."""

    dictionary: Dictionary
    background: BackgroundModel
    detection: DetectionParams
    lam: float
    code_iters: int
    fs: float
    pre: Preprocessing

    def __post_init__(self):
        if self.background.d != self.dictionary.d:
            raise ValueError(f"the covariance is {self.background.d}x{self.background.d} "
                             f"but the atoms have {self.dictionary.d} samples")


def background_covariance(instances: np.ndarray) -> BackgroundModel:
    """Sample covariance (n-1 normalization) of background instances, the
    columns of a (d, n) float array that it centers in place: np.cov's
    arithmetic, bit for bit, without np.cov's copy of the instances.

    The result must be positive definite; if it is not, a ridge is added
    to its diagonal, starting at 1e-6 * trace / d (1e-6 on a zero trace)
    and raised tenfold until it is, and the ridge is reported on the
    returned model (0 when none was needed) and the log.
    """
    X = np.atleast_2d(np.asarray(instances, dtype=float))
    d, n = X.shape
    if n < 1:
        raise ValueError("need at least one instance")
    X -= X.mean(axis=1)[:, None]
    S = np.dot(X, X.T) * (1.0 / (n - 1)) if n > 1 else np.zeros((d, d))
    floor = 1e-6 * np.trace(S) / d
    if floor <= 0:
        floor = 1e-6
    ridge = 0.0
    for _ in range(60):
        try:
            return BackgroundModel(covariance=S + ridge * np.eye(d), ridge=ridge)
        except np.linalg.LinAlgError:
            pass
        ridge = ridge * 10.0 if ridge > 0 else floor
        log.info("background covariance not PD; raising ridge to %g", ridge)
    raise np.linalg.LinAlgError("could not make covariance positive definite")


def _coding_operands(D: Dictionary, model: BackgroundModel, d: int):
    """(G_bg, eta_bg, G, eta) from dlfumi.coding_operands, the stacked
    [D, Sigma^-1 D]^T (2K, d) and D^T Sigma^-1 D (K, K), which every
    coding call against `D` shares.  Raises ModelMismatch unless the
    instance dimension `d` and the covariance's are the dictionary's."""
    if d != D.d:
        raise ModelMismatch("instance dimension does not match dictionary")
    if model.d != D.d:
        raise ModelMismatch("covariance dimension does not match dictionary")
    atoms = D.atoms
    white = model._whiten @ atoms  # L^-1 D
    return (*coding_operands(D.background_atoms, atoms),
            np.vstack([atoms.T, white.T @ model._whiten]), white.T @ white)


def _confidence_batch(
    X: np.ndarray,
    D: Dictionary,
    model: BackgroundModel,
    lam: float,
    n_iter: int,
    operands,
) -> np.ndarray:
    """Confidence ratio for each column x of the (d, n) instance matrix X,
    coded with `operands` (`_coding_operands`).

    Lambda = (x - D_bg a_bg)^T Sigma^-1 (x - D_bg a_bg)
           / (x - D a)^T Sigma^-1 (x - D a),
    both residual norms floored at 1e-12, so an instance that the
    background already reconstructs exactly scores 1, not 0.

    The full coding warm-starts from the background-only codes (target
    block zero).  Raises ModelMismatch where its lasso objective
    0.5*||x - D a||^2 + lam*||a||_1 is worse than its warm start's.
    All four residual norms are read in gram form (_residual_sq_norms) from
    x^T x, x^T Sigma^-1 x and [D, Sigma^-1 D]^T X, without residual blocks.
    """
    G_bg, eta_bg, G, eta, stacked, gram_m = operands
    T, K, n = D.n_target, G.shape[0], X.shape[1]
    x_sq, xm_sq = _column_sq_norms(X), model.mahalanobis_sq(X)
    corr = stacked @ X  # [D^T X ; (Sigma^-1 D)^T X]
    A_bg = kernels.ista_negative(G_bg, corr[T:K], np.zeros((K - T, n)), lam, eta_bg, n_iter)
    A = kernels.ista_negative(G, corr[:K], np.vstack([np.zeros((T, n)), A_bg]), lam, eta, n_iter)
    obj_warm = 0.5 * _residual_sq_norms(x_sq, A_bg, corr[T:K], G_bg) + lam * np.abs(A_bg).sum(0)
    obj_full = 0.5 * _residual_sq_norms(x_sq, A, corr[:K], G) + lam * np.abs(A).sum(0)
    if not np.all(obj_full <= obj_warm + 1e-9 * (1.0 + np.abs(obj_warm))):
        raise ModelMismatch("full-dictionary coding worsened its warm start")
    num = _residual_sq_norms(xm_sq, A_bg, corr[K + T:], gram_m[T:, T:])
    den = _residual_sq_norms(xm_sq, A, corr[K:], gram_m)
    return np.maximum(num, _RATIO_FLOOR) / np.maximum(den, _RATIO_FLOOR)


# Columns per coding call; it bounds `detect`'s coding memory at one chunk.
_CODE_CHUNK = 2048


def confidence_series(
    rec: Recording,
    D: Dictionary,
    model: BackgroundModel,
    lam: float,
    n_iter: int,
    pre: Preprocessing,
    candidates: list,
) -> ConfidenceSeries:
    """Per-channel candidate peaks with their confidence ratios.

    `pre` must be the record the dictionary was trained under, and
    `candidates` what `signals.candidate_peaks(rec, pre)` returns.  Each
    channel's windows are cut and coded one chunk of columns at a time,
    and only its peak indices and confidences are kept.  At its peak this
    holds the recording, the filtered channels and one chunk's windows and
    coding blocks, never a channel's whole candidate block.  A chunk is
    `_CODE_CHUNK` (2,048) columns, and the last one takes the remainder."""
    coding = (D, model, lam, n_iter, _coding_operands(D, model, 2 * pre.half_len + 1))
    peak_indices, confidences = [], []
    for _, filt, peaks in candidates:
        conf = np.empty(peaks.size)
        for a in range(0, peaks.size, _CODE_CHUNK):
            b = min(a + _CODE_CHUNK, peaks.size)
            X = extract_instances(filt, peaks[a:b], pre.half_len, pre.zscore)
            conf[a:b] = _confidence_batch(np.ascontiguousarray(X.T), *coding)
        peak_indices.append(peaks)
        confidences.append(conf)
    return ConfidenceSeries(
        fs=rec.sample_rate_hz,
        n_samples=rec.n_samples,
        peak_indices=peak_indices,
        confidences=confidences,
    )


def _sorted_events(series: ConfidenceSeries):
    """All candidates as (index, channel, confidence) arrays, sorted by
    index, then channel, then confidence."""
    idx = np.concatenate([np.empty(0, dtype=int), *series.peak_indices])
    ch = np.repeat(np.arange(series.n_channels), [p.size for p in series.peak_indices])
    conf = np.concatenate([np.empty(0), *series.confidences])
    order = np.lexsort((conf, ch, idx))
    return idx[order], ch[order], conf[order]


def _cluster_starts(key, gap, neighborhood: int) -> np.ndarray:
    """The first event of each cluster, over events whose (segment, index)
    keys are `key` (sorted) with gaps gap = diff(key).

    Clusters tile each segment: each runs from its anchor to the first
    event more than `neighborhood` samples later, which anchors the next
    one; a cluster always holds its anchor, even for a negative
    neighborhood.  A segment's first event, and an event more than
    `neighborhood` after the one before it, anchor a cluster for sure (a
    head).  From every head a chain steps along the anchors that follow,
    all chains at once, until it reaches the next head."""
    n = key.size
    nxt = np.searchsorted(key, key + neighborhood, side="right")
    np.maximum(nxt, np.arange(1, n + 1), out=nxt)
    head = np.ones(n + 1, dtype=bool)
    np.greater(gap, neighborhood, out=head[1:n])
    anchor = head[:n].copy()
    chains = nxt[anchor]
    chains = chains[~head[chains]]
    while chains.size:
        anchor[chains] = True
        chains = nxt[chains]
        chains = chains[~head[chains]]
    return np.flatnonzero(anchor)


def _sums_left_to_right(conf, starts, sizes) -> np.ndarray:
    """Each cluster's confidence sum, added left to right as sum() over the
    cluster does; a pairwise reduction would round differently on long
    clusters.  Clusters are stepped longest first, so the ones still
    adding at step k are a prefix."""
    order = np.argsort(-sizes, kind="stable")
    first = starts[order]
    longer = np.cumsum(np.bincount(sizes)[::-1])[::-1]  # longer[k]: clusters of size >= k
    sums = np.zeros(starts.size)
    for k in range(1, longer.size):
        m = longer[k]
        sums[:m] += conf[first[:m] + (k - 1)]
    out = np.empty_like(sums)
    out[order] = sums
    return out


def _refractory_beats(seg, med, sums, refractory: int) -> np.ndarray:
    """Which voted clusters (in segment and time order) stay beats: one
    closer than `refractory` to the beat before it replaces that beat if
    its sum is larger, and is dropped otherwise.  A cluster at least
    `refractory` after the cluster before it, or first in its segment,
    always starts a new beat, so the rule runs on each run of close
    clusters alone, and all runs step at once."""
    beat = np.ones(med.size, dtype=bool)  # first of its run, for now
    beat[1:] = (seg[1:] != seg[:-1]) | (med[1:] - med[:-1] >= refractory)
    run = np.flatnonzero(beat)
    length = np.diff(run, append=med.size)
    beat[run[length > 1]] = False
    run, length = run[length > 1], length[length > 1]
    last = run.copy()  # each run's beat so far
    k = 1
    while run.size:
        pos = run + k
        close = med[pos] - med[last] < refractory
        beat[last[~close]] = True
        last = np.where(close & (sums[pos] <= sums[last]), last, pos)
        k += 1
        done = length == k
        beat[last[done]] = True
        run, length, last = run[~done], length[~done], last[~done]
    return beat


def vote_segments(idx, ch, conf, bounds, neighborhoods, min_votes: int, refractory: int):
    """vote_beats on segments of supra-threshold events, for each of the
    neighborhoods in turn: segment s holds events bounds[s] to
    bounds[s+1] - 1 of (idx, ch, conf), in _sorted_events order (any
    subset of a sorted event list is still sorted).  Every segment is
    voted at once.  Yields, per neighborhood, the (segment, beat index,
    confidence sum) arrays of the beats, in segment and time order.
    """
    n = idx.size
    seg = np.repeat(np.arange(len(bounds) - 1), np.diff(bounds))
    if n == 0:
        for _ in neighborhoods:
            yield seg, np.empty(0, dtype=int), np.empty(0)
        return
    # (segment, index) keys, sorted; segments lie further apart than any
    # neighborhood reaches.
    off = idx - idx.min()
    key = seg * (int(off.max()) + max([0, *neighborhoods]) + 1) + off
    gap = np.diff(key)
    channels = [ch == c for c in np.flatnonzero(np.bincount(ch))]
    for nb in neighborhoods:
        starts = _cluster_starts(key, gap, nb)
        votes = np.zeros(starts.size, dtype=int)
        for on in channels:
            votes += np.logical_or.reduceat(on, starts)
        keep = votes >= min_votes
        sizes = np.diff(starts, append=n)[keep]
        starts = starts[keep]
        # int(np.median(...)) of the cluster's (sorted) indices
        med = ((idx[starts + (sizes - 1) // 2] + idx[starts + sizes // 2]) / 2).astype(int)
        sums = _sums_left_to_right(conf, starts, sizes)
        beat = _refractory_beats(seg[starts], med, sums, refractory)
        yield seg[starts[beat]], med[beat], sums[beat]


def vote_beats(
    series: ConfidenceSeries, params: DetectionParams
) -> list[tuple[int, float]]:
    """Cross-channel voting: supra-threshold candidates from at least
    min_votes distinct channels, all within `neighborhood` samples of each
    other, confirm one beat at their median peak index.  Clusters are
    formed greedily in time order: each one holds every event within
    `neighborhood` samples of its first event.  Confirmed beats must stay
    at least the refractory apart; on a conflict the cluster with the
    higher summed confidence wins (earlier beat on an exact tie).
    Returns (beat_index, confidence_sum) pairs in time order.  This is
    vote_segments on one segment.
    """
    idx, ch, conf = _sorted_events(series)
    keep = conf > params.threshold
    refractory = int(round(params.refractory_s * series.fs))
    bounds = [0, int(np.count_nonzero(keep))]
    ((_, beats, sums),) = vote_segments(
        idx[keep], ch[keep], conf[keep], bounds, [params.neighborhood], params.min_votes, refractory
    )
    return list(zip(beats.tolist(), sums.tolist()))


# Per recording, the grid holds the events above the thresholds of one
# pass, at most this many times the recording's events (and at least one
# threshold's).
_GRID_PASS_EVENTS = 4


def _threshold_passes(conf: np.ndarray, thresholds: np.ndarray):
    """Consecutive slices of the thresholds, each holding at most
    _GRID_PASS_EVENTS times conf.size events above them (or one threshold)."""
    above = conf.size - np.searchsorted(np.sort(conf), thresholds, side="right")
    cap = _GRID_PASS_EVENTS * conf.size
    a, held = 0, 0
    for b, m in enumerate(above.tolist()):
        if b > a and held + m > cap:
            yield slice(a, b)
            a, held = b, 0
        held += m
    yield slice(a, thresholds.size)


def score_grid(
    series_list,
    gt_list,
    thresholds=DEFAULT_THRESHOLD_GRID,
    neighborhoods=DEFAULT_NEIGHBORHOOD_GRID,
    min_votes: int = DetectionParams.min_votes,
    refractory_s: float = DetectionParams.refractory_s,
):
    """Matched and voted beat counts over the (threshold, neighborhood)
    grid, pooled over the recordings: two int arrays shaped
    (len(thresholds), len(neighborhoods)).  A point's beats are those
    vote_beats gives, matched to the groundtruth beats as greedy_match
    matches them, through the same cores (vote_segments, match_segments).

    Per recording and neighborhood, the events above each threshold are
    one segment, and the segments of several thresholds are voted and
    matched in one pass; a pass holds a few times the recording's events
    (_threshold_passes)."""
    series_list = list(series_list)
    gt_list = [np.asarray(g) for g in gt_list]
    if not series_list or any(g.size == 0 for g in gt_list):
        raise ValueError("groundtruth beats required to learn detection parameters")
    thresholds = np.asarray(thresholds, dtype=float)
    nbs = [int(nb) for nb in neighborhoods]
    tp = np.zeros((thresholds.size, len(nbs)), dtype=int)
    n_est = np.zeros_like(tp)
    for series, gt in zip(series_list, gt_list):
        idx, ch, conf = _sorted_events(series)
        gt_s = np.asarray(gt, dtype=float) / series.fs
        refractory = int(round(refractory_s * series.fs))
        for rows in _threshold_passes(conf, thresholds):
            # (threshold, event) pairs in threshold-major order
            t, e = np.nonzero(conf > thresholds[rows, None])
            bounds = np.searchsorted(t, np.arange(rows.stop - rows.start + 1))
            events = idx[e], ch[e], conf[e]
            del t, e
            for col, (seg, beats, _) in enumerate(
                vote_segments(*events, bounds, nbs, min_votes, refractory)
            ):
                matched, _ = match_segments(beats / series.fs, seg, gt_s, BEAT_MATCH_TOL_S)
                tp[rows, col] += np.bincount(seg[matched], minlength=bounds.size - 1)
                n_est[rows, col] += np.bincount(seg, minlength=bounds.size - 1)
    return tp, n_est


def learn_detection_params_pooled(
    series_list,
    gt_list,
    thresholds=DEFAULT_THRESHOLD_GRID,
    neighborhoods=DEFAULT_NEIGHBORHOOD_GRID,
    min_votes: int = DetectionParams.min_votes,
    refractory_s: float = DetectionParams.refractory_s,
) -> DetectionParams:
    """Grid-search the voting threshold and neighborhood for best F1
    against groundtruth beats, with counts pooled over the given
    recordings (score_grid).  Ties prefer the smaller threshold, then the
    smaller neighborhood: the first best point in threshold-major order."""
    series_list, gt_list = list(series_list), [np.asarray(g) for g in gt_list]
    thresholds, neighborhoods = list(thresholds), list(neighborhoods)
    tp, n_est = score_grid(series_list, gt_list, thresholds, neighborhoods, min_votes, refractory_s)
    # score_grid requires n_gt >= 1
    n_gt = sum(g.size for _, g in zip(series_list, gt_list))
    row, col = np.unravel_index(np.argmax(beat_f1(tp, n_est, n_gt)), tp.shape)
    return DetectionParams(float(thresholds[row]), int(neighborhoods[col]), min_votes, refractory_s)


def window_starts(duration_s: float, window_s: float, step_s: float) -> np.ndarray:
    """Start times (s) of the HR windows that end within `duration_s` + 1e-9:
    0, then each the previous one plus `step_s`.  Raises ValueError unless
    `window_s` and `step_s` are positive and finite."""
    if not (0.0 < window_s < np.inf and 0.0 < step_s < np.inf):
        raise ValueError(f"window_s={window_s!r} and step_s={step_s!r} must be positive and finite")
    starts = []
    start = 0.0
    while start + window_s <= duration_s + 1e-9:
        starts.append(start)
        start += step_s
    return np.asarray(starts, dtype=float)


def check_dft_band(band_hz: tuple[float, float], fs: float) -> None:
    """Raises ValueError unless the DFT band (low, high) Hz can hold a
    heart rate at `fs` Hz: 0 < low < high <= fs / 2."""
    low, high = band_hz
    if not 0.0 < low < high <= fs / 2.0:
        raise ValueError(
            f"bad DFT band: need 0 < low < high <= Nyquist ({fs / 2.0:g} Hz), got ({low!r}, {high!r})"
        )


def hr_from_beats(
    beat_indices: np.ndarray,
    fs: float,
    window_s: float,
    step_s: float,
    duration_s: float,
) -> HrSeries:
    """Sliding-window heart rate from beat locations (sorted first).

    Each window averages 60/interval over the beat-to-beat intervals that
    lie fully inside it; windows with fewer than two beats are gaps (NaN).
    Window centers step every step_s over a recording of duration_s.
    """
    beats = np.sort(np.asarray(beat_indices, dtype=float) / fs)
    starts = window_starts(duration_s, window_s, step_s)
    lo = np.searchsorted(beats, starts - 1e-9, side="left")
    hi = np.searchsorted(beats, starts + window_s + 1e-9, side="right")
    bpm = [
        float(np.mean(60.0 / np.diff(beats[a:b]))) if b - a >= 2 else np.nan
        for a, b in zip(lo.tolist(), hi.tolist())
    ]
    return HrSeries(times=starts + window_s / 2.0, bpm=bpm)


def hr_from_confidence_dft(
    series: ConfidenceSeries,
    window_s: float = DEFAULT_WINDOW_S,
    step_s: float = DEFAULT_STEP_S,
    band_hz: tuple[float, float] = DEFAULT_DFT_BAND_HZ,
) -> HrSeries:
    """Spectral heart rate from the confidence series.

    Confidence values are embedded at their peak indices in a zero-filled
    series at the recording rate.  Per window and channel the mean is
    removed and the DFT taken; the in-band bin with the largest magnitude
    across all channels gives HR = 60 * f, the earliest channel winning
    ties.  Windows with no confidence samples, or with no in-band energy
    after mean removal, are gaps.  Raises ValueError on a band that
    `check_dft_band` rejects.
    """
    fs = series.fs
    check_dft_band(band_hz, fs)
    n = series.n_samples
    embedded = np.zeros((series.n_channels, n))
    for row, idx, conf in zip(embedded, series.peak_indices, series.confidences):
        row[idx] = conf

    starts = window_starts(n / fs, window_s, step_s)
    bpm = np.full(starts.size, np.nan)
    for w, start in enumerate(starts.tolist()):
        i0 = int(round(start * fs))
        i1 = min(int(round((start + window_s) * fs)), n)
        # a window without candidates is all zeros, so the magnitude test makes it a gap
        if i1 == i0 or series.n_channels == 0:
            continue
        freqs = np.fft.rfftfreq(i1 - i0, d=1.0 / fs)
        band = (freqs >= band_hz[0]) & (freqs <= band_hz[1])
        if not band.any():
            continue
        seg = embedded[:, i0:i1]
        scale = float(np.abs(seg).sum(axis=1).max())
        spec = np.abs(np.fft.rfft(seg - seg.mean(axis=1, keepdims=True), axis=1))[:, band]
        ch, j = np.unravel_index(np.argmax(spec), spec.shape)
        if spec[ch, j] > 1e-9 * scale:
            bpm[w] = 60.0 * float(freqs[band][j])
    return HrSeries(times=starts + window_s / 2.0, bpm=bpm)


def _check_min_votes(min_votes: int, n_channels: int) -> None:
    if not 1 <= min_votes <= n_channels:
        raise ValueError(f"bad setting min_votes={min_votes!r}: "
                         f"must be from 1 to the {n_channels} channels")


def train_model(
    recordings: list[Recording],
    params: FumiParams,
    pre: Preprocessing = Preprocessing(),
    code_iters: int = DEFAULT_CODE_ITERS,
    seed: int = 0,
    per_positive: int = DEFAULT_PER_POSITIVE,
    min_votes: int = DetectionParams.min_votes,
    refractory_s: float = DetectionParams.refractory_s,
) -> tuple[Model, list[float]]:
    """Fit a dictionary on the bags of `recordings` (one sample rate, with
    groundtruth beats), then grid-search the voting parameters on the
    confidences `detect_recording` gives them.  Returns the model and fit's
    objective trace.  Recordings of mixed rates or without groundtruth
    beats raise ValueError before any is filtered, and a learner error is
    raised as a ValueError prefixed `training failed: `."""
    fs = recordings[0].sample_rate_hz
    for i, rec in enumerate(recordings, 1):
        # A window of 2*half_len+1 samples spans a different time at another
        # rate, so windows of mixed rates are not one heartbeat concept.
        if rec.sample_rate_hz != fs:
            raise ValueError(f"training recording {i} is sampled at {rec.sample_rate_hz:g} Hz "
                             f"but the first at {fs:g} Hz; train on recordings of one sample rate")
        if rec.gt_beat_times is None or rec.gt_beat_times.size == 0:
            raise ValueError("groundtruth beats required to learn detection parameters")
    _check_min_votes(min_votes, min(len(rec.channels) for rec in recordings))
    # Each recording is filtered and peak-picked once, for its bags and
    # for the voting-parameter grid.
    candidates = [candidate_peaks(rec, pre) for rec in recordings]
    gt = [rec.gt_beat_times for rec in recordings]
    blocks = build_bags(candidates, gt, per_positive, pre)
    try:
        result = fit(blocks.Xp, blocks.Xn, params, seed)
    except ValueError as exc:
        raise ValueError(f"training failed: {exc}") from exc
    dictionary, trace = result.dictionary, result.objective_trace
    del result  # fit's codes and posteriors are not held through the grid
    background = background_covariance(blocks.Xn)  # spends the negative block
    del blocks  # the grid cuts its own windows, one chunk at a time
    series_list = [
        confidence_series(rec, dictionary, background, params.lam, code_iters, pre, cands)
        for rec, cands in zip(recordings, candidates)
    ]
    detection = learn_detection_params_pooled(
        series_list, gt, min_votes=min_votes, refractory_s=refractory_s
    )
    return Model(dictionary, background, detection, params.lam, code_iters, fs, pre), trace


def detect_recording(
    rec: Recording,
    model: Model,
    window_s: float = DEFAULT_WINDOW_S,
    step_s: float = DEFAULT_STEP_S,
    dft_band_hz: tuple[float, float] | None = None,
) -> tuple[list[tuple[int, float]], HrSeries]:
    """The beats `model` votes on `rec`, and its HR series: from the beats,
    or spectrally in `dft_band_hz` if given.  Raises ModelMismatch if the
    model does not fit `rec`, ValueError on a setting that cannot work on
    it, and warns when fewer channels have candidates than min_votes."""
    if rec.sample_rate_hz != model.fs:
        raise ModelMismatch(f"the model was trained at {model.fs:g} Hz, "
                            f"the recording is sampled at {rec.sample_rate_hz:g} Hz")
    _check_min_votes(model.detection.min_votes, len(rec.channels))
    if dft_band_hz is not None:
        check_dft_band(dft_band_hz, rec.sample_rate_hz)
    candidates = candidate_peaks(rec, model.pre)
    series = confidence_series(
        rec, model.dictionary, model.background, model.lam, model.code_iters, model.pre, candidates
    )
    del candidates  # the filtered channels are not held beside the DFT's embedded array
    live = sum(p.size > 0 for p in series.peak_indices)
    if live < model.detection.min_votes:
        log.warning("only %d of %d channels have candidate peaks, fewer than min_votes=%d: "
                    "no beat can be voted", live, series.n_channels, model.detection.min_votes)
    beats = vote_beats(series, model.detection)
    if dft_band_hz is not None:
        return beats, hr_from_confidence_dft(series, window_s, step_s, dft_band_hz)
    beat_idx = np.asarray([b[0] for b in beats])
    return beats, hr_from_beats(beat_idx, rec.sample_rate_hz, window_s, step_s, rec.duration_s)
