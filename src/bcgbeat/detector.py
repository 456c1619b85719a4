"""Heartbeat detection on top of a learned concept dictionary.

Every candidate peak gets a GLRT-style confidence: the ratio of the
background-only reconstruction error to the full-dictionary reconstruction
error, both measured in the Mahalanobis metric of the training background
covariance.  Peaks that look like heartbeats reconstruct much better once
the target atoms are allowed in, so their ratio is large.  Cross-channel
voting turns per-channel confidences into beat decisions, and two HR
estimators (beat-to-beat and spectral) turn those into windowed series.
`train_model` and `detect_recording` run the whole pipeline on recordings
in memory, and are what the CLI's `train` and `detect` run.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from . import kernels
from .dlfumi import Dictionary, FitResult, FumiParams, fit, safe_step_length
from .metrics import HrSeries, greedy_match
from .signals import DEFAULT_PER_POSITIVE, Preprocessing, Recording, bag_columns, build_bags
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
        """r^T Sigma^-1 r = ||L^-1 r||^2 for each column of the (d, n)
        residuals."""
        R = np.asarray(residuals, dtype=float)
        if R.ndim != 2 or R.shape[0] != self.d:
            raise ValueError(f"residuals must be ({self.d}, n), got shape {R.shape}")
        W = self._whiten @ R
        return np.einsum("ij,ij->j", W, W)


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


def background_covariance(instances: np.ndarray, ridge: float = 0.0) -> BackgroundModel:
    """Sample covariance (n-1 normalization) of background instances, the
    columns of a (d, n) array.

    The result must be positive definite; if `ridge` does not achieve
    that it is raised automatically (starting at 1e-6 * trace / d) and the
    effective value is reported on the returned model and the log.
    """
    X = np.atleast_2d(np.asarray(instances, dtype=float))
    d, n = X.shape
    if n < 1:
        raise ValueError("need at least one instance")
    S = np.zeros((d, d)) if n == 1 else np.cov(X, ddof=1)
    eff = float(ridge)
    for _ in range(60):
        try:
            return BackgroundModel(covariance=S + eff * np.eye(d), ridge=eff)
        except np.linalg.LinAlgError:
            pass
        floor = 1e-6 * np.trace(S) / d
        if floor <= 0:
            floor = 1e-6
        eff = max(eff * 10.0, floor) if eff > 0 else floor
        log.info("background covariance not PD; raising ridge to %g", eff)
    raise np.linalg.LinAlgError("could not make covariance positive definite")


def _coding_operands(D: Dictionary, model: BackgroundModel, d: int):
    """(D_bg, D_bg^T D_bg, its ISTA step, D, D^T D, its step), which every
    coding call against `D` shares.  Raises ModelMismatch unless the
    instance dimension `d` and the covariance's are the dictionary's."""
    if d != D.d:
        raise ModelMismatch("instance dimension does not match dictionary")
    if model.d != D.d:
        raise ModelMismatch("covariance dimension does not match dictionary")
    Dbg, full = D.background_atoms, D.atoms
    return Dbg, Dbg.T @ Dbg, safe_step_length(Dbg), full, full.T @ full, safe_step_length(full)


def _confidence_batch(
    X: np.ndarray,
    D: Dictionary,
    model: BackgroundModel,
    lam: float,
    n_iter: int,
    operands=None,
) -> np.ndarray:
    """Confidence ratio for each column x of the (d, n) instance matrix X,
    coded with `operands` (`_coding_operands`, formed here if not given).

    Lambda = (x - D_bg a_bg)^T Sigma^-1 (x - D_bg a_bg)
           / (x - D a)^T Sigma^-1 (x - D a),
    both residual norms floored at 1e-12, so an instance that the
    background already reconstructs exactly scores 1, not 0.

    The full coding warm-starts from the background-only codes (target
    block zero).  Raises ModelMismatch where its lasso objective
    0.5*||x - D a||^2 + lam*||a||_1 is worse than its warm start's.  The
    warm start's residual is the background one: each residual block is
    formed once and gives both its objective and its Mahalanobis norm.
    """
    Dbg, G_bg, eta_bg, full, G, eta = operands or _coding_operands(D, model, X.shape[0])
    n = X.shape[1]
    corr_bg = Dbg.T @ X
    A_bg = kernels.ista_negative(G_bg, corr_bg, np.zeros((D.n_background, n)), lam, eta_bg, n_iter)
    corr = np.vstack([D.target_atoms.T @ X, corr_bg])
    A0 = np.vstack([np.zeros((D.n_target, n)), A_bg])
    A_full = kernels.ista_negative(G, corr, A0, lam, eta, n_iter)

    def scores(atoms, A):
        R = atoms @ A
        np.subtract(X, R, out=R)
        lasso = 0.5 * np.einsum("ij,ij->j", R, R) + lam * np.sum(np.abs(A), axis=0)
        return model.mahalanobis_sq(R), lasso

    num, obj_warm = scores(Dbg, A_bg)
    den, obj_full = scores(full, A_full)
    if not np.all(obj_full <= obj_warm + 1e-9 * (1.0 + np.abs(obj_warm))):
        raise ModelMismatch("full-dictionary coding worsened its warm start")
    return np.maximum(num, _RATIO_FLOOR) / np.maximum(den, _RATIO_FLOOR)


# Columns per coding call; it bounds `detect`'s coding memory at one chunk.
_CODE_CHUNK = 2048


def confidence_series(
    rec: Recording,
    D: Dictionary,
    model: BackgroundModel,
    lam: float,
    n_iter: int = DEFAULT_CODE_ITERS,
    pre: Preprocessing = Preprocessing(),
    candidates=None,
) -> ConfidenceSeries:
    """Per-channel candidate peaks with their confidence ratios.

    `pre` must be the record the dictionary was trained under.  The
    channels are filtered once: `candidates` holds what
    `signals.candidate_peaks(rec, pre)` yields, which is called when it
    is None.  Then each channel's windows are cut and coded one chunk of
    columns at a time, and only its peak indices and confidences are kept.
    At its peak this holds the recording, the filtered channels and one
    chunk's windows and coding blocks, never a channel's whole candidate
    block.  A chunk is `_CODE_CHUNK` (2,048) columns, and the last one
    takes the remainder."""
    coding = (D, model, lam, n_iter, _coding_operands(D, model, 2 * pre.half_len + 1))
    if candidates is None:
        candidates = candidate_peaks(rec, pre)
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


def _vote(idx, ch, conf, neighborhood: int, min_votes: int, refractory: int):
    """vote_beats on supra-threshold events already in _sorted_events order
    (any subset of a sorted event list is still sorted)."""
    n = idx.size
    if n == 0:
        return []
    # Clusters tile the events: each runs from its anchor to the first event
    # more than `neighborhood` samples later, which anchors the next one.
    # A cluster always holds its anchor, even for a negative neighborhood.
    nxt = np.searchsorted(idx, idx + neighborhood, side="right")
    nxt = np.maximum(nxt, np.arange(1, n + 1)).tolist()
    anchors = []
    i = 0
    while i < n:
        anchors.append(i)
        i = nxt[i]
    starts = np.asarray(anchors)
    sizes = np.diff(starts, append=n)
    votes = np.zeros(starts.size, dtype=int)
    for c in np.unique(ch):
        votes += np.logical_or.reduceat(ch == c, starts)
    keep = votes >= min_votes
    starts, sizes = starts[keep], sizes[keep]
    if starts.size == 0:
        return []
    # int(np.median(...)) of the cluster's (sorted) indices
    med = ((idx[starts + (sizes - 1) // 2] + idx[starts + sizes // 2]) / 2).astype(int)
    # Confidence sums added left to right, as sum() over the cluster does;
    # a pairwise reduction would round differently on long clusters.
    sums = np.zeros(starts.size)
    for k in range(int(sizes.max())):
        live = sizes > k
        sums[live] += conf[starts[live] + k]
    beats: list[tuple[int, float]] = []
    for b, s in zip(med.tolist(), sums.tolist()):
        if beats and b - beats[-1][0] < refractory:
            if s > beats[-1][1]:
                beats[-1] = (b, s)
        else:
            beats.append((b, s))
    return beats


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
    Returns (beat_index, confidence_sum) pairs in time order.
    """
    idx, ch, conf = _sorted_events(series)
    keep = conf > params.threshold
    refractory = int(round(params.refractory_s * series.fs))
    return _vote(idx[keep], ch[keep], conf[keep], params.neighborhood, params.min_votes, refractory)


def learn_detection_params_pooled(
    series_list,
    gt_list,
    thresholds=DEFAULT_THRESHOLD_GRID,
    neighborhoods=DEFAULT_NEIGHBORHOOD_GRID,
    min_votes: int = DetectionParams.min_votes,
    refractory_s: float = DetectionParams.refractory_s,
) -> DetectionParams:
    """Grid-search the voting threshold and neighborhood for best F1
    against groundtruth beats (matched one-to-one by greedy_match), with
    counts pooled over the given recordings.  Ties prefer the smaller
    threshold, then the smaller neighborhood."""
    series_list = list(series_list)
    gt_list = [np.asarray(g) for g in gt_list]
    if not series_list or any(g.size == 0 for g in gt_list):
        raise ValueError("groundtruth beats required to learn detection parameters")
    # Events are sorted once per recording; each threshold is a mask on them.
    recordings = [
        (
            _sorted_events(series),
            np.asarray(gt, dtype=float) / series.fs,
            series.fs,
            int(round(refractory_s * series.fs)),
        )
        for series, gt in zip(series_list, gt_list)
    ]
    best = None
    best_f1 = -1.0
    for thr in thresholds:
        masked = []
        for (idx, ch, conf), gt_s, fs, refractory in recordings:
            keep = conf > float(thr)
            masked.append(((idx[keep], ch[keep], conf[keep]), gt_s, fs, refractory))
        for nb in neighborhoods:
            tp = fp = fn = 0
            for events, gt_s, fs, refractory in masked:
                beats = _vote(*events, int(nb), min_votes, refractory)
                est_s = np.asarray([b[0] for b in beats], dtype=float) / fs
                m = len(greedy_match(est_s, gt_s))
                tp += m
                fp += est_s.size - m
                fn += gt_s.size - m
            f1 = 2.0 * tp / (2.0 * tp + fp + fn) if (2 * tp + fp + fn) else 0.0
            if f1 > best_f1:
                best_f1 = f1
                best = DetectionParams(float(thr), int(nb), min_votes, refractory_s)
    return best


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
    window_s: float = DEFAULT_WINDOW_S,
    step_s: float = DEFAULT_STEP_S,
    duration_s: float | None = None,
) -> HrSeries:
    """Sliding-window heart rate from beat locations (sorted first).

    Each window averages 60/interval over the beat-to-beat intervals that
    lie fully inside it; windows with fewer than two beats are gaps (NaN).
    Window centers step every step_s; duration defaults to the last beat.
    """
    beats = np.sort(np.asarray(beat_indices, dtype=float) / fs)
    if duration_s is None:
        duration_s = float(beats[-1]) if beats.size else 0.0
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
) -> tuple[Model, FitResult]:
    """Fit a dictionary on the bags of `recordings` (one sample rate, with
    groundtruth beats), then grid-search the voting parameters on the
    confidences `detect_recording` gives them.  A learner error is raised
    as a ValueError prefixed `training failed: `."""
    _check_min_votes(min_votes, min(len(rec.channels) for rec in recordings))
    # Each recording is filtered and peak-picked once, for its bags and
    # for the voting-parameter grid.
    candidates = [list(candidate_peaks(rec, pre)) for rec in recordings]
    bags = [
        bag
        for rec, cands in zip(recordings, candidates)
        for bag in build_bags(cands, rec.gt_beat_times, per_positive, pre)
    ]
    try:
        result = fit(bags, params, seed)
    except ValueError as exc:
        raise ValueError(f"training failed: {exc}") from exc
    background = background_covariance(bag_columns(bags, 0))
    del bags  # the grid cuts its own windows, one chunk at a time
    series_list = [
        confidence_series(rec, result.dictionary, background, params.lam, code_iters, pre, cands)
        for rec, cands in zip(recordings, candidates)
    ]
    gt = [rec.gt_beat_times for rec in recordings]
    detection = learn_detection_params_pooled(
        series_list, gt, min_votes=min_votes, refractory_s=refractory_s
    )
    fs = recordings[0].sample_rate_hz
    return Model(result.dictionary, background, detection, params.lam, code_iters, fs, pre), result


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
    series = confidence_series(
        rec, model.dictionary, model.background, model.lam, model.code_iters, model.pre
    )
    live = sum(p.size > 0 for p in series.peak_indices)
    if live < model.detection.min_votes:
        log.warning("only %d of %d channels have candidate peaks, fewer than min_votes=%d: "
                    "no beat can be voted", live, series.n_channels, model.detection.min_votes)
    beats = vote_beats(series, model.detection)
    if dft_band_hz is not None:
        return beats, hr_from_confidence_dft(series, window_s, step_s, dft_band_hz)
    beat_idx = np.asarray([b[0] for b in beats])
    return beats, hr_from_beats(beat_idx, rec.sample_rate_hz, window_s, step_s, rec.duration_s)
