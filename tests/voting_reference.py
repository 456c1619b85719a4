"""Loop versions of the voting, voting-parameter search and beat matching.

These are the straightforward per-event implementations that the array
versions in bcgbeat.detector and bcgbeat.metrics replaced.  They are kept
only as the reference that tests/test_voting_exact.py compares against:
both must return identical beats, matches, grid counts and chosen
parameters.
"""

import numpy as np

from bcgbeat.detector import (
    DEFAULT_NEIGHBORHOOD_GRID,
    DEFAULT_THRESHOLD_GRID,
    ConfidenceSeries,
    DetectionParams,
)
from bcgbeat.metrics import BEAT_MATCH_TOL_S


def greedy_match(est_times, gt_times, tol_s=BEAT_MATCH_TOL_S):
    est = np.asarray(est_times, dtype=float)
    gt = np.asarray(gt_times, dtype=float)
    cand = []
    lo = np.searchsorted(gt, est - tol_s, side="left")
    hi = np.searchsorted(gt, est + tol_s, side="right")
    for i in range(est.size):
        for j in range(int(lo[i]), int(hi[i])):
            cand.append((abs(est[i] - gt[j]), i, j))
    cand.sort()
    used_e = np.zeros(est.size, dtype=bool)
    used_g = np.zeros(gt.size, dtype=bool)
    pairs = []
    for _, i, j in cand:
        if not used_e[i] and not used_g[j]:
            used_e[i] = used_g[j] = True
            pairs.append((i, j))
    pairs.sort()
    return pairs


def vote_beats(series: ConfidenceSeries, params: DetectionParams):
    events = []
    for ch, (idx, conf) in enumerate(zip(series.peak_indices, series.confidences)):
        for i, c in zip(idx, conf):
            if c > params.threshold:
                events.append((int(i), ch, float(c)))
    events.sort()
    candidates = []
    i = 0
    while i < len(events):
        j = i
        while j + 1 < len(events) and events[j + 1][0] - events[i][0] <= params.neighborhood:
            j += 1
        cluster = events[i : j + 1]
        channels = {e[1] for e in cluster}
        if len(channels) >= params.min_votes:
            med = int(np.median([e[0] for e in cluster]))
            candidates.append((med, sum(e[2] for e in cluster)))
        i = j + 1
    refractory = int(round(params.refractory_s * series.fs))
    beats = []
    for idx, s in candidates:
        if beats and idx - beats[-1][0] < refractory:
            if s > beats[-1][1]:
                beats[-1] = (idx, s)
        else:
            beats.append((idx, s))
    return beats


def score_grid(
    series_list,
    gt_list,
    thresholds=DEFAULT_THRESHOLD_GRID,
    neighborhoods=DEFAULT_NEIGHBORHOOD_GRID,
    min_votes=2,
    refractory_s=0.3,
):
    """Pooled (matched, voted) beat counts per (threshold, neighborhood),
    one vote_beats and one greedy_match per point and recording."""
    tp = np.zeros((len(thresholds), len(neighborhoods)), dtype=int)
    n_est = np.zeros_like(tp)
    for row, thr in enumerate(thresholds):
        for col, nb in enumerate(neighborhoods):
            params = DetectionParams(float(thr), int(nb), min_votes, refractory_s)
            for series, gt_beat_times in zip(series_list, gt_list):
                gt_s = np.asarray(gt_beat_times, dtype=float) / series.fs
                beats = vote_beats(series, params)
                est_s = np.asarray([b[0] for b in beats], dtype=float) / series.fs
                tp[row, col] += len(greedy_match(est_s, gt_s))
                n_est[row, col] += est_s.size
    return tp, n_est


def learn_detection_params_pooled(
    series_list,
    gt_list,
    thresholds=DEFAULT_THRESHOLD_GRID,
    neighborhoods=DEFAULT_NEIGHBORHOOD_GRID,
    min_votes=2,
    refractory_s=0.3,
):
    series_list = list(series_list)
    gt_list = [np.asarray(g) for g in gt_list]
    if not series_list or any(g.size == 0 for g in gt_list):
        raise ValueError("groundtruth beats required to learn detection parameters")
    best = None
    best_f1 = -1.0
    for thr in thresholds:
        for nb in neighborhoods:
            params = DetectionParams(
                threshold=float(thr),
                neighborhood=int(nb),
                min_votes=min_votes,
                refractory_s=refractory_s,
            )
            tp = fp = fn = 0
            for series, gt_beat_times in zip(series_list, gt_list):
                gt_s = np.asarray(gt_beat_times, dtype=float) / series.fs
                beats = vote_beats(series, params)
                est_s = np.asarray([b[0] for b in beats], dtype=float) / series.fs
                m = len(greedy_match(est_s, gt_s))
                tp += m
                fp += est_s.size - m
                fn += gt_s.size - m
            f1 = 2.0 * tp / (2.0 * tp + fp + fn) if (2 * tp + fp + fn) else 0.0
            if f1 > best_f1:
                best_f1 = f1
                best = params
    return best if best_f1 > 0.0 else None  # None: no point matches a beat
