"""The array voting, grid search and beat matching against their loop
references (tests/voting_reference.py): identical beats (index and float
confidence sum), identical matches, identical grid counts at every point
and identical chosen parameters.  Also the properties their docstrings
promise, checked without a reference: beats a refractory apart, each with
enough voting channels, and matches one-to-one within the tolerance; and
that detect's voting and eval's matching run through the grid's cores."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import voting_reference as ref
from bcgbeat import detector, metrics
from bcgbeat.detector import (
    ConfidenceSeries,
    DetectionParams,
    learn_detection_params_pooled,
    score_grid,
    vote_beats,
)
from bcgbeat.metrics import greedy_match

FS = 100.0
N_SAMPLES = 600
# Few distinct values, so confidences tie with each other and with the
# thresholds, next to arbitrary floats whose cluster sums round.
TIED = (0.5, 1.0, 1.25, 1.3, 1.32, 1.5, 2.0, 3.0)
confidence = st.one_of(st.sampled_from(TIED), st.floats(0.5, 3.0))
threshold = st.sampled_from((0.0, 1.0, 1.3, 1.32, 2.0))

exact = settings(max_examples=150, deadline=None, derandomize=True)


@st.composite
def channel(draw):
    # A narrow index range gives duplicate indices across and within channels.
    n = draw(st.integers(0, 25))
    idx = draw(st.lists(st.integers(0, N_SAMPLES), min_size=n, max_size=n))
    conf = draw(st.lists(confidence, min_size=n, max_size=n))
    return np.sort(np.asarray(idx, dtype=int)), np.asarray(conf, dtype=float)


@st.composite
def series(draw):
    channels = draw(st.lists(channel(), min_size=1, max_size=5))
    return ConfidenceSeries(
        fs=FS,
        n_samples=N_SAMPLES,
        peak_indices=[i for i, _ in channels],
        confidences=[c for _, c in channels],
    )


params = st.builds(
    DetectionParams,
    threshold=threshold,
    # 0 up to longer than any cluster of the index range
    neighborhood=st.integers(0, 2 * N_SAMPLES),
    min_votes=st.integers(1, 4),
    refractory_s=st.sampled_from((0.0, 0.3, 1.0)),
)


@exact
@given(series(), params)
def test_vote_beats_matches_the_loop_reference(s, p):
    beats = vote_beats(s, p)
    assert beats == ref.vote_beats(s, p)
    assert all(type(b) is int and type(c) is float for b, c in beats)


@exact
@given(series(), params)
def test_vote_beats_are_refractory_apart_with_enough_votes(s, p):
    beats = [b for b, _ in vote_beats(s, p)]
    assert np.all(np.diff(beats) >= int(round(p.refractory_s * s.fs)))
    # Every event of a beat's cluster lies within `neighborhood` samples of
    # the cluster's first event, and so of its median, the beat index.
    for b in beats:
        voters = {
            c
            for c, (idx, conf) in enumerate(zip(s.peak_indices, s.confidences))
            if np.any((np.abs(idx - b) <= p.neighborhood) & (conf > p.threshold))
        }
        assert len(voters) >= p.min_votes


gt_beats = st.lists(st.integers(0, N_SAMPLES), min_size=1, max_size=15, unique=True).map(sorted)


@exact
@given(
    st.lists(st.tuples(series(), gt_beats), min_size=1, max_size=3),
    st.lists(threshold, min_size=1, max_size=4),
    st.lists(st.integers(0, 60), min_size=1, max_size=4),
    st.integers(1, 4),
    st.sampled_from((0.0, 0.3)),
)
def test_grid_search_matches_the_loop_reference(recordings, thresholds, neighborhoods, min_votes, refr):
    kwargs = dict(
        thresholds=thresholds,
        neighborhoods=neighborhoods,
        min_votes=min_votes,
        refractory_s=refr,
    )
    series_list = [s for s, _ in recordings]
    gt_list = [np.asarray(g) for _, g in recordings]
    chosen = learn_detection_params_pooled(series_list, gt_list, **kwargs)
    assert chosen == ref.learn_detection_params_pooled(series_list, gt_list, **kwargs)


# Times on a 0.05-s grid make equal distances, so the tie order is exercised.
times = st.lists(st.integers(0, 200), max_size=30).map(lambda v: np.sort(np.asarray(v) * 0.05))


@exact
@given(times, times, st.sampled_from((0.0, 0.1, 0.3, 1.0)))
def test_greedy_match_matches_the_loop_reference(est, gt, tol):
    pairs = greedy_match(est, gt, tol)
    assert pairs == ref.greedy_match(est, gt, tol)
    assert all(type(i) is int and type(j) is int for i, j in pairs)


@exact
@given(
    st.lists(st.floats(0.0, 10.0), max_size=30).map(np.sort),
    st.lists(st.floats(0.0, 10.0), max_size=30).map(np.sort),
    st.sampled_from((0.0, 0.1, 0.3, 1.0)),
)
def test_greedy_match_is_one_to_one_within_tolerance(est, gt, tol):
    pairs = greedy_match(est, gt, tol)
    i = [a for a, _ in pairs]
    j = [b for _, b in pairs]
    assert len(set(i)) == len(i) and len(set(j)) == len(j)
    # "within" as the matcher defines it: gt in [est - tol, est + tol]
    assert all(est[a] - tol <= gt[b] <= est[a] + tol for a, b in pairs)


@st.composite
def bursty_channel(draw):
    """Events in bursts about 50 samples apart, each a few samples wide or
    up to 30: with neighborhoods under 20 a burst is several clusters, and
    with a refractory of 30 or 100 samples the clusters of neighboring
    bursts form long runs, which the grid's walks step as many chains at
    once.  Confidences are tied values only, so that close clusters tie on
    their sums."""
    centres = draw(st.lists(st.integers(0, 11), max_size=12, unique=True))
    idx, conf = [], []
    for c in centres:
        offsets = draw(st.lists(st.integers(0, 30), min_size=1, max_size=8))
        idx += [50 * c + o for o in offsets]
        conf += draw(st.lists(st.sampled_from(TIED), min_size=len(offsets), max_size=len(offsets)))
    order = np.argsort(idx, kind="stable")
    return np.asarray(idx, dtype=int)[order], np.asarray(conf, dtype=float)[order]


@st.composite
def bursty_series(draw):
    channels = draw(st.lists(bursty_channel(), min_size=1, max_size=4))
    return ConfidenceSeries(
        fs=FS,
        n_samples=N_SAMPLES,
        peak_indices=[i for i, _ in channels],
        confidences=[c for _, c in channels],
    )


# 3.5 lies above every confidence drawn, so at it every event of a
# recording falls below the threshold.
grid_threshold = st.sampled_from((0.0, 1.0, 1.25, 1.3, 1.32, 2.0, 3.5))


@exact
@given(
    st.lists(st.tuples(st.one_of(series(), bursty_series()), gt_beats), min_size=1, max_size=3),
    st.lists(grid_threshold, min_size=1, max_size=8),
    st.lists(st.integers(0, 20), min_size=1, max_size=3),
    st.integers(1, 3),
    st.sampled_from((0.0, 0.3, 1.0)),
)
def test_score_grid_counts_match_the_loop_reference_point_by_point(
    recordings, thresholds, neighborhoods, min_votes, refr
):
    series_list = [s for s, _ in recordings]
    gt_list = [np.asarray(g) for _, g in recordings]
    args = (series_list, gt_list, thresholds, neighborhoods, min_votes, refr)
    tp, n_est = score_grid(*args)
    want_tp, want_est = ref.score_grid(*args)
    np.testing.assert_array_equal(tp, want_tp)
    np.testing.assert_array_equal(n_est, want_est)


def test_score_grid_matches_the_loop_reference_on_the_default_grid():
    """Two 60-s recordings of four channels: beats every 0.8 s with some
    missing, plus noise events of low confidence about every 5 samples, so
    the low thresholds see long runs of close events."""
    rng = np.random.default_rng(11)
    series_list, gt_list = [], []
    for _ in range(2):
        n = 6000
        gt = np.arange(40, n - 40, 80)
        idx, conf = [], []
        for _ in range(4):
            beats = gt[rng.random(gt.size) < 0.9]
            beats = beats + rng.integers(-6, 7, beats.size)
            noise = rng.integers(0, n, 1200)
            i = np.concatenate([beats, noise])
            c = np.concatenate(
                [rng.uniform(1.3, 3.0, beats.size), rng.uniform(0.9, 1.4, noise.size)]
            )
            order = np.argsort(i, kind="stable")
            idx.append(i[order])
            conf.append(c[order])
        series_list.append(ConfidenceSeries(fs=FS, n_samples=n, peak_indices=idx, confidences=conf))
        gt_list.append(gt)
    tp, n_est = score_grid(series_list, gt_list)
    want_tp, want_est = ref.score_grid(series_list, gt_list)
    np.testing.assert_array_equal(tp, want_tp)
    np.testing.assert_array_equal(n_est, want_est)
    assert learn_detection_params_pooled(series_list, gt_list) == ref.learn_detection_params_pooled(
        series_list, gt_list
    )


def test_close_clusters_with_tied_sums_keep_the_earlier_beat_in_many_runs():
    """40 runs of three clusters 10 samples apart, which the refractory
    rule steps all at once.  A tie keeps the earlier beat; a larger sum, if
    only by one ulp, replaces it."""
    idx = np.concatenate([[100 * r, 100 * r + 10, 100 * r + 20] for r in range(1, 41)])
    p = DetectionParams(threshold=1.0, neighborhood=5, min_votes=2, refractory_s=0.3)
    for last, kept in ((1.5, 0), (np.nextafter(1.5, 2.0), 20)):
        conf = np.tile([1.5, 1.5, last], 40)
        s = ConfidenceSeries(
            fs=FS, n_samples=4200, peak_indices=[idx, idx], confidences=[conf, conf]
        )
        beats = vote_beats(s, p)
        assert beats == ref.vote_beats(s, p)
        assert [b for b, _ in beats] == [100 * r + kept for r in range(1, 41)]


def test_detect_voting_and_eval_matching_run_through_the_grids_cores(monkeypatch):
    """vote_beats and greedy_match are the one-segment calls of the cores
    that score_grid runs, so the grid and detect/eval cannot drift apart."""
    assert detector.match_segments is metrics.match_segments
    calls = []

    def spy(name, core):
        def wrapped(*args, **kwargs):
            calls.append(name)
            return core(*args, **kwargs)

        return wrapped

    vote_core = spy("vote", detector.vote_segments)
    match_core = spy("match", metrics.match_segments)
    monkeypatch.setattr(detector, "vote_segments", vote_core)
    monkeypatch.setattr(detector, "match_segments", match_core)
    monkeypatch.setattr(metrics, "match_segments", match_core)
    s = ConfidenceSeries(fs=FS, n_samples=N_SAMPLES, peak_indices=[np.array([100, 300])] * 2,
                         confidences=[np.array([2.0, 2.0])] * 2)

    assert vote_beats(s, DetectionParams()) == [(100, 4.0), (300, 4.0)]
    assert calls == ["vote"]
    calls.clear()
    assert greedy_match(np.array([1.0, 3.0]), np.array([1.1])) == [(0, 0)]
    assert calls == ["match"]
    calls.clear()
    tp, n_est = score_grid([s], [np.array([100, 300])], thresholds=[1.0, 3.0], neighborhoods=[15])
    assert tp.tolist() == [[2], [0]] and n_est.tolist() == [[2], [0]]
    assert calls == ["vote", "match"]
