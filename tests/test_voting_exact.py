"""The array voting, grid search and beat matching against their loop
references (tests/voting_reference.py): identical beats (index and float
confidence sum), identical matches and identical chosen parameters.  Also
the properties their docstrings promise, checked without a reference:
beats a refractory apart, each with enough voting channels, and matches
one-to-one within the tolerance."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import voting_reference as ref
from bcgbeat.detector import (
    ConfidenceSeries,
    DetectionParams,
    learn_detection_params_pooled,
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
