"""Evaluation statistics tests: MAE, BBI error, Bland-Altman, correlation."""

import ast
import re
from pathlib import Path

import numpy as np
import pytest

from bcgbeat.metrics import (
    BEAT_MATCH_TOL_S,
    HrSeries,
    bbi_relative_error,
    bland_altman,
    greedy_match,
    mae,
    matched_interval_pairs,
    paired_t,
    pearson_r,
    per_window_errors,
)


def series(times, bpm):
    return HrSeries(times=np.asarray(times, dtype=float), bpm=np.asarray(bpm, dtype=float))


class TestMae:
    def test_identical_series_score_zero(self):
        s = series([30, 45, 60], [70, 72, 71])
        assert mae(s, s) == 0.0

    def test_constant_offset(self):
        gt = series([30, 45, 60], [70.0, 72.0, 71.0])
        est = series([30, 45, 60], [71.0, 73.0, 72.0])
        assert mae(est, gt) == 1.0

    def test_is_symmetric(self):
        rng = np.random.default_rng(0)
        t = np.arange(10) * 15.0 + 30.0
        a = series(t, rng.uniform(60, 90, 10))
        b = series(t, rng.uniform(60, 90, 10))
        assert mae(a, b) == mae(b, a)

    def test_gaps_are_excluded_pairwise(self):
        gt = series([30, 45, 60], [70.0, np.nan, 71.0])
        est = series([30, 45, 60], [np.nan, 72.0, 73.0])
        assert mae(est, gt) == 2.0

    def test_no_overlap_is_an_error(self):
        a = series([30.0], [np.nan])
        b = series([30.0], [70.0])
        with pytest.raises(ValueError):
            mae(a, b)
        with pytest.raises(ValueError):
            mae(series([30.0], [70.0]), series([999.0], [70.0]))


class TestOneGrid:
    GT = ([30, 45, 60], [70.0, 72.0, 71.0])

    @pytest.mark.parametrize(
        "times, est_grid",
        [([31, 46, 61], "3 windows, first centres [31.0, 46.0] s"),
         ([30, 40, 50], "3 windows, first centres [30.0, 40.0] s"),
         ([30, 45], "2 windows, first centres [30.0, 45.0] s")],
        ids=["shifted", "other_step", "one_window_fewer"],
    )
    def test_series_on_another_grid_are_an_error(self, times, est_grid):
        est = series(times, [70.0] * len(times))
        message = f"different HR window grids: {est_grid} vs 3 windows, first centres [30.0, 45.0] s"
        with pytest.raises(ValueError, match=re.escape(message)):
            per_window_errors(est, series(*self.GT))
        with pytest.raises(ValueError, match=re.escape(message)):
            mae(est, series(*self.GT))

    def test_empty_series_is_on_another_grid(self):
        with pytest.raises(ValueError, match=re.escape("0 windows, first centres [] s vs 3 windows")):
            mae(series([], []), series(*self.GT))


def test_benchmark_matches_beats_under_the_same_tolerance():
    """perfbench/run.py scores beat_f1 with its own MATCH_TOL_S; read it
    without importing the benchmark, so its F1 and eval cannot drift."""
    run_py = Path(__file__).resolve().parent.parent / "perfbench" / "run.py"
    values = [
        ast.literal_eval(node.value)
        for node in ast.parse(run_py.read_text()).body
        if isinstance(node, ast.Assign)
        and any(isinstance(t, ast.Name) and t.id == "MATCH_TOL_S" for t in node.targets)
    ]
    assert values == [BEAT_MATCH_TOL_S]


class TestGreedyMatch:
    def test_matches_closest_first_one_to_one(self):
        est = np.array([1.0, 1.25])
        gt = np.array([1.1])
        assert greedy_match(est, gt, tol_s=0.3) == [(0, 0)]

    def test_exact_tie_prefers_the_earlier_estimate(self):
        # 0.25 offsets are exact in binary, so this is a true tie
        est = np.array([1.0, 1.5])
        gt = np.array([1.25])
        assert greedy_match(est, gt, tol_s=0.3) == [(0, 0)]

    def test_respects_tolerance(self):
        assert greedy_match(np.array([1.0]), np.array([2.0]), tol_s=0.3) == []

    def test_each_event_matches_at_most_once(self):
        est = np.array([0.0, 0.1, 0.2])
        gt = np.array([0.05, 0.15])
        pairs = greedy_match(est, gt, tol_s=0.3)
        assert len(pairs) == 2
        assert len({i for i, _ in pairs}) == 2
        assert len({j for _, j in pairs}) == 2


class TestBbiRelativeError:
    def test_identical_trains_score_zero(self):
        beats = np.arange(0.0, 30.0, 1.0)
        assert bbi_relative_error(beats, beats) == 0.0

    def test_five_percent_period_stretch(self):
        gt = np.arange(6, dtype=float)
        est = gt * 1.05
        assert abs(bbi_relative_error(est, gt) - 5.0) <= 1e-12

    def test_only_consecutively_matched_intervals_count(self):
        gt = np.array([0.0, 1.0, 2.0, 3.0])
        est = np.array([0.0, 1.0, 2.5, 3.0])  # 2.5 matches nothing
        e_iv, g_iv = matched_interval_pairs(est, gt)
        np.testing.assert_array_equal(e_iv, [1.0])
        np.testing.assert_array_equal(g_iv, [1.0])

    def test_too_few_matches_is_an_error(self):
        with pytest.raises(ValueError):
            bbi_relative_error(np.array([0.0, 10.0]), np.array([1.0, 2.0]))


class TestBlandAltman:
    def test_identical_pairs_have_degenerate_limits(self):
        x = np.array([60.0, 70.0, 80.0])
        stats = bland_altman(x, x)
        assert stats.bias == 0.0
        assert stats.loa_low == 0.0 and stats.loa_high == 0.0

    def test_two_point_formula(self):
        stats = bland_altman(np.array([1.0, -1.0]), np.array([0.0, 0.0]))
        assert stats.bias == 0.0
        assert abs(stats.sd - np.sqrt(2.0)) <= 1e-15
        assert abs(stats.loa_high - 1.96 * np.sqrt(2.0)) <= 1e-14
        assert abs(stats.loa_low + 1.96 * np.sqrt(2.0)) <= 1e-14

    def test_matches_direct_formula(self):
        rng = np.random.default_rng(1)
        est = rng.uniform(50, 100, 40)
        gt = rng.uniform(50, 100, 40)
        stats = bland_altman(est, gt)
        d = est - gt
        bias = d.mean()
        sd = d.std(ddof=1)
        assert abs(stats.bias - bias) <= 1e-10
        assert abs(stats.loa_low - (bias - 1.96 * sd)) <= 1e-10
        assert abs(stats.loa_high - (bias + 1.96 * sd)) <= 1e-10

    def test_limits_are_symmetric_about_the_bias(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            est = rng.uniform(40, 120, 15)
            gt = rng.uniform(40, 120, 15)
            stats = bland_altman(est, gt)
            assert abs((stats.loa_high - stats.bias) - (stats.bias - stats.loa_low)) <= 1e-12

    def test_single_pair_is_an_error(self):
        with pytest.raises(ValueError):
            bland_altman(np.array([1.0]), np.array([2.0]))


class TestPearson:
    def test_self_correlation_is_one(self):
        x = np.array([1.0, 4.0, 2.0, 8.0])
        assert abs(pearson_r(x, x) - 1.0) <= 1e-15

    def test_anti_correlation_is_minus_one(self):
        x = np.array([1.0, 4.0, 2.0, 8.0])
        assert abs(pearson_r(x, -x) + 1.0) <= 1e-15

    def test_hand_computed_value(self):
        r = pearson_r(np.array([1.0, 2.0, 3.0]), np.array([2.0, 4.0, 5.0]))
        assert abs(r - 0.9820) <= 1e-4

    def test_result_is_bounded(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            x = rng.standard_normal(12)
            y = rng.standard_normal(12)
            assert -1.0 <= pearson_r(x, y) <= 1.0

    def test_invariant_under_positive_affine_maps(self):
        rng = np.random.default_rng(4)
        x = rng.standard_normal(30)
        y = rng.standard_normal(30)
        base = pearson_r(x, y)
        assert abs(pearson_r(3.7 * x + 11.0, y) - base) <= 1e-10
        assert abs(pearson_r(x, 0.02 * y - 5.0) - base) <= 1e-10

    def test_constant_input_is_an_error(self):
        with pytest.raises(ValueError):
            pearson_r(np.ones(5), np.arange(5.0))


class TestPairedT:
    def test_equal_samples_are_an_error(self):
        a = np.array([1.0, 2.0, 3.0])
        with pytest.raises(ValueError):
            paired_t(a, a.copy())

    def test_constant_difference_is_an_error(self):
        b = np.array([1.0, 2.0, 3.0, 4.0])
        with pytest.raises(ValueError):
            paired_t(b + 1.0, b)

    def test_hand_computed_value(self):
        b = np.zeros(4)
        a = np.array([1.0, 2.0, 3.0, 4.0])
        # mean 2.5, sd 1.2910, t = 2.5 / (1.2910 / 2)
        assert abs(paired_t(a, b) - 3.873) <= 1e-3

    def test_antisymmetric(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            a = rng.standard_normal(10)
            b = rng.standard_normal(10)
            assert paired_t(a, b) == -paired_t(b, a)


class TestPerWindowErrors:
    def test_rows_carry_absolute_errors(self):
        gt = series([30, 45, 60], [70.0, 72.0, np.nan])
        est = series([30, 45, 60], [71.0, 70.0, 75.0])
        rows = per_window_errors(est, gt)
        assert [r[0] for r in rows] == [30.0, 45.0]
        assert [r[3] for r in rows] == [1.0, 2.0]
