"""Evaluation statistics tests: MAE, BBI error, Bland-Altman, correlation,
and evaluate, which composes eval's report from them."""

import ast
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from bcgbeat import io as bio
from bcgbeat.metrics import (
    BEAT_MATCH_TOL_S,
    HrSeries,
    bland_altman,
    evaluate,
    greedy_match,
    mae,
    paired_t,
    pearson_r,
    per_window_errors,
)


def series(times, bpm):
    return HrSeries(times=np.asarray(times, dtype=float), bpm=np.asarray(bpm, dtype=float))


def mae_of(est, gt):
    return evaluate(gt, est)[0]["mae_bpm"]


# Paired HR-like values in bpm: every power-of-two scale by at most 2^±900
# keeps them normal numbers.
_HR_PAIRS = st.lists(st.tuples(st.floats(20.0, 250.0), st.floats(20.0, 250.0)),
                     min_size=2, max_size=40)


class TestMae:
    def test_identical_series_score_zero(self):
        s = series([30, 45, 60], [70, 72, 71])
        assert mae_of(s, s) == 0.0

    def test_constant_offset(self):
        gt = series([30, 45, 60], [70.0, 72.0, 71.0])
        est = series([30, 45, 60], [71.0, 73.0, 72.0])
        assert mae_of(est, gt) == 1.0

    def test_is_symmetric(self):
        rng = np.random.default_rng(0)
        t = np.arange(10) * 15.0 + 30.0
        a = series(t, rng.uniform(60, 90, 10))
        b = series(t, rng.uniform(60, 90, 10))
        assert mae_of(a, b) == mae_of(b, a)

    def test_gaps_are_excluded_pairwise(self):
        gt = series([30, 45, 60], [70.0, np.nan, 71.0])
        est = series([30, 45, 60], [np.nan, 72.0, 73.0])
        assert mae_of(est, gt) == 2.0

    @given(_HR_PAIRS, st.integers(-900, 1015))
    def test_scaling_by_a_power_of_two_keeps_the_bits(self, pairs, k):
        """Up to 2^1015, where the errors' plain sum overflows."""
        est, gt = np.array(pairs).T
        t = 15.0 * np.arange(est.size)
        scaled = mae(series(t, np.ldexp(est, k)), series(t, np.ldexp(gt, k)))
        assert scaled == np.ldexp(mae(series(t, est), series(t, gt)), k)

    def test_no_overlap_is_an_error(self):
        a = series([30.0], [np.nan])
        b = series([30.0], [70.0])
        with pytest.raises(ValueError):
            mae_of(a, b)
        with pytest.raises(ValueError):
            mae_of(series([30.0], [70.0]), series([999.0], [70.0]))


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


def test_benchmark_matches_beats_under_the_same_tolerance(workdir):
    """perfbench/run.py scores beat_f1 with its own MATCH_TOL_S; read it
    without importing the benchmark, so its F1 and eval cannot drift.  On
    the CLI fixture, eval's beat_f1 is the benchmark's formula to the bit."""
    run_py = Path(__file__).resolve().parent.parent / "perfbench" / "run.py"
    values = [
        ast.literal_eval(node.value)
        for node in ast.parse(run_py.read_text()).body
        if isinstance(node, ast.Assign)
        and any(isinstance(t, ast.Name) and t.id == "MATCH_TOL_S" for t in node.targets)
    ]
    assert values == [BEAT_MATCH_TOL_S]

    rec = bio.read_recording(workdir / "rec.csv")
    gt_s = rec.gt_beat_times / rec.sample_rate_hz
    _, est_s, _ = bio.read_beats(workdir / "det.beats.csv")
    f1 = 2.0 * len(greedy_match(est_s, gt_s, BEAT_MATCH_TOL_S)) / (est_s.size + gt_s.size)
    report = bio.read_keyvalue(workdir / "report")
    assert report["beat_f1"] == repr(f1)
    assert (int(report["n_beats_est"]), int(report["n_beats_gt"])) == (est_s.size, gt_s.size)


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


def beat_report(est, gt):
    """evaluate's report for two beat trains (s), on a one-window HR series."""
    hr = series([30.0], [70.0])
    return evaluate(hr, hr, est, gt)[0]


class TestBbiRelativeError:
    def test_identical_trains_score_zero(self):
        beats = np.arange(0.0, 30.0, 1.0)
        assert beat_report(beats, beats)["bbi_relative_error_pct"] == 0.0

    def test_five_percent_period_stretch(self):
        gt = np.arange(6, dtype=float)
        est = gt * 1.05
        assert abs(beat_report(est, gt)["bbi_relative_error_pct"] - 5.0) <= 1e-12

    def test_only_consecutively_matched_intervals_count(self):
        gt = np.array([0.0, 1.0, 2.0, 3.0])
        est = np.array([0.0, 1.0, 2.5, 3.0])  # 2.5 matches nothing
        report = beat_report(est, gt)
        # one interval, 0 -> 1 in both: 1 -> 3 skips a beat, and one
        # interval is too few for Bland-Altman
        assert report["n_beats_matched"] == 3
        assert report["bbi_relative_error_pct"] == 0.0
        assert "n_beat_pairs" not in report
        stretched = beat_report(np.array([0.0, 1.1, 2.5, 3.0]), gt)
        assert abs(stretched["bbi_relative_error_pct"] - 10.0) <= 1e-12

    def test_too_few_matches_leave_the_bbi_keys_out_and_say_why(self):
        hr = series([30.0], [70.0])
        report, _, why = evaluate(hr, hr, np.array([0.0, 10.0]), np.array([0.0, 2.0]))
        assert why == "BBI comparison impossible: no consecutively matched beat pairs"
        assert report["n_beats_matched"] == 1
        assert not any(k.startswith(("bbi_", "bland_altman_")) or k == "n_beat_pairs" for k in report)


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

    def test_a_huge_finite_value_does_not_overflow(self):
        x = np.array([70.0, 71.0, 1e308, 69.0])
        y = np.array([70.0, 71.5, 72.0, 68.0])
        r = pearson_r(x, y)
        assert r == pearson_r(np.ldexp(x, -900), y)
        assert abs(r - 0.603) <= 1e-3

    @given(_HR_PAIRS, st.integers(-900, 900), st.integers(-900, 900))
    def test_scaling_by_powers_of_two_keeps_the_bits(self, pairs, k, j):
        x, y = np.array(pairs).T
        assume(np.ptp(x) > 0 and np.ptp(y) > 0)
        assert pearson_r(np.ldexp(x, k), np.ldexp(y, j)) == pearson_r(x, y)


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

    @given(_HR_PAIRS, st.integers(-900, 900))
    def test_scaling_by_a_power_of_two_keeps_the_bits(self, pairs, k):
        a, b = np.array(pairs).T
        assume(np.ptp(a - b) > 0)
        assert paired_t(np.ldexp(a, k), np.ldexp(b, k)) == paired_t(a, b)

    def test_a_huge_finite_difference_does_not_overflow(self):
        a = np.array([1.0, 2.0, 1e308, 1.5])
        assert abs(paired_t(a, np.zeros(4)) - 1.0) <= 1e-12


class TestPerWindowErrors:
    def test_rows_carry_absolute_errors(self):
        gt = series([30, 45, 60], [70.0, 72.0, np.nan])
        est = series([30, 45, 60], [71.0, 70.0, 75.0])
        rows = evaluate(gt, est)[1]
        assert [r[0] for r in rows] == [30.0, 45.0]
        assert [r[3] for r in rows] == [1.0, 2.0]


class TestEvaluate:
    GT = series([30, 45, 60, 75], [70.0, 72.0, 71.0, 74.0])
    EST = series([30, 45, 60, 75], [71.0, 70.0, np.nan, 75.0])
    BASE = series([30, 45, 60, 75], [75.0, 60.0, 70.0, 71.0])
    GT_BEATS = np.arange(0.0, 20.0, 0.8)
    EST_BEATS = np.r_[GT_BEATS[:10] + 0.02, GT_BEATS[12:] - 0.05, 30.0]

    def test_report_keys_in_eval_order(self):
        report, rows, why = evaluate(self.GT, self.EST, self.EST_BEATS, self.GT_BEATS, self.BASE)
        assert why is None
        assert list(report) == [
            "mae_bpm", "n_windows_compared", "pearson_r", "beat_f1", "n_beats_matched",
            "n_beats_est", "n_beats_gt", "bbi_relative_error_pct", "bland_altman_bias_bpm",
            "bland_altman_sd_bpm", "bland_altman_loa_low_bpm", "bland_altman_loa_high_bpm",
            "n_beat_pairs", "paired_t_stat", "paired_t_df",
        ]
        assert all(type(v) in (float, int) for v in report.values())
        assert rows == per_window_errors(self.EST, self.GT)
        assert report["n_windows_compared"] == 3 and report["paired_t_df"] == 2

    def test_scores_are_the_statistics_of_one_matching(self):
        est, gt = self.EST_BEATS, self.GT_BEATS
        report, rows, _ = evaluate(self.GT, self.EST, est, gt, self.BASE)
        assert report["mae_bpm"] == mae(self.EST, self.GT)
        assert report["pearson_r"] == pearson_r(*np.asarray(rows)[:, 1:3].T)
        pairs = greedy_match(est, gt)
        assert (report["n_beats_matched"], report["n_beats_est"], report["n_beats_gt"]) == (
            len(pairs), est.size, gt.size)
        assert report["beat_f1"] == 2.0 * len(pairs) / (est.size + gt.size)
        consecutive = [(p, q) for p, q in zip(pairs, pairs[1:])
                       if q[0] == p[0] + 1 and q[1] == p[1] + 1]
        e_iv = np.array([est[q[0]] - est[p[0]] for p, q in consecutive])
        g_iv = np.array([gt[q[1]] - gt[p[1]] for p, q in consecutive])
        assert report["bbi_relative_error_pct"] == float(np.mean(np.abs(e_iv - g_iv) / g_iv) * 100.0)
        stats = bland_altman(60.0 / e_iv, 60.0 / g_iv)
        assert (report["bland_altman_bias_bpm"], report["bland_altman_loa_high_bpm"]) == (
            stats.bias, stats.loa_high)
        assert report["n_beat_pairs"] == stats.n == e_iv.size
        both = [0, 1, 3]
        t = paired_t(np.abs(self.EST.bpm - self.GT.bpm)[both], np.abs(self.BASE.bpm - self.GT.bpm)[both])
        assert report["paired_t_stat"] == t

    def test_one_window_or_one_interval_leaves_its_statistic_out(self):
        report, _, _ = evaluate(self.GT, series(self.GT.times, [np.nan, 70.0, np.nan, np.nan]),
                             np.array([0.0, 1.0]), np.array([0.0, 1.0]))
        assert "pearson_r" not in report and "n_beat_pairs" not in report
        assert report["beat_f1"] == 1.0
        two = evaluate(self.GT, self.EST, np.array([0.0, 1.0, 2.1]), np.array([0.0, 1.0, 2.0]))[0]
        assert "pearson_r" in two and two["n_beat_pairs"] == 2

    def test_a_header_only_beats_file_keeps_the_hr_and_beat_scores(self, tmp_path):
        path = tmp_path / "none.beats.csv"
        bio.write_beats(path, [], 100.0)
        _, est, _ = bio.read_beats(path)
        report, _, why = evaluate(self.GT, self.EST, est, self.GT_BEATS)
        assert report == {
            "mae_bpm": mae(self.EST, self.GT), "n_windows_compared": 3,
            "pearson_r": report["pearson_r"], "beat_f1": 0.0, "n_beats_matched": 0,
            "n_beats_est": 0, "n_beats_gt": self.GT_BEATS.size,
        }
        assert why.startswith("BBI comparison impossible")

    @pytest.mark.parametrize(
        "est, base, message",
        [(series([30.0], [70.0]), None, "HR comparison impossible: the series lie on different"),
         (series(GT.times, [np.nan] * 4), None, "HR comparison impossible: no overlapping"),
         (EST, series([30.0], [70.0]), "paired comparison impossible: the series lie on"),
         (EST, EST, "paired comparison impossible: zero-variance differences")],
        ids=["other_grid", "all_gaps", "baseline_other_grid", "baseline_equal"],
    )
    def test_impossible_comparisons_name_their_part(self, est, base, message):
        with pytest.raises(ValueError, match="^" + re.escape(message)):
            evaluate(self.GT, est, baseline_hr=base)
