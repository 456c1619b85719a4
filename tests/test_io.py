"""File format round-trip tests.

Everything is written via repr(float), so numeric round-trips must be
bit-exact, and repeated writes of the same object byte-identical.
"""

import re
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from bcgbeat import io as bio
from bcgbeat.cli import main
from bcgbeat.detector import BackgroundModel
from bcgbeat.dlfumi import Dictionary
from bcgbeat.metrics import HrSeries
from bcgbeat.signals import Recording
from bcgbeat.synth import SynthConfig, generate


def random_recording(with_gt: bool = True) -> Recording:
    rng = np.random.default_rng(0)
    chans = [rng.standard_normal(500) for _ in range(3)]
    gt = np.asarray([40, 140, 260, 410]) if with_gt else None
    return Recording(channels=chans, sample_rate_hz=100.0, gt_beat_times=gt)


class TestRecordingRoundtrip:
    def test_with_groundtruth(self, tmp_path):
        rec = random_recording()
        p = tmp_path / "rec.csv"
        bio.write_recording(p, rec)
        back = bio.read_recording(p)
        assert back.sample_rate_hz == rec.sample_rate_hz
        assert len(back.channels) == 3
        for a, b in zip(back.channels, rec.channels):
            np.testing.assert_array_equal(a, b)
        np.testing.assert_array_equal(back.gt_beat_times, rec.gt_beat_times)

    def test_sample_rate_reads_back_as_a_float(self, tmp_path):
        p = tmp_path / "rec.csv"
        bio.write_recording(p, random_recording())
        assert type(bio.read_recording(p).sample_rate_hz) is float
        assert type(bio.read_groundtruth(p)[0]) is float

    def test_without_groundtruth(self, tmp_path):
        rec = random_recording(with_gt=False)
        p = tmp_path / "rec.csv"
        bio.write_recording(p, rec)
        back = bio.read_recording(p)
        assert back.gt_beat_times is None
        np.testing.assert_array_equal(back.channels[0], rec.channels[0])

    def test_double_write_is_byte_identical(self, tmp_path):
        rec = random_recording()
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        bio.write_recording(p1, rec)
        bio.write_recording(p2, rec)
        assert p1.read_bytes() == p2.read_bytes()

    @pytest.mark.parametrize("with_gt", [True, False])
    def test_rows_are_the_repr_of_each_sample(self, tmp_path, with_gt):
        """500 rows span several of the writer's blocks and a partial one."""
        rec = random_recording(with_gt)
        p = tmp_path / "rec.csv"
        bio.write_recording(p, rec)
        marks = np.isin(np.arange(rec.n_samples), rec.gt_beat_times)
        want = ["t,ch0,ch1,ch2" + (",gt" if with_gt else "") + "\n"]
        for i in range(rec.n_samples):
            row = [repr(i / 100.0)] + [repr(float(ch[i])) for ch in rec.channels]
            want.append(",".join(row + ([str(int(marks[i]))] if with_gt else [])) + "\n")
        assert p.read_text() == "".join(want)

    def test_rejects_foreign_header(self, tmp_path):
        p = tmp_path / "bad.csv"
        p.write_text("time,ch0\n0.0,1.0\n0.01,2.0\n")
        with pytest.raises(ValueError, match="missing 't' column"):
            bio.read_recording(p)

    def test_rejects_nonchannel_columns(self, tmp_path):
        p = tmp_path / "bad.csv"
        p.write_text("t,volts\n0.0,1.0\n0.01,2.0\n")
        with pytest.raises(ValueError, match="malformed recording header"):
            bio.read_recording(p)

    def test_rejects_single_sample(self, tmp_path):
        p = tmp_path / "bad.csv"
        p.write_text("t,ch0\n0.0,1.0\n")
        with pytest.raises(ValueError, match="at least two samples"):
            bio.read_recording(p)

    @staticmethod
    def _rows(tmp_path):
        p = tmp_path / "rec.csv"
        bio.write_recording(p, random_recording())
        return p, p.read_text().splitlines(keepends=True)

    def test_rejects_a_timestamp_shifted_by_half_a_second(self, tmp_path):
        p, lines = self._rows(tmp_path)
        row = lines[201].split(",")
        row[0] = repr(float(row[0]) + 0.5)
        lines[201] = ",".join(row)
        p.write_text("".join(lines))
        with pytest.raises(ValueError, match=re.escape(f"{p}: time column does not increase")):
            bio.read_recording(p)

    def test_rejects_two_swapped_rows(self, tmp_path):
        p, lines = self._rows(tmp_path)
        lines[101], lines[102] = lines[102], lines[101]
        p.write_text("".join(lines))
        msg = f"{p}: time column does not increase at sample 101"
        with pytest.raises(ValueError, match=re.escape(msg)):
            bio.read_recording(p)

    def test_rejects_an_increasing_but_uneven_time_axis(self, tmp_path):
        p, lines = self._rows(tmp_path)
        row = lines[301].split(",")
        row[0] = repr(float(row[0]) + 0.004)
        lines[301] = ",".join(row)
        p.write_text("".join(lines))
        msg = f"{p}: time column is not a uniform grid at sample 300"
        with pytest.raises(ValueError, match=re.escape(msg)):
            bio.read_recording(p)

    def test_accepts_timestamps_rounded_to_microseconds(self, tmp_path):
        fs, n = 300.0, 900
        p = tmp_path / "rounded.csv"
        x = np.random.default_rng(1).standard_normal(n)
        rows = (f"{i / fs:.6f},{v!r}\n" for i, v in enumerate(x.tolist()))
        p.write_text("t,ch0\n" + "".join(rows))
        rec = bio.read_recording(p)
        assert rec.sample_rate_hz == pytest.approx(fs, rel=1e-6)
        np.testing.assert_array_equal(rec.channels[0], x)


def _edit_field(row: int, col: int, value):
    def edit(lines):
        fields = lines[row].rstrip("\n").split(",")
        fields[col] = value(fields[col])
        lines[row] = ",".join(fields) + "\n"

    return edit


def _swap_rows(lines):
    lines[101], lines[102] = lines[102], lines[101]


def _extra_field(lines, row=150):
    lines[row] = lines[row].rstrip("\n") + ",0.5\n"


def _missing_field(lines, row=150):
    lines[row] = lines[row].rstrip("\n").rsplit(",", 1)[0] + "\n"


def _two_samples_last_t_inf(lines):
    del lines[3:]
    _edit_field(2, 0, lambda _: "inf")(lines)


def _two_samples_span_overflows(lines):
    # both timestamps finite, but their difference is not
    del lines[3:]
    _edit_field(1, 0, lambda _: "-1e308")(lines)
    _edit_field(2, 0, lambda _: "1e308")(lines)


def _last_two_t_inf(lines):
    # the step between them is inf - inf
    for row in (499, 500):
        _edit_field(row, 0, lambda _: "inf")(lines)


def _missing_and_extra_field(lines):
    # the delimiter count balances, so only the short first row gives it away
    _missing_field(lines, 1)
    _extra_field(lines, 2)


# (id, edit of the lines of random_recording's CSV, message both readers
# give or None where the parser's own message differs between them)
MALFORMED = [
    ("foreign_header", _edit_field(0, 0, lambda _: "time"),
     "not a recording CSV (missing 't' column)"),
    ("non_channel_column", _edit_field(0, 2, lambda _: "volts"), "malformed recording header"),
    ("single_sample", lambda lines: lines.__delitem__(slice(2, None)), "need at least two samples"),
    ("header_only", lambda lines: lines.__delitem__(slice(1, None)), "need at least two samples"),
    ("header_and_blank_lines", lambda lines: lines.__setitem__(slice(1, None), ["\n", "\n"]),
     "need at least two samples"),
    ("shifted_timestamp", _edit_field(201, 0, lambda v: repr(float(v) + 0.5)),
     "time column does not increase at sample 201"),
    ("swapped_rows", _swap_rows, "time column does not increase at sample 101"),
    ("uneven_time_axis", _edit_field(301, 0, lambda v: repr(float(v) + 0.004)),
     "time column is not a uniform grid at sample 300"),
    ("extra_field", _extra_field, None),
    ("missing_field", _missing_field, None),
    ("missing_and_extra_field", _missing_and_extra_field, None),
    ("non_numeric_t", _edit_field(120, 0, lambda _: "1.19s"), None),
    ("nan_t", _edit_field(120, 0, lambda _: "nan"),
     "time column does not increase at sample 119"),
    ("inf_t_two_samples", _two_samples_last_t_inf,
     "time column spans inf s, no positive finite sample rate"),
    ("inf_t_last", _edit_field(500, 0, lambda _: "inf"),
     "time column spans inf s, no positive finite sample rate"),
    ("minus_inf_t_first", _edit_field(1, 0, lambda _: "-inf"),
     "time column spans inf s, no positive finite sample rate"),
    ("t_span_overflows", _two_samples_span_overflows,
     "time column spans inf s, no positive finite sample rate"),
    ("last_two_t_inf", _last_two_t_inf, "time column does not increase at sample 499"),
    ("gt_2", _edit_field(40, -1, lambda _: "2"), "gt is 2.0 at sample 39, not 0 or 1"),
    ("gt_half", _edit_field(41, -1, lambda _: "0.5"), "gt is 0.5 at sample 40, not 0 or 1"),
]


def _malformed(tmp_path, edit):
    p = tmp_path / "bad.csv"
    bio.write_recording(p, random_recording())
    lines = p.read_text().splitlines(keepends=True)
    edit(lines)
    p.write_text("".join(lines))
    return p


recordings = st.tuples(
    st.integers(1, 4),
    st.sampled_from([50.0, 100.0, 128.0, 250.0, 1000.0 / 3.0]),
    st.integers(2, 300),
    st.integers(0, 2**32 - 1),
    st.none() | st.sets(st.integers(0, 299)),
)


class TestGroundtruthReader:
    """read_groundtruth parses only `t` and `gt` but must agree with
    read_recording on every file, apart from channel values."""

    @settings(
        max_examples=100,
        deadline=None,
        derandomize=True,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(recordings)
    def test_agrees_with_read_recording(self, tmp_path, drawn):
        n_ch, fs, n, seed, marks = drawn
        rng = np.random.default_rng(seed)
        gt = None if marks is None else np.asarray(sorted(m for m in marks if m < n), dtype=int)
        rec = Recording(
            channels=[rng.standard_normal(n) * 10.0 ** rng.integers(-3, 4) for _ in range(n_ch)],
            sample_rate_hz=fs,
            gt_beat_times=gt,
        )
        p = tmp_path / "rec.csv"
        bio.write_recording(p, rec)
        full = bio.read_recording(p)
        got_fs, got_n, got_gt = bio.read_groundtruth(p)
        assert got_fs == full.sample_rate_hz
        assert got_n == full.n_samples == n
        if gt is None:
            assert got_gt is None and full.gt_beat_times is None
        else:
            assert got_gt.dtype == full.gt_beat_times.dtype
            np.testing.assert_array_equal(got_gt, full.gt_beat_times)
            np.testing.assert_array_equal(got_gt, gt)

    @pytest.mark.parametrize("read", [bio.read_recording, bio.read_groundtruth])
    @pytest.mark.parametrize("edit,msg", [m[1:] for m in MALFORMED], ids=[m[0] for m in MALFORMED])
    def test_both_readers_reject(self, tmp_path, read, edit, msg):
        p = _malformed(tmp_path, edit)
        with pytest.raises(ValueError, match=None if msg is None else re.escape(f"{p}: {msg}")):
            read(p)

    @pytest.mark.parametrize("edit,msg", [m[1:] for m in MALFORMED], ids=[m[0] for m in MALFORMED])
    def test_eval_exits_2(self, tmp_path, capsys, edit, msg):
        """The error line is all the user sees: no numpy warning before it."""
        p = _malformed(tmp_path, edit)
        hr = tmp_path / "est.hr.csv"
        hr.write_text("window_center_s,hr_bpm\n30.0,60.0\n")
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main(["eval", str(p), "--est-hr", str(hr), "--out", str(tmp_path / "r")])
        assert code == 2
        assert [str(w.message) for w in caught] == []
        err = capsys.readouterr().err
        reason = "" if msg is None else f"{p}: {msg}"
        assert err.startswith(f"error: cannot read recording {p}: {reason}")
        assert err.count("\n") == 1 and err.endswith("\n")

    def test_comments_are_skipped_alike(self, tmp_path):
        # np.loadtxt drops '#' comments, so the comma count must drop them too
        def edit(lines):
            lines.insert(1, "# a comment line, with, commas\n")
            lines[200] = lines[200].rstrip("\n") + "  # inline, with a comma\n"

        p = _malformed(tmp_path, edit)
        full = bio.read_recording(p)
        fs, n, gt = bio.read_groundtruth(p)
        assert (fs, n) == (full.sample_rate_hz, full.n_samples) == (100.0, 500)
        np.testing.assert_array_equal(gt, full.gt_beat_times)
        np.testing.assert_array_equal(gt, random_recording().gt_beat_times)

    def test_extra_field_after_a_comment_is_still_rejected(self, tmp_path):
        def edit(lines):
            lines.insert(1, "# a comment\n")
            _extra_field(lines, 300)

        p = _malformed(tmp_path, edit)
        for read in (bio.read_recording, bio.read_groundtruth):
            with pytest.raises(ValueError):
                read(p)

    def test_channel_values_are_not_parsed(self, tmp_path):
        p = _malformed(tmp_path, _edit_field(77, 2, lambda _: "nan"))
        with pytest.raises(ValueError, match="channel ch1 has non-finite samples"):
            bio.read_recording(p)
        fs, n, gt = bio.read_groundtruth(p)
        assert (fs, n) == (100.0, 500)
        np.testing.assert_array_equal(gt, random_recording().gt_beat_times)


class TestDictionaryRoundtrip:
    def test_values_and_order(self, tmp_path):
        rng = np.random.default_rng(1)
        D = Dictionary(rng.standard_normal((91, 3)), rng.standard_normal((91, 3)))
        p = tmp_path / "dict.csv"
        bio.write_dictionary(p, D)
        header = p.read_text().splitlines()[0]
        assert header == "kind," + ",".join(f"s{i}" for i in range(91))
        back = bio.read_dictionary(p)
        np.testing.assert_array_equal(back.target_atoms, D.target_atoms)
        np.testing.assert_array_equal(back.background_atoms, D.background_atoms)

    def test_rejects_malformed_header(self, tmp_path):
        p = tmp_path / "dict.csv"
        p.write_text("atomkind,s0,s1\ntarget,1.0,0.0\nbackground,0.0,1.0\n")
        with pytest.raises(ValueError, match="malformed dictionary header"):
            bio.read_dictionary(p)

    def test_rejects_width_mismatch(self, tmp_path):
        p = tmp_path / "dict.csv"
        p.write_text("kind,s0,s1\ntarget,1.0\nbackground,0.0,1.0\n")
        with pytest.raises(ValueError, match="width disagrees"):
            bio.read_dictionary(p)

    def test_rejects_unknown_kind(self, tmp_path):
        p = tmp_path / "dict.csv"
        p.write_text("kind,s0,s1\ntarget,1.0,0.0\nnoise,0.0,1.0\n")
        with pytest.raises(ValueError, match="unknown atom kind"):
            bio.read_dictionary(p)

    def test_rejects_non_numeric_value_and_names_its_line(self, tmp_path):
        p = tmp_path / "dict.csv"
        p.write_text("kind,s0,s1\ntarget,1.0,0.0\n\nbackground,x,1.0\n")
        message = f"{p}:4: could not convert string to float: 'x'"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            bio.read_dictionary(p)

    def test_rejects_missing_background(self, tmp_path):
        p = tmp_path / "dict.csv"
        p.write_text("kind,s0,s1\ntarget,1.0,0.0\n")
        with pytest.raises(ValueError, match="needs target and background"):
            bio.read_dictionary(p)


class TestCovarianceRoundtrip:
    def test_roundtrip(self, tmp_path):
        rng = np.random.default_rng(2)
        A = rng.standard_normal((6, 6))
        model = BackgroundModel(covariance=A @ A.T + 0.5 * np.eye(6), ridge=1e-3)
        p = tmp_path / "cov.csv"
        bio.write_covariance(p, model)
        back = bio.read_covariance(p)
        np.testing.assert_array_equal(back.covariance, model.covariance)
        assert back.ridge == model.ridge

    def test_rejects_ragged_row_and_names_its_line(self, tmp_path):
        p = tmp_path / "cov.csv"
        p.write_text("ridge=0.001\n1.0,0.0\n0.0\n")
        message = f"{p}:3: expected 2 values, got 1"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            bio.read_covariance(p)

    def test_rejects_missing_ridge_line(self, tmp_path):
        p = tmp_path / "cov.csv"
        p.write_text("1.0,0.0\n0.0,1.0\n")
        with pytest.raises(ValueError, match="malformed covariance"):
            bio.read_covariance(p)


class TestBeatsRoundtrip:
    def test_roundtrip(self, tmp_path):
        beats = [(150, 2.5), (255, 3.25), (360, 4.0)]
        p = tmp_path / "beats.csv"
        bio.write_beats(p, beats, fs=100.0)
        idx, times, conf = bio.read_beats(p)
        np.testing.assert_array_equal(idx, [150, 255, 360])
        np.testing.assert_array_equal(times, [1.5, 2.55, 3.6])
        np.testing.assert_array_equal(conf, [2.5, 3.25, 4.0])

    def test_empty_beats(self, tmp_path):
        p = tmp_path / "beats.csv"
        bio.write_beats(p, [], fs=100.0)
        idx, times, conf = bio.read_beats(p)
        assert idx.size == times.size == conf.size == 0

    def test_rejects_foreign_header(self, tmp_path):
        p = tmp_path / "beats.csv"
        p.write_text("index,time\n1,0.01\n")
        with pytest.raises(ValueError, match="malformed beats header"):
            bio.read_beats(p)

    @pytest.mark.parametrize(
        "rows, message",
        [("150,1.5,2.0\n100,1.0,2.0\n", "3: time 1.0 s does not follow 1.5 s"),
         ("150,1.5,2.0\n150,1.5,2.0\n", "3: time 1.5 s does not follow 1.5 s"),
         ("150,nan,2.0\n", "2: time nan s is not finite"),
         ("150,1.5,2.0\n\n160,inf,2.0\n", "4: time inf s is not finite"),
         ("150,1.5\n", "2: expected 3 values, got 2"),
         ("150,1.5,2.0,7\n", "2: expected 3 values, got 4"),
         ("x,1.5,2.0\n", "2: invalid literal for int()")],
        ids=["earlier", "repeated", "nan", "inf_after_blank", "short", "long", "not_a_number"],
    )
    def test_rejects_a_row_and_names_its_line(self, tmp_path, rows, message):
        p = tmp_path / "beats.csv"
        p.write_text("beat_index,beat_time_s,confidence_sum\n" + rows)
        with pytest.raises(ValueError, match=re.escape(f"{p}:{message}")):
            bio.read_beats(p)


class TestHrRoundtrip:
    def test_gaps_become_empty_fields_and_back(self, tmp_path):
        series = HrSeries(
            times=np.asarray([30.0, 45.0, 60.0]),
            bpm=np.asarray([61.5, np.nan, 59.75]),
        )
        p = tmp_path / "hr.csv"
        bio.write_hr(p, series)
        lines = p.read_text().splitlines()
        assert lines[2] == "45.0,"
        back = bio.read_hr(p)
        np.testing.assert_array_equal(back.times, series.times)
        np.testing.assert_array_equal(back.bpm, series.bpm)

    def test_rejects_foreign_header(self, tmp_path):
        p = tmp_path / "hr.csv"
        p.write_text("center,bpm\n30.0,60.0\n")
        with pytest.raises(ValueError, match="malformed HR header"):
            bio.read_hr(p)

    @pytest.mark.parametrize(
        "rows, message",
        [("30.0,60.0\n30.0,61.0\n", "3: time 30.0 s does not follow 30.0 s"),
         ("45.0,60.0\n30.0,61.0\n", "3: time 30.0 s does not follow 45.0 s"),
         ("nan,60.0\n", "2: time nan s is not finite"),
         ("30.0\n", "2: expected 2 values, got 1"),
         ("30.0,60.0\n45.0,inf\n", "3: HR inf bpm is not a finite number > 0"),
         ("30.0,-70\n", "2: HR -70.0 bpm is not a finite number > 0"),
         ("30.0,0\n", "2: HR 0.0 bpm is not a finite number > 0"),
         ("30.0,nan\n", "2: HR nan bpm is not a finite number > 0")],
        ids=["repeated", "earlier", "nan", "short", "hr_inf", "hr_negative", "hr_zero", "hr_nan_text"],
    )
    def test_rejects_a_row_and_names_its_line(self, tmp_path, rows, message):
        p = tmp_path / "hr.csv"
        p.write_text("window_center_s,hr_bpm\n" + rows)
        with pytest.raises(ValueError, match=re.escape(f"{p}:{message}")):
            bio.read_hr(p)


class TestKeyValue:
    def test_roundtrip_skips_comments_and_blanks(self, tmp_path):
        p = tmp_path / "conf"
        p.write_text("# a comment\n\nalpha = 1\nbeta=two words \n")
        kv = bio.read_keyvalue(p)
        assert kv == {"alpha": "1", "beta": "two words"}

    def test_rejects_line_without_equals(self, tmp_path):
        p = tmp_path / "conf"
        p.write_text("alpha=1\njust words\n")
        with pytest.raises(ValueError, match="expected key=value"):
            bio.read_keyvalue(p)

    def test_rejects_a_key_given_twice(self, tmp_path):
        p = tmp_path / "conf"
        p.write_text("threshold=1.2\n# again\n threshold = 9\n")
        with pytest.raises(ValueError, match=re.escape(f"{p}:3: key 'threshold' given twice")):
            bio.read_keyvalue(p)


class TestSynthSidecar:
    def test_template_roundtrip(self, tmp_path):
        res = generate(SynthConfig(duration_s=5.0, seed=4))
        p = tmp_path / "rec.sidecar"
        bio.write_synth_sidecar(p, res)
        tpl = bio.read_synth_sidecar_template(p)
        np.testing.assert_array_equal(tpl, res.template)
        kv = bio.read_keyvalue(p)
        assert kv["seed"] == "4"
        assert float(kv["noise_sd_effective"]) == res.noise_sd

    def test_rejects_sidecar_without_template(self, tmp_path):
        p = tmp_path / "rec.sidecar"
        p.write_text("seed=4\n")
        with pytest.raises(ValueError, match="no template entry"):
            bio.read_synth_sidecar_template(p)
