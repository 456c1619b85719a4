"""End-to-end command-line tests: synth -> train -> detect -> eval."""

import contextlib
import dataclasses
import io
import os
import resource
import shutil
import subprocess
import sys
import tempfile
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from baselines_reference import wppd_hr
from bcgbeat import cli, detector, kernels, metrics
from bcgbeat import io as bio
from bcgbeat.cli import main
from bcgbeat.detector import DEFAULT_DFT_BAND_HZ, confidence_series
from bcgbeat.dlfumi import FumiParams
from bcgbeat.metrics import HrSeries, greedy_match
from bcgbeat.signals import Preprocessing, Recording, candidate_peaks
from bcgbeat.synth import SynthConfig


class TestSynth:
    def test_writes_recording_and_sidecar(self, workdir):
        rec = bio.read_recording(workdir / "rec.csv")
        assert rec.sample_rate_hz == 100.0
        assert len(rec.channels) == 4
        assert rec.gt_beat_times.size > 80
        tpl = bio.read_keyvalue(workdir / "rec.sidecar")["template"].split(",")
        assert np.array(tpl, dtype=float).shape == (91,)

    def test_same_seed_byte_identical(self, workdir, tmp_path):
        cfg = workdir / "synth.conf"
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        for out in (a, b):
            assert (
                main(["synth", "--config", str(cfg), "--seed", "7", "--out", str(out)])
                == 0
            )
        assert a.read_bytes() == b.read_bytes()
        assert (tmp_path / "a.sidecar").read_bytes() == (
            tmp_path / "b.sidecar"
        ).read_bytes()
        assert a.read_bytes() == (workdir / "rec.csv").read_bytes()

    def test_missing_config_file(self, tmp_path):
        code = main(
            ["synth", "--config", str(tmp_path / "nope.conf"), "--out", str(tmp_path / "r.csv")]
        )
        assert code == 2

    def test_unknown_config_key(self, tmp_path):
        cfg = tmp_path / "synth.conf"
        cfg.write_text("duration_s=30\nturbo=yes\n")
        code = main(["synth", "--config", str(cfg), "--out", str(tmp_path / "r.csv")])
        assert code == 2

    def test_bad_config_value(self, tmp_path):
        cfg = tmp_path / "synth.conf"
        cfg.write_text("duration_s=-5\n")
        code = main(["synth", "--config", str(cfg), "--out", str(tmp_path / "r.csv")])
        assert code == 2

    @pytest.mark.parametrize(
        "setting, message",
        [
            ("snr_db=nan", "snr_db must be finite"),
            ("noise_sd=-1", "noise_sd must be finite and >= 0"),
            ("hrv_period_s=0", "hrv_period_s must be finite and > 0"),
            ("jitter_sd_samples=-1", "jitter_sd_samples must be finite and >= 0"),
            ("respiration_hz=-1", "respiration_hz must be finite and >= 0"),
            ("respiration_amp=inf", "respiration_amp must be finite"),
            ("artifact_amp=nan", "artifact_amp must be finite and >= 0"),
            ("template_carrier_hz=nan", "template_carrier_hz must be finite and >= 0"),
            ("template_width_s=0", "template_width_s must be finite and > 0"),
            ("duration_s=nan", "duration_s must be finite and > 0"),
            ("fs=inf", "fs must be finite and > 0"),
            ("hr_bpm=inf", "heart rate profile must stay positive and finite"),
            ("gains=1,nan,1,1", "gains must be finite and >= 0"),
            ("fs=0.01", "duration_s * fs must be >= 2"),
            ("fs=0.0666", "duration_s * fs must be >= 2"),
            ("hr_bpm=600\nfs=10", "(hr_bpm + |hrv_amp_bpm|) / 60 must be <= fs / 2"),
            ("hr_bpm=1e9", "(hr_bpm + |hrv_amp_bpm|) / 60 must be <= fs / 2"),
            ("hr_bpm=60\nhrv_amp_bpm=-1\nfs=2",
             "(hr_bpm + |hrv_amp_bpm|) / 60 must be <= fs / 2"),
            ("artifact_width_s=0.4,0.8,1.2",
             "artifact_width_s must be an increasing positive (low, high) pair"),
            ("artifact_width_s=0.4",
             "artifact_width_s must be an increasing positive (low, high) pair"),
            # an empty item of a tuple setting fails its parser
            ("delays=0,3,,6,9", "bad value for 'delays': invalid literal for int() with base 10: ''"),
            ("gains=1,,1,1,1", "bad value for 'gains': could not convert string to float: ''"),
            ("gains=1,1,1,1,", "bad value for 'gains': could not convert string to float: ''"),
            ("artifact_width_s= ,1.2",
             "bad value for 'artifact_width_s': could not convert string to float: ''"),
        ],
    )
    def test_setting_outside_its_domain_exits_2(self, tmp_path, capsys, setting, message):
        cfg = tmp_path / "synth.conf"
        # a config may set a key once, so only a case that leaves it unset gets duration_s=30
        short = "" if setting.startswith("duration_s=") else "duration_s=30\n"
        cfg.write_text(f"{short}{setting}\n")
        assert main(["synth", "--config", str(cfg), "--out", str(tmp_path / "r.csv")]) == 2
        if not message.startswith("bad value for "):
            message = "bad synthesis config: " + message
        assert capsys.readouterr().err == f"error: {message}\n"
        assert [p.name for p in tmp_path.iterdir()] == ["synth.conf"]

    def test_two_samples_and_a_beat_every_two_samples_are_accepted(self, tmp_path):
        """The boundary of both sample-rate conditions: duration_s * fs == 2
        and hr_bpm / 60 == fs / 2."""
        cfg = tmp_path / "synth.conf"
        cfg.write_text("duration_s=1\nfs=2\nhr_bpm=60\nhalf_len=1\n")
        assert main(["synth", "--config", str(cfg), "--out", str(tmp_path / "r.csv")]) == 0
        assert bio.read_recording(str(tmp_path / "r.csv")).n_samples == 2

    def test_config_reaches_every_synth_field(self, tmp_path):
        # each value written as the sidecar writes it back, none a default
        values = {
            "duration_s": "12.0",
            "fs": "50.0",
            "hr_bpm": "75.0",
            "hrv_amp_bpm": "3.0",
            "hrv_period_s": "20.0",
            "template_carrier_hz": "6.0",
            "template_width_s": "0.1",
            "half_len": "20",
            "gains": "0.5,0.4",
            "delays": "0,2",
            "jitter_sd_samples": "1.0",
            "respiration_amp": "0.1",
            "respiration_hz": "0.3",
            "noise_sd": "0.2",
            "snr_db": "5.0",
            "artifact_rate_per_min": "2.0",
            "artifact_amp": "3.0",
            "artifact_width_s": "0.3,0.9",
        }
        fields = {f.name: f.default for f in dataclasses.fields(SynthConfig)}
        assert set(values) == set(fields) - {"seed"}
        cfg = tmp_path / "synth.conf"
        cfg.write_text("".join(f"{k}={v}\n" for k, v in values.items()))
        assert main(["synth", "--config", str(cfg), "--out", str(tmp_path / "r.csv")]) == 0
        sidecar = bio.read_keyvalue(tmp_path / "r.sidecar")
        sidecar["noise_sd"] = sidecar.pop("noise_sd_effective")
        for key, value in values.items():
            assert sidecar[key] == value, key
            assert cli._CONFIG_PARSERS[key].parse(value) != fields[key], key


class TestTrain:
    def test_writes_dictionary_and_sidecars(self, workdir):
        D = bio.read_dictionary(workdir / "model.csv")
        assert D.d == 91
        assert D.n_target == 3
        assert D.n_background == 3
        model = bio.read_covariance(workdir / "model.cov.csv")
        assert model.covariance.shape == (91, 91)
        stored = bio.read_keyvalue(workdir / "model.params")
        assert {"threshold", "neighborhood", "min_votes", "refractory_s"} <= set(stored)
        assert (stored["fs"], stored["half_len"], stored["zscore"]) == ("100.0", "45", "False")

    def test_every_stored_key_is_a_setting(self):
        """Every Preprocessing field is a stored key, so a new field cannot
        miss the settings table (nor, by
        test_readme_settings_table_lists_every_key_once, README's)."""
        assert set(cli._STORED_KEYS) <= set(cli._CONFIG_PARSERS)

    def test_prints_objective_trace(self, workdir, tmp_path, capsys):
        out = tmp_path / "d.csv"
        assert (
            main(
                [
                    "train",
                    str(workdir / "rec.csv"),
                    "--max_em_iters",
                    "2",
                    "--out",
                    str(out),
                ]
            )
            == 0
        )
        lines = capsys.readouterr().out.splitlines()
        assert any(line.startswith("em_iter=1 objective=") for line in lines)

    def test_em_stop_record_goes_to_logging_not_the_terminal(self, workdir, tmp_path, capsys, caplog):
        argv = ["train", str(workdir / "rec.csv"), "--max_em_iters", "2", "--out", str(tmp_path / "d.csv")]
        capsys.readouterr()
        with caplog.at_level("INFO", logger="bcgbeat.dlfumi"):
            assert main(argv) == 0
        in_process_out = capsys.readouterr().out
        (record,) = [r for r in caplog.records if r.name == "bcgbeat.dlfumi"]
        assert "stop_reason=max_iter n_iterations=2" in record.getMessage()
        # a fresh interpreter with no handler set up: an INFO record is not
        # printed, so stdout and stderr are what they were without it
        src = Path(__file__).resolve().parent.parent / "src"
        proc = subprocess.run(
            [sys.executable, "-m", "bcgbeat.cli", *argv],
            env=dict(os.environ, PYTHONPATH=str(src)),
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert proc.stdout == in_process_out
        assert proc.stderr == ""

    def test_batch_mode_pools_recordings(self, workdir, tmp_path):
        cfg = tmp_path / "synth.conf"
        cfg.write_text("duration_s=90\nhr_bpm=72\nsnr_db=10\n")
        rec2 = tmp_path / "rec2.csv"
        assert main(["synth", "--config", str(cfg), "--seed", "8", "--out", str(rec2)]) == 0
        out = tmp_path / "pooled.csv"
        code = main(
            [
                "train",
                str(workdir / "rec.csv"),
                str(rec2),
                "--mode",
                "batch",
                "--max_em_iters",
                "10",
                "--out",
                str(out),
            ]
        )
        assert code == 0
        D = bio.read_dictionary(out)
        assert D.n_target == 9
        assert D.n_background == 9

    def test_flat_channel_is_reported_once(self, workdir, tmp_path, caplog):
        # train filters each recording once, for its bags and its voting grid
        rec = bio.read_recording(workdir / "rec.csv")
        rec.channels[2] = np.full(rec.n_samples, 0.25)
        flat = tmp_path / "flat.csv"
        bio.write_recording(flat, rec)
        argv = ["train", str(flat), "--max_em_iters", "2", "--out", str(tmp_path / "d.csv")]
        with caplog.at_level("WARNING", logger="bcgbeat.signals"):
            assert main(argv) == 0
        flat_warnings = [r.getMessage() for r in caplog.records if "is flat" in r.getMessage()]
        assert len(flat_warnings) == 1 and flat_warnings[0].startswith("ch2 is flat")

    @pytest.mark.parametrize("config", ["", "zscore=true\n"], ids=["raw", "zscore"])
    def test_voting_grid_scores_what_detect_codes(self, workdir, tmp_path, monkeypatch, config):
        """Each series the voting-parameter grid receives is, bit for bit,
        the one confidence_series gives under the model train wrote."""
        synth_cfg = tmp_path / "synth.conf"
        synth_cfg.write_text("duration_s=60\nhr_bpm=80\nsnr_db=10\n")
        recs = [workdir / "rec.csv", tmp_path / "rec2.csv"]
        assert main(["synth", "--config", str(synth_cfg), "--seed", "8", "--out", str(recs[1])]) == 0
        graded = []
        real = detector.learn_detection_params_pooled

        def spy(series_list, *args, **kwargs):
            graded.extend(series_list)
            return real(series_list, *args, **kwargs)

        monkeypatch.setattr(detector, "learn_detection_params_pooled", spy)
        cfg = tmp_path / "run.conf"
        cfg.write_text(config)
        out = tmp_path / "m.csv"
        argv = ["train", *map(str, recs), "--max_em_iters", "2", "--config", str(cfg),
                "--out", str(out)]
        assert main(argv) == 0
        stored = cli._read_params(str(tmp_path / "m.params"))
        pre = Preprocessing(**{k: stored[k] for k in cli._PREPROCESS_KEYS})
        assert pre.zscore == bool(config)
        D, model = bio.read_dictionary(out), bio.read_covariance(tmp_path / "m.cov.csv")
        for path, got in zip(recs, graded, strict=True):
            rec = bio.read_recording(path)
            want = confidence_series(rec, D, model, stored["lambda"], stored["code_iters"], pre,
                                     candidate_peaks(rec, pre))
            assert (got.fs, got.n_samples) == (want.fs, want.n_samples)
            for g, w in zip(got.peak_indices, want.peak_indices, strict=True):
                np.testing.assert_array_equal(g, w, strict=True)
            for g, w in zip(got.confidences, want.confidences, strict=True):
                np.testing.assert_array_equal(g, w, strict=True)

    def test_holds_no_second_copy_of_its_windows(self, workdir, tmp_path):
        """train's traced peak is 2.1x the training windows' bytes here:
        each window is cut once into the learner's positive or negative
        block, which the covariance then reads in place.  Bags of window
        rows beside fit's own column copies took 3.6x."""
        rec = bio.read_recording(workdir / "rec.csv")
        width = 2 * Preprocessing().half_len + 1
        window_bytes = sum(8 * width * p.size for _, _, p in candidate_peaks(rec))
        del rec
        argv = ["train", str(workdir / "rec.csv"), "--max_em_iters", "2",
                "--out", str(tmp_path / "m.csv")]
        tracemalloc.start()
        try:
            assert main(argv) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2.5 * window_bytes

    def test_mixed_sample_rates_exit_2_before_preprocessing(self, workdir, tmp_path, capsys, monkeypatch):
        rec = bio.read_recording(workdir / "rec.csv")
        fast = tmp_path / "fast.csv"
        bio.write_recording(
            fast, Recording(rec.channels, sample_rate_hz=250.0, gt_beat_times=rec.gt_beat_times)
        )

        def never(*args, **kwargs):
            raise AssertionError("preprocessed a recording of mixed rate")

        monkeypatch.setattr(detector, "candidate_peaks", never)
        argv = ["train", str(workdir / "rec.csv"), str(fast), "--mode", "batch",
                "--out", str(tmp_path / "d.csv")]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "250 Hz" in err and "100 Hz" in err
        assert not (tmp_path / "d.csv").exists()

    def test_recording_without_groundtruth_exits_3(self, tmp_path):
        rng = np.random.default_rng(0)
        rec = Recording(channels=[rng.standard_normal(9000)], sample_rate_hz=100.0)
        p = tmp_path / "nogt.csv"
        bio.write_recording(p, rec)
        assert main(["train", str(p), "--out", str(tmp_path / "d.csv")]) == 3

    def test_truncated_recording_exits_2(self, tmp_path):
        p = tmp_path / "trunc.csv"
        p.write_text("t,ch0,gt\n0.0,1.0,0\n")
        assert main(["train", str(p), "--out", str(tmp_path / "d.csv")]) == 2

    def test_fewer_windows_than_atoms_exits_2(self, tmp_path, capsys):
        """1.5 s at 70 bpm cuts 5 negative windows: too few for batch mode's
        9 background atoms, and no atom is filled with noise instead."""
        cfg = tmp_path / "synth.conf"
        cfg.write_text("duration_s=1.5\nhr_bpm=70\n")
        rec = tmp_path / "rec.csv"
        assert main(["synth", "--config", str(cfg), "--seed", "1", "--out", str(rec)]) == 0
        capsys.readouterr()
        out = tmp_path / "model.csv"
        assert main(["train", str(rec), "--mode", "batch", "--out", str(out)]) == 2
        assert capsys.readouterr() == (
            "", "error: training failed: cannot model background: 5 negative windows for 9 atoms\n"
        )
        assert sorted(p.name for p in tmp_path.iterdir()) == ["rec.csv", "rec.sidecar", "synth.conf"]


class TestDetect:
    def test_outputs_parse_and_track_heart_rate(self, workdir):
        idx, times, conf = bio.read_beats(str(workdir / "det") + ".beats.csv")
        assert idx.size > 80
        np.testing.assert_allclose(times, idx / 100.0)
        assert np.all(conf > 0)
        hr = bio.read_hr(str(workdir / "det") + ".hr.csv")
        est = hr.bpm[~np.isnan(hr.bpm)]
        assert est.size > 0
        assert np.all(np.abs(est - 66.0) <= 2.0)

    def test_dft_mode(self, workdir, tmp_path):
        out = tmp_path / "dft"
        code = main(
            [
                "detect",
                str(workdir / "rec.csv"),
                "--dict",
                str(workdir / "model.csv"),
                "--dft",
                "--out",
                str(out),
            ]
        )
        assert code == 0
        hr = bio.read_hr(str(out) + ".hr.csv")
        est = hr.bpm[~np.isnan(hr.bpm)]
        assert est.size > 0
        assert np.all(np.abs(est - 66.0) <= 2.0)

    def test_dimension_mismatch_exits_4(self, workdir, tmp_path):
        dict_path = _edited_model(workdir, tmp_path, "half_len=45", "half_len=30")
        assert main(_detect_argv(workdir, tmp_path / "d", dict_path)) == 4

    def test_instance_dimension_is_checked_before_any_candidate(self, workdir, tmp_path, capsys):
        """No candidate's 10,001-sample window fits the 90-s recording, so
        the dimension check must not wait for one."""
        dict_path = _edited_model(workdir, tmp_path, "half_len=45", "half_len=5000")
        assert main(_detect_argv(workdir, tmp_path / "d", dict_path)) == 4
        assert "error: instance dimension does not match dictionary; the model does not fit" in (
            capsys.readouterr().err
        )
        assert [p.name for p in tmp_path.iterdir()] == ["model"]

    def test_codes_worse_than_their_warm_start_exit_4(self, workdir, tmp_path, capsys, monkeypatch):
        real = kernels.ista_negative
        D = bio.read_dictionary(workdir / "model.csv")

        def worse(gram, *args, **kwargs):
            # only the full-dictionary coding, not its background warm start
            A = real(gram, *args, **kwargs)
            return A + 1.0 if gram.shape[0] == D.n_target + D.n_background else A

        monkeypatch.setattr(kernels, "ista_negative", worse)
        argv = ["detect", str(workdir / "rec.csv"), "--dict", str(workdir / "model.csv"),
                "--out", str(tmp_path / "d")]
        assert main(argv) == 4
        assert "error: full-dictionary coding worsened its warm start" in capsys.readouterr().err
        assert not (tmp_path / "d.beats.csv").exists()

    def test_non_finite_sample_exits_2(self, workdir, tmp_path, capsys):
        lines = (workdir / "rec.csv").read_text().splitlines(keepends=True)
        row = lines[500].split(",")
        row[2] = "nan"
        lines[500] = ",".join(row)
        bad = tmp_path / "nan.csv"
        bad.write_text("".join(lines))
        code = main(
            ["detect", str(bad), "--dict", str(workdir / "model.csv"), "--out", str(tmp_path / "d")]
        )
        assert code == 2
        assert "channel ch1 has non-finite samples" in capsys.readouterr().err
        assert not (tmp_path / "d.hr.csv").exists()

    def test_recording_without_rows_exits_2_with_one_line(self, workdir, tmp_path, capsys):
        p = tmp_path / "empty.csv"
        p.write_text("t,ch0,ch1,gt\n\n")
        code = main(["detect", str(p), "--dict", str(workdir / "model.csv"), "--out", str(tmp_path / "d")])
        assert code == 2
        assert capsys.readouterr().err == f"error: cannot read recording {p}: {p}: need at least two samples\n"

    def test_flat_channel_is_reported_on_stderr(self, workdir, tmp_path, capsys):
        rec = bio.read_recording(workdir / "rec.csv")
        rec.channels[2] = np.full(rec.n_samples, 0.25)
        flat = tmp_path / "flat.csv"
        bio.write_recording(flat, rec)
        argv = ["detect", str(flat), "--dict", str(workdir / "model.csv"), "--out", str(tmp_path / "d")]
        capsys.readouterr()
        assert main(argv) == 0
        in_process_out = capsys.readouterr().out
        # a fresh interpreter, so the warning reaches stderr through logging
        # with no handler set up by the test runner
        src = Path(__file__).resolve().parent.parent / "src"
        proc = subprocess.run(
            [sys.executable, "-m", "bcgbeat.cli", *argv],
            env=dict(os.environ, PYTHONPATH=str(src)),
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert "ch2 is flat" in proc.stderr
        assert proc.stdout == in_process_out
        assert "is flat" not in proc.stdout
        beat_indices, _, _ = bio.read_beats(tmp_path / "d.beats.csv")
        assert len(beat_indices) > 80

    @pytest.mark.parametrize("dead, warned", [((2,), False), ((1, 2, 3), True)],
                             ids=["one_dead", "three_dead"])
    def test_too_few_live_channels_for_min_votes_are_reported(
        self, workdir, tmp_path, capsys, caplog, dead, warned
    ):
        """Three flat channels of four leave min_votes=2 out of reach: the
        run still exits 0 with 0 beats, and one warning says why."""
        rec = bio.read_recording(workdir / "rec.csv")
        for ch in dead:
            rec.channels[ch] = np.full(rec.n_samples, 0.25)
        flat = tmp_path / "flat.csv"
        bio.write_recording(flat, rec)
        out = tmp_path / "d"
        argv = ["detect", str(flat), "--dict", str(workdir / "model.csv"), "--out", str(out)]
        capsys.readouterr()
        with caplog.at_level("WARNING", logger="bcgbeat.detector"):
            assert main(argv) == 0
        stdout = capsys.readouterr().out
        messages = [r.getMessage() for r in caplog.records if r.name == "bcgbeat.detector"]
        n_beats = bio.read_beats(str(out) + ".beats.csv")[0].size
        if warned:
            assert messages == ["only 1 of 4 channels have candidate peaks, fewer than "
                                "min_votes=2: no beat can be voted"]
            assert n_beats == 0
        else:
            assert messages == [] and n_beats > 80
        assert stdout.startswith(f"wrote {out}.beats.csv ({n_beats} beats) and ")

    @pytest.mark.parametrize("command", ["train", "detect"])
    def test_a_z_scored_window_that_overflows_exits_2(self, command, workdir, tmp_path, capsys):
        rec = bio.read_recording(workdir / "rec.csv")
        huge = tmp_path / "huge.csv"
        bio.write_recording(huge, dataclasses.replace(rec, channels=[1e160 * c for c in rec.channels]))
        cfg = tmp_path / "run.conf"
        cfg.write_text("zscore=true\n")
        if command == "train":
            argv = ["train", str(huge), "--config", str(cfg), "--out", str(tmp_path / "m.csv")]
        else:
            model = _edited_model(workdir, tmp_path, "zscore=False", "zscore=True")
            argv = ["detect", str(huge), "--dict", str(model), "--out", str(tmp_path / "d")]
        capsys.readouterr()
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert "is too large to z-score: its mean or sd overflows" in err
        assert not list(tmp_path.glob("m.*")) + list(tmp_path.glob("d.*"))

    def test_model_reproduces_its_preprocessing_without_the_config(self, workdir, tmp_path):
        """train stores the preprocessing it cut its windows with in .params,
        so a zscore=true model detects the same beats with or without the
        training config."""
        cfg = tmp_path / "run.conf"
        cfg.write_text("zscore=true\n")
        model = tmp_path / "model.csv"
        argv = ["train", str(workdir / "rec.csv"), "--config", str(cfg), "--out", str(model)]
        assert main(argv) == 0
        outputs = []
        for name, flags in (("with", ["--config", str(cfg)]), ("without", [])):
            out = tmp_path / name
            assert main(_detect_argv(workdir, out, model) + flags) == 0
            outputs.append([Path(str(out) + tail).read_bytes() for tail in (".beats.csv", ".hr.csv")])
        assert outputs[0] == outputs[1]
        assert bio.read_beats(tmp_path / "without.beats.csv")[0].size > 80

    @pytest.mark.parametrize("config", ["", "fs=50\n"], ids=["no_config", "config_fs"])
    def test_recording_at_another_sample_rate_exits_4(self, workdir, tmp_path, capsys, config):
        """A 100-Hz model on a 50-Hz recording: the check is against the rate
        stored in .params, never one a --config gives."""
        rec = bio.read_recording(workdir / "rec.csv")
        slow = tmp_path / "slow.csv"
        bio.write_recording(slow, Recording(rec.channels, sample_rate_hz=50.0))
        cfg = tmp_path / "run.conf"
        cfg.write_text(config)
        argv = ["detect", str(slow), "--dict", str(workdir / "model.csv"), "--config", str(cfg),
                "--out", str(tmp_path / "d")]
        assert main(argv) == 4
        assert capsys.readouterr().err == (
            "error: the model was trained at 100 Hz, the recording is sampled at 50 Hz; "
            f"the model does not fit {slow}\n"
        )
        assert sorted(p.name for p in tmp_path.iterdir()) == ["run.conf", "slow.csv"]

    @pytest.mark.parametrize("probe", ["shifted", "swapped"])
    def test_non_uniform_time_axis_exits_2(self, workdir, tmp_path, capsys, probe):
        lines = (workdir / "rec.csv").read_text().splitlines(keepends=True)
        if probe == "shifted":
            row = lines[500].split(",")
            row[0] = repr(float(row[0]) + 0.5)
            lines[500] = ",".join(row)
        else:
            lines[500], lines[501] = lines[501], lines[500]
        bad = tmp_path / f"{probe}.csv"
        bad.write_text("".join(lines))
        code = main(
            ["detect", str(bad), "--dict", str(workdir / "model.csv"), "--out", str(tmp_path / "d")]
        )
        assert code == 2
        assert f"{bad}: time column does not increase" in capsys.readouterr().err
        assert not (tmp_path / "d.hr.csv").exists()

    @pytest.mark.parametrize("seconds", [2, 30])
    def test_recording_shorter_than_one_hr_window_exits_5(
        self, workdir, tmp_path, capsys, seconds
    ):
        lines = (workdir / "rec.csv").read_text().splitlines(keepends=True)
        short = tmp_path / "short.csv"
        short.write_text("".join(lines[: 1 + seconds * 100]))
        code = main(
            ["detect", str(short), "--dict", str(workdir / "model.csv"), "--out", str(tmp_path / "d")]
        )
        assert code == 5
        assert "shorter than one 60-s HR window" in capsys.readouterr().err
        assert not (tmp_path / "d.hr.csv").exists()

    def test_configured_window_decides_what_is_too_short(self, workdir, tmp_path):
        lines = (workdir / "rec.csv").read_text().splitlines(keepends=True)
        short = tmp_path / "short.csv"
        short.write_text("".join(lines[:3001]))
        cfg = tmp_path / "w.conf"
        cfg.write_text("window_s=20\nstep_s=5\n")
        out = tmp_path / "d"
        code = main(
            ["detect", str(short), "--dict", str(workdir / "model.csv"), "--config", str(cfg),
             "--out", str(out)]
        )
        assert code == 0
        assert bio.read_hr(str(out) + ".hr.csv").n_windows > 0

    def test_params_missing_a_field_exits_2(self, workdir, tmp_path, capsys):
        dict_path = _copied_model(workdir, tmp_path)
        params = dict_path.with_suffix(".params")
        params.write_text(params.read_text().replace("min_votes=2\n", ""))
        assert main(_detect_argv(workdir, tmp_path / "d", dict_path)) == 2
        err = capsys.readouterr().err
        assert "malformed detection params" in err and "min_votes" in err

    @pytest.mark.parametrize(
        "damage, message",
        [
            (lambda p: p.unlink(), "cannot read params"),
            (lambda p: (p.unlink(), p.mkdir()), "cannot read params"),
            (lambda p: p.write_text(""), "malformed detection params"),
            (lambda p: p.write_text(_without(p.read_text(), "lam=")), "'lam'"),
            (lambda p: p.write_text(_without(p.read_text(), "code_iters=")), "'code_iters'"),
            (lambda p: p.write_text(_without(p.read_text(), "fs=")), "'fs'"),
            (lambda p: p.write_text(_without(p.read_text(), "zscore=")), "'zscore'"),
            (lambda p: p.write_text(p.read_text() + "foo=1\n"),
             "model.params: unknown key 'foo'"),
        ],
        ids=["missing", "directory", "empty", "no_lambda", "no_code_iters", "no_fs", "no_zscore",
             "unknown_key"],
    )
    def test_params_missing_or_incomplete_exits_2(self, workdir, tmp_path, capsys, damage, message):
        """detect codes with exactly the model train wrote: no .params, one
        without lam, code_iters, the sample rate or a preprocessing setting,
        or one with a key train does not write, is no model."""
        dict_path = _copied_model(workdir, tmp_path)
        damage(dict_path.with_suffix(".params"))
        assert main(_detect_argv(workdir, tmp_path / "d", dict_path)) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err
        assert [p.name for p in tmp_path.iterdir()] == ["model"]

    @pytest.mark.parametrize(
        "name, row, col, value, message",
        [
            ("model.cov.csv", 2, 0, "nan", "covariance must be finite and symmetric"),
            ("model.cov.csv", 1, 1, "nan", "covariance must be finite and symmetric"),
            ("model.cov.csv", 1, 1, "0.5", "covariance must be finite and symmetric"),
            ("model.cov.csv", 1, 0, "inf", "covariance must be finite and symmetric"),
            ("model.cov.csv", 0, 0, "ridge=nan", "ridge must be finite and >= 0"),
            ("model.cov.csv", 0, 0, "ridge=-1.0", "ridge must be finite and >= 0"),
            ("model.csv", 1, 1, "nan", "atoms must be finite"),
            ("model.csv", 2, 5, "-inf", "atoms must be finite"),
        ],
        ids=["lower_nan", "upper_nan", "upper_changed", "diagonal_inf", "ridge_nan",
             "ridge_negative", "atom_nan", "atom_inf"],
    )
    def test_corrupt_model_file_exits_2(
        self, workdir, tmp_path, capsys, name, row, col, value, message
    ):
        """Cholesky reads only the covariance's lower triangle and lets NaN
        through, so the readers reject a damaged model file."""
        dict_path = _copied_model(workdir, tmp_path)
        path = dict_path.parent / name
        lines = path.read_text().splitlines()
        cells = lines[row].split(",")
        cells[col] = value
        lines[row] = ",".join(cells)
        path.write_text("\n".join(lines) + "\n")
        assert main(_detect_argv(workdir, tmp_path / "d", dict_path)) == 2
        # the dictionary reader names the line of the atom it rejects
        what = "dictionary:" if name == "model.csv" else f"covariance {path}:"
        where = f"{path}:{row + 1}" if name == "model.csv" else path
        assert capsys.readouterr().err == f"error: cannot read {what} {where}: {message}\n"
        assert [p.name for p in tmp_path.iterdir()] == ["model"]

    @pytest.mark.parametrize(
        "name, damage, message",
        [
            ("model.params", "fs=nan", "malformed detection params {path}: fs=nan"),
            ("model.params", "fs=inf", "malformed detection params {path}: fs=inf"),
            ("model.params", "fs=0", "malformed detection params {path}: fs=0.0"),
            ("model.params", "fs=-100", "malformed detection params {path}: fs=-100.0"),
            ("model.cov.csv", "ridge=0.0\n1.0\n",
             "bad model {dict}: the covariance is 1x1 but the atoms have 91 samples"),
        ],
        ids=["fs_nan", "fs_inf", "fs_zero", "fs_negative", "covariance_1x1"],
    )
    def test_model_files_that_do_not_hold_together_exit_2(
        self, workdir, tmp_path, capsys, no_coding, name, damage, message
    ):
        """A fault in the model's own files is no mismatch with the
        recording (exit 4): detect rejects it while it reads the model,
        before anything is coded."""
        dict_path = _copied_model(workdir, tmp_path)
        path = dict_path.parent / name
        if name == "model.params":
            path.write_text(path.read_text().replace("fs=100.0", damage))
        else:
            path.write_text(damage)
        assert main(_detect_argv(workdir, tmp_path / "d", dict_path)) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: " + message.format(path=path, dict=dict_path))
        if name == "model.params":
            assert err.endswith(" must be positive and finite\n")
        assert [p.name for p in tmp_path.iterdir()] == ["model"]

    def test_missing_dictionary_exits_2(self, workdir, tmp_path):
        code = main(
            [
                "detect",
                str(workdir / "rec.csv"),
                "--dict",
                str(tmp_path / "nope.csv"),
                "--out",
                str(tmp_path / "d"),
            ]
        )
        assert code == 2


def _swap_rows_5_and_6(lines):
    lines[5], lines[6] = lines[6], lines[5]


def _nan_time_in_row_4(lines):
    idx, _, conf = lines[4].split(",")
    lines[4] = f"{idx},nan,{conf}"


def _drop_last_field_of_row_4(lines):
    lines[4] = lines[4].rsplit(",", 1)[0] + "\n"


def _repeat_first_window(lines):
    lines.insert(2, lines[1])


def _hr_of_row_2(text):
    def edit(lines):
        lines[2] = lines[2].split(",")[0] + f",{text}\n"
    return edit


# (id, estimate file kind, edit of its lines, the line and message its
# reader gives).  Line 1 is the header, so row k of `lines` is line k + 1.
UNREADABLE_ESTIMATES = [
    ("beats_out_of_order", "beats", _swap_rows_5_and_6, "7: time "),
    ("beat_time_nan", "beats", _nan_time_in_row_4, "5: time nan s is not finite"),
    ("short_beats_row", "beats", _drop_last_field_of_row_4, "5: expected 3 values, got 2"),
    ("hr_window_repeated", "hr", _repeat_first_window, "3: time 30.0 s does not follow 30.0 s"),
    ("hr_inf", "hr", _hr_of_row_2("inf"), "3: HR inf bpm is not a finite number > 0"),
    ("hr_negative", "hr", _hr_of_row_2("-70"), "3: HR -70.0 bpm is not a finite number > 0"),
    ("hr_nan_text", "hr", _hr_of_row_2("nan"), "3: HR nan bpm is not a finite number > 0"),
]


@pytest.fixture(scope="module")
def det30(workdir):
    """The workdir recording's estimate on a 30-s HR window grid, and the
    config that made it."""
    cfg = workdir / "w30.conf"
    cfg.write_text("window_s=30\n")
    out = workdir / "det30"
    argv = ["detect", str(workdir / "rec.csv"), "--dict", str(workdir / "model.csv")]
    assert main([*argv, "--config", str(cfg), "--out", str(out)]) == 0
    return Path(str(out) + ".hr.csv"), cfg


class TestEval:
    def test_report_contents(self, workdir):
        report = bio.read_keyvalue(workdir / "report")
        assert float(report["mae_bpm"]) <= 2.0
        assert "pearson_r" in report
        assert float(report["bbi_relative_error_pct"]) <= 5.0
        assert "bland_altman_bias_bpm" in report
        assert "bland_altman_sd_bpm" in report
        assert int(report["n_windows_compared"]) > 0

    def test_report_scores_beats_after_one_matching(self, workdir, tmp_path, monkeypatch):
        calls = []
        monkeypatch.setattr(metrics, "greedy_match", lambda *a: calls.append(a) or greedy_match(*a))
        argv = ["eval", str(workdir / "rec.csv"), "--est-hr", str(workdir / "det") + ".hr.csv",
                "--est-beats", str(workdir / "det") + ".beats.csv", "--out", str(tmp_path / "r")]
        assert main(argv) == 0
        assert len(calls) == 1
        assert (tmp_path / "r").read_bytes() == (workdir / "report").read_bytes()
        report = bio.read_keyvalue(workdir / "report")
        assert 0.0 < float(report["beat_f1"]) <= 1.0
        assert int(report["n_beats_matched"]) <= min(int(report["n_beats_est"]),
                                                     int(report["n_beats_gt"]))

    def test_windows_csv(self, workdir):
        lines = (workdir / "report.windows.csv").read_text().splitlines()
        assert lines[0] == "window_center_s,est_bpm,gt_bpm,abs_err_bpm"
        assert len(lines) == int(bio.read_keyvalue(workdir / "report")["n_windows_compared"]) + 1

    def test_baseline_comparison_adds_paired_t(self, workdir, tmp_path):
        rec = bio.read_recording(workdir / "rec.csv")
        base = wppd_hr(rec.channels[0], rec.sample_rate_hz)
        base_path = tmp_path / "base.hr.csv"
        bio.write_hr(base_path, base)
        out = tmp_path / "report2"
        code = main(
            [
                "eval",
                str(workdir / "rec.csv"),
                "--est-hr",
                str(workdir / "det") + ".hr.csv",
                "--baseline-hr",
                str(base_path),
                "--out",
                str(out),
            ]
        )
        assert code == 0
        report = bio.read_keyvalue(out)
        assert "paired_t_stat" in report
        assert int(report["paired_t_df"]) >= 1

    def test_a_huge_finite_hr_value_is_scored(self, workdir, tmp_path, capsys):
        """An HR value of 1e308 is finite, so eval scores it: as an estimate
        in r, as a baseline in the paired t, without overflow."""
        est = str(workdir / "det") + ".hr.csv"
        hr = bio.read_hr(est)
        hr.bpm[np.flatnonzero(np.isfinite(hr.bpm))[0]] = 1e308
        huge = tmp_path / "huge.hr.csv"
        bio.write_hr(huge, hr)
        eval_argv = ["eval", str(workdir / "rec.csv"), "--out", str(tmp_path / "r")]

        assert main(eval_argv + ["--est-hr", str(huge)]) == 0
        _, est_bpm, gt_bpm, _ = np.loadtxt(tmp_path / "r.windows.csv", delimiter=",", skiprows=1).T
        r = float(bio.read_keyvalue(tmp_path / "r")["pearson_r"])
        assert abs(r - np.corrcoef(np.ldexp(est_bpm, -1000), gt_bpm)[0, 1]) <= 1e-12

        assert main(eval_argv + ["--est-hr", est, "--baseline-hr", str(huge)]) == 0
        # one difference near -1e308 among n: mean -1e308 / n, sd 1e308 / sqrt(n)
        assert abs(float(bio.read_keyvalue(tmp_path / "r")["paired_t_stat"]) + 1.0) <= 1e-12
        assert capsys.readouterr().err == ""

    def test_groundtruth_missing_exits_3(self, workdir, tmp_path):
        rng = np.random.default_rng(0)
        rec = Recording(channels=[rng.standard_normal(9000)], sample_rate_hz=100.0)
        p = tmp_path / "nogt.csv"
        bio.write_recording(p, rec)
        code = main(
            [
                "eval",
                str(p),
                "--est-hr",
                str(workdir / "det") + ".hr.csv",
                "--out",
                str(tmp_path / "r"),
            ]
        )
        assert code == 3

    def test_groundtruth_other_than_0_or_1_exits_2(self, workdir, tmp_path, capsys):
        lines = (workdir / "rec.csv").read_text().splitlines(keepends=True)
        lines[500] = lines[500].rstrip("\n").rsplit(",", 1)[0] + ",2\n"
        bad = tmp_path / "gt2.csv"
        bad.write_text("".join(lines))
        code = main(
            ["eval", str(bad), "--est-hr", str(workdir / "det") + ".hr.csv",
             "--out", str(tmp_path / "r")]
        )
        assert code == 2
        assert f"{bad}: gt is 2.0 at sample 499, not 0 or 1" in capsys.readouterr().err
        assert not (tmp_path / "r").exists()

    def test_recording_shorter_than_one_hr_window_exits_5(self, workdir, tmp_path, capsys):
        lines = (workdir / "rec.csv").read_text().splitlines(keepends=True)
        short = tmp_path / "short.csv"
        short.write_text("".join(lines[: 1 + 30 * 100]))
        code = main(
            ["eval", str(short), "--est-hr", str(workdir / "det") + ".hr.csv",
             "--out", str(tmp_path / "r")]
        )
        assert code == 5
        err = capsys.readouterr().err
        assert f"{short} lasts 30 s, shorter than one 60-s HR window" in err
        assert not (tmp_path / "r").exists()

    def test_short_recording_without_groundtruth_exits_3(self, workdir, tmp_path, capsys):
        # the missing groundtruth is reported before the short duration
        rng = np.random.default_rng(0)
        rec = Recording(channels=[rng.standard_normal(3000)], sample_rate_hz=100.0)
        p = tmp_path / "short_nogt.csv"
        bio.write_recording(p, rec)
        code = main(
            ["eval", str(p), "--est-hr", str(workdir / "det") + ".hr.csv",
             "--out", str(tmp_path / "r")]
        )
        assert code == 3
        assert f"{p} has no groundtruth beats" in capsys.readouterr().err

    def test_all_gap_estimate_exits_5(self, workdir, tmp_path):
        gt_hr = bio.read_hr(str(workdir / "det") + ".hr.csv")
        empty = HrSeries(times=gt_hr.times, bpm=np.full(gt_hr.times.size, np.nan))
        p = tmp_path / "empty.hr.csv"
        bio.write_hr(p, empty)
        code = main(
            [
                "eval",
                str(workdir / "rec.csv"),
                "--est-hr",
                str(p),
                "--out",
                str(tmp_path / "r"),
            ]
        )
        assert code == 5

    def test_beats_without_a_consecutive_match_exit_5(self, workdir, tmp_path, capsys):
        beats = tmp_path / "none.beats.csv"
        bio.write_beats(beats, [], 100.0)
        out = tmp_path / "r"
        code = main(["eval", str(workdir / "rec.csv"), "--est-hr", str(workdir / "det") + ".hr.csv",
                     "--est-beats", str(beats), "--out", str(out)])
        assert code == 5
        assert capsys.readouterr().err == (
            "error: BBI comparison impossible: no consecutively matched beat pairs\n")
        assert not out.exists()

    @pytest.mark.parametrize(
        "kind, edit, message",
        [c[1:] for c in UNREADABLE_ESTIMATES], ids=[c[0] for c in UNREADABLE_ESTIMATES],
    )
    def test_estimate_with_a_row_it_rejects_exits_2(
        self, workdir, tmp_path, capsys, kind, edit, message
    ):
        lines = Path(str(workdir / "det") + f".{kind}.csv").read_text().splitlines(keepends=True)
        edit(lines)
        bad = tmp_path / f"bad.{kind}.csv"
        bad.write_text("".join(lines))
        hr = bad if kind == "hr" else str(workdir / "det") + ".hr.csv"
        argv = ["eval", str(workdir / "rec.csv"), "--est-hr", str(hr), "--out", str(tmp_path / "r")]
        if kind == "beats":
            argv += ["--est-beats", str(bad)]
        assert main(argv) == 2
        what = "beats" if kind == "beats" else "HR series"
        assert f"cannot read {what}: {bad}:{message}" in capsys.readouterr().err
        assert not (tmp_path / "r").exists()

    @pytest.mark.parametrize("time_s", [9999.0, 90.0, -0.5])
    def test_beat_outside_the_recording_exits_5(self, workdir, tmp_path, capsys, time_s):
        """The 90-s recording's last sample is at 89.99 s."""
        lines = Path(str(workdir / "det") + ".beats.csv").read_text().splitlines(keepends=True)
        row = f"{int(time_s * 100)},{time_s!r},1.5\n"
        lines = [lines[0], row, *lines[1:]] if time_s < 0 else [*lines, row]
        bad = tmp_path / "bad.beats.csv"
        bad.write_text("".join(lines))
        out = tmp_path / "r"
        code = main(["eval", str(workdir / "rec.csv"), "--est-hr", str(workdir / "det") + ".hr.csv",
                     "--est-beats", str(bad), "--out", str(out)])
        assert code == 5
        assert capsys.readouterr().err == (
            f"error: {bad}: a beat at {time_s!r} s lies outside {workdir / 'rec.csv'}, "
            "which lasts 90 s\n"
        )
        assert not out.exists()

    @pytest.mark.parametrize("shift", [0.006, -0.006])
    def test_beat_time_off_its_index_exits_5(self, workdir, tmp_path, capsys, shift):
        """The beats file keeps one clock: a time more than half a sample
        (5 ms at 100 Hz) off beat_index / fs names its row."""
        lines = Path(str(workdir / "det") + ".beats.csv").read_text().splitlines(keepends=True)
        idx, t, conf = lines[3].split(",")
        lines[3] = f"{idx},{float(t) + shift!r},{conf}"
        bad = tmp_path / "bad.beats.csv"
        bad.write_text("".join(lines))
        out = tmp_path / "r"
        code = main(["eval", str(workdir / "rec.csv"), "--est-hr", str(workdir / "det") + ".hr.csv",
                     "--est-beats", str(bad), "--out", str(out)])
        assert code == 5
        assert capsys.readouterr().err == (
            f"error: {bad}: beat row 3: beat_time_s {float(t) + shift!r} is not "
            f"beat_index {idx} / 100 Hz\n"
        )
        assert not out.exists()

    def test_beat_time_within_half_a_sample_is_scored(self, workdir, tmp_path):
        lines = Path(str(workdir / "det") + ".beats.csv").read_text().splitlines(keepends=True)
        idx, t, conf = lines[3].split(",")
        lines[3] = f"{idx},{float(t) + 0.004!r},{conf}"
        ok = tmp_path / "ok.beats.csv"
        ok.write_text("".join(lines))
        assert main(["eval", str(workdir / "rec.csv"), "--est-hr", str(workdir / "det") + ".hr.csv",
                     "--est-beats", str(ok), "--out", str(tmp_path / "r")]) == 0

    def test_estimate_on_another_window_grid_exits_5(self, workdir, det30, tmp_path, capsys):
        est_hr, _ = det30
        out = tmp_path / "r"
        assert main(["eval", str(workdir / "rec.csv"), "--est-hr", str(est_hr), "--out", str(out)]) == 5
        assert (
            "HR comparison impossible: the series lie on different HR window grids: "
            "5 windows, first centres [15.0, 30.0] s vs 3 windows, first centres [30.0, 45.0] s"
        ) in capsys.readouterr().err
        assert not out.exists()
        assert not Path(str(out) + ".windows.csv").exists()

    def test_estimate_scored_on_its_own_window_grid(self, workdir, det30, tmp_path):
        est_hr, cfg = det30
        out = tmp_path / "r"
        argv = ["eval", str(workdir / "rec.csv"), "--config", str(cfg), "--est-hr", str(est_hr)]
        assert main([*argv, "--out", str(out)]) == 0
        assert int(bio.read_keyvalue(out)["n_windows_compared"]) == 5
        assert bio.read_hr(est_hr).n_windows == 5

    def test_baseline_on_another_window_grid_exits_5(self, workdir, tmp_path, capsys):
        rec = bio.read_recording(workdir / "rec.csv")
        base_path = tmp_path / "base.hr.csv"
        bio.write_hr(base_path, wppd_hr(rec.channels[0], rec.sample_rate_hz, step_s=10.0))
        out = tmp_path / "r"
        code = main(
            ["eval", str(workdir / "rec.csv"), "--est-hr", str(workdir / "det") + ".hr.csv",
             "--baseline-hr", str(base_path), "--out", str(out)]
        )
        assert code == 5
        assert (
            "paired comparison impossible: the series lie on different HR window grids: "
            "4 windows, first centres [30.0, 40.0] s vs 3 windows"
        ) in capsys.readouterr().err
        assert not out.exists()

    def test_unreadable_estimate_exits_2(self, workdir, tmp_path):
        code = main(
            [
                "eval",
                str(workdir / "rec.csv"),
                "--est-hr",
                str(tmp_path / "nope.csv"),
                "--out",
                str(tmp_path / "r"),
            ]
        )
        assert code == 2


def _detect_argv(workdir, out, dict_path=None):
    return ["detect", str(workdir / "rec.csv"), "--dict", str(dict_path or workdir / "model.csv"),
            "--out", str(out)]


def _copied_model(workdir, root):
    """A copy of the trained model's three files under root/model/, for a
    test to edit; the path of its dictionary."""
    (root / "model").mkdir()
    for name in ("model.csv", "model.cov.csv", "model.params"):
        shutil.copy(workdir / name, root / "model" / name)
    return root / "model" / "model.csv"


def _without(text, prefix):
    return "".join(line for line in text.splitlines(keepends=True) if not line.startswith(prefix))


def _train_argv(workdir, out):
    return ["train", str(workdir / "rec.csv"), "--max_em_iters", "2", "--out", str(out) + ".csv"]


def _beats(out):
    return Path(str(out) + ".beats.csv").read_bytes()


def _stored(out, *keys):
    stored = bio.read_keyvalue(str(out) + ".params")
    return tuple(stored[k] for k in keys)


def _atoms(out):
    D = bio.read_dictionary(str(out) + ".csv")
    return D.n_target, D.n_background


def _edited_model(workdir, root, old, new):
    """A copy of the trained model under root/model/ whose .params has
    `old` replaced by `new`; the path of its dictionary."""
    dict_path = _copied_model(workdir, root)
    params = dict_path.with_suffix(".params")
    params.write_text(params.read_text().replace(old, new))
    return dict_path


def _stored_zscore_argv(workdir, out):
    """detect with a copy of the model whose .params says zscore=True."""
    dict_path = _edited_model(workdir, out.parent, "zscore=False", "zscore=True")
    return _detect_argv(workdir, out, dict_path)


# (argv, extra flags, config file, exit code, check of (workdir, out prefix, stdout))
PRECEDENCE = {
    "config_code_iters_over_params": (
        _detect_argv, [], "code_iters=3\n", 0,
        lambda w, out, stdout: _beats(out) != _beats(w / "det"),
    ),
    "config_zscore_over_params": (
        _stored_zscore_argv, [], "zscore=false\n", 2,
        lambda w, out, stdout: not Path(str(out) + ".beats.csv").exists(),
    ),
    "config_threshold_over_params": (
        _detect_argv, [], "threshold=1000\n", 0,
        lambda w, out, stdout: bio.read_beats(str(out) + ".beats.csv")[0].size == 0,
    ),
    "config_voting_rule_reaches_the_train_grid": (
        _train_argv, [], "min_votes=3\nrefractory_s=0.4\n", 0,
        lambda w, out, stdout: _stored(out, "min_votes", "refractory_s") == ("3", "0.4"),
    ),
    "flag_over_config": (
        _train_argv, [], "max_em_iters=3\n", 0,
        lambda w, out, stdout: stdout.count("em_iter=") == 2,
    ),
    "config_over_mode_preset": (
        _train_argv, ["--mode", "batch"], "T=2\n", 0,
        lambda w, out, stdout: _atoms(out) == (2, 9),
    ),
}


@pytest.mark.parametrize("case", sorted(PRECEDENCE))
def test_setting_precedence(case, workdir, tmp_path, capsys):
    """detect: CLI flag > --config > .params, except that a preprocessing
    key must keep the model's value; train: CLI flag > --config > --mode
    preset > built-in default."""
    argv, flags, config, code, check = PRECEDENCE[case]
    cfg = tmp_path / "run.conf"
    cfg.write_text(config)
    out = tmp_path / "out"
    capsys.readouterr()
    assert main(argv(workdir, out) + flags + ["--config", str(cfg)]) == code
    assert check(workdir, out, capsys.readouterr().out)


# A value of each preprocessing key other than the one the workdir model stores.
_OTHER_PREPROCESSING = {"band_low": "1.0", "band_high": "12.0", "filter_order": "4",
                        "min_separation": "5", "half_len": "30", "zscore": "true"}


class TestDetectKeepsTheModelsPreprocessing:
    """A model's windows were cut under its stored preprocessing, so detect
    accepts a preprocessing key only at the stored value."""

    @pytest.mark.parametrize("key", sorted(f.name for f in dataclasses.fields(Preprocessing)))
    def test_a_different_value_exits_2(self, key, workdir, tmp_path, capsys):
        stored = bio.read_keyvalue(workdir / "model.params")[key]
        cfg = tmp_path / "run.conf"
        cfg.write_text(f"{key}={_OTHER_PREPROCESSING[key]}\n")
        assert main(_detect_argv(workdir, tmp_path / "d") + ["--config", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith(f"error: {key}=")
        assert f"differs from the model's {key}={stored}; retrain to change it" in err
        assert [p.name for p in tmp_path.iterdir()] == ["run.conf"]

    def test_the_stored_values_pass_unchanged(self, workdir, tmp_path):
        stored = bio.read_keyvalue(workdir / "model.params")
        cfg = tmp_path / "run.conf"
        cfg.write_text("".join(f"{k}={stored[k]}\n" for k in _OTHER_PREPROCESSING))
        assert main(_detect_argv(workdir, tmp_path / "d") + ["--config", str(cfg)]) == 0
        assert _beats(tmp_path / "d") == _beats(workdir / "det")


class TestParser:
    def test_unknown_subcommand_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 2

    def test_no_arguments_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 2

    def test_detect_takes_no_seed(self, workdir, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(_detect_argv(workdir, tmp_path / "d") + ["--seed", "1"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("flags", [["--params", "x.params"], ["--mode", "batch"]],
                             ids=["params", "mode"])
    def test_detect_reads_its_settings_only_from_the_model_and_config(self, workdir, tmp_path, flags):
        with pytest.raises(SystemExit) as exc:
            main(_detect_argv(workdir, tmp_path / "d") + flags)
        assert exc.value.code == 2

    @pytest.mark.parametrize(
        "config, message",
        [("mode=exercise\n", "unknown mode 'exercise'"),
         ("dft_pulse_width_s=0.1\n", "unknown config key 'dft_pulse_width_s'")],
        ids=["exercise_mode", "dft_pulse_width_s"],
    )
    def test_removed_settings_exit_2(self, workdir, tmp_path, capsys, config, message):
        cfg = tmp_path / "run.conf"
        cfg.write_text(config)
        argv = _detect_argv(workdir, tmp_path / "d") + ["--config", str(cfg)]
        assert main(argv) == 2
        assert message in capsys.readouterr().err

    def test_config_key_given_twice_exits_2(self, workdir, tmp_path, capsys):
        cfg = tmp_path / "run.conf"
        cfg.write_text("threshold=1.2\nthreshold=9\n")
        argv = _detect_argv(workdir, tmp_path / "d") + ["--config", str(cfg)]
        assert main(argv) == 2
        assert f"cannot read config: {cfg}:2: key 'threshold' given twice" in capsys.readouterr().err
        assert not (tmp_path / "d.beats.csv").exists()


GRID_COMMANDS = {
    "detect": _detect_argv,
    "detect_dft": lambda w, out: _detect_argv(w, out) + ["--dft"],
    "eval": lambda w, out: ["eval", str(w / "rec.csv"), "--est-hr", str(w / "det") + ".hr.csv",
                            "--out", str(out)],
}


@pytest.mark.parametrize("command", sorted(GRID_COMMANDS))
@pytest.mark.parametrize(
    "setting",
    ["step_s=0", "step_s=-15", "step_s=nan", "step_s=inf",
     "window_s=0", "window_s=-5", "window_s=nan", "window_s=inf"],
)
def test_hr_window_grid_outside_its_domain_exits_2(workdir, tmp_path, command, setting):
    """A non-positive or non-finite window or step exits 2 before any
    output is written.  Each run gets its own interpreter and a timeout,
    because a step of 0 once made the window loop run without end."""
    cfg = tmp_path / "grid.conf"
    cfg.write_text(setting + "\n")
    argv = GRID_COMMANDS[command](workdir, tmp_path / "out") + ["--config", str(cfg)]
    src = Path(__file__).resolve().parent.parent / "src"
    proc = subprocess.run(
        [sys.executable, "-m", "bcgbeat.cli", *argv],
        env=dict(os.environ, PYTHONPATH=str(src)),
        capture_output=True,
        text=True,
        timeout=10,
    )
    assert proc.returncode == 2
    assert "bad HR window grid" in proc.stderr
    assert setting.split("=")[0] in proc.stderr
    assert [p.name for p in tmp_path.iterdir()] == ["grid.conf"]


def _limit_address_space():
    resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))


@pytest.mark.parametrize("command", sorted(GRID_COMMANDS))
def test_step_shorter_than_one_sample_exits_2(workdir, tmp_path, command):
    """A step below one sample would give more windows than samples; a step
    of 1e-300 once grew the window list until memory ran out.  The child
    runs under a 1-GB address-space limit and a timeout, so such a run fails
    on its own instead of taking the machine's memory."""
    cfg = tmp_path / "grid.conf"
    cfg.write_text("step_s=1e-300\n")
    argv = GRID_COMMANDS[command](workdir, tmp_path / "out") + ["--config", str(cfg)]
    src = Path(__file__).resolve().parent.parent / "src"
    proc = subprocess.run(
        [sys.executable, "-m", "bcgbeat.cli", *argv],
        env=dict(os.environ, PYTHONPATH=str(src)),
        capture_output=True,
        text=True,
        timeout=10,
        preexec_fn=_limit_address_space,
    )
    assert proc.returncode == 2, proc.stderr[-500:]
    assert "bad HR window grid: step_s=1e-300 is shorter than one sample (0.01 s)" in proc.stderr
    assert [p.name for p in tmp_path.iterdir()] == ["grid.conf"]


def test_step_of_one_sample_is_accepted(workdir, tmp_path):
    cfg = tmp_path / "grid.conf"
    cfg.write_text("step_s=0.01\n")
    out = tmp_path / "d"
    assert main(_detect_argv(workdir, out) + ["--config", str(cfg)]) == 0
    assert bio.read_hr(str(out) + ".hr.csv").n_windows == 3001


@pytest.fixture
def no_coding(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("coding ran")

    monkeypatch.setattr(detector, "confidence_series", refuse)
    monkeypatch.setattr(detector, "fit", refuse)


class TestCodingSettingDomains:
    """A setting outside its domain exits 2 before anything is coded or
    written, whichever source gave it: its row of cli._CONFIG_PARSERS, or
    min_votes against the channel count and the DFT band against the
    sample rate, where the recording is read."""

    @pytest.mark.parametrize(
        "setting, message",
        [
            ("code_iters=0", "code_iters=0: must be at least 1"),
            ("lambda=-1", "lambda=-1.0: must be finite and >= 0"),
            ("lambda=inf", "lambda=inf: must be finite and >= 0"),
            ("threshold=nan", "threshold=nan: must be finite"),
            ("min_votes=0", "min_votes=0: must be from 1 to the 4 channels"),
            ("min_votes=9", "min_votes=9: must be from 1 to the 4 channels"),
            ("neighborhood=-5", "neighborhood=-5: must be >= 0"),
            ("refractory_s=nan", "refractory_s=nan: must be finite and >= 0"),
            ("refractory_s=-1", "refractory_s=-1.0: must be finite and >= 0"),
            ("refractory_s=inf", "refractory_s=inf: must be finite and >= 0"),
            ("half_len=0", "half_len=0: must be at least 1"),
            ("per_positive=0", "per_positive=0: must be at least 1"),
            ("seed=-1", "seed=-1: must be >= 0"),
            ("dft_band_low=0", "dft_band_low=0.0: must be positive and finite"),
            ("dft_band_low=nan", "dft_band_low=nan: must be positive and finite"),
            ("dft_band_high=inf", "dft_band_high=inf: must be positive and finite"),
        ],
    )
    def test_detect_config_outside_its_domain_exits_2(
        self, workdir, tmp_path, capsys, no_coding, setting, message
    ):
        cfg = tmp_path / "run.conf"
        cfg.write_text(setting + "\n")
        assert main(_detect_argv(workdir, tmp_path / "d") + ["--config", str(cfg)]) == 2
        assert f"error: bad setting {message}" in capsys.readouterr().err
        assert [p.name for p in tmp_path.iterdir()] == ["run.conf"]

    def test_detect_params_file_outside_its_domain_exits_2(
        self, workdir, tmp_path, capsys, no_coding
    ):
        dict_path = _copied_model(workdir, tmp_path)
        params = dict_path.with_suffix(".params")
        params.write_text(params.read_text().replace("min_votes=2", "min_votes=5"))
        assert main(_detect_argv(workdir, tmp_path / "d", dict_path)) == 2
        assert "bad setting min_votes=5" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flags, message",
        [(["--lambda", "nan"], "lambda=nan"), (["--config", "CFG"], "code_iters=0"),
         (["--config", "CFG"], "refractory_s=nan"), (["--config", "CFG"], "refractory_s=-1.0"),
         (["--config", "CFG"], "half_len=0"), (["--config", "CFG"], "half_len=-3"),
         (["--config", "CFG"], "per_positive=0"), (["--seed", "-1"], "seed=-1")],
    )
    def test_train_outside_its_domain_exits_2(
        self, workdir, tmp_path, capsys, no_coding, flags, message
    ):
        """CFG is a config file that sets the value the message names."""
        cfg = tmp_path / "run.conf"
        cfg.write_text(message + "\n")
        flags = [str(cfg) if f == "CFG" else f for f in flags]
        assert main(_train_argv(workdir, tmp_path / "m") + flags) == 2
        assert f"bad setting {message}" in capsys.readouterr().err
        assert [p.name for p in tmp_path.iterdir()] == ["run.conf"]

    @pytest.mark.parametrize(
        "setting, message",
        [
            ("psi=nan", "psi must be finite and > 0"),
            ("gamma=nan", "lam and gamma must be finite and >= 0"),
            ("tol=nan", "tol must be finite and > 0"),
            ("beta=inf", "beta must be finite and > 0"),
        ],
    )
    def test_train_learner_setting_not_finite_exits_2(
        self, workdir, tmp_path, capsys, no_coding, setting, message
    ):
        """FumiParams.validate rejects it before fit runs."""
        cfg = tmp_path / "run.conf"
        cfg.write_text(setting + "\n")
        assert main(_train_argv(workdir, tmp_path / "m") + ["--config", str(cfg)]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert [p.name for p in tmp_path.iterdir()] == ["run.conf"]

    @pytest.mark.parametrize(
        "config, message",
        [
            ("dft_band_low=3\n", "got (3.0, 3.0)"),
            ("dft_band_low=2.9\ndft_band_high=0.7\n", "got (2.9, 0.7)"),
            ("dft_band_high=60\n", "got (0.66, 60.0)"),
        ],
        ids=["low_at_high", "inverted", "above_nyquist"],
    )
    def test_detect_dft_band_that_cannot_hold_a_heart_rate_exits_2(
        self, workdir, tmp_path, capsys, no_coding, config, message
    ):
        """The default band is 0.66-3 Hz and the recording's Nyquist 50 Hz."""
        cfg = tmp_path / "run.conf"
        cfg.write_text(config)
        argv = _detect_argv(workdir, tmp_path / "d") + ["--dft", "--config", str(cfg)]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err == f"error: bad DFT band: need 0 < low < high <= Nyquist (50 Hz), {message}\n"
        assert [p.name for p in tmp_path.iterdir()] == ["run.conf"]


# Edge values of the numeric settings.  An iteration count gets no huge
# value, because a huge count is a legal long run.
_EDGES = {float: ("0", "-1", "nan", "inf", "-inf", "1e300"), int: ("0", "-1", "1000000")}
_ITERATION_KEYS = ("code_iters", "inner_iters", "max_em_iters")


@st.composite
def edge_setting(draw):
    keys = sorted(k for k, row in cli._CONFIG_PARSERS.items() if row.parse in _EDGES)
    key = draw(st.sampled_from(keys))
    edges = ("0", "-1", "1") if key in _ITERATION_KEYS else _EDGES[cli._CONFIG_PARSERS[key].parse]
    return f"{key}={draw(st.sampled_from(edges))}"


@settings(max_examples=100, deadline=None, derandomize=True)
@given(command=st.sampled_from(sorted(GRID_COMMANDS)), setting=edge_setting())
def test_edge_value_of_any_setting_exits_with_a_documented_code(workdir, command, setting):
    """One setting at an edge value: the run ends in time with exit 0, or
    with 2, 4 or 5 and an `error: ` line, never with a traceback."""
    with tempfile.TemporaryDirectory() as tmp:
        cfg = Path(tmp) / "edge.conf"
        cfg.write_text(setting + "\n")
        argv = GRID_COMMANDS[command](workdir, Path(tmp) / "out") + ["--config", str(cfg)]
        err = io.StringIO()
        start = time.perf_counter()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main(argv)
        assert time.perf_counter() - start < 10.0, setting
    assert code in (0, 2, 4, 5), (setting, code)
    assert "Traceback" not in err.getvalue()
    if code != 0:
        assert err.getvalue().startswith("error: "), (setting, err.getvalue())


def test_readme_settings_table_lists_every_key_once():
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    table = readme.split("| key | commands | domain | where checked |\n")[1].split("\n\n")[0]
    keys = [row.split("|")[1].strip().strip("`") for row in table.splitlines()[1:]]
    assert sorted(keys) == sorted(cli._CONFIG_PARSERS)


@pytest.mark.parametrize(
    "setting, message",
    [
        ("band_low=20", "need 0 < low < high < Nyquist"),
        ("filter_order=3", "filter order must be even and >= 2"),
        ("min_separation=0", "min_separation must be >= 1"),
    ],
)
def test_train_preprocessing_setting_outside_its_domain_exits_2(
    workdir, tmp_path, capsys, setting, message
):
    """train maps the band-pass filter's and the peak picker's errors to
    exit 2 as detect does, before it fits or writes a model."""
    cfg = tmp_path / "run.conf"
    cfg.write_text(setting + "\n")
    assert main(_train_argv(workdir, tmp_path / "m") + ["--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert err == f"error: {message}\n"
    assert [p.name for p in tmp_path.iterdir()] == ["run.conf"]


@pytest.mark.parametrize("config", ["", "zscore=true\n"], ids=["raw", "zscore"])
def test_library_path_gives_the_cli_outputs_bit_for_bit(workdir, tmp_path, config):
    """train_model and detect_recording, run on the Recordings the CLI reads,
    give the model, beats and HR series that train and detect write."""
    synth_cfg = tmp_path / "synth.conf"
    synth_cfg.write_text("duration_s=60\nhr_bpm=80\nsnr_db=10\n")
    paths = [workdir / "rec.csv", tmp_path / "rec2.csv"]
    assert main(["synth", "--config", str(synth_cfg), "--seed", "8", "--out", str(paths[1])]) == 0
    cfg = tmp_path / "run.conf"
    cfg.write_text(config)
    out = tmp_path / "m.csv"
    argv = ["train", *map(str, paths), "--max_em_iters", "2", "--config", str(cfg), "--out", str(out)]
    assert main(argv) == 0

    recs = [bio.read_recording(p) for p in paths]
    model, _ = detector.train_model(recs, FumiParams(max_em_iters=2), Preprocessing(zscore=bool(config)))

    def equal(got, want):
        np.testing.assert_array_equal(got, want, strict=True)

    D, cov = bio.read_dictionary(out), bio.read_covariance(tmp_path / "m.cov.csv")
    equal(model.dictionary.target_atoms, D.target_atoms)
    equal(model.dictionary.background_atoms, D.background_atoms)
    equal(model.background.covariance, cov.covariance)
    equal(model.background.ridge, cov.ridge)
    stored = cli._read_params(str(tmp_path / "m.params"))
    want = {**dataclasses.asdict(model.detection), "lambda": model.lam,
            "code_iters": model.code_iters, "fs": model.fs, **dataclasses.asdict(model.pre)}
    assert sorted(stored) == sorted(want)
    for key, value in want.items():
        equal(stored[key], value)

    for flags, band in (([], None), (["--dft"], DEFAULT_DFT_BAND_HZ)):
        det = tmp_path / ("dft" if band else "det")
        assert main(["detect", str(paths[1]), "--dict", str(out), *flags, "--out", str(det)]) == 0
        beats, hr = detector.detect_recording(recs[1], model, dft_band_hz=band)
        idx, _, conf = bio.read_beats(str(det) + ".beats.csv")
        equal(np.asarray([b[0] for b in beats]), idx)
        equal(np.asarray([b[1] for b in beats]), conf)
        written = bio.read_hr(str(det) + ".hr.csv")
        equal(hr.times, written.times)
        equal(hr.bpm, written.bpm)
