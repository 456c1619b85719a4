"""Fixtures shared by more than one test module."""

import pytest

from bcgbeat.cli import main


@pytest.fixture(scope="session")
def workdir(tmp_path_factory):
    """One full CLI pipeline run on a 90 s recording: synth, train, detect
    and eval with --est-beats, shared by the tests."""
    root = tmp_path_factory.mktemp("cli")
    cfg = root / "synth.conf"
    cfg.write_text("duration_s=90\nhr_bpm=66\nsnr_db=10\n")
    rec = root / "rec.csv"
    assert main(["synth", "--config", str(cfg), "--seed", "7", "--out", str(rec)]) == 0

    dict_path = root / "model.csv"
    assert main(["train", str(rec), "--out", str(dict_path)]) == 0

    out_prefix = root / "det"
    assert main(["detect", str(rec), "--dict", str(dict_path), "--out", str(out_prefix)]) == 0

    argv = ["eval", str(rec), "--est-hr", str(out_prefix) + ".hr.csv",
            "--est-beats", str(out_prefix) + ".beats.csv", "--out", str(root / "report")]
    assert main(argv) == 0
    return root
