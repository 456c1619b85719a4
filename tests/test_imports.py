"""Import footprint: each command loads only the scipy it runs.

Every check runs in a fresh interpreter, since this test process has
long since imported scipy itself.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from bcgbeat import io as bio
from bcgbeat.detector import hr_from_beats
from bcgbeat.synth import SynthConfig, generate

SRC = Path(__file__).resolve().parent.parent / "src"


def scipy_modules_after(code: str) -> set[str]:
    """The scipy modules loaded once `code` has run in a fresh interpreter."""
    code += (
        "\nimport json, sys\n"
        "print(json.dumps(sorted(m for m in sys.modules"
        " if m == 'scipy' or m.startswith('scipy.'))))\n"
    )
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, check=True, capture_output=True, text=True
    ).stdout
    return set(json.loads(out.splitlines()[-1]))


@pytest.fixture(scope="module")
def eval_inputs(tmp_path_factory):
    """A synthesized recording and an HR/beats estimate to score against it."""
    root = tmp_path_factory.mktemp("imports")
    res = generate(SynthConfig(duration_s=90.0, seed=3))
    rec = res.recording
    bio.write_recording(root / "rec.csv", rec)
    gt = rec.gt_beat_times
    hr = hr_from_beats(gt, rec.sample_rate_hz, duration_s=rec.duration_s)
    bio.write_hr(root / "est.hr.csv", hr)
    bio.write_beats(root / "est.beats.csv", [(int(b), 1.0) for b in gt], rec.sample_rate_hz)
    return root


def test_importing_the_package_loads_no_scipy():
    assert scipy_modules_after("import bcgbeat, bcgbeat.cli") == set()


def test_eval_loads_no_scipy(eval_inputs):
    d = eval_inputs
    argv = ["eval", str(d / "rec.csv"), "--est-hr", str(d / "est.hr.csv"),
            "--est-beats", str(d / "est.beats.csv"), "--out", str(d / "report")]
    code = f"from bcgbeat.cli import main\nassert main({argv!r}) == 0"
    assert scipy_modules_after(code) == set()
    assert "mae_bpm" in bio.read_keyvalue(d / "report")


def test_synth_loads_no_scipy_signal(tmp_path):
    cfg = tmp_path / "synth.conf"
    cfg.write_text("duration_s=10\n")
    argv = ["synth", "--config", str(cfg), "--out", str(tmp_path / "rec.csv")]
    code = f"from bcgbeat.cli import main\nassert main({argv!r}) == 0"
    loaded = scipy_modules_after(code)
    assert "scipy.signal" not in loaded
    assert "scipy.optimize" in loaded  # brentq places the beats
