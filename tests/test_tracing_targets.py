"""The contract between bcgbeat and the benchmark's tracer.

perfbench/tracing.py wraps bcgbeat functions by module and attribute name
and turns each call's arguments and result into counts.  A change under
src/ that renames one of those functions, or changes what it returns,
breaks `perfbench/run.py --trace 1`; these tests catch that here.  The
tracer is loaded from its file and used as it is.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

from bcgbeat.cli import main

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


@pytest.fixture(scope="module")
def tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up
    spec.loader.exec_module(module)
    return module


def test_every_target_resolves_to_a_bcgbeat_callable(tracing):
    for name, mod_name, attr, _ in tracing.TARGETS:
        obj = importlib.import_module("bcgbeat." + mod_name)
        for part in attr.split("."):
            obj = getattr(obj, part, None)
            assert obj is not None, f"{name}: bcgbeat.{mod_name}.{attr} is gone"
        assert callable(obj), name


def test_every_counter_accepts_what_its_function_returns(tracing, tmp_path):
    conf = tmp_path / "synth.conf"
    conf.write_text("duration_s=70\nhr_bpm=66\nsnr_db=10\n")
    rec, model, det = (str(tmp_path / n) for n in ("rec.csv", "model.csv", "det"))
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert main(["synth", "--config", str(conf), "--seed", "3", "--out", rec]) == 0
        assert main(["train", rec, "--max_em_iters", "2", "--out", model]) == 0
        assert main(["detect", rec, "--dict", model, "--out", det]) == 0
        assert main(["detect", rec, "--dict", model, "--dft", "--out", det + "-dft"]) == 0
        assert main(["eval", rec, "--est-hr", det + ".hr.csv", "--est-beats",
                     det + ".beats.csv", "--out", str(tmp_path / "report")]) == 0
    finally:
        tracer.uninstall()

    called = {s.name for s in tracer.spans}
    for name, _, _, counter in tracing.TARGETS:
        assert name in called, f"{name} never ran"
        if counter is not None:
            counts = [s.counts for s in tracer.spans if s.name == name]
            assert all(counts), f"{name}: counter gave no counts"
    (bags,) = [s.counts for s in tracer.spans if s.name == "signals.build_bags"]
    assert bags["bags_pos"] > 0 and bags["bags_neg"] > 0
    assert all(isinstance(v, int) for v in bags.values())
