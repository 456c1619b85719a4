"""Smoke test of the pipeline benchmark on tiny recordings.

Run from the repository root:  python3 -m pytest perfbench/test_smoke.py -q

Accuracy gates are not asserted here: the tiny recordings are too short for
the c07/c08 tolerances to mean anything.  Held-out recordings stay longer
than one 60-s HR window so that eval has something to score.
"""

import dataclasses
import json
from collections import defaultdict
from pathlib import Path

import pytest

import run
from tracing import self_times

SPEC = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
# Spans of functions that only training calls.  dlfumi.safe_step_length is
# not one of them: detect codes its candidates with the same step length.
LEARNER_SPANS = ("dlfumi.fit", "dlfumi.gamma_matrix", "detector.learn_detection_params")


def _units(specs):
    return {m["name"]: m["unit"] for m in specs}


def _tiny(w, train_s, test_s):
    return dataclasses.replace(
        w,
        train=tuple(dict(c, duration_s=train_s) for c in w.train),
        test=dict(w.test, duration_s=test_s),
    )


@pytest.fixture(scope="module", autouse=True)
def tiny_workloads():
    full = dict(run.WORKLOADS)
    run.WORKLOADS.update(
        {
            "train-individual": _tiny(full["train-individual"], 60.0, 70.0),
            "train-batch": _tiny(full["train-batch"], 30.0, 70.0),
            "detect-long": _tiny(full["detect-long"], 60.0, 90.0),
        }
    )
    yield
    run.WORKLOADS.update(full)


@pytest.fixture(scope="module")
def traced_runs(tiny_workloads):
    return {w: run.traced(w, seed=1) for w in run.WORKLOADS}


def test_workloads_match_the_spec():
    assert sorted(run.WORKLOADS) == sorted(w["name"] for w in SPEC["workloads"])


@pytest.mark.parametrize("workload", sorted(run.WORKLOADS))
def test_end_to_end_metrics_have_units(workload):
    ops, metrics, accuracy, _ = run.measure(workload, seed=1, seconds=0)
    assert ops.attempted >= 1
    assert {k: v["unit"] for k, v in metrics.items()} == _units(SPEC["end_to_end"])
    assert all(v["value"] > 0 for v in metrics.values())
    assert set(accuracy) == set(run.ACCURACY_UNITS)


@pytest.mark.parametrize("workload", sorted(run.WORKLOADS))
def test_per_layer_metrics_have_units(traced_runs, workload):
    _, metrics, _, _ = traced_runs[workload]
    assert {k: v["unit"] for k, v in metrics.items()} == _units(SPEC["per_layer"])


@pytest.mark.parametrize("workload", sorted(run.WORKLOADS))
def test_self_times_add_up_to_each_root_span(traced_runs, workload):
    _, _, _, spans = traced_runs[workload]
    selfs = self_times(spans)
    subtree = defaultdict(float)
    for s in reversed(spans):  # children come after their parents
        subtree[s.id] += selfs[s.id]
        if s.parent is not None:
            parent = spans[s.parent]
            assert parent.start <= s.start <= s.end <= parent.end
            subtree[s.parent] += subtree[s.id]
    for s in spans:
        assert subtree[s.id] == pytest.approx(s.duration, abs=1e-9)


def test_detect_commands_run_no_learner(traced_runs):
    _, _, _, spans = traced_runs["detect-long"]
    root = {}
    for s in spans:
        root[s.id] = s.name if s.parent is None else root[s.parent]
    learner = [s for s in spans if s.name in LEARNER_SPANS]
    assert learner, "the fixed model is trained in set-up"
    assert {root[s.id] for s in learner} == {"setup"}


def test_second_seed_changes_inputs_but_not_metric_names(tmp_path, traced_runs):
    cli = run._import_cli()
    w = run.WORKLOADS["train-individual"]
    for seed in (1, 2):
        run.setup_inputs(cli, w, seed, tmp_path / str(seed), run.Ops())
    for stem in ("train0", "test"):
        name = f"{stem}.csv"
        assert (tmp_path / "1" / name).read_bytes() != (tmp_path / "2" / name).read_bytes()
    _, metrics, _, _ = run.traced("train-individual", seed=2)
    assert metrics.keys() == traced_runs["train-individual"][1].keys()
