#!/usr/bin/env python3
"""Pipeline benchmark: bcgbeat's synth -> train -> detect -> eval CLI.

Run from the repository root:

    python3 perfbench/run.py --workload train-individual --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload detect-long --seed 1 --seconds 10 --trace 1
    python3 perfbench/run.py --compare before.jsonl after.jsonl

With ``--trace 0`` every command runs in a fresh interpreter, one at a
time (closed loop, one client), and the run prints the end-to-end metrics.
With ``--trace 1`` the same commands run in this process through
``bcgbeat.cli.main``, with and without timing wrappers around each layer
(see tracing.py), and the run prints the per-layer metrics.
The last stdout line is one JSON object; ``--out FILE`` also appends a
record with the environment to FILE for ``--compare``.  README.md next to
this file lists the workloads and metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from dataclasses import asdict, dataclass
from io import StringIO
from pathlib import Path

from tracing import TARGETS, Tracer, self_times

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = BENCH / "work"
TRACES = BENCH / "out"

# BLAS/OpenMP threads are fixed in this process and in every child: with
# OpenBLAS's default thread count the same train run varies far more.
THREADS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
MIN_REPS = 2
IMPORT_REPEATS = 3
# Acceptance tolerances c07/c08 for beat-mode HR and beat intervals.  These
# two are gated in every run instead of bounded against the parent: one
# false beat moves them by a large share, so their seed-to-seed spread is
# far wider than any bound.  The spectral MAE is only reported: its 1-bpm
# DFT bins make it jump between a few values from seed to seed.
GATES = {"hr_mae_bpm": 1.0, "bbi_err_pct": 5.0}
ACCURACY_UNITS = {"hr_mae_bpm": "bpm", "bbi_err_pct": "%", "hr_mae_dft_bpm": "bpm"}
MATCH_TOL_S = 0.3
# Files that repeats of one seed must reproduce byte for byte (c13).
MODEL_FILES = ("model.csv", "model.cov.csv", "model.params")
DETECT_FILES = ("det.beats.csv", "det.hr.csv", "dft.beats.csv", "dft.hr.csv")


@dataclass(frozen=True)
class Workload:
    train: tuple  # synth configs of the training recordings
    test: dict  # synth config of the held-out recording
    mode: str  # train --mode
    model_in_setup: bool  # train once during setup instead of in every repetition


# Training recordings follow acceptance c07: constant rate with strong motion
# artifacts.  The held-out ones vary the rate sinusoidally, with a period
# unlike the 60-s HR window, and have no artifacts: with artifacts one false
# beat can push the beat-mode MAE past its gate on some seeds (README.md).
_TRAIN = dict(hr_bpm=70.0, snr_db=10.0, artifact_rate_per_min=3.0, artifact_amp=6.0)
_HELD_OUT = dict(hr_bpm=70.0, hrv_amp_bpm=5.0, hrv_period_s=47.0, snr_db=10.0)

WORKLOADS = {
    # fit's EM bookkeeping and the voting-parameter grid dominate train.
    "train-individual": Workload(
        train=(dict(_TRAIN, duration_s=240.0),),
        test=dict(_HELD_OUT, duration_s=180.0),
        mode="individual",
        model_in_setup=False,
    ),
    # 18 atoms, three pooled series: fit and kernels at the batch shape.
    "train-batch": Workload(
        train=tuple(dict(_TRAIN, duration_s=90.0, hr_bpm=b) for b in (60.0, 72.0, 84.0)),
        test=dict(_HELD_OUT, duration_s=180.0, hr_bpm=72.0),
        mode="batch",
        model_in_setup=False,
    ),
    # No fit and no grid in the timed commands: read, peaks, coding, HR.
    "detect-long": Workload(
        train=(dict(_TRAIN, duration_s=240.0),),
        test=dict(_HELD_OUT, duration_s=1200.0, hr_bpm=66.0, hrv_amp_bpm=6.0),
        mode="individual",
        model_in_setup=True,
    ),
}

E2E_UNITS = {
    "setup_s": "s",
    "train_s": "s",
    "detect_s": "s",
    "detect_dft_s": "s",
    "eval_s": "s",
    "train_peak_rss_mb": "MB",
    "detect_peak_rss_mb": "MB",
    "beat_f1": "ratio",
}


class StepFailed(Exception):
    pass


class Ops:
    """Operations attempted and failed; a failure is a non-zero exit or a
    failed output check, and is reported on stderr."""

    def __init__(self):
        self.attempted = 0
        self.failed: set[int] = set()

    def start(self) -> int:
        self.attempted += 1
        return self.attempted - 1

    def fail(self, op: int, why: str) -> None:
        self.failed.add(op)
        print(f"check failed: {why}", file=sys.stderr)


def _child_env() -> dict:
    env = dict(os.environ, **THREADS)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def _import_cli():
    """Import bcgbeat from this checkout with the thread count fixed."""
    os.environ.update(THREADS)
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import bcgbeat.cli

    return bcgbeat.cli


def _synth_configs(w: Workload, seed: int):
    """(file stem, synth config, synth seed) for each recording."""
    recs = [(f"train{i}", c) for i, c in enumerate(w.train)] + [("test", w.test)]
    return [(stem, cfg, 10 * seed + i) for i, (stem, cfg) in enumerate(recs)]


def setup_inputs(cli, w: Workload, seed: int, d: Path, ops: Ops, tracer=None):
    """Write the configs and synthesize every recording of the workload."""
    d.mkdir(parents=True)
    (d / "run.conf").write_text("zscore=true\n")
    ops_by_stem = {}
    for stem, cfg, rec_seed in _synth_configs(w, seed):
        conf = d / f"{stem}.conf"
        conf.write_text("".join(f"{k}={v!r}\n" for k, v in cfg.items()))
        argv = ["synth", "--config", str(conf), "--seed", str(rec_seed), "--out", str(d / f"{stem}.csv")]
        ops_by_stem[stem] = run_inprocess(cli, "synth", argv, ops, tracer)[1]
    return ops_by_stem


def train_argv(w: Workload, seed: int, inputs: Path, model: Path) -> list[str]:
    recs = [str(inputs / f"train{i}.csv") for i in range(len(w.train))]
    return ["train", *recs, "--config", str(inputs / "run.conf"), "--mode", w.mode,
            "--seed", str(seed), "--out", str(model)]


def pipeline_steps(w: Workload, seed: int, inputs: Path, out: Path) -> list[tuple[str, list[str]]]:
    """The timed commands of one repetition, as (metric stem, argv)."""
    model = (inputs if w.model_in_setup else out) / "model.csv"
    test, conf = str(inputs / "test.csv"), str(inputs / "run.conf")
    steps = [] if w.model_in_setup else [("train", train_argv(w, seed, inputs, model))]
    steps += [
        ("detect", ["detect", test, "--config", conf, "--dict", str(model), "--out", str(out / "det")]),
        ("detect_dft", ["detect", test, "--config", conf, "--dict", str(model), "--dft",
                        "--out", str(out / "dft")]),
        ("eval", ["eval", test, "--est-hr", str(out / "det.hr.csv"), "--est-beats",
                  str(out / "det.beats.csv"), "--out", str(out / "report")]),
    ]
    return steps


def run_child(name: str, argv: list[str], log: Path, ops: Ops):
    """Run one CLI command in a fresh interpreter.

    Returns (wall seconds, op id, peak RSS in MB of that child alone);
    os.wait4 gives the child's own rusage, where RUSAGE_CHILDREN would
    report the largest child so far."""
    op = ops.start()
    with open(log, "wb") as fh:
        t0 = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, "-m", "bcgbeat.cli", *argv],
            stdout=fh, stderr=subprocess.STDOUT, env=_child_env(), cwd=ROOT,
        )
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode != 0:
        ops.fail(op, f"{name} exited {proc.returncode}; see {log}")
        raise StepFailed(name)
    return wall, op, usage.ru_maxrss / 1024.0


def run_inprocess(cli, name: str, argv: list[str], ops: Ops, tracer=None):
    """Run one CLI command through bcgbeat.cli.main in this process."""
    op = ops.start()
    buf = StringIO()
    span = tracer.span("cli." + name) if tracer else contextlib.nullcontext()
    with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(buf):
        t0 = time.perf_counter()
        with span:
            code = cli.main(argv)
        wall = time.perf_counter() - t0
    if code != 0:
        ops.fail(op, f"{name} exited {code}: {buf.getvalue()[-500:]}")
        raise StepFailed(name)
    return wall, op


def _same_files(a: Path, b: Path, names, op: int, ops: Ops) -> None:
    for n in names:
        if (a / n).read_bytes() != (b / n).read_bytes():
            ops.fail(op, f"{b / n} differs from {a / n}")


def _accuracy(cli, inputs: Path, out: Path, eval_op: int, ops: Ops):
    """Held-out accuracy of one repetition's outputs: (beat F1, the values
    of ACCURACY_UNITS).  Fails eval_op where a gate is exceeded."""
    from bcgbeat import io as bio
    from bcgbeat.metrics import greedy_match

    report = bio.read_keyvalue(out / "report")
    mae, bbi = float(report["mae_bpm"]), float(report["bbi_relative_error_pct"])
    for name, value in (("hr_mae_bpm", mae), ("bbi_err_pct", bbi)):
        if not value <= GATES[name]:
            ops.fail(eval_op, f"{name} {value} > {GATES[name]}")
    dft_eval = ["eval", str(inputs / "test.csv"), "--est-hr", str(out / "dft.hr.csv"),
                "--out", str(out / "dft.report")]
    run_inprocess(cli, "eval_dft", dft_eval, ops)
    dft_mae = float(bio.read_keyvalue(out / "dft.report")["mae_bpm"])

    rec = bio.read_recording(inputs / "test.csv")
    gt_s = rec.gt_beat_times / rec.sample_rate_hz
    _, est_s, _ = bio.read_beats(out / "det.beats.csv")
    tp = len(greedy_match(est_s, gt_s, MATCH_TOL_S))
    f1 = 2.0 * tp / (est_s.size + gt_s.size)
    return f1, {"hr_mae_bpm": mae, "bbi_err_pct": bbi, "hr_mae_dft_bpm": dft_mae}


def measure(workload: str, seed: int, seconds: float):
    """End-to-end run: returns (ops, metrics, accuracy, raw timings)."""
    w = WORKLOADS[workload]
    cli = _import_cli()
    ops = Ops()
    work = _work_dir(workload, seed)
    try:
        # Set-up runs once first and again after every timed command, so its
        # samples span the whole run rather than one moment of it.
        inputs = work / "setup0"
        setup_times = []

        def set_up():
            d = work / f"setup{len(setup_times)}"
            t0 = time.perf_counter()
            synth_ops = setup_inputs(cli, w, seed, d, ops)
            setup_times.append(time.perf_counter() - t0)
            if d != inputs:
                for stem, op in synth_ops.items():
                    _same_files(inputs, d, [f"{stem}.csv", f"{stem}.sidecar"], op, ops)
                shutil.rmtree(d)

        set_up()
        samples = defaultdict(list)
        if w.model_in_setup:
            wall, _, rss = run_child("train", train_argv(w, seed, inputs, inputs / "model.csv"),
                                     inputs / "train.log", ops)
            samples["train_s"].append(wall)
            samples["train_peak_rss_mb"].append(rss)

        reps, t_start = [], time.perf_counter()
        while len(reps) < MIN_REPS or time.perf_counter() - t_start < seconds:
            out = work / f"rep{len(reps)}"
            out.mkdir()
            step_ops = {}
            for name, argv in pipeline_steps(w, seed, inputs, out):
                wall, step_ops[name], rss = run_child(name, argv, out / f"{name}.log", ops)
                samples[f"{name}_s"].append(wall)
                if name in ("train", "detect"):
                    samples[f"{name}_peak_rss_mb"].append(rss)
                set_up()
            reps.append((out, step_ops))

        first = reps[0][0]
        for out, step_ops in reps[1:]:
            if not w.model_in_setup:
                _same_files(first, out, MODEL_FILES, step_ops["train"], ops)
            _same_files(first, out, DETECT_FILES, step_ops["detect"], ops)
        beat_f1, accuracy = _accuracy(cli, inputs, first, reps[0][1]["eval"], ops)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    metrics = {k: statistics.median(v) for k, v in samples.items()}
    metrics["setup_s"] = statistics.median(setup_times)
    if w.model_in_setup:
        metrics["setup_s"] += metrics["train_s"]
    metrics["beat_f1"] = beat_f1
    samples["setup_s"] = setup_times
    metrics = {k: {"value": metrics[k], "unit": u} for k, u in E2E_UNITS.items()}
    return ops, metrics, accuracy, dict(samples)


def _import_seconds() -> float:
    """Median wall time of a fresh `import bcgbeat.cli`."""
    code = ("import time; t = time.perf_counter(); import bcgbeat.cli; "
            "print(repr(time.perf_counter() - t))")
    times = []
    for _ in range(IMPORT_REPEATS):
        out = subprocess.run([sys.executable, "-c", code], env=_child_env(), cwd=ROOT,
                             check=True, capture_output=True, text=True).stdout
        times.append(float(out))
    return statistics.median(times)


def traced(workload: str, seed: int):
    """Traced run: returns (ops, per-layer metrics, accuracy, spans)."""
    w = WORKLOADS[workload]
    cli = _import_cli()
    ops = Ops()
    tracer = Tracer()
    work = _work_dir(workload, seed)
    try:
        import_s = _import_seconds()
        inputs = work / "inputs"
        tracer.install()
        try:
            with tracer.span("setup"):
                setup_inputs(cli, w, seed, inputs, ops, tracer)
                if w.model_in_setup:
                    run_inprocess(cli, "train", train_argv(w, seed, inputs, inputs / "model.csv"),
                                  ops, tracer)
        finally:
            tracer.uninstall()

        # Passes run traced, untraced, untraced, traced, so first-call costs
        # and slow drift weigh on both sides.  Only the last pass keeps spans.
        walls = defaultdict(float)
        for i, pass_tracer in enumerate((Tracer(), None, None, tracer)):
            out = work / f"pass{i}"
            out.mkdir()
            if pass_tracer is not None:
                pass_tracer.install()
            try:
                t0 = time.perf_counter()
                for name, argv in pipeline_steps(w, seed, inputs, out):
                    run_inprocess(cli, name, argv, ops, pass_tracer)
                walls[pass_tracer is not None] += time.perf_counter() - t0
            finally:
                if pass_tracer is not None:
                    pass_tracer.uninstall()
        eval_op = ops.attempted - 1
        names = DETECT_FILES + (() if w.model_in_setup else MODEL_FILES)
        _same_files(work / "pass1", work / "pass3", names, eval_op, ops)
        _, accuracy = _accuracy(cli, inputs, work / "pass3", eval_op, ops)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    metrics = layer_metrics(tracer.spans)
    metrics["cli.import_s"] = {"value": import_s, "unit": "s"}
    metrics["trace.overhead_s"] = {"value": (walls[True] - walls[False]) / 2, "unit": "s"}
    for name, unit in ACCURACY_UNITS.items():
        metrics[f"metrics.{name}"] = {"value": accuracy[name], "unit": unit}
    return ops, metrics, accuracy, tracer.spans


def layer_metrics(spans) -> dict:
    """Per-layer totals over every span of the traced run."""
    by_name = defaultdict(list)
    for s in spans:
        by_name[s.name].append(s)
    # A span's root is its outermost command: setup, cli.train, cli.detect...
    # Parents open before their children, so their roots are known first.
    root_of = {}
    for s in spans:
        root_of[s.id] = s.name if s.parent is None else root_of[s.parent]
    selfs = self_times(spans)

    def seconds(name):
        return sum(s.duration for s in by_name[name])

    def count(name, key, root=None):
        return sum(s.counts.get(key, 0) for s in by_name[name]
                   if root is None or root_of[s.id] == root)

    m = {}

    def put(name, value, unit):
        m[name] = {"value": value, "unit": unit}

    for name, *_ in TARGETS:
        put(f"{name}_s", seconds(name), "s")
    for name in ("dlfumi.safe_step_length", "kernels.ista_positive", "kernels.ista_negative",
                 "detector.vote_beats", "metrics.greedy_match"):
        put(f"{name}.calls", len(by_name[name]), "count")
    put("dlfumi.fit.self_s", sum(selfs[s.id] for s in by_name["dlfumi.fit"]), "s")
    put("dlfumi.em_iters", count("dlfumi.fit", "em_iters"), "count")
    put("io.read_recording_mb_per_s",
        count("io.read_recording", "bytes") / 1e6 / seconds("io.read_recording"), "MB/s")
    put("signals.candidates", count("signals.find_peaks", "candidates"), "count")
    put("signals.instances", count("signals.extract_instances", "instances"), "count")
    put("signals.bags_pos", count("signals.build_bags", "bags_pos"), "count")
    put("signals.bags_neg", count("signals.build_bags", "bags_neg"), "count")
    gflop = (count("kernels.ista_positive", "flop") + count("kernels.ista_negative", "flop")) / 1e9
    put("kernels.ista.gflop", gflop, "GFLOP")
    put("kernels.ista.gflop_per_s",
        gflop / (seconds("kernels.ista_positive") + seconds("kernels.ista_negative")), "GFLOP/s")
    put("detector.beats_per_candidate",
        count("detector.vote_beats", "beats", "cli.detect")
        / count("detector.confidence_series", "coded", "cli.detect"), "ratio")
    return m


def _work_dir(workload: str, seed: int) -> Path:
    return WORK / f"{workload}-s{seed}-p{os.getpid()}"


def environment() -> dict:
    import numpy
    import scipy
    from bcgbeat import kernels

    blas = numpy.__config__.CONFIG["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas['name']} {blas['version']}",
        "nproc": len(os.sched_getaffinity(0)),
        "threads": THREADS,
        "kernels_backend": kernels.BACKEND,
    }


def compare(path_a: str, path_b: str) -> int:
    """Per workload and metric: both medians, B/A, and the bound verdict."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    e2e = {m["name"]: m for m in spec["end_to_end"]}
    per_layer = {m["name"]: m for m in spec["per_layer"]}

    def load(path):
        values = defaultdict(list)
        for line in Path(path).read_text().splitlines():
            if line.strip():
                rec = json.loads(line)
                for name, v in rec["result"]["metrics"].items():
                    values[(rec["workload"], name)].append(v["value"])
        return values

    a, b = load(path_a), load(path_b)
    regressed = 0
    print(f"{'workload':<17} {'metric':<36} {'median A':>12} {'median B':>12} "
          f"{'B/A (base A)':>13} {'bound':>6}  verdict")
    for key in sorted(set(a) & set(b)):
        workload, name = key
        ma, mb = statistics.median(a[key]), statistics.median(b[key])
        ratio = mb / ma if ma else float("nan")
        spec_m = e2e.get(name) or per_layer.get(name, {})
        bound = spec_m.get("bound")
        verdict = "-"
        if bound is not None:
            worse = ratio - 1.0 if spec_m["better"] == "lower" else 1.0 - ratio
            verdict = "ok" if worse <= bound else "REGRESSED"
            regressed += verdict == "REGRESSED"
        unit = spec_m.get("unit", "")
        print(f"{workload:<17} {name:<36} {ma:>12.6g} {mb:>12.6g} {ratio:>13.4f} "
              f"{'' if bound is None else bound:>6}  {verdict} {unit}")
    for key in sorted(set(a) ^ set(b)):
        print(f"{key[0]:<17} {key[1]:<36} only in {'A' if key in a else 'B'}")
    return 1 if regressed else 0


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--out", help="append a JSON record of this run to this file")
    p.add_argument("--compare", nargs=2, metavar=("A", "B"),
                   help="compare two files written with --out")
    args = p.parse_args(argv)
    if args.compare:
        return compare(*args.compare)
    if args.workload is None:
        p.error("--workload is required")
    if not (SRC / "bcgbeat" / "cli.py").is_file():
        print(f"error: no bcgbeat sources under {SRC}", file=sys.stderr)
        return 2

    try:
        if args.trace:
            ops, metrics, accuracy, spans = traced(args.workload, args.seed)
            samples = None
            TRACES.mkdir(exist_ok=True)
            trace_file = TRACES / f"trace-{args.workload}-s{args.seed}.json"
            trace_file.write_text(json.dumps([asdict(s) for s in spans]) + "\n")
        else:
            ops, metrics, accuracy, samples = measure(args.workload, args.seed, args.seconds)
    except StepFailed as exc:
        print(f"error: {exc} failed", file=sys.stderr)
        return 1
    result = {
        "correct": not ops.failed,
        "attempted": ops.attempted,
        "failed": len(ops.failed),
        "metrics": metrics,
    }
    env = environment()
    if args.out:
        record = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
                  "env": env, "accuracy": accuracy, "samples": samples, "result": result}
        with open(args.out, "a", encoding="utf-8") as fh:
            fh.write(json.dumps(record) + "\n")
    print("accuracy " + json.dumps({k: {"value": v, "unit": ACCURACY_UNITS[k], "limit": GATES.get(k)}
                                    for k, v in accuracy.items()}))
    print("env " + json.dumps(env))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
