"""Command-line pipeline: synth | train | detect | eval.

`train`, `detect` and `eval` run `detector.train_model`,
`detector.detect_recording` and `metrics.evaluate`; each command here only
parses its settings, reads its inputs, maps errors to exit codes and writes.
`train` writes the model's three files and `detect` reads them.

Exit codes: 0 success, 2 config or IO problem (a model file that is
malformed or does not fit the model's other files included), 3 groundtruth
missing where required, 4 model/data mismatch (`detector.ModelMismatch`:
dimensions, or codes that fail the warm-start check; or a recording sampled
at another rate than the model's training recordings), 5 evaluation
impossible.
Runs are deterministic given the config file and --seed.

`detect` resolves each setting as a CLI flag over a `--config` key over the
model's `.params`; `train` as a flag over a `--config` key over the `--mode`
preset.  A setting that none of them gives is not passed on, so the
function or dataclass it configures applies its own default.
"""

from __future__ import annotations

import argparse
import sys
from contextlib import contextmanager
from dataclasses import asdict, fields
from typing import Callable, NamedTuple

import numpy as np

from . import io as bio
from .detector import (
    DEFAULT_DFT_BAND_HZ,
    DEFAULT_STEP_S,
    DEFAULT_WINDOW_S,
    DetectionParams,
    Model,
    ModelMismatch,
    detect_recording,
    hr_from_beats,
    train_model,
    window_starts,
)
from .dlfumi import FumiParams
from .metrics import evaluate
from .signals import Preprocessing
from .synth import SynthConfig, generate

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NO_GROUNDTRUTH = 3
EXIT_MODEL_MISMATCH = 4
EXIT_EVAL_IMPOSSIBLE = 5

# Learner settings each preset changes; individual mode is FumiParams' own
# defaults.
MODE_PRESETS = {
    "individual": {},
    "batch": {"T": 9, "M": 9, "lambda": 1e-3, "beta": 120.0},
}


class CliError(Exception):
    def __init__(self, code: int, message: str):
        super().__init__(message)
        self.code = code


@contextmanager
def _fails(code: int, prefix: str = "", errors=ValueError):
    """Exit `code` on an error of type `errors` in the block, with the
    message `prefix` followed by the error's."""
    try:
        yield
    except errors as exc:
        raise CliError(code, f"{prefix}{exc}") from exc


def _load(read, path: str, what: str):
    """read(path), with a file it rejects as exit 2 (`cannot read <what>`)."""
    with _fails(EXIT_CONFIG, f"cannot read {what}: ", (OSError, ValueError)):
        return read(path)


def _parse_bool(v: str) -> bool:
    s = v.strip().lower()
    if s in ("1", "true", "yes", "on"):
        return True
    if s in ("0", "false", "no", "off"):
        return False
    raise ValueError(f"not a boolean: {v!r}")


def _parse_tuple(kind):
    """A parser of comma-separated `kind` values, none empty (`kind` rejects '')."""
    return lambda v: tuple(kind(x) for x in v.split(","))


class _Setting(NamedTuple):
    """A settings-table row: the key's parser, its domain as (description,
    predicate), and the parameter it sets if named otherwise (`lambda`)."""

    parse: Callable
    domain: tuple[str, Callable] | None = None
    name: str | None = None


_AT_LEAST_1 = ("at least 1", lambda v: v >= 1)
_NON_NEGATIVE = (">= 0", lambda v: v >= 0)
_FINITE_NON_NEGATIVE = ("finite and >= 0", lambda v: 0.0 <= v < np.inf)
_POSITIVE_FINITE = ("positive and finite", lambda v: 0.0 < v < np.inf)

# Every setting.  The code a key without a domain configures checks it:
# FumiParams.validate, SynthConfig.validate, the band-pass filter and peak
# picker, window_starts, or (min_votes) the channel count (detector).
_CONFIG_PARSERS = {
    "mode": _Setting(str),
    "seed": _Setting(int, _NON_NEGATIVE),
    "T": _Setting(int),
    "M": _Setting(int),
    "lambda": _Setting(float, _FINITE_NON_NEGATIVE, "lam"),
    "gamma": _Setting(float),
    "beta": _Setting(float),
    "psi": _Setting(float),
    "inner_iters": _Setting(int),
    "max_em_iters": _Setting(int),
    "tol": _Setting(float),
    "band_low": _Setting(float),
    "band_high": _Setting(float),
    "filter_order": _Setting(int),
    "min_separation": _Setting(int),
    "half_len": _Setting(int, _AT_LEAST_1),
    "per_positive": _Setting(int, _AT_LEAST_1),
    "zscore": _Setting(_parse_bool),
    "code_iters": _Setting(int, _AT_LEAST_1),
    "threshold": _Setting(float, ("finite", np.isfinite)),
    "neighborhood": _Setting(int, _NON_NEGATIVE),
    "min_votes": _Setting(int),
    "refractory_s": _Setting(float, _FINITE_NON_NEGATIVE),
    "window_s": _Setting(float),
    "step_s": _Setting(float),
    "dft_band_low": _Setting(float, _POSITIVE_FINITE),
    "dft_band_high": _Setting(float, _POSITIVE_FINITE),
    "duration_s": _Setting(float),
    "fs": _Setting(float),
    "hr_bpm": _Setting(float),
    "hrv_amp_bpm": _Setting(float),
    "hrv_period_s": _Setting(float),
    "template_carrier_hz": _Setting(float),
    "template_width_s": _Setting(float),
    "gains": _Setting(_parse_tuple(float)),
    "delays": _Setting(_parse_tuple(int)),
    "jitter_sd_samples": _Setting(float),
    "respiration_amp": _Setting(float),
    "respiration_hz": _Setting(float),
    "noise_sd": _Setting(float),
    "snr_db": _Setting(float),
    "artifact_rate_per_min": _Setting(float),
    "artifact_amp": _Setting(float),
    "artifact_width_s": _Setting(_parse_tuple(float)),
}

# The FumiParams fields; train also takes each as a flag.
_LEARNER_KEYS = ("T", "M", "lambda", "gamma", "beta", "psi", "inner_iters", "max_em_iters", "tol")
_PREPROCESS_KEYS = tuple(f.name for f in fields(Preprocessing))
_VOTING_KEYS = tuple(f.name for f in fields(DetectionParams))
# What train stores in .params, under the parameter names, for detect to read:
# the voting and coding settings, and the sample rate and preprocessing the
# dictionary's windows were cut at.
_STORED_KEYS = (*_VOTING_KEYS, "lambda", "code_iters", "fs", *_PREPROCESS_KEYS)


def _name(key: str) -> str:
    """The parameter that setting `key` sets."""
    return _CONFIG_PARSERS[key].name or key


def _checked(values: dict) -> dict:
    """`values`, each checked against its key's domain: exit 2 on the first
    one outside it."""
    for key, value in values.items():
        domain = _CONFIG_PARSERS[key].domain
        if domain is not None and not domain[1](value):
            raise CliError(EXIT_CONFIG, f"bad setting {key}={value!r}: must be {domain[0]}")
    return values


def load_settings(args) -> dict:
    """The settings given on the command line: the keys of the --config
    file and, over them, every flag whose dest is a config key, each
    checked against its domain.  `mode` is always set, and is one of
    MODE_PRESETS."""
    given: dict = {}
    if args.config is not None:
        for k, v in _load(bio.read_keyvalue, args.config, "config").items():
            if k not in _CONFIG_PARSERS:
                raise CliError(EXIT_CONFIG, f"unknown config key {k!r}")
            with _fails(EXIT_CONFIG, f"bad value for {k!r}: "):
                given[k] = _CONFIG_PARSERS[k].parse(v)
    given.update(
        (k, v) for k, v in vars(args).items() if k in _CONFIG_PARSERS and v is not None
    )
    given.setdefault("mode", "individual")
    if given["mode"] not in MODE_PRESETS:
        raise CliError(EXIT_CONFIG, f"unknown mode {given['mode']!r}")
    return _checked(given)


def _kwargs(settings: dict, keys) -> dict:
    """The settings among `keys` that some source gave, keyed by the
    parameter each one sets."""
    return {_name(k): settings[k] for k in keys if k in settings}


def _read_params(path: str) -> dict:
    """Every setting train stored in its .params file (`_STORED_KEYS`, all
    required and no other key), each checked against its domain, and `fs`
    positive and finite (synth checks the `fs` it is given itself)."""
    stored = _load(bio.read_keyvalue, path, f"params {path}")
    with _fails(EXIT_CONFIG, f"malformed detection params {path}: ", (KeyError, ValueError)):
        unknown = sorted(stored.keys() - {_name(k) for k in _STORED_KEYS})
        if unknown:
            raise ValueError(f"unknown key {unknown[0]!r}")
        values = _checked({k: _CONFIG_PARSERS[k].parse(stored[_name(k)]) for k in _STORED_KEYS})
        if not _POSITIVE_FINITE[1](values["fs"]):
            raise ValueError(f"fs={values['fs']!r} must be {_POSITIVE_FINITE[0]}")
        return values


def _sibling(path: str, new_tail: str) -> str:
    base = path[:-4] if path.endswith(".csv") else path
    return base + new_tail


def _hr_grid(path: str, duration_s: float, fs: float, given: dict) -> tuple[float, float]:
    """The run's HR window and step, checked to fit a window in `duration_s`
    and to step by at least one sample at `fs` Hz, so the grid has at most
    one window per sample."""
    window_s = given.get("window_s", DEFAULT_WINDOW_S)
    step_s = given.get("step_s", DEFAULT_STEP_S)
    if 0.0 < step_s < 1.0 / fs:
        raise CliError(
            EXIT_CONFIG,
            f"bad HR window grid: step_s={step_s!r} is shorter than one sample ({1.0 / fs:g} s)",
        )
    with _fails(EXIT_CONFIG, "bad HR window grid: "):
        starts = window_starts(duration_s, window_s, step_s)
    if starts.size == 0:
        raise CliError(
            EXIT_EVAL_IMPOSSIBLE,
            f"{path} lasts {duration_s:g} s, "
            f"shorter than one {window_s:g}-s HR window",
        )
    return window_s, step_s


# --- synth -------------------------------------------------------------------


def cmd_synth(args) -> int:
    given = load_settings(args)
    with _fails(EXIT_CONFIG, "bad synthesis config: "):
        result = generate(SynthConfig(**_kwargs(given, [f.name for f in fields(SynthConfig)])))
    bio.write_recording(args.out, result.recording)
    bio.write_synth_sidecar(_sibling(args.out, ".sidecar"), result)
    print(
        f"wrote {args.out}: {result.recording.duration_s:g} s, "
        f"{len(result.recording.channels)} channels, "
        f"{result.recording.gt_beat_times.size} beats, noise sd {result.noise_sd:g}"
    )
    return EXIT_OK


# --- train -------------------------------------------------------------------


def cmd_train(args) -> int:
    given = load_settings(args)
    settings = {**MODE_PRESETS[given["mode"]], **given}
    params = FumiParams(**_kwargs(settings, _LEARNER_KEYS))
    with _fails(EXIT_CONFIG):
        params.validate()

    recs = []
    for path in args.recordings:
        rec = _load(bio.read_recording, path, f"recording {path}")
        if rec.gt_beat_times is None or rec.gt_beat_times.size == 0:
            raise CliError(EXIT_NO_GROUNDTRUTH, f"{path} has no groundtruth beats")
        recs.append(rec)
    pre = Preprocessing(**_kwargs(settings, _PREPROCESS_KEYS))
    keys = ["code_iters", "seed", "per_positive", "min_votes", "refractory_s"]
    with _fails(EXIT_CONFIG):
        model, trace = train_model(recs, params, pre, **_kwargs(settings, keys))
    for i, v in enumerate(trace, 1):
        print(f"em_iter={i} objective={v!r}")

    bio.write_dictionary(args.out, model.dictionary)
    bio.write_covariance(_sibling(args.out, ".cov.csv"), model.background)
    stored = {**asdict(model.detection), "lambda": model.lam, "code_iters": model.code_iters,
              "fs": model.fs, **asdict(model.pre)}
    bio.write_keyvalue(
        _sibling(args.out, ".params"), {_name(k): repr(stored[k]) for k in _STORED_KEYS}
    )
    print(
        f"wrote {args.out} (+ .cov.csv, .params): "
        f"threshold={model.detection.threshold:g} neighborhood={model.detection.neighborhood}"
    )
    return EXIT_OK


# --- detect ------------------------------------------------------------------


def cmd_detect(args) -> int:
    given = load_settings(args)
    rec = _load(bio.read_recording, args.recording, f"recording {args.recording}")
    window_s, step_s = _hr_grid(args.recording, rec.duration_s, rec.sample_rate_hz, given)
    D = _load(bio.read_dictionary, args.dict, "dictionary")
    cov_path = _sibling(args.dict, ".cov.csv")
    background = _load(bio.read_covariance, cov_path, f"covariance {cov_path}")
    stored = _read_params(_sibling(args.dict, ".params"))
    for key in _PREPROCESS_KEYS:  # the model's windows were cut under these
        if key in given and given[key] != stored[key]:
            raise CliError(EXIT_CONFIG, f"{key}={given[key]!r} differs from the model's "
                           f"{key}={stored[key]!r}; retrain to change it")
    settings = {**stored, **given}
    with _fails(EXIT_CONFIG, f"bad model {args.dict}: "):
        model = Model(
            D, background, DetectionParams(**_kwargs(settings, _VOTING_KEYS)),
            lam=settings["lambda"], code_iters=settings["code_iters"], fs=stored["fs"],
            pre=Preprocessing(**_kwargs(stored, _PREPROCESS_KEYS)),
        )
    band_hz = (settings.get("dft_band_low", DEFAULT_DFT_BAND_HZ[0]),
               settings.get("dft_band_high", DEFAULT_DFT_BAND_HZ[1])) if args.dft else None
    try:
        beats, hr = detect_recording(rec, model, window_s, step_s, band_hz)
    except ModelMismatch as exc:
        msg = f"{exc}; the model does not fit {args.recording}"
        raise CliError(EXIT_MODEL_MISMATCH, msg) from exc
    except ValueError as exc:
        raise CliError(EXIT_CONFIG, str(exc)) from exc

    bio.write_beats(args.out + ".beats.csv", beats, rec.sample_rate_hz)
    bio.write_hr(args.out + ".hr.csv", hr)
    n_est = int(np.sum(~np.isnan(hr.bpm)))
    print(
        f"wrote {args.out}.beats.csv ({len(beats)} beats) and "
        f"{args.out}.hr.csv ({n_est}/{hr.n_windows} windows estimated)"
    )
    return EXIT_OK


# --- eval --------------------------------------------------------------------


def cmd_eval(args) -> int:
    given = load_settings(args)
    path = args.groundtruth
    fs, n_samples, gt = _load(bio.read_groundtruth, path, f"recording {path}")
    duration_s = n_samples / fs
    if gt is None or gt.size == 0:
        raise CliError(EXIT_NO_GROUNDTRUTH, f"{path} has no groundtruth beats")
    window_s, step_s = _hr_grid(path, duration_s, fs, given)
    gt_hr = hr_from_beats(gt, fs, window_s=window_s, step_s=step_s, duration_s=duration_s)
    est_hr = _load(bio.read_hr, args.est_hr, "HR series")

    est_times = None
    if args.est_beats is not None:
        est_idx, est_times, _ = _load(bio.read_beats, args.est_beats, "beats")
        off = np.flatnonzero(np.abs(est_times - est_idx / fs) > 0.5 / fs)
        if off.size:  # the first row whose time is not its index's
            raise CliError(EXIT_EVAL_IMPOSSIBLE, f"{args.est_beats}: beat row {off[0] + 1}: beat_time_s "
                           f"{float(est_times[off[0]])!r} is not beat_index {est_idx[off[0]]} / {fs:g} Hz")
        outside = est_times[(est_times < 0.0) | (est_times >= duration_s)]
        if outside.size:
            raise CliError(EXIT_EVAL_IMPOSSIBLE, f"{args.est_beats}: a beat at "
                           f"{float(outside[0])!r} s lies outside {path}, which lasts {duration_s:g} s")
    base_hr = None if args.baseline_hr is None else _load(bio.read_hr, args.baseline_hr, "baseline HR")
    with _fails(EXIT_EVAL_IMPOSSIBLE):
        report, rows, bbi_impossible = evaluate(gt_hr, est_hr, est_times, gt / fs, base_hr)
    if bbi_impossible:
        raise CliError(EXIT_EVAL_IMPOSSIBLE, bbi_impossible)

    bio.write_keyvalue(args.out, report)
    with open(args.out + ".windows.csv", "w", encoding="utf-8", newline="\n") as fh:
        fh.write("window_center_s,est_bpm,gt_bpm,abs_err_bpm\n")
        fh.writelines(f"{t!r},{e!r},{g!r},{err!r}\n" for t, e, g, err in rows)
    for k, v in report.items():
        print(f"{k}={v}")
    return EXIT_OK


# --- entry point ---------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="bcgbeat",
        description="BCG heartbeat detection via multiple-instance dictionary learning",
    )
    sub = p.add_subparsers(dest="command", required=True)

    ps = sub.add_parser("synth", help="generate a synthetic recording")
    ps.add_argument("--config", help="key=value config file")
    ps.add_argument("--seed", type=int, default=None)
    ps.add_argument("--out", required=True, help="output recording CSV")
    ps.set_defaults(func=cmd_synth)

    pt = sub.add_parser("train", help="learn a dictionary from recordings")
    pt.add_argument("recordings", nargs="+", help="recording CSVs with groundtruth")
    pt.add_argument("--config", help="key=value config file")
    pt.add_argument("--seed", type=int, default=None)
    pt.add_argument("--mode", choices=sorted(MODE_PRESETS), default=None)
    pt.add_argument("--out", required=True, help="output dictionary CSV")
    for key in _LEARNER_KEYS:
        pt.add_argument("--" + key, type=_CONFIG_PARSERS[key].parse)
    pt.set_defaults(func=cmd_train)

    pd = sub.add_parser("detect", help="detect beats with a trained dictionary")
    pd.add_argument("recording", help="recording CSV")
    pd.add_argument("--dict", required=True, help="dictionary CSV from train")
    pd.add_argument("--config", help="key=value config file")
    pd.add_argument("--dft", action="store_true", help="estimate HR spectrally instead of beat-to-beat")
    pd.add_argument("--out", required=True, help="output prefix (.beats.csv / .hr.csv)")
    pd.set_defaults(func=cmd_detect)

    pe = sub.add_parser("eval", help="compare an estimate against groundtruth")
    pe.add_argument("groundtruth", help="recording CSV with gt column")
    pe.add_argument("--est-hr", required=True, help="estimated HR CSV")
    pe.add_argument("--est-beats", default=None, help="estimated beats CSV")
    pe.add_argument("--baseline-hr", default=None,
                    help="any other estimator's HR CSV, on the same windows, for a paired t test")
    pe.add_argument("--config", help="key=value config file")
    pe.add_argument("--out", required=True, help="metrics report path")
    pe.set_defaults(func=cmd_eval)
    return p


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (CliError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.code if isinstance(exc, CliError) else EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
