"""Command-line pipeline: synth | train | detect | eval.

Exit codes: 0 success, 2 config or IO problem, 3 groundtruth missing where
required, 4 model/data mismatch (dimensions, or codes that fail the
warm-start check), 5 evaluation impossible.
Runs are deterministic given the config file and --seed.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import dataclass

import numpy as np

from . import io as bio
from .detector import (
    DEFAULT_CODE_ITERS,
    DetectionParams,
    background_covariance,
    code_blocks,
    confidence_series,
    hr_from_beats,
    hr_from_confidence_dft,
    learn_detection_params_pooled,
    vote_beats,
)
from .dlfumi import FumiParams, fit
from .metrics import (
    bbi_relative_error,
    bland_altman,
    mae,
    matched_interval_pairs,
    paired_t,
    pearson_r,
    per_window_errors,
)
from .signals import (
    DEFAULT_BAND_HZ,
    DEFAULT_FILTER_ORDER,
    DEFAULT_HALF_LEN,
    DEFAULT_MIN_SEPARATION,
    DEFAULT_PER_POSITIVE,
    bag_columns,
    build_bags,
    preprocess_recording,
)
from .synth import SynthConfig, generate

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NO_GROUNDTRUTH = 3
EXIT_MODEL_MISMATCH = 4
EXIT_EVAL_IMPOSSIBLE = 5

MODE_PRESETS = {
    "individual": dict(T=3, M=3, lam=5e-3, gamma=5e-3, beta=90.0),
    "batch": dict(T=9, M=9, lam=1e-3, gamma=5e-3, beta=120.0),
}
# exercise reuses a dictionary trained elsewhere; training in this mode
# anyway gets the individual preset.
MODE_PRESETS["exercise"] = MODE_PRESETS["individual"]


class CliError(Exception):
    def __init__(self, code: int, message: str):
        super().__init__(message)
        self.code = code


def _parse_bool(v: str) -> bool:
    s = v.strip().lower()
    if s in ("1", "true", "yes", "on"):
        return True
    if s in ("0", "false", "no", "off"):
        return False
    raise ValueError(f"not a boolean: {v!r}")


def _parse_floats(v: str):
    return tuple(float(x) for x in v.split(",") if x.strip() != "")


def _parse_ints(v: str):
    return tuple(int(x) for x in v.split(",") if x.strip() != "")


_CONFIG_PARSERS = {
    "mode": str,
    "seed": int,
    "T": int,
    "M": int,
    "lambda": float,
    "gamma": float,
    "beta": float,
    "psi": float,
    "inner_iters": int,
    "max_em_iters": int,
    "tol": float,
    "band_low": float,
    "band_high": float,
    "filter_order": int,
    "min_separation": int,
    "half_len": int,
    "per_positive": int,
    "zscore": _parse_bool,
    "code_iters": int,
    "threshold": float,
    "neighborhood": int,
    "min_votes": int,
    "refractory_s": float,
    "window_s": float,
    "step_s": float,
    "dft_band_low": float,
    "dft_band_high": float,
    "dft_pulse_width_s": float,
    "duration_s": float,
    "fs": float,
    "hr_bpm": float,
    "hrv_amp_bpm": float,
    "hrv_period_s": float,
    "template_carrier_hz": float,
    "template_width_s": float,
    "gains": _parse_floats,
    "delays": _parse_ints,
    "jitter_sd_samples": float,
    "respiration_amp": float,
    "respiration_hz": float,
    "noise_sd": float,
    "snr_db": float,
    "artifact_rate_per_min": float,
    "artifact_amp": float,
    "artifact_width_s": _parse_floats,
}


@dataclass
class RunConfig:
    """Everything a run can configure, from one flat key=value namespace."""

    mode: str = "individual"
    seed: int = 0
    values: dict = None

    def get(self, key, default=None):
        return self.values.get(key, default)


def load_run_config(path: str | None, mode_flag: str | None, seed_flag: int | None) -> RunConfig:
    values: dict = {}
    if path is not None:
        try:
            raw = bio.read_keyvalue(path)
        except (OSError, ValueError) as exc:
            raise CliError(EXIT_CONFIG, f"cannot read config: {exc}") from exc
        for k, v in raw.items():
            if k not in _CONFIG_PARSERS:
                raise CliError(EXIT_CONFIG, f"unknown config key {k!r}")
            try:
                values[k] = _CONFIG_PARSERS[k](v)
            except ValueError as exc:
                raise CliError(EXIT_CONFIG, f"bad value for {k!r}: {exc}") from exc
    mode = mode_flag or values.get("mode", "individual")
    if mode not in MODE_PRESETS:
        raise CliError(EXIT_CONFIG, f"unknown mode {mode!r}")
    seed = seed_flag if seed_flag is not None else values.get("seed", 0)
    return RunConfig(mode=mode, seed=int(seed), values=values)


def _fumi_params(cfg: RunConfig, args) -> FumiParams:
    kw = dict(MODE_PRESETS[cfg.mode])
    mapping = {
        "T": "T",
        "M": "M",
        "lambda": "lam",
        "gamma": "gamma",
        "beta": "beta",
        "psi": "psi",
        "inner_iters": "inner_iters",
        "max_em_iters": "max_em_iters",
        "tol": "tol",
    }
    for key, attr in mapping.items():
        if key in cfg.values:
            kw[attr] = cfg.values[key]
    for key, attr in mapping.items():
        flag = getattr(args, key.replace("lambda", "lam"), None)
        if flag is not None:
            kw[attr] = flag
    return FumiParams(**kw)


def _preprocess_kwargs(cfg: RunConfig) -> dict:
    return dict(
        low=cfg.get("band_low", DEFAULT_BAND_HZ[0]),
        high=cfg.get("band_high", DEFAULT_BAND_HZ[1]),
        order=cfg.get("filter_order", DEFAULT_FILTER_ORDER),
        min_separation=cfg.get("min_separation", DEFAULT_MIN_SEPARATION),
        half_len=cfg.get("half_len", DEFAULT_HALF_LEN),
        zscore=cfg.get("zscore", False),
    )


def _sibling(path: str, new_tail: str) -> str:
    base = path[:-4] if path.endswith(".csv") else path
    return base + new_tail


def _read_recording(read, path: str):
    """read(path), with a file it rejects as exit 2."""
    try:
        return read(path)
    except (OSError, ValueError) as exc:
        raise CliError(EXIT_CONFIG, f"cannot read recording {path}: {exc}") from exc


def _require_one_window(path: str, duration_s: float, window_s: float) -> None:
    if duration_s < window_s:
        raise CliError(
            EXIT_EVAL_IMPOSSIBLE,
            f"{path} lasts {duration_s:g} s, "
            f"shorter than one {window_s:g}-s HR window",
        )


# --- synth -------------------------------------------------------------------


def cmd_synth(args) -> int:
    cfg = load_run_config(args.config, None, args.seed)
    kw = {}
    for key in (
        "duration_s",
        "fs",
        "hr_bpm",
        "hrv_amp_bpm",
        "hrv_period_s",
        "template_carrier_hz",
        "template_width_s",
        "half_len",
        "gains",
        "delays",
        "jitter_sd_samples",
        "respiration_amp",
        "respiration_hz",
        "noise_sd",
        "snr_db",
        "artifact_rate_per_min",
        "artifact_amp",
        "artifact_width_s",
    ):
        if key in cfg.values:
            kw[key] = cfg.values[key]
    try:
        synth_cfg = SynthConfig(seed=cfg.seed, **kw)
        result = generate(synth_cfg)
    except ValueError as exc:
        raise CliError(EXIT_CONFIG, f"bad synthesis config: {exc}") from exc
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
    cfg = load_run_config(args.config, args.mode, args.seed)
    params = _fumi_params(cfg, args)
    try:
        params.validate()
    except ValueError as exc:
        raise CliError(EXIT_CONFIG, str(exc)) from exc
    pk = _preprocess_kwargs(cfg)
    per_pos = cfg.get("per_positive", DEFAULT_PER_POSITIVE)
    code_iters = cfg.get("code_iters", DEFAULT_CODE_ITERS)

    recs = []
    for path in args.recordings:
        rec = _read_recording(bio.read_recording, path)
        if rec.gt_beat_times is None or rec.gt_beat_times.size == 0:
            raise CliError(EXIT_NO_GROUNDTRUTH, f"{path} has no groundtruth beats")
        recs.append(rec)
    # A window of 2*half_len+1 samples spans a different time at another
    # rate, so windows of mixed rates are not one heartbeat concept.
    for path, rec in zip(args.recordings, recs):
        if rec.sample_rate_hz != recs[0].sample_rate_hz:
            raise CliError(
                EXIT_CONFIG,
                f"{path} is sampled at {rec.sample_rate_hz:g} Hz but "
                f"{args.recordings[0]} at {recs[0].sample_rate_hz:g} Hz; "
                "train on recordings of one sample rate",
            )
    blocks = [preprocess_recording(rec, **pk) for rec in recs]
    bags = [
        bag for rec, b in zip(recs, blocks) for bag in build_bags(b, rec.gt_beat_times, per_pos)
    ]

    try:
        result = fit(bags, params, seed=cfg.seed)
    except ValueError as exc:
        raise CliError(EXIT_CONFIG, f"training failed: {exc}") from exc
    for i, v in enumerate(result.objective_trace, 1):
        print(f"em_iter={i} objective={v!r}")

    model = background_covariance(bag_columns(bags, 0))
    del bags  # the voting-parameter grid needs only the blocks

    # The voting-parameter grid scores the blocks the bags were built from.
    series_list = [
        code_blocks(rec, b, result.dictionary, model, lam=params.lam, n_iter=code_iters)
        for rec, b in zip(recs, blocks)
    ]
    dparams = learn_detection_params_pooled(series_list, [rec.gt_beat_times for rec in recs])

    bio.write_dictionary(args.out, result.dictionary)
    bio.write_covariance(_sibling(args.out, ".cov.csv"), model)
    bio.write_keyvalue(
        _sibling(args.out, ".params"),
        {
            "threshold": repr(dparams.threshold),
            "neighborhood": dparams.neighborhood,
            "min_votes": dparams.min_votes,
            "refractory_s": repr(dparams.refractory_s),
            "lam": repr(params.lam),
            "code_iters": code_iters,
        },
    )
    print(
        f"wrote {args.out} (+ .cov.csv, .params): "
        f"threshold={dparams.threshold:g} neighborhood={dparams.neighborhood}"
    )
    return EXIT_OK


# --- detect ------------------------------------------------------------------


def cmd_detect(args) -> int:
    cfg = load_run_config(args.config, args.mode, args.seed)
    rec = _read_recording(bio.read_recording, args.recording)
    window_s = cfg.get("window_s", 60.0)
    step_s = cfg.get("step_s", 15.0)
    _require_one_window(args.recording, rec.duration_s, window_s)
    try:
        D = bio.read_dictionary(args.dict)
    except (OSError, ValueError) as exc:
        raise CliError(EXIT_CONFIG, f"cannot read dictionary: {exc}") from exc

    cov_path = args.cov or _sibling(args.dict, ".cov.csv")
    try:
        model = bio.read_covariance(cov_path)
    except (OSError, ValueError) as exc:
        raise CliError(EXIT_CONFIG, f"cannot read covariance {cov_path}: {exc}") from exc

    params_path = args.params or _sibling(args.dict, ".params")
    lam = MODE_PRESETS[cfg.mode]["lam"]
    code_iters = cfg.get("code_iters", DEFAULT_CODE_ITERS)
    dkw: dict = {}
    try:
        stored = bio.read_keyvalue(params_path)
    except OSError:
        stored = {}
    except ValueError as exc:
        raise CliError(EXIT_CONFIG, f"cannot read params {params_path}: {exc}") from exc
    if stored:
        try:
            dkw = dict(
                threshold=float(stored["threshold"]),
                neighborhood=int(stored["neighborhood"]),
                min_votes=int(stored["min_votes"]),
                refractory_s=float(stored["refractory_s"]),
            )
            lam = float(stored.get("lam", lam))
            code_iters = int(stored.get("code_iters", code_iters))
        except (KeyError, ValueError) as exc:
            raise CliError(
                EXIT_CONFIG, f"malformed detection params {params_path}: {exc}"
            ) from exc
    for key in ("threshold", "neighborhood", "min_votes", "refractory_s"):
        if key in cfg.values:
            dkw[key] = cfg.values[key]
    if "lambda" in cfg.values:
        lam = cfg.values["lambda"]
    dparams = DetectionParams(**dkw)

    pk = _preprocess_kwargs(cfg)
    try:
        series = confidence_series(rec, D, model, lam=lam, n_iter=code_iters, **pk)
    except ValueError as exc:
        if "does not match" in str(exc):
            raise CliError(EXIT_MODEL_MISMATCH, str(exc)) from exc
        raise CliError(EXIT_CONFIG, str(exc)) from exc
    except RuntimeError as exc:
        # the model's codes for this recording fail the warm-start check
        raise CliError(
            EXIT_MODEL_MISMATCH, f"{exc}; the model does not fit {args.recording}"
        ) from exc

    beats = vote_beats(series, dparams)
    if args.dft:
        hr = hr_from_confidence_dft(
            series,
            window_s=window_s,
            step_s=step_s,
            band_hz=(cfg.get("dft_band_low", 0.66), cfg.get("dft_band_high", 3.0)),
            pulse_width_s=cfg.get("dft_pulse_width_s", 0.0),
        )
    else:
        hr = hr_from_beats(
            np.asarray([b[0] for b in beats]),
            rec.sample_rate_hz,
            window_s=window_s,
            step_s=step_s,
            duration_s=rec.duration_s,
        )
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
    cfg = load_run_config(args.config, None, None)
    fs, n_samples, gt = _read_recording(bio.read_groundtruth, args.groundtruth)
    duration_s = n_samples / fs
    window_s = cfg.get("window_s", 60.0)
    step_s = cfg.get("step_s", 15.0)
    if gt is None or gt.size == 0:
        raise CliError(
            EXIT_NO_GROUNDTRUTH, f"{args.groundtruth} has no groundtruth beats"
        )
    _require_one_window(args.groundtruth, duration_s, window_s)
    gt_hr = hr_from_beats(
        gt, fs, window_s=window_s, step_s=step_s, duration_s=duration_s
    )
    try:
        est_hr = bio.read_hr(args.est_hr)
    except (OSError, ValueError) as exc:
        raise CliError(EXIT_CONFIG, f"cannot read HR series: {exc}") from exc

    report: dict = {}
    try:
        report["mae_bpm"] = repr(mae(est_hr, gt_hr))
    except ValueError as exc:
        raise CliError(EXIT_EVAL_IMPOSSIBLE, f"HR comparison impossible: {exc}") from exc
    rows = per_window_errors(est_hr, gt_hr)
    report["n_windows_compared"] = len(rows)
    if len(rows) >= 2:
        e = np.asarray([r[1] for r in rows])
        g = np.asarray([r[2] for r in rows])
        try:
            report["pearson_r"] = repr(pearson_r(e, g))
        except ValueError:
            pass

    if args.est_beats is not None:
        try:
            _, est_times, _ = bio.read_beats(args.est_beats)
        except (OSError, ValueError) as exc:
            raise CliError(EXIT_CONFIG, f"cannot read beats: {exc}") from exc
        gt_times = gt / fs
        try:
            report["bbi_relative_error_pct"] = repr(
                bbi_relative_error(est_times, gt_times)
            )
        except ValueError as exc:
            raise CliError(
                EXIT_EVAL_IMPOSSIBLE, f"BBI comparison impossible: {exc}"
            ) from exc
        e_iv, g_iv = matched_interval_pairs(est_times, gt_times)
        if e_iv.size >= 2:
            stats = bland_altman(60.0 / e_iv, 60.0 / g_iv)
            report["bland_altman_bias_bpm"] = repr(stats.bias)
            report["bland_altman_sd_bpm"] = repr(stats.sd)
            report["bland_altman_loa_low_bpm"] = repr(stats.loa_low)
            report["bland_altman_loa_high_bpm"] = repr(stats.loa_high)
            report["n_beat_pairs"] = stats.n

    if args.baseline_hr is not None:
        try:
            base_hr = bio.read_hr(args.baseline_hr)
        except (OSError, ValueError) as exc:
            raise CliError(EXIT_CONFIG, f"cannot read baseline HR: {exc}") from exc
        est_rows = {r[0]: r[3] for r in per_window_errors(est_hr, gt_hr)}
        base_rows = {r[0]: r[3] for r in per_window_errors(base_hr, gt_hr)}
        common = sorted(set(est_rows) & set(base_rows))
        est_errs = np.asarray([est_rows[t] for t in common])
        base_errs = np.asarray([base_rows[t] for t in common])
        try:
            t_stat = paired_t(est_errs, base_errs)
        except ValueError as exc:
            raise CliError(
                EXIT_EVAL_IMPOSSIBLE, f"paired comparison impossible: {exc}"
            ) from exc
        report["paired_t_stat"] = repr(t_stat)
        report["paired_t_df"] = len(common) - 1

    bio.write_keyvalue(args.out, report)
    with open(args.out + ".windows.csv", "w", encoding="utf-8", newline="\n") as fh:
        fh.write("window_center_s,est_bpm,gt_bpm,abs_err_bpm\n")
        for t, e, g, err in rows:
            fh.write(f"{t!r},{e!r},{g!r},{err!r}\n")
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
    for flag, typ in (
        ("--T", int),
        ("--M", int),
        ("--lambda", float),
        ("--gamma", float),
        ("--beta", float),
        ("--psi", float),
        ("--inner_iters", int),
        ("--max_em_iters", int),
        ("--tol", float),
    ):
        pt.add_argument(flag, dest=flag.lstrip("-").replace("lambda", "lam"), type=typ, default=None)
    pt.set_defaults(func=cmd_train)

    pd = sub.add_parser("detect", help="detect beats with a trained dictionary")
    pd.add_argument("recording", help="recording CSV")
    pd.add_argument("--dict", required=True, help="dictionary CSV from train")
    pd.add_argument("--cov", default=None, help="covariance sidecar (default: next to --dict)")
    pd.add_argument("--params", default=None, help="detection params file (default: next to --dict)")
    pd.add_argument("--config", help="key=value config file")
    pd.add_argument("--seed", type=int, default=None)
    pd.add_argument("--mode", choices=sorted(MODE_PRESETS), default=None)
    pd.add_argument("--dft", action="store_true", help="estimate HR spectrally instead of beat-to-beat")
    pd.add_argument("--out", required=True, help="output prefix (.beats.csv / .hr.csv)")
    pd.set_defaults(func=cmd_detect)

    pe = sub.add_parser("eval", help="compare an estimate against groundtruth")
    pe.add_argument("groundtruth", help="recording CSV with gt column")
    pe.add_argument("--est-hr", required=True, help="estimated HR CSV")
    pe.add_argument("--est-beats", default=None, help="estimated beats CSV")
    pe.add_argument("--baseline-hr", default=None, help="baseline HR CSV for a paired test")
    pe.add_argument("--config", help="key=value config file")
    pe.add_argument("--out", required=True, help="metrics report path")
    pe.set_defaults(func=cmd_eval)
    return p


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.code
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
