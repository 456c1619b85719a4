"""File formats: recordings, dictionaries, beats, HR series, key=value.

All text files are UTF-8 with LF line endings.  Floats are written with
repr (shortest round-trip form), so writing and re-reading is lossless and
two identical runs produce byte-identical files.
"""

from __future__ import annotations

import numpy as np

from .detector import BackgroundModel
from .dlfumi import Dictionary
from .metrics import HrSeries
from .signals import Recording
from .synth import SynthResult


# Largest relative deviation of a time step from 1/fs that read_recording
# accepts: room for rounded timestamps, far below any shifted or swapped row.
_T_STEP_RTOL = 1e-3


def _f(x) -> str:
    return repr(float(x))


def _open_w(path):
    return open(path, "w", encoding="utf-8", newline="\n")


# --- recording CSV: t,ch0..chN[,gt] ---------------------------------------


def write_recording(path, rec: Recording) -> None:
    n_ch = len(rec.channels)
    gt = rec.gt_beat_times
    marks = np.zeros(rec.n_samples, dtype=int)
    if gt is not None:
        marks[gt] = 1
    with _open_w(path) as fh:
        header = "t," + ",".join(f"ch{c}" for c in range(n_ch))
        if gt is not None:
            header += ",gt"
        fh.write(header + "\n")
        fs = rec.sample_rate_hz
        for i in range(rec.n_samples):
            row = [_f(i / fs)] + [_f(ch[i]) for ch in rec.channels]
            if gt is not None:
                row.append(str(marks[i]))
            fh.write(",".join(row) + "\n")


def read_recording(path) -> Recording:
    with open(path, encoding="utf-8") as fh:
        header = fh.readline().strip().split(",")
        if not header or header[0] != "t":
            raise ValueError(f"{path}: not a recording CSV (missing 't' column)")
        has_gt = header[-1] == "gt"
        ch_names = header[1 : -1 if has_gt else len(header)]
        if any(not c.startswith("ch") for c in ch_names) or not ch_names:
            raise ValueError(f"{path}: malformed recording header")
        data = np.loadtxt(fh, delimiter=",", ndmin=2)
    if data.shape[1] != len(header):
        raise ValueError(f"{path}: row width disagrees with header")
    t = data[:, 0]
    if t.size < 2:
        raise ValueError(f"{path}: need at least two samples")
    dt = np.diff(t)  # dt[k] is the step into sample k + 1
    if np.any(dt <= 0):
        k = int(np.argmax(dt <= 0))
        raise ValueError(f"{path}: time column does not increase at sample {k + 1}")
    fs = round((t.size - 1) / (t[-1] - t[0]), 9)
    off_grid = np.abs(dt * fs - 1.0) > _T_STEP_RTOL
    if np.any(off_grid):
        k = int(np.argmax(off_grid))
        raise ValueError(
            f"{path}: time column is not a uniform grid at sample {k + 1} "
            f"(step {float(dt[k])!r} s, expected {1.0 / fs!r} s)"
        )
    channels = [data[:, 1 + c] for c in range(len(ch_names))]
    gt = None
    if has_gt:
        gt = np.flatnonzero(data[:, -1] != 0)
    return Recording(channels=channels, sample_rate_hz=fs, gt_beat_times=gt)


# --- dictionary CSV: kind,s0..s{d-1} ---------------------------------------


def write_dictionary(path, D: Dictionary) -> None:
    d = D.d
    with _open_w(path) as fh:
        fh.write("kind," + ",".join(f"s{i}" for i in range(d)) + "\n")
        for j in range(D.n_target):
            fh.write("target," + ",".join(_f(v) for v in D.target_atoms[:, j]) + "\n")
        for j in range(D.n_background):
            fh.write(
                "background," + ",".join(_f(v) for v in D.background_atoms[:, j]) + "\n"
            )


def read_dictionary(path) -> Dictionary:
    tgt, bg = [], []
    with open(path, encoding="utf-8") as fh:
        header = fh.readline().strip().split(",")
        if header[:1] != ["kind"] or any(
            c != f"s{i}" for i, c in enumerate(header[1:])
        ):
            raise ValueError(f"{path}: malformed dictionary header")
        d = len(header) - 1
        for line in fh:
            line = line.strip()
            if not line:
                continue
            kind, *vals = line.split(",")
            if len(vals) != d:
                raise ValueError(f"{path}: atom row width disagrees with header")
            atom = np.asarray([float(v) for v in vals])
            if kind == "target":
                tgt.append(atom)
            elif kind == "background":
                bg.append(atom)
            else:
                raise ValueError(f"{path}: unknown atom kind {kind!r}")
    if not tgt or not bg:
        raise ValueError(f"{path}: dictionary needs target and background atoms")
    return Dictionary(np.column_stack(tgt), np.column_stack(bg))


# --- covariance sidecar -----------------------------------------------------


def write_covariance(path, model: BackgroundModel) -> None:
    with _open_w(path) as fh:
        fh.write(f"ridge={_f(model.ridge)}\n")
        for row in model.covariance:
            fh.write(",".join(_f(v) for v in row) + "\n")


def read_covariance(path) -> BackgroundModel:
    with open(path, encoding="utf-8") as fh:
        first = fh.readline().strip()
        if not first.startswith("ridge="):
            raise ValueError(f"{path}: malformed covariance file")
        ridge = float(first.split("=", 1)[1])
        rows = [
            [float(v) for v in line.strip().split(",")] for line in fh if line.strip()
        ]
    return BackgroundModel(covariance=np.asarray(rows), ridge=ridge)


# --- beats CSV --------------------------------------------------------------


def write_beats(path, beats: list[tuple[int, float]], fs: float) -> None:
    with _open_w(path) as fh:
        fh.write("beat_index,beat_time_s,confidence_sum\n")
        for idx, conf in beats:
            fh.write(f"{int(idx)},{_f(idx / fs)},{_f(conf)}\n")


def read_beats(path):
    """Returns (beat_indices, beat_times_s, confidence_sums)."""
    idx, times, conf = [], [], []
    with open(path, encoding="utf-8") as fh:
        header = fh.readline().strip()
        if header != "beat_index,beat_time_s,confidence_sum":
            raise ValueError(f"{path}: malformed beats header")
        for line in fh:
            line = line.strip()
            if not line:
                continue
            a, b, c = line.split(",")
            idx.append(int(a))
            times.append(float(b))
            conf.append(float(c))
    return np.asarray(idx, dtype=int), np.asarray(times), np.asarray(conf)


# --- HR series CSV ----------------------------------------------------------


def write_hr(path, series: HrSeries) -> None:
    with _open_w(path) as fh:
        fh.write("window_center_s,hr_bpm\n")
        for t, v in zip(series.times, series.bpm):
            fh.write(f"{_f(t)},{'' if np.isnan(v) else _f(v)}\n")


def read_hr(path) -> HrSeries:
    times, bpm = [], []
    with open(path, encoding="utf-8") as fh:
        header = fh.readline().strip()
        if header != "window_center_s,hr_bpm":
            raise ValueError(f"{path}: malformed HR header")
        for line in fh:
            line = line.rstrip("\n")
            if not line:
                continue
            a, b = line.split(",")
            times.append(float(a))
            bpm.append(float(b) if b != "" else np.nan)
    return HrSeries(times=np.asarray(times), bpm=np.asarray(bpm))


# --- key=value files (configs, detection params, reports, sidecars) ---------


def write_keyvalue(path, entries: dict) -> None:
    with _open_w(path) as fh:
        for k, v in entries.items():
            fh.write(f"{k}={v}\n")


def read_keyvalue(path) -> dict:
    out: dict[str, str] = {}
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected key=value")
            k, v = line.split("=", 1)
            out[k.strip()] = v.strip()
    return out


def write_synth_sidecar(path, result: SynthResult) -> None:
    cfg = result.config
    entries = {
        "duration_s": _f(cfg.duration_s),
        "fs": _f(cfg.fs),
        "hr_bpm": _f(cfg.hr_bpm),
        "hrv_amp_bpm": _f(cfg.hrv_amp_bpm),
        "hrv_period_s": _f(cfg.hrv_period_s),
        "template_carrier_hz": _f(cfg.template_carrier_hz),
        "template_width_s": _f(cfg.template_width_s),
        "half_len": int(cfg.half_len),
        "gains": ",".join(_f(g) for g in cfg.gains),
        "delays": ",".join(str(int(d)) for d in cfg.delays),
        "jitter_sd_samples": _f(cfg.jitter_sd_samples),
        "respiration_amp": _f(cfg.respiration_amp),
        "respiration_hz": _f(cfg.respiration_hz),
        "noise_sd_effective": _f(result.noise_sd),
        "snr_db": "" if cfg.snr_db is None else _f(cfg.snr_db),
        "artifact_rate_per_min": _f(cfg.artifact_rate_per_min),
        "artifact_amp": _f(cfg.artifact_amp),
        "artifact_width_s": ",".join(_f(v) for v in cfg.artifact_width_s),
        "seed": int(cfg.seed),
        "template": ",".join(_f(v) for v in result.template),
    }
    write_keyvalue(path, entries)


def read_synth_sidecar_template(path) -> np.ndarray:
    kv = read_keyvalue(path)
    if "template" not in kv:
        raise ValueError(f"{path}: sidecar has no template entry")
    return np.asarray([float(v) for v in kv["template"].split(",")])
