"""File formats: recordings, dictionaries, beats, HR series, key=value.

All text files are UTF-8 with LF line endings.  Floats are written with
repr (shortest round-trip form), so writing and re-reading is lossless and
two identical runs produce byte-identical files.
"""

from __future__ import annotations

import warnings

import numpy as np

from .detector import BackgroundModel
from .dlfumi import Dictionary
from .metrics import HrSeries
from .signals import Recording
from .synth import SynthResult


# Largest relative deviation of a time step from 1/fs that the recording
# readers accept: room for rounded timestamps, far below any shifted or
# swapped row.
_T_STEP_RTOL = 1e-3


def _f(x) -> str:
    return repr(float(x))


def _open_w(path):
    return open(path, "w", encoding="utf-8", newline="\n")


# --- recording CSV: t,ch0..chN[,gt] ---------------------------------------


# Rows per block: each column of a block is formatted at once, and only one
# block's text is held, never a whole recording's.
_WRITE_ROWS = 128


def write_recording(path, rec: Recording) -> None:
    fs = float(rec.sample_rate_hz)
    names = ["t", *(f"ch{c}" for c in range(len(rec.channels)))]
    columns = list(rec.channels)
    if rec.gt_beat_times is not None:
        marks = np.zeros(rec.n_samples, dtype=int)
        marks[rec.gt_beat_times] = 1
        names.append("gt")
        columns.append(marks)
    with _open_w(path) as fh:
        fh.write(",".join(names) + "\n")
        for a in range(0, rec.n_samples, _WRITE_ROWS):
            b = min(a + _WRITE_ROWS, rec.n_samples)
            block = [np.arange(a, b) / fs, *(c[a:b] for c in columns)]
            # repr of a Python float is _f's text, of an int its str
            text = [map(repr, c.tolist()) for c in block]
            fh.writelines(",".join(row) + "\n" for row in zip(*text))


def _commas(path) -> int:
    """The commas of a recording CSV as np.loadtxt's parse sees them: a
    '#' comment in a row is cut off.  Counted over raw 1-MiB blocks, so no
    copy of the whole file is held; line by line only if a '#' occurs."""
    with open(path, "rb") as fh:
        n = 0
        for block in iter(lambda: fh.read(1 << 20), b""):
            if b"#" in block:
                break
            n += block.count(b",")
        else:
            return n
    with open(path, encoding="utf-8") as fh:
        header = fh.readline()  # read whole, as _read_table does
        return header.count(",") + sum(line.split("#", 1)[0].count(",") for line in fh)


def _read_table(path, channels: bool):
    """The checks that both recording readers share.

    Checks the header, then parses `t`, the last column and, with
    `channels`, every column.  Every row must have exactly the header's
    width, `t` must be a uniform grid and `gt` must be 0 or 1.  Returns
    (sample rate, parsed columns, channel count, groundtruth beat indices
    or None).
    """
    with open(path, encoding="utf-8") as fh:
        header = fh.readline().strip().split(",")
        if not header or header[0] != "t":
            raise ValueError(f"{path}: not a recording CSV (missing 't' column)")
        has_gt = header[-1] == "gt"
        ch_names = header[1 : -1 if has_gt else len(header)]
        if any(not c.startswith("ch") for c in ch_names) or not ch_names:
            raise ValueError(f"{path}: malformed recording header")
        width = len(header)
        # loadtxt rejects a row whose width differs from the first row's;
        # the usecols parse always includes the last column, so there every
        # shorter row fails, but a longer one passes.  A file without rows
        # fails the sample count below, not with loadtxt's warning.
        with warnings.catch_warnings():
            warnings.filterwarnings("ignore", "loadtxt: input contained no data", UserWarning)
            data = np.loadtxt(
                fh, delimiter=",", ndmin=2, usecols=None if channels else (0, width - 1)
            )
    n = data.shape[0]
    if n < 2:
        raise ValueError(f"{path}: need at least two samples")
    if channels:
        wrong_width = data.shape[1] != width
    else:
        # no row is shorter, so the header and every row hold exactly
        # width - 1 commas unless some row is longer
        wrong_width = _commas(path) != (n + 1) * (width - 1)
    if wrong_width:
        raise ValueError(f"{path}: row width disagrees with header")
    t = data[:, 0]
    # The checks below report a step or span that overflows to inf, or a
    # step inf - inf, without numpy's warning.
    with np.errstate(over="ignore", invalid="ignore"):
        dt = np.diff(t)  # dt[k] is the step into sample k + 1
    not_up = ~(dt > 0)  # NaN steps too
    if np.any(not_up):
        k = int(np.argmax(not_up))
        raise ValueError(f"{path}: time column does not increase at sample {k + 1}")
    with np.errstate(over="ignore"):
        span = t[-1] - t[0]
    fs = float(round((n - 1) / span, 9))
    if not 0 < fs < np.inf:  # an infinite `t`, or a span that overflows
        raise ValueError(
            f"{path}: time column spans {float(span)!r} s, "
            "no positive finite sample rate"
        )
    off_grid = np.abs(dt * fs - 1.0) > _T_STEP_RTOL
    if np.any(off_grid):
        k = int(np.argmax(off_grid))
        raise ValueError(
            f"{path}: time column is not a uniform grid at sample {k + 1} "
            f"(step {float(dt[k])!r} s, expected {1.0 / fs!r} s)"
        )
    gt = None
    if has_gt:
        marks = data[:, -1]
        not_mark = (marks != 0) & (marks != 1)
        if np.any(not_mark):
            k = int(np.argmax(not_mark))
            raise ValueError(
                f"{path}: gt is {float(marks[k])!r} at sample {k}, not 0 or 1"
            )
        gt = np.flatnonzero(marks)
    return fs, data, len(ch_names), gt


def read_recording(path) -> Recording:
    fs, data, n_ch, gt = _read_table(path, channels=True)
    channels = [data[:, 1 + c] for c in range(n_ch)]
    return Recording(channels=channels, sample_rate_hz=fs, gt_beat_times=gt)


def read_groundtruth(path) -> tuple[float, int, np.ndarray | None]:
    """(sample rate, sample count, groundtruth beat indices or None) of a
    recording CSV, parsing only its `t` and last column.

    Rejects every file that read_recording rejects, except for a channel
    value that is not a finite number: channels are not parsed.
    """
    fs, data, _, gt = _read_table(path, channels=False)
    return fs, data.shape[0], gt


def _parse_rows(path, fh, parse) -> list:
    """parse(fields) of each non-blank line left in fh, split at commas,
    once fh has read the header line; a ValueError from parse is raised
    again naming path:line."""
    rows = []
    for lineno, line in enumerate(fh, 2):
        fields = line.strip().split(",")
        if fields == [""]:
            continue
        try:
            rows.append(parse(fields))
        except ValueError as exc:
            raise ValueError(f"{path}:{lineno}: {exc}") from None
    return rows


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
    """The dictionary of a file write_dictionary wrote; a row it rejects
    raises ValueError naming path:line."""
    with open(path, encoding="utf-8") as fh:
        header = fh.readline().strip().split(",")
        if header[:1] != ["kind"] or any(
            c != f"s{i}" for i, c in enumerate(header[1:])
        ):
            raise ValueError(f"{path}: malformed dictionary header")
        d = len(header) - 1

        def atom(fields):
            kind, *vals = fields
            if len(vals) != d:
                raise ValueError("atom row width disagrees with header")
            values = np.asarray([float(v) for v in vals])
            if not np.isfinite(values).all():
                raise ValueError("atoms must be finite")
            if kind not in ("target", "background"):
                raise ValueError(f"unknown atom kind {kind!r}")
            return kind, values

        rows = _parse_rows(path, fh, atom)
    tgt = [a for kind, a in rows if kind == "target"]
    bg = [a for kind, a in rows if kind == "background"]
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
        width = 0

        def row(fields):
            nonlocal width
            width = width or len(fields)
            if len(fields) != width:
                raise ValueError(f"expected {width} values, got {len(fields)}")
            return [float(v) for v in fields]

        cov = np.asarray(_parse_rows(path, fh, row))
    # cholesky reads only the lower triangle and lets NaN through
    if not (np.isfinite(cov).all() and np.array_equal(cov, cov.T)):
        raise ValueError(f"{path}: covariance must be finite and symmetric")
    if not 0.0 <= ridge < np.inf:
        raise ValueError(f"{path}: ridge must be finite and >= 0")
    return BackgroundModel(covariance=cov, ridge=ridge)


# --- beats CSV --------------------------------------------------------------


def write_beats(path, beats: list[tuple[int, float]], fs: float) -> None:
    with _open_w(path) as fh:
        fh.write("beat_index,beat_time_s,confidence_sum\n")
        for idx, conf in beats:
            fh.write(f"{int(idx)},{_f(idx / fs)},{_f(conf)}\n")


def _read_timed_rows(path, header: str, what: str, width: int, time_col: int, parse) -> list:
    """parse(fields) of each non-blank row after the header line, which
    must be `header`.  Every row must hold `width` values, and the times
    in column `time_col` must be finite and strictly increasing; a row that
    breaks this, or that parse rejects, raises ValueError naming path:line."""
    last = -np.inf

    def row(fields):
        nonlocal last
        if len(fields) != width:
            raise ValueError(f"expected {width} values, got {len(fields)}")
        t = float(fields[time_col])
        if not np.isfinite(t):
            raise ValueError(f"time {t!r} s is not finite")
        if not t > last:
            raise ValueError(f"time {t!r} s does not follow {last!r} s")
        parsed = parse(fields)
        last = t
        return parsed

    with open(path, encoding="utf-8") as fh:
        if fh.readline().strip() != header:
            raise ValueError(f"{path}: malformed {what} header")
        return _parse_rows(path, fh, row)


def read_beats(path):
    """Returns (beat_indices, beat_times_s, confidence_sums); the times
    must be finite and strictly increasing."""
    rows = _read_timed_rows(
        path, "beat_index,beat_time_s,confidence_sum", "beats", 3, 1,
        lambda f: (int(f[0]), float(f[1]), float(f[2])),
    )
    idx, times, conf = zip(*rows) if rows else ((), (), ())
    return np.asarray(idx, dtype=int), np.asarray(times, dtype=float), np.asarray(conf, dtype=float)


# --- HR series CSV ----------------------------------------------------------


def write_hr(path, series: HrSeries) -> None:
    with _open_w(path) as fh:
        fh.write("window_center_s,hr_bpm\n")
        for t, v in zip(series.times, series.bpm):
            fh.write(f"{_f(t)},{'' if np.isnan(v) else _f(v)}\n")


def _bpm(field: str) -> float:
    """An HR field: empty for a gap (NaN), else a finite number > 0."""
    v = float(field) if field else np.nan
    if field and not 0.0 < v < np.inf:
        raise ValueError(f"HR {v!r} bpm is not a finite number > 0")
    return v


def read_hr(path) -> HrSeries:
    """The HR series of a file write_hr wrote: window centres finite and
    strictly increasing, an HR value empty for a gap (NaN) or finite and
    > 0."""
    rows = _read_timed_rows(
        path, "window_center_s,hr_bpm", "HR", 2, 0, lambda f: (float(f[0]), _bpm(f[1]))
    )
    times, bpm = zip(*rows) if rows else ((), ())
    return HrSeries(times=np.asarray(times, dtype=float), bpm=np.asarray(bpm, dtype=float))


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
            k, v = (part.strip() for part in line.split("=", 1))
            if k in out:
                raise ValueError(f"{path}:{lineno}: key {k!r} given twice")
            out[k] = v
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
