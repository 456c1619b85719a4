"""Loop versions of the two windowed heart-rate estimators.

These are the per-window loops that bcgbeat.detector's `hr_from_beats`
and `hr_from_confidence_dft` replaced: each steps its own window start,
masks every beat (or every channel's peak array) per window, and takes
one DFT per window and channel.  They are kept only as the reference that
tests/test_hr_exact.py compares against: both must return bit-identical
window centres and heart rates, gaps included.
"""

import numpy as np


def hr_from_beats(beat_indices, fs, window_s, step_s, duration_s):
    beats = np.asarray(beat_indices, dtype=float) / fs
    times, bpm = [], []
    start = 0.0
    while start + window_s <= duration_s + 1e-9:
        inside = beats[(beats >= start - 1e-9) & (beats <= start + window_s + 1e-9)]
        times.append(start + window_s / 2.0)
        if inside.size >= 2:
            iv = np.diff(inside)
            bpm.append(float(np.mean(60.0 / iv)))
        else:
            bpm.append(np.nan)
        start += step_s
    return np.asarray(times), np.asarray(bpm)


def hr_from_confidence_dft(series, window_s=60.0, step_s=15.0, band_hz=(0.66, 3.0)):
    fs = series.fs
    n = series.n_samples
    embedded = []
    for idx, conf in zip(series.peak_indices, series.confidences):
        arr = np.zeros(n)
        arr[idx] = conf
        embedded.append(arr)

    times, bpm = [], []
    start = 0.0
    while start + window_s <= n / fs + 1e-9:
        i0 = int(round(start * fs))
        i1 = min(int(round((start + window_s) * fs)), n)
        times.append(start + window_s / 2.0)
        any_conf = any(
            np.any((idx >= i0) & (idx < i1)) for idx in series.peak_indices
        )
        if not any_conf:
            bpm.append(np.nan)
            start += step_s
            continue
        best_mag = 0.0
        best_f = np.nan
        scale = 0.0
        for arr in embedded:
            seg = arr[i0:i1]
            scale = max(scale, float(np.abs(seg).sum()))
            seg = seg - seg.mean()
            spec = np.abs(np.fft.rfft(seg))
            freqs = np.fft.rfftfreq(seg.size, d=1.0 / fs)
            mask = (freqs >= band_hz[0]) & (freqs <= band_hz[1])
            if not np.any(mask):
                continue
            j = int(np.argmax(spec[mask]))
            if spec[mask][j] > best_mag:
                best_mag = float(spec[mask][j])
                best_f = float(freqs[mask][j])
        if best_mag <= 1e-9 * scale or not np.isfinite(best_f):
            bpm.append(np.nan)
        else:
            bpm.append(60.0 * best_f)
        start += step_s
    return np.asarray(times), np.asarray(bpm)
