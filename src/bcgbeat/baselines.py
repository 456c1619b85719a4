"""Classical single-channel heart-rate baselines.

Two simple estimators to compare the dictionary pipeline against: a
windowed-peak picker (sliding local maxima smoothed by a low-pass) and a
short-term-energy peak picker.  Both are amplitude-scale invariant and
emit HrSeries on the same sliding-window grid as the main pipeline.
Their filters are scipy.ndimage's and scipy.signal's, computed in NumPy.
"""

from __future__ import annotations

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .detector import DEFAULT_STEP_S, DEFAULT_WINDOW_S, hr_from_beats
from .metrics import HrSeries, mae
from .signals import Recording, bandpass_filter, butter_sos, find_peaks, zero_phase_filter

_HEIGHT_RATIO_FLOOR = 0.25


def _windows(x: np.ndarray, size: int) -> np.ndarray:
    """The (x.size, size) view of x's windows as scipy.ndimage centres
    them, padded with the edge samples (its mode="nearest")."""
    return sliding_window_view(np.pad(x, (size // 2, size - 1 - size // 2), mode="edge"), size)


def _sliding_max(x: np.ndarray, size: int) -> np.ndarray:
    """scipy.ndimage.maximum_filter1d(x, size, mode="nearest")."""
    return _windows(x, size).max(axis=1)


def _moving_mean(x: np.ndarray, size: int) -> np.ndarray:
    """scipy.ndimage.uniform_filter1d(x, size, mode="nearest"), summed as
    scipy sums it: the first window's sum, then each step's entering
    minus leaving sample, as a running sum."""
    w = _windows(x, size)
    return np.cumsum(np.concatenate([[w[0].sum()], w[1:, -1] - w[:-1, 0]])) / size


def wppd_hr(
    x: np.ndarray,
    fs: float,
    window_s: float = DEFAULT_WINDOW_S,
    step_s: float = DEFAULT_STEP_S,
) -> HrSeries:
    """Windowed-peak heart rate.

    Sliding 0.25 s local maxima -> zero-phase 2nd-order Butterworth
    low-pass at 4 Hz -> peaks at least 0.3 s apart -> windowed HR.
    """
    x = np.asarray(x, dtype=float)
    if fs <= 8.0:
        raise ValueError("sampling rate too low for the 4 Hz smoothing filter")
    if x.size / fs < window_s:
        raise ValueError("signal shorter than one analysis window")
    size = max(int(round(0.25 * fs)), 1)
    maxima = _sliding_max(x, size)
    smoothed = zero_phase_filter(maxima, butter_sos(2, fs, 4.0))
    beats = find_peaks(smoothed, min_separation=max(int(round(0.3 * fs)), 1))
    return hr_from_beats(beats, fs, window_s, step_s, duration_s=x.size / fs)


def en_hr(
    x: np.ndarray,
    fs: float,
    window_s: float = DEFAULT_WINDOW_S,
    step_s: float = DEFAULT_STEP_S,
) -> HrSeries:
    """Short-term-energy heart rate.

    Band-pass as in the main pipeline, then a 0.3 s moving average of the
    squared signal; energy peaks at least 0.3 s apart become beats.
    """
    x = np.asarray(x, dtype=float)
    if fs <= 20.0:
        raise ValueError("sampling rate too low for the 10 Hz band edge")
    if x.size / fs < window_s:
        raise ValueError("signal shorter than one analysis window")
    filt = bandpass_filter(x, fs)
    L = max(int(round(0.3 * fs)), 1)
    energy = _moving_mean(filt * filt, L)
    beats = find_peaks(energy, min_separation=max(int(round(0.3 * fs)), 1))
    # drop ripple maxima between beats: keep only peaks reaching a fixed
    # fraction of the upper envelope level
    if beats.size:
        floor = _HEIGHT_RATIO_FLOOR * float(np.percentile(energy, 95))
        beats = beats[energy[beats] >= floor]
    return hr_from_beats(beats, fs, window_s, step_s, duration_s=x.size / fs)


def pick_best_channel(
    rec: Recording,
    estimator,
    window_s: float = DEFAULT_WINDOW_S,
    step_s: float = DEFAULT_STEP_S,
) -> int:
    """Channel whose estimate best matches the recording's groundtruth HR
    (lowest MAE; ties take the lower channel id).  Used to choose which
    transducer a single-channel baseline should run on."""
    if rec.gt_beat_times is None:
        raise ValueError("channel selection needs groundtruth beats")
    gt = hr_from_beats(
        rec.gt_beat_times, rec.sample_rate_hz, window_s, step_s, duration_s=rec.duration_s
    )
    best_ch, best_err = 0, np.inf
    for ch, x in enumerate(rec.channels):
        est = estimator(x, rec.sample_rate_hz, window_s, step_s)
        try:
            err = mae(est, gt)
        except ValueError:
            continue
        if err < best_err:
            best_ch, best_err = ch, err
    return best_ch
