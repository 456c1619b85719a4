"""Classical single-channel heart-rate baselines.

Two simple estimators to compare the dictionary pipeline against: a
windowed-peak picker (sliding local maxima smoothed by a low-pass) and a
short-term-energy peak picker.  Both are amplitude-scale invariant and
emit HrSeries on the same sliding-window grid as the main pipeline.

This is the only module that uses scipy (the `baselines` extra).  It is
imported inside the functions that call it, so importing the package and
every CLI command run without scipy.
"""

from __future__ import annotations

import numpy as np

from .detector import DEFAULT_STEP_S, DEFAULT_WINDOW_S, hr_from_beats
from .metrics import HrSeries, mae
from .signals import Recording, bandpass_filter, find_peaks

_PROMINENCE_RATIO_FLOOR = 0.5
_HEIGHT_RATIO_FLOOR = 0.25


def _smooth_lowpass(x: np.ndarray, fs: float, cutoff_hz: float, order: int = 2) -> np.ndarray:
    from scipy import signal as sps

    sos = sps.butter(order, cutoff_hz, btype="lowpass", fs=fs, output="sos")
    return sps.sosfiltfilt(sos, x)


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
    from scipy import ndimage as spnd

    x = np.asarray(x, dtype=float)
    if fs <= 8.0:
        raise ValueError("sampling rate too low for the 4 Hz smoothing filter")
    if x.size / fs < window_s:
        raise ValueError("signal shorter than one analysis window")
    size = max(int(round(0.25 * fs)), 1)
    maxima = spnd.maximum_filter1d(x, size=size, mode="nearest")
    smoothed = _smooth_lowpass(maxima, fs, 4.0)
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
    squared signal; energy peaks at least 0.3 s apart become beats.  The
    series is flagged low_confidence when the energy peaks barely rise
    above their surroundings (median prominence below half the median
    peak height), which is what pure noise produces.
    """
    from scipy import ndimage as spnd
    from scipy import signal as sps

    x = np.asarray(x, dtype=float)
    if fs <= 20.0:
        raise ValueError("sampling rate too low for the 10 Hz band edge")
    if x.size / fs < window_s:
        raise ValueError("signal shorter than one analysis window")
    filt = bandpass_filter(x, fs)
    L = max(int(round(0.3 * fs)), 1)
    energy = spnd.uniform_filter1d(filt * filt, size=L, mode="nearest")
    beats = find_peaks(energy, min_separation=max(int(round(0.3 * fs)), 1))
    # drop ripple maxima between beats: keep only peaks reaching a fixed
    # fraction of the upper envelope level
    if beats.size:
        floor = _HEIGHT_RATIO_FLOOR * float(np.percentile(energy, 95))
        beats = beats[energy[beats] >= floor]
    series = hr_from_beats(beats, fs, window_s, step_s, duration_s=x.size / fs)
    if beats.size:
        prom = sps.peak_prominences(energy, beats)[0]
        heights = energy[beats]
        med_h = float(np.median(heights))
        if med_h > 0 and float(np.median(prom)) < _PROMINENCE_RATIO_FLOOR * med_h:
            series.low_confidence = True
    else:
        series.low_confidence = True
    return series


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
