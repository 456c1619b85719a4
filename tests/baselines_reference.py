"""c12's comparison algorithms: two classical single-channel heart-rate
estimators on scipy's filters.

A windowed-peak picker (sliding local maxima smoothed by a low-pass) and a
short-term-energy peak picker.  Both are amplitude-scale invariant and
emit HrSeries on the same sliding-window grid as the main pipeline.  No
command runs them; the acceptance gate and tests/test_baselines.py do.
"""

import numpy as np
from scipy import ndimage as spnd
from scipy import signal as sps

from bcgbeat.detector import DEFAULT_STEP_S, DEFAULT_WINDOW_S, hr_from_beats
from bcgbeat.metrics import mae
from bcgbeat.signals import bandpass_filter, find_peaks


def wppd_hr(x, fs, window_s=DEFAULT_WINDOW_S, step_s=DEFAULT_STEP_S):
    """Windowed-peak heart rate: sliding 0.25 s local maxima -> zero-phase
    2nd-order Butterworth low-pass at 4 Hz -> peaks at least 0.3 s apart
    -> windowed HR."""
    x = np.asarray(x, dtype=float)
    if fs <= 8.0:
        raise ValueError("sampling rate too low for the 4 Hz smoothing filter")
    if x.size / fs < window_s:
        raise ValueError("signal shorter than one analysis window")
    size = max(int(round(0.25 * fs)), 1)
    maxima = spnd.maximum_filter1d(x, size=size, mode="nearest")
    sos = sps.butter(2, 4.0, btype="lowpass", fs=fs, output="sos")
    smoothed = sps.sosfiltfilt(sos, maxima)
    beats = find_peaks(smoothed, min_separation=max(int(round(0.3 * fs)), 1))
    return hr_from_beats(beats, fs, window_s, step_s, duration_s=x.size / fs)


def en_hr(x, fs, window_s=DEFAULT_WINDOW_S, step_s=DEFAULT_STEP_S):
    """Short-term-energy heart rate: band-pass as in the main pipeline,
    then a 0.3 s moving average of the squared signal; energy peaks at
    least 0.3 s apart that reach a quarter of its 95th percentile become
    beats (the floor drops ripple maxima between beats)."""
    x = np.asarray(x, dtype=float)
    if fs <= 20.0:
        raise ValueError("sampling rate too low for the 10 Hz band edge")
    if x.size / fs < window_s:
        raise ValueError("signal shorter than one analysis window")
    filt = bandpass_filter(x, fs)
    L = max(int(round(0.3 * fs)), 1)
    energy = spnd.uniform_filter1d(filt * filt, size=L, mode="nearest")
    beats = find_peaks(energy, min_separation=max(int(round(0.3 * fs)), 1))
    if beats.size:
        floor = 0.25 * float(np.percentile(energy, 95))
        beats = beats[energy[beats] >= floor]
    return hr_from_beats(beats, fs, window_s, step_s, duration_s=x.size / fs)


def pick_best_channel(rec, estimator, window_s=DEFAULT_WINDOW_S, step_s=DEFAULT_STEP_S):
    """Channel whose estimate best matches the recording's groundtruth HR
    (lowest MAE; ties take the lower channel id): the transducer a
    single-channel baseline runs on."""
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
