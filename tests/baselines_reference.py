"""The single-channel baselines on scipy's filters.

These are wppd_hr and en_hr as they were written on scipy.ndimage's
maximum_filter1d and uniform_filter1d and scipy.signal's butter and
sosfiltfilt, before bcgbeat.baselines computed the same filters in NumPy.
They are kept only as the reference that tests/test_baselines.py compares
against: both must return bit-identical HR series.
"""

import numpy as np
from scipy import ndimage as spnd
from scipy import signal as sps

from bcgbeat.detector import DEFAULT_STEP_S, DEFAULT_WINDOW_S, hr_from_beats
from bcgbeat.signals import bandpass_filter, find_peaks


def wppd_hr(x, fs, window_s=DEFAULT_WINDOW_S, step_s=DEFAULT_STEP_S):
    x = np.asarray(x, dtype=float)
    size = max(int(round(0.25 * fs)), 1)
    maxima = spnd.maximum_filter1d(x, size=size, mode="nearest")
    sos = sps.butter(2, 4.0, btype="lowpass", fs=fs, output="sos")
    smoothed = sps.sosfiltfilt(sos, maxima)
    beats = find_peaks(smoothed, min_separation=max(int(round(0.3 * fs)), 1))
    return hr_from_beats(beats, fs, window_s, step_s, duration_s=x.size / fs)


def en_hr(x, fs, window_s=DEFAULT_WINDOW_S, step_s=DEFAULT_STEP_S):
    x = np.asarray(x, dtype=float)
    filt = bandpass_filter(x, fs)
    L = max(int(round(0.3 * fs)), 1)
    energy = spnd.uniform_filter1d(filt * filt, size=L, mode="nearest")
    beats = find_peaks(energy, min_separation=max(int(round(0.3 * fs)), 1))
    if beats.size:
        floor = 0.25 * float(np.percentile(energy, 95))
        beats = beats[energy[beats] >= floor]
    return hr_from_beats(beats, fs, window_s, step_s, duration_s=x.size / fs)
