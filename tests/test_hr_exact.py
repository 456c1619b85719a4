"""The two windowed heart-rate estimators against their loop references
(tests/hr_reference.py): bit-identical window centres and heart rates,
gaps (NaN) in the same windows.

The draws cover non-integer sample rates, windows whose length in samples
varies by one from window to window, DFT bands that hold no bin, empty
channels, and channels that repeat another one, so that in-band
magnitudes tie across channels and the earliest channel must win.  A band
that cannot hold a heart rate (inverted, or above Nyquist) has no
reference: the estimator rejects it."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hr_reference as ref
from bcgbeat.detector import ConfidenceSeries, hr_from_beats, hr_from_confidence_dft

exact = settings(max_examples=300, deadline=None, derandomize=True)

sample_rate = st.sampled_from((3.0, 50.0, 99.7, 100.0, 128.0, 250.0, 1000.0 / 3.0))
window = st.one_of(st.sampled_from((0.5, 1.0, 2.5, 10.0, 60.0)), st.floats(0.5, 60.0))
step = st.one_of(st.sampled_from((0.7, 1.0, 15.0)), st.floats(0.7, 15.0))
# the default band, one inside the spectrum, an inverted one, and bands
# above every Nyquist frequency drawn or too narrow to hold a bin
band = st.sampled_from(
    ((0.66, 3.0), (0.2, 40.0), (3.0, 0.66), (200.0, 300.0), (1.2345, 1.2346))
)


def assert_same(series, reference):
    times, bpm = reference
    np.testing.assert_array_equal(series.times, times, strict=True)
    np.testing.assert_array_equal(series.bpm, bpm, strict=True)


@st.composite
def beat_train(draw):
    fs = draw(sample_rate)
    n = draw(st.integers(0, int(200 * fs)))
    if draw(st.booleans()):
        beats = np.unique(draw(st.lists(st.integers(0, n), max_size=120))).astype(int)
    else:
        # a regular train puts beats on window edges, where the 1e-9-s
        # tolerance decides whether a beat is inside
        beats = np.arange(draw(st.integers(0, 50)), n + 1, draw(st.integers(1, 200)))
    duration = draw(st.floats(0.0, 200.0))
    return beats, fs, duration


@exact
@given(beat_train(), window, step)
def test_hr_from_beats_matches_reference(train, window_s, step_s):
    beats, fs, duration = train
    assert_same(
        hr_from_beats(beats, fs, window_s, step_s, duration),
        ref.hr_from_beats(beats, fs, window_s, step_s, duration),
    )


@st.composite
def confidence_series(draw):
    fs = draw(sample_rate)
    n = draw(st.integers(1, int(40 * fs)))
    confidence = st.one_of(st.sampled_from((1.0, 1.5, 2.0)), st.floats(0.5, 5.0))
    peak_indices, confidences = [], []
    for _ in range(draw(st.integers(0, 4))):
        kind = draw(st.sampled_from(("sparse", "copy", "constant")))
        if kind == "copy" and peak_indices:
            # a copy of an earlier channel: every magnitude ties with it
            k = draw(st.integers(0, len(peak_indices) - 1))
            peak_indices.append(peak_indices[k])
            confidences.append(confidences[k])
        elif kind == "constant":
            # a candidate at every sample, all alike: after mean removal
            # only rounding is left, which the magnitude floor must reject
            peak_indices.append(np.arange(n))
            confidences.append(np.full(n, draw(st.sampled_from((0.1, 0.7, 1.1)))))
        else:
            idx = np.unique(draw(st.lists(st.integers(0, n - 1), max_size=80))).astype(int)
            peak_indices.append(idx)
            confidences.append(
                np.asarray(draw(st.lists(confidence, min_size=idx.size, max_size=idx.size)))
            )
    return ConfidenceSeries(
        fs=fs, n_samples=n, peak_indices=peak_indices, confidences=confidences
    )


@exact
@given(confidence_series(), window, step, band)
def test_hr_from_confidence_dft_matches_reference(series, window_s, step_s, band_hz):
    low, high = band_hz
    if not low < high <= series.fs / 2.0:
        with pytest.raises(ValueError, match="need 0 < low < high <= Nyquist"):
            hr_from_confidence_dft(series, window_s, step_s, band_hz)
        return
    assert_same(
        hr_from_confidence_dft(series, window_s, step_s, band_hz),
        ref.hr_from_confidence_dft(series, window_s, step_s, band_hz),
    )
