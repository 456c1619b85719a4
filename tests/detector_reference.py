"""One coding call per channel, as `confidence_series` coded before it
streamed its candidates in column chunks.

Every channel is filtered and peak-picked by `candidate_peaks` and cut into
one block by `extract_instances`, and each block is coded by one
`_confidence_batch` call over all of its columns.  Kept only as the reference that
tests/test_detector.py compares the chunked coding against.
"""

import numpy as np

from bcgbeat.detector import ConfidenceSeries, _confidence_batch
from bcgbeat.signals import Preprocessing, candidate_peaks, extract_instances


def confidence_series(rec, D, model, lam, n_iter=50, pre=Preprocessing()):
    peak_indices, confidences = [], []
    for _, filt, peaks in candidate_peaks(rec, pre):
        X = extract_instances(filt, peaks, pre.half_len, pre.zscore)
        peak_indices.append(peaks)
        confidences.append(
            _confidence_batch(np.ascontiguousarray(X.T), D, model, lam, n_iter)
            if peaks.size else np.empty(0)
        )
    return ConfidenceSeries(
        fs=rec.sample_rate_hz,
        n_samples=rec.n_samples,
        peak_indices=peak_indices,
        confidences=confidences,
    )
