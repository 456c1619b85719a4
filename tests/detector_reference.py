"""One coding call per channel, as `confidence_series` coded before it
streamed its candidates in column chunks.

Every channel is filtered, peak-picked and cut into one block by
`preprocess_recording`, and each block is coded by one `_confidence_batch`
call over all of its columns.  Kept only as the reference that
tests/test_detector.py compares the chunked coding against.
"""

import numpy as np

from bcgbeat.detector import ConfidenceSeries, _confidence_batch
from bcgbeat.signals import Preprocessing, preprocess_recording


def confidence_series(rec, D, model, lam, n_iter=50, pre=Preprocessing()):
    blocks = preprocess_recording(rec, pre)
    return ConfidenceSeries(
        fs=rec.sample_rate_hz,
        n_samples=rec.n_samples,
        peak_indices=[b.peak_indices for b in blocks],
        confidences=[
            _confidence_batch(np.ascontiguousarray(b.features.T), D, model, lam, n_iter)
            if len(b) else np.empty(0)
            for b in blocks
        ],
    )
