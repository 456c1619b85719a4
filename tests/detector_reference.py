"""The GLRT confidence with explicit residual blocks, coded one call per
channel, as `confidence_series` scored and coded before it read its
residual norms in gram form and streamed its candidates in column chunks.

`confidence_batch` forms both residual blocks X - D_bg A_bg and X - D A and
their whitened copies, and reads the lasso objectives and the Mahalanobis
norms from them.  `confidence_series` filters and peak-picks every channel
with `candidate_peaks`, cuts it into one block with `extract_instances` and
scores that block with one `confidence_batch` call.  Kept only as the
reference that tests/test_detector.py compares the production scorer and
the chunked coding against.
"""

import numpy as np

from bcgbeat import kernels
from bcgbeat.detector import _RATIO_FLOOR, ConfidenceSeries, ModelMismatch
from bcgbeat.dlfumi import safe_step_length
from bcgbeat.signals import Preprocessing, candidate_peaks, extract_instances


def confidence_batch(X, D, model, lam, n_iter):
    if X.shape[0] != D.d or model.d != D.d:
        raise ModelMismatch("instance or covariance dimension does not match dictionary")
    Dbg, full = D.background_atoms, D.atoms
    n = X.shape[1]
    A_bg = kernels.ista_negative(
        Dbg.T @ Dbg, Dbg.T @ X, np.zeros((D.n_background, n)), lam, safe_step_length(Dbg), n_iter
    )
    A0 = np.vstack([np.zeros((D.n_target, n)), A_bg])
    A_full = kernels.ista_negative(full.T @ full, full.T @ X, A0, lam, safe_step_length(full), n_iter)

    def scores(atoms, A):
        R = X - atoms @ A
        lasso = 0.5 * np.einsum("ij,ij->j", R, R) + lam * np.sum(np.abs(A), axis=0)
        W = model._whiten @ R
        return np.einsum("ij,ij->j", W, W), lasso

    num, obj_warm = scores(Dbg, A_bg)
    den, obj_full = scores(full, A_full)
    if not np.all(obj_full <= obj_warm + 1e-9 * (1.0 + np.abs(obj_warm))):
        raise ModelMismatch("full-dictionary coding worsened its warm start")
    return np.maximum(num, _RATIO_FLOOR) / np.maximum(den, _RATIO_FLOOR)


def confidence_series(rec, D, model, lam, n_iter=50, pre=Preprocessing()):
    peak_indices, confidences = [], []
    for _, filt, peaks in candidate_peaks(rec, pre):
        X = extract_instances(filt, peaks, pre.half_len, pre.zscore)
        peak_indices.append(peaks)
        confidences.append(
            confidence_batch(np.ascontiguousarray(X.T), D, model, lam, n_iter)
            if peaks.size else np.empty(0)
        )
    return ConfidenceSeries(
        fs=rec.sample_rate_hz,
        n_samples=rec.n_samples,
        peak_indices=peak_indices,
        confidences=confidences,
    )
