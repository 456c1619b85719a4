"""Batched ISTA coding kernels.

These are the inner loops of both training (per-EM-iteration code updates)
and detection (per-candidate-peak test coding).

Shapes use the column-instance convention: a batch of N codes over K atoms
is a (K, N) array, correlations Dᵀ·X likewise.
"""

import numpy as np

BACKEND = "numpy"


def soft_threshold(v: np.ndarray, thr) -> np.ndarray:
    """Elementwise sign(v) * max(|v| - thr, 0); thr broadcasts against v."""
    return np.sign(v) * np.maximum(np.abs(v) - thr, 0.0)


def ista_negative(
    gram: np.ndarray,
    corr: np.ndarray,
    codes0: np.ndarray,
    lam: float,
    eta: float,
    n_iter: int,
) -> np.ndarray:
    """Batched ISTA for background-only coding.

    Minimizes 0.5*||x - B a||^2 + lam*||a||_1 per instance, where
    gram = BᵀB (M, M) and corr = BᵀX (M, N).  Each iteration is a full
    gradient step of length eta followed by soft-thresholding at eta*lam.
    """
    A = np.array(codes0, dtype=float, copy=True)
    thr = eta * lam
    for _ in range(n_iter):
        A = soft_threshold(A - eta * (gram @ A - corr), thr)
    return A


def positive_gradient(
    gram: np.ndarray,
    gram_bg: np.ndarray,
    corr: np.ndarray,
    post: np.ndarray,
    A: np.ndarray,
    n_target: int,
):
    """Gradient of the expected reconstruction cost at codes A.

    Per instance i with target posterior p = post[i], the cost is
        0.5*p*||x - D a||^2 + 0.5*(1-p)*||x - B a_bg||^2
    with gram = DᵀD (K, K), gram_bg = BᵀB (M, M) over the background block,
    and corr rows [D_tgtᵀX ; BᵀX] (K, N).  Returns the target and
    background row blocks of the gradient, (n_target, N) and (M, N).
    """
    ga = gram @ A
    gb = gram_bg @ A[n_target:]
    grad_t = post * (ga[:n_target] - corr[:n_target])
    grad_b = post * ga[n_target:] + (1.0 - post) * gb - corr[n_target:]
    return grad_t, grad_b


def ista_positive(
    gram: np.ndarray,
    gram_bg: np.ndarray,
    corr: np.ndarray,
    post: np.ndarray,
    codes0: np.ndarray,
    lam: float,
    eta: float,
    n_iter: int,
    n_target: int,
) -> np.ndarray:
    """Batched ISTA on the expected reconstruction model.

    Each iteration is a full step of length eta along positive_gradient
    followed by the weighted-L1 prox: soft-thresholding at eta*lam*p on the
    target block and eta*lam on the background block.  post == 1 reduces
    to plain lasso coding on the full dictionary.
    """
    A = np.array(codes0, dtype=float, copy=True)
    post = np.asarray(post, dtype=float)
    thr_t = eta * lam * post
    thr_b = eta * lam
    for _ in range(n_iter):
        grad_t, grad_b = positive_gradient(gram, gram_bg, corr, post, A, n_target)
        A_t = soft_threshold(A[:n_target] - eta * grad_t, thr_t)
        A_b = soft_threshold(A[n_target:] - eta * grad_b, thr_b)
        A = np.vstack([A_t, A_b])
    return A
