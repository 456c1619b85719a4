"""Batched ISTA coding kernels.

These are the inner loops of both training (per-EM-iteration code updates)
and detection (per-candidate-peak test coding).

Shapes use the column-instance convention: a batch of N codes over K atoms
is a (K, N) array, correlations Dᵀ·X likewise.

Each kernel call allocates its code and gradient blocks once and runs every
step in them: `gram @ A` goes to a preallocated block through
`matmul(out=)`, the gradient and the step are formed in place, and the prox
writes the new codes back into A.  Every arithmetic operation, and its
order, is that of the plain expressions in the docstrings, so the codes
are bit for bit those of the unbuffered loops.
"""

import numpy as np

BACKEND = "numpy"


def soft_threshold(v: np.ndarray, thr, out: np.ndarray | None = None) -> np.ndarray:
    """Elementwise sign(v) * max(|v| - thr, 0); thr broadcasts against v.

    out, when given, has v's shape and receives the result; it may be v
    itself, which applies the prox in place."""
    mag = np.abs(v)
    mag -= thr
    # a scalar v gives a NumPy scalar, which cannot be an out= buffer
    mag = np.maximum(mag, 0.0, out=mag if np.ndim(mag) else None)
    return np.multiply(np.sign(v, out=out), mag, out=out)


def ista_negative(
    gram: np.ndarray,
    corr: np.ndarray,
    codes0: np.ndarray,
    lam: float,
    eta: float,
    n_iter: int,
) -> np.ndarray:
    """Batched ISTA for plain lasso coding over a dictionary B: the
    background atoms alone, or the full dictionary.

    Minimizes 0.5*||x - B a||^2 + lam*||a||_1 per instance, where
    gram = BᵀB (K, K) and corr = BᵀX (K, N).  Each iteration is a full
    gradient step of length eta followed by soft-thresholding at eta*lam:
        A = soft_threshold(A - eta * (gram @ A - corr), eta * lam)
    """
    A = np.array(codes0, dtype=float, order="C")
    step = np.empty_like(A)
    thr = eta * lam
    for _ in range(n_iter):
        np.matmul(gram, A, out=step)
        step -= corr
        step *= eta
        np.subtract(A, step, out=step)
        soft_threshold(step, thr, out=A)
    return A


def positive_gradient(
    gram: np.ndarray,
    gram_bg: np.ndarray,
    corr: np.ndarray,
    post: np.ndarray,
    A: np.ndarray,
    n_target: int,
    out: tuple[np.ndarray, np.ndarray] | None = None,
):
    """Gradient of the expected reconstruction cost at codes A.

    Per instance i with target posterior p = post[i], the cost is
        0.5*p*||x - D a||^2 + 0.5*(1-p)*||x - B a_bg||^2
    with gram = DᵀD (K, K), gram_bg = BᵀB (M, M) over the background block,
    and corr rows [D_tgtᵀX ; BᵀX] (K, N).  Returns the target and
    background row blocks of the gradient, (n_target, N) and (M, N):
        post * (gram @ A - corr)[:n_target]
        post * (gram @ A)[n_target:] + (1 - post) * (gram_bg @ A_bg) - corr[n_target:]

    out, when given, is a pair of C-contiguous work blocks shaped
    (K, N) and (M, N); the gradient is formed in the first, and the two
    blocks returned are its row views.
    """
    ga, gb = (None, None) if out is None else out
    ga = np.matmul(gram, A, out=ga)
    gb = np.matmul(gram_bg, A[n_target:], out=gb)
    grad_t, grad_b = ga[:n_target], ga[n_target:]
    grad_t -= corr[:n_target]
    grad_t *= post
    grad_b *= post
    gb *= 1.0 - post
    grad_b += gb
    grad_b -= corr[n_target:]
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
    target block and eta*lam on the background block.  At post == 1 this
    is plain lasso coding on the full dictionary; ista_negative with
    gram = DᵀD gives the same codes without the background product and the
    products with post.
    """
    A = np.array(codes0, dtype=float, order="C")
    post = np.asarray(post, dtype=float)
    work = (np.empty_like(A), np.empty_like(A[n_target:]))
    step = work[0]
    thr_t = eta * lam * post
    thr_b = eta * lam
    for _ in range(n_iter):
        positive_gradient(gram, gram_bg, corr, post, A, n_target, out=work)
        step *= eta
        np.subtract(A, step, out=step)
        soft_threshold(step[:n_target], thr_t, out=A[:n_target])
        soft_threshold(step[n_target:], thr_b, out=A[n_target:])
    return A
