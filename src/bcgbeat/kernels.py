"""Batched ISTA coding kernels.

These are the inner loops of both training (per-EM-iteration code updates)
and detection (per-candidate-peak test coding).

Shapes use the column-instance convention: a batch of N codes over K atoms
is a (K, N) array, correlations Dᵀ·X likewise.

Each kernel call allocates its code and gradient blocks once and runs every
step in them: `gram @ A` goes to a preallocated block through
`matmul(out=)`, the gradient and the step are formed in place, and the prox
writes the new codes back into A.  Every arithmetic operation of the
gradient step, and its order, is that of the plain expressions in the
docstrings, and the prox gives soft_threshold's bits, so the codes are bit
for bit those of the unbuffered loops.  ista_positive forms 1 - post once
per call.

The prox, soft_threshold = sign(v) * max(|v| - thr, 0), is formed as
v - clip(v, -thr, thr) given the sign of v + 0: four passes.  Before the
last step a kernel runs only the first two.  Their value is
soft_threshold's, but a negative v inside the threshold gives +0 where
soft_threshold gives -0.  No later step can see that sign: a product or
sum with a zero has the value it has with either zero, and the next prox
output depends only on the value of its input.  So only the last step
sets the sign bits.
"""

import numpy as np

BACKEND = "numpy"


def soft_threshold(v: np.ndarray, thr, out: np.ndarray) -> np.ndarray:
    """Elementwise sign(v) * max(|v| - thr, 0) for thr >= 0, which
    broadcasts against v, written into and returned as out: an array of
    v's shape, which may be v itself (the prox in place)."""
    # v + 0 turns -0 into +0, so its sign bit is set exactly where
    # sign(v) = -1, and it is the sign the result takes inside the band.
    sign = np.add(v, 0.0)
    np.clip(sign, -thr, thr, out=out)
    np.subtract(sign, out, out=out)
    return np.copysign(out, sign, out=out)


def _prox_step(v: np.ndarray, thr, neg_thr, out: np.ndarray, last: bool) -> None:
    """soft_threshold(v, thr) into out; before the last step only its value
    (see the module docstring), in two passes.  neg_thr is -thr."""
    if last:
        soft_threshold(v, thr, out=out)
    else:
        v.clip(neg_thr, thr, out=out)
        np.subtract(v, out, out=out)


def _check_threshold(lam: float, eta: float) -> float:
    thr = eta * lam
    if not thr >= 0.0:
        raise ValueError(f"the prox threshold eta*lam must be >= 0, got {eta!r}*{lam!r}")
    return thr


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
    gradient step of length eta followed by soft-thresholding at eta*lam
    (which must be >= 0):
        A = soft_threshold(A - eta * (gram @ A - corr), eta * lam)
    """
    A = np.array(codes0, dtype=float, order="C")
    step = np.empty_like(A)
    thr = _check_threshold(lam, eta)
    for it in range(n_iter):
        np.matmul(gram, A, out=step)
        step -= corr
        step *= eta
        np.subtract(A, step, out=step)
        _prox_step(step, thr, -thr, A, it == n_iter - 1)
    return A


def positive_gradient(
    gram: np.ndarray,
    gram_bg: np.ndarray,
    corr: np.ndarray,
    post: np.ndarray,
    A: np.ndarray,
    n_target: int,
    out: tuple[np.ndarray, np.ndarray],
    one_minus_post: np.ndarray,
):
    """Gradient of the expected reconstruction cost at codes A.

    Per instance i with target posterior p = post[i], the cost is
        0.5*p*||x - D a||^2 + 0.5*(1-p)*||x - B a_bg||^2
    with gram = DᵀD (K, K), gram_bg = BᵀB (M, M) over the background block,
    and corr rows [D_tgtᵀX ; BᵀX] (K, N).  Returns the target and
    background row blocks of the gradient, (n_target, N) and (M, N):
        post * (gram @ A - corr)[:n_target]
        post * (gram @ A)[n_target:] + (1 - post) * (gram_bg @ A_bg) - corr[n_target:]

    out is a pair of C-contiguous work blocks shaped (K, N) and (M, N);
    the gradient is formed in the first, and the two blocks returned are
    its row views.  one_minus_post is 1 - post, so that a loop of
    gradients forms it once.
    """
    ga, gb = out
    np.matmul(gram, A, out=ga)
    np.matmul(gram_bg, A[n_target:], out=gb)
    grad_t, grad_b = ga[:n_target], ga[n_target:]
    grad_t -= corr[:n_target]
    ga *= post  # both blocks: post * (... - corr) on top, post * (gram @ A) below
    gb *= one_minus_post
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
    target block and eta*lam (which must be >= 0) on the background block.
    At post == 1 this is plain lasso coding on the full dictionary;
    ista_negative with gram = DᵀD gives the same codes without the
    background product and the products with post.
    """
    A = np.array(codes0, dtype=float, order="C")
    post = np.asarray(post, dtype=float)
    work = (np.empty_like(A), np.empty_like(A[n_target:]))
    step = work[0]
    one_minus_post = 1.0 - post
    thr_b = _check_threshold(lam, eta)
    thr_t = thr_b * post
    blocks = (
        (step[:n_target], thr_t, -thr_t, A[:n_target]),
        (step[n_target:], thr_b, -thr_b, A[n_target:]),
    )
    for it in range(n_iter):
        positive_gradient(gram, gram_bg, corr, post, A, n_target, work, one_minus_post)
        step *= eta
        np.subtract(A, step, out=step)
        for v, thr, neg_thr, out in blocks:
            _prox_step(v, thr, neg_thr, out, it == n_iter - 1)
    return A
