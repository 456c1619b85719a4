"""Unbuffered versions of the ISTA coding kernels.

These are the plain-expression loops that the buffered kernels in
bcgbeat.kernels replaced: each step allocates its gradient, its step and
its prox result, and ista_positive stacks the two code blocks with
np.vstack.  They are kept only as the reference that tests/test_kernels.py
compares against: both must return bit-identical codes.
"""

import numpy as np


def soft_threshold(v, thr):
    return np.sign(v) * np.maximum(np.abs(v) - thr, 0.0)


def ista_negative(gram, corr, codes0, lam, eta, n_iter):
    A = np.array(codes0, dtype=float, copy=True)
    thr = eta * lam
    for _ in range(n_iter):
        A = soft_threshold(A - eta * (gram @ A - corr), thr)
    return A


def positive_gradient(gram, gram_bg, corr, post, A, n_target):
    ga = gram @ A
    gb = gram_bg @ A[n_target:]
    grad_t = post * (ga[:n_target] - corr[:n_target])
    grad_b = post * ga[n_target:] + (1.0 - post) * gb - corr[n_target:]
    return grad_t, grad_b


def ista_positive(gram, gram_bg, corr, post, codes0, lam, eta, n_iter, n_target):
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
