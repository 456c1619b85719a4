"""Coding-kernel tests: iteration semantics."""

import numpy as np

from bcgbeat import kernels
from bcgbeat.kernels import soft_threshold


def make_problem(rng, d=30, T=3, M=4, n=25):
    D = rng.standard_normal((d, T + M))
    D /= np.linalg.norm(D, axis=0)
    X = rng.standard_normal((d, n))
    G = D.T @ D
    G_bg = D[:, T:].T @ D[:, T:]
    corr = D.T @ X
    corr_bg = D[:, T:].T @ X
    eta = 1.0 / float(np.linalg.eigvalsh(G)[-1])
    eta_bg = 1.0 / float(np.linalg.eigvalsh(G_bg)[-1])
    return D, X, G, G_bg, corr, corr_bg, eta, eta_bg, T, M, n


class TestIterationSemantics:
    def test_one_negative_iteration_is_one_ista_step(self):
        rng = np.random.default_rng(2)
        _, _, _, G_bg, _, corr_bg, _, eta_bg, _, M, n = make_problem(rng)
        lam = 8e-3
        b0 = rng.standard_normal((M, n))
        got = kernels.ista_negative(G_bg, corr_bg, b0.copy(), lam, eta_bg, 1)
        want = soft_threshold(b0 - eta_bg * (G_bg @ b0 - corr_bg), eta_bg * lam)
        np.testing.assert_allclose(got, want, atol=1e-14)

    def test_one_positive_iteration_weights_blocks_by_posterior(self):
        rng = np.random.default_rng(3)
        _, _, G, G_bg, corr, _, eta, _, T, M, n = make_problem(rng)
        lam = 8e-3
        post = rng.uniform(0.0, 1.0, n)
        a0 = rng.standard_normal((T + M, n))
        got = kernels.ista_positive(G, G_bg, corr, post, a0.copy(), lam, eta, 1, T)
        grad = np.empty_like(a0)
        ga = G @ a0
        gb = G_bg @ a0[T:]
        grad[:T] = post * ga[:T] - post * corr[:T]
        grad[T:] = post * ga[T:] + (1.0 - post) * gb - corr[T:]
        stepped = a0 - eta * grad
        want = np.vstack(
            [
                soft_threshold(stepped[:T], eta * lam * post),
                soft_threshold(stepped[T:], eta * lam),
            ]
        )
        np.testing.assert_allclose(got, want, atol=1e-14)

    def test_negative_iterations_do_not_increase_the_lasso_objective(self):
        rng = np.random.default_rng(4)
        d, M, n = 20, 4, 15
        B = rng.standard_normal((d, M))
        B /= np.linalg.norm(B, axis=0)
        X = rng.standard_normal((d, n))
        G = B.T @ B
        corr = B.T @ X
        eta = 1.0 / float(np.linalg.eigvalsh(G)[-1])
        lam = 5e-3

        def obj(A):
            R = X - B @ A
            return 0.5 * np.einsum("ij,ij->j", R, R) + lam * np.abs(A).sum(axis=0)

        codes = rng.standard_normal((M, n))
        prev = obj(codes)
        for _ in range(25):
            codes = kernels.ista_negative(G, corr, codes, lam, eta, 1)
            now = obj(codes)
            assert np.all(now <= prev + 1e-12)
            prev = now

    def test_orthonormal_fixed_point(self):
        # with an orthonormal dictionary and lam=0 the exact solution is
        # reached in one step and further iterations leave it unchanged
        rng = np.random.default_rng(5)
        Q, _ = np.linalg.qr(rng.standard_normal((12, 4)))
        X = rng.standard_normal((12, 6))
        G = Q.T @ Q
        corr = Q.T @ X
        first = kernels.ista_negative(G, corr, np.zeros((4, 6)), 0.0, 1.0, 1)
        more = kernels.ista_negative(G, corr, first.copy(), 0.0, 1.0, 10)
        np.testing.assert_allclose(first, corr, atol=1e-12)
        np.testing.assert_allclose(more, first, atol=1e-12)
