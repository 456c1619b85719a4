"""Coding-kernel tests: iteration semantics, and bit-identity of the
buffered kernels with the unbuffered loops of tests/kernels_reference.py."""

import kernels_reference as ref
import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

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
        stepped = b0 - eta_bg * (G_bg @ b0 - corr_bg)
        want = soft_threshold(stepped, eta_bg * lam, stepped)
        np.testing.assert_array_equal(got, want)

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
        grad[:T] = post * (ga[:T] - corr[:T])
        grad[T:] = post * ga[T:] + (1.0 - post) * gb - corr[T:]
        stepped = a0 - eta * grad
        soft_threshold(stepped[:T], eta * lam * post, stepped[:T])
        soft_threshold(stepped[T:], eta * lam, stepped[T:])
        np.testing.assert_array_equal(got, stepped)

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


@st.composite
def coding_problems(draw):
    """A random dictionary, data, start codes and posteriors.  post is all
    0, all 1, or mixed with exact 0s and 1s among uniform draws."""
    T = draw(st.integers(1, 4))
    M = draw(st.integers(1, 4))
    n = draw(st.integers(1, 40))
    d = draw(st.integers(1, 12))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    D = rng.standard_normal((d, T + M))
    X = rng.standard_normal((d, n))
    post_kind = draw(st.sampled_from(["zero", "one", "mixed"]))
    if post_kind == "mixed":
        post = rng.uniform(0.0, 1.0, n)
        post[rng.random(n) < 0.3] = 0.0
        post[rng.random(n) < 0.3] = 1.0
    else:
        post = np.full(n, 0.0 if post_kind == "zero" else 1.0)
    codes0 = rng.standard_normal((T + M, n)) * draw(st.sampled_from([0.0, 0.1, 1.0]))
    lam = draw(st.sampled_from([0.0, 5e-3, 0.5]))
    G = D.T @ D
    G_bg = D[:, T:].T @ D[:, T:]
    eta = 1.0 / max(float(np.linalg.eigvalsh(G)[-1]), 1e-12)
    eta_bg = 1.0 / max(float(np.linalg.eigvalsh(G_bg)[-1]), 1e-12)
    return dict(
        T=T, G=G, G_bg=G_bg, corr=D.T @ X, post=post, codes0=codes0,
        lam=lam, eta=eta, eta_bg=eta_bg, n_iter=draw(st.integers(0, 5)),
    )


class TestBufferedKernelsAreExact:
    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(coding_problems())
    def test_positive_kernel_equals_the_unbuffered_loop(self, p):
        before = {k: p[k].copy() for k in ("codes0", "corr", "post")}
        args = (p["G"], p["G_bg"], p["corr"], p["post"], p["codes0"], p["lam"], p["eta"],
                p["n_iter"], p["T"])
        got = kernels.ista_positive(*args)
        want = ref.ista_positive(*args)
        assert np.array_equal(got, want)
        assert np.array_equal(np.signbit(got), np.signbit(want))
        for k, v in before.items():
            assert np.array_equal(p[k], v), f"{k} was mutated"

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(coding_problems())
    def test_negative_kernel_equals_the_unbuffered_loop(self, p):
        T = p["T"]
        corr = p["corr"][T:]
        codes0 = p["codes0"][T:]
        before = (corr.copy(), codes0.copy())
        args = (p["G_bg"], corr, codes0, p["lam"], p["eta_bg"], p["n_iter"])
        got = kernels.ista_negative(*args)
        want = ref.ista_negative(*args)
        assert np.array_equal(got, want)
        assert np.array_equal(np.signbit(got), np.signbit(want))
        assert np.array_equal(corr, before[0]) and np.array_equal(codes0, before[1])

    def test_gradient_with_work_blocks_equals_the_unbuffered_gradient(self):
        rng = np.random.default_rng(6)
        _, _, G, G_bg, corr, _, _, _, T, M, n = make_problem(rng)
        post = rng.uniform(0.0, 1.0, n)
        A = rng.standard_normal((T + M, n))
        work = (np.empty((T + M, n)), np.empty((M, n)))
        got = kernels.positive_gradient(G, G_bg, corr, post, A, T, work, 1.0 - post)
        want = ref.positive_gradient(G, G_bg, corr, post, A, T)
        for g, w in zip(got, want):
            assert np.array_equal(g, w)
        assert np.shares_memory(got[0], work[0])
