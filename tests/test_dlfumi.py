"""Learner tests: prox, step size, E-step, coherence penalty, code
gradient and steps, atom updates, fit."""

import dataclasses
import logging
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import dlfumi_reference as ref
from bcgbeat import kernels
from bcgbeat.dlfumi import (
    Dictionary,
    FumiParams,
    _residual_sq_norms,
    background_atom_update,
    e_step,
    fit,
    gamma_matrix,
    resolve_psi,
    safe_step_length,
    target_atom_update,
    update_products,
)
from bcgbeat.kernels import soft_threshold
from bcgbeat.synth import SynthConfig, generate
from bcgbeat.signals import build_bags, candidate_peaks


def columns(vectors):
    """The vectors as the columns of a C-contiguous (d, n) instance block."""
    return np.ascontiguousarray(np.array(vectors, dtype=float).T)


def random_dictionary(rng, d, T, M):
    tgt = rng.standard_normal((d, T))
    bg = rng.standard_normal((d, M))
    tgt /= np.linalg.norm(tgt, axis=0)
    bg /= np.linalg.norm(bg, axis=0)
    return Dictionary(tgt, bg)


def orthonormal_dictionary(rng, d, T, M):
    Q, _ = np.linalg.qr(rng.standard_normal((d, T + M)))
    return Dictionary(Q[:, :T], Q[:, T:])


def column_sq_norms(R):
    return np.sum(R * R, axis=0)


def prox(v, thr):
    """soft_threshold of v (a number or an array) into a fresh array."""
    v = np.asarray(v, dtype=float)
    return soft_threshold(v, thr, np.empty_like(v))


class TestDictionary:
    """One (d, T+M) atom array; the two blocks are column views of it."""

    def test_blocks_are_views_of_the_one_atom_array(self):
        D = random_dictionary(np.random.default_rng(40), 5, 2, 3)
        assert D.atoms is D.atoms
        assert D.atoms.shape == (5, 5) and D.n_target == 2 and D.n_background == 3
        assert np.shares_memory(D.target_atoms, D.atoms)
        assert np.shares_memory(D.background_atoms, D.atoms)

    def test_a_column_written_through_atoms_shows_in_its_block(self):
        D = random_dictionary(np.random.default_rng(41), 5, 2, 3)
        D.atoms[:, 1] = 7.0
        D.atoms[:, 4] = -2.0
        np.testing.assert_array_equal(D.target_atoms[:, 1], 7.0)
        np.testing.assert_array_equal(D.background_atoms[:, 2], -2.0)

    def test_does_not_alias_the_blocks_it_is_given(self):
        tgt, bg = np.ones((4, 1)), np.zeros((4, 2))
        D = Dictionary(tgt, bg)
        assert not np.shares_memory(D.target_atoms, tgt)
        assert not np.shares_memory(D.background_atoms, bg)
        D.atoms[:] = 5.0
        assert np.all(tgt == 1.0) and np.all(bg == 0.0)

    def test_rejects_blocks_of_different_dimensions(self):
        with pytest.raises(ValueError, match="share a dimension"):
            Dictionary(np.ones((4, 1)), np.ones((5, 1)))


class TestSoftThreshold:
    def test_basic_values(self):
        assert prox(2.0, 0.5) == 1.5
        assert prox(-2.0, 0.5) == -1.5
        assert prox(0.3, 0.5) == 0.0
        assert prox(-0.3, 0.5) == 0.0

    def test_zero_threshold_is_identity(self):
        v = np.array([-1.5, 0.0, 2.25])
        np.testing.assert_array_equal(prox(v, 0.0), v)

    def test_threshold_broadcasts_per_row(self):
        v = np.array([[3.0], [3.0]])
        thr = np.array([[1.0], [2.0]])
        np.testing.assert_array_equal(prox(v, thr), [[2.0], [1.0]])

    def test_is_the_scalar_lasso_prox(self):
        # minimizer of 0.5*(u - v)^2 + lam*|u| over a fine grid
        rng = np.random.default_rng(0)
        grid = np.arange(-3.0, 3.0 + 1e-12, 1e-4)
        for _ in range(50):
            v = float(rng.uniform(-2, 2))
            lam = float(rng.uniform(0, 1.5))
            costs = 0.5 * (grid - v) ** 2 + lam * np.abs(grid)
            u_star = grid[np.argmin(costs)]
            assert abs(prox(v, lam) - u_star) < 2e-4


class TestStepLength:
    def test_orthonormal_atoms_give_unit_step(self):
        D = orthonormal_dictionary(np.random.default_rng(1), 10, 2, 2)
        assert abs(safe_step_length(D.atoms) - 1.0) <= 1e-9

    def test_scaled_identity(self):
        assert abs(safe_step_length(2.0 * np.eye(2)) - 0.25) <= 1e-12

    def test_matches_dense_eigensolver(self):
        rng = np.random.default_rng(2)
        A = rng.standard_normal((91, 6))
        lam_max = float(np.linalg.eigvalsh(A.T @ A)[-1])
        assert abs(safe_step_length(A) - 1.0 / lam_max) <= 1e-8 / lam_max

    def test_zero_dictionary_is_rejected(self):
        with pytest.raises(ValueError):
            safe_step_length(np.zeros((5, 3)))


class TestEStep:
    def test_perfect_background_reconstruction_scores_zero(self):
        rng = np.random.default_rng(4)
        D = random_dictionary(rng, 8, 1, 3)
        b = rng.standard_normal((3, 1))
        x = D.background_atoms @ b
        assert e_step(column_sq_norms(x - D.background_atoms @ b), beta=90.0)[0] == 0.0

    def test_half_probability_at_log2_residual(self):
        rng = np.random.default_rng(5)
        D = orthonormal_dictionary(rng, 8, 1, 3)
        b = rng.standard_normal(3)
        base = D.background_atoms @ b
        # unit direction orthogonal to the background span
        r = np.zeros(8)
        r[-1] = 1.0
        r -= D.background_atoms @ (D.background_atoms.T @ r)
        r /= np.linalg.norm(r)
        x = base + np.sqrt(np.log(2.0) / 90.0) * r
        p = e_step(column_sq_norms((x - D.background_atoms @ b)[:, None]), beta=90.0)
        assert abs(p[0] - 0.5) <= 1e-12

    def test_probability_stays_in_unit_interval(self):
        rng = np.random.default_rng(6)
        D = random_dictionary(rng, 8, 2, 3)
        for _ in range(50):
            X = rng.standard_normal((8, 20)) * rng.uniform(0, 10)
            R = X - D.background_atoms @ rng.standard_normal((3, 20))
            p = e_step(column_sq_norms(R), beta=rng.uniform(1, 200))
            assert p.shape == (20,)
            assert np.all((p >= 0.0) & (p <= 1.0))


@st.composite
def coded_columns(draw):
    """(X, B, A, exact): unit atoms B (d, K), codes A (K, n) and columns X
    (d, n) drawn apart from the codes, except the `exact` ones, which are
    B @ a exactly; one scale for X and A spans small to large norms."""
    d, K, n = draw(st.integers(1, 16)), draw(st.integers(1, 6)), draw(st.integers(1, 8))
    unit = st.floats(-2.0, 2.0, allow_subnormal=False)
    B = draw(arrays(float, (d, K), elements=unit))
    B[:, np.linalg.norm(B, axis=0) == 0.0] = 1.0
    B /= np.linalg.norm(B, axis=0)
    scale = draw(st.sampled_from((1e-3, 1.0, 1e3)))
    A = scale * draw(arrays(float, (K, n), elements=unit))
    X = scale * draw(arrays(float, (d, n), elements=unit))
    exact = np.asarray(draw(st.lists(st.booleans(), min_size=n, max_size=n)))
    X[:, exact] = (B @ A)[:, exact]
    return X, B, A, exact


class TestResidualSqNorms:
    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(coded_columns())
    def test_gram_form_matches_explicit_residual_norms(self, case):
        # The gram form cancels terms of size ||x||^2 and ||a||_1^2, so its
        # error scales with the larger of the two.  fit's codes are ISTA
        # codes of the columns they reconstruct, no larger than a few
        # ||x||; there it must agree within 1e-12 (1 + ||x||^2).
        X, B, A, exact = case
        x_sq = column_sq_norms(X)
        got = _residual_sq_norms(x_sq, A, B.T @ X, B.T @ B)
        want = column_sq_norms(X - B @ A)
        err = np.abs(got - want)
        a_l1 = np.sum(np.abs(A), axis=0)
        assert got.shape == want.shape
        assert np.all(got >= 0.0)
        assert np.all(err <= 1e-12 * (1.0 + x_sq + a_l1**2))
        fit_sized = a_l1 <= 4.0 * np.sqrt(x_sq)
        assert np.all(err[fit_sized] <= 1e-12 * (1.0 + x_sq[fit_sized]))
        assert np.all(got[exact & fit_sized] <= 1e-12 * x_sq[exact & fit_sized])


class TestAdaptiveGamma:
    def test_orthogonal_atoms_feel_no_penalty(self):
        D = Dictionary(np.array([[0.0], [1.0]]), np.array([[1.0], [0.0]]))
        assert gamma_matrix(D, 5e-3, D.target_atoms)[0, 0] == 0.0

    def test_identical_unit_atoms_get_full_scale(self):
        d = np.array([[0.6], [0.8]])
        assert abs(gamma_matrix(Dictionary(d, d), 5e-3, d)[0, 0] - 5e-3) <= 1e-15

    def test_45_degree_pair(self):
        D = Dictionary(np.array([[1.0], [1.0]]) / np.sqrt(2.0), np.array([[1.0], [0.0]]))
        assert abs(gamma_matrix(D, 1.0, D.target_atoms)[0, 0] - 0.7071067811865476) <= 1e-12

    def test_zero_norm_atom_is_rejected(self):
        with pytest.raises(ValueError):
            gamma_matrix(Dictionary(np.ones((3, 1)), np.zeros((3, 1))), 1.0, np.ones((3, 1)))
        with pytest.raises(ValueError):
            gamma_matrix(Dictionary(np.zeros((3, 1)), np.ones((3, 1))), 1.0, np.zeros((3, 1)))
        with pytest.raises(ValueError):
            gamma_matrix(Dictionary(np.ones((3, 1)), np.ones((3, 1))), 1.0, np.zeros((3, 1)))

    def test_matrix_matches_pairwise_entries(self):
        rng = np.random.default_rng(7)
        D = random_dictionary(rng, 10, 3, 4)
        old = rng.standard_normal((10, 3))
        G = gamma_matrix(D, 5e-3, old)
        assert G.shape == (4, 3)
        for k in range(4):
            for t in range(3):
                bk, ot = D.background_atoms[:, k], old[:, t]
                cos = float(bk @ ot) / (np.linalg.norm(bk) * np.linalg.norm(ot))
                assert abs(G[k, t] - 5e-3 * cos) <= 1e-14


def smooth_part(x, D, a, p):
    """Expected reconstruction cost the code gradient differentiates."""
    T = D.n_target
    r_full = x - D.atoms @ a
    r_bg = x - D.background_atoms @ a[T:]
    return 0.5 * (p * float(r_full @ r_full) + (1.0 - p) * float(r_bg @ r_bg))


def grams(D):
    """(DᵀD, BᵀB) as the kernels take them."""
    return D.atoms.T @ D.atoms, D.background_atoms.T @ D.background_atoms


class TestAlphaGradient:
    def test_matches_central_differences(self):
        rng = np.random.default_rng(8)
        D = random_dictionary(rng, 12, 2, 3)
        G, G_bg = grams(D)
        X = rng.standard_normal((12, 20))
        A = rng.standard_normal((5, 20))
        post = rng.uniform(0, 1, 20)
        work = (np.empty((5, 20)), np.empty((3, 20)))
        grad_t, grad_b = kernels.positive_gradient(G, G_bg, D.atoms.T @ X, post, A, 2, work, 1.0 - post)
        g = np.vstack([grad_t, grad_b])
        h = 1e-6
        for j in range(20):
            x, a, p = X[:, j], A[:, j], post[j]
            for i in range(5):
                e = np.zeros(5)
                e[i] = h
                fd = (smooth_part(x, D, a + e, p) - smooth_part(x, D, a - e, p)) / (2 * h)
                assert abs(g[i, j] - fd) <= 1e-5 * max(1.0, abs(fd))


def positive_step(D, x, p, lam, eta):
    """One kernels.ista_positive iteration on one instance from zero codes."""
    G, G_bg = grams(D)
    return kernels.ista_positive(
        G, G_bg, D.atoms.T @ x[:, None], np.array([p]),
        np.zeros((D.n_target + D.n_background, 1)), lam, eta, 1, D.n_target,
    )[:, 0]


def negative_step(D, x, lam, eta):
    """One kernels.ista_negative iteration on one instance from zero codes."""
    _, G_bg = grams(D)
    return kernels.ista_negative(
        G_bg, D.background_atoms.T @ x[:, None], np.zeros((D.n_background, 1)), lam, eta, 1
    )[:, 0]


class TestCodeSteps:
    def test_positive_step_recovers_target_atom(self):
        rng = np.random.default_rng(9)
        D = orthonormal_dictionary(rng, 10, 2, 3)
        x = D.target_atoms[:, 0].copy()
        new = positive_step(D, x, 1.0, 0.0, safe_step_length(D.atoms))
        np.testing.assert_allclose(new[:2], [1.0, 0.0], atol=1e-12)
        np.testing.assert_allclose(new[2:], 0.0, atol=1e-12)

    def test_positive_step_kills_code_under_large_penalty(self):
        rng = np.random.default_rng(10)
        D = random_dictionary(rng, 10, 2, 3)
        x = rng.standard_normal(10)
        lam = float(np.max(np.abs(D.atoms.T @ x))) + 0.1
        new = positive_step(D, x, 1.0, lam, safe_step_length(D.atoms))
        assert np.all(new == 0.0)

    def test_negative_step_recovers_background_atom(self):
        rng = np.random.default_rng(11)
        D = orthonormal_dictionary(rng, 10, 2, 3)
        x = D.background_atoms[:, 0].copy()
        new = negative_step(D, x, 0.0, safe_step_length(D.background_atoms))
        np.testing.assert_allclose(new, [1.0, 0.0, 0.0], atol=1e-12)

    def test_negative_step_kills_code_under_large_penalty(self):
        rng = np.random.default_rng(13)
        D = random_dictionary(rng, 10, 2, 3)
        x = rng.standard_normal(10)
        lam = float(np.max(np.abs(D.background_atoms.T @ x))) + 0.1
        new = negative_step(D, x, lam, safe_step_length(D.background_atoms))
        assert np.all(new == 0.0)


class TestObjective:
    def test_zero_data_zero_codes_scores_zero(self):
        rng = np.random.default_rng(14)
        D = random_dictionary(rng, 6, 1, 2)
        Xp, Xn = np.zeros((6, 2)), np.zeros((6, 1))
        params = FumiParams(T=1, M=2, lam=5e-3, gamma=0.0)
        val = ref.objective(Xp, Xn, D, np.zeros((3, 3)), np.zeros(3), params)
        assert val == 0.0

    def test_perfectly_coded_negative_instance_scores_zero(self):
        rng = np.random.default_rng(15)
        D = random_dictionary(rng, 6, 1, 2)
        x = D.background_atoms[:, 0].copy()
        Xp, Xn = columns([rng.standard_normal(6)]), columns([x])
        codes = np.zeros((3, 2))
        codes[1, 1] = 1.0  # background atom 0 with weight 1 on the negative instance
        posteriors = np.zeros(2)
        params = FumiParams(T=1, M=2, lam=0.0, gamma=0.0)
        # positive instance with posterior 0 still pays its background residual
        x_pos = Xp[:, 0]
        expected = 0.5 * float(x_pos @ x_pos)
        got = ref.objective(Xp, Xn, D, codes, posteriors, params)
        assert abs(got - expected * (1.0 / 1.0)) <= 1e-12

    def test_matches_term_by_term_reimplementation(self):
        rng = np.random.default_rng(16)
        d, T, M = 7, 2, 3
        D = random_dictionary(rng, d, T, M)
        # two positive bags of three instances, one negative bag of four
        Xp = columns([rng.standard_normal(d) for _ in range(6)])
        Xn = columns([rng.standard_normal(d) for _ in range(4)])
        codes = rng.standard_normal((T + M, 10))
        codes[:T, 6:] = 0.0
        posteriors = np.concatenate([rng.uniform(0, 1, 6), np.zeros(4)])
        params = FumiParams(T=T, M=M, lam=7e-3, gamma=4e-3, psi=1.4)
        old = rng.standard_normal((d, T))
        gamma = gamma_matrix(D, params.gamma, old)

        X, is_pos = np.hstack([Xp, Xn]), np.arange(10) < 6
        total = 0.0
        for i in range(10):
            x = X[:, i]
            a = codes[:, i]
            p = posteriors[i] if is_pos[i] else 0.0
            w = params.psi if is_pos[i] else 1.0
            r_full = x - D.atoms @ a
            r_bg = x - D.background_atoms @ a[T:]
            total += w * (
                0.5 * p * float(r_full @ r_full)
                + 0.5 * (1 - p) * float(r_bg @ r_bg)
                + params.lam * (p * np.abs(a[:T]).sum() + np.abs(a[T:]).sum())
            )
        for k in range(M):
            for t in range(T):
                total += gamma[k, t] * float(D.background_atoms[:, k] @ old[:, t])

        got = ref.objective(
            Xp, Xn, D, codes, posteriors, params, gamma=gamma, target_atoms_old=old
        )
        assert abs(got - total) <= 1e-10 * max(1.0, abs(total))


def products(Xp, Xn, codes, posteriors, params):
    """The M-step products fit() forms for the given codes, which list the
    columns of Xp, then those of Xn."""
    n_pos = Xp.shape[1]
    p = np.asarray(posteriors, dtype=float)
    A_pos = codes[:, :n_pos]
    return update_products(
        Xp, Xn, A_pos, codes[params.T:, n_pos:], p[:n_pos],
        resolve_psi(n_pos, Xn.shape[1], params), (np.empty(A_pos.shape), np.empty(A_pos.shape)),
    )


def bg_update(Xp, Xn, codes, posteriors, D, k, params, target_atoms_old):
    gamma = gamma_matrix(D, params.gamma, target_atoms_old)
    return background_atom_update(
        products(Xp, Xn, codes, posteriors, params), D, k, gamma, target_atoms_old
    )


class TestAtomUpdates:
    def test_target_update_snaps_to_single_instance(self):
        rng = np.random.default_rng(17)
        D = random_dictionary(rng, 6, 1, 2)
        x = rng.standard_normal(6)
        Xp, Xn = columns([x]), columns([rng.standard_normal(6)])
        codes = np.zeros((3, 2))
        codes[0, 0] = 1.0
        P = products(Xp, Xn, codes, [1.0, 0.0], FumiParams(T=1, M=2))
        atom = target_atom_update(P, 0, D.atoms)
        np.testing.assert_allclose(atom, x, atol=1e-9)

    def test_target_update_is_stale_when_no_instance_is_believed(self):
        rng = np.random.default_rng(18)
        D = random_dictionary(rng, 6, 1, 2)
        Xp, Xn = columns([rng.standard_normal(6)]), columns([rng.standard_normal(6)])
        codes = rng.standard_normal((3, 2))
        P = products(Xp, Xn, codes, np.zeros(2), FumiParams(T=1, M=2))
        assert target_atom_update(P, 0, D.atoms) is None

    def test_background_update_recovers_scaled_instance_direction(self):
        rng = np.random.default_rng(19)
        D = random_dictionary(rng, 4, 1, 2)
        x = np.array([2.0, 0.0, 0.0, 0.0])
        Xp, Xn = columns([rng.standard_normal(4)]), columns([x])
        codes = np.zeros((3, 2))
        codes[1, 1] = 2.0  # background atom 0 coded with weight 2
        params = FumiParams(T=1, M=2, gamma=0.0, psi=1.0)
        atom = bg_update(Xp, Xn, codes, np.zeros(2), D, 0, params, D.target_atoms)
        np.testing.assert_allclose(atom / np.linalg.norm(atom), [1.0, 0.0, 0.0, 0.0], atol=1e-12)

    def test_coherence_penalty_pulls_background_away_from_target(self):
        rng = np.random.default_rng(20)
        e1 = np.zeros(4)
        e1[0] = 1.0
        tgt_old = e1.reshape(-1, 1)
        D = Dictionary(tgt_old.copy(), random_dictionary(rng, 4, 1, 2).background_atoms)
        x = 3.0 * e1 + 0.05 * rng.standard_normal(4)
        Xp, Xn = columns([rng.standard_normal(4)]), columns([x])
        codes = np.zeros((3, 2))
        codes[1, 1] = 3.0
        free = FumiParams(T=1, M=2, gamma=0.0, psi=1.0)
        pulled = FumiParams(T=1, M=2, gamma=0.5, psi=1.0)
        atom_free = bg_update(Xp, Xn, codes, np.zeros(2), D, 0, free, tgt_old)
        atom_pulled = bg_update(Xp, Xn, codes, np.zeros(2), D, 0, pulled, tgt_old)
        n_free = atom_free / np.linalg.norm(atom_free)
        n_pulled = atom_pulled / np.linalg.norm(atom_pulled)
        assert abs(n_pulled[0]) < abs(n_free[0])

    def test_background_update_is_stale_without_support(self):
        rng = np.random.default_rng(21)
        D = random_dictionary(rng, 4, 1, 2)
        Xp, Xn = columns([rng.standard_normal(4)]), columns([rng.standard_normal(4)])
        codes = np.zeros((3, 2))
        params = FumiParams(T=1, M=2)
        assert bg_update(Xp, Xn, codes, np.zeros(2), D, 1, params, D.target_atoms) is None


@st.composite
def update_problems(draw):
    """Instance blocks, codes with whole rows zeroed (stale atoms) and
    posteriors that are exactly 0, exactly 1 or mixed."""
    T = draw(st.integers(1, 4))
    M = draw(st.integers(1, 4))
    d = draw(st.integers(1, 10))
    n_pos = draw(st.integers(1, 30))
    n_neg = draw(st.integers(1, 30))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    Xp = rng.standard_normal((d, n_pos))
    Xn = rng.standard_normal((d, n_neg))
    A_pos = rng.standard_normal((T + M, n_pos))
    A_neg = rng.standard_normal((M, n_neg))
    A_pos[rng.random(T + M) < 0.3] = 0.0
    A_neg[rng.random(M) < 0.3] = 0.0
    A_pos[rng.random((T + M, n_pos)) < 0.3] = 0.0
    kind = draw(st.sampled_from(["zero", "one", "mixed"]))
    if kind == "mixed":
        p_pos = rng.uniform(0.0, 1.0, n_pos)
        p_pos[rng.random(n_pos) < 0.3] = 0.0
    else:
        p_pos = np.full(n_pos, 0.0 if kind == "zero" else 1.0)
    psi = draw(st.sampled_from([0.5, 1.0, 3.0]))
    D = random_dictionary(rng, d, T, M)
    tgt_old = random_dictionary(rng, d, T, M).target_atoms
    gamma = gamma_matrix(D, draw(st.sampled_from([0.0, 5e-3, 0.5])), tgt_old)
    return Xp, Xn, A_pos, A_neg, p_pos, psi, D, gamma, tgt_old


def assert_same_update(got, want):
    if want is None:
        assert got is None
        return
    assert got is not None
    assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)


class TestBatchedUpdatesMatchTheMatrixVectorForms:
    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(update_problems())
    def test_updates_and_stale_atoms_match(self, problem):
        # The atoms update one after another and each update sees the ones
        # before it, as in fit(); both forms read the same dictionary.
        Xp, Xn, A_pos, A_neg, p_pos, psi, D, gamma, tgt_old = problem
        work = (np.empty(A_pos.shape), np.empty(A_pos.shape))
        P = update_products(Xp, Xn, A_pos, A_neg, p_pos, psi, work)
        for t in range(D.n_target):
            got = target_atom_update(P, t, D.atoms)
            assert_same_update(got, ref.target_atom_update(Xp, A_pos, p_pos, D, t))
            if got is not None:
                D.target_atoms[:, t] = got / np.linalg.norm(got)
        for k in range(D.n_background):
            got = background_atom_update(P, D, k, gamma, tgt_old)
            want = ref.background_atom_update(
                Xp, Xn, A_pos, A_neg, p_pos, psi, D, k, gamma, tgt_old
            )
            assert_same_update(got, want)
            if got is not None:
                D.background_atoms[:, k] = got / np.linalg.norm(got)


@pytest.fixture(scope="module")
def planted_fit():
    cfg = SynthConfig(duration_s=90.0, hr_bpm=66.0, snr_db=10.0, seed=7)
    res = generate(cfg)
    blocks = build_bags([candidate_peaks(res.recording)], [res.recording.gt_beat_times])
    result = fit(blocks.Xp, blocks.Xn, FumiParams(T=1, M=2), seed=0)
    return res, blocks, result


@pytest.mark.parametrize(
    "field, value",
    [("lam", np.nan), ("lam", np.inf), ("gamma", np.nan), ("beta", np.nan), ("beta", np.inf),
     ("psi", np.nan), ("psi", np.inf), ("tol", np.nan), ("tol", np.inf)],
)
def test_validate_rejects_non_finite_settings(field, value):
    params = FumiParams(**{field: value})
    with pytest.raises(ValueError, match=f"{field}.* must be finite"):
        params.validate()


class TestFit:
    def test_requires_positive_bags(self):
        """No target atom is made up: fewer positive windows than target
        atoms, or a window of zero norm, fails."""
        rng = np.random.default_rng(22)
        Xn = columns([rng.standard_normal(6) for _ in range(3)])
        Xp = columns([rng.standard_normal(6) for _ in range(3)])
        with_zero = Xp.copy()
        with_zero[:, 1] = 0.0
        for block, T, message in [
            (np.empty((6, 0)), 1, "0 positive windows for 1 atoms"),
            (Xp[:, :2], 3, "2 positive windows for 3 atoms"),
            (with_zero, 1, "positive window 1 has zero norm"),
        ]:
            with pytest.raises(ValueError, match=f"^cannot learn target concept: {message}$"):
                fit(block, Xn, FumiParams(T=T, M=1))

    def test_requires_negative_bags(self):
        """No background atom is made up: fewer negative windows than
        background atoms, or a window of zero norm, fails."""
        rng = np.random.default_rng(23)
        Xp = columns([rng.standard_normal(6) for _ in range(3)])
        Xn = columns([rng.standard_normal(6) for _ in range(3)])
        with_zero = Xn.copy()
        with_zero[:, 2] = 0.0
        for block, M, message in [
            (np.empty((6, 0)), 1, "0 negative windows for 1 atoms"),
            (Xn[:, :2], 3, "2 negative windows for 3 atoms"),
            (with_zero, 1, "negative window 2 has zero norm"),
        ]:
            with pytest.raises(ValueError, match=f"^cannot model background: {message}$"):
                fit(Xp, block, FumiParams(T=1, M=M))

    def test_stale_atom_is_kept(self):
        """Farthest-point sampling picks the tiny window orthogonal to the
        others.  Its atom never gets a code, so its update is undefined in
        every iteration, and it stays as it started."""
        e = np.eye(6)
        Xn = columns([e[0], 2.0 * e[0], 3.0 * e[0], e[0] + 0.5 * e[3], 1e-4 * e[1]])
        Xp = columns([e[2] + c * e[0] for c in (1.0, 2.0, 3.0)])
        result = fit(Xp, Xn, FumiParams(T=1, M=2, max_em_iters=4), seed=1)
        assert result.n_iterations == 4
        np.testing.assert_array_equal(result.dictionary.background_atoms[:, 1], e[1])

    @pytest.mark.parametrize("n_atoms, bound", [(3, 0.9), (9, 1.5)])
    def test_peak_memory_is_a_fraction_of_the_windows(self, planted_fit, n_atoms, bound):
        """fit reads its blocks in place.  Its own allocations peak at 0.63x
        (T = M = 3) and 1.21x (T = M = 9) the windows' bytes here, so a
        copy of the windows would break the bound; 2.3x is the ceiling."""
        _, blocks, _ = planted_fit
        params = FumiParams(T=n_atoms, M=n_atoms, max_em_iters=2)
        tracemalloc.start()
        try:
            fit(blocks.Xp, blocks.Xn, params, seed=0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= bound * (blocks.Xp.nbytes + blocks.Xn.nbytes)

    def test_recovers_planted_template(self, planted_fit):
        res, _, result = planted_fit
        best = 0.0
        for t in range(result.dictionary.n_target):
            atom = result.dictionary.target_atoms[:, t]
            for s in range(-5, 6):
                best = max(best, abs(float(np.roll(atom, s) @ res.template)))
        assert best >= 0.95

    def test_returned_blocks_are_views_of_the_atoms(self, planted_fit):
        D = planted_fit[2].dictionary
        assert D.atoms is D.atoms
        assert np.shares_memory(D.target_atoms, D.atoms)
        assert np.shares_memory(D.background_atoms, D.atoms)

    def test_atoms_stay_unit_norm(self, planted_fit):
        _, _, result = planted_fit
        norms = np.linalg.norm(result.dictionary.atoms, axis=0)
        np.testing.assert_allclose(norms, 1.0, atol=1e-12)

    def test_posteriors_are_probabilities_and_zero_on_negatives(self, planted_fit):
        _, blocks, result = planted_fit
        assert result.posteriors.shape == (blocks.Xp.shape[1] + blocks.Xn.shape[1],)
        assert np.all(result.posteriors >= 0.0)
        assert np.all(result.posteriors <= 1.0)
        assert np.all(result.posteriors[blocks.Xp.shape[1] :] == 0.0)

    def test_negative_instances_never_use_target_atoms(self, planted_fit):
        _, blocks, result = planted_fit
        T = result.dictionary.n_target
        assert np.all(result.codes[:T, blocks.Xp.shape[1] :] == 0.0)

    def test_same_seed_reproduces_the_dictionary(self, planted_fit):
        _, blocks, result = planted_fit
        again = fit(blocks.Xp, blocks.Xn, FumiParams(T=1, M=2), seed=0)
        np.testing.assert_array_equal(result.dictionary.atoms, again.dictionary.atoms)
        np.testing.assert_array_equal(result.posteriors, again.posteriors)

    def test_iteration_cap_is_the_stop_reason(self, planted_fit):
        _, blocks, _ = planted_fit
        result = fit(blocks.Xp, blocks.Xn, FumiParams(T=1, M=2, max_em_iters=3, tol=1e-300), seed=0)
        assert result.n_iterations == 3
        assert result.stop_reason == "max_iter"
        prev, last = result.objective_trace[-2:]
        assert result.last_objective_rel_change == (last - prev) / abs(prev)

    def test_atom_tolerance_is_the_stop_reason(self, planted_fit):
        _, blocks, _ = planted_fit
        result = fit(blocks.Xp, blocks.Xn, FumiParams(T=1, M=2, tol=1e300), seed=0)
        assert result.n_iterations == 1
        assert result.stop_reason == "tol"
        assert np.isnan(result.last_objective_rel_change)

    @pytest.mark.parametrize(
        "kwargs, reason, n", [({"max_em_iters": 3, "tol": 1e-300}, "max_iter", 3), ({"tol": 1e300}, "tol", 1)]
    )
    def test_why_em_stopped_is_logged_once(self, planted_fit, caplog, kwargs, reason, n):
        _, blocks, _ = planted_fit
        with caplog.at_level(logging.INFO, logger="bcgbeat.dlfumi"):
            result = fit(blocks.Xp, blocks.Xn, FumiParams(T=1, M=2, **kwargs), seed=0)
        (record,) = [r for r in caplog.records if r.name == "bcgbeat.dlfumi"]
        assert record.levelno == logging.INFO
        assert record.getMessage() == (
            f"EM stopped: stop_reason={reason} n_iterations={n} "
            f"last_objective_rel_change={result.last_objective_rel_change!r}"
        )
        assert result.stop_reason == reason and result.n_iterations == n

    def test_objective_trace_has_one_entry_per_iteration(self, planted_fit):
        _, _, result = planted_fit
        assert len(result.objective_trace) == result.n_iterations
        assert all(np.isfinite(v) for v in result.objective_trace)

    @pytest.mark.parametrize("k", [1, 4])
    def test_objective_trace_matches_the_public_objective(self, planted_fit, k):
        # Iteration k+1 freezes gamma and the old targets at the dictionary
        # the k-iteration run returns; its trace entry, computed from fit's
        # gram-form residual norms, must equal ref.objective() over the
        # instance blocks, which forms the residuals and passes their norms
        # through the same formula; so this checks fit's norms against
        # explicit ones.
        # test_matches_term_by_term_reimplementation checks the formula.
        _, blocks, _ = planted_fit
        params = FumiParams(T=2, M=3, max_em_iters=k, tol=1e-300)
        D_k = fit(blocks.Xp, blocks.Xn, params, seed=0).dictionary
        nxt = fit(blocks.Xp, blocks.Xn, dataclasses.replace(params, max_em_iters=k + 1), seed=0)
        assert nxt.n_iterations == k + 1
        oracle = ref.objective(
            blocks.Xp,
            blocks.Xn,
            nxt.dictionary,
            nxt.codes,
            nxt.posteriors,
            params,
            gamma=gamma_matrix(D_k, params.gamma, D_k.target_atoms),
            target_atoms_old=D_k.target_atoms,
        )
        assert nxt.objective_trace[k] == pytest.approx(oracle, rel=1e-9)
