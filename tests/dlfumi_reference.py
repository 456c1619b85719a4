"""Matrix-vector versions of the M-step's closed-form atom updates, and
the expected objective over explicit residuals.

The updates are the per-atom forms that bcgbeat.dlfumi's batched updates
replaced: each update takes its own products of the positive and negative
instance blocks with one code row.  They are kept only as the reference
that tests/test_dlfumi.py compares against: both must give the same atoms
to 1e-12 relative and call the same atoms stale.

objective() forms the residual blocks that fit() never forms; it is the
oracle of fit's objective trace (tests/test_dlfumi.py and c04).
"""

from __future__ import annotations

import numpy as np

from bcgbeat.dlfumi import (
    Dictionary,
    FumiParams,
    _clamp_posteriors,
    _column_sq_norms,
    _objective_from_sq_norms,
    gamma_matrix,
    resolve_psi,
)


def target_atom_update(Xp, A_pos, p_pos, D, t):
    """Target atom t from the positive-bag instances Xp (d, N_pos), their
    codes A_pos (T+M, N_pos) and posteriors p_pos; None when stale."""
    a_t = A_pos[t, :]
    if float(np.sum(p_pos * a_t * a_t)) == 0.0:
        return None
    w = _clamp_posteriors(p_pos) * a_t
    den = float(np.sum(w * a_t))
    return (Xp @ w - D.atoms @ (A_pos @ w) + den * D.target_atoms[:, t]) / den


def background_atom_update(Xp, Xn, A_pos, A_neg, p_pos, psi, D, k, gamma, target_atoms_old):
    """Background atom k, blocks as above plus the negative-bag instances
    Xn (d, N_neg) and their background codes A_neg (M, N_neg); None when
    stale."""
    T = D.n_target
    a_kp = A_pos[T + k, :]
    a_kn = A_neg[k, :]
    den = float(psi * (a_kp @ a_kp) + a_kn @ a_kn)
    if den == 0.0:
        return None
    pc = _clamp_posteriors(p_pos)
    bg = D.background_atoms
    raw = (
        psi * (Xp @ a_kp - D.atoms @ (A_pos @ (pc * a_kp)) - bg @ (A_pos[T:] @ ((1.0 - pc) * a_kp)))
        + Xn @ a_kn
        - bg @ (A_neg @ a_kn)
        + den * bg[:, k]
        - target_atoms_old @ gamma[k]
    )
    return raw / den


def objective(
    Xp: np.ndarray,
    Xn: np.ndarray,
    D: Dictionary,
    codes: np.ndarray,
    posteriors: np.ndarray,
    params: FumiParams,
    gamma: np.ndarray | None = None,
    target_atoms_old: np.ndarray | None = None,
) -> float:
    """Expected objective value over the instances of the positive block
    Xp (d, N_pos) and the negative block Xn (d, N_neg).

    Sums, per instance with weight w (psi on positive bags, 1 otherwise),

        w * ( P(z=1)/2 * ||x - D a||^2 + P(z=0)/2 * ||x - D_bg a_bg||^2
              + lam * (P(z=1)*||a_tgt||_1 + ||a_bg||_1) )

    plus the cross-coherence penalty sum_kt gamma[k,t] <d_bg_k, d_tgt_t_old>.
    `codes` (T+M, N_pos + N_neg) and `posteriors` (N_pos + N_neg,) list
    the columns of Xp, then those of Xn, as FitResult does.  When
    gamma / target_atoms_old are omitted they are taken from D itself
    (self-consistent evaluation); pass the frozen per-iteration values to
    reproduce the EM surrogate exactly.
    """
    n_pos, n_neg = Xp.shape[1], Xn.shape[1]
    codes = np.asarray(codes, dtype=float)
    posteriors = np.asarray(posteriors, dtype=float)
    if codes.shape != (D.n_target + D.n_background, n_pos + n_neg):
        raise ValueError("codes matrix shape does not match the instances and dictionary")
    A_pos, A_neg = codes[:, :n_pos], codes[D.n_target:, n_pos:]
    bg = D.background_atoms
    tgt_old = D.target_atoms if target_atoms_old is None else target_atoms_old
    if gamma is None:
        gamma = gamma_matrix(D, params.gamma, tgt_old)
    return _objective_from_sq_norms(
        _column_sq_norms(Xp - D.atoms @ A_pos),
        _column_sq_norms(Xp - bg @ A_pos[D.n_target:]),
        _column_sq_norms(Xn - bg @ A_neg),
        A_pos,
        A_neg,
        posteriors[:n_pos],
        resolve_psi(n_pos, n_neg, params),
        params.lam,
        bg,
        gamma,
        tgt_old,
    )
