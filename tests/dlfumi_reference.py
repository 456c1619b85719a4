"""Matrix-vector versions of the M-step's closed-form atom updates.

These are the per-atom forms that bcgbeat.dlfumi's batched updates
replaced: each update takes its own products of the positive and negative
instance blocks with one code row.  They are kept only as the reference
that tests/test_dlfumi.py compares against: both must give the same atoms
to 1e-12 relative and call the same atoms stale.
"""

import numpy as np

from bcgbeat.dlfumi import _clamp_posteriors


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
