"""Multiple-instance discriminative dictionary learning (DL-FUMI).

Learns a concept dictionary D = [D_tgt | D_bg] from labeled bags of
instances: positive bags are only guaranteed to contain at least one true
target instance, negative bags contain none.  Every step works per
instance, so the learner reads two instance blocks, Xp (d, N_pos) of the
positive bags and Xn (d, N_neg) of the negative ones.  An EM loop alternates

  E-step   (e_step) per-instance probability that a positive-bag
           instance is a true target, driven by how badly the background
           dictionary alone reconstructs it,
  M-step   closed-form per-atom updates of the expected objective
           (target_atom_update, background_atom_update) with immediate
           renormalization to unit norm, followed by the batched ISTA
           code steps of the kernels module.

The codes and posteriors stay fixed while the atoms update, so every
product of the data and codes those updates need is formed once per
iteration (update_products): two data GEMMs, Xp W^T and Xn A_neg^T, and
three small code grams.  Each update then reads its columns of them and
does only (d, K) work against the atoms updated so far.

A cross-coherence penalty (gamma_matrix) pushes background atoms away
from the previous iteration's target atoms so the target structure is not
absorbed into the background model.

The E-step, the objective and detection's GLRT need only the squared
norms of the reconstruction residuals, never the residuals themselves.
They read them as ||x||^2 - 2 a^T (D^T x) + a^T (D^T D) a
(_residual_sq_norms) from the grams (coding_operands) and correlations the
code steps already hold, so no (d, N) residual block is formed.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field

import numpy as np

from . import kernels

log = logging.getLogger(__name__)

_POSTERIOR_CLAMP = 1e-12
_WARMUP_STEPS = 5


@dataclass
class FumiParams:
    """Learner hyperparameters.

    T / M        : number of target / background atoms
    lam          : sparsity weight on the code L1 norm
    gamma        : scale of the target/background cross-coherence penalty
    beta         : E-step sensitivity; larger beta makes any background
                   reconstruction residual look more target-like
    psi          : weight of positive-bag instances in the objective;
                   None resolves to (#negative instances / #positive)
    inner_iters  : ISTA code steps per EM iteration
    max_em_iters : EM iteration cap
    tol          : stop when no atom moved more than this (L2) in one
                   iteration
    """

    T: int = 3
    M: int = 3
    lam: float = 5e-3
    gamma: float = 5e-3
    beta: float = 90.0
    psi: float | None = None
    inner_iters: int = 5
    max_em_iters: int = 100
    tol: float = 1e-5

    def validate(self):
        # each test states what must hold, so that NaN fails it
        if not (self.T >= 1 and self.M >= 1):
            raise ValueError("T and M must be >= 1")
        if not (0.0 <= self.lam < np.inf and 0.0 <= self.gamma < np.inf):
            raise ValueError("lam and gamma must be finite and >= 0")
        if not 0.0 < self.beta < np.inf:
            raise ValueError("beta must be finite and > 0")
        if self.psi is not None and not 0.0 < self.psi < np.inf:
            raise ValueError("psi must be finite and > 0")
        if not (self.inner_iters >= 1 and self.max_em_iters >= 1):
            raise ValueError("inner_iters and max_em_iters must be >= 1")
        if not 0.0 < self.tol < np.inf:
            raise ValueError("tol must be finite and > 0")


class Dictionary:
    """Column-atom dictionary D = [D_tgt | D_bg], held as one (d, T+M)
    array `atoms` whose first n_target columns are the target block.
    target_atoms and background_atoms are column views of it.  The
    constructor copies the two blocks it is given into a new array."""

    def __init__(self, target_atoms, background_atoms):
        tgt = np.atleast_2d(np.asarray(target_atoms, dtype=float))
        bg = np.atleast_2d(np.asarray(background_atoms, dtype=float))
        if tgt.shape[0] != bg.shape[0]:
            raise ValueError("target and background atoms must share a dimension")
        self.atoms = np.hstack([tgt, bg])
        self.n_target = tgt.shape[1]

    @property
    def d(self) -> int:
        return self.atoms.shape[0]

    @property
    def n_background(self) -> int:
        return self.atoms.shape[1] - self.n_target

    @property
    def target_atoms(self) -> np.ndarray:
        return self.atoms[:, : self.n_target]

    @property
    def background_atoms(self) -> np.ndarray:
        return self.atoms[:, self.n_target :]


@dataclass
class FitResult:
    """Everything fit() produces.

    codes is a (T+M, N_pos + N_neg) matrix whose columns are those of the
    positive block, then those of the negative block; target rows are zero
    for negative-bag instances.  posteriors holds P(z=1) per instance in
    the same order and is exactly 0 on negative bags.

    stop_reason says why EM stopped: "tol" when no atom moved more than
    params.tol in the last iteration, "max_iter" when it ran
    max_em_iters iterations without that.  last_objective_rel_change is
    (f_n - f_{n-1}) / |f_{n-1}| over the last two objective_trace entries
    (negative while the objective falls), NaN after a single iteration.
    """

    dictionary: Dictionary
    codes: np.ndarray
    posteriors: np.ndarray
    objective_trace: list[float]
    n_iterations: int
    stop_reason: str
    last_objective_rel_change: float
    inner_objective_trace: list[np.ndarray] = field(default_factory=list)


def resolve_psi(n_pos: int, n_neg: int, params: FumiParams) -> float:
    """params.psi, defaulting to the negative/positive instance count ratio."""
    if params.psi is not None:
        return float(params.psi)
    if n_pos == 0 or n_neg == 0:
        raise ValueError("psi default needs both positive and negative instances")
    return n_neg / n_pos


def safe_step_length(atoms: np.ndarray) -> float:
    """The ISTA step length fit() and detection use: 1 / lambda_max(D^T D)
    of the (d, K) atoms D, from the exact symmetric eigensolver.

    The gram is at most (T+M) x (T+M), so the dense solve is cheap; raises
    ValueError on an all-zero dictionary.
    """
    G = atoms.T @ atoms
    if not np.any(G):
        raise ValueError("dictionary gram matrix is zero")
    return 1.0 / float(np.linalg.eigvalsh(G)[-1])


def e_step(sq_norms: np.ndarray, beta: float) -> np.ndarray:
    """P(z=1 | x) = 1 - exp(-beta * ||x - D_bg a_bg||^2) per positive-bag
    instance, from the (N_pos,) squared norms of the background residuals
    Xp - D_bg A_pos_bg.  Negative-bag instances carry P(z=1) = 0 by
    definition; that forcing happens in fit(), not here."""
    p = -np.expm1(-beta * np.asarray(sq_norms, dtype=float))
    np.clip(p, 0.0, 1.0, out=p)
    return p


def gamma_matrix(D: Dictionary, scale: float, target_atoms_old: np.ndarray) -> np.ndarray:
    """Cross-coherence penalty coefficients, shape (M, T): scale * cos(angle
    between background atom k and previous-iteration target atom t), so
    each penalty term gamma[k, t] * <d_bg_k, d_tgt_t_old> is never
    negative."""
    bg = D.background_atoms
    bn = np.linalg.norm(bg, axis=0)
    tn = np.linalg.norm(target_atoms_old, axis=0)
    if np.any(bn == 0.0) or np.any(tn == 0.0):
        raise ValueError("gamma_matrix needs nonzero atoms")
    return scale * (bg.T @ target_atoms_old) / np.outer(bn, tn)


def coding_operands(background_atoms: np.ndarray, atoms: np.ndarray | None = None):
    """(G_bg, eta_bg) of the contiguous background block D_bg, then, when
    atoms = [D_tgt | D_bg] is given, (G, eta) of the whole dictionary: the
    grams and ISTA step lengths fit() and detection code with.  G is a
    product of two operands; NumPy runs `A.T @ A` on one array as a
    symmetric rank-k update, which rounds differently at some shapes."""
    ops = (background_atoms.T @ background_atoms, safe_step_length(background_atoms))
    return ops if atoms is None else (*ops, atoms.T @ atoms.copy(), safe_step_length(atoms))


def _column_sq_norms(R: np.ndarray) -> np.ndarray:
    return np.einsum("ij,ij->j", R, R)


def _residual_sq_norms(
    x_sq: np.ndarray,
    A: np.ndarray,
    corr: np.ndarray,
    gram: np.ndarray,
    work: tuple[np.ndarray, np.ndarray] | None = None,
) -> np.ndarray:
    """Column squared norms of X - B A without forming the residuals:
    ||x||^2 - 2 a^T (B^T x) + a^T (B^T B) a per column, clamped at 0.

    x_sq holds ||x||^2 per column of X, corr = B^T X and gram = B^T B must
    be current for the atoms B the codes A (K, N) refer to.  work, when
    given, is a pair of C-contiguous blocks shaped like A that receive
    gram @ A - 2 corr, so a loop of calls allocates them once.
    """
    prod, twice = (None, None) if work is None else work
    prod = np.matmul(gram, A, out=prod)
    prod -= np.multiply(corr, 2.0, out=twice)
    r = x_sq + np.einsum("ij,ij->j", A, prod)
    return np.maximum(r, 0.0, out=r)


def _objective_from_sq_norms(
    sq_full_pos: np.ndarray,
    sq_bg_pos: np.ndarray,
    sq_bg_neg: np.ndarray,
    A_pos: np.ndarray,
    A_neg: np.ndarray,
    p_pos: np.ndarray,
    psi: float,
    lam: float,
    background_atoms: np.ndarray,
    gamma: np.ndarray,
    target_atoms_old: np.ndarray,
) -> float:
    """The expected objective over positive / negative instance blocks, from
    their residual squared norms: fit() passes its gram-form norms, and the
    objective() of tests/dlfumi_reference.py explicit ones.

    The residual squared norms must be current for the atoms and codes
    given (sq_full_pos of Xp - D A_pos, sq_bg_pos of Xp - D_bg A_pos_bg,
    sq_bg_neg of Xn - D_bg A_neg, one per column); negative-bag instances
    have weight 1 and P(z=1) = 0, so only their background terms appear.
    """
    T = A_pos.shape[0] - A_neg.shape[0]
    recon_pos = p_pos * sq_full_pos + (1.0 - p_pos) * sq_bg_pos
    recon = 0.5 * (psi * np.sum(recon_pos) + np.sum(sq_bg_neg))
    l1_pos = p_pos * np.sum(np.abs(A_pos[:T]), axis=0) + np.sum(np.abs(A_pos[T:]), axis=0)
    l1 = lam * (psi * np.sum(l1_pos) + np.sum(np.abs(A_neg)))
    disc = float(np.sum(gamma * (background_atoms.T @ target_atoms_old)))
    return float(recon + l1 + disc)


def _clamp_posteriors(p: np.ndarray) -> np.ndarray:
    return np.clip(p, _POSTERIOR_CLAMP, 1.0 - _POSTERIOR_CLAMP)


@dataclass(frozen=True)
class UpdateProducts:
    """The products the M-step's atom updates read, formed once per EM
    iteration by update_products.

    The codes and posteriors stay fixed while the atoms update, so none of
    these depends on the atoms.  With pc the clamped posteriors of the
    positive-bag instances, A_tgt / A_bg the target / background rows of
    their codes A_pos, and W = [pc*A_tgt ; A_bg] (K, N_pos):

      xp             Xp W^T                     (d, K)
      xn             Xn A_neg^T                 (d, M)
      gram_pos       A_pos (pc*A_pos)^T         (K, K)
      gram_bg        A_bg ((1-pc)*A_bg)^T       (M, M)
      gram_neg       A_neg A_neg^T              (M, M)
      target_mass    sum_i p_i a_it^2 with the unclamped p, (T,)
      background_den psi*||a_kp||^2 + ||a_kn||^2, (M,)

    A zero target_mass or background_den marks a stale atom.  The
    clamped gram diagonal is never zero, so it cannot serve for that test.
    """

    xp: np.ndarray
    xn: np.ndarray
    gram_pos: np.ndarray
    gram_bg: np.ndarray
    gram_neg: np.ndarray
    target_mass: np.ndarray
    background_den: np.ndarray
    psi: float


def update_products(
    Xp: np.ndarray,
    Xn: np.ndarray,
    A_pos: np.ndarray,
    A_neg: np.ndarray,
    p_pos: np.ndarray,
    psi: float,
    work: tuple[np.ndarray, np.ndarray],
) -> UpdateProducts:
    """UpdateProducts of the positive-bag instances Xp (d, N_pos), their
    codes A_pos (T+M, N_pos) and posteriors p_pos, and the negative-bag
    instances Xn (d, N_neg) with their background codes A_neg (M, N_neg):
    two data GEMMs and three code grams.  work is a pair of C-contiguous
    blocks shaped like A_pos that receive the weighted codes, so a loop of
    iterations allocates them once."""
    T = A_pos.shape[0] - A_neg.shape[0]
    pc = _clamp_posteriors(p_pos)
    A_tgt, A_bg = A_pos[:T], A_pos[T:]
    weighted, W = work
    np.multiply(A_pos, pc, out=weighted)
    W[:T] = weighted[:T]
    W[T:] = A_bg
    xp = Xp @ W.T
    # W's rows are free again: (1-pc) * A_bg, then p * A_tgt * A_tgt
    rest, mass = W[T:], W[:T]
    np.multiply(1.0 - pc, A_bg, out=rest)
    np.multiply(p_pos, A_tgt, out=mass)
    mass *= A_tgt
    return UpdateProducts(
        xp=xp,
        xn=Xn @ A_neg.T,
        gram_pos=A_pos @ weighted.T,
        gram_bg=A_bg @ rest.T,
        gram_neg=A_neg @ A_neg.T,
        target_mass=np.sum(mass, axis=1),
        background_den=psi * np.einsum("ij,ij->i", A_bg, A_bg)
        + np.einsum("ij,ij->i", A_neg, A_neg),
        psi=float(psi),
    )


def target_atom_update(P: UpdateProducts, t: int, atoms: np.ndarray):
    """Closed-form minimizer of the expected objective over target atom t
    of the dictionary's atoms [D_tgt | D_bg], everything else held fixed,
    before renormalization.

    Reads column t of the iteration's products P.  Returns None (stale)
    when the update is undefined because sum_i P_i * a_it^2 is exactly
    zero.  The positive-bag weight psi cancels and does not appear.
    """
    if P.target_mass[t] == 0.0:
        return None
    g = P.gram_pos[:, t]
    den = g[t]
    # R_full_pos @ (pc a_t), with R_full_pos = Xp - D A_pos never formed
    return (P.xp[:, t] - atoms @ g + den * atoms[:, t]) / den


def background_atom_update(
    P: UpdateProducts,
    D: Dictionary,
    k: int,
    gamma: np.ndarray,
    target_atoms_old: np.ndarray,
):
    """Closed-form minimizer of the expected objective over background
    atom k, everything else held fixed, including the cross-coherence pull
    gamma[k] (a gamma_matrix row) away from the previous target atoms.

    Reads column k of the background blocks of the iteration's products
    P.  Returns the atom before renormalization, or None (stale) when
    psi*sum_pos a_ik^2 + sum_neg a_ik^2 is exactly zero.
    """
    den = P.background_den[k]
    if den == 0.0:
        return None
    T, atoms, bg = D.n_target, D.atoms, D.background_atoms
    # R_full_pos @ (pc a) + R_bg_pos @ ((1-pc) a) + R_bg_neg @ a_neg, with
    # the two Xp products folded into Xp @ a and the residuals never formed
    raw = (
        P.psi * (P.xp[:, T + k] - atoms @ P.gram_pos[:, T + k] - bg @ P.gram_bg[:, k])
        + P.xn[:, k]
        - bg @ P.gram_neg[:, k]
        + den * bg[:, k]
        - target_atoms_old @ gamma[k]
    )
    return raw / den


def _normalize_or_none(v: np.ndarray):
    n = np.linalg.norm(v)
    return None if n == 0.0 else v / n


def _unit(v: np.ndarray) -> np.ndarray:
    return v / np.linalg.norm(v)


def _farthest_point_init(Xn: np.ndarray, m: int, first: int) -> np.ndarray:
    """Pick m of the columns of Xn, none of them zero, by farthest-point
    sampling on cosine distance from column `first`, and return them
    normalized as initial background atoms."""
    U = Xn / np.linalg.norm(Xn, axis=0)
    chosen = [first]
    min_dist = 1.0 - U.T @ U[:, first]
    min_dist[first] = -np.inf
    for _ in range(1, m):
        nxt = int(np.argmax(min_dist))
        chosen.append(nxt)
        min_dist = np.minimum(min_dist, 1.0 - U.T @ U[:, nxt])
        min_dist[nxt] = -np.inf
    return np.column_stack([_unit(Xn[:, i]) for i in chosen])


def fit(Xp: np.ndarray, Xn: np.ndarray, params: FumiParams, seed: int = 0,
        inner_objective_trace: bool = False) -> FitResult:
    """Run the full EM learner on the instance blocks Xp (d, N_pos) of the
    positive bags and Xn (d, N_neg) of the negative ones, read in place.

    Deterministic given (Xp, Xn, params, seed).  Background atoms start from
    farthest-point-sampled negative instances (cosine distance) and the
    one random draw, seeded by `seed`, picks the first; target atoms start
    from the positive instances the initial background dictionary
    reconstructs worst (their background-removed residuals, normalized);
    codes get a short ISTA warm-up before the first E-step.  A block with
    fewer instances than its atoms, or with an instance of zero norm, is a
    ValueError (`cannot learn target concept:` for Xp, `cannot model
    background:` for Xn).

    Per EM iteration: E-step posteriors from the current background
    reconstruction; per-atom closed-form updates applied sequentially,
    each renormalized to unit norm immediately; an atom whose update is
    undefined or zero (stale) is kept as it is; then inner_iters ISTA code
    steps.  Stops when no atom moves more than params.tol or after
    max_em_iters iterations; the result's stop_reason says which, and so
    does one INFO record on this module's logger, with the iteration count
    and the last relative objective change.

    With inner_objective_trace=True the result also carries, per EM
    iteration, the objective value before the code updates and after each
    individual inner code step (atoms, posteriors, and the coherence
    penalty frozen), which is the quantity the step-size bound guarantees
    to be non-increasing.
    """
    params.validate()
    Xp, Xn = np.ascontiguousarray(Xp, dtype=float), np.ascontiguousarray(Xn, dtype=float)
    d, n_pos = Xp.shape
    n_neg = Xn.shape[1]
    T, M = params.T, params.M
    Xp_sq = _column_sq_norms(Xp)
    Xn_sq = _column_sq_norms(Xn)
    for sq, n_atoms, why, kind in ((Xp_sq, T, "cannot learn target concept", "positive"),
                                   (Xn_sq, M, "cannot model background", "negative")):
        if sq.size < n_atoms:
            raise ValueError(f"{why}: {sq.size} {kind} windows for {n_atoms} atoms")
        if not sq.all():
            raise ValueError(f"{why}: {kind} window {np.flatnonzero(sq == 0.0)[0]} has zero norm")
    psi = resolve_psi(n_pos, n_neg, params)

    # --- initialization ---------------------------------------------------
    first = int(np.random.default_rng(seed).integers(n_neg))
    D_bg = _farthest_point_init(Xn, M, first)
    G_bg, eta_bg = coding_operands(D_bg)
    corr_neg = D_bg.T @ Xn
    A_neg = kernels.ista_negative(
        G_bg, corr_neg, np.zeros((M, n_neg)), params.lam, eta_bg, _WARMUP_STEPS
    )
    A_pos_bg = kernels.ista_negative(
        G_bg, D_bg.T @ Xp, np.zeros((M, n_pos)), params.lam, eta_bg, _WARMUP_STEPS
    )
    R_init = D_bg @ A_pos_bg
    np.subtract(Xp, R_init, out=R_init)
    resid = _column_sq_norms(R_init)
    order = np.argsort(-resid, kind="stable")
    D_tgt = np.empty((d, T))
    for j in range(T):
        a = _normalize_or_none(R_init[:, order[j]])
        if a is None:
            raise ValueError("cannot learn target concept: the background atoms "
                             f"reconstruct positive window {order[j]} exactly")
        D_tgt[:, j] = a
    del R_init  # a (d, N_pos) block that EM never reads

    D = Dictionary(D_tgt, D_bg)
    atoms = D.atoms
    G_bg, eta_bg, G, eta = coding_operands(D.background_atoms, atoms)
    corr_pos = np.vstack([D.target_atoms.T @ Xp, D.background_atoms.T @ Xp])
    A_pos = kernels.ista_negative(
        G, corr_pos, np.vstack([np.zeros((T, n_pos)), A_pos_bg]), params.lam, eta, _WARMUP_STEPS
    )
    del A_pos_bg  # A_pos starts from it

    # Work blocks by shape, allocated once: the update products' weighted
    # codes and the residual norms' gram @ A - 2 corr.
    blocks_by_shape = {}

    def work(shape):
        if shape not in blocks_by_shape:
            blocks_by_shape[shape] = (np.empty(shape), np.empty(shape))
        return blocks_by_shape[shape]

    def sq_norms():
        """Residual squared norms per column (full positive, background
        positive, background negative) for the current codes; G, G_bg,
        corr_pos and corr_neg belong to the atoms the codes were fit to."""
        return (
            _residual_sq_norms(Xp_sq, A_pos, corr_pos, G, work(A_pos.shape)),
            _residual_sq_norms(Xp_sq, A_pos[T:], corr_pos[T:], G_bg, work((M, n_pos))),
            _residual_sq_norms(Xn_sq, A_neg, corr_neg, G_bg, work(A_neg.shape)),
        )

    def objective_now(norms, gamma, tgt_old):
        return _objective_from_sq_norms(
            *norms, A_pos, A_neg, p_pos, psi, params.lam, D.background_atoms, gamma, tgt_old
        )

    norms = sq_norms()
    trace: list[float] = []
    inner_trace: list[np.ndarray] = []
    p_pos = np.zeros(n_pos)
    n_iterations = 0
    stop_reason = "max_iter"

    for em in range(params.max_em_iters):
        n_iterations = em + 1
        # --- E-step: posterior from current background reconstruction ----
        p_pos = e_step(norms[1], params.beta)

        tgt_old = D.target_atoms.copy()
        atoms_before = atoms.copy()
        gamma = gamma_matrix(D, params.gamma, tgt_old)

        # --- M-step: sequential closed-form atom updates ------------------
        # Targets first, then backgrounds; each update sees the atoms as
        # updated so far.  A stale atom is kept.
        products = update_products(Xp, Xn, A_pos, A_neg, p_pos, psi, work(A_pos.shape))
        for j in range(T + M):
            if j < T:
                raw = target_atom_update(products, j, atoms)
            else:
                raw = background_atom_update(products, D, j - T, gamma, tgt_old)
            new_atom = raw if raw is None else _normalize_or_none(raw)
            if new_atom is not None:
                atoms[:, j] = new_atom

        # --- code updates --------------------------------------------------
        G_bg, eta_bg, G, eta = coding_operands(D.background_atoms, atoms)
        # the correlations are overwritten in place: nothing reads the old ones
        np.matmul(D.target_atoms.T, Xp, out=corr_pos[:T])
        np.matmul(D.background_atoms.T, Xp, out=corr_pos[T:])
        np.matmul(D.background_atoms.T, Xn, out=corr_neg)
        # One call of inner_iters steps, or single steps each followed by
        # the objective when tracing.
        steps = [1] * params.inner_iters if inner_objective_trace else [params.inner_iters]
        vals = [objective_now(sq_norms(), gamma, tgt_old)] if inner_objective_trace else []
        for n_steps in steps:
            A_pos = kernels.ista_positive(
                G, G_bg, corr_pos, p_pos, A_pos, params.lam, eta, n_steps, T
            )
            A_neg = kernels.ista_negative(G_bg, corr_neg, A_neg, params.lam, eta_bg, n_steps)
            norms = sq_norms()
            if inner_objective_trace:
                vals.append(objective_now(norms, gamma, tgt_old))
        if inner_objective_trace:
            inner_trace.append(np.asarray(vals))

        trace.append(objective_now(norms, gamma, tgt_old))

        atom_change = np.linalg.norm(atoms - atoms_before, axis=0).max()
        if atom_change < params.tol:
            stop_reason = "tol"
            break

    last_change = (trace[-1] - trace[-2]) / abs(trace[-2]) if len(trace) > 1 else float("nan")
    log.info(
        "EM stopped: stop_reason=%s n_iterations=%d last_objective_rel_change=%r",
        stop_reason, n_iterations, last_change,
    )
    codes = np.zeros((T + M, n_pos + n_neg))
    codes[:, :n_pos] = A_pos
    codes[T:, n_pos:] = A_neg
    posteriors = np.zeros(n_pos + n_neg)
    posteriors[:n_pos] = p_pos
    return FitResult(
        dictionary=D,
        codes=codes,
        posteriors=posteriors,
        objective_trace=trace,
        n_iterations=n_iterations,
        stop_reason=stop_reason,
        last_objective_rel_change=last_change,
        inner_objective_trace=inner_trace,
    )
