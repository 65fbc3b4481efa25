"""CPD fitting: alternating least squares and damped Gauss-Newton.

Both solvers run through one start loop, ``_best_of_starts``.  It builds the
seeded uniform(0,1) starts (or takes the one forced ``init``) and advances
them all in lockstep: each round, every live start takes one update, and the
update's two large GEMMs, the partial product T = A^T X_(0) and the mode-0
MTTKRP, run once over the stack of live starts, so a round reads the tensor
once or twice whatever the number of starts (batched BLAS; Dongarra et al.,
ICCS 2017).  Each start is scored with the Gram identity (``_gram_error``:
the factor Gramians and a mode-2 MTTKRP, not a full reconstruction), keeps
its own damping, trace, stopping rule and iteration cap, and drops out of
the stack when it stops.  The loop returns the best start's canonically
normalized factors and a record of every start.

A solver supplies only its round: ``_als_round`` (one Cholesky-solved ALS
sweep per start) or ``_gn_round`` (one Levenberg-Marquardt trial per start
on the concatenated factor vector).  At every problem size GN takes the exact
damped step, solving the normal equations through a 3r^2 x 3r^2 system in
the products dn^T n that couple the three modes (``_gn_step``); neither the
Jacobian over all tensor entries nor the r(E+S+F)-square normal matrix is
ever materialized.  The 3r^2 x 3r^2 systems are solved start by start;
the r x r ALS Gramians are factored as one stack (``_gram_solve``).

Both solvers work on raw ``(A, B, C)`` arrays and numpy alone; their
MTTKRPs are calls to ``mttkrp`` on stacks of factors (see
``tensor.mttkrp``).  Only ``factor_match_score`` imports scipy
(``linear_sum_assignment``), inside the function: every CLI stage is a fresh
interpreter, and a module-level import would charge the ``diffit`` and
``decompose`` stages for loading ``scipy.optimize``.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ArgumentError
from .tensor import FactorSet, Tensor3, mttkrp, partial_product, relative_error

_GRAM_RIDGE = 1e-10
_MU_INIT = 1e-2
_MU_MAX = 1e12
_MU_MIN = 1e-14
# a start this close to the tensor is already a solution: no update runs
_EXACT_ERROR = 1e-13


@dataclass(frozen=True)
class CpdOptions:
    rank: int
    max_iters: int = 500
    tol: float = 1e-8
    n_starts: int = 5
    seed: int = 0

    def __post_init__(self):
        if self.rank < 1:
            raise ArgumentError(f"rank must be >= 1, got {self.rank}")
        if self.tol <= 0:
            raise ArgumentError(f"tol must be positive, got {self.tol}")
        if self.n_starts < 1:
            raise ArgumentError(f"n_starts must be >= 1, got {self.n_starts}")
        if self.max_iters < 1:
            raise ArgumentError(f"max_iters must be >= 1, got {self.max_iters}")


@dataclass(frozen=True)
class StartRecord:
    """How one start of a fit went: its updates, its verdict, the fit of its
    last iterate (by the Gram identity) and whether a Gramian was ridged."""

    iterations: int
    converged: bool
    fit: float
    gram_regularized: bool


@dataclass(frozen=True)
class CpdResult:
    """The best start's normalized factors, error, fit and fit trace, which
    start that was, and every start's record; the best start's
    ``iterations``, ``converged`` and ``gram_regularized`` read its record."""

    factors: FactorSet
    rel_error: float
    fit: float
    trace: tuple[float, ...]
    start_index: int
    starts: tuple[StartRecord, ...]

    @property
    def iterations(self) -> int:
        return self.starts[self.start_index].iterations

    @property
    def converged(self) -> bool:
        return self.starts[self.start_index].converged

    @property
    def gram_regularized(self) -> bool:
        return self.starts[self.start_index].gram_regularized


def _validate_problem(t: Tensor3, rank: int):
    E, S, F = t.dims
    cap = min(S * F, E * F, E * S)
    if rank > cap:
        raise ArgumentError(f"rank {rank} exceeds the identifiable cap {cap} for dims {t.dims}")
    if t.norm() == 0.0:
        raise ArgumentError("cannot decompose a zero tensor")


def _uniform_init(dims, rank: int, seed: int, start: int):
    rng = np.random.default_rng(np.random.SeedSequence([seed & (2**63 - 1), start]))
    return tuple(rng.uniform(0.0, 1.0, size=(d, rank)) for d in dims)


def _gram_error(t: Tensor3, normX: float, A, B, C, MC):
    """Relative error of the CPD (A, B, C) without reconstructing the tensor.

    Uses ||X - X^||^2 = ||X||^2 - 2<MC, C> + sum(ZA*ZB*ZC), where MC is the
    caller's mode-2 MTTKRP at (A, B) and Z* are the factor Gramians.  The
    identity cancels to about sqrt(eps) in relative error, so below a
    relative error of 1e-4 the exact norm of the residual is taken instead.
    Returns the error and the Gramians (ZA, ZB, ZC).
    """
    Z = (A.T @ A, B.T @ B, C.T @ C)
    err2 = normX * normX - 2.0 * float(np.vdot(MC, C)) + float(np.sum(Z[0] * Z[1] * Z[2]))
    if err2 < 1e-8 * normX * normX:
        return relative_error(t, FactorSet(A.shape[1], A, B, C, np.ones(A.shape[1]))), Z
    return math.sqrt(err2) / normX, Z


def _rebalance(A, B, C):
    """Equalize per-component column norms in place; reconstruction is
    unchanged.  A component with a zero column in any factor is left as is."""
    norms = [np.linalg.norm(M, axis=0) for M in (A, B, C)]
    scale = norms[0] * norms[1] * norms[2]
    live = scale > 0.0
    target = scale ** (1.0 / 3.0)
    for M, n in zip((A, B, C), norms):
        M *= np.divide(target, n, out=np.ones_like(n), where=live)
    return A, B, C


def _cholesky(G):
    """Cholesky factor of the ALS Gramian G, and whether it needed a ridge.

    A G whose factorization fails gets a small ridge relative to its scale,
    so a large singular G is ridged too."""
    try:
        return np.linalg.cholesky(G), False
    except np.linalg.LinAlgError:
        ridge = _GRAM_RIDGE * max(1.0, G.diagonal().max())
        return np.linalg.cholesky(G + ridge * np.eye(len(G))), True


def _gram_solve(M, P, Q):
    """M G^-1 for each start's ALS Gramian G = (P^T P) * (Q^T Q).

    M, P and Q are (k, d, r) stacks.  The k Gramians are factored in one
    call; when any of them fails, each is factored on its own by
    ``_cholesky``.  Returns the solutions and, per start, whether the ridge
    was needed.
    """
    G = (P.mT @ P) * (Q.mT @ Q)
    try:
        L, ridged = np.linalg.cholesky(G), np.zeros(len(G), dtype=bool)
    except np.linalg.LinAlgError:
        L, ridged = (np.array(x) for x in zip(*map(_cholesky, G)))
    Linv = np.linalg.inv(L)
    return M @ (Linv.mT @ Linv), ridged


class _Start:
    """One start of a fit: its iterate, its record, and the solver's state."""

    def __init__(self, opts: CpdOptions, X, MB, MC, scored):
        self.opts = opts
        self.X = X
        self.MB, self.MC = MB, MC
        self.err, self.Z = scored
        self.fit = 1.0 - self.err * self.err
        self.trace = [self.err]
        self.converged = self.err < _EXACT_ERROR
        self.running = not self.converged
        self.regularized = False
        # Gauss-Newton: damping, gradient at X (None until computed), and the
        # smallest error of the trials rejected since the last step
        self.mu = _MU_INIT
        self.g = None
        self.best_trial = np.inf

    def record(self, err: float):
        """Take the error of an accepted update and apply the stopping rule:
        relative fit change below ``tol``, or ``max_iters`` updates."""
        fit = 1.0 - err * err
        self.trace.append(err)
        self.converged = abs(fit - self.fit) < self.opts.tol * max(fit, 1e-12)
        self.err, self.fit = err, fit
        self.running = not self.converged and len(self.trace) <= self.opts.max_iters

    def stop(self, converged: bool):
        """End the start without a new iterate: True when the solver stalled
        at the accuracy limit, False when it could not descend."""
        self.converged, self.running = converged, False


def _stack(factor_sets):
    """The (k, d, r) stacks of the A, B and C of k factor triples."""
    return tuple(np.stack(Ms) for Ms in zip(*factor_sets))


def _score(t: Tensor3, normX: float, A, B, C):
    """Mode-1 and mode-2 MTTKRPs of the (k, d, r) stacks from one partial
    product, and each start's Gram-identity error and Gramians."""
    T = partial_product(t, A)
    MB = mttkrp(t, (A, B, C), 1, T)
    MC = mttkrp(t, (A, B, C), 2, T)
    return MB, MC, [_gram_error(t, normX, *X, mc) for *X, mc in zip(A, B, C, MC)]


def _best_of_starts(t: Tensor3, opts: CpdOptions, init, advance) -> CpdResult:
    """Fit every start with one solver's rounds and keep the best.

    ``advance(t, normX, live)`` gives every live start one update: a start
    that reaches a new iterate passes its error to ``record``, one that
    cannot go on calls ``stop``, and one whose trial failed just stays live.
    The best start is the first one with the highest fit.
    """
    _validate_problem(t, opts.rank)
    rank, normX = opts.rank, t.norm()
    if init is None:
        inits = [_uniform_init(t.dims, rank, opts.seed, s) for s in range(opts.n_starts)]
    else:
        inits = [tuple(np.asarray(M, dtype=np.float64) for M in init)]
        shapes = tuple(M.shape for M in inits[0])
        if shapes != tuple((d, rank) for d in t.dims):
            raise ArgumentError(f"start factor shapes {shapes} do not match dims {t.dims} "
                                f"at rank {rank}")
    A, B, C = _stack(inits)
    MB, MC, scored = _score(t, normX, A, B, C)
    starts = [_Start(opts, *s) for s in zip(zip(A, B, C), MB, MC, scored)]
    live = [s for s in starts if s.running]
    while live:
        advance(t, normX, live)
        live = [s for s in live if s.running]
    best = max(starts, key=lambda s: s.fit)
    fs = FactorSet(rank, *best.X, np.ones(rank)).normalized()
    rel = relative_error(t, fs)
    return CpdResult(
        factors=fs,
        rel_error=rel,
        fit=1.0 - rel * rel,
        trace=tuple(best.trace),
        start_index=starts.index(best),
        starts=tuple(StartRecord(len(s.trace) - 1, s.converged, s.fit, s.regularized)
                     for s in starts),
    )


# ---------------------------------------------------------------------------
# ALS

def _als_round(t: Tensor3, normX: float, live):
    """One ALS sweep for every live start, over the stacks of their factors.

    The partial product T of the updated A serves the B and the C update.
    """
    A, B, C = _stack([s.X for s in live])
    A, ridged_a = _gram_solve(mttkrp(t, (A, B, C), 0), B, C)
    T = partial_product(t, A)
    B, ridged_b = _gram_solve(mttkrp(t, (A, B, C), 1, T), A, C)
    MC = mttkrp(t, (A, B, C), 2, T)
    C, ridged_c = _gram_solve(MC, A, B)
    for s, *X, mc, ridged in zip(live, A, B, C, MC, ridged_a | ridged_b | ridged_c):
        # mc is the mode-2 MTTKRP at (A, B); rebalancing leaves the identity unchanged
        err, _ = _gram_error(t, normX, *X, mc)
        s.X = _rebalance(*X)
        s.regularized = s.regularized or bool(ridged)
        s.record(err)


def cpd_als(t: Tensor3, opts: CpdOptions, init=None) -> CpdResult:
    """Best-of-n-starts ALS fit; ``init`` (A, B, C) forces a single run.

    Each mode update solves its r x r Gramian system by Cholesky, adding a
    small ridge (and flagging ``gram_regularized``) only when the
    factorization fails.  Each sweep is scored with the Gram identity from
    the mode-2 MTTKRP of its own update, so no sweep reconstructs the tensor.
    """
    return _best_of_starts(t, opts, init, _als_round)


# ---------------------------------------------------------------------------
# Gauss-Newton (Levenberg-Marquardt)

def _gn_step(A, B, C, ZA, ZB, ZC, gA, gB, gC, mu):
    """Exact damped Gauss-Newton step: solve (J^T J + mu I) delta = -g.

    The three modes are coupled only through the r x r products
    Phi_n = dn^T n (Tichavsky, Phan & Cichocki, SIAM J. Matrix Anal. Appl.
    34(1), 2013).  With K_A = ZB*ZC + mu I, and K_B, K_C alike, the A rows
    of the system read

        dA = -(gA + A (Phi_B*ZC + Phi_C*ZB)) K_A^{-1},

    and B and C follow the same pattern.  Multiplying each by its factor
    gives a 3r^2 x 3r^2 system (I + L) phi = b for the three Phi: the block
    of L for (n <- m) is (K_n^{-1} (x) Z_n) diag(vec Z_k) P_r, with k the
    third mode, P_r the r^2 x r^2 commutation (Phi -> Phi^T) and row-major
    vec; b_n = -vec(K_n^{-1} g_n^T n).  I + L is nonsingular whenever the
    damped matrix is, and a singular system raises LinAlgError.

    When the factor norms differ by orders of magnitude, as in an
    over-factored fit, I + L is badly scaled and the Phi it yields lose
    digits.  So the step is refined once: the residual of the full system,
    g + (J^T J + mu I) delta, comes from the same r x r products, and its
    correction is one more solve with the same I + L.  The work is
    O((E+S+F) r^2 + r^6).
    """
    r = A.shape[1]
    X, Z = (A, B, C), (ZA, ZB, ZC)
    others = ((1, 2), (0, 2), (0, 1))
    K = [Z[m] * Z[k] + mu * np.eye(r) for m, k in others]
    Kinv = [np.linalg.inv(Kn) for Kn in K]
    rr = r * r
    # column (i, j) of a block reads Phi_m[j, i]: the commutation P_r
    swap = np.arange(rr).reshape(r, r).T.ravel()
    lhs = np.eye(3 * rr)
    for n, (m, k) in enumerate(others):
        KZ = np.kron(Kinv[n], Z[n])
        for src, third in ((m, k), (k, m)):
            lhs[n * rr:(n + 1) * rr, src * rr:(src + 1) * rr] += (KZ * Z[third].ravel())[:, swap]

    def coupling(phi):
        # the rows of J^T J delta that mix modes: n (Phi_m*Z_k + Phi_k*Z_m)
        return [X[n] @ (phi[m] * Z[k] + phi[k] * Z[m]) for n, (m, k) in enumerate(others)]

    def solve(g):
        b = np.concatenate([(Kinv[n] @ (g[n].T @ X[n])).ravel() for n in range(3)])
        phi = -np.linalg.solve(lhs, b).reshape(3, r, r)
        return [-(g[n] + c) @ Kinv[n] for n, c in enumerate(coupling(phi))]

    g = (gA, gB, gC)
    d = solve(g)
    phi = [dn.T @ Xn for dn, Xn in zip(d, X)]
    res = [g[n] + d[n] @ K[n] + c for n, c in enumerate(coupling(phi))]
    return tuple(dn + en for dn, en in zip(d, solve(res)))


def _gn_round(t: Tensor3, normX: float, live):
    """One damped Gauss-Newton trial for every live start.

    A start that has just stepped first gets its gradient: its mode-0 term
    comes from one MTTKRP over all such starts, and its mode-1 and mode-2
    terms are the MTTKRPs that scored the iterate.  The trials are scored
    together; an accepted trial lowers the damping tenfold, and a rejected
    or singular one raises it (``_raise_damping``).
    """
    fresh = [s for s in live if s.g is None]
    if fresh:
        for s, ma in zip(fresh, mttkrp(t, _stack([s.X for s in fresh]), 0)):
            (A, B, C), (ZA, ZB, ZC) = s.X, s.Z
            s.g = (A @ (ZB * ZC) - ma, B @ (ZA * ZC) - s.MB, C @ (ZA * ZB) - s.MC)
    tried, trials = [], []
    for s in live:
        while s.running:
            try:
                step = _gn_step(*s.X, *s.Z, *s.g, s.mu)
            except np.linalg.LinAlgError:
                _raise_damping(s)
                continue
            tried.append(s)
            trials.append(tuple(M + d for M, d in zip(s.X, step)))
            break
    if not tried:
        return
    A, B, C = _stack(trials)
    MB, MC, scored = _score(t, normX, A, B, C)
    for s, *X, mb, mc, (err, Z) in zip(tried, A, B, C, MB, MC, scored):
        if err <= s.err:
            s.X, s.MB, s.MC, s.Z, s.g = tuple(X), mb, mc, Z, None
            s.mu = max(s.mu / 10.0, _MU_MIN)
            s.best_trial = np.inf
            s.record(err)
        else:
            s.best_trial = min(s.best_trial, err)
            _raise_damping(s)


def _raise_damping(s: _Start):
    """Raise a start's damping tenfold.  Past ``_MU_MAX`` the start ends:
    converged when it stalled at the numerical accuracy limit, no trial
    having done worse than the iterate beyond roundoff, and not converged
    when it genuinely could not descend."""
    s.mu *= 10.0
    if s.mu > _MU_MAX:
        s.stop(s.best_trial <= s.err * (1.0 + 1e-12))


def cpd_gn(t: Tensor3, opts: CpdOptions, init=None) -> CpdResult:
    """Damped Gauss-Newton (Levenberg-Marquardt) CPD fit.

    Every iteration takes the exact damped step at the current damping (see
    ``_gn_step``), whatever the problem size; a singular step system raises
    the damping tenfold and retries.  Shares the ALS seeding scheme
    so both solvers explore identical starts for a given seed; ``init``
    (A, B, C) forces a single run."""
    return _best_of_starts(t, opts, init, _gn_round)


# ---------------------------------------------------------------------------
# stability diagnostics

def _abs_cosines(Ma: np.ndarray, Mb: np.ndarray) -> np.ndarray:
    na = np.linalg.norm(Ma, axis=0)
    nb = np.linalg.norm(Mb, axis=0)
    dots = np.abs(Ma.T @ Mb)
    denom = np.outer(na, nb)
    out = np.zeros_like(dots)
    nz = denom > 0
    out[nz] = dots[nz] / denom[nz]
    return out


def factor_match_score(a: FactorSet, b: FactorSet) -> float:
    """Permutation-optimal mean over components of |cosA|*|cosB|*|cosC|.

    The best matching is the optimal assignment on the component-pair scores.
    """
    from scipy.optimize import linear_sum_assignment

    if a.rank != b.rank:
        raise ArgumentError(f"rank mismatch: {a.rank} vs {b.rank}")
    if a.dims != b.dims:
        raise ArgumentError(f"dimension mismatch: {a.dims} vs {b.dims}")
    P = (
        _abs_cosines(a.A, b.A)
        * _abs_cosines(a.B, b.B)
        * _abs_cosines(a.C, b.C)
    )
    rows, cols = linear_sum_assignment(-P)
    return float(P[rows, cols].sum() / a.rank)
