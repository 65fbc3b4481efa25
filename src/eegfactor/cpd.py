"""CPD fitting: alternating least squares and damped Gauss-Newton.

One best-of-starts loop, ``_best_of_starts``, runs both solvers: it builds
the seeded uniform(0,1) starts (or takes the one forced ``init``), scores
each start with the Gram identity (``_gram_error``: the factor Gramians and
a mode-2 MTTKRP, not a full reconstruction), stops a start on relative fit
change, and returns the best start's canonically normalized factors.  A
solver supplies only its update, which scores its iterates the same way:
``_als_sweeps`` (Cholesky-solved ALS sweeps) or ``_gn_steps``
(Levenberg-Marquardt on the stacked factor vector).  At every problem size
GN takes the exact damped step, solving the normal equations through a
3r^2 x 3r^2 system in the products dn^T n that couple the three modes
(``_gn_step``); neither the Jacobian over all tensor entries nor the
r(E+S+F)-square normal matrix is ever materialized.

Both solvers work on raw ``(A, B, C)`` arrays and numpy alone; their
MTTKRPs are calls to ``mttkrp`` (one shared partial product per ALS sweep
and per GN step, see ``tensor.mttkrp``).  Only ``factor_match_score``
imports scipy (``linear_sum_assignment``), inside the function: every CLI
stage is a fresh interpreter, and a module-level import would charge the
``diffit`` and ``decompose`` stages for loading ``scipy.optimize``.
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
class CpdResult:
    factors: FactorSet
    rel_error: float
    fit: float
    iterations: int
    converged: bool
    trace: tuple[float, ...]
    gram_regularized: bool = False
    start_index: int = 0


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


def _gram_solve(M, P, Q):
    """M G^-1 for the ALS Gramian G = (P^T P) * (Q^T Q), by Cholesky.

    A G whose factorization fails gets a small ridge relative to its scale,
    so a large singular G is ridged too.  Returns the solution and whether
    the ridge was needed.
    """
    G = (P.T @ P) * (Q.T @ Q)
    try:
        L, ridged = np.linalg.cholesky(G), False
    except np.linalg.LinAlgError:
        ridge = _GRAM_RIDGE * max(1.0, G.diagonal().max())
        L, ridged = np.linalg.cholesky(G + ridge * np.eye(len(G))), True
    Linv = np.linalg.inv(L)
    return M @ (Linv.T @ Linv), ridged


def _best_of_starts(t: Tensor3, opts: CpdOptions, init, updates) -> CpdResult:
    """Fit every start with one solver's ``updates`` and keep the best.

    ``updates(t, normX, factors, T, MC, Z, err)`` receives a scored start
    (the factors, their partial product T and mode-2 MTTKRP, Gramians and
    relative error) and yields ``(factors, err, gram_regularized)`` once per
    iteration.  Returning instead ends the start with a verdict: True when
    the solver stalled at the accuracy limit, False when it could not
    descend.
    """
    _validate_problem(t, opts.rank)
    rank, normX = opts.rank, t.norm()
    if init is not None:
        starts = [init]
    else:
        starts = (_uniform_init(t.dims, rank, opts.seed, s) for s in range(opts.n_starts))
    best = None
    for start, start_factors in enumerate(starts):
        X = tuple(np.array(M, dtype=np.float64) for M in start_factors)
        shapes = tuple(M.shape for M in X)
        if shapes != tuple((d, rank) for d in t.dims):
            raise ArgumentError(f"start factor shapes {shapes} do not match dims {t.dims} "
                                f"at rank {rank}")
        T = partial_product(t, X[0])
        MC = mttkrp(t, X, 2, T)
        err, Z = _gram_error(t, normX, *X, MC)
        fit = 1.0 - err * err
        trace = [err]
        converged = err < _EXACT_ERROR
        regularized = False
        steps = updates(t, normX, X, T, MC, Z, err)
        while not converged and len(trace) <= opts.max_iters:
            try:
                X, err, regularized = next(steps)
            except StopIteration as stall:
                converged = stall.value
                break
            new_fit = 1.0 - err * err
            trace.append(err)
            converged = abs(new_fit - fit) < opts.tol * max(new_fit, 1e-12)
            fit = new_fit
        if best is None or fit > best[0]:
            best = (fit, start, X, trace, converged, regularized)
    fit, start, X, trace, converged, regularized = best
    fs = FactorSet(rank, *X, np.ones(rank)).normalized()
    rel = relative_error(t, fs)
    return CpdResult(
        factors=fs,
        rel_error=rel,
        fit=1.0 - rel * rel,
        iterations=len(trace) - 1,
        converged=converged,
        trace=tuple(trace),
        gram_regularized=regularized,
        start_index=start,
    )


# ---------------------------------------------------------------------------
# ALS

def _als_sweeps(t: Tensor3, normX: float, X, T, MC, Z, err):
    """ALS sweeps from the start X; only the start's factors are needed.

    The partial product T of the updated A serves the B and the C update.
    """
    A, B, C = X
    regularized = False
    while True:
        A, ridged_a = _gram_solve(mttkrp(t, (A, B, C), 0), B, C)
        T = partial_product(t, A)
        B, ridged_b = _gram_solve(mttkrp(t, (A, B, C), 1, T), A, C)
        MC = mttkrp(t, (A, B, C), 2, T)
        C, ridged_c = _gram_solve(MC, A, B)
        regularized = regularized or ridged_a or ridged_b or ridged_c
        # MC is the mode-2 MTTKRP at (A, B); rebalancing leaves the identity unchanged
        err, _ = _gram_error(t, normX, A, B, C, MC)
        _rebalance(A, B, C)
        yield (A, B, C), err, regularized


def cpd_als(t: Tensor3, opts: CpdOptions, init=None) -> CpdResult:
    """Best-of-n-starts ALS fit; ``init`` (A, B, C) forces a single run.

    Each mode update solves its r x r Gramian system by Cholesky, adding a
    small ridge (and flagging ``gram_regularized``) only when the
    factorization fails.  Each sweep is scored with the Gram identity from
    the mode-2 MTTKRP of its own update, so no sweep reconstructs the tensor.
    """
    return _best_of_starts(t, opts, init, _als_sweeps)


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


def _gn_steps(t: Tensor3, normX: float, X, T, MC, Z, err):
    """Accepted damped Gauss-Newton steps from the scored start X.

    MC, the mode-2 MTTKRP that scored the iterate, is its mode-2 gradient
    term, and the partial product T behind it gives the mode-1 term.  A
    rejected trial raises the damping tenfold; once it passes ``_MU_MAX``
    the start ends, converged when no trial did worse than the iterate
    beyond roundoff.
    """
    A, B, C = X
    ZA, ZB, ZC = Z
    mu = _MU_INIT
    while True:
        gA = A @ (ZB * ZC) - mttkrp(t, (A, B, C), 0)
        gB = B @ (ZA * ZC) - mttkrp(t, (A, B, C), 1, T)
        gC = C @ (ZA * ZB) - MC
        best_trial = np.inf
        while mu <= _MU_MAX:
            try:
                dA, dB, dC = _gn_step(A, B, C, ZA, ZB, ZC, gA, gB, gC, mu)
            except np.linalg.LinAlgError:
                mu *= 10.0
                continue
            A2, B2, C2 = A + dA, B + dB, C + dC
            T2 = partial_product(t, A2)
            MC2 = mttkrp(t, (A2, B2, C2), 2, T2)
            err2, Z2 = _gram_error(t, normX, A2, B2, C2, MC2)
            best_trial = min(best_trial, err2)
            if err2 <= err:
                A, B, C, T, MC, err = A2, B2, C2, T2, MC2, err2
                ZA, ZB, ZC = Z2
                mu = max(mu / 10.0, _MU_MIN)
                break
            mu *= 10.0
        else:
            # damping ceiling hit: stalled at the numerical accuracy limit or
            # genuinely unable to descend
            return best_trial <= err * (1.0 + 1e-12)
        yield (A, B, C), err, False


def cpd_gn(t: Tensor3, opts: CpdOptions, init=None) -> CpdResult:
    """Damped Gauss-Newton (Levenberg-Marquardt) CPD fit.

    Every iteration takes the exact damped step at the current damping (see
    ``_gn_step``), whatever the problem size; a singular step system raises
    the damping tenfold and retries.  Shares the ALS seeding scheme
    so both solvers explore identical starts for a given seed; ``init``
    (A, B, C) forces a single run."""
    return _best_of_starts(t, opts, init, _gn_steps)


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
