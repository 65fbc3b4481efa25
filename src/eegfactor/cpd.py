"""CPD fitting: alternating least squares and damped Gauss-Newton.

Both solvers run through one start loop, ``_best_of_starts``.  It builds the
seeded uniform(0,1) starts (or takes the one forced ``init``) and holds them
as arrays over the start axis (``_Starts``).  Each round advances the live
starts in lockstep: the update's two large GEMMs, the partial product
T = A^T X_(0) and the mode-0 MTTKRP, run once over their stack, so a round
reads the tensor once or twice whatever the number of starts (batched BLAS;
Dongarra et al., ICCS 2017).  The stack is scored with the Gram identity
(``_gram_error``, not a full reconstruction), and the stopping rule is
applied to all of it at once.  The loop returns the best start's
canonically normalized factors and a record of every start.

A solver supplies only its round: ``_als_round`` (one Cholesky-solved ALS
sweep) or ``_gn_round`` (one Levenberg-Marquardt trial per start).  GN takes
the exact damped step at every problem size, through a 3r^2 x 3r^2 system
in the products dn^T n that couple the three modes (``_gn_step``), solved
start by start; neither the Jacobian nor the r(E+S+F)-square normal matrix
is ever materialized.  Both solvers use numpy alone; their MTTKRPs are
calls to ``mttkrp`` on stacks of factors.
"""
from __future__ import annotations

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
    """Relative errors of the CPDs in the (k, d, r) stacks (A, B, C),
    without reconstructing the tensor.

    Uses ||X - X^||^2 = ||X||^2 - 2<MC, C> + sum(ZA*ZB*ZC), with MC the
    caller's mode-2 MTTKRPs at (A, B) and Z* the factor Gramians; each
    start reduces as ``np.vdot`` and ``np.sum`` of its slices do, bit for
    bit.  The identity cancels to about sqrt(eps) in relative error, so a
    start below a relative error of 1e-4 takes the exact residual norm.
    Returns the (k,) errors and the Gramian stacks (ZA, ZB, ZC).
    """
    k, r = len(A), A.shape[-1]
    Z = (A.mT @ A, B.mT @ B, C.mT @ C)
    err2 = (normX * normX - 2.0 * np.vecdot(MC.reshape(k, -1), C.reshape(k, -1))
            + (Z[0] * Z[1] * Z[2]).sum(axis=(1, 2)))
    exact = err2 < 1e-8 * normX * normX
    err = np.sqrt(np.maximum(err2, 0.0)) / normX
    err[exact] = [relative_error(t, FactorSet(r, A[i], B[i], C[i], np.ones(r)))
                  for i in np.flatnonzero(exact)]
    return err, Z


def _rebalance(A, B, C):
    """Equalize per-component column norms in place; reconstruction is
    unchanged.  A component with a zero column in any factor is left as is.
    The factors are (d, r) matrices or (k, d, r) stacks of them."""
    norms = [np.linalg.norm(M, axis=-2) for M in (A, B, C)]
    scale = norms[0] * norms[1] * norms[2]
    live = scale > 0.0
    target = scale ** (1.0 / 3.0)
    for M, n in zip((A, B, C), norms):
        M *= np.divide(target, n, out=np.ones_like(n), where=live)[..., None, :]
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


class _Starts:
    """Every start of a fit as arrays over the start axis: the (k, d, r)
    iterates ``X`` with the MTTKRPs and Gramians that scored them, and each
    start's error, fit, updates, verdict and flags.  Gauss-Newton adds the
    damping, the best trial rejected since the last step, and the gradients
    with a flag for the stale ones.  ``log`` keeps one (indices, errors)
    pair per ``record``, so it grows with the updates taken."""

    def __init__(self, opts: CpdOptions, X, MB, MC, err, Z):
        k = len(err)
        self.opts = opts
        self.X, self.MB, self.MC, self.Z = X, MB, MC, Z
        self.err, self.fit = err, 1.0 - err * err
        self.log = [(np.arange(k), err.copy())]
        self.iterations = np.zeros(k, dtype=np.int64)
        self.converged = err < _EXACT_ERROR
        self.running = ~self.converged
        self.ridged = np.zeros(k, dtype=bool)
        self.mu = np.full(k, _MU_INIT)
        self.best_trial = np.full(k, np.inf)
        self.stale = np.ones(k, dtype=bool)
        self.g = tuple(np.empty_like(M) for M in X)

    def record(self, idx, err):
        """Take the errors of the accepted updates of starts ``idx`` and
        apply the stopping rule: relative fit change below ``tol``, or
        ``max_iters`` updates."""
        fit = 1.0 - err * err
        self.log.append((idx, err))
        self.iterations[idx] += 1
        self.converged[idx] = np.abs(fit - self.fit[idx]) < self.opts.tol * np.maximum(fit, 1e-12)
        self.err[idx], self.fit[idx] = err, fit
        self.running[idx] = ~self.converged[idx] & (self.iterations[idx] < self.opts.max_iters)


def _score(t: Tensor3, normX: float, A, B, C):
    """Mode-1 and mode-2 MTTKRPs of the (k, d, r) stacks from one partial
    product, and the stack's Gram-identity errors and Gramians."""
    T = partial_product(t, A)
    MB = mttkrp(t, (A, B, C), 1, T)
    MC = mttkrp(t, (A, B, C), 2, T)
    return (MB, MC, *_gram_error(t, normX, A, B, C, MC))


def _best_of_starts(t: Tensor3, opts: CpdOptions, init, advance) -> CpdResult:
    """Fit every start with one solver's rounds and keep the best.

    ``advance(t, normX, st, live)`` gives the starts ``live``, an index
    array into the ``_Starts`` st, one update each: the starts that reach a
    new iterate pass their errors to ``st.record``, one that cannot go on
    clears its ``running`` flag, and one whose trial failed just stays live.
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
    X = tuple(np.stack(Ms) for Ms in zip(*inits))
    st = _Starts(opts, X, *_score(t, normX, *X))
    while (live := np.flatnonzero(st.running)).size:
        advance(t, normX, st, live)
    fits = st.fit.tolist()
    best = fits.index(max(fits))
    fs = FactorSet(rank, *(M[best] for M in st.X), np.ones(rank)).normalized()
    rel = relative_error(t, fs)
    return CpdResult(
        factors=fs,
        rel_error=rel,
        fit=1.0 - rel * rel,
        trace=tuple(np.concatenate([err[idx == best] for idx, err in st.log]).tolist()),
        start_index=best,
        starts=tuple(map(StartRecord, st.iterations.tolist(), st.converged.tolist(), fits,
                         st.ridged.tolist())),
    )


# ---------------------------------------------------------------------------
# ALS

def _als_round(t: Tensor3, normX: float, st: _Starts, live):
    """One ALS sweep for the live starts, over the stacks of their factors.

    The partial product T of the updated A serves the B and the C update,
    and the MTTKRP of the C update scores the sweep before rebalancing."""
    A, B, C = (M[live] for M in st.X)
    A, ridged_a = _gram_solve(mttkrp(t, (A, B, C), 0), B, C)
    T = partial_product(t, A)
    B, ridged_b = _gram_solve(mttkrp(t, (A, B, C), 1, T), A, C)
    MC = mttkrp(t, (A, B, C), 2, T)
    C, ridged_c = _gram_solve(MC, A, B)
    err, _ = _gram_error(t, normX, A, B, C, MC)
    for M, new in zip(st.X, _rebalance(A, B, C)):
        M[live] = new
    st.ridged[live] |= ridged_a | ridged_b | ridged_c
    st.record(live, err)


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


def _gn_round(t: Tensor3, normX: float, st: _Starts, live):
    """One damped Gauss-Newton trial for every live start.

    The starts that have just stepped first get their gradients: the mode-0
    term comes from one MTTKRP over all of them, and the mode-1 and mode-2
    terms are the MTTKRPs that scored their iterates.  The trials are scored
    together; an accepted trial lowers the damping tenfold, and a rejected
    or singular one raises it (``_raise_damping``).
    """
    fresh = live[st.stale[live]]
    if fresh.size:
        A, B, C = (M[fresh] for M in st.X)
        ZA, ZB, ZC = (Z[fresh] for Z in st.Z)
        st.g[0][fresh] = A @ (ZB * ZC) - mttkrp(t, (A, B, C), 0)
        st.g[1][fresh] = B @ (ZA * ZC) - st.MB[fresh]
        st.g[2][fresh] = C @ (ZA * ZB) - st.MC[fresh]
        st.stale[fresh] = False
    steps = {}
    for i in live:  # each start solves its own step system
        while st.running[i]:
            try:
                steps[i] = _gn_step(*(M[i] for M in st.X + st.Z + st.g), st.mu[i])
                break
            except np.linalg.LinAlgError:
                _raise_damping(st, np.array([i]))
    if not steps:
        return
    tried = np.array(list(steps))
    X = tuple(M[tried] + np.stack(d) for M, d in zip(st.X, zip(*steps.values())))
    MB, MC, err, Z = _score(t, normX, *X)
    ok = err <= st.err[tried]
    up, down = tried[ok], tried[~ok]
    for M, new in zip(st.X + st.Z + (st.MB, st.MC), X + Z + (MB, MC)):
        M[up] = new[ok]
    st.stale[up] = True
    st.mu[up] = np.maximum(st.mu[up] / 10.0, _MU_MIN)
    st.best_trial[up] = np.inf
    st.record(up, err[ok])
    # fmin keeps the best trial when a trial's error is NaN
    st.best_trial[down] = np.fmin(st.best_trial[down], err[~ok])
    _raise_damping(st, down)


def _raise_damping(st: _Starts, idx):
    """Raise the damping of the starts ``idx`` tenfold.  Past ``_MU_MAX`` a
    start ends: converged when it stalled at the numerical accuracy limit,
    no trial having done worse than the iterate beyond roundoff, and not
    converged when it genuinely could not descend."""
    st.mu[idx] *= 10.0
    idx = idx[st.mu[idx] > _MU_MAX]
    st.converged[idx] = st.best_trial[idx] <= st.err[idx] * (1.0 + 1e-12)
    st.running[idx] = False


def cpd_gn(t: Tensor3, opts: CpdOptions, init=None) -> CpdResult:
    """Damped Gauss-Newton (Levenberg-Marquardt) CPD fit.

    Every iteration takes the exact damped step at the current damping (see
    ``_gn_step``), whatever the problem size; a singular step system raises
    the damping tenfold and retries.  Shares the ALS seeding scheme
    so both solvers explore identical starts for a given seed; ``init``
    (A, B, C) forces a single run."""
    return _best_of_starts(t, opts, init, _gn_round)
