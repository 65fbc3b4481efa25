"""DIFFIT rank selection over repeated randomized ALS sweeps.

Each run fits CPD at ranks 1..r_max with run/rank-derived seeds, forms the
successive fit differences DIF_r = f_r - f_{r-1} (DIF_1 = f_1), and picks the
rank maximizing DIFFIT_r = DIF_r / max(DIF_{r+1}, eps) among ranks whose DIF
clears a 1%-of-max-fit salience floor.  The histogram over runs mirrors the
repeated-decomposition protocol.
"""
from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .cpd import CpdOptions, CpdResult, cpd_als
from .errors import ArgumentError
from .tensor import Tensor3

_EPS = 1e-12
_SALIENCE = 0.01


@dataclass(frozen=True)
class RankReport:
    r_max: int
    n_runs: int
    fits: tuple[tuple[float, ...], ...]  # per run: f_1 .. f_rmax
    chosen: tuple[int, ...]  # per run selected rank
    histogram: dict[int, int]  # rank -> count over runs
    modal_rank: int


def _derived_seed(seed: int, run: int, rank: int) -> int:
    ss = np.random.SeedSequence([seed & (2**63 - 1), run, rank])
    return int(ss.generate_state(1)[0])


def _warm_init(result: CpdResult, dims, rng):
    """Previous-rank solution with one small random column appended."""
    fs = result.factors
    scale = fs.weights ** (1.0 / 3.0)
    cols = []
    for M in (fs.A, fs.B, fs.C):
        cols.append(M * scale[None, :])
    eps_weight = (1e-6 * max(fs.weights.max(), 1.0)) ** (1.0 / 3.0)
    out = []
    for M, d in zip(cols, dims):
        extra = rng.uniform(0.0, 1.0, size=(d, 1))
        extra *= eps_weight / np.linalg.norm(extra)
        out.append(np.hstack([M, extra]))
    return tuple(out)


def _choose_rank(fits: np.ndarray) -> int:
    r_max = len(fits)
    dif = np.empty(r_max)
    dif[0] = fits[0]
    dif[1:] = np.diff(fits)
    diffit_scores = np.empty(r_max - 1)
    for r in range(r_max - 1):
        diffit_scores[r] = dif[r] / max(dif[r + 1], _EPS)
    floor = _SALIENCE * fits[-1]
    salient = [r for r in range(r_max - 1) if dif[r] > floor]
    candidates = salient if salient else list(range(r_max - 1))
    best = candidates[0]
    for r in candidates[1:]:
        if diffit_scores[r] > diffit_scores[best]:
            best = r
    return best + 1  # ranks are 1-based


def diffit(
    t: Tensor3,
    r_max: int,
    n_runs: int = 30,
    seed: int = 0,
    options: CpdOptions | None = None,
) -> RankReport:
    """Histogram of DIFFIT-selected ranks over ``n_runs`` seeded sweeps.

    Within a run, fits are forced non-decreasing in rank: when a cold
    best-of-starts fit regresses, the previous solution (plus a small random
    extra column) seeds a warm refit, and the previous fit itself is a valid
    floor since padding with a zero component changes nothing.

    Every fit is ALS: the rank report is defined by ALS fits, and a
    Gauss-Newton DIFFIT reaches slightly higher fits at the over-factored
    ranks, which would change ``rank_report.json``.
    """
    if r_max < 3:
        raise ArgumentError(f"r_max must be >= 3, got {r_max}")
    if n_runs < 1:
        raise ArgumentError(f"n_runs must be >= 1, got {n_runs}")
    base = options if options is not None else CpdOptions(rank=1)

    all_fits = []
    chosen = []
    for run in range(n_runs):
        fits = np.empty(r_max)
        prev: CpdResult | None = None
        for rank in range(1, r_max + 1):
            opts_r = replace(base, rank=rank, seed=_derived_seed(seed, run, rank))
            result = cpd_als(t, opts_r)
            fit_r = result.fit
            if prev is not None and fit_r < fits[rank - 2]:
                rng = np.random.default_rng(
                    np.random.SeedSequence([seed & (2**63 - 1), run, rank, 9])
                )
                warm = cpd_als(t, opts_r, init=_warm_init(prev, t.dims, rng))
                if warm.fit > fit_r:
                    result, fit_r = warm, warm.fit
                fit_r = max(fit_r, fits[rank - 2])
            fits[rank - 1] = fit_r
            prev = result
        all_fits.append(tuple(float(f) for f in fits))
        chosen.append(_choose_rank(fits))

    histogram = {r: 0 for r in range(1, r_max)}
    for c in chosen:
        histogram[c] += 1
    modal = max(histogram, key=lambda r: (histogram[r], -r))
    return RankReport(
        r_max=r_max,
        n_runs=n_runs,
        fits=tuple(all_fits),
        chosen=tuple(chosen),
        histogram=histogram,
        modal_rank=modal,
    )
