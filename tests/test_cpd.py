import importlib
import itertools
import tracemalloc

import numpy as np
import pytest

from eegfactor import (
    ArgumentError,
    CpdOptions,
    FactorSet,
    SynthSpec,
    Tensor3,
    cpd_als,
    cpd_gn,
    make_tensor,
    relative_error,
)
from conftest import _abs_cosines, factor_match_score


def truth_init(truth):
    w3 = truth.weights ** (1.0 / 3.0)
    return (truth.A * w3, truth.B * w3, truth.C * w3)


class TestOptions:
    def test_zero_rank_rejected(self):
        with pytest.raises(ArgumentError):
            CpdOptions(rank=0)

    def test_bad_tol(self):
        with pytest.raises(ArgumentError):
            CpdOptions(rank=1, tol=0.0)

    def test_rank_cap(self, planted_small):
        t, _ = planted_small
        cap = min(19 * 89, 40 * 89, 40 * 19)
        with pytest.raises(ArgumentError):
            cpd_als(t, CpdOptions(rank=cap + 1, n_starts=1, max_iters=2))

    def test_zero_tensor_rejected(self):
        with pytest.raises(ArgumentError):
            cpd_als(Tensor3(np.zeros((3, 3, 3))), CpdOptions(rank=1))


class TestAls:
    def test_planted_noiseless_recovery(self, planted_small, tight_opts):
        t, truth = planted_small
        res = cpd_als(t, tight_opts)
        assert res.rel_error < 1e-6
        assert factor_match_score(res.factors, truth) > 0.99

    def test_rank1_exact_in_three_iterations(self):
        t, truth = make_tensor(SynthSpec(dims=(8, 6, 7), rank=1, seed=3))
        res = cpd_als(t, CpdOptions(rank=1, n_starts=1, seed=5))
        assert res.rel_error < 1e-10
        assert res.iterations <= 3

    def test_trace_non_increasing(self, planted_noisy):
        t, _ = planted_noisy
        res = cpd_als(t, CpdOptions(rank=3, n_starts=2, tol=1e-12, max_iters=200, seed=1))
        trace = np.array(res.trace)
        assert np.all(np.diff(trace) <= 1e-12)

    def test_seeded_determinism(self, planted_noisy):
        t, _ = planted_noisy
        opts = CpdOptions(rank=2, n_starts=2, max_iters=60, seed=9)
        r1, r2 = cpd_als(t, opts), cpd_als(t, opts)
        assert r1.trace == r2.trace
        np.testing.assert_array_equal(r1.factors.A, r2.factors.A)
        np.testing.assert_array_equal(r1.factors.weights, r2.factors.weights)
        assert r1.start_index == r2.start_index

    def test_normalized_output(self, planted_small, tight_opts):
        t, _ = planted_small
        fs = cpd_als(t, tight_opts).factors
        np.testing.assert_allclose(np.linalg.norm(fs.A, axis=0), 1.0, rtol=1e-10)
        assert np.all(np.diff(fs.weights) <= 0)

    def test_degenerate_gramian_regularized_and_flagged(self):
        # a zero factor column makes the mode-0 Gramian singular on sweep one
        t, truth = make_tensor(SynthSpec(dims=(8, 6, 7), rank=1, seed=13))
        rng = np.random.default_rng(0)
        init = (
            np.column_stack([rng.uniform(0, 1, 8), np.zeros(8)]),
            np.column_stack([rng.uniform(0, 1, 6), np.zeros(6)]),
            np.column_stack([rng.uniform(0, 1, 7), np.zeros(7)]),
        )
        res = cpd_als(t, CpdOptions(rank=2, n_starts=1, max_iters=30, seed=0), init=init)
        assert res.gram_regularized
        assert np.all(np.isfinite(res.factors.A))
        assert res.rel_error < 1e-8  # the live component still fits the rank-1 data

    def test_collinear_large_gramian_regularized_and_flagged(self):
        # duplicate columns at a large scale: G is singular and its Cholesky
        # pivot is roundoff far above an absolute 1e-10 ridge
        t, truth = make_tensor(SynthSpec(dims=(8, 6, 7), rank=1, seed=13))
        rng = np.random.default_rng(0)
        init = tuple(np.repeat(1e4 * rng.uniform(0, 1, (d, 1)), 2, axis=1) for d in (8, 6, 7))
        res = cpd_als(t, CpdOptions(rank=2, n_starts=1, max_iters=30, seed=0), init=init)
        assert res.gram_regularized
        assert np.all(np.isfinite(res.factors.A))


class TestRebalance:
    def test_norms_equalized_and_reconstruction_kept(self):
        from eegfactor.cpd import _rebalance

        rng = np.random.default_rng(21)
        A, B, C = (rng.standard_normal((d, 4)) * [1e3, 1.0, 1e-3, 5.0] for d in (9, 6, 7))
        A[:, 1] = 0.0  # a zero column leaves its whole component untouched
        before = np.einsum("er,sr,fr->esf", A, B, C)
        kept = [M[:, 1].copy() for M in (A, B, C)]
        _rebalance(A, B, C)
        after = np.einsum("er,sr,fr->esf", A, B, C)
        assert np.abs(after - before).max() <= 1e-12 * np.abs(before).max()
        for M, col in zip((A, B, C), kept):
            np.testing.assert_array_equal(M[:, 1], col)
        norms = np.array([np.linalg.norm(M, axis=0) for M in (A, B, C)])
        live = [0, 2, 3]
        np.testing.assert_allclose(norms[1:, live], norms[:1, live].repeat(2, axis=0),
                                   rtol=1e-12)


class TestStarts:
    @pytest.mark.parametrize("solver", [cpd_als, cpd_gn], ids=["als", "gn"])
    def test_tensor_norm_computed_once(self, monkeypatch, solver):
        t, _ = make_tensor(SynthSpec(dims=(10, 19, 89), rank=2, snr_db=20.0, seed=5))
        real_norm, seen = np.linalg.norm, []
        monkeypatch.setattr(np.linalg, "norm",
                            lambda x, *a, **k: seen.append(x is t.data) or real_norm(x, *a, **k))
        solver(t, CpdOptions(rank=2, n_starts=2, max_iters=5, seed=1))
        assert seen.count(True) == 1

    @pytest.mark.parametrize("solver", [cpd_als, cpd_gn], ids=["als", "gn"])
    def test_stationary_start_returns_immediately(self, planted_small, solver):
        t, truth = planted_small
        res = solver(t, CpdOptions(rank=3, seed=1), init=truth_init(truth))
        assert res.converged
        assert res.iterations == 0
        assert res.rel_error < 1e-10

    @pytest.mark.parametrize("solver", [cpd_als, cpd_gn], ids=["als", "gn"])
    def test_best_start_is_first_with_best_fit(self, planted_noisy, solver):
        t, _ = planted_noisy
        res = solver(t, CpdOptions(rank=4, n_starts=4, max_iters=15, seed=3))
        fits = [s.fit for s in res.starts]
        assert len(fits) == 4
        assert len(set(fits)) > 1  # the starts disagree, so the pick matters
        assert res.start_index == fits.index(max(fits))

    @pytest.mark.parametrize("solver", [cpd_als, cpd_gn], ids=["als", "gn"])
    def test_each_start_agrees_with_its_single_run(self, planted_noisy, solver):
        # the starts advance as one stack; each one still follows the path it
        # takes alone, up to the roundoff of the stacked GEMMs
        from eegfactor.cpd import _uniform_init

        t, _ = planted_noisy
        opts = CpdOptions(rank=4, n_starts=4, max_iters=15, seed=3)
        res = solver(t, opts)
        for s, rec in enumerate(res.starts):
            alone = solver(t, opts, init=_uniform_init(t.dims, opts.rank, opts.seed, s))
            (single,) = alone.starts
            assert (single.iterations, single.converged) == (rec.iterations, rec.converged)
            assert single.fit == pytest.approx(rec.fit, rel=1e-10)
            if s == res.start_index:
                assert alone.fit == pytest.approx(res.fit, rel=1e-10)

    @pytest.mark.parametrize("solver", [cpd_als, cpd_gn], ids=["als", "gn"])
    def test_trace_memory_grows_with_the_updates_not_the_cap(self, planted_small, solver):
        # the trace is a log of the updates taken: arrays sized by max_iters
        # would take 40 MB here
        t, _ = planted_small
        tracemalloc.start()
        try:
            res = solver(t, CpdOptions(rank=3, n_starts=5, max_iters=10**6))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert all(s.converged for s in res.starts)
        assert peak < 4 * 2**20

    def test_gn_reads_the_tensor_once_per_round(self, planted_noisy, monkeypatch):
        # every live start takes one trial per round, and the round's partial
        # product covers all their trials; a stopped start leaves the stack
        cpd_module = importlib.import_module("eegfactor.cpd")
        real, stacks = cpd_module.partial_product, []
        monkeypatch.setattr(cpd_module, "partial_product",
                            lambda t, A: stacks.append(len(A) if A.ndim == 3 else 1) or real(t, A))
        t, _ = planted_noisy
        opts = CpdOptions(rank=3, n_starts=10, max_iters=4, seed=2)
        res = cpd_gn(t, opts)
        assert len(res.starts) == 10
        assert stacks[:2] == [10, 10]  # the starts are scored, then tried, together
        assert stacks == sorted(stacks, reverse=True)
        assert sum(stacks) >= 10 + sum(s.iterations for s in res.starts)
        assert len(stacks) <= 1 + 2 * opts.max_iters


class TestGramSolve:
    def test_singular_start_is_ridged_alone(self):
        from eegfactor.cpd import _gram_solve

        rng = np.random.default_rng(12)
        M, P, Q = (rng.standard_normal((3, d, 2)) for d in (8, 6, 7))
        P[1, :, 1] = 0.0  # the Gramian of start 1 is singular
        X, ridged = _gram_solve(M, P, Q)
        assert ridged.tolist() == [False, True, False]
        assert np.all(np.isfinite(X))
        for i in (0, 2):
            alone, ridged_alone = _gram_solve(M[i:i + 1], P[i:i + 1], Q[i:i + 1])
            assert not ridged_alone[0]
            np.testing.assert_allclose(X[i], alone[0], rtol=1e-12)


class TestGaussNewton:
    def test_planted_noiseless_recovery(self, planted_small, tight_opts):
        t, truth = planted_small
        res = cpd_gn(t, tight_opts)
        assert res.rel_error < 1e-6
        assert factor_match_score(res.factors, truth) > 0.99

    def test_agrees_with_als(self, planted_small, tight_opts):
        t, _ = planted_small
        fit_als = cpd_als(t, tight_opts).fit
        fit_gn = cpd_gn(t, tight_opts).fit
        assert abs(fit_als - fit_gn) < 1e-4

    def test_noisy_fit_beats_planted_factors(self, planted_noisy):
        t, truth = planted_noisy
        res = cpd_gn(t, CpdOptions(rank=3, n_starts=3, tol=1e-12, max_iters=150, seed=2))
        planted_fit = 1.0 - relative_error(t, truth) ** 2
        assert res.fit >= planted_fit

    def test_accepted_steps_non_increasing(self, planted_noisy):
        t, _ = planted_noisy
        res = cpd_gn(t, CpdOptions(rank=3, n_starts=2, tol=1e-12, max_iters=100, seed=4))
        trace = np.array(res.trace)
        assert np.all(np.diff(trace) <= 0.0)

    def test_seeded_determinism(self, planted_noisy):
        t, _ = planted_noisy
        opts = CpdOptions(rank=2, n_starts=2, max_iters=40, seed=11)
        r1, r2 = cpd_gn(t, opts), cpd_gn(t, opts)
        assert r1.trace == r2.trace
        np.testing.assert_array_equal(r1.factors.A, r2.factors.A)

    @pytest.mark.parametrize("delta,converged", [(1e-6, False), (3e-8, True)])
    def test_damping_past_the_cap_ends_the_start(self, planted_noisy, monkeypatch,
                                                  delta, converged):
        # from an ALS-converged iterate the step delta*(A, B, C) only rescales
        # the model, so every trial is worse and the damping climbs from 1e-2
        # past 1e12 in 15 trials.  At delta = 3e-8 the trials are worse by
        # less than 1e-12 relative: the start stalled at the accuracy limit
        t, _ = planted_noisy
        als = cpd_als(t, CpdOptions(rank=3, n_starts=1, tol=1e-14, max_iters=2000, seed=0))
        cpd_module = importlib.import_module("eegfactor.cpd")
        trials = []
        monkeypatch.setattr(cpd_module, "_gn_step", lambda A, B, C, *rest: trials.append(A)
                            or (delta * A, delta * B, delta * C))
        res = cpd_gn(t, CpdOptions(rank=3), init=truth_init(als.factors))
        assert len(trials) == 15
        assert res.iterations == 0
        assert res.converged is converged

    def test_singular_start_ends_alone(self, planted_noisy, monkeypatch):
        # a start whose step system is always singular raises its damping
        # past the cap within one round and ends unconverged; the other
        # starts of the stack go on as they do alone
        from eegfactor.cpd import _uniform_init

        cpd_module = importlib.import_module("eegfactor.cpd")
        t, _ = planted_noisy
        opts = CpdOptions(rank=3, n_starts=3, max_iters=20, seed=4)
        A1 = _uniform_init(t.dims, opts.rank, opts.seed, 1)[0]
        real_step, singular = cpd_module._gn_step, []

        def step(A, *rest):
            if np.array_equal(A, A1):
                singular.append(A)
                raise np.linalg.LinAlgError("singular")
            return real_step(A, *rest)

        monkeypatch.setattr(cpd_module, "_gn_step", step)
        res = cpd_gn(t, opts)
        assert len(singular) == 15
        assert (res.starts[1].iterations, res.starts[1].converged) == (0, False)
        for s in (0, 2):
            (alone,) = cpd_gn(t, opts, init=_uniform_init(t.dims, opts.rank, opts.seed, s)).starts
            rec = res.starts[s]
            assert rec.iterations > 0
            assert ((alone.iterations, alone.converged, alone.gram_regularized)
                    == (rec.iterations, rec.converged, rec.gram_regularized))
            # the stacked GEMMs round differently from the solo ones
            assert alone.fit == pytest.approx(rec.fit, rel=1e-10)

    def test_large_problem_recovery(self):
        # r(E+S+F) = 2424: a size the exact step takes like any other
        t, truth = make_tensor(SynthSpec(dims=(700, 19, 89), rank=3, seed=21))
        res = cpd_gn(t, CpdOptions(rank=3, n_starts=2, tol=1e-14, max_iters=60, seed=3))
        assert res.rel_error < 1e-6
        assert factor_match_score(res.factors, truth) > 0.99


def dense_hessian(A, B, C, mu):
    """J^T J + mu I of the CPD residual as a dense matrix, block by block."""
    E, r = A.shape
    S, F = B.shape[0], C.shape[0]
    ZA, ZB, ZC = A.T @ A, B.T @ B, C.T @ C
    N = r * (E + S + F)
    H = np.zeros((N, N))
    ea, eb = E * r, E * r + S * r
    H[:ea, :ea] = np.kron(np.eye(E), ZB * ZC)
    H[ea:eb, ea:eb] = np.kron(np.eye(S), ZA * ZC)
    H[eb:, eb:] = np.kron(np.eye(F), ZA * ZB)
    HAB = np.einsum("ej,si,ij->eisj", A, B, ZC).reshape(E * r, S * r)
    HAC = np.einsum("ej,fi,ij->eifj", A, C, ZB).reshape(E * r, F * r)
    HBC = np.einsum("sj,fi,ij->sifj", B, C, ZA).reshape(S * r, F * r)
    H[:ea, ea:eb] = HAB
    H[ea:eb, :ea] = HAB.T
    H[:ea, eb:] = HAC
    H[eb:, :ea] = HAC.T
    H[ea:eb, eb:] = HBC
    H[eb:, ea:eb] = HBC.T
    H[np.diag_indices(N)] += mu
    return H


class TestHessianPieces:
    # E2-r3: E < r, so ZA is singular while every damped K_n is not
    @pytest.mark.parametrize("dims,r", [
        ((7, 4, 5), 2), ((200, 19, 89), 5), ((7, 4, 5), 1), ((2, 19, 89), 3),
    ], ids=["E7-r2", "E200-r5", "E7-r1", "E2-r3"])
    @pytest.mark.parametrize("mu", [10.0, 1e-2])
    def test_gn_step_matches_dense_solve(self, dims, r, mu):
        from eegfactor.cpd import _gn_step

        rng = np.random.default_rng(6)
        A, B, C = (rng.uniform(0.0, 1.0, size=(d, r)) for d in dims)
        gA, gB, gC = (rng.standard_normal((d, r)) for d in dims)
        ZA, ZB, ZC = A.T @ A, B.T @ B, C.T @ C
        step = np.concatenate([d.ravel() for d in _gn_step(A, B, C, ZA, ZB, ZC, gA, gB, gC, mu)])
        rhs = -np.concatenate([gA.ravel(), gB.ravel(), gC.ravel()])
        dense = np.linalg.solve(dense_hessian(A, B, C, mu), rhs)
        assert np.linalg.norm(step - dense) <= 1e-9 * np.linalg.norm(dense)

    def test_gn_step_accurate_on_over_factored_fit(self, monkeypatch):
        # a rank-5 fit of a rank-3 tensor drifts to factor norms that differ
        # by orders of magnitude, where the 3r^2 system alone loses digits.
        # The oracle is the dense solve refined with a long-double residual.
        # A step whose plain dense solve misses it by more than 1e-10 is too
        # ill-conditioned for any float64 solver to meet the bound; there the
        # step only has to stay within 10x of the dense solve's error.  Which
        # steps those are depends on the BLAS thread count, so two fits (from
        # two seeds) supply the steps that are checked
        from scipy.linalg import lu_factor, lu_solve

        cpd_module = importlib.import_module("eegfactor.cpd")
        real_step, seen = cpd_module._gn_step, []
        monkeypatch.setattr(cpd_module, "_gn_step", lambda *a: seen.append(a) or real_step(*a))
        t, _ = make_tensor(SynthSpec(dims=(20, 19, 89), rank=3, snr_db=20, seed=1))
        for seed in (0, 1):
            cpd_gn(t, CpdOptions(rank=5, max_iters=30, n_starts=1, seed=seed))
        checked = 0
        for args in seen:
            A, B, C, _, _, _, gA, gB, gC, mu = args
            lu = lu_factor(dense_hessian(A, B, C, mu))
            H_long = dense_hessian(*(M.astype(np.longdouble) for M in (A, B, C)), np.longdouble(mu))
            rhs = -np.concatenate([gA.ravel(), gB.ravel(), gC.ravel()])
            dense = lu_solve(lu, rhs)
            exact = dense.astype(np.longdouble)
            for _ in range(3):
                exact += lu_solve(lu, (rhs - H_long @ exact).astype(np.float64))
            exact = exact.astype(np.float64)
            scale = np.linalg.norm(exact)
            step_error = np.linalg.norm(np.concatenate([d.ravel() for d in real_step(*args)]) - exact)
            dense_error = np.linalg.norm(dense - exact)
            if dense_error > 1e-10 * scale:
                assert step_error <= 10 * dense_error
                continue
            assert step_error <= 1e-9 * scale
            checked += 1
        assert checked >= 20

    def test_hessian_matches_finite_differences(self):
        # JtJ of the residual map equals the Gauss-Newton term of the true
        # Hessian; verify J^T J v against finite differences of the gradient
        # for a quadratic-in-each-factor model at a random point
        rng = np.random.default_rng(7)
        E, S, F, r = 3, 4, 2, 2
        X = rng.standard_normal((E, S, F))
        A, B, C = rng.standard_normal((E, r)), rng.standard_normal((S, r)), rng.standard_normal((F, r))

        def residual(theta):
            a = theta[: E * r].reshape(E, r)
            b = theta[E * r : E * r + S * r].reshape(S, r)
            c = theta[E * r + S * r :].reshape(F, r)
            return (np.einsum("er,sr,fr->esf", a, b, c) - X).ravel()

        theta0 = np.concatenate([A.ravel(), B.ravel(), C.ravel()])
        n = len(theta0)
        J = np.empty((E * S * F, n))
        h = 1e-6
        for i in range(n):
            up, dn = theta0.copy(), theta0.copy()
            up[i] += h
            dn[i] -= h
            J[:, i] = (residual(up) - residual(dn)) / (2 * h)
        H = dense_hessian(A, B, C, 0.0)
        np.testing.assert_allclose(H, J.T @ J, rtol=1e-6, atol=1e-6)


class TestGramError:
    @staticmethod
    def gram_error(t, fs):
        from eegfactor.cpd import _gram_error
        from eegfactor.tensor import mttkrp

        A = fs.A * fs.weights
        MC = mttkrp(t, (A, fs.B, fs.C), 2)
        return _gram_error(t, t.norm(), A[None], fs.B[None], fs.C[None], MC[None])[0][0]

    def test_gram_error_matches_relative_error(self, planted_noisy):
        t, truth = planted_noisy
        exact = relative_error(t, truth)
        assert exact > 1e-2
        assert self.gram_error(t, truth) == pytest.approx(exact, rel=1e-10)

    @pytest.mark.parametrize("solver", [cpd_als, cpd_gn], ids=["als", "gn"])
    def test_last_trace_entry_is_reported_error(self, planted_noisy, solver):
        t, _ = planted_noisy
        res = solver(t, CpdOptions(rank=3, n_starts=2, max_iters=60, seed=4))
        assert res.rel_error > 1e-2
        assert res.trace[-1] == pytest.approx(res.rel_error, rel=1e-10)

    def test_gram_error_falls_back_to_exact_norm(self, planted_small, monkeypatch):
        cpd_module = importlib.import_module("eegfactor.cpd")
        t, truth = planted_small
        rng = np.random.default_rng(3)
        near = FactorSet(3, truth.A + 1e-11 * rng.standard_normal(truth.A.shape),
                         truth.B, truth.C, truth.weights)
        calls = []
        exact_norm = cpd_module.relative_error
        monkeypatch.setattr(cpd_module, "relative_error",
                            lambda *a: calls.append(a) or exact_norm(*a))
        err = self.gram_error(t, near)
        assert len(calls) == 1
        assert err < 1e-8
        assert err == pytest.approx(relative_error(t, near), rel=1e-6)


    def test_stack_matches_each_start_alone(self, planted_small, monkeypatch):
        # one start of the stack is inside the exact-norm branch and two are
        # not: only that one pays for a residual, and every start's error and
        # Gramians equal those of its own k = 1 call bit for bit
        from eegfactor.cpd import _gram_error, _uniform_init
        from eegfactor.tensor import mttkrp

        cpd_module = importlib.import_module("eegfactor.cpd")
        t, truth = planted_small
        rng = np.random.default_rng(3)
        A0, B0, C0 = truth_init(truth)
        near = (A0 + 1e-11 * rng.standard_normal(A0.shape), B0, C0)
        starts = (_uniform_init(t.dims, 3, 0, 0), near, _uniform_init(t.dims, 3, 0, 1))
        A, B, C = (np.stack(Ms) for Ms in zip(*starts))
        MC = mttkrp(t, (A, B, C), 2)
        calls = []
        exact_norm = cpd_module.relative_error
        monkeypatch.setattr(cpd_module, "relative_error",
                            lambda *a: calls.append(a) or exact_norm(*a))
        err, Z = _gram_error(t, t.norm(), A, B, C, MC)
        assert len(calls) == 1
        assert err[1] < 1e-8 < min(err[0], err[2])
        for i in range(3):
            one = slice(i, i + 1)
            err_i, Z_i = _gram_error(t, t.norm(), A[one], B[one], C[one], MC[one])
            assert err[i] == err_i[0]
            for Zn, Zn_i in zip(Z, Z_i):
                np.testing.assert_array_equal(Zn[i], Zn_i[0])


class TestFactorMatchScore:
    def test_identical_sets(self, planted_small):
        _, truth = planted_small
        assert factor_match_score(truth, truth) == pytest.approx(1.0, abs=1e-12)

    def test_orthogonal_columns_near_zero(self):
        a = FactorSet(2, np.eye(4)[:, :2], np.eye(4)[:, :2], np.eye(4)[:, :2], np.ones(2))
        b = FactorSet(2, np.eye(4)[:, 2:], np.eye(4)[:, 2:], np.eye(4)[:, 2:], np.ones(2))
        assert factor_match_score(a, b) < 1e-12

    def test_rank_mismatch(self, planted_small):
        _, truth = planted_small
        other = FactorSet(2, truth.A[:, :2], truth.B[:, :2], truth.C[:, :2], truth.weights[:2])
        with pytest.raises(ArgumentError):
            factor_match_score(truth, other)

    def test_two_independent_runs_agree(self, planted_small):
        t, _ = planted_small
        r1 = cpd_als(t, CpdOptions(rank=3, n_starts=2, tol=1e-13, max_iters=300, seed=100))
        r2 = cpd_als(t, CpdOptions(rank=3, n_starts=2, tol=1e-13, max_iters=300, seed=200))
        assert factor_match_score(r1.factors, r2.factors) > 0.99

    def test_permutation_and_sign_invariance(self, planted_small):
        _, truth = planted_small
        perm = [2, 0, 1]
        flipped = FactorSet(
            3,
            -truth.A[:, perm],
            truth.B[:, perm],
            -truth.C[:, perm],
            truth.weights[perm],
        )
        assert factor_match_score(truth, flipped) == pytest.approx(1.0, abs=1e-12)

    def test_assignment_matches_exhaustive(self):
        rng = np.random.default_rng(8)
        dims, r = (5, 6, 7), 4
        a = FactorSet(r, *(rng.standard_normal((d, r)) for d in dims), np.ones(r))
        b = FactorSet(r, *(rng.standard_normal((d, r)) for d in dims), np.ones(r))
        P = _abs_cosines(a.A, b.A) * _abs_cosines(a.B, b.B) * _abs_cosines(a.C, b.C)
        brute = max(
            sum(P[i, p[i]] for i in range(r)) / r for p in itertools.permutations(range(r))
        )
        assert factor_match_score(a, b) == pytest.approx(brute, abs=1e-12)
