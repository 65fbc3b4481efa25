import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eegfactor import (
    ArgumentError,
    CohortDataset,
    FactorSet,
    ParseError,
    Recording,
    Tensor3,
    load_factors,
    load_tensor,
    mttkrp,
    relative_error,
    save_factors,
    save_tensor,
)
from eegfactor.preprocess import invalid_spectra
from eegfactor.tensor import partial_product

_MODES = (0, 1, 2)


# ---------------------------------------------------------------------------
# oracles: the definitional forms the solver kernels are checked against

def unfold(t: Tensor3, mode: int) -> np.ndarray:
    """Mode-n matricization of ``t``: mode 0 is E x (S*F) with column s*F + f,
    mode 1 is S x (E*F) with column e*F + f, mode 2 is F x (E*S) with column
    e*S + s."""
    if mode not in _MODES:
        raise ArgumentError(f"mode must be one of {_MODES}, got {mode}")
    E, S, F = t.dims
    if mode == 0:
        return t.data.reshape(E, S * F)
    if mode == 1:
        return np.ascontiguousarray(t.data.transpose(1, 0, 2)).reshape(S, E * F)
    return np.ascontiguousarray(t.data.transpose(2, 0, 1)).reshape(F, E * S)


def refold(m: np.ndarray, mode: int, dims: tuple[int, int, int]) -> Tensor3:
    """Inverse of :func:`unfold` for the given mode and target dims."""
    if mode not in _MODES:
        raise ArgumentError(f"mode must be one of {_MODES}, got {mode}")
    E, S, F = dims
    m = np.asarray(m, dtype=np.float64)
    if mode == 0:
        return Tensor3(m.reshape(E, S, F))
    if mode == 1:
        return Tensor3(m.reshape(S, E, F).transpose(1, 0, 2))
    return Tensor3(m.reshape(F, E, S).transpose(1, 2, 0))


def khatri_rao(m: np.ndarray, n: np.ndarray) -> np.ndarray:
    """Column-wise Kronecker product; row i*n_rows + k holds m[i, j] * n[k, j]."""
    m = np.asarray(m, dtype=np.float64)
    n = np.asarray(n, dtype=np.float64)
    if m.ndim != 2 or n.ndim != 2 or m.shape[1] != n.shape[1]:
        raise ArgumentError(
            f"khatri_rao requires equal column counts, got shapes {m.shape} and {n.shape}"
        )
    r = m.shape[1]
    return np.einsum("ir,kr->ikr", m, n).reshape(m.shape[0] * n.shape[0], r)


def reconstruct(fs: FactorSet) -> Tensor3:
    """Sum of rank-1 tensors: entry (e,s,f) = sum_i w_i * A[e,i]*B[s,i]*C[f,i]."""
    data = np.einsum("r,er,sr,fr->esf", fs.weights, fs.A, fs.B, fs.C, optimize=True)
    return Tensor3(data)


def mttkrp_oracle(t: Tensor3, factors, mode: int) -> np.ndarray:
    others = [M for m, M in enumerate(factors) if m != mode]
    return unfold(t, mode) @ khatri_rao(*others)


def cube() -> Tensor3:
    return Tensor3(np.arange(8, dtype=float).reshape(2, 2, 2))


def random_factors(rng, dims, rank):
    return FactorSet(
        rank,
        rng.standard_normal((dims[0], rank)),
        rng.standard_normal((dims[1], rank)),
        rng.standard_normal((dims[2], rank)),
        rng.uniform(0.5, 2.0, rank),
    )


class TestTensor3:
    def test_rejects_non_3d(self):
        with pytest.raises(ArgumentError):
            Tensor3(np.zeros((2, 2)))

    def test_rejects_nan(self):
        data = np.zeros((2, 2, 2))
        data[0, 0, 0] = np.nan
        with pytest.raises(ArgumentError):
            Tensor3(data)

    def test_immutable(self):
        t = cube()
        with pytest.raises(ValueError):
            t.data[0, 0, 0] = 5.0

    def test_row_major_layout(self):
        t = cube()
        E, S, F = t.dims
        flat = t.data.ravel()
        for e in range(E):
            for s in range(S):
                for f in range(F):
                    assert flat[e * S * F + s * F + f] == t.data[e, s, f]


def _factor_set(A):
    r = A.shape[-1]
    return FactorSet(r, A, np.ones((1, r)), np.ones((1, r)), np.ones(r))


# every value type that holds an array: its ndim, and the array it keeps of x
HOLDERS = {
    "Tensor3": (3, lambda x: Tensor3(x).data),
    "Recording": (2, lambda x: Recording(x, 256.0, ("Cz",) * len(x)).samples),
    "FactorSet": (2, lambda x: _factor_set(x).A),
    "CohortDataset": (2, lambda x: CohortDataset(x, ("s0",) * len(x), ("CN",) * len(x)).features),
}


class TestTensorOwnership:
    """The one rule by which every value type in HOLDERS takes an array."""

    @staticmethod
    def sample(ndim, frozen=False):
        x = np.arange(2.0**ndim).reshape((2,) * ndim).copy()
        x.flags.writeable = not frozen
        return x

    def test_caller_array_is_copied(self):
        for name, (ndim, keep) in HOLDERS.items():
            x = self.sample(ndim)
            kept = keep(x)
            x.flat[0] = 5.0
            assert kept.flat[0] == 0.0, name
            assert x.flags.writeable and not kept.flags.writeable, name

    def test_frozen_data_is_shared(self):
        for name, (ndim, keep) in HOLDERS.items():
            x = self.sample(ndim, frozen=True)
            assert keep(x) is x, name

    def test_view_of_frozen_data_is_copied(self):
        for name, (ndim, keep) in HOLDERS.items():
            x = self.sample(ndim, frozen=True)
            kept = keep(x[:1])
            assert not np.shares_memory(kept, x) and not kept.flags.writeable, name

    def test_wrong_ndim_and_nan_are_refused(self):
        for name, (ndim, keep) in HOLDERS.items():
            non_finite = []
            for position, value in ((-1, np.nan), (0, np.inf), (-1, -np.inf)):
                non_finite.append(self.sample(ndim))
                non_finite[-1].flat[position] = value
            for bad in (self.sample(ndim + 1), self.sample(ndim - 1), *non_finite):
                with pytest.raises(ArgumentError):
                    keep(bad)
                    pytest.fail(f"{name} took an array of shape {bad.shape}")

    @staticmethod
    def traced_peak(fn):
        tracemalloc.start()
        try:
            fn()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_load_holds_one_copy(self, tmp_path):
        t = Tensor3(np.random.default_rng(3).standard_normal((200, 19, 89)))
        save_tensor(t, tmp_path / "t.bin")
        back = []
        peak = self.traced_peak(lambda: back.append(load_tensor(tmp_path / "t.bin")))
        assert back[0].data.flags.owndata and not back[0].data.flags.writeable
        # the data itself; not the raw bytes, nor a finiteness mask, as well
        assert peak < 1.05 * t.data.nbytes

    def test_finiteness_checks_make_no_mask(self, tmp_path):
        # the value types' finiteness check and project's spectrum check
        # reduce the loaded tensor without a mask of its size
        save_tensor(Tensor3(np.random.default_rng(5).random((200, 19, 89))), tmp_path / "t.bin")
        t = load_tensor(tmp_path / "t.bin")
        assert self.traced_peak(lambda: Tensor3(t.data)) < 0.02 * t.data.nbytes
        bad = []
        assert self.traced_peak(lambda: bad.append(invalid_spectra(t.data))) \
            < 0.02 * t.data.nbytes
        assert bad[0].shape == (200,) and not bad[0].any()

    def test_relative_error_holds_one_temporary(self):
        rng = np.random.default_rng(4)
        t = Tensor3(rng.standard_normal((200, 19, 89)))
        fs = random_factors(rng, t.dims, 3)
        assert self.traced_peak(lambda: relative_error(t, fs)) < 1.5 * t.data.nbytes


class TestUnfold:
    def test_mode0_first_row(self):
        assert unfold(cube(), 0)[0].tolist() == [0.0, 1.0, 2.0, 3.0]

    def test_mode2_first_row(self):
        assert unfold(cube(), 2)[0].tolist() == [0.0, 2.0, 4.0, 6.0]

    def test_invalid_mode(self):
        with pytest.raises(ArgumentError):
            unfold(cube(), 3)

    def test_energy_preserved_all_modes(self):
        # brute-force oracle over a random 3x4x5 tensor
        rng = np.random.default_rng(0)
        t = Tensor3(rng.standard_normal((3, 4, 5)))
        total = np.sum(t.data**2)
        for mode in range(3):
            assert np.isclose(np.sum(unfold(t, mode) ** 2), total, rtol=1e-14)

    def test_unfold_is_permutation(self):
        rng = np.random.default_rng(1)
        t = Tensor3(rng.standard_normal((3, 4, 5)))
        for mode in range(3):
            assert sorted(unfold(t, mode).ravel()) == sorted(t.data.ravel())

    @given(
        e=st.integers(1, 5), s=st.integers(1, 5), f=st.integers(1, 5),
        mode=st.integers(0, 2), seed=st.integers(0, 2**16),
    )
    @settings(max_examples=40, deadline=None)
    def test_refold_round_trip(self, e, s, f, mode, seed):
        rng = np.random.default_rng(seed)
        t = Tensor3(rng.standard_normal((e, s, f)))
        back = refold(unfold(t, mode), mode, t.dims)
        np.testing.assert_array_equal(back.data, t.data)


class TestKhatriRao:
    def test_hand_expansion(self):
        out = khatri_rao(np.array([[1.0], [2.0]]), np.array([[3.0], [4.0]]))
        np.testing.assert_array_equal(out, [[3.0], [4.0], [6.0], [8.0]])

    def test_identity_columns_give_indicators(self):
        eye = np.eye(3)
        out = khatri_rao(eye, eye)
        for j in range(3):
            expected = np.outer(eye[:, j], eye[:, j]).reshape(-1)
            np.testing.assert_array_equal(out[:, j], expected)

    def test_gram_identity(self):
        # (KR(M,N))^T (KR(M,N)) == (M^T M) * (N^T N), direct multiplication oracle
        rng = np.random.default_rng(2)
        M = rng.standard_normal((4, 3))
        N = rng.standard_normal((4, 3))
        kr = khatri_rao(M, N)
        np.testing.assert_allclose(kr.T @ kr, (M.T @ M) * (N.T @ N), rtol=1e-12)

    def test_mismatched_columns(self):
        with pytest.raises(ArgumentError):
            khatri_rao(np.ones((2, 2)), np.ones((2, 3)))

    def test_row_ordering(self):
        rng = np.random.default_rng(3)
        M = rng.standard_normal((3, 2))
        N = rng.standard_normal((4, 2))
        out = khatri_rao(M, N)
        for i in range(3):
            for k in range(4):
                for j in range(2):
                    assert out[i * 4 + k, j] == M[i, j] * N[k, j]


class TestMttkrp:
    def test_all_ones_rank1(self):
        t = Tensor3(np.ones((2, 2, 2)))
        ones = (np.ones((2, 1)),) * 3
        np.testing.assert_array_equal(mttkrp(t, ones, 0), np.full((2, 1), 4.0))

    @pytest.mark.parametrize("mode", [0, 1, 2])
    def test_matches_definitional_oracle(self, mode):
        rng = np.random.default_rng(4)
        t = Tensor3(rng.standard_normal((3, 4, 5)))
        fs = random_factors(rng, t.dims, 2)
        pairs = {0: (fs.B, fs.C), 1: (fs.A, fs.C), 2: (fs.A, fs.B)}
        oracle = unfold(t, mode) @ khatri_rao(*pairs[mode])
        result = mttkrp(t, (fs.A, fs.B, fs.C), mode)
        np.testing.assert_allclose(result, oracle, rtol=1e-12, atol=1e-12)

    def test_definitional_oracle_random_suite(self):
        # fused implementation vs unfold x khatri-rao on tensors up to 6x6x6
        rng = np.random.default_rng(5)
        for _ in range(20):
            dims = tuple(rng.integers(2, 7, size=3))
            t = Tensor3(rng.standard_normal(dims))
            r = int(rng.integers(1, 4))
            fs = random_factors(rng, dims, r)
            for mode, pair in ((0, (fs.B, fs.C)), (1, (fs.A, fs.C)), (2, (fs.A, fs.B))):
                oracle = unfold(t, mode) @ khatri_rao(*pair)
                scale = max(1.0, np.abs(oracle).max())
                assert np.abs(mttkrp(t, (fs.A, fs.B, fs.C), mode) - oracle).max() <= 1e-12 * scale

    def test_zero_tensor(self):
        t = Tensor3(np.zeros((2, 3, 4)))
        rng = np.random.default_rng(6)
        fs = random_factors(rng, (2, 3, 4), 2)
        np.testing.assert_array_equal(mttkrp(t, (fs.A, fs.B, fs.C), 1), np.zeros((3, 2)))

    def test_shape_mismatch(self):
        rng = np.random.default_rng(7)
        t = Tensor3(np.zeros((2, 3, 4)))
        fs = random_factors(rng, (2, 3, 5), 2)
        for mode in _MODES:
            with pytest.raises(ArgumentError):
                mttkrp(t, (fs.A, fs.B, fs.C), mode)
        with pytest.raises(ArgumentError):
            mttkrp(t, (fs.A, fs.B, fs.C[:4, :1]), 0)  # unequal column counts
        with pytest.raises(ArgumentError):
            mttkrp(Tensor3(np.zeros((2, 3, 4))), (fs.A, fs.B, fs.C[:4]), 3)

    # E = 2 < r at r = 3 and 6: the partial product T has more rows than X_(0)
    @pytest.mark.parametrize("E", [2, 40])
    @pytest.mark.parametrize("r", [1, 3, 6])
    def test_matches_oracle_at_eeg_dims(self, E, r):
        rng = np.random.default_rng(100 * E + r)
        t = Tensor3(rng.standard_normal((E, 19, 89)))
        factors = tuple(rng.standard_normal((d, r)) for d in t.dims)
        T = partial_product(t, factors[0])
        for mode in _MODES:
            oracle = mttkrp_oracle(t, factors, mode)
            scale = np.abs(oracle).max()
            assert np.abs(mttkrp(t, factors, mode) - oracle).max() <= 1e-12 * scale
            if mode:
                # the shared-T path: one partial product serves modes 1 and 2
                assert np.abs(mttkrp(t, factors, mode, T) - oracle).max() <= 1e-12 * scale

    def test_partial_product_shape_checked(self):
        rng = np.random.default_rng(9)
        t = Tensor3(rng.standard_normal((4, 3, 5)))
        factors = tuple(rng.standard_normal((d, 2)) for d in t.dims)
        with pytest.raises(ArgumentError):
            partial_product(t, factors[0][:3])
        with pytest.raises(ArgumentError):
            mttkrp(t, factors, 1, partial_product(t, factors[0])[:1])


    @pytest.mark.parametrize("k", [1, 3])
    @pytest.mark.parametrize("r", [1, 4])
    def test_stack_matches_per_start_calls(self, k, r):
        rng = np.random.default_rng(10 * k + r)
        t = Tensor3(rng.standard_normal((30, 19, 89)))
        stack = tuple(rng.standard_normal((k, d, r)) for d in t.dims)
        T = partial_product(t, stack[0])
        assert T.shape == (k, r, 19, 89)
        for i in range(k):
            single = partial_product(t, stack[0][i])
            assert np.abs(T[i] - single).max() <= 1e-12 * np.abs(single).max()
        for mode in _MODES:
            outs = [mttkrp(t, stack, mode)] + ([mttkrp(t, stack, mode, T)] if mode else [])
            for out in outs:
                assert out.shape == (k, t.dims[mode], r)
                for i in range(k):
                    single = mttkrp(t, tuple(M[i] for M in stack), mode)
                    assert np.abs(out[i] - single).max() <= 1e-12 * np.abs(single).max()

    def test_stack_shapes_checked(self):
        rng = np.random.default_rng(11)
        t = Tensor3(rng.standard_normal((4, 3, 5)))
        A, B, C = (rng.standard_normal((3, d, 2)) for d in t.dims)
        with pytest.raises(ArgumentError):
            mttkrp(t, (A, B[:2], C), 0)  # unequal numbers of starts
        with pytest.raises(ArgumentError):
            mttkrp(t, (A, B, C), 2, partial_product(t, A[:2]))
        with pytest.raises(ArgumentError):
            partial_product(t, A[None])

class TestReconstruct:
    def test_rank1_hand_case(self):
        fs = FactorSet(
            1, np.array([[1.0], [2.0]]), np.array([[1.0]]), np.array([[3.0]]), np.ones(1)
        )
        np.testing.assert_array_equal(reconstruct(fs).data, [[[3.0]], [[6.0]]])

    def test_recovers_noiseless_planted(self, planted_small, tight_opts):
        from eegfactor import cpd_gn

        t, _ = planted_small
        res = cpd_gn(t, tight_opts)
        assert relative_error(t, res.factors) < 1e-6

    def test_zero_weights_give_zero_tensor(self):
        rng = np.random.default_rng(8)
        fs = random_factors(rng, (3, 4, 5), 2)
        zeroed = FactorSet(2, fs.A, fs.B, fs.C, np.zeros(2))
        np.testing.assert_array_equal(reconstruct(zeroed).data, np.zeros((3, 4, 5)))


class TestRelativeError:
    def test_exact_factors_give_zero(self):
        rng = np.random.default_rng(9)
        fs = random_factors(rng, (3, 4, 5), 2)
        t = reconstruct(fs)
        assert relative_error(t, fs) < 1e-14

    def test_zero_factorset_gives_one(self):
        rng = np.random.default_rng(10)
        fs = random_factors(rng, (3, 4, 5), 2)
        zeroed = FactorSet(2, fs.A, fs.B, fs.C, np.zeros(2))
        t = Tensor3(np.random.default_rng(11).standard_normal((3, 4, 5)))
        assert relative_error(t, zeroed) == 1.0

    def test_matches_gramian_formula_for_best_rank1(self):
        # independent oracle: ||t - Xhat||^2 = ||t||^2 - 2<t, Xhat> + ||Xhat||^2
        # with the inner products evaluated from factor Gramians
        from eegfactor import CpdOptions, cpd_als

        rng = np.random.default_rng(12)
        t = Tensor3(rng.uniform(0.0, 1.0, (6, 7, 8)))
        res = cpd_als(t, CpdOptions(rank=1, n_starts=2, tol=1e-15, max_iters=2000, seed=0))
        fs = res.factors
        lam_a = fs.A * fs.weights
        inner = float(np.einsum("esf,er,sr,fr->", t.data, lam_a, fs.B, fs.C))
        gram = (lam_a.T @ lam_a) * (fs.B.T @ fs.B) * (fs.C.T @ fs.C)
        norm_hat_sq = float(gram.sum())
        oracle = np.sqrt(max(t.norm() ** 2 - 2 * inner + norm_hat_sq, 0.0)) / t.norm()
        assert abs(relative_error(t, fs) - oracle) < 1e-10

    def test_zero_tensor_rejected(self):
        rng = np.random.default_rng(13)
        fs = random_factors(rng, (2, 2, 2), 1)
        with pytest.raises(ArgumentError):
            relative_error(Tensor3(np.zeros((2, 2, 2))), fs)


class TestNormalization:
    def test_reconstruction_invariant(self):
        rng = np.random.default_rng(14)
        fs = random_factors(rng, (4, 5, 6), 3)
        before = reconstruct(fs).data
        after = reconstruct(fs.normalized()).data
        np.testing.assert_allclose(after, before, rtol=1e-12, atol=1e-12 * np.abs(before).max())

    def test_canonical_form(self):
        rng = np.random.default_rng(15)
        fs = random_factors(rng, (4, 5, 6), 3).normalized()
        for M in (fs.A, fs.B, fs.C):
            np.testing.assert_allclose(np.linalg.norm(M, axis=0), 1.0, rtol=1e-12)
        assert np.all(fs.weights >= 0)
        assert np.all(np.diff(fs.weights) <= 0)
        for j in range(fs.rank):
            assert fs.B[np.argmax(np.abs(fs.B[:, j])), j] > 0

    def test_reordering_preserves_reconstruction(self):
        rng = np.random.default_rng(16)
        fs = random_factors(rng, (4, 5, 6), 3)
        perm = [2, 0, 1]
        shuffled = FactorSet(3, fs.A[:, perm], fs.B[:, perm], fs.C[:, perm], fs.weights[perm])
        np.testing.assert_allclose(
            reconstruct(shuffled).data, reconstruct(fs).data, rtol=1e-12, atol=1e-14
        )

    def test_zero_column_handled(self):
        fs = FactorSet(
            2,
            np.array([[1.0, 0.0], [0.0, 0.0]]),
            np.array([[1.0, 0.0]]),
            np.array([[2.0, 0.0]]),
            np.array([1.0, 1.0]),
        ).normalized()
        assert fs.weights[1] == 0.0
        np.testing.assert_allclose(np.linalg.norm(fs.A, axis=0), 1.0)


class TestSerialization:
    def test_tensor_round_trip(self, tmp_path):
        rng = np.random.default_rng(17)
        t = Tensor3(rng.standard_normal((3, 4, 5)))
        path = tmp_path / "t.bin"
        save_tensor(t, path)
        assert path.stat().st_size == 24 + 3 * 4 * 5 * 8
        back = load_tensor(path)
        np.testing.assert_array_equal(back.data, t.data)

    def test_failed_write_keeps_previous_file(self, tmp_path):
        path = tmp_path / "tensor.bin"
        save_tensor(cube(), path)
        before = path.read_bytes()

        def die(*args, **kwargs):
            raise RuntimeError("killed mid-write")

        # the header is written, then the data conversion raises
        broken = SimpleNamespace(dims=(2, 2, 2), data=SimpleNamespace(astype=die))
        with pytest.raises(RuntimeError):
            save_tensor(broken, path)
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["tensor.bin"]

    def test_truncated_tensor_file(self, tmp_path):
        path = tmp_path / "bad.bin"
        path.write_bytes(b"\x01\x02")
        with pytest.raises(ParseError):
            load_tensor(path)

    def test_wrong_length_tensor_file(self, tmp_path):
        rng = np.random.default_rng(18)
        t = Tensor3(rng.standard_normal((2, 2, 2)))
        path = tmp_path / "t.bin"
        save_tensor(t, path)
        path.write_bytes(path.read_bytes()[:-8])
        with pytest.raises(ParseError):
            load_tensor(path)

    def test_factors_round_trip(self, tmp_path):
        rng = np.random.default_rng(19)
        fs = random_factors(rng, (3, 4, 5), 2).normalized()
        path = tmp_path / "fs.json"
        save_factors(fs, path)
        back = load_factors(path)
        assert back.rank == fs.rank
        np.testing.assert_array_equal(back.A, fs.A)
        np.testing.assert_array_equal(back.B, fs.B)
        np.testing.assert_array_equal(back.C, fs.C)
        np.testing.assert_array_equal(back.weights, fs.weights)

    def test_malformed_factors(self, tmp_path):
        path = tmp_path / "fs.json"
        path.write_text("{not json")
        with pytest.raises(ParseError):
            load_factors(path)
        path.write_text('{"rank": 1}')
        with pytest.raises(ParseError):
            load_factors(path)
