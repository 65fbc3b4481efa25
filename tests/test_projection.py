import numpy as np
import pytest

from eegfactor import (
    ArgumentError,
    FactorSet,
    build_basis,
    make_tensor,
    pib,
    project,
    SynthSpec,
)
from eegfactor.preprocess import FREQ_GRID
from eegfactor.channels import CHANNELS

S, F = len(CHANNELS), len(FREQ_GRID)


def unit_vec(n, idx=0):
    v = np.zeros(n)
    v[idx] = 1.0
    return v


@pytest.fixture(scope="module")
def planted_basis():
    t, truth = make_tensor(SynthSpec(dims=(12, S, F), rank=3, seed=31))
    return t, truth, build_basis(truth)


class TestBuildBasis:
    def test_single_indicator_component(self):
        fs = FactorSet(
            1,
            np.ones((2, 1)),
            unit_vec(S).reshape(-1, 1),
            unit_vec(F).reshape(-1, 1),
            np.ones(1),
        )
        basis = build_basis(fs)
        col = basis.matrix[:, 0]
        assert np.count_nonzero(col) == 1
        assert col[0] == 1.0  # row s*F + f with s = f = 0
        assert basis.rank_used == 1
        assert not basis.deficient

    def test_duplicate_components_flagged(self):
        s = np.full(S, 1.0) / np.sqrt(S)
        f = np.full(F, 1.0) / np.sqrt(F)
        fs = FactorSet(
            2,
            np.ones((3, 2)),
            np.column_stack([s, s]),
            np.column_stack([f, f]),
            np.array([1.0, 0.5]),
        )
        basis = build_basis(fs)
        assert basis.rank_used == 1
        assert basis.deficient

    def test_planted_pinv_identity(self, planted_basis):
        _, _, basis = planted_basis
        np.testing.assert_allclose(basis.pinv @ basis.matrix, np.eye(3), atol=1e-10)

    def test_requires_normalized_factors(self):
        fs = FactorSet(
            1, np.ones((2, 1)), 2.0 * np.ones((S, 1)), np.ones((F, 1)), np.ones(1)
        )
        with pytest.raises(ArgumentError):
            build_basis(fs)

    def test_vectorization_order_is_sensor_major(self, planted_basis):
        _, truth, basis = planted_basis
        expected = np.einsum("sr,fr->sfr", truth.B, truth.C).reshape(S * F, 3)
        np.testing.assert_array_equal(basis.matrix, expected)


class TestProject:
    def test_span_membership_recovers_coefficients(self, planted_basis):
        _, truth, basis = planted_basis
        c = np.array([0.7, -1.2, 2.5])
        x = np.einsum("r,sr,fr->sf", c, truth.B, truth.C)
        w = project(basis, x)
        np.testing.assert_allclose(w, c, atol=1e-8)

    def test_training_rows_give_scaled_epoch_factors(self, planted_basis):
        t, truth, basis = planted_basis
        target = truth.A * truth.weights
        for e in range(t.dims[0]):
            w = project(basis, t.data[e])
            np.testing.assert_allclose(w, target[e], atol=1e-6)

    def test_orthogonal_input_projects_to_zero(self):
        fs = FactorSet(
            1,
            np.ones((2, 1)),
            unit_vec(S, 0).reshape(-1, 1),
            unit_vec(F, 0).reshape(-1, 1),
            np.ones(1),
        )
        basis = build_basis(fs)
        x = np.zeros((S, F))
        x[3, 5] = 4.0  # support disjoint from the basis column
        w = project(basis, x)
        np.testing.assert_allclose(w, 0.0, atol=1e-14)

    def test_linearity(self, planted_basis):
        _, _, basis = planted_basis
        rng = np.random.default_rng(5)
        x, y = rng.uniform(0, 1, (S, F)), rng.uniform(0, 1, (S, F))
        a, b = 1.7, -0.4
        lhs = project(basis, a * x + b * y)
        rhs = a * project(basis, x) + b * project(basis, y)
        np.testing.assert_allclose(lhs, rhs, atol=1e-10)

    def test_residual_orthogonality(self, planted_basis):
        _, _, basis = planted_basis
        rng = np.random.default_rng(6)
        x = rng.uniform(0, 1, (S, F))
        w = project(basis, x)
        residual = x.reshape(-1) - basis.matrix @ w
        np.testing.assert_allclose(
            basis.matrix.T @ residual, 0.0, atol=1e-8 * np.linalg.norm(x)
        )

    def test_idempotence(self, planted_basis):
        _, _, basis = planted_basis
        rng = np.random.default_rng(7)
        x = rng.uniform(0, 1, (S, F))
        w = project(basis, x)
        again = project(basis, (basis.matrix @ w).reshape(S, F))
        np.testing.assert_allclose(again, w, atol=1e-10)

    def test_stack_equals_per_row_calls(self, planted_basis):
        # the CLI projects and integrates whole stacks; each row must be
        # bit-identical to the single-epoch call so its CSVs do not change
        t, _, basis = planted_basis
        for stack in (t.data, t.data[:3], t.data[:1]):
            assert project(basis, stack).shape == (len(stack), 3)
            assert np.array_equal(project(basis, stack), [project(basis, x) for x in stack])
            assert np.array_equal(pib(stack), [pib(x) for x in stack])

    def test_dimension_mismatch(self, planted_basis):
        _, _, basis = planted_basis
        with pytest.raises(ArgumentError):
            project(basis, np.zeros((S, F - 1)))
