"""Projection of epoch spectra onto the population spatiospectral basis.

The basis matrix stacks vec(spatial_i x spectral_i) columns in the same
row-major (sensor-major) order as a (S, F) spectrum, so w = pinv(B) @ vec(x)
are least-squares coordinates.  Weights of training epochs include the
component scales (w = scale * epoch-factor row on noiseless data).
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ArgumentError
from .tensor import FactorSet


@dataclass(frozen=True)
class ProjectionBasis:
    matrix: np.ndarray  # (S*F, r)
    pinv: np.ndarray  # (r, S*F)
    rank_used: int
    grid_shape: tuple[int, int]

    @property
    def deficient(self) -> bool:
        return self.rank_used < self.matrix.shape[1]


def build_basis(fs: FactorSet) -> ProjectionBasis:
    """Assemble B from a normalized FactorSet and its SVD pseudo-inverse.

    Singular values below 1e-12 * sigma_max are treated as zero; a deficient
    basis (duplicate components) still projects but flags rank_used < r.
    """
    for name, M in (("B", fs.B), ("C", fs.C)):
        norms = np.linalg.norm(M, axis=0)
        if np.any(np.abs(norms - 1.0) > 1e-6):
            raise ArgumentError(f"factor {name} columns are not unit-norm; normalize first")
    S, F = fs.B.shape[0], fs.C.shape[0]
    matrix = np.einsum("sr,fr->sfr", fs.B, fs.C).reshape(S * F, fs.rank)
    u, sigma, vt = np.linalg.svd(matrix, full_matrices=False)
    cutoff = 1e-12 * sigma[0] if sigma[0] > 0 else np.inf
    keep = sigma > cutoff
    rank_used = int(np.count_nonzero(keep))
    inv = vt[keep].T @ np.diag(1.0 / sigma[keep]) @ u[:, keep].T
    return ProjectionBasis(matrix=matrix, pinv=inv, rank_used=rank_used, grid_shape=(S, F))


def project(basis: ProjectionBasis, psd) -> np.ndarray:
    """Least-squares coordinates w = pinv(B) @ vec(x) of each (S, F) spectrum
    in a (..., S, F) array; the result has shape (..., r).

    The stack is projected as a stack of matrix-vector products, so every row
    is bit-identical to projecting that spectrum alone; one ``X @ pinv.T``
    GEMM differs from it in the last bits.
    """
    S, F = basis.grid_shape
    psd = np.asarray(psd, dtype=np.float64)
    if psd.shape[-2:] != (S, F):
        raise ArgumentError(f"spectrum shape {psd.shape} does not match basis grid {(S, F)}")
    return np.matmul(basis.pinv, psd.reshape(psd.shape[:-2] + (S * F, 1)))[..., 0]
