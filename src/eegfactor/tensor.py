"""Dense third-order tensors and the multilinear kernels used by the CPD solvers.

Layout convention: a tensor with dims (E, S, F) stores entry (e, s, f) at flat
row-major index e*S*F + s*F + f, i.e. a C-contiguous numpy array of shape
(E, S, F).  Mode-n unfoldings follow the same ordering:

    mode 0: E x (S*F), column s*F + f
    mode 1: S x (E*F), column e*F + f
    mode 2: F x (E*S), column e*S + s
"""
from __future__ import annotations

import contextlib
import json
import math
import os
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ArgumentError, ParseError

_MODES = (0, 1, 2)


def frozen_array(value, ndim: int, what: str) -> np.ndarray:
    """``value`` as a read-only, C-contiguous float64 array of ``ndim`` dims
    with finite entries: the one way a value type takes an array.

    A read-only float64 array that owns its data cannot change under its
    holder, so it is kept without a copy; a loader that makes its fresh
    array read-only hands it over this way.  Anything else, a view or a
    writable array included, is copied.  ``what`` names the array in the
    ArgumentError of a wrong ``ndim`` or a non-finite entry.
    """
    arr = value
    if not (isinstance(arr, np.ndarray) and arr.dtype == np.float64
            and arr.flags.c_contiguous and arr.flags.owndata and not arr.flags.writeable):
        arr = np.array(arr, dtype=np.float64, order="C")
    if arr.ndim != ndim:
        raise ArgumentError(f"{what} must be {ndim}-D, got ndim={arr.ndim}")
    # the minimum is NaN or -inf, or the maximum inf, exactly when an entry
    # is not finite: two reductions, and no mask the size of the array
    if arr.size and not (np.isfinite(arr.min()) and np.isfinite(arr.max())):
        raise ArgumentError(f"{what} must be finite")
    arr.flags.writeable = False
    return arr


@dataclass(frozen=True)
class Tensor3:
    """Immutable dense third-order tensor of float64 values."""

    data: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "data", frozen_array(self.data, 3, "Tensor3 data"))

    @property
    def dims(self) -> tuple[int, int, int]:
        return self.data.shape

    def norm(self) -> float:
        """Frobenius norm, computed on the first call: the data cannot change."""
        nrm = self.__dict__.get("_norm")
        if nrm is None:
            nrm = float(np.linalg.norm(self.data))
            object.__setattr__(self, "_norm", nrm)
        return nrm


@dataclass(frozen=True)
class FactorSet:
    """CPD factors: per-mode matrices plus per-component scales.

    ``weights`` holds the column scales (the "lambda" vector of the JSON
    serialization).  A normalized FactorSet has unit-norm columns, nonnegative
    weights in descending order, and the largest-magnitude entry of every
    spatial (B) column positive.
    """

    rank: int
    A: np.ndarray
    B: np.ndarray
    C: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        if self.rank < 1:
            raise ArgumentError(f"rank must be >= 1, got {self.rank}")
        for name in ("A", "B", "C", "weights"):
            m = frozen_array(getattr(self, name), 1 if name == "weights" else 2,
                             f"factor {name}")
            if m.shape[-1] != self.rank:
                raise ArgumentError(f"factor {name} of shape {m.shape} does not match rank "
                                    f"{self.rank}")
            object.__setattr__(self, name, m)

    @property
    def dims(self) -> tuple[int, int, int]:
        return (self.A.shape[0], self.B.shape[0], self.C.shape[0])

    def normalized(self) -> FactorSet:
        """Return the canonical form: unit columns, scale in ``weights``,
        positive-max-entry sign on B, components sorted by descending weight."""
        A, B, C = self.A.copy(), self.B.copy(), self.C.copy()
        w = self.weights.copy()
        for j in range(self.rank):
            for M in (A, B, C):
                nj = np.linalg.norm(M[:, j])
                if nj > 0.0:
                    M[:, j] /= nj
                    w[j] *= nj
                else:
                    # degenerate column: component contributes nothing
                    M[:, j] = 0.0
                    M[0, j] = 1.0
                    w[j] = 0.0
            if w[j] < 0.0:
                w[j] = -w[j]
                A[:, j] = -A[:, j]
            if B[np.argmax(np.abs(B[:, j])), j] < 0.0:
                B[:, j] = -B[:, j]
                A[:, j] = -A[:, j]
        # stable sort keeps equal-weight components in original order
        order = np.argsort(-w, kind="stable")
        return FactorSet(self.rank, A[:, order], B[:, order], C[:, order], w[order])


def _check_factor_shapes(t: Tensor3, fs: FactorSet):
    if fs.dims != t.dims:
        raise ArgumentError(f"factor dims {fs.dims} do not match tensor dims {t.dims}")


def partial_product(t: Tensor3, A: np.ndarray) -> np.ndarray:
    """T = (A^T X_(0)).reshape(r, S, F): the tensor contracted with A over
    mode 0, which :func:`mttkrp` contracts further for modes 1 and 2.

    A stack of factors, shape (k, E, r), gives the k partial products as a
    (k, r, S, F) stack from one GEMM of its k*r columns against X_(0).
    """
    E, S, F = t.dims
    if A.ndim not in (2, 3) or A.shape[-2] != E:
        raise ArgumentError(f"factor A of shape {A.shape} does not match tensor dims {t.dims}")
    r = A.shape[-1]
    At = np.swapaxes(A, -1, -2).reshape(-1, E)
    return (At @ t.data.reshape(E, S * F)).reshape(A.shape[:-2] + (r, S, F))


def mttkrp(t: Tensor3, factors, mode: int, partial=None) -> np.ndarray:
    """Matricized-tensor times Khatri-Rao product of ``t`` with the CPD
    factors ``(A, B, C)`` for the given mode, as matmuls (Phan, Tichavsky &
    Cichocki, IEEE Trans. Signal Process. 61(19), 2013).

    The factors are either matrices, (d_n, r), or stacks of k of them,
    (k, d_n, r), one per CPD start; a stack gives the k MTTKRPs as a
    (k, d_mode, r) stack, and a matrix is the k = 1 case without the
    leading axis.  Mode 0 is one GEMM against X_(0) for the whole stack:
    the k Khatri-Rao products of B and C, each (S*F) x r, are built and
    stacked.  Modes 1 and 2 contract the partial product T =
    ``partial_product(t, A)`` with C or with B, so their cost does not grow
    with E.  T depends on A alone: a caller that holds A fixed passes one T
    (or a stack of them) as ``partial`` to both, and without it T is
    computed here.  Equals X_(mode) times the Khatri-Rao product of the
    other two factors to 1e-12 relative, start by start.
    """
    if mode not in _MODES:
        raise ArgumentError(f"mode must be one of {_MODES}, got {mode}")
    A, B, C = factors
    lead, r = A.shape[:-2], A.shape[-1]
    shapes = (A.shape, B.shape, C.shape)
    if A.ndim not in (2, 3) or shapes != tuple(lead + (d, r) for d in t.dims):
        raise ArgumentError(f"factor shapes {shapes} do not match tensor dims {t.dims}")
    E, S, F = t.dims
    Bt, Ct = np.swapaxes(B, -1, -2), np.swapaxes(C, -1, -2)
    if mode == 0:
        # built transposed, (k*r) x (S*F): BLAS runs (B kr C)^T X_(0)^T, the
        # shape of the GEMM behind T, up to 1.5x faster than X_(0) (B kr C)
        kr = np.ascontiguousarray(Bt)[..., :, None] * np.ascontiguousarray(Ct)[..., None, :]
        out = kr.reshape(-1, S * F) @ t.data.reshape(E, S * F).T
        return np.swapaxes(out.reshape(lead + (r, E)), -1, -2)
    if partial is None:
        partial = partial_product(t, A)
    elif partial.shape != lead + (r, S, F):
        raise ArgumentError(f"partial product of shape {partial.shape}, "
                            f"expected {lead + (r, S, F)}")
    if mode == 1:
        return np.swapaxes(np.matmul(partial, Ct[..., None])[..., 0], -1, -2)
    return np.swapaxes(np.matmul(Bt[..., None, :], partial)[..., 0, :], -1, -2)


# rows of X_(0) per block of the residual in relative_error
_ROW_BLOCK = 64


def relative_error(t: Tensor3, fs: FactorSet) -> float:
    """||t - X^||_F / ||t||_F, with X^ the sum of the rank-1 tensors of ``fs``.

    The residual is summed over blocks of mode-0 rows, so no E x S x F
    temporary is made.  The fit used by DIFFIT is 1 - relative_error**2
    (explained sum of squares).
    """
    _check_factor_shapes(t, fs)
    nrm = t.norm()
    if nrm == 0.0:
        raise ArgumentError("relative_error is undefined for a zero-norm tensor")
    E, S, F = t.dims
    krT = (fs.B.T[:, :, None] * fs.C.T[:, None, :]).reshape(fs.rank, S * F)
    Aw = fs.A * fs.weights
    X0 = t.data.reshape(E, S * F)
    err2 = 0.0
    for lo in range(0, E, _ROW_BLOCK):
        # t - approx and approx - t have the same norm
        resid = Aw[lo:lo + _ROW_BLOCK] @ krT
        resid -= X0[lo:lo + _ROW_BLOCK]
        err2 += float(np.vdot(resid, resid))
    return math.sqrt(err2) / nrm


# ---------------------------------------------------------------------------
# serialization

_HEADER = struct.Struct("<QQQ")


@contextlib.contextmanager
def atomic_open(path, mode: str = "w", **kwargs):
    """Write ``<path>.tmp`` in the same directory, then ``os.replace`` it
    onto ``path``, so a killed writer never leaves a truncated ``path``.

    If the body raises, the temp file is removed and ``path`` is untouched.
    """
    tmp = os.fspath(path) + ".tmp"
    try:
        with open(tmp, mode, **kwargs) as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.unlink(tmp)
        raise


def read_text(path) -> str:
    """The whole file decoded as UTF-8; bytes that do not decode are a
    ParseError naming the file and the byte offset, not a traceback."""
    data = Path(path).read_bytes()
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ParseError(f"{Path(path).name} is not UTF-8 text", field="encoding",
                         offset=exc.start) from None


def save_tensor(t: Tensor3, path):
    """Write the flat binary format: 3 LE uint64 dims then row-major LE float64."""
    E, S, F = t.dims
    with atomic_open(path, "wb") as fh:
        fh.write(_HEADER.pack(E, S, F))
        fh.write(t.data.astype("<f8", copy=False).tobytes(order="C"))


def load_tensor(path) -> Tensor3:
    """Read the flat binary format straight into the array the tensor keeps."""
    with open(path, "rb") as fh:
        head = fh.read(_HEADER.size)
        if len(head) < _HEADER.size:
            raise ParseError("tensor file truncated before header", field="dims", offset=len(head))
        E, S, F = _HEADER.unpack(head)
        if 0 in (E, S, F):
            # no stage writes an empty tensor, and numpy refuses one whose
            # other dims are huge even though it holds no bytes
            raise ParseError(f"tensor file has a zero dimension ({E},{S},{F})", field="dims",
                             offset=0)
        size = os.fstat(fh.fileno()).st_size
        expected = _HEADER.size + E * S * F * 8
        if size != expected:
            raise ParseError(
                f"tensor file has {size} bytes, expected {expected} for dims ({E},{S},{F})",
                field="data",
                offset=min(size, expected),
            )
        data = np.empty((E, S, F), dtype="<f8")
        if fh.readinto(data) != data.nbytes:
            raise ParseError("tensor file changed while it was read", field="data")
    data.flags.writeable = False
    try:
        return Tensor3(data)
    except ArgumentError as exc:
        raise ParseError(f"tensor file contains invalid values: {exc}", field="data") from exc


def write_json(path, doc: dict):
    """A JSON artifact: sorted keys, compact separators, one trailing newline."""
    with atomic_open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(doc, fh, sort_keys=True, separators=(",", ":"))
        fh.write("\n")


def save_factors(fs: FactorSet, path):
    """FactorSet as JSON: rank, lambda, and row-major nested factor matrices."""
    doc = {
        "rank": fs.rank,
        "lambda": fs.weights.tolist(),
        "A": fs.A.tolist(),
        "B": fs.B.tolist(),
        "C": fs.C.tolist(),
    }
    write_json(path, doc)


def load_factors(path) -> FactorSet:
    try:
        doc = json.loads(read_text(path))
    except json.JSONDecodeError as exc:
        raise ParseError(f"factor file is not valid JSON: {exc}") from exc
    try:
        rank = int(doc["rank"])
        fields = {k: np.asarray(doc[k], dtype=np.float64) for k in ("A", "B", "C", "lambda")}
        # json accepts NaN and Infinity, which no fit produces
        for k, v in fields.items():
            if not np.all(np.isfinite(v)):
                raise ParseError("factor file holds a non-finite value", field=k)
        return FactorSet(rank, fields["A"], fields["B"], fields["C"], fields["lambda"])
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"factor file missing or malformed field: {exc}") from exc
