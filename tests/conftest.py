import numpy as np
import pytest

from eegfactor import ArgumentError, CpdOptions, FactorSet, SynthSpec, make_tensor


@pytest.fixture(scope="session")
def planted_small():
    """Noiseless planted rank-3 tensor, small enough for repeated solves."""
    t, truth = make_tensor(SynthSpec(dims=(40, 19, 89), rank=3, seed=42))
    return t, truth


@pytest.fixture(scope="session")
def planted_noisy():
    """Planted rank-3 tensor at 20 dB SNR."""
    t, truth = make_tensor(SynthSpec(dims=(60, 19, 89), rank=3, snr_db=20.0, seed=17))
    return t, truth


@pytest.fixture()
def tight_opts():
    return CpdOptions(rank=3, n_starts=3, tol=1e-14, max_iters=300, seed=7)


def random_tensor3(rng, dims):
    from eegfactor import Tensor3

    return Tensor3(rng.standard_normal(dims))


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

    The best matching is the optimal assignment on the component-pair
    scores.  An oracle for factor recovery, so only the tests load scipy.
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


def edf_bytes(signals, seconds: int) -> bytes:
    """A plain EDF of one-second records from (label, rate, physical samples)
    triples, each holding ``seconds * rate`` samples within +-200 uV: the
    mixed-rate files that ``write_edf`` cannot make."""
    def fields(values, size):
        return b"".join(str(v).encode("ascii").ljust(size) for v in values)

    ns = len(signals)
    head = b"".join([
        fields(["0"], 8), fields(["subj"], 80), fields(["rec"], 80), fields(["01.01.00"], 8),
        fields(["00.00.00"], 8), fields([256 + 256 * ns], 8), fields([""], 44),
        fields([seconds], 8), fields(["1"], 8), fields([ns], 4),
    ])
    labels, rates, _ = zip(*signals)
    sig = b"".join([
        fields(labels, 16), fields([""] * ns, 80), fields(["uV"] * ns, 8),
        fields([-200] * ns, 8), fields([200] * ns, 8),
        fields([-32768] * ns, 8), fields([32767] * ns, 8),
        fields([""] * ns, 80), fields(rates, 8), fields([""] * ns, 32),
    ])
    step = 400.0 / 65535
    dig = [np.clip(np.rint((np.asarray(x) + 200.0) / step) - 32768, -32768, 32767)
           .astype("<i2").reshape(seconds, rate) for _, rate, x in signals]
    return head + sig + np.concatenate(dig, axis=1).tobytes()
