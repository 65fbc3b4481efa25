"""Seeded synthetic fixtures: planted-factor tensors, spectra cohorts, and
time-domain recordings for exercising every pipeline stage without clinical
data.

A recording's tones are built by angle addition, with one sin and one cos of
the time axis per tone rather than one sin per sample and channel.  The seeded
samples are those of the direct formula ``amp * sin(2 pi f t + phase)`` to
within about 1e-10 uV (the two round ``2 pi f t + phase`` differently), so an
EDF written from them differs from one of the direct formula by at most one
digital unit, and in nearly every file by none."""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .channels import CHANNELS
from .edf import Recording
from .errors import ArgumentError
from .preprocess import FREQ_GRID
from .tensor import FactorSet, Tensor3

_STYLES = ("random", "physiological")
# samples per block when the tones are added onto the noise
_BLOCK = 8192


@dataclass(frozen=True)
class SynthSpec:
    dims: tuple[int, int, int]
    rank: int
    snr_db: float = math.inf
    factor_style: str = "random"
    class_weight_params: dict = field(default_factory=dict)
    seed: int = 0

    def __post_init__(self):
        if self.rank < 1:
            raise ArgumentError(f"rank must be >= 1, got {self.rank}")
        if math.isnan(self.snr_db):
            raise ArgumentError("snr_db must not be NaN")
        if self.factor_style not in _STYLES:
            raise ArgumentError(f"factor_style must be one of {_STYLES}")
        if self.factor_style == "physiological":
            _, S, F = self.dims
            if S != len(CHANNELS) or F != len(FREQ_GRID):
                raise ArgumentError(
                    f"physiological style requires dims (*, {len(CHANNELS)}, {len(FREQ_GRID)})"
                )
            if self.rank != 3:
                raise ArgumentError("physiological style describes exactly 3 components")


def _spatial_profile(strong, medium=(), strong_val=1.0, medium_val=0.6, floor=0.1):
    v = np.full(len(CHANNELS), floor)
    for ch in strong:
        v[CHANNELS.index(ch)] = strong_val
    for ch in medium:
        v[CHANNELS.index(ch)] = medium_val
    return v / np.linalg.norm(v)


def physiological_factors() -> tuple[np.ndarray, np.ndarray]:
    """Three spatiospectral component pairs (spatial 19 x 3, spectral 89 x 3):

    1. bilateral frontotemporal topography, power rising above 25 Hz
       (muscle-artifact-like);
    2. diffuse topography with low-frequency (<10 Hz) emphasis (slowing-like);
    3. central-posterior topography with alpha and beta peaks.
    """
    f = FREQ_GRID
    spatial = np.column_stack(
        [
            _spatial_profile(("Fp1", "Fp2", "F7", "F8", "T7", "T8"), ("F3", "F4")),
            np.full(len(CHANNELS), 1.0) / math.sqrt(len(CHANNELS)),
            _spatial_profile(
                ("C3", "C4", "Cz", "P3", "P4", "Pz"), ("P7", "P8", "O1", "O2"), medium_val=0.8
            ),
        ]
    )
    high = 0.05 + 1.0 / (1.0 + np.exp(-(f - 30.0) / 3.0))
    slow = 0.05 + np.exp(-f / 4.0)
    alpha_beta = 0.05 + np.exp(-0.5 * ((f - 10.0) / 1.5) ** 2) + 0.6 * np.exp(
        -0.5 * ((f - 20.0) / 3.0) ** 2
    )
    spectral = np.column_stack([v / np.linalg.norm(v) for v in (high, slow, alpha_beta)])
    return spatial, spectral


def _noise_scaled(rng, shape, signal_norm: float, snr_db: float) -> np.ndarray:
    noise = rng.standard_normal(shape)
    n_norm = np.linalg.norm(noise)
    if n_norm == 0.0:
        return noise
    return noise * (signal_norm / (n_norm * 10.0 ** (snr_db / 20.0)))


def _rng(seed: int, stream: int):
    return np.random.default_rng(np.random.SeedSequence([seed & (2**63 - 1), stream]))


def _truth_factors(spec: SynthSpec, rng) -> FactorSet:
    """The planted (normalized) factors, drawn first from ``rng``."""
    E, S, F = spec.dims
    A = rng.uniform(0.0, 1.0, size=(E, spec.rank))
    if spec.factor_style == "physiological":
        B, C = physiological_factors()
        weights = np.array([3.0, 2.0, 1.5])
    else:
        B = rng.uniform(0.0, 1.0, size=(S, spec.rank))
        C = rng.uniform(0.0, 1.0, size=(F, spec.rank))
        weights = np.sort(rng.uniform(1.0, 2.0, size=spec.rank))[::-1]
    A /= np.linalg.norm(A, axis=0)
    if spec.factor_style == "random":
        B /= np.linalg.norm(B, axis=0)
        C /= np.linalg.norm(C, axis=0)
    return FactorSet(spec.rank, A, B, C, weights).normalized()


def make_tensor(spec: SynthSpec) -> tuple[Tensor3, FactorSet]:
    """Planted-factor tensor plus its ground truth (normalized) FactorSet."""
    rng = _rng(spec.seed, 1)
    truth = _truth_factors(spec, rng)
    signal = np.einsum(
        "r,er,sr,fr->esf", truth.weights, truth.A, truth.B, truth.C, optimize=True
    )
    if math.isinf(spec.snr_db):
        data = signal
    else:
        data = signal + _noise_scaled(rng, signal.shape, np.linalg.norm(signal), spec.snr_db)
    return Tensor3(data), truth


@dataclass(frozen=True)
class SynthCohort:
    """Labeled spectra with the per-epoch component weights that made them."""

    psd: np.ndarray  # (n_epochs, 19, 89)
    ids: list[tuple[str, str, int]]  # (subject_id, recording_id, epoch_index) per row
    labels: dict[str, str]  # subject_id -> class label
    weights: np.ndarray  # (n_epochs, rank), row-aligned with psd
    truth: FactorSet


def make_cohort(
    spec: SynthSpec, subjects_per_class: dict[str, int], epochs_per_subject: int = 4
) -> SynthCohort:
    """Class-conditional cohort: per-epoch component weights drawn from each
    class's Gaussian in ``spec.class_weight_params`` (label -> (means, stds)),
    clipped at 0; spectra are the weighted spatiospectral sums plus noise,
    clipped at 0."""
    if tuple(spec.dims[1:]) != (len(CHANNELS), len(FREQ_GRID)):
        raise ArgumentError(
            f"cohort spectra need dims (*, {len(CHANNELS)}, {len(FREQ_GRID)}), got {spec.dims}"
        )
    if not spec.class_weight_params:
        raise ArgumentError("class_weight_params must define at least one class")
    for label, count in subjects_per_class.items():
        if count < 2:
            raise ArgumentError(f"class {label} needs at least 2 subjects, got {count}")
        if label not in spec.class_weight_params:
            raise ArgumentError(f"no weight parameters for class {label}")
    if epochs_per_subject < 1:
        raise ArgumentError("epochs_per_subject must be >= 1")

    # the population tensor's factors, from the head of its stream
    truth = _truth_factors(spec, _rng(spec.seed, 1))
    rng = _rng(spec.seed, 2)
    spectra, ids, rows = [], [], []
    labels: dict[str, str] = {}
    for label in sorted(subjects_per_class):
        means, stds = (np.asarray(v, dtype=np.float64) for v in spec.class_weight_params[label])
        if means.shape != (spec.rank,) or stds.shape != (spec.rank,):
            raise ArgumentError(
                f"class {label} weight parameters must have length {spec.rank}"
            )
        for s in range(subjects_per_class[label]):
            subject = f"{label}{s:03d}"
            labels[subject] = label
            for k in range(epochs_per_subject):
                w = np.maximum(rng.normal(means, stds), 0.0)
                x = np.einsum("r,sr,fr->sf", w, truth.B, truth.C)
                if not math.isinf(spec.snr_db):
                    x = x + _noise_scaled(rng, x.shape, np.linalg.norm(x), spec.snr_db)
                    x = np.maximum(x, 0.0)
                rows.append(w)
                spectra.append(x)
                ids.append((subject, f"{subject}_r0", k))
    return SynthCohort(np.array(spectra), ids, labels, np.array(rows), truth)


def make_recording(
    seed: int = 0,
    sample_rate: float = 256.0,
    duration: float = 60.0,
    tones: tuple[tuple[float, float], ...] = ((10.0, 30.0),),
    noise_uv: float = 2.0,
    subject_id: str = "SYN000",
    recording_id: str = "SYN000_r0",
) -> Recording:
    """19-channel sinusoid-mix recording for signal-chain and EDF tests:
    each tone ``amp * sin(2 pi f t + phase)`` with a uniform phase per
    channel, plus ``noise_uv`` times standard normal noise.

    The tones are built by angle addition, sin(wt + phase) = cos(phase)
    sin(wt) + sin(phase) cos(wt): one sin and one cos of the time axis per
    tone, and the channel phases enter through one (19, 2 * tones) x
    (2 * tones, n) product, added block by block onto the scaled noise.  The
    stream is drawn in a fixed order: the phases tone by tone, then one
    (19, n) standard normal.
    """
    rng = _rng(seed, 3)
    n = int(round(sample_rate * duration))
    t = np.arange(n) / sample_rate
    basis = np.empty((2 * len(tones), n))
    coef = np.empty((len(CHANNELS), 2 * len(tones)))
    for k, (freq, amp) in enumerate(tones):
        phases = rng.uniform(0.0, 2.0 * np.pi, size=len(CHANNELS))
        # w t waits in the cos row until its sin is taken
        wt = np.multiply(2.0 * np.pi * freq, t, out=basis[2 * k + 1])
        np.sin(wt, out=basis[2 * k])
        np.cos(wt, out=basis[2 * k + 1])
        coef[:, 2 * k] = amp * np.cos(phases)
        coef[:, 2 * k + 1] = amp * np.sin(phases)
    samples = rng.standard_normal((len(CHANNELS), n))
    samples *= noise_uv
    for start in range(0, n, _BLOCK):
        samples[:, start : start + _BLOCK] += coef @ basis[:, start : start + _BLOCK]
    samples.flags.writeable = False
    return Recording(
        samples=samples,
        sample_rate=sample_rate,
        channel_labels=CHANNELS,
        recording_id=recording_id,
        subject_id=subject_id,
    )
