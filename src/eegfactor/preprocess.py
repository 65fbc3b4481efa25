"""Recording-to-spectrum preprocessing chain and tensor assembly.

The chain per recording: zero-phase band-pass, contiguous 10-s epoching with
high-power Cz rejection, awake-epoch selection by posterior alpha, Welch power
spectral densities on a fixed 1.0-45.0 Hz grid, and stacking into the
population tensor.  Power-in-bands (PIB) baseline features live here too;
``pib`` takes one (19, 89) spectrum or a stack of them, as the tensor holds.

``scipy.signal`` is imported inside ``bandpass`` and ``welch``, the two
functions that use it.  Every CLI stage is a fresh interpreter, and importing
it at module level cost every stage about 1.3 s of start-up, including the
stages that never filter or estimate a spectrum.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channels import CHANNELS, CZ_INDEX, O1_INDEX, O2_INDEX
from .edf import Recording
from .errors import ArgumentError, IngestError
from .tensor import Tensor3

# fixed spectral grid: 1.0 .. 45.0 Hz in 0.5 Hz steps
FREQ_GRID = np.linspace(1.0, 45.0, 89)
FREQ_GRID.flags.writeable = False

# integration tiles for PIB; shared edges are half-counted by the trapezoids,
# so the five bands partition the full 1-45 Hz power exactly
BANDS = (
    ("delta", 1.0, 4.0),
    ("theta", 4.0, 8.0),
    ("alpha", 8.0, 13.0),
    ("beta", 13.0, 25.0),
    ("gamma", 25.0, 45.0),
)


def _trapezoid_weights(lo: float, hi: float) -> np.ndarray:
    mask = (FREQ_GRID >= lo) & (FREQ_GRID <= hi)
    return np.trapezoid(np.eye(len(FREQ_GRID))[mask], FREQ_GRID[mask], axis=0)


# psd @ _BAND_WEIGHTS integrates every grid row over the five BANDS, then over
# 1-45 Hz (column _TOTAL) and 8-12 Hz (column _ALPHA) by the trapezoid rule
_BAND_WEIGHTS = np.column_stack(
    [_trapezoid_weights(lo, hi) for _, lo, hi in BANDS]
    + [_trapezoid_weights(1.0, 45.0), _trapezoid_weights(8.0, 12.0)]
)
_BAND_WEIGHTS.flags.writeable = False
_TOTAL, _ALPHA = len(BANDS), len(BANDS) + 1

# PIB columns, channel-major: 19 channels x 5 bands = 95
PIB_NAMES = tuple(f"{ch}_{band}" for ch in CHANNELS for band, _, _ in BANDS)


@dataclass(frozen=True)
class Epoch:
    """One contiguous multichannel segment, canonical 19-channel order."""

    samples: np.ndarray  # (19, n)
    sample_rate: float
    recording_id: str
    subject_id: str
    index: int  # ordinal within the recording, before any rejection

    def __post_init__(self):
        arr = np.array(self.samples, dtype=np.float64, order="C")
        if arr.ndim != 2:
            raise ArgumentError("epoch samples must be 2-D")
        arr.flags.writeable = False
        object.__setattr__(self, "samples", arr)


INVALID_SPECTRUM = "psd must be finite and nonnegative"


def invalid_spectra(psd: np.ndarray) -> np.ndarray:
    """True for each (S, F) spectrum of a (..., S, F) array that holds a
    negative or non-finite value."""
    return ~np.all(np.isfinite(psd) & (psd >= 0), axis=(-2, -1))


@dataclass(frozen=True)
class EpochSpectrum:
    """Per-channel PSD on the fixed grid, with provenance."""

    psd: np.ndarray  # (19, 89), uV^2/Hz
    recording_id: str
    subject_id: str
    index: int

    def __post_init__(self):
        arr = np.array(self.psd, dtype=np.float64, order="C")
        if arr.shape != (len(CHANNELS), len(FREQ_GRID)):
            raise ArgumentError(
                f"psd must have shape {(len(CHANNELS), len(FREQ_GRID))}, got {arr.shape}"
            )
        if invalid_spectra(arr):
            raise ArgumentError(INVALID_SPECTRUM)
        arr.flags.writeable = False
        object.__setattr__(self, "psd", arr)


def bandpass(r: Recording, lo: float = 0.5, hi: float = 45.0, order: int = 8) -> Recording:
    """Zero-phase Butterworth band-pass (cascaded biquads, forward-backward)."""
    from scipy import signal as sps

    if r.sample_rate <= 2.0 * hi:
        raise ArgumentError(
            f"sample rate {r.sample_rate} Hz cannot support a {hi} Hz band edge"
        )
    sos = sps.butter(order, [lo, hi], btype="bandpass", fs=r.sample_rate, output="sos")
    # one channel at a time: the filter's padded and reversed temporaries
    # then hold one row, not the whole recording; the rows come out
    # bit-identical to a single axis=1 call
    filtered = np.empty_like(r.samples, order="C")
    for out, row in zip(filtered, r.samples):
        out[:] = sps.sosfiltfilt(sos, row)
    filtered.flags.writeable = False
    return Recording(
        samples=filtered,
        sample_rate=r.sample_rate,
        channel_labels=r.channel_labels,
        recording_id=r.recording_id,
        subject_id=r.subject_id,
    )


def epoch_and_reject(
    r: Recording, epoch_seconds: float = 10.0, sigma: float = 2.0
) -> list[Epoch]:
    """Cut contiguous non-overlapping epochs, dropping high-power Cz epochs.

    An epoch is dropped when its Cz total power exceeds mean + sigma*std of
    the per-epoch Cz powers of this recording (strictly greater, one-sided).
    The sub-epoch remainder at the end of the recording is discarded.
    """
    try:
        cz = r.channel_labels.index("Cz")
    except ValueError:
        raise IngestError(
            f"recording {r.recording_id or '<unnamed>'} has no Cz channel; "
            "run channel selection first"
        ) from None
    if cz != CZ_INDEX and len(r.channel_labels) == len(CHANNELS):
        raise IngestError(f"channels of {r.recording_id} are not in canonical order")
    n_per = int(round(epoch_seconds * r.sample_rate))
    n_epochs = r.samples.shape[1] // n_per
    if n_epochs < 2:
        raise IngestError(
            f"recording {r.recording_id or '<unnamed>'} holds fewer than 2 epochs "
            f"({r.duration:.1f} s)"
        )
    segments = r.samples[:, : n_epochs * n_per].reshape(r.n_channels, n_epochs, n_per)
    power = np.sum(segments[cz] ** 2, axis=1)
    threshold = power.mean() + sigma * power.std()
    epochs = []
    for k in range(n_epochs):
        if power[k] > threshold:
            continue
        epochs.append(
            Epoch(
                samples=segments[:, k, :],
                sample_rate=r.sample_rate,
                recording_id=r.recording_id,
                subject_id=r.subject_id,
                index=k,
            )
        )
    return epochs


def select_awake_epochs(
    epochs: list[Epoch], min_epochs: int = 2, max_epochs: int = 6
) -> list[Epoch]:
    """Keep the top-k epochs by posterior relative alpha power.

    The score is the mean over O1 and O2 of (8-12 Hz power) / (1-45 Hz power);
    k = clamp(len(epochs), min_epochs, max_epochs).  Recordings with fewer
    than ``min_epochs`` epochs are rejected.  Output preserves temporal order.
    """
    if not epochs:
        raise ArgumentError("empty epoch list")
    if len(epochs) < min_epochs:
        raise IngestError(
            f"recording {epochs[0].recording_id or '<unnamed>'}: "
            f"{len(epochs)} epochs after rejection, need at least {min_epochs}"
        )
    scores = np.empty(len(epochs))
    for i, e in enumerate(epochs):
        power = welch(e).psd[[O1_INDEX, O2_INDEX]] @ _BAND_WEIGHTS
        alpha, total = power[:, _ALPHA], power[:, _TOTAL]
        scores[i] = np.mean(np.divide(alpha, total, out=np.zeros(2), where=total > 0))
    k = min(max(len(epochs), min_epochs), max_epochs)
    picked = np.argsort(-scores, kind="stable")[:k]
    return [epochs[i] for i in sorted(picked)]


def welch(e: Epoch) -> EpochSpectrum:
    """Welch PSD per channel: 2-s Hamming segments, 50% overlap, density
    scaling, linearly interpolated onto the fixed 1.0-45.0 Hz grid."""
    from scipy import signal as sps

    fs = e.sample_rate
    if fs < 96.0:
        raise ArgumentError(f"sample rate {fs} Hz cannot support the 45 Hz grid")
    nperseg = int(round(2.0 * fs))
    if e.samples.shape[1] < nperseg:
        raise ArgumentError("epoch shorter than one Welch segment")
    freqs, psd = sps.welch(
        e.samples,
        fs=fs,
        window="hamming",
        nperseg=nperseg,
        noverlap=nperseg // 2,
        detrend="constant",
        scaling="density",
        axis=1,
    )
    on_grid = np.empty((e.samples.shape[0], len(FREQ_GRID)))
    for ch in range(e.samples.shape[0]):
        on_grid[ch] = np.interp(FREQ_GRID, freqs, psd[ch])
    return EpochSpectrum(
        psd=on_grid,
        recording_id=e.recording_id,
        subject_id=e.subject_id,
        index=e.index,
    )


@dataclass(frozen=True)
class ProvenanceRow:
    epoch_row: int
    subject_id: str
    recording_id: str
    epoch_index: int


def build_tensor(spectra: list[EpochSpectrum]) -> tuple[Tensor3, list[ProvenanceRow]]:
    """Stack spectra along mode 0 in input order; returns the epoch map."""
    if not spectra:
        raise ArgumentError("no spectra to stack")
    data = np.stack([s.psd for s in spectra], axis=0)
    provenance = [
        ProvenanceRow(i, s.subject_id, s.recording_id, s.index)
        for i, s in enumerate(spectra)
    ]
    return Tensor3(data), provenance


def pib(psd) -> np.ndarray:
    """Relative power in the five canonical bands, per channel, of each
    (19, 89) spectrum in a (..., 19, 89) array; the result has shape (..., 95),
    channel-major in the order of ``PIB_NAMES``.

    Band integrals are trapezoids on the grid; shared band edges contribute
    half to each side so the five shares of a channel sum to exactly 1.
    """
    psd = np.asarray(psd, dtype=np.float64)
    if psd.shape[-2:] != (len(CHANNELS), len(FREQ_GRID)):
        raise ArgumentError(f"psd must end in shape {(len(CHANNELS), len(FREQ_GRID))}, "
                            f"got {psd.shape}")
    power = psd @ _BAND_WEIGHTS
    total = power[..., _TOTAL]
    if np.any(total <= 0.0):
        ch = np.argwhere(total <= 0.0)[0, -1]
        raise IngestError(f"zero total power in channel {CHANNELS[ch]}")
    shares = power[..., : len(BANDS)] / total[..., None]
    return shares.reshape(psd.shape[:-2] + (len(PIB_NAMES),))
