"""Recording-to-spectrum preprocessing chain on plain numpy arrays.

The chain per recording: zero-phase band-pass (``bandpass``), contiguous
10-s epoching with high-power Cz rejection (``epoch_and_reject``: a (k, 19, n)
stack of kept epochs and their ordinals), awake-epoch selection by posterior
alpha (``select_awake_epochs``: positions into that stack), and Welch power
spectral densities on a fixed 1.0-45.0 Hz grid (``welch``: any (..., n) stack
to its (..., 89) spectra, one ``scipy.signal.welch`` call for the stack).
Selection Welches the O1 and O2 rows of all k epochs in one call; the caller
Welches each picked (19, n) epoch, stacks the spectra into the population
tensor and records each row's (subject, recording, epoch) origin.  The
arrays carry no names, so the IngestErrors of epoching and selection read as
predicates ("holds fewer than 2 epochs"); the caller prefixes the recording.
Power-in-bands (PIB) baseline features live here too; ``pib`` takes one
(19, 89) spectrum or a stack of them, as the tensor holds.

``scipy.signal`` is imported inside ``bandpass`` and ``welch``, the two
functions that use it.  Every CLI stage is a fresh interpreter, and importing
it at module level cost every stage about 1.3 s of start-up, including the
stages that never filter or estimate a spectrum.
"""
from __future__ import annotations

import numpy as np

from .channels import CHANNELS, CZ_INDEX, O1_INDEX, O2_INDEX
from .edf import Recording
from .errors import ArgumentError, IngestError

# fixed spectral grid: 1.0 .. 45.0 Hz in 0.5 Hz steps
FREQ_GRID = np.linspace(1.0, 45.0, 89)
FREQ_GRID.flags.writeable = False
# the lowest sample rate ``welch`` takes for the 45 Hz grid
_WELCH_MIN_RATE = 96.0
# the length of one Welch segment; an epoch must hold at least one
WELCH_SEGMENT_SECONDS = 2.0

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


INVALID_SPECTRUM = "psd must be finite and nonnegative"


def invalid_spectra(psd: np.ndarray) -> np.ndarray:
    """True for each (S, F) spectrum of a (..., S, F) array that holds a
    negative or non-finite value."""
    return ~np.all(np.isfinite(psd) & (psd >= 0), axis=(-2, -1))


def check_sample_rate(sample_rate: float, hi: float):
    """Refuse, as an IngestError, a recording rate that cannot carry the band
    edge ``hi`` (``bandpass``) or the 45 Hz Welch grid (``welch``), so a
    caller skips the recording before it is filtered."""
    if sample_rate <= 2.0 * hi:
        raise IngestError(f"has sample rate {sample_rate} Hz, which cannot support "
                          f"a {hi} Hz band edge")
    if sample_rate < _WELCH_MIN_RATE:
        raise IngestError(f"has sample rate {sample_rate} Hz, which cannot support "
                          "the 45 Hz grid")


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
) -> tuple[np.ndarray, np.ndarray]:
    """Cut contiguous non-overlapping epochs, dropping high-power Cz epochs.

    Returns the kept epochs as a read-only (k, channels, samples) stack and
    their ordinals within the recording, counted before rejection.  An epoch
    is dropped when its Cz total power exceeds mean + sigma*std of the
    per-epoch Cz powers of this recording (strictly greater, one-sided).
    The sub-epoch remainder at the end of the recording is discarded.
    """
    try:
        cz = r.channel_labels.index("Cz")
    except ValueError:
        raise IngestError("has no Cz channel; run channel selection first") from None
    if cz != CZ_INDEX and len(r.channel_labels) == len(CHANNELS):
        raise IngestError("has its channels out of canonical order")
    n_per = int(round(epoch_seconds * r.sample_rate))
    n_epochs = r.samples.shape[1] // n_per
    if n_epochs < 2:
        raise IngestError(f"holds fewer than 2 epochs ({r.duration:.1f} s)")
    segments = r.samples[:, : n_epochs * n_per].reshape(r.n_channels, n_epochs, n_per)
    power = np.sum(segments[cz] ** 2, axis=1)
    kept = np.flatnonzero(~(power > power.mean() + sigma * power.std()))
    epochs = segments.transpose(1, 0, 2)[kept]
    epochs.flags.writeable = False
    return epochs, kept


def select_awake_epochs(
    epochs: np.ndarray, sample_rate: float, min_epochs: int = 2, max_epochs: int = 6
) -> np.ndarray:
    """Sorted positions of the top-k epochs of a (n, 19, samples) stack by
    posterior relative alpha power.

    The score is the mean over O1 and O2 of (8-12 Hz power) / (1-45 Hz power);
    k = clamp(len(epochs), min_epochs, max_epochs).  Only the O1 and O2 rows
    are Welched, all epochs in one ``welch`` call; each row's spectrum is the
    one a call on that epoch alone gives.  A stack of fewer than
    ``min_epochs`` epochs is rejected; ties keep the earlier epoch.
    """
    if len(epochs) == 0:
        raise ArgumentError("empty epoch stack")
    if len(epochs) < min_epochs:
        raise IngestError(
            f"has {len(epochs)} epochs after rejection, need at least {min_epochs}"
        )
    power = welch(epochs[:, [O1_INDEX, O2_INDEX]], sample_rate) @ _BAND_WEIGHTS
    alpha, total = power[..., _ALPHA], power[..., _TOTAL]
    scores = np.mean(np.divide(alpha, total, out=np.zeros_like(alpha), where=total > 0),
                     axis=1)
    k = min(max(len(epochs), min_epochs), max_epochs)
    return np.sort(np.argsort(-scores, kind="stable")[:k])


def welch(samples: np.ndarray, sample_rate: float) -> np.ndarray:
    """Welch PSD of each row of a (..., samples) stack, such as one
    (channels, samples) epoch or a (k, channels, samples) stack of them:
    2-s Hamming segments, 50% overlap, density scaling, linearly interpolated
    onto the fixed 1.0-45.0 Hz grid; the result has shape (..., 89), uV^2/Hz.

    One ``scipy.signal.welch`` call covers the whole stack, and each row comes
    out bit-identical to a call on that row's epoch alone.
    """
    from scipy import signal as sps

    if sample_rate < _WELCH_MIN_RATE:
        raise ArgumentError(f"sample rate {sample_rate} Hz cannot support the 45 Hz grid")
    nperseg = int(round(WELCH_SEGMENT_SECONDS * sample_rate))
    if samples.shape[-1] < nperseg:
        raise ArgumentError("epoch shorter than one Welch segment")
    freqs, psd = sps.welch(
        samples,
        fs=sample_rate,
        window="hamming",
        nperseg=nperseg,
        noverlap=nperseg // 2,
        detrend="constant",
        scaling="density",
        axis=-1,
    )
    rows = psd.reshape(-1, psd.shape[-1])
    on_grid = np.empty((len(rows), len(FREQ_GRID)))
    for out, row in zip(on_grid, rows):
        out[:] = np.interp(FREQ_GRID, freqs, row)
    return on_grid.reshape(psd.shape[:-1] + (len(FREQ_GRID),))


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
