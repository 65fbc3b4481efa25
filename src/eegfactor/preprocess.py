"""Montage-to-spectrum preprocessing chain on plain numpy arrays.

Each kernel takes an array, its sample rate and its settings, starting from
the (19, n) montage of ``edf.read_montage`` or ``edf.select_channels``, rows
in ``CHANNELS`` order: zero-phase band-pass (``bandpass``), contiguous 10-s
epoching with high-power Cz rejection (``epoch_and_reject``: a (k, 19, n)
stack of kept epochs and their ordinals), awake-epoch selection by posterior
alpha (``select_awake_epochs``: positions into that stack), and Welch power
spectral densities on a fixed 1.0-45.0 Hz grid (``welch``: any (..., n) stack
to its (..., 89) spectra in one call).  Selection Welches the O1 and O2 rows
of all k epochs in one call; the caller Welches each picked (19, n) epoch,
stacks the spectra into the population tensor and records each row's
(subject, recording, epoch) origin.  ``check_recording`` holds every rule
that refuses a recording, for the caller to run before filtering.  The
arrays carry no names, so IngestErrors read as predicates ("holds fewer
than 2 epochs"); the caller prefixes the recording.  Power-in-bands (PIB)
features live here too; ``pib`` takes one (19, 89) spectrum or a stack.

A caller that owns its montage can run the chain in that one buffer, from
the file on: ``edf.read_edf_file(path, edf.read_montage)`` decodes the
file's data records into it a block at a time,
``bandpass(..., overwrite=True)`` filters it in place, and
``epoch_and_reject(..., overwrite=True)`` sums the Cz power one epoch at a
time, moves the kept epochs to its front and returns a read-only view of
them; without ``overwrite`` both work on a copy, to the same bits.
``welch`` takes such strided views and transforms them in blocks of rows.

The signal kernels are numpy alone, and no stage imports ``scipy.signal``
(its import cost each fresh stage interpreter about a second and 70 MB).
They compute what ``scipy.signal`` computes, to roundoff:

- the filter design is ``butter(order, [lo, hi], "bandpass", output="sos")``:
  the analog Butterworth prototype, the low-pass to band-pass map, the
  bilinear transform and the "nearest" pole-zero pairing into biquads;
- the filter is ``sosfiltfilt`` with its odd extension and its steady-state
  initial conditions, evaluated as a block state-space recurrence over the
  whole cascade (Burrus, "Block realization of digital filters", IEEE Trans.
  Audio Electroacoust. 20(4), 1972): each block of ``_BLOCK`` samples is one
  Toeplitz GEMM of the impulse response plus one GEMM of the carried state,
  for all channels at once;
- the spectrum is ``welch`` with periodic Hamming segments, a constant
  detrend, density scaling and the mean over segments, from ``np.fft.rfft``.
"""
from __future__ import annotations

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .channels import CHANNELS, CZ_INDEX, O1_INDEX, O2_INDEX
from .errors import ArgumentError, IngestError

# fixed spectral grid: 1.0 .. 45.0 Hz in 0.5 Hz steps
FREQ_GRID = np.linspace(1.0, 45.0, 89)
FREQ_GRID.flags.writeable = False
# the lowest sample rate ``welch`` takes for the 45 Hz grid
_WELCH_MIN_RATE = 96.0
# the length of one Welch segment; an epoch must hold at least one
WELCH_SEGMENT_SECONDS = 2.0
# samples per block of the band-pass recurrence: each sample costs a row of a
# _BLOCK-wide Toeplitz GEMM, and each block one Python step of the carried
# state; 64 was the fastest on a 5-min, 19-channel, 256 Hz recording
_BLOCK = 64
# samples per chunk of a band-pass pass: the chunk's temporaries are all the
# memory the filter takes beyond its input and its output
_CHUNK = 32 * _BLOCK
# input samples per block of rows that ``welch`` transforms at once: its
# temporaries are a few times the block, whatever the stack's size
_WELCH_BLOCK = 1 << 14

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
    negative or non-finite value.

    A spectrum's minimum is NaN if it holds a NaN, and negative if it holds
    a negative value or -inf; its maximum is inf if it holds inf.  So two
    reductions decide it, and no mask the size of ``psd`` is made."""
    axes = (-2, -1)
    return ~((np.min(psd, axis=axes) >= 0) & (np.max(psd, axis=axes) < np.inf))


def _odd_extension(order: int) -> int:
    """The samples ``bandpass`` reflects at each end; a recording must be longer."""
    return 3 * (2 * order + 1)


def _whole_epochs(n_samples: int, sample_rate: float, epoch_seconds: float) -> tuple[int, int]:
    """Samples per epoch and whole epochs in ``n_samples``; fewer than 2 is an IngestError."""
    n_per = int(round(epoch_seconds * sample_rate))
    n_epochs = n_samples // n_per
    if n_epochs < 2:
        raise IngestError(f"holds fewer than 2 epochs ({n_samples / sample_rate:.1f} s)")
    return n_per, n_epochs


def check_recording(n_samples: int, sample_rate: float, hi: float = 45.0, order: int = 8,
                    epoch_seconds: float = 10.0):
    """Refuse, as an IngestError, ``n_samples`` at ``sample_rate`` Hz whose
    rate cannot carry the band edge ``hi`` or the 45 Hz Welch grid, that hold
    fewer than 2 epochs, or no more than the order-``order`` band-pass's odd
    extension: every rule on which a caller skips a recording unfiltered."""
    if sample_rate <= 2.0 * hi:
        raise IngestError(f"has sample rate {sample_rate} Hz, which cannot support "
                          f"a {hi} Hz band edge")
    if sample_rate < _WELCH_MIN_RATE:
        raise IngestError(f"has sample rate {sample_rate} Hz, which cannot support "
                          "the 45 Hz grid")
    _whole_epochs(n_samples, sample_rate, epoch_seconds)
    edge = _odd_extension(order)
    if n_samples <= edge:
        raise IngestError(f"has {n_samples} samples, no more than the {edge}-sample odd "
                          f"extension of an order-{order} band-pass")


def _butter_bandpass(order: int, lo: float, hi: float, fs: float) -> np.ndarray:
    """The (order, 6) second-order sections of an order-``order`` digital
    Butterworth band-pass from ``lo`` to ``hi`` Hz at ``fs`` Hz, as
    ``scipy.signal.butter(order, [lo, hi], "bandpass", fs=fs, output="sos")``
    gives them, in the same operations and the same section order."""
    # analog prototype: poles on the left unit half-circle, no zeros
    p = -np.exp(1j * np.pi * np.arange(-order + 1, order, 2, dtype=float) / (2 * order))
    # band edges prewarped for the bilinear transform at a normalised rate of 2
    warped = 4.0 * np.tan(np.pi * (np.array([lo, hi]) / (fs / 2)) / 2.0)
    bw, wo = warped[1] - warped[0], np.sqrt(warped[0] * warped[1])
    # low-pass to band-pass: each pole splits in two, with `order` zeros at s = 0
    p = p * bw / 2
    root = np.sqrt(p**2 - wo**2)
    p = np.concatenate((p + root, p - root))
    gain = bw**order * np.real(4.0**order / np.prod(4.0 - p))
    # bilinear transform: the zeros land on z = 1 and, `order` more, on z = -1
    p = (4.0 + p) / (4.0 - p)
    real = np.abs(p.imag) <= 100 * np.finfo(float).eps * np.abs(p)
    upper = p[~real & (p.imag > 0)]
    poles = list(upper[np.lexsort((upper.imag, upper.real))]) + sorted(p[real].real)
    zeros = [-1.0] * order + [1.0] * order
    # "nearest" pairing: the pole closest to the unit circle, with its
    # conjugate or the next real pole, and the two zeros nearest it, make the
    # last section not yet filled
    sos = np.zeros((order, 6))
    for row in sos[::-1]:
        p1 = poles.pop(int(np.argmin([abs(1 - abs(q)) for q in poles])))
        if np.isreal(p1):
            reals = [i for i, q in enumerate(poles) if np.isreal(q)]
            p2 = poles.pop(reals[int(np.argmin([abs(1 - abs(poles[i])) for i in reals]))]).real
            a = [1.0, -(p1.real + p2), p1.real * p2]
        else:
            a = [1.0, -2.0 * p1.real, p1.real * p1.real + p1.imag * p1.imag]
        z1 = zeros.pop(int(np.argmin([abs(z - p1) for z in zeros])))
        z2 = zeros.pop(int(np.argmin([abs(z - p1) for z in zeros])))
        row[:] = [1.0, -(z1 + z2), z1 * z2] + a
    sos[0, :3] *= gain
    return sos


class _BlockCascade:
    """A cascade of biquads as one state-space system with two states per
    section, evaluated ``_BLOCK`` samples at a time.

    Within a block, the output is the zero-state response, a lower-triangular
    Toeplitz product of the impulse response, plus the response to the state
    carried into the block; A^_BLOCK and the input carry that state to the
    next block.  The states are the transposed direct form II states of
    ``scipy.signal.sosfilt``, section by section, so ``zi`` is its
    ``sosfilt_zi`` flattened."""

    def __init__(self, sos: np.ndarray):
        n, L = 2 * len(sos), _BLOCK
        a = np.zeros((n, n))
        b, c, d = np.zeros(n), np.zeros(n), 1.0
        for j, (b0, b1, b2, _, a1, a2) in zip(range(0, n, 2), sos):
            # section j's input is the output so far: c @ state + d * input
            gain = np.array([b1 - a1 * b0, b2 - a2 * b0])
            a[j:j + 2, :j] = np.outer(gain, c[:j])
            a[j:j + 2, j:j + 2] = [[-a1, 1.0], [-a2, 0.0]]
            b[j:j + 2] = gain * d
            c *= b0
            c[j] = 1.0
            d *= b0
        powers = np.empty((L + 1, n, n))
        powers[0] = np.eye(n)
        for k in range(L):
            powers[k + 1] = powers[k] @ a
        # right-hand factors, for row-vector states and inputs
        self.power_t = powers.transpose(0, 2, 1).copy()  # (A^k)^T
        self.state_out = (c @ powers[:L]).T.copy()  # column i: (c A^i)^T
        response = powers[:L] @ b  # row k: A^k b
        self.input_state = response[::-1].copy()  # row k: (A^(L-1-k) b)^T
        h = np.concatenate(([d], response[:-1] @ c))
        lag = np.arange(L)[None, :] - np.arange(L)[:, None]
        self.toeplitz = np.where(lag >= 0, h[np.maximum(lag, 0)], 0.0)
        self.n_states = n
        # sosfilt_zi: each section's steady state under a unit step, scaled
        # by the DC gain of the sections before it
        b0, b1, b2, _, a1, a2 = sos.T
        i_minus_a = np.zeros((len(sos), 2, 2))
        i_minus_a[:, 0, 0], i_minus_a[:, 0, 1] = 1.0 + a1, -1.0
        i_minus_a[:, 1, 0], i_minus_a[:, 1, 1] = a2, 1.0
        zi = np.linalg.solve(i_minus_a, np.stack([b1 - a1 * b0, b2 - a2 * b0], axis=1)[..., None])
        scale = np.cumprod(np.concatenate(([1.0], sos[:-1, :3].sum(1) / sos[:-1, 3:].sum(1))))
        self.zi = (zi[..., 0] * scale[:, None]).ravel()

    def run(self, x: np.ndarray, state: np.ndarray, out: np.ndarray) -> np.ndarray:
        """Filter the (channels, m) rows of ``x`` into ``out`` from the
        (channels, states) ``state``; return the state after the last
        sample.  ``out`` must not overlap ``x``."""
        L, (c, m) = _BLOCK, x.shape
        nb, r = divmod(m, L)
        if nb:
            blocks = x[:, : nb * L].reshape(c, nb, L)
            carried = blocks @ self.input_state  # each block's input, at its end
            states = np.empty((nb + 1, c, self.n_states))
            states[0] = state
            for k in range(nb):
                np.matmul(states[k], self.power_t[L], out=states[k + 1])
                states[k + 1] += carried[:, k]
            y = out[:, : nb * L].reshape(c, nb, L)
            np.matmul(blocks, self.toeplitz, out=y)
            y += states[:nb].transpose(1, 0, 2) @ self.state_out
            state = states[nb]
        if r:
            rest = x[:, nb * L:]
            out[:, nb * L:] = rest @ self.toeplitz[:r, :r] + state @ self.state_out[:, :r]
            state = state @ self.power_t[r] + rest @ self.input_state[L - r:]
        return state


def _check_overwritable(samples, what: str):
    """Refuse, as an ArgumentError, an array that ``what`` cannot overwrite."""
    if not (isinstance(samples, np.ndarray) and samples.dtype == np.float64
            and samples.flags.c_contiguous and samples.flags.writeable):
        raise ArgumentError(f"{what} can only overwrite a writable C-contiguous float64 array")


def bandpass(samples: np.ndarray, sample_rate: float, lo: float = 0.5, hi: float = 45.0,
             order: int = 8, *, overwrite: bool = False) -> np.ndarray:
    """The zero-phase Butterworth band-pass of each row of a (channels, n)
    array: ``scipy.signal.sosfiltfilt`` of the ``_butter_bandpass`` cascade,
    to roundoff.  The result is a fresh read-only array or, with
    ``overwrite``, ``samples`` itself, filtered in place; both hold the same
    bits.

    The rows are extended at both ends by an odd reflection of
    3 * (2 * order + 1) samples, filtered forward from the steady state of
    their first sample, then backward from the steady state of the forward
    pass's last sample, and cut back to their own span.  Both passes run in
    chunks of ``_CHUNK`` samples, for all channels at once, through
    ``_BlockCascade``: the forward pass copies each chunk of input before
    its output lands there, the backward pass overwrites the forward output
    in place, and its output over the leading extension is never computed.
    """
    if not 0 < lo < hi:
        raise ArgumentError(f"band edges must satisfy 0 < lo < hi, got {lo} and {hi} Hz")
    if sample_rate <= 2.0 * hi:
        raise ArgumentError(f"sample rate {sample_rate} Hz cannot support a {hi} Hz band edge")
    if order < 1 or int(order) != order:
        raise ArgumentError(f"filter order must be an integer >= 1, got {order}")
    order = int(order)
    if overwrite:
        _check_overwritable(samples, "bandpass")
    x = np.asarray(samples, dtype=np.float64)
    if x.ndim != 2:
        raise ArgumentError(f"samples must be a (channels, n) array, got shape {x.shape}")
    edge = _odd_extension(order)
    if x.shape[1] <= edge:
        raise ArgumentError(f"recording of {x.shape[1]} samples is not longer than the "
                            f"{edge}-sample odd extension of an order-{order} band-pass")
    cascade = _BlockCascade(_butter_bandpass(order, lo, hi, sample_rate))
    filtered = x if overwrite else np.empty(x.shape)
    head = 2.0 * x[:, :1] - x[:, edge:0:-1]
    tail = 2.0 * x[:, -1:] - x[:, -2:-edge - 2:-1]
    # forward: the head's output is cut, so it only sets the state
    state = cascade.run(head, head[:, :1] * cascade.zi, np.empty_like(head))
    for j in range(0, x.shape[1], _CHUNK):
        state = cascade.run(x[:, j:j + _CHUNK].copy(), state, filtered[:, j:j + _CHUNK])
    tail_out = np.empty_like(tail)
    cascade.run(tail, state, tail_out)
    # backward, from the end of the tail
    reverse = np.ascontiguousarray(tail_out[:, ::-1])
    state = cascade.run(reverse, tail_out[:, -1:] * cascade.zi, np.empty_like(reverse))
    for j in range(x.shape[1], 0, -_CHUNK):
        span = slice(max(j - _CHUNK, 0), j)
        reverse = np.ascontiguousarray(filtered[:, span][:, ::-1])
        out = np.empty_like(reverse)
        state = cascade.run(reverse, state, out)
        filtered[:, span] = out[:, ::-1]
    if not overwrite:
        filtered.flags.writeable = False
    return filtered


def epoch_and_reject(
    samples: np.ndarray, sample_rate: float, epoch_seconds: float = 10.0, sigma: float = 2.0,
    *, overwrite: bool = False
) -> tuple[np.ndarray, np.ndarray]:
    """Cut a (19, n) montage into contiguous non-overlapping epochs,
    dropping high-power Cz epochs.

    Returns the kept epochs as a read-only (k, 19, samples) stack and their
    ordinals within the recording, counted before rejection.  An epoch is
    dropped when the total power of its Cz row, ``CZ_INDEX``, exceeds
    mean + sigma*std of the per-epoch Cz powers of this recording (strictly
    greater, one-sided).  The sub-epoch remainder is discarded.

    The stack is a view: the j-th kept epoch is moved in place into the
    j-th epoch's slot of a copy of ``samples`` or, with ``overwrite``, of
    ``samples`` itself, which then no longer holds the recording.
    """
    if np.ndim(samples) != 2 or len(samples) != len(CHANNELS):
        raise ArgumentError(f"samples must be the ({len(CHANNELS)}, n) montage, "
                            f"got shape {np.shape(samples)}")
    if overwrite:
        _check_overwritable(samples, "epoch_and_reject")
    n_per, n_epochs = _whole_epochs(samples.shape[1], sample_rate, epoch_seconds)
    buffer = samples if overwrite else samples[:, : n_epochs * n_per].copy()
    segments = buffer[:, : n_epochs * n_per].reshape(len(CHANNELS), n_epochs, n_per)
    # one epoch at a time, so no temporary is as long as the Cz row
    power = np.array([np.sum(epoch**2) for epoch in segments[CZ_INDEX]])
    kept = np.flatnonzero(~(power > power.mean() + sigma * power.std()))
    # each kept epoch moves to a slot at or before its own, so no kept epoch
    # is overwritten before it moves
    for slot, k in enumerate(kept):
        if slot != k:
            segments[:, slot] = segments[:, k]
    epochs = segments[:, : len(kept)].transpose(1, 0, 2)
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
    # the O1 and O2 rows as a view: a slice stepping from one to the other
    posterior = epochs[:, O1_INDEX : O2_INDEX + 1 : O2_INDEX - O1_INDEX]
    power = welch(posterior, sample_rate) @ _BAND_WEIGHTS
    alpha, total = power[..., _ALPHA], power[..., _TOTAL]
    scores = np.mean(np.divide(alpha, total, out=np.zeros_like(alpha), where=total > 0),
                     axis=1)
    k = min(max(len(epochs), min_epochs), max_epochs)
    return np.sort(np.argsort(-scores, kind="stable")[:k])


def welch(samples: np.ndarray, sample_rate: float) -> np.ndarray:
    """Welch PSD of each row of a (..., samples) stack, such as one
    (channels, samples) epoch or a (k, channels, samples) stack of them:
    2-s periodic Hamming segments, 50% overlap, a constant detrend, density
    scaling, the one-sided doubling and the mean over segments, linearly
    interpolated onto the fixed 1.0-45.0 Hz grid; the result has shape
    (..., 89), uV^2/Hz.  It equals ``scipy.signal.welch`` with those settings
    to roundoff.

    The rows are transformed in blocks of about ``_WELCH_BLOCK`` samples,
    each block gathered from the stack, which may be any strided view, and
    all its segments given to one ``np.fft.rfft``; so the temporaries stay
    a few blocks in size, and each row comes out bit-identical to a call on
    that row's epoch alone.
    """
    if sample_rate < _WELCH_MIN_RATE:
        raise ArgumentError(f"sample rate {sample_rate} Hz cannot support the 45 Hz grid")
    nperseg = int(round(WELCH_SEGMENT_SECONDS * sample_rate))
    if samples.shape[-1] < nperseg:
        raise ArgumentError("epoch shorter than one Welch segment")
    x = np.asarray(samples, dtype=np.float64)
    stack = x if x.ndim > 1 else x[None]
    window = 0.54 + 0.46 * np.cos(np.linspace(-np.pi, np.pi, nperseg + 1)[:-1])
    scale = sample_rate * np.sum(window * window)
    freqs = np.fft.rfftfreq(nperseg, 1.0 / sample_rate)
    on_grid = np.empty((int(np.prod(stack.shape[:-1])), len(FREQ_GRID)))
    step = max(1, _WELCH_BLOCK // x.shape[-1])
    for start in range(0, len(on_grid), step):
        block = slice(start, min(start + step, len(on_grid)))
        rows = stack[np.unravel_index(np.arange(block.start, block.stop), stack.shape[:-1])]
        segments = sliding_window_view(rows, nperseg, axis=-1)[:, :: nperseg - nperseg // 2]
        centred = segments - segments.mean(axis=-1, keepdims=True)
        centred *= window
        spectra = np.fft.rfft(centred, axis=-1)
        power = spectra.real**2 + spectra.imag**2
        # one-sided: every bin but DC, and Nyquist when there is one, counts twice
        power[..., 1 : None if nperseg % 2 else -1] *= 2.0
        for out, row in zip(on_grid[block], power.mean(axis=-2) / scale):
            out[:] = np.interp(FREQ_GRID, freqs, row)
    return on_grid.reshape(x.shape[:-1] + (len(FREQ_GRID),))


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
