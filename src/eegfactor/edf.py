"""European Data Format (EDF) reading and writing.

Plain EDF only: 256-byte fixed header, 256 bytes of per-signal header fields
stored field-major, then data records of 16-bit little-endian two's-complement
samples.  EDF+ annotation signals are dropped with a warning; discontinuous
EDF+D files are rejected.

Two readers share one header check and one decoder, which reads the data
records in blocks of about a mebibyte and maps each signal's digital samples
to physical units straight into its own row of a fresh float64 array:
``read_edf`` decodes every signal into a ``Recording``, and ``read_montage``
only the 19 montage signals, in ``CHANNELS`` order, into an array that the
caller owns and the signal chain overwrites.  Both take the bytes of an EDF
or a binary file open on one; ``read_edf_file`` opens the file, so the
file's bytes are never held whole.  Both find the montage by one label rule,
``_montage_rows``, which ``select_channels`` applies to a ``Recording``.
"""
from __future__ import annotations

import csv
import io
import math
import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .channels import CHANNELS
from .errors import ArgumentError, IngestError, ParseError
from .tensor import frozen_array, read_text

ANNOTATION_LABEL = "EDF Annotations"
DIGITAL_MIN = -32768
DIGITAL_MAX = 32767
# data bytes per block that the decoder reads: its one buffer of raw samples
_READ_BYTES = 1 << 20


@dataclass(frozen=True)
class Recording:
    """Multichannel signal in physical units with one shared sample rate."""

    samples: np.ndarray  # (n_channels, n_samples)
    sample_rate: float
    channel_labels: tuple[str, ...]
    recording_id: str = ""
    subject_id: str = ""

    def __post_init__(self):
        arr = frozen_array(self.samples, 2, "samples")
        if self.sample_rate <= 0:
            raise ArgumentError(f"sample_rate must be positive, got {self.sample_rate}")
        labels = tuple(self.channel_labels)
        if len(labels) != arr.shape[0]:
            raise ArgumentError(
                f"{len(labels)} labels for {arr.shape[0]} channels"
            )
        object.__setattr__(self, "samples", arr)
        object.__setattr__(self, "channel_labels", labels)

    @property
    def n_channels(self) -> int:
        return self.samples.shape[0]


# ---------------------------------------------------------------------------
# header decoding helpers

def _ascii(data: bytes, offset: int, size: int, field: str) -> str:
    if len(data) < offset + size:
        raise ParseError("file truncated", field=field, offset=len(data))
    return data[offset : offset + size].decode("latin-1").strip()


def _int_field(data: bytes, offset: int, size: int, field: str) -> int:
    text = _ascii(data, offset, size, field)
    try:
        return int(text)
    except ValueError:
        raise ParseError(f"non-numeric value {text!r}", field=field, offset=offset) from None


def _float_field(data: bytes, offset: int, size: int, field: str) -> float:
    text = _ascii(data, offset, size, field)
    try:
        value = float(text)
    except ValueError:
        raise ParseError(f"non-numeric value {text!r}", field=field, offset=offset) from None
    if not math.isfinite(value):
        raise ParseError(f"non-finite value {text!r}", field=field, offset=offset)
    return value


@dataclass(frozen=True)
class _Header:
    """The validated header of an EDF byte stream: what decoding needs."""

    patient: str
    recording_field: str
    labels: list[str]
    keep: list[int]  # the signals that are not annotations
    phys_min: list[float]
    dig_min: list[int]
    scales: list[float]
    n_samples: list[int]  # per data record
    n_records: int
    record_duration: float
    header_bytes: int

    def rate(self, i: int) -> float:
        return self.n_samples[i] / self.record_duration


def _read_header(fh) -> _Header:
    """Read and check the header of the EDF stream ``fh``, which stands at
    its start, and leave it at the first data record; every malformed field,
    or data records shorter than declared, is a ParseError."""
    data = fh.read(256)
    if len(data) < 256:
        raise ParseError("file truncated before fixed header", field="header", offset=len(data))

    patient = _ascii(data, 8, 80, "patient_id")
    recording_field = _ascii(data, 88, 80, "recording_id")
    reserved = _ascii(data, 192, 44, "reserved")
    if reserved.startswith("EDF+D"):
        raise ParseError("EDF+D discontinuous records are not supported", field="reserved", offset=192)
    n_records = _int_field(data, 236, 8, "number_of_records")
    record_duration = _float_field(data, 244, 8, "record_duration")
    ns = _int_field(data, 252, 4, "number_of_signals")
    if ns <= 0:
        raise ParseError(f"number of signals must be positive, got {ns}", field="number_of_signals", offset=252)

    header_bytes = 256 + ns * 256
    data += fh.read(header_bytes - 256)
    if len(data) < header_bytes:
        raise ParseError("file truncated inside signal headers", field="signal_headers", offset=len(data))

    # per-signal fields are stored field-major
    pos = 256
    labels = [_ascii(data, pos + 16 * i, 16, f"label[{i}]") for i in range(ns)]
    pos += ns * 16
    pos += ns * 80  # transducer
    pos += ns * 8  # physical dimension
    phys_min = [_float_field(data, pos + 8 * i, 8, f"physical_min[{i}]") for i in range(ns)]
    pos += ns * 8
    phys_max_off = pos
    phys_max = [_float_field(data, pos + 8 * i, 8, f"physical_max[{i}]") for i in range(ns)]
    pos += ns * 8
    dig_min_off = pos
    dig_min = [_int_field(data, pos + 8 * i, 8, f"digital_min[{i}]") for i in range(ns)]
    pos += ns * 8
    dig_max = [_int_field(data, pos + 8 * i, 8, f"digital_max[{i}]") for i in range(ns)]
    pos += ns * 8
    pos += ns * 80  # prefiltering
    n_samples = [_int_field(data, pos + 8 * i, 8, f"samples_per_record[{i}]") for i in range(ns)]

    scales = []
    for i in range(ns):
        if dig_max[i] == dig_min[i]:
            raise ParseError(
                f"digital_max equals digital_min ({dig_max[i]}) for signal {i}",
                field=f"digital_min[{i}]",
                offset=dig_min_off + 8 * i,
            )
        scales.append((phys_max[i] - phys_min[i]) / (dig_max[i] - dig_min[i]))
        # the map is monotone, so every 16-bit sample maps to a finite value
        # exactly when both ends of the 16-bit range do
        ends = [(d - dig_min[i]) * scales[i] + phys_min[i] for d in (DIGITAL_MIN, DIGITAL_MAX)]
        if not all(map(math.isfinite, ends)):
            raise ParseError(
                f"physical range of signal {i} is not finite",
                field=f"physical_max[{i}]",
                offset=phys_max_off + 8 * i,
            )
        if n_samples[i] <= 0:
            raise ParseError(
                f"samples_per_record must be positive, got {n_samples[i]}",
                field=f"samples_per_record[{i}]",
                offset=pos + 8 * i,
            )
    if record_duration <= 0 or not math.isfinite(max(n_samples) / record_duration):
        raise ParseError(
            f"record duration must be positive and give a finite sample rate, "
            f"got {record_duration}",
            field="record_duration",
            offset=244,
        )

    # the stream's size, as the file system reports it for a file
    size = fh.seek(0, io.SEEK_END)
    fh.seek(header_bytes)
    record_bytes = 2 * sum(n_samples)
    if n_records < 0:
        # unknown record count: infer from the remaining byte count
        n_records = (size - header_bytes) // record_bytes
    needed = header_bytes + n_records * record_bytes
    if size < needed:
        raise ParseError(
            f"file holds {size} bytes but {needed} are declared",
            field="number_of_records",
            offset=size,
        )
    if n_records == 0:
        raise ParseError("file contains no data records", field="number_of_records", offset=236)

    keep = [i for i in range(ns) if labels[i] != ANNOTATION_LABEL]
    if len(keep) < ns:
        warnings.warn("EDF+ annotation signals skipped", stacklevel=3)
    if not keep:
        raise ParseError("file contains only annotation signals", field="label[0]", offset=256)
    return _Header(patient, recording_field, labels, keep, phys_min, dig_min, scales, n_samples,
                   n_records, record_duration, header_bytes)


def _decode(fh, h: _Header, signals: list[int]) -> tuple[np.ndarray, float, list[int]]:
    """Decode ``signals`` from the data records of the stream ``fh`` into the
    rows of one fresh float64 array at the fastest rate among them; return
    it, that rate and the rows that were resampled to it.

    The records are read in blocks of about ``_READ_BYTES`` into one reused
    int16 buffer, and each block's columns of each signal are decoded in
    place into that signal's row: phys = (dig - dig_min) * scale + phys_min.
    So nothing file-sized is held, and a signal gets a temporary of its own
    only when it is slower than the target; it is linearly interpolated onto
    the target once every block is decoded.  A stream that ends before its
    declared records, as a file that shrinks while it is read does, is a
    ParseError.
    """
    per_record = sum(h.n_samples)
    offsets = np.concatenate([[0], np.cumsum(h.n_samples)])
    target_rate = max(h.rate(i) for i in signals)
    target_len = int(round(h.n_records * h.record_duration * target_rate))
    out = np.empty((len(signals), target_len))
    resampled = [row for row, i in enumerate(signals) if h.n_records * h.n_samples[i] != target_len]
    dest = [np.empty((h.n_records, h.n_samples[i])) if row in resampled
            else out[row].reshape(h.n_records, h.n_samples[i]) for row, i in enumerate(signals)]
    block = np.empty((min(h.n_records, max(1, _READ_BYTES // (2 * per_record))), per_record),
                     dtype="<i2")
    for start in range(0, h.n_records, len(block)):
        raw = block[: h.n_records - start]
        got = fh.readinto(raw)
        if got != raw.nbytes:
            raise ParseError("file changed while it was read", field="number_of_records",
                             offset=h.header_bytes + 2 * per_record * start + got)
        for row, i in zip(dest, signals):
            phys = row[start : start + len(raw)]
            np.subtract(raw[:, offsets[i] : offsets[i + 1]], h.dig_min[i], out=phys,
                        dtype=np.float64)
            phys *= h.scales[i]
            phys += h.phys_min[i]
    for row in resampled:
        t_old = np.arange(dest[row].size) / h.rate(signals[row])
        t_new = np.arange(target_len) / target_rate
        out[row] = np.interp(t_new, t_old, dest[row].reshape(-1))
    return out, target_rate, resampled


def _stream(data):
    """``data`` as a binary stream: an open binary file as it is, bytes as
    an ``io.BytesIO`` over them."""
    return data if hasattr(data, "readinto") else io.BytesIO(data)


def read_edf(data) -> Recording:
    """Parse an EDF, given as bytes or as a binary file open at its start,
    into physical-unit signals.

    Digital samples are mapped to physical units with the per-channel linear
    map phys = (dig - dig_min) * (phys_max - phys_min) / (dig_max - dig_min)
    + phys_min.  Channels with differing rates are resampled to the fastest
    channel rate by linear interpolation, and the recording id says so.
    """
    fh = _stream(data)
    h = _read_header(fh)
    signals, rate, resampled = _decode(fh, h, h.keep)
    recording_id = h.recording_field
    if resampled:
        recording_id = (recording_id + " [resampled]").strip()
    signals.flags.writeable = False
    return Recording(
        samples=signals,
        sample_rate=rate,
        channel_labels=tuple(h.labels[i] for i in h.keep),
        recording_id=recording_id,
        subject_id=h.patient.split()[0] if h.patient else "",
    )


def read_montage(data) -> tuple[np.ndarray, float, dict[str, float]]:
    """The (19, n) montage of an EDF, given as bytes or as a binary file open
    at its start, its sample rate and the montage channels that were
    resampled, each with its own rate.

    Only the 19 montage signals are decoded, straight into the rows of one
    fresh, writable array that the caller owns, in ``CHANNELS`` order.  The
    rate is the fastest montage signal's, and a slower montage channel is
    interpolated onto it; a faster non-montage signal, such as an ECG,
    changes nothing.  So the rows and the rate are those of
    ``select_channels(read_edf(data))``, bit for bit, unless a non-montage
    signal is faster than every montage one.  A missing channel is
    ``select_channels``' IngestError.
    """
    fh = _stream(data)
    h = _read_header(fh)
    signals = [h.keep[k] for k in _montage_rows([h.labels[i] for i in h.keep])]
    samples, rate, resampled = _decode(fh, h, signals)
    return samples, rate, {CHANNELS[row]: h.rate(signals[row]) for row in resampled}


def read_edf_file(path, parse=read_edf):
    """``parse`` of the EDF file at ``path``: by default its Recording, or
    with ``read_montage`` its montage.  The file is read in blocks of data
    records, decoded as they arrive, so its bytes are never held whole.  An
    unreadable file raises the OSError of opening or reading it."""
    with open(path, "rb") as fh:
        return parse(fh)


# ---------------------------------------------------------------------------
# writing

def _fmt_number(value: float, width: int) -> str:
    """ASCII-format a number into at most ``width`` chars, exactly parseable."""
    for prec in (10, 8, 6, 5, 4, 3, 2, 1):
        s = f"{value:.{prec}g}"
        if len(s) <= width:
            return s
    raise ArgumentError(f"cannot format {value} in {width} chars")


def _phys_bounds(x: np.ndarray) -> tuple[float, float]:
    """Formattable physical bounds that enclose all samples of one channel."""
    lo, hi = float(np.min(x)), float(np.max(x))
    if lo == hi:
        lo, hi = lo - 1.0, hi + 1.0
    pad = (hi - lo) * 1e-3
    lo_s = _fmt_number(lo - pad, 8)
    hi_s = _fmt_number(hi + pad, 8)
    # rounding of the ASCII field must not push a bound inside the data range
    while float(lo_s) > lo:
        pad *= 10.0
        lo_s = _fmt_number(lo - pad, 8)
    while float(hi_s) < hi:
        pad *= 10.0
        hi_s = _fmt_number(hi + pad, 8)
    return float(lo_s), float(hi_s)


def write_edf(r: Recording) -> bytes:
    """Serialize a Recording as EDF; read_edf round-trips within 1 LSB."""
    if r.n_channels == 0:
        raise ArgumentError("cannot write an EDF with no channels")
    for label in r.channel_labels:
        if len(label) > 16 or not label.isascii():
            raise ArgumentError(f"channel label {label!r} exceeds 16 ASCII chars")

    n_total = r.samples.shape[1]
    rate = r.sample_rate
    # one-second records when the rate divides evenly, otherwise one big record
    if abs(rate - round(rate)) < 1e-9 and n_total % int(round(rate)) == 0:
        spr = int(round(rate))
        n_records = n_total // spr
        duration = 1.0
    else:
        spr = n_total
        n_records = 1
        duration = n_total / rate
    if spr > 99999999:
        raise ArgumentError("too many samples per record for the EDF header")

    bounds = [_phys_bounds(r.samples[i]) for i in range(r.n_channels)]
    dig = np.empty((r.n_channels, n_total), dtype="<i2")
    for i, (lo, hi) in enumerate(bounds):
        scale = (hi - lo) / (DIGITAL_MAX - DIGITAL_MIN)
        q = np.rint((r.samples[i] - lo) / scale) + DIGITAL_MIN
        dig[i] = np.clip(q, DIGITAL_MIN, DIGITAL_MAX).astype("<i2")

    def pad(text: str, size: int) -> bytes:
        b = text.encode("ascii")
        if len(b) > size:
            raise ArgumentError(f"header field {text!r} exceeds {size} bytes")
        return b.ljust(size)

    ns = r.n_channels
    head = b"".join(
        [
            pad("0", 8),
            pad(r.subject_id[:80], 80),
            pad(r.recording_id[:80], 80),
            pad("01.01.00", 8),
            pad("00.00.00", 8),
            pad(str(256 + ns * 256), 8),
            pad("", 44),
            pad(str(n_records), 8),
            pad(_fmt_number(duration, 8), 8),
            pad(str(ns), 4),
        ]
    )
    sig = b"".join(
        [
            b"".join(pad(lbl, 16) for lbl in r.channel_labels),
            b"".join(pad("", 80) for _ in range(ns)),
            b"".join(pad("uV", 8) for _ in range(ns)),
            b"".join(pad(_fmt_number(lo, 8), 8) for lo, _ in bounds),
            b"".join(pad(_fmt_number(hi, 8), 8) for _, hi in bounds),
            b"".join(pad(str(DIGITAL_MIN), 8) for _ in range(ns)),
            b"".join(pad(str(DIGITAL_MAX), 8) for _ in range(ns)),
            b"".join(pad("", 80) for _ in range(ns)),
            b"".join(pad(str(spr), 8) for _ in range(ns)),
            b"".join(pad("", 32) for _ in range(ns)),
        ]
    )
    # data records: per record, each channel's samples in sequence
    body = dig.reshape(ns, n_records, spr).transpose(1, 0, 2).tobytes()
    return head + sig + body


# ---------------------------------------------------------------------------
# channel selection

def _normalize_label(label: str) -> str:
    s = label.strip().upper()
    if s.startswith("EEG "):
        s = s[4:]
    for suffix in ("-REF", "-LE"):
        if s.endswith(suffix):
            s = s[: -len(suffix)]
    return s.strip()


def _montage_rows(labels) -> list[int]:
    """The position in ``labels`` of each channel of ``CHANNELS``, in order.

    Matching is case-insensitive after stripping the "EEG " prefix and
    "-REF"/"-LE" suffixes, and the first matching label wins.  A missing
    channel is an IngestError that reads as a predicate ("lacks channels:
    Cz, Pz"); the caller names the recording.
    """
    available = {}
    for i, label in enumerate(labels):
        available.setdefault(_normalize_label(label), i)
    rows = [available.get(_normalize_label(want)) for want in CHANNELS]
    missing = [want for want, row in zip(CHANNELS, rows) if row is None]
    if missing:
        raise IngestError(f"lacks channels: {', '.join(missing)}")
    return rows


def select_channels(r: Recording) -> np.ndarray:
    """The read-only (19, n) montage of ``r``: row i is channel
    ``CHANNELS[i]``, matched by ``_montage_rows``."""
    samples = r.samples[_montage_rows(r.channel_labels)]
    samples.flags.writeable = False
    return samples


# ---------------------------------------------------------------------------
# cohort manifest

@dataclass(frozen=True)
class ManifestEntry:
    path: Path
    subject_id: str


def read_manifest(path) -> list[ManifestEntry]:
    """Cohort manifest CSV with columns path,subject_id; any other column,
    such as the label column that ``synth`` writes, is ignored: labels come
    only from the labels CSV that ``classify`` reads."""
    path = Path(path)
    entries = []
    reader = csv.DictReader(io.StringIO(read_text(path), newline=""))
    required = {"path", "subject_id"}
    if reader.fieldnames is None or not required.issubset(reader.fieldnames):
        raise ParseError(
            f"manifest must have columns path,subject_id, got {reader.fieldnames}",
            field="header",
        )
    for row in reader:
        where = f"{path.name} line {reader.line_num}"
        if None in row.values():
            raise ParseError(f"{where}: fewer fields than the header", field="body")
        for name in ("path", "subject_id"):
            if not row[name].strip():
                raise ParseError(f"{where}: {name} is empty", field=name)
        entry_path = Path(row["path"])
        if not entry_path.is_absolute():
            entry_path = path.parent / entry_path
        entries.append(ManifestEntry(entry_path, row["subject_id"].strip()))
    if not entries:
        raise ParseError("manifest contains no rows", field="body")
    return entries
