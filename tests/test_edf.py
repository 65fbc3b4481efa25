import os
import warnings

import numpy as np
import pytest

from eegfactor import (
    ArgumentError,
    IngestError,
    ParseError,
    Recording,
    make_recording,
    read_edf,
    read_manifest,
    select_channels,
    write_edf,
)
from eegfactor import edf
from eegfactor.channels import CHANNELS
from eegfactor.edf import read_edf_file, read_montage

from conftest import edf_bytes


def lsb_per_channel(rec):
    """Quantization step actually used by write_edf: span / 65535 plus the
    1e-3 padding, bounded above by 1.01 * raw span / 65535."""
    steps = []
    for i in range(rec.n_channels):
        lo, hi = rec.samples[i].min(), rec.samples[i].max()
        span = (hi - lo) if hi > lo else 2.0
        steps.append(1.01 * span * (1 + 2e-3) / 65535)
    return np.array(steps)


class TestRoundTrip:
    def test_sinusoid_mix_within_one_lsb(self):
        rec = make_recording(seed=1, duration=60.0, tones=((10.0, 30.0), (4.0, 10.0)))
        back = read_edf(write_edf(rec))
        assert back.sample_rate == rec.sample_rate
        assert back.channel_labels == rec.channel_labels
        dev = np.abs(back.samples - rec.samples).max(axis=1)
        assert np.all(dev <= lsb_per_channel(rec))

    def test_constant_channel(self):
        rec = Recording(
            samples=np.full((1, 512), 12.5),
            sample_rate=256.0,
            channel_labels=("Cz",),
        )
        back = read_edf(write_edf(rec))
        assert np.allclose(back.samples, 12.5, atol=1e-3)
        assert len(np.unique(back.samples)) == 1

    def test_non_integer_rate_single_record(self):
        rec = Recording(
            samples=np.random.default_rng(0).normal(0, 10, (2, 1000)),
            sample_rate=250.5,
            channel_labels=("C3", "C4"),
        )
        back = read_edf(write_edf(rec))
        assert back.samples.shape == rec.samples.shape
        assert back.sample_rate == pytest.approx(rec.sample_rate, rel=1e-6)

    def test_ids_survive(self):
        rec = make_recording(seed=2, duration=20.0, subject_id="P42", recording_id="P42_s1")
        back = read_edf(write_edf(rec))
        assert back.subject_id == "P42"
        assert back.recording_id == "P42_s1"


class TestRecordingOwnership:
    def test_caller_array_is_copied(self):
        x = np.zeros((2, 512))
        rec = Recording(samples=x, sample_rate=256.0, channel_labels=("C3", "C4"))
        x[0, 0] = 1.0
        assert rec.samples[0, 0] == 0.0
        assert x.flags.writeable and not rec.samples.flags.writeable

    def test_frozen_samples_are_shared(self):
        rec = read_edf(write_edf(make_recording(seed=3, duration=20.0)))
        relabelled = Recording(samples=rec.samples, sample_rate=rec.sample_rate,
                               channel_labels=rec.channel_labels, subject_id="S9")
        assert relabelled.samples is rec.samples


class TestWriteErrors:
    def test_empty_channel_list(self):
        empty = Recording(samples=np.zeros((0, 10)), sample_rate=256.0, channel_labels=())
        with pytest.raises(ArgumentError):
            write_edf(empty)

    def test_long_label_rejected(self):
        rec = Recording(
            samples=np.zeros((1, 256)),
            sample_rate=256.0,
            channel_labels=("THIS-LABEL-IS-FAR-TOO-LONG",),
        )
        with pytest.raises(ArgumentError):
            write_edf(rec)


class TestReadErrors:
    def make_blob(self):
        return bytearray(write_edf(make_recording(seed=3, duration=20.0)))

    def test_truncated_header(self):
        with pytest.raises(ParseError) as exc:
            read_edf(b"0       ")
        assert exc.value.offset is not None

    def test_truncated_records(self):
        blob = self.make_blob()
        with pytest.raises(ParseError) as exc:
            read_edf(bytes(blob[:-100]))
        assert "number_of_records" in str(exc.value)

    def test_non_numeric_record_count(self):
        blob = self.make_blob()
        blob[236:244] = b"oops    "
        with pytest.raises(ParseError) as exc:
            read_edf(bytes(blob))
        assert "number_of_records" in str(exc.value)

    def test_unknown_record_count_inferred(self):
        blob = self.make_blob()
        blob[236:244] = b"-1      "
        rec = read_edf(bytes(blob))
        assert rec.samples.shape[1] == 20 * 256

    def test_digital_range_collapse(self):
        blob = self.make_blob()
        ns = int(blob[252:256].decode())
        dig_min_off = 256 + ns * (16 + 80 + 8 + 8 + 8)
        dig_max_off = dig_min_off + ns * 8
        blob[dig_min_off : dig_min_off + 8] = b"5       "
        blob[dig_max_off : dig_max_off + 8] = b"5       "
        with pytest.raises(ParseError) as exc:
            read_edf(bytes(blob))
        assert "digital" in str(exc.value)

    @staticmethod
    def signal_field_offset(blob, k):
        """Byte offset of the k-th 8-byte per-signal field after the
        physical dimension: 0 physical_min, 1 physical_max."""
        ns = int(blob[252:256].decode())
        return 256 + ns * (16 + 80 + 8 + 8 * k)

    @pytest.mark.parametrize("text", [b"nan     ", b"inf     ", b"-inf    ", b"1e-320  "])
    def test_record_duration_without_a_finite_rate(self, text):
        # nan and inf, and a subnormal duration whose sample rate overflows
        blob = self.make_blob()
        blob[244:252] = text
        with pytest.raises(ParseError) as exc:
            read_edf(bytes(blob))
        assert exc.value.field == "record_duration"

    @pytest.mark.parametrize("k, name", [(0, "physical_min"), (1, "physical_max")])
    @pytest.mark.parametrize("text", [b"nan     ", b"inf     "])
    def test_non_finite_physical_bound(self, k, name, text):
        blob = self.make_blob()
        off = self.signal_field_offset(blob, k) + 8 * 2
        blob[off : off + 8] = text
        with pytest.raises(ParseError) as exc:
            read_edf(bytes(blob))
        assert exc.value.field == f"{name}[2]"
        assert exc.value.offset == off

    @pytest.mark.parametrize("lo, hi", [(b"-1e308  ", b"1e308   "), (b"0       ", b"1e308   ")])
    def test_physical_range_that_overflows(self, lo, hi):
        # each bound is finite, but the samples they map to are not: the span
        # overflows, or a one-count digital range scales 16-bit samples past it
        blob = self.make_blob()
        lo_off, hi_off = (self.signal_field_offset(blob, k) for k in (0, 1))
        blob[lo_off : lo_off + 8] = lo
        blob[hi_off : hi_off + 8] = hi
        if lo == b"0       ":
            ns = int(blob[252:256].decode())
            dig_off = self.signal_field_offset(blob, 2)
            blob[dig_off : dig_off + 8] = b"0       "
            blob[dig_off + ns * 8 : dig_off + ns * 8 + 8] = b"1       "
        with pytest.raises(ParseError) as exc:
            read_edf(bytes(blob))
        assert exc.value.field == "physical_max[0]"

    def test_parse_is_total_on_fuzz(self):
        # any byte stream must give a Recording or a ParseError, never a crash
        rng = np.random.default_rng(4)
        base = bytes(self.make_blob())
        for trial in range(60):
            if trial % 3 == 0:
                blob = bytes(rng.integers(0, 256, size=int(rng.integers(0, 2000)), dtype=np.uint8))
            else:
                cut = int(rng.integers(0, len(base)))
                mutated = bytearray(base[:cut] + base[cut + 1 :])
                for _ in range(int(rng.integers(1, 6))):
                    pos = int(rng.integers(0, max(1, len(mutated))))
                    mutated[pos : pos + 1] = bytes([int(rng.integers(0, 256))])
                blob = bytes(mutated)
            try:
                rec = read_edf(blob)
                assert isinstance(rec, Recording)
            except ParseError:
                pass


class TestSelectChannels:
    def decorated_style(self):
        rec = make_recording(seed=5, duration=20.0)
        shuffled = list(range(19))
        np.random.default_rng(6).shuffle(shuffled)
        labels = tuple(f"EEG {CHANNELS[i].upper()}-REF" for i in shuffled)
        return (
            Recording(
                samples=rec.samples[shuffled],
                sample_rate=rec.sample_rate,
                channel_labels=labels,
                recording_id="clin0",
            ),
            shuffled,
            rec,
        )

    def test_decorated_labels_matched_and_reordered(self):
        noisy, shuffled, original = self.decorated_style()
        out = select_channels(noisy)
        assert out.shape == (19, noisy.samples.shape[1]) and not out.flags.writeable
        np.testing.assert_array_equal(out, original.samples)

    def test_identity_on_canonical(self):
        rec = make_recording(seed=7, duration=20.0)
        np.testing.assert_array_equal(select_channels(rec), rec.samples)

    def test_missing_channel_listed(self):
        rec = make_recording(seed=8, duration=20.0)
        reduced = Recording(
            samples=rec.samples[:17],
            sample_rate=rec.sample_rate,
            channel_labels=rec.channel_labels[:17],
        )
        with pytest.raises(IngestError) as exc:
            select_channels(reduced)
        # a predicate: the caller names the recording
        assert str(exc.value) == "lacks channels: Cz, Pz"

    def test_cz_lands_at_index_17(self):
        noisy, _, _ = self.decorated_style()
        out = select_channels(noisy)
        np.testing.assert_array_equal(out[17], noisy.samples[noisy.channel_labels.index("EEG CZ-REF")])


def _montage_case(name):
    """EDF bytes of one reader-oracle case, and the montage channels it
    resamples, each with its own rate."""
    seconds = 20
    x = make_recording(seed=9, duration=float(seconds)).samples
    rng = np.random.default_rng(10)
    if name == "shuffled":
        order = rng.permutation(19)
        labels = tuple(f"EEG {CHANNELS[i].upper()}-REF" for i in order)
        return write_edf(Recording(x[order], 256.0, labels)), {}
    if name in ("ekg", "annotation"):
        extra = "EKG" if name == "ekg" else "EDF Annotations"
        samples = np.insert(x, 5, 80.0 * rng.standard_normal(x.shape[1]), axis=0)
        labels = CHANNELS[:5] + (extra,) + CHANNELS[5:]
        return write_edf(Recording(samples, 256.0, labels)), {}
    t = {rate: np.arange(seconds * rate) / rate for rate in (128, 200, 512)}
    signals = [(f"EEG {ch}-LE", 256, row) for ch, row in zip(CHANNELS, x)]
    if name == "mixed_rate":
        for ch, rate in (("O1", 128), ("Cz", 128), ("Pz", 200)):
            tone = 40.0 * np.sin(2 * np.pi * 9.0 * t[rate]) + rng.standard_normal(len(t[rate]))
            signals[CHANNELS.index(ch)] = (ch, rate, tone)
        return edf_bytes(signals, seconds), {"O1": 128.0, "Cz": 128.0, "Pz": 200.0}
    if name == "faster_ekg":
        # a faster non-EEG signal, which leaves the montage at its own rate
        signals.insert(3, ("ECG", 512, 90.0 * np.sin(2 * np.pi * 1.2 * t[512])))
    return edf_bytes(signals, seconds), {}


class TestReadMontage:
    @pytest.mark.parametrize("case", ["shuffled", "ekg", "annotation", "mixed_rate",
                                      "faster_ekg"])
    def test_equals_selected_recording_bit_for_bit(self, case):
        blob, want_resampled = _montage_case(case)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            samples, rate, resampled = read_montage(blob)
            rec = read_edf(blob)
        assert len(caught) == 2 * (case == "annotation")
        if case == "faster_ekg":
            # read_edf resamples every signal to the ECG's 512 Hz; the montage
            # is that of the same file written without the ECG
            assert rec.sample_rate == 512.0
            rec = read_edf(_montage_case("no_ekg")[0])
        want = select_channels(rec)
        assert rate == rec.sample_rate == 256.0
        assert samples.dtype == want.dtype and samples.shape == want.shape
        assert samples.tobytes() == want.tobytes()
        # the caller owns the buffer and may overwrite it
        assert samples.flags.writeable and samples.flags.owndata and samples.flags.c_contiguous
        assert resampled == want_resampled
        assert ("[resampled]" in rec.recording_id) == (case == "mixed_rate")

    def test_missing_channel_listed(self):
        rec = make_recording(seed=8, duration=20.0)
        reduced = Recording(rec.samples[:17], rec.sample_rate, rec.channel_labels[:17])
        with pytest.raises(IngestError) as exc:
            read_montage(write_edf(reduced))
        assert str(exc.value) == "lacks channels: Cz, Pz"

    def test_parse_errors_come_first(self):
        # a malformed header is the ParseError read_edf gives, even when the
        # montage is incomplete too
        rec = make_recording(seed=8, duration=20.0)
        blob = write_edf(Recording(rec.samples[:17], rec.sample_rate, rec.channel_labels[:17]))
        with pytest.raises(ParseError, match="declared"):
            read_montage(blob[:-2])


def _unknown_record_count(blob):
    """``blob`` with number_of_records = -1, which the reader infers."""
    blob = bytearray(blob)
    blob[236:244] = b"-1      "
    return bytes(blob)


# every EDF shape the suite builds: a slower montage channel, a faster ECG,
# an annotation signal and an unknown record count among them
FILE_CASES = ["shuffled", "ekg", "annotation", "mixed_rate", "faster_ekg", "unknown_count"]


def _file_case(name):
    if name == "unknown_count":
        return _unknown_record_count(_montage_case("mixed_rate")[0])
    return _montage_case(name)[0]


def _record_bytes(blob):
    """The bytes of one data record of an EDF whose header declares them."""
    ns = int(blob[252:256].decode())
    first = 256 + ns * (16 + 80 + 8 + 8 + 8 + 8 + 8 + 80)  # samples_per_record[0]
    return 2 * sum(int(blob[off : off + 8]) for off in range(first, first + 8 * ns, 8))


def _same_bits(a, b):
    if isinstance(a, Recording):
        return (a.samples.tobytes() == b.samples.tobytes() and a.samples.shape == b.samples.shape
                and (a.sample_rate, a.channel_labels, a.recording_id, a.subject_id)
                == (b.sample_rate, b.channel_labels, b.recording_id, b.subject_id))
    (x, rate, resampled), (y, rate_b, resampled_b) = a, b
    return (x.tobytes() == y.tobytes() and x.shape == y.shape
            and (rate, resampled) == (rate_b, resampled_b))


class TestReadFile:
    """``read_edf_file`` decodes the file in blocks of data records, and the
    bytes readers run the same decoder over the bytes: both give the same
    bits, whatever the block size."""

    @pytest.mark.parametrize("block", ["default", "3 records", "1 record"])
    @pytest.mark.parametrize("case", FILE_CASES)
    def test_file_equals_bytes_bit_for_bit(self, tmp_path, monkeypatch, case, block):
        blob = _file_case(case)
        path = tmp_path / "rec.edf"
        path.write_bytes(blob)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            want = [read_edf(blob), read_montage(blob)]
            if block != "default":
                # 20 records: 3 per block leaves a last block of 2
                monkeypatch.setattr(edf, "_READ_BYTES", _record_bytes(blob) * int(block[0]))
            got = [read_edf_file(path), read_edf_file(path, read_montage)]
            got_bytes = [read_edf(blob), read_montage(blob)]
        assert all(map(_same_bits, want, got)) and all(map(_same_bits, want, got_bytes))
        assert got[1][0].flags.writeable and got[1][0].flags.owndata

    @pytest.mark.parametrize("cut", ["fixed header", "signal headers", "data start",
                                     "inside a record"])
    def test_truncated_file_is_the_bytes_error(self, tmp_path, cut):
        blob = _file_case("ekg")
        header_bytes = 256 * (1 + int(blob[252:256].decode()))
        end = {"fixed header": 100, "signal headers": 300, "data start": header_bytes,
               "inside a record": header_bytes + 1001}[cut]
        path = tmp_path / "cut.edf"
        path.write_bytes(blob[:end])
        for parse in (read_edf, read_montage):
            with pytest.raises(ParseError) as from_bytes:
                parse(blob[:end])
            with pytest.raises(ParseError) as from_file:
                read_edf_file(path, parse)
            assert (str(from_file.value), from_file.value.field, from_file.value.offset) == \
                (str(from_bytes.value), from_bytes.value.field, from_bytes.value.offset)
            assert from_file.value.offset == min(end, len(blob))

    @pytest.mark.parametrize("parse", [read_edf, read_montage])
    def test_file_that_shrinks_while_read_is_a_parse_error(self, tmp_path, monkeypatch, parse):
        # the size check passes, then the file loses its last records before
        # the blocks that hold them are read
        blob = _file_case("shuffled")
        path = tmp_path / "rec.edf"
        path.write_bytes(blob)
        header_bytes = 256 * 20
        monkeypatch.setattr(edf, "_READ_BYTES", 4 * _record_bytes(blob))
        check = edf._read_header

        def check_then_shrink(fh):
            h = check(fh)
            os.truncate(path, header_bytes + 10 * _record_bytes(blob) + 6)
            return h

        monkeypatch.setattr(edf, "_read_header", check_then_shrink)
        with pytest.raises(ParseError, match="changed while it was read") as exc:
            read_edf_file(path, parse)
        assert exc.value.field == "number_of_records"
        assert exc.value.offset == header_bytes + 10 * _record_bytes(blob) + 6


class TestMixedRates:
    def test_resampled_to_max_rate(self):
        # craft a two-channel EDF with 128 Hz and 256 Hz signals
        t256 = np.arange(256 * 4) / 256.0
        t128 = np.arange(128 * 4) / 128.0
        fast = np.sin(2 * np.pi * 5.0 * t256) * 50
        slow = np.sin(2 * np.pi * 2.0 * t128) * 50
        blob = _edf_two_rates(fast, slow)
        rec = read_edf(blob)
        assert rec.sample_rate == 256.0
        assert rec.samples.shape == (2, 256 * 4)
        expect_slow = np.sin(2 * np.pi * 2.0 * t256) * 50
        # interior only: interpolation holds the last sample beyond t_old[-1]
        assert np.abs(rec.samples[1][:-4] - expect_slow[:-4]).max() < 1.0
        assert "resampled" in rec.recording_id


def _edf_two_rates(fast, slow):
    def pad(text, size):
        return text.encode("ascii").ljust(size)

    n_records = 4
    head = b"".join([
        pad("0", 8), pad("subj", 80), pad("rec", 80), pad("01.01.00", 8),
        pad("00.00.00", 8), pad(str(256 + 2 * 256), 8), pad("", 44),
        pad(str(n_records), 8), pad("1", 8), pad("2", 4),
    ])
    sig = b"".join([
        pad("EEG C3-REF", 16) + pad("EEG C4-REF", 16),
        pad("", 80) * 2,
        pad("uV", 8) * 2,
        pad("-100", 8) * 2,
        pad("100", 8) * 2,
        pad("-32768", 8) * 2,
        pad("32767", 8) * 2,
        pad("", 80) * 2,
        pad("256", 8) + pad("128", 8),
        pad("", 32) * 2,
    ])
    scale = 200.0 / 65535
    body = b""
    for rec_i in range(n_records):
        for sig_data, spr in ((fast, 256), (slow, 128)):
            chunk = sig_data[rec_i * spr : (rec_i + 1) * spr]
            dig = np.rint((chunk - (-100.0)) / scale).astype(np.int64) - 32768
            body += np.clip(dig, -32768, 32767).astype("<i2").tobytes()
    return head + sig + body


class TestManifest:
    def test_read_valid(self, tmp_path):
        p = tmp_path / "m.csv"
        # any column besides path and subject_id is ignored, a label one too
        p.write_text("path,subject_id,label\na.edf,s1,SICK\nb.edf,s2,\n")
        entries = read_manifest(p)
        assert [e.subject_id for e in entries] == ["s1", "s2"]
        assert entries[0].path == tmp_path / "a.edf"
        p.write_text("subject_id,path\ns1,a.edf\n")
        assert read_manifest(p)[0].path == tmp_path / "a.edf"

    def test_missing_columns(self, tmp_path):
        p = tmp_path / "m.csv"
        p.write_text("file,who\na.edf,s1\n")
        with pytest.raises(ParseError):
            read_manifest(p)

    def test_empty_manifest(self, tmp_path):
        p = tmp_path / "m.csv"
        p.write_text("path,subject_id,label\n")
        with pytest.raises(ParseError):
            read_manifest(p)
