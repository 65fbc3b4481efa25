import numpy as np
import pytest

from eegfactor import (
    ArgumentError,
    IngestError,
    bandpass,
    epoch_and_reject,
    make_recording,
    pib,
    select_awake_epochs,
    welch,
    write_edf,
)
from eegfactor import cli
from eegfactor.channels import CHANNELS, CZ_INDEX, O1_INDEX, O2_INDEX
from eegfactor.edf import ManifestEntry
from eegfactor.preprocess import (
    _ALPHA,
    _BAND_WEIGHTS,
    _TOTAL,
    BANDS,
    FREQ_GRID,
    PIB_NAMES,
    _BLOCK,
    _CHUNK,
    _WELCH_BLOCK,
    _butter_bandpass,
    _odd_extension,
    check_recording,
    invalid_spectra,
)

FS = 256.0


def tone_recording(freq, amp=1.0, seconds=60.0, fs=FS, noise=0.0, seed=0):
    rng = np.random.default_rng(seed)
    t = np.arange(int(seconds * fs)) / fs
    x = amp * np.sin(2 * np.pi * freq * t)
    samples = np.tile(x, (19, 1))
    if noise:
        samples = samples + noise * rng.standard_normal(samples.shape)
    return samples


def rms(x):
    return np.sqrt(np.mean(x**2))


def central(x, frac=0.8):
    n = len(x)
    lo = int(n * (1 - frac) / 2)
    return x[lo : n - lo]


class TestBandpass:
    def test_passband_10hz_within_1db(self):
        x = tone_recording(10.0)
        out = bandpass(x, FS)
        gain_db = 20 * np.log10(rms(central(out[0])) / rms(central(x[0])))
        assert abs(gain_db) < 1.0

    def test_stopband_60hz_at_least_40db(self):
        # needs a rate that can represent 60 Hz
        x = tone_recording(60.0, fs=256.0)
        out = bandpass(x, 256.0)
        atten_db = 20 * np.log10(rms(central(x[0])) / rms(central(out[0])))
        assert atten_db >= 40.0

    def test_dc_removed(self):
        out = bandpass(np.full((19, int(60 * FS)), 100.0), FS)
        assert abs(out.mean()) < 1.0  # <1% of the 100 uV offset

    def test_rows_equal_one_stacked_filter(self):
        # all channels go through the block cascade at once; each row matches
        # one stacked sosfiltfilt call to roundoff, not bit for bit, as a
        # numpy kernel cannot reproduce scipy's summation order
        from scipy import signal as sps

        rec = make_recording(seed=5, duration=30.0)
        sos = sps.butter(8, [0.5, 45.0], btype="bandpass", fs=rec.sample_rate, output="sos")
        out = bandpass(rec.samples, rec.sample_rate)
        assert out.flags.c_contiguous and not out.flags.writeable
        want = sps.sosfiltfilt(sos, rec.samples, axis=1)
        assert within_row_max(out, want, 1e-10)

    def test_rate_too_low(self):
        with pytest.raises(ArgumentError, match="80.0 Hz cannot support a 45.0 Hz band edge"):
            bandpass(np.zeros((19, 800)), 80.0, 0.5, 45.0)

    @pytest.mark.parametrize("lo,hi", [(0.0, 45.0), (-1.0, 45.0), (45.0, 45.0),
                                       (50.0, 45.0), (0.5, 128.0), (0.5, 200.0)])
    def test_band_edges_outside_the_band_rejected(self, lo, hi):
        # lo <= 0 or lo >= hi breaks the band; hi >= FS / 2 breaks the rate
        with pytest.raises(ArgumentError, match="band edge"):
            bandpass(np.zeros((19, 2560)), FS, lo, hi)

    @pytest.mark.parametrize("order", [0, -2, 2.5])
    def test_order_not_a_positive_integer_rejected(self, order):
        with pytest.raises(ArgumentError, match="filter order"):
            bandpass(np.zeros((19, 2560)), FS, order=order)

    @pytest.mark.parametrize("order,n", [(8, 51), (8, 40), (2, 15), (1, 1)])
    def test_input_not_longer_than_the_extension_rejected(self, order, n):
        # the odd extension takes 3 * (2 * order + 1) samples from each end
        with pytest.raises(ArgumentError, match="odd extension"):
            bandpass(np.ones((19, n)), FS, order=order)

    def test_shortest_input_filtered(self):
        from scipy import signal as sps

        x = np.random.default_rng(6).standard_normal((3, 52))
        sos = sps.butter(8, [0.5, 45.0], btype="bandpass", fs=FS, output="sos")
        assert within_row_max(bandpass(x, FS), sps.sosfiltfilt(sos, x, axis=1), 1e-10)


class TestCheckRecording:
    """Every rule on which the CLI skips a recording, as an IngestError."""

    @pytest.mark.parametrize("fs,hi,reason", [
        (64.0, 45.0, "64.0 Hz, which cannot support a 45.0 Hz band edge"),
        (90.0, 40.0, "90.0 Hz, which cannot support the 45 Hz grid"),
    ], ids=["band-edge", "grid"])
    def test_unusable_rate_refused(self, fs, hi, reason):
        with pytest.raises(IngestError, match=f"has sample rate {reason}"):
            check_recording(int(60 * fs), fs, hi)

    def test_fewer_than_2_epochs_refused(self):
        with pytest.raises(IngestError, match=r"holds fewer than 2 epochs \(19.9 s\)"):
            check_recording(int(19.9 * FS), FS)
        check_recording(int(20 * FS), FS)

    def test_rate_checked_before_length(self):
        with pytest.raises(IngestError, match="band edge"):
            check_recording(10, 64.0)

    def test_no_longer_than_the_odd_extension_refused(self):
        # at order 70 the extension outgrows two 2-s epochs at 100 Hz; the
        # recordings check_recording admits are the ones bandpass takes
        edge = _odd_extension(70)
        assert edge > 2 * 200
        with pytest.raises(IngestError, match=f"has {edge} samples, no more than the "
                                              f"{edge}-sample odd extension of an "
                                              "order-70 band-pass"):
            check_recording(edge, 100.0, 45.0, 70, 2.0)
        with pytest.raises(ArgumentError, match="odd extension"):
            bandpass(np.ones((19, edge)), 100.0, order=70)
        check_recording(edge + 1, 100.0, 45.0, 70, 2.0)
        assert bandpass(np.ones((19, edge + 1)), 100.0, order=70).shape == (19, edge + 1)


def within_row_max(got, want, tol):
    """True when every entry of ``got`` is within ``tol`` times its row's
    largest magnitude in ``want``."""
    return bool(np.all(np.abs(got - want) <= tol * np.abs(want).max(axis=-1, keepdims=True)))


ORACLE_RATES = (128.0, 200.0, 250.0, 256.0, 500.0)
ORACLE_EDGES = ((0.5, 45.0), (1.0, 40.0), (8.0, 12.0))


class TestScipyOracle:
    """The numpy kernels against ``scipy.signal``, which only the tests import."""

    @pytest.mark.parametrize("order", range(2, 11))
    def test_design_matches_butter(self, order):
        from scipy import signal as sps

        for fs in ORACLE_RATES:
            for lo, hi in ORACLE_EDGES:
                want = sps.butter(order, [lo, hi], btype="bandpass", fs=fs, output="sos")
                np.testing.assert_allclose(_butter_bandpass(order, lo, hi, fs), want,
                                           rtol=1e-12, atol=0)

    def test_bandpass_matches_sosfiltfilt_at_the_default_config(self):
        from scipy import signal as sps

        rec = make_recording(seed=8, duration=120.0)
        sos = sps.butter(8, [0.5, 45.0], btype="bandpass", fs=rec.sample_rate, output="sos")
        want = np.stack([sps.sosfiltfilt(sos, row) for row in rec.samples])
        assert within_row_max(bandpass(rec.samples, rec.sample_rate), want, 1e-10)

    @pytest.mark.parametrize("order", range(2, 11))
    def test_bandpass_matches_sosfiltfilt_over_the_grid(self, order):
        from scipy import signal as sps

        rng = np.random.default_rng(order)
        for fs in ORACLE_RATES:
            for lo, hi in ORACLE_EDGES[:2]:
                # a length that is no multiple of the block or the chunk
                x = 40.0 * rng.standard_normal((2, int(7.3 * fs))) + 15.0
                sos = sps.butter(order, [lo, hi], btype="bandpass", fs=fs, output="sos")
                want = sps.sosfiltfilt(sos, x, axis=1)
                assert within_row_max(bandpass(x, fs, lo, hi, order), want, 1e-8)

    @pytest.mark.parametrize("fs", ORACLE_RATES + (250.2, 250.5))
    def test_welch_matches_scipy_welch(self, fs):
        # at 250.2 Hz the 500-sample segment's bins are 0.5004 Hz apart, so
        # the 1 Hz grid point reads the 0.5 Hz bin that the detrend sets;
        # 250.5 Hz gives an odd 501-sample segment, with no Nyquist bin
        from scipy import signal as sps

        rng = np.random.default_rng(int(fs))
        x = 30.0 * rng.standard_normal((3, 19, int(10 * fs) + 3)) + 4.0
        nperseg = int(round(2.0 * fs))
        freqs, psd = sps.welch(x, fs=fs, window="hamming", nperseg=nperseg,
                               noverlap=nperseg // 2, detrend="constant", scaling="density")
        want = np.apply_along_axis(lambda row: np.interp(FREQ_GRID, freqs, row), -1, psd)
        got = welch(x, fs)
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


class TestOverwrite:
    @pytest.mark.parametrize("order", range(2, 9))
    @pytest.mark.parametrize("fs", [128.0, 200.0, 256.0, 500.0])
    def test_bandpass_over_its_input_is_bit_identical(self, fs, order):
        # chunks, whole blocks and a remainder
        rng = np.random.default_rng(int(fs) + order)
        x = 40.0 * rng.standard_normal((19, 2 * _CHUNK + 3 * _BLOCK + 17)) + 5.0
        fresh = bandpass(x, fs, order=order)
        buffer = x.copy()
        assert bandpass(buffer, fs, order=order, overwrite=True) is buffer
        assert buffer.tobytes() == fresh.tobytes()
        assert buffer.flags.writeable and not fresh.flags.writeable

    @pytest.mark.parametrize("make", [
        lambda x: bandpass(x, FS),  # read-only
        lambda x: np.asfortranarray(x),
        lambda x: x.astype(np.float32),
        lambda x: x.tolist(),
    ])
    def test_only_a_writable_float64_buffer_is_overwritten(self, make):
        x = make(np.random.default_rng(3).standard_normal((19, int(30 * FS))))
        with pytest.raises(ArgumentError, match="overwrite"):
            bandpass(x, FS, overwrite=True)
        with pytest.raises(ArgumentError, match="overwrite"):
            epoch_and_reject(x, FS, overwrite=True)

    @pytest.mark.parametrize("bursts", [(0,), (0, 3), (4, 17), ()])
    def test_epoch_views_equal_copied_epochs(self, bursts):
        rec = make_recording(seed=4, duration=205.0, tones=((10.0, 5.0),), noise_uv=1.0)
        x = np.array(rec.samples)
        n = int(10 * FS)
        for e in bursts:
            x[CZ_INDEX, e * n : (e + 1) * n] *= 12.0
        viewed, kept = epoch_and_reject(x, FS)
        assert set(bursts).isdisjoint(kept.tolist())
        # the oracle copies the kept epochs out of the recording
        copied = x[:, : 20 * n].reshape(19, 20, n).transpose(1, 0, 2)[kept]
        assert viewed.shape == copied.shape and viewed.tobytes() == copied.tobytes()
        buffer = x.copy()
        in_place, kept_in_place = epoch_and_reject(buffer, FS, overwrite=True)
        assert np.array_equal(kept_in_place, kept) and in_place.tobytes() == copied.tobytes()
        assert np.shares_memory(in_place, buffer) and not in_place.flags.writeable
        assert not np.shares_memory(viewed, x) and not viewed.flags.writeable
        # the Welch spectra of the views are those of the copies
        assert np.array_equal(welch(in_place[-1], FS), welch(copied[-1], FS))
        assert np.array_equal(select_awake_epochs(in_place, FS), select_awake_epochs(copied, FS))


class TestEpochAndReject:
    def test_burst_epoch_removed(self):
        rec = make_recording(seed=1, duration=60.0, tones=((10.0, 5.0),), noise_uv=1.0)
        samples = np.array(rec.samples)
        burst = slice(int(20 * FS), int(30 * FS))  # epoch index 2
        samples[CZ_INDEX, burst] *= 10.0
        indices = list(epoch_and_reject(samples, FS)[1])
        assert 2 not in indices
        assert indices == [0, 1, 3, 4, 5]

    def test_homogeneous_recording_keeps_all(self):
        x = np.tile(np.sin(2 * np.pi * 10.0 * np.arange(int(40 * FS)) / FS), (19, 1))
        kept, _ = epoch_and_reject(x, FS)
        assert len(kept) == 4

    def test_25s_recording_gives_two_epochs(self):
        x = np.tile(np.sin(2 * np.pi * 10.0 * np.arange(int(25 * FS)) / FS), (19, 1))
        kept, _ = epoch_and_reject(x, FS)
        assert len(kept) == 2
        assert kept[0].shape[1] == int(10 * FS)

    def test_too_short_rejected(self):
        with pytest.raises(IngestError, match=r"holds fewer than 2 epochs \(15.0 s\)"):
            epoch_and_reject(np.zeros((19, int(15 * FS))), FS)

    @pytest.mark.parametrize("shape", [(17, 10240), (20, 10240), (10240,), (2, 19, 10240)])
    def test_non_montage_array_rejected(self, shape):
        # Cz is read by row, so an array that is not the 19-row montage is refused
        with pytest.raises(ArgumentError, match="montage"):
            epoch_and_reject(np.zeros(shape), FS)

    def test_survival_rate_without_artifacts(self):
        # Gaussian-tail sanity: >= 60% of epochs survive on clean recordings
        for seed in range(10):
            rec = make_recording(seed=seed, duration=80.0, noise_uv=2.0)
            kept, _ = epoch_and_reject(bandpass(rec.samples, FS), FS)
            assert len(kept) >= 0.6 * 8

    @pytest.mark.parametrize("fs", [100.0, 256.0, 500.0])
    def test_kept_epochs_match_the_whole_row_power(self, fs):
        # Cz power is summed one epoch at a time; each sum has the bits of the
        # row-wise sum over the (epochs, samples) block
        rng = np.random.default_rng(int(fs))
        x = rng.standard_normal((19, int(300 * fs)))
        n_per = int(10 * fs)
        x[CZ_INDEX, 7 * n_per : 8 * n_per] *= 3.0  # a burst in epoch 7
        power = np.sum(x[CZ_INDEX].reshape(-1, n_per) ** 2, axis=1)
        want = np.flatnonzero(~(power > power.mean() + 2.0 * power.std()))
        epochs, kept = epoch_and_reject(x, fs)
        assert 7 not in kept and np.array_equal(kept, want)
        assert np.array_equal(epochs, x.reshape(19, -1, n_per)[:, want].transpose(1, 0, 2))

    def test_provenance_indices(self):
        rec = make_recording(seed=2, duration=40.0)
        kept, indices = epoch_and_reject(rec.samples, FS)
        assert len(indices) == len(kept)
        for index in indices:
            assert 0 <= index < 4


def make_epochs(n, alpha_indices, fs=FS, seed=0):
    """A stack of n 10-s epochs; those in alpha_indices get a strong 10 Hz
    posterior tone."""
    rng = np.random.default_rng(seed)
    epochs = []
    t = np.arange(int(10 * fs)) / fs
    for i in range(n):
        samples = rng.standard_normal((19, len(t)))
        if i in alpha_indices:
            tone = 8.0 * np.sin(2 * np.pi * 10.0 * t)
            samples[O1_INDEX] += tone
            samples[O2_INDEX] += tone
        epochs.append(samples)
    return np.array(epochs)


class TestSelectAwakeEpochs:
    def test_strong_alpha_epochs_selected(self):
        epochs = make_epochs(10, alpha_indices={1, 4, 6, 8})
        picked = select_awake_epochs(epochs, FS)
        assert len(picked) == 6
        picked_idx = set(picked)
        assert {1, 4, 6, 8} <= picked_idx

    def test_selection_matches_score_ranking(self):
        epochs = make_epochs(9, alpha_indices={0, 2})
        picked = select_awake_epochs(epochs, FS)
        scores = []
        for e in epochs:
            psd = welch(e, FS)
            share = 0.0
            for ch in (O1_INDEX, O2_INDEX):
                band = np.trapezoid(psd[ch][(FREQ_GRID >= 8) & (FREQ_GRID <= 12)],
                                FREQ_GRID[(FREQ_GRID >= 8) & (FREQ_GRID <= 12)])
                total = np.trapezoid(psd[ch], FREQ_GRID)
                share += band / total / 2
            scores.append(share)
        expected = set(np.argsort(-np.array(scores), kind="stable")[:6])
        assert set(picked) == expected

    def test_exactly_two_kept(self):
        epochs = make_epochs(2, alpha_indices=set())
        assert len(select_awake_epochs(epochs, FS)) == 2

    def test_three_epochs_all_kept(self):
        epochs = make_epochs(3, alpha_indices={0})
        assert len(select_awake_epochs(epochs, FS)) == 3

    def test_single_epoch_rejected(self):
        epochs = make_epochs(1, alpha_indices=set())
        with pytest.raises(IngestError):
            select_awake_epochs(epochs, FS)

    def test_temporal_order_preserved(self):
        epochs = make_epochs(10, alpha_indices={9, 0, 5})
        indices = list(select_awake_epochs(epochs, FS))
        assert indices == sorted(indices)

    @pytest.mark.parametrize("stack", ["random", "ties"])
    def test_positions_match_full_welch_oracle(self, stack):
        # selection Welches only O1 and O2, all epochs in one call; it must
        # pick what scoring each epoch from its own 19-channel Welch picks
        if stack == "random":
            epochs = make_epochs(29, alpha_indices={3, 7, 11, 20, 28})
        else:
            # three distinct epochs, two of them repeated, and silent epochs
            # whose total power is zero: most scores tie
            a, b, c = make_epochs(3, alpha_indices={1}, seed=4)
            epochs = np.stack([b, a, c, a, b, np.zeros_like(a), c, b, np.zeros_like(a), a])

        def oracle(epochs, min_epochs=2, max_epochs=6):
            scores = []
            for e in epochs:
                power = welch(e, FS) @ _BAND_WEIGHTS
                shares = [power[ch, _ALPHA] / power[ch, _TOTAL] if power[ch, _TOTAL] > 0
                          else 0.0 for ch in (O1_INDEX, O2_INDEX)]
                scores.append(np.mean(shares))
            k = min(max(len(epochs), min_epochs), max_epochs)
            return np.sort(np.argsort(-np.array(scores), kind="stable")[:k])

        assert np.array_equal(select_awake_epochs(epochs, FS), oracle(epochs))

    @staticmethod
    def recording_peak(tmp_path, seconds):
        """The ``tracemalloc`` peak of preprocessing one ``seconds``-long
        recording, in montages: 19 float64 rows of the recording's length."""
        import tracemalloc

        path = tmp_path / "rec.edf"
        path.write_bytes(write_edf(make_recording(seed=2, duration=seconds)))
        entry, cfg = ManifestEntry(path, "s0"), cli.load_config()
        cli._preprocess_recording(entry, cfg)  # first-call caches stay out of the peak
        tracemalloc.start()
        try:
            spectra, _ = cli._preprocess_recording(entry, cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert spectra
        return peak / (len(CHANNELS) * int(seconds * FS) * 8)

    def test_recording_peak_within_one_buffer(self, tmp_path):
        # the chain holds one recording-sized float64 buffer from the file to
        # Welch: the montage is decoded into it block by block, band-passed
        # over it and cut into views of it, so the live peak stays near one
        # montage
        assert self.recording_peak(tmp_path, 300.0) <= 1.4

    def test_clinical_length_peak_is_one_montage(self, tmp_path):
        # at 30 min the band-pass chunks, the decoder's block of records and
        # the per-epoch Cz sums are small beside the montage, so nothing
        # recording-sized but the montage itself is live
        assert self.recording_peak(tmp_path, 1800.0) <= 1.05


def tone_epoch(freq, amp=1.0, fs=FS):
    t = np.arange(int(10 * fs)) / fs
    return np.tile(amp * np.sin(2 * np.pi * freq * t), (19, 1))


class TestWelch:
    def test_pure_tone_peak_and_power(self):
        psd = welch(tone_epoch(10.0), FS)
        assert FREQ_GRID[np.argmax(psd[0])] == 10.0
        band = (FREQ_GRID >= 9.0) & (FREQ_GRID <= 11.0)
        integrated = np.trapezoid(psd[0][band], FREQ_GRID[band])
        assert abs(integrated - 0.5) < 0.05  # sinusoid variance is 1/2

    def test_white_noise_flat_and_parseval(self):
        rng = np.random.default_rng(1)
        levels = []
        totals = []
        for _ in range(100):
            psd = welch(rng.standard_normal((19, int(10 * FS))), FS)
            levels.append(psd.mean(axis=0))
            totals.append(np.trapezoid(psd, FREQ_GRID, axis=1).mean())
        mean_level = np.mean(levels, axis=0)
        expected_density = 1.0 / (FS / 2.0)
        assert np.all(np.abs(mean_level - expected_density) < 0.2 * expected_density)
        expected_total = expected_density * (45.0 - 1.0)
        assert abs(np.mean(totals) - expected_total) < 0.1 * expected_total

    def test_zero_signal(self):
        assert np.all(welch(np.zeros((19, int(10 * FS))), FS) == 0.0)

    def test_low_rate_rejected(self):
        with pytest.raises(ArgumentError):
            welch(np.zeros((19, 900)), 90.0)

    def test_nonnegative_everywhere(self):
        rng = np.random.default_rng(2)
        for _ in range(5):
            assert np.all(welch(rng.standard_normal((19, int(10 * FS))) * 40, FS) >= 0.0)

    @pytest.mark.parametrize("fs", [128.0, 200.0, 256.0, 500.0])
    def test_stack_equals_per_epoch_calls(self, fs):
        # one call on a (k, c, n) stack gives each epoch's own spectrum, bit for bit
        rng = np.random.default_rng(int(fs))
        stack = 30.0 * rng.standard_normal((5, 19, int(10 * fs)))
        psd = welch(stack, fs)
        assert psd.shape == (5, 19, 89)
        assert np.array_equal(psd, np.stack([welch(e, fs) for e in stack]))
        rows = [O1_INDEX, O2_INDEX]
        assert np.array_equal(welch(stack[:, rows], fs), psd[:, rows])

    @pytest.mark.parametrize("fs", [128.0, 200.0, 256.0, 500.0])
    def test_blocks_of_a_strided_stack_equal_row_calls(self, fs):
        # a stack of epoch views into one recording, many blocks of rows deep:
        # each row's spectrum is that of a call on the row alone
        n = int(10 * fs)
        x = 30.0 * np.random.default_rng(int(fs)).standard_normal((19, 7 * n + 5))
        stack = x[:, : 7 * n].reshape(19, 7, n).transpose(1, 0, 2)
        psd = welch(stack, fs)
        assert len(stack.reshape(-1, n)) > 2 * max(1, _WELCH_BLOCK // n)
        for i, c in np.ndindex(stack.shape[:2]):
            assert np.array_equal(psd[i, c], welch(np.array(stack[i, c]), fs))

    def test_determinism(self):
        rec = make_recording(seed=3, duration=30.0)
        e1 = [welch(e, FS) for e in epoch_and_reject(bandpass(rec.samples, FS), FS)[0]]
        e2 = [welch(e, FS) for e in epoch_and_reject(bandpass(rec.samples, FS), FS)[0]]
        for a, b in zip(e1, e2):
            np.testing.assert_array_equal(a, b)


class TestInvalidSpectra:
    def test_matches_the_mask_oracle(self):
        rng = np.random.default_rng(6)
        psd = rng.random((40, 19, 89))
        for row, value in enumerate([np.nan, np.inf, -np.inf, -1e-300, -0.0, 0.0]):
            psd[3 * row, row, 7 * row] = value
        psd[30] = np.nan
        want = ~np.all(np.isfinite(psd) & (psd >= 0), axis=(-2, -1))
        assert np.array_equal(invalid_spectra(psd), want)
        assert np.flatnonzero(want).tolist() == [0, 3, 6, 9, 30]
        assert np.array_equal(invalid_spectra(psd[5]), want[5])


class TestPib:
    def test_pure_alpha_channel(self):
        v = pib(welch(tone_epoch(10.0), FS))
        alpha_idx = [i for i, (name, _, _) in enumerate(BANDS) if name == "alpha"][0]
        assert v[alpha_idx] > 0.9

    def test_flat_spectrum_shares(self):
        v = pib(np.ones((19, 89)))
        expected = np.array([3, 4, 5, 12, 20]) / 44.0
        np.testing.assert_allclose(v[:5], expected, rtol=1e-12)

    def test_shares_sum_to_one(self):
        rng = np.random.default_rng(3)
        v = pib(rng.uniform(0.1, 2.0, (19, 89)))
        sums = v.reshape(19, 5).sum(axis=1)
        np.testing.assert_allclose(sums, 1.0, atol=1e-9)

    def test_feature_dim_is_95(self):
        assert pib(welch(tone_epoch(10.0), FS)).shape == (95,)
        assert len(PIB_NAMES) == 95

    def test_zero_channel_named(self):
        psd = np.ones((19, 89))
        psd[CHANNELS.index("F7")] = 0.0
        with pytest.raises(IngestError) as exc:
            pib(psd)
        assert "F7" in str(exc.value)
