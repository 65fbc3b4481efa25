import numpy as np
import pytest

from eegfactor import (
    ArgumentError,
    Epoch,
    IngestError,
    Recording,
    bandpass,
    build_tensor,
    epoch_and_reject,
    make_recording,
    pib,
    select_awake_epochs,
    welch,
)
from eegfactor.channels import CHANNELS, CZ_INDEX, O1_INDEX, O2_INDEX
from eegfactor.preprocess import BANDS, FREQ_GRID, PIB_NAMES

FS = 256.0


def tone_recording(freq, amp=1.0, seconds=60.0, fs=FS, noise=0.0, seed=0):
    rng = np.random.default_rng(seed)
    t = np.arange(int(seconds * fs)) / fs
    x = amp * np.sin(2 * np.pi * freq * t)
    samples = np.tile(x, (19, 1))
    if noise:
        samples = samples + noise * rng.standard_normal(samples.shape)
    return Recording(samples=samples, sample_rate=fs, channel_labels=CHANNELS)


def rms(x):
    return np.sqrt(np.mean(x**2))


def central(x, frac=0.8):
    n = len(x)
    lo = int(n * (1 - frac) / 2)
    return x[lo : n - lo]


class TestBandpass:
    def test_passband_10hz_within_1db(self):
        rec = tone_recording(10.0)
        out = bandpass(rec)
        gain_db = 20 * np.log10(rms(central(out.samples[0])) / rms(central(rec.samples[0])))
        assert abs(gain_db) < 1.0

    def test_stopband_60hz_at_least_40db(self):
        # needs a rate that can represent 60 Hz
        rec = tone_recording(60.0, fs=256.0)
        out = bandpass(rec)
        atten_db = 20 * np.log10(rms(central(rec.samples[0])) / rms(central(out.samples[0])))
        assert atten_db >= 40.0

    def test_dc_removed(self):
        rec = Recording(
            samples=np.full((19, int(60 * FS)), 100.0),
            sample_rate=FS,
            channel_labels=CHANNELS,
        )
        out = bandpass(rec)
        assert abs(out.samples.mean()) < 1.0  # <1% of the 100 uV offset

    def test_rows_equal_one_stacked_filter(self):
        # the per-channel filter must give the same bits as one axis=1 call
        from scipy import signal as sps

        rec = make_recording(seed=5, duration=30.0)
        sos = sps.butter(8, [0.5, 45.0], btype="bandpass", fs=rec.sample_rate, output="sos")
        out = bandpass(rec)
        assert out.samples.flags.c_contiguous and not out.samples.flags.writeable
        assert np.array_equal(out.samples, sps.sosfiltfilt(sos, rec.samples, axis=1))

    def test_rate_too_low(self):
        rec = Recording(
            samples=np.zeros((19, 800)), sample_rate=80.0, channel_labels=CHANNELS
        )
        with pytest.raises(ArgumentError):
            bandpass(rec, 0.5, 45.0)


class TestEpochAndReject:
    def test_burst_epoch_removed(self):
        rec = make_recording(seed=1, duration=60.0, tones=((10.0, 5.0),), noise_uv=1.0)
        samples = np.array(rec.samples)
        burst = slice(int(20 * FS), int(30 * FS))  # epoch index 2
        samples[CZ_INDEX, burst] *= 10.0
        noisy = Recording(samples=samples, sample_rate=FS, channel_labels=CHANNELS,
                          recording_id="burst", subject_id="s0")
        kept = epoch_and_reject(noisy)
        indices = [e.index for e in kept]
        assert 2 not in indices
        assert indices == [0, 1, 3, 4, 5]

    def test_homogeneous_recording_keeps_all(self):
        x = np.tile(np.sin(2 * np.pi * 10.0 * np.arange(int(40 * FS)) / FS), (19, 1))
        rec = Recording(samples=x, sample_rate=FS, channel_labels=CHANNELS)
        kept = epoch_and_reject(rec)
        assert len(kept) == 4

    def test_25s_recording_gives_two_epochs(self):
        x = np.tile(np.sin(2 * np.pi * 10.0 * np.arange(int(25 * FS)) / FS), (19, 1))
        rec = Recording(samples=x, sample_rate=FS, channel_labels=CHANNELS)
        kept = epoch_and_reject(rec)
        assert len(kept) == 2
        assert kept[0].samples.shape[1] == int(10 * FS)

    def test_too_short_rejected(self):
        rec = Recording(
            samples=np.zeros((19, int(15 * FS))), sample_rate=FS, channel_labels=CHANNELS
        )
        with pytest.raises(IngestError):
            epoch_and_reject(rec)

    def test_survival_rate_without_artifacts(self):
        # Gaussian-tail sanity: >= 60% of epochs survive on clean recordings
        for seed in range(10):
            rec = make_recording(seed=seed, duration=80.0, noise_uv=2.0)
            kept = epoch_and_reject(bandpass(rec))
            assert len(kept) >= 0.6 * 8

    def test_provenance_indices(self):
        rec = make_recording(seed=2, duration=40.0)
        kept = epoch_and_reject(rec)
        for e in kept:
            assert e.recording_id == rec.recording_id
            assert 0 <= e.index < 4


def make_epochs(n, alpha_indices, fs=FS, seed=0):
    """n 10-s epochs; those in alpha_indices get a strong 10 Hz posterior tone."""
    rng = np.random.default_rng(seed)
    epochs = []
    t = np.arange(int(10 * fs)) / fs
    for i in range(n):
        samples = rng.standard_normal((19, len(t)))
        if i in alpha_indices:
            tone = 8.0 * np.sin(2 * np.pi * 10.0 * t)
            samples[O1_INDEX] += tone
            samples[O2_INDEX] += tone
        epochs.append(
            Epoch(samples=samples, sample_rate=fs, recording_id="r0", subject_id="s0", index=i)
        )
    return epochs


class TestSelectAwakeEpochs:
    def test_strong_alpha_epochs_selected(self):
        epochs = make_epochs(10, alpha_indices={1, 4, 6, 8})
        picked = select_awake_epochs(epochs)
        assert len(picked) == 6
        picked_idx = {e.index for e in picked}
        assert {1, 4, 6, 8} <= picked_idx

    def test_selection_matches_score_ranking(self):
        epochs = make_epochs(9, alpha_indices={0, 2})
        picked = select_awake_epochs(epochs)
        scores = []
        for e in epochs:
            psd = welch(e).psd
            share = 0.0
            for ch in (O1_INDEX, O2_INDEX):
                band = np.trapezoid(psd[ch][(FREQ_GRID >= 8) & (FREQ_GRID <= 12)],
                                FREQ_GRID[(FREQ_GRID >= 8) & (FREQ_GRID <= 12)])
                total = np.trapezoid(psd[ch], FREQ_GRID)
                share += band / total / 2
            scores.append(share)
        expected = set(np.argsort(-np.array(scores), kind="stable")[:6])
        assert {e.index for e in picked} == expected

    def test_exactly_two_kept(self):
        epochs = make_epochs(2, alpha_indices=set())
        assert len(select_awake_epochs(epochs)) == 2

    def test_three_epochs_all_kept(self):
        epochs = make_epochs(3, alpha_indices={0})
        assert len(select_awake_epochs(epochs)) == 3

    def test_single_epoch_rejected(self):
        epochs = make_epochs(1, alpha_indices=set())
        with pytest.raises(IngestError) as exc:
            select_awake_epochs(epochs)
        assert "r0" in str(exc.value)

    def test_temporal_order_preserved(self):
        epochs = make_epochs(10, alpha_indices={9, 0, 5})
        picked = select_awake_epochs(epochs)
        indices = [e.index for e in picked]
        assert indices == sorted(indices)


def tone_epoch(freq, amp=1.0, fs=FS, index=0):
    t = np.arange(int(10 * fs)) / fs
    x = amp * np.sin(2 * np.pi * freq * t)
    return Epoch(
        samples=np.tile(x, (19, 1)), sample_rate=fs, recording_id="r0",
        subject_id="s0", index=index,
    )


class TestWelch:
    def test_pure_tone_peak_and_power(self):
        spec = welch(tone_epoch(10.0))
        assert FREQ_GRID[np.argmax(spec.psd[0])] == 10.0
        band = (FREQ_GRID >= 9.0) & (FREQ_GRID <= 11.0)
        integrated = np.trapezoid(spec.psd[0][band], FREQ_GRID[band])
        assert abs(integrated - 0.5) < 0.05  # sinusoid variance is 1/2

    def test_white_noise_flat_and_parseval(self):
        rng = np.random.default_rng(1)
        levels = []
        totals = []
        for _ in range(100):
            e = Epoch(
                samples=rng.standard_normal((19, int(10 * FS))),
                sample_rate=FS, recording_id="r", subject_id="s", index=0,
            )
            psd = welch(e).psd
            levels.append(psd.mean(axis=0))
            totals.append(np.trapezoid(psd, FREQ_GRID, axis=1).mean())
        mean_level = np.mean(levels, axis=0)
        expected_density = 1.0 / (FS / 2.0)
        assert np.all(np.abs(mean_level - expected_density) < 0.2 * expected_density)
        expected_total = expected_density * (45.0 - 1.0)
        assert abs(np.mean(totals) - expected_total) < 0.1 * expected_total

    def test_zero_signal(self):
        e = Epoch(
            samples=np.zeros((19, int(10 * FS))), sample_rate=FS,
            recording_id="r", subject_id="s", index=0,
        )
        assert np.all(welch(e).psd == 0.0)

    def test_low_rate_rejected(self):
        e = Epoch(
            samples=np.zeros((19, 900)), sample_rate=90.0,
            recording_id="r", subject_id="s", index=0,
        )
        with pytest.raises(ArgumentError):
            welch(e)

    def test_nonnegative_everywhere(self):
        rng = np.random.default_rng(2)
        for _ in range(5):
            e = Epoch(
                samples=rng.standard_normal((19, int(10 * FS))) * 40,
                sample_rate=FS, recording_id="r", subject_id="s", index=0,
            )
            assert np.all(welch(e).psd >= 0.0)

    def test_determinism(self):
        rec = make_recording(seed=3, duration=30.0)
        e1 = [welch(e).psd for e in epoch_and_reject(bandpass(rec))]
        e2 = [welch(e).psd for e in epoch_and_reject(bandpass(rec))]
        for a, b in zip(e1, e2):
            np.testing.assert_array_equal(a, b)


class TestBuildTensor:
    def test_stacking_order_and_slices(self):
        specs = [welch(tone_epoch(5.0 * (i + 1), index=i)) for i in range(3)]
        t, prov = build_tensor(specs)
        assert t.dims == (3, 19, 89)
        for i, s in enumerate(specs):
            np.testing.assert_array_equal(t.data[i], s.psd)
            assert prov[i].epoch_row == i
            assert prov[i].epoch_index == i

    def test_empty_rejected(self):
        with pytest.raises(ArgumentError):
            build_tensor([])

    def test_population_epoch_budget(self):
        # a manifest of R recordings yields between 2R and 6R epochs
        for recordings, low, high in ((2342, 4684, 14052), (10, 20, 60)):
            assert low == 2 * recordings
            assert high == 6 * recordings


class TestPib:
    def test_pure_alpha_channel(self):
        spec = welch(tone_epoch(10.0))
        v = pib(spec.psd)
        alpha_idx = [i for i, (name, _, _) in enumerate(BANDS) if name == "alpha"][0]
        assert v[alpha_idx] > 0.9

    def test_flat_spectrum_shares(self):
        from eegfactor import EpochSpectrum

        flat = EpochSpectrum(
            psd=np.ones((19, 89)), recording_id="r", subject_id="s", index=0
        )
        v = pib(flat.psd)
        expected = np.array([3, 4, 5, 12, 20]) / 44.0
        np.testing.assert_allclose(v[:5], expected, rtol=1e-12)

    def test_shares_sum_to_one(self):
        rng = np.random.default_rng(3)
        from eegfactor import EpochSpectrum

        spec = EpochSpectrum(
            psd=rng.uniform(0.1, 2.0, (19, 89)), recording_id="r", subject_id="s", index=0
        )
        v = pib(spec.psd)
        sums = v.reshape(19, 5).sum(axis=1)
        np.testing.assert_allclose(sums, 1.0, atol=1e-9)

    def test_feature_dim_is_95(self):
        spec = welch(tone_epoch(10.0))
        assert pib(spec.psd).shape == (95,)
        assert len(PIB_NAMES) == 95

    def test_zero_channel_named(self):
        from eegfactor import EpochSpectrum

        psd = np.ones((19, 89))
        psd[CHANNELS.index("F7")] = 0.0
        spec = EpochSpectrum(psd=psd, recording_id="r", subject_id="s", index=0)
        with pytest.raises(IngestError) as exc:
            pib(spec.psd)
        assert "F7" in str(exc.value)
