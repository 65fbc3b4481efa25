import math
import tracemalloc

import numpy as np
import pytest

from eegfactor import (
    ArgumentError,
    Recording,
    SynthSpec,
    build_basis,
    make_cohort,
    make_recording,
    make_tensor,
    project,
    relative_error,
    write_edf,
)
from eegfactor import synth
from eegfactor.preprocess import FREQ_GRID

CLASS_PARAMS = {
    "CN": ([1.0, 0.6, 1.8], [0.15, 0.15, 0.15]),
    "AD": ([1.0, 1.8, 0.5], [0.15, 0.15, 0.15]),
}


class TestMakeTensor:
    def test_noiseless_is_exact(self):
        t, truth = make_tensor(SynthSpec(dims=(10, 8, 9), rank=2, seed=0))
        assert relative_error(t, truth) < 1e-14

    def test_snr_within_half_db(self):
        spec = SynthSpec(dims=(30, 19, 89), rank=3, snr_db=20.0, seed=1)
        t, truth = make_tensor(spec)
        signal = np.einsum("r,er,sr,fr->esf", truth.weights, truth.A, truth.B, truth.C)
        noise = t.data - signal
        snr_db = 10 * np.log10(np.sum(signal**2) / np.sum(noise**2))
        assert abs(snr_db - 20.0) < 0.5

    def test_physiological_factor3_peak_location(self):
        spec = SynthSpec(dims=(5, 19, 89), rank=3, factor_style="physiological", seed=2)
        _, truth = make_tensor(spec)
        peak = FREQ_GRID[np.argmax(truth.C[:, 2])]
        assert 8.0 <= peak <= 25.0

    def test_physiological_factor_order(self):
        spec = SynthSpec(dims=(5, 19, 89), rank=3, factor_style="physiological", seed=3)
        _, truth = make_tensor(spec)
        # component 1 rises with frequency, component 2 falls
        assert truth.C[-1, 0] > truth.C[0, 0]
        assert truth.C[0, 1] > truth.C[-1, 1]
        assert np.all(np.diff(truth.weights) <= 0)

    def test_physiological_requires_grid_dims(self):
        with pytest.raises(ArgumentError):
            SynthSpec(dims=(5, 10, 89), rank=3, factor_style="physiological")

    def test_physiological_requires_rank3(self):
        with pytest.raises(ArgumentError):
            SynthSpec(dims=(5, 19, 89), rank=4, factor_style="physiological")

    def test_truth_satisfies_normalization(self):
        _, truth = make_tensor(SynthSpec(dims=(12, 7, 9), rank=3, seed=4))
        for M in (truth.A, truth.B, truth.C):
            np.testing.assert_allclose(np.linalg.norm(M, axis=0), 1.0, rtol=1e-12)
        assert np.all(np.diff(truth.weights) <= 0)

    def test_seeded_determinism(self):
        spec = SynthSpec(dims=(10, 8, 9), rank=2, snr_db=15.0, seed=5)
        t1, f1 = make_tensor(spec)
        t2, f2 = make_tensor(spec)
        np.testing.assert_array_equal(t1.data, t2.data)
        np.testing.assert_array_equal(f1.A, f2.A)


class TestMakeCohort:
    def spec(self, snr=math.inf, seed=6):
        return SynthSpec(
            dims=(10, 19, 89), rank=3, snr_db=snr, factor_style="physiological",
            class_weight_params=CLASS_PARAMS, seed=seed,
        )

    def test_shapes_and_labels(self):
        cohort = make_cohort(self.spec(), {"CN": 3, "AD": 4}, epochs_per_subject=2)
        assert len(cohort.ids) == 14
        assert cohort.psd.shape == (14, 19, 89)
        assert cohort.weights.shape == (14, 3)
        assert set(cohort.labels.values()) == {"CN", "AD"}
        assert sum(1 for l in cohort.labels.values() if l == "AD") == 4

    def test_spectra_nonnegative_and_finite(self):
        cohort = make_cohort(self.spec(snr=5.0), {"CN": 2, "AD": 2})
        for s in cohort.psd:
            assert np.all(s >= 0.0)
            assert np.all(np.isfinite(s))

    def test_noiseless_weights_recoverable(self):
        cohort = make_cohort(self.spec(), {"CN": 3, "AD": 3}, epochs_per_subject=3)
        basis = build_basis(cohort.truth)
        for s, w_true in zip(cohort.psd, cohort.weights):
            w = project(basis, s)
            np.testing.assert_allclose(w, w_true, atol=1e-6)

    def test_seeded_determinism(self):
        c1 = make_cohort(self.spec(seed=7), {"CN": 2, "AD": 2})
        c2 = make_cohort(self.spec(seed=7), {"CN": 2, "AD": 2})
        np.testing.assert_array_equal(c1.weights, c2.weights)
        for a, b in zip(c1.psd, c2.psd):
            np.testing.assert_array_equal(a, b)

    @pytest.mark.parametrize("style,rank", [("physiological", 3), ("random", 2)])
    def test_truth_is_the_population_tensors(self, monkeypatch, style, rank):
        # the cohort's spectra are built on the population tensor's factors,
        # drawn without building that tensor once more
        spec = SynthSpec(
            dims=(10, 19, 89), rank=rank, snr_db=20.0, factor_style=style,
            class_weight_params={k: (m[:rank], s[:rank]) for k, (m, s) in CLASS_PARAMS.items()},
            seed=11,
        )
        _, truth = make_tensor(spec)
        monkeypatch.setattr(synth, "make_tensor", None)
        cohort = make_cohort(spec, {"CN": 2, "AD": 2})
        for name in ("A", "B", "C", "weights"):
            np.testing.assert_array_equal(getattr(cohort.truth, name), getattr(truth, name))

    def test_ids_name_subject_recording_and_epoch(self):
        cohort = make_cohort(self.spec(), {"CN": 2, "AD": 2}, epochs_per_subject=2)
        assert cohort.ids[:3] == [("AD000", "AD000_r0", 0), ("AD000", "AD000_r0", 1),
                                  ("AD001", "AD001_r0", 0)]
        assert all(cohort.labels[s] == s[:2] for s, _, _ in cohort.ids)

    def test_too_few_subjects_rejected(self):
        with pytest.raises(ArgumentError):
            make_cohort(self.spec(), {"CN": 1, "AD": 3})

    def test_missing_class_params_rejected(self):
        with pytest.raises(ArgumentError):
            make_cohort(self.spec(), {"CN": 2, "MCI": 2})


class TestMakeRecording:
    def test_shape_and_rate(self):
        rec = make_recording(seed=8, duration=30.0)
        assert rec.samples.shape == (19, 30 * 256)
        assert rec.sample_rate == 256.0

    def test_deterministic(self):
        r1 = make_recording(seed=9)
        r2 = make_recording(seed=9)
        np.testing.assert_array_equal(r1.samples, r2.samples)

    # the benchmark's edf-cohort recording: alpha, theta and beta tones
    TONES = ((10.0, 36.0), (6.0, 19.0), (20.0, 4.0))

    @staticmethod
    def direct(seed, sample_rate, duration, tones, noise_uv=2.0):
        """Each tone as amp * sin(2 pi f t + phase) over every sample, plus
        noise_uv * z, drawn from the recording's stream in the same order:
        the phases tone by tone, then z."""
        rng = synth._rng(seed, 3)
        n = int(round(sample_rate * duration))
        t = np.arange(n) / sample_rate
        x = np.zeros((19, n))
        for freq, amp in tones:
            phases = rng.uniform(0.0, 2.0 * np.pi, size=19)
            x += amp * np.sin(2.0 * np.pi * freq * t[None, :] + phases[:, None])
        return x + noise_uv * rng.standard_normal(x.shape)

    @pytest.mark.parametrize("rate", [256.0, 200.0])
    def test_matches_the_direct_formula(self, rate):
        rec = make_recording(seed=5, sample_rate=rate, duration=300.0, tones=self.TONES)
        want = self.direct(5, rate, 300.0, self.TONES)
        assert rec.samples.shape == want.shape == (19, int(300 * rate))
        assert np.max(np.abs(rec.samples - want)) <= 1e-9

    def test_no_tones_is_the_scaled_noise(self):
        rec = make_recording(seed=6, duration=20.0, tones=(), noise_uv=3.0)
        z = synth._rng(6, 3).standard_normal((19, 20 * 256))
        np.testing.assert_array_equal(rec.samples, 3.0 * z)

    def test_edf_within_one_digital_unit_of_the_direct_formula(self):
        rec = make_recording(seed=7, duration=300.0, tones=self.TONES)
        want = Recording(self.direct(7, 256.0, 300.0, self.TONES), 256.0, rec.channel_labels,
                         rec.recording_id, rec.subject_id)
        got, ref = write_edf(rec), write_edf(want)
        head = 256 * (1 + 19)
        assert len(got) == len(ref) and got[:head] == ref[:head]
        dig = np.frombuffer(got, "<i2", offset=head).astype(np.int32)
        ref_dig = np.frombuffer(ref, "<i2", offset=head).astype(np.int32)
        assert np.max(np.abs(dig - ref_dig)) <= 1

    def test_samples_are_read_only(self):
        samples = make_recording(seed=8, duration=10.0).samples
        assert not samples.flags.writeable and samples.flags.owndata
        with pytest.raises(ValueError):
            samples[0, 0] = 0.0

    def test_peak_memory_below_two_recordings(self):
        # the tones are added onto the noise block by block and the Recording
        # keeps the array, so the peak is one recording plus the (6, n) basis
        make_recording(seed=9, duration=1.0, tones=self.TONES)
        tracemalloc.start()
        try:
            rec = make_recording(seed=9, duration=300.0, tones=self.TONES)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.8 * rec.samples.nbytes
