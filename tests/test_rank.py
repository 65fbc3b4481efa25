import numpy as np
import pytest

from eegfactor import ArgumentError, CpdOptions, SynthSpec, Tensor3, diffit, make_tensor

FAST = CpdOptions(rank=1, n_starts=2, tol=1e-7, max_iters=120, seed=0)


class TestDiffit:
    def test_rank1_tensor_always_chooses_one(self):
        t, _ = make_tensor(SynthSpec(dims=(20, 10, 12), rank=1, seed=5))
        report = diffit(t, r_max=3, n_runs=3, seed=1, options=FAST)
        assert all(c == 1 for c in report.chosen)
        assert report.modal_rank == 1

    def test_planted_rank3_modal(self, planted_noisy):
        t, _ = planted_noisy
        report = diffit(t, r_max=5, n_runs=5, seed=2, options=FAST)
        assert report.modal_rank == 3
        assert report.histogram[3] >= 4

    def test_fits_non_decreasing_within_runs(self, planted_noisy):
        t, _ = planted_noisy
        report = diffit(t, r_max=5, n_runs=3, seed=3, options=FAST)
        for fits in report.fits:
            assert np.all(np.diff(fits) >= 0.0)

    def test_determinism(self):
        t, _ = make_tensor(SynthSpec(dims=(15, 8, 9), rank=2, snr_db=15.0, seed=7))
        r1 = diffit(t, r_max=4, n_runs=3, seed=4, options=FAST)
        r2 = diffit(t, r_max=4, n_runs=3, seed=4, options=FAST)
        assert r1 == r2

    def test_scale_invariance(self):
        t, _ = make_tensor(SynthSpec(dims=(15, 8, 9), rank=2, snr_db=15.0, seed=8))
        scaled = Tensor3(3.7 * t.data)
        r1 = diffit(t, r_max=4, n_runs=3, seed=5, options=FAST)
        r2 = diffit(scaled, r_max=4, n_runs=3, seed=5, options=FAST)
        assert r1.chosen == r2.chosen
        assert r1.modal_rank == r2.modal_rank

    def test_chosen_in_valid_range(self, planted_noisy):
        t, _ = planted_noisy
        report = diffit(t, r_max=4, n_runs=2, seed=6, options=FAST)
        assert all(1 <= c <= report.r_max - 1 for c in report.chosen)

    def test_histogram_counts_runs(self, planted_noisy):
        t, _ = planted_noisy
        report = diffit(t, r_max=4, n_runs=4, seed=7, options=FAST)
        assert sum(report.histogram.values()) == report.n_runs
        assert set(report.histogram) == {1, 2, 3}

    def test_small_r_max_rejected(self, planted_noisy):
        t, _ = planted_noisy
        with pytest.raises(ArgumentError):
            diffit(t, r_max=2, n_runs=1, options=FAST)

    def test_r_max_above_the_cap_refused_before_any_fit(self, monkeypatch):
        # the cap of a (30, 19, 89) tensor is 30 * 19 = 570; without the
        # entry check every lower rank of run 0 is fitted first
        import eegfactor.rank as rank_module

        def no_fit(*args, **kwargs):
            raise AssertionError("cpd_als ran before r_max was checked")

        monkeypatch.setattr(rank_module, "cpd_als", no_fit)
        t = Tensor3(np.random.default_rng(0).random((30, 19, 89)))
        with pytest.raises(ArgumentError, match="r_max 600 exceeds the identifiable cap 570"):
            diffit(t, r_max=600, n_runs=1, options=FAST)

    def test_zero_runs_rejected(self, planted_noisy):
        t, _ = planted_noisy
        with pytest.raises(ArgumentError):
            diffit(t, r_max=3, n_runs=0, options=FAST)
