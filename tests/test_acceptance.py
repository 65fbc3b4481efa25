"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines as they complete.  Budgets: criterion 1 under 60 s, criterion 4 under
10 min; everything else is fast.
"""
import time

import numpy as np
import pytest

from eegfactor import (
    CohortDataset,
    CpdOptions,
    ParseError,
    Recording,
    SynthSpec,
    auc,
    bandpass,
    build_basis,
    cpd_als,
    cpd_gn,
    cross_validate,
    diffit,
    make_cohort,
    make_recording,
    make_tensor,
    pib,
    project,
    read_edf,
    welch,
    write_edf,
)
from eegfactor.cli import main as cli_main
from eegfactor.preprocess import FREQ_GRID
from conftest import factor_match_score


def report(criterion: int, passed: bool, detail: str):
    print(f"[{'PASS' if passed else 'FAIL'}] criterion {criterion}: {detail}")
    assert passed, f"criterion {criterion}: {detail}"


CLASS_PARAMS = {
    "CN": ([1.0, 0.6, 1.8], [0.15, 0.15, 0.15]),
    "MCI": ([1.0, 1.1, 1.1], [0.15, 0.15, 0.15]),
    "AD": ([1.0, 1.8, 0.5], [0.15, 0.15, 0.15]),
}


@pytest.fixture(scope="module")
def planted_200():
    return make_tensor(SynthSpec(dims=(200, 19, 89), rank=3, seed=2024))


@pytest.fixture(scope="module")
def solver_suite():
    """50 planted noiseless tensors (dims <= 20x19x89, ranks 1-5), solved by
    ALS and GN from identical seeded starts."""
    rng = np.random.default_rng(424242)
    results = []
    for i in range(50):
        dims = (int(rng.integers(6, 21)), int(rng.integers(4, 20)), int(rng.integers(5, 90)))
        rank = int(rng.integers(1, 6))
        t, truth = make_tensor(SynthSpec(dims=dims, rank=rank, seed=3000 + i))
        opts = CpdOptions(rank=rank, n_starts=5, tol=1e-11, max_iters=400, seed=i)
        results.append((dims, rank, cpd_als(t, opts), cpd_gn(t, opts)))
    return results


def test_criterion_01_cpd_exactness(planted_200):
    t, truth = planted_200
    opts = CpdOptions(rank=3, n_starts=5, tol=1e-14, max_iters=300, seed=12)
    start = time.time()
    res_als = cpd_als(t, opts)
    res_gn = cpd_gn(t, opts)
    elapsed = time.time() - start
    fms_als = factor_match_score(res_als.factors, truth)
    fms_gn = factor_match_score(res_gn.factors, truth)
    ok = (
        res_als.rel_error < 1e-6
        and res_gn.rel_error < 1e-6
        and fms_als > 0.99
        and fms_gn > 0.99
        and elapsed < 60.0
    )
    report(
        1,
        ok,
        f"ALS rel={res_als.rel_error:.2e} FMS={fms_als:.5f}; "
        f"GN rel={res_gn.rel_error:.2e} FMS={fms_gn:.5f}; {elapsed:.1f}s (<60s)",
    )


def test_criterion_02_als_monotonicity(solver_suite):
    violations = 0
    checked = 0
    for dims, rank, res_als, _ in solver_suite:
        trace = np.array(res_als.trace)
        checked += len(trace) - 1
        violations += int(np.sum(np.diff(trace) > 1e-12))
    report(
        2,
        violations == 0,
        f"{violations} violations over {checked} iteration steps on 50 tensors",
    )


def test_criterion_03_solver_agreement(solver_suite):
    worst = max(abs(a.fit - g.fit) for _, _, a, g in solver_suite)
    report(3, worst < 1e-4, f"max |fit_ALS - fit_GN| = {worst:.2e} (<1e-4)")


def test_criterion_04_diffit_histogram():
    t, _ = make_tensor(SynthSpec(dims=(100, 19, 89), rank=3, snr_db=20.0, seed=77))
    start = time.time()
    rep = diffit(
        t, r_max=6, n_runs=30, seed=5,
        options=CpdOptions(rank=1, n_starts=2, tol=1e-7, max_iters=150),
    )
    elapsed = time.time() - start
    count3 = rep.histogram[3]
    ok = rep.modal_rank == 3 and count3 >= 24 and elapsed < 600.0
    report(
        4,
        ok,
        f"modal rank {rep.modal_rank}, {count3}/30 runs chose 3, "
        f"histogram {rep.histogram}, {elapsed:.0f}s (<600s)",
    )


def test_criterion_05_projection_identity(planted_200):
    t, truth = planted_200
    basis = build_basis(truth)
    target = truth.A * truth.weights
    worst = 0.0
    for e in range(t.dims[0]):
        w = project(basis, t.data[e])
        worst = max(worst, float(np.abs(w - target[e]).max()))
    report(5, worst <= 1e-6, f"max |w - lambda*A_row| = {worst:.2e} over {t.dims[0]} rows")


def test_criterion_06_auc_oracle():
    def oracle(scores, labels):
        pos = scores[labels == 1]
        neg = scores[labels == 0]
        wins = sum(
            1.0 if p > n else (0.5 if p == n else 0.0) for p in pos for n in neg
        )
        return wins / (len(pos) * len(neg))

    rng = np.random.default_rng(606)
    mismatches = 0
    instances = 0
    while instances < 200:
        n = int(rng.integers(2, 31))
        labels = np.zeros(n, dtype=int)
        n_pos = int(rng.integers(1, n))
        labels[rng.choice(n, size=n_pos, replace=False)] = 1
        if labels.sum() in (0, n):
            continue
        if rng.random() < 0.5:
            scores = rng.choice(np.linspace(0, 1, 5), size=n)  # heavy ties
        else:
            scores = rng.normal(0, 1, n)
        if auc(scores, labels) != oracle(scores, labels):
            mismatches += 1
        instances += 1
    report(6, mismatches == 0, f"{mismatches} mismatches over 200 instances (exact, ties=1/2)")


def test_criterion_07_subject_disjointness():
    rng = np.random.default_rng(707)
    feats, subjects, labels = [], [], []
    for label, count in (("CN", 24), ("MCI", 31), ("AD", 50)):
        for i in range(count):
            sid = f"{label}{i:03d}"
            for k in range(3):
                feats.append(rng.normal(0, 1, 3))
                subjects.append(sid)
                labels.append(label)
    ds = CohortDataset(np.array(feats), tuple(subjects), tuple(labels))
    failures = []
    for seed in range(100):
        task = "CNvsAD" if seed % 2 == 0 else "CNvsMCI"
        rep = cross_validate(ds, task, "GNB", k=15, seed=seed)
        pos_label = task[4:]
        task_subjects = {
            s for s, l in ds.subject_labels().items() if l in ("CN", pos_label)
        }
        covered = set(rep.fold_assignments)
        per_subject_folds = [rep.fold_assignments[s] for s in sorted(covered)]
        if covered != task_subjects:
            failures.append((seed, "coverage"))
        if any(not (0 <= f < 15) for f in per_subject_folds):
            failures.append((seed, "fold index"))
    report(
        7,
        not failures,
        f"100 seeded runs, 0 overlaps (asserted in-fold), full coverage"
        if not failures
        else f"failures: {failures[:3]}",
    )


def test_criterion_08_table_analogue():
    spec = SynthSpec(
        dims=(150, 19, 89), rank=3, snr_db=20.0, factor_style="physiological",
        class_weight_params=CLASS_PARAMS, seed=808,
    )
    t, _ = make_tensor(spec)
    res = cpd_gn(t, CpdOptions(rank=3, n_starts=3, tol=1e-12, max_iters=200, seed=1))
    basis = build_basis(res.factors)
    cohort = make_cohort(spec, {"CN": 24, "MCI": 31, "AD": 50}, epochs_per_subject=4)
    td = np.array([project(basis, s) for s in cohort.psd])
    pib_feats = np.array([pib(s) for s in cohort.psd])
    subjects = tuple(s for s, _, _ in cohort.ids)
    labels = tuple(cohort.labels[s] for s, _, _ in cohort.ids)
    ds_td = CohortDataset(td, subjects, labels)
    ds_pib = CohortDataset(pib_feats, subjects, labels)

    results = {}
    for name, ds in (("TD", ds_td), ("PIB", ds_pib)):
        for model in ("GNB", "SVM"):
            rep = cross_validate(ds, "CNvsAD", model, k=15, seed=7, svm_epochs=150)
            results[f"{name}-{model}"] = rep.mean_auc
    td_ok = results["TD-GNB"] >= 0.90 and results["TD-SVM"] >= 0.90
    pib_ok = results["PIB-GNB"] >= 0.85 and results["PIB-SVM"] >= 0.85

    subj_sorted = sorted(cohort.labels)
    values = [cohort.labels[s] for s in subj_sorted]
    null_means = []
    for i in range(20):
        perm_rng = np.random.default_rng(900 + i)
        shuffled = list(values)
        perm_rng.shuffle(shuffled)
        relabel = dict(zip(subj_sorted, shuffled))
        ds_null = CohortDataset(td, subjects, tuple(relabel[s] for s in subjects))
        null_means.append(cross_validate(ds_null, "CNvsAD", "GNB", k=15, seed=i).mean_auc)
    null_mean = float(np.mean(null_means))
    null_ok = abs(null_mean - 0.5) <= 0.15
    report(
        8,
        td_ok and pib_ok and null_ok,
        f"AUCs {[f'{k}={v:.3f}' for k, v in results.items()]}, "
        f"null mean {null_mean:.3f} (in 0.5 +/- 0.15)",
    )


def test_criterion_09_signal_chain():
    fs = 256.0
    t = np.arange(int(60 * fs)) / fs

    def rms(x):
        n = len(x)
        lo = n // 10
        return np.sqrt(np.mean(x[lo : n - lo] ** 2))

    tone10 = np.tile(np.sin(2 * np.pi * 10.0 * t), (19, 1))
    out10 = bandpass(tone10, fs)
    gain_db = 20 * np.log10(rms(out10[0]) / rms(tone10[0]))

    tone60 = np.tile(np.sin(2 * np.pi * 60.0 * t), (19, 1))
    out60 = bandpass(tone60, fs)
    atten_db = 20 * np.log10(rms(tone60[0]) / rms(out60[0]))

    spectrum = welch(tone10[:, : int(10 * fs)], fs)
    peak = float(FREQ_GRID[np.argmax(spectrum[0])])
    band = (FREQ_GRID >= 9.0) & (FREQ_GRID <= 11.0)
    integrated = float(np.trapezoid(spectrum[0][band], FREQ_GRID[band]))
    vec = pib(spectrum)
    alpha_share = float(vec[2])  # channel 0, alpha band
    sums = vec.reshape(19, 5).sum(axis=1)
    ok = (
        abs(gain_db) < 1.0
        and atten_db >= 40.0
        and peak == 10.0
        and abs(integrated - 0.5) <= 0.05
        and alpha_share > 0.9
        and np.all(np.abs(sums - 1.0) <= 1e-9)
        and vec.shape == (95,)
    )
    report(
        9,
        ok,
        f"10Hz gain {gain_db:+.2f} dB, 60Hz atten {atten_db:.1f} dB, peak {peak} Hz, "
        f"9-11Hz power {integrated:.3f} (target 0.5), alpha share {alpha_share:.3f}, "
        f"sums within {np.abs(sums - 1.0).max():.1e}, dim {vec.size}",
    )


def test_criterion_10_edf_round_trip():
    rec = make_recording(seed=10, duration=60.0, tones=((10.0, 30.0), (4.0, 12.0)))
    blob = write_edf(rec)
    back = read_edf(blob)
    worst_ratio = 0.0
    for i in range(rec.n_channels):
        span = rec.samples[i].max() - rec.samples[i].min()
        lsb = 1.01 * span * (1 + 2e-3) / 65535
        dev = np.abs(back.samples[i] - rec.samples[i]).max()
        worst_ratio = max(worst_ratio, dev / lsb)

    crashes = 0
    structured = 0
    rng = np.random.default_rng(1010)
    cases = [blob[:100], blob[:256], blob[:2000], b"", b"\x00" * 600]
    mutated = bytearray(blob)
    mutated[236:244] = b"NaNNaN  "
    cases.append(bytes(mutated))
    for _ in range(40):
        cut = int(rng.integers(0, len(blob)))
        broken = bytearray(blob[:cut] + blob[cut:])
        for _ in range(int(rng.integers(1, 8))):
            pos = int(rng.integers(0, 300 + 19 * 256))
            broken[pos : pos + 1] = bytes([int(rng.integers(0, 256))])
        cases.append(bytes(broken[: int(rng.integers(50, len(broken)))]))
    for case in cases:
        try:
            result = read_edf(case)
            assert isinstance(result, Recording)
        except ParseError:
            structured += 1
        except Exception:
            crashes += 1
    ok = worst_ratio <= 1.0 and crashes == 0
    report(
        10,
        ok,
        f"round-trip worst deviation {worst_ratio:.2f} LSB (<=1); "
        f"{structured} structured errors, {crashes} crashes over {len(cases)} malformed files",
    )


def test_criterion_11_cli_determinism(tmp_path):
    cfg = tmp_path / "config.yaml"
    cfg.write_text(
        "cpd:\n  n_starts: 2\n  tol: 1.0e-10\n  max_iters: 150\n  seed: 11\n"
        "diffit:\n  r_max: 4\n  n_runs: 2\n"
        "classify:\n  k_folds: 5\n  svm_epochs: 100\n  seed: 11\n"
    )
    wd = tmp_path / "work"
    base = ["--config", str(cfg), "--workdir", str(wd)]

    def pipeline():
        assert cli_main(base + ["synth", "--mode", "cohort", "--dims", "30", "19", "89",
                                "--snr-db", "25", "--subjects-per-class", "CN=5,MCI=4,AD=5",
                                "--epochs-per-subject", "3"]) == 0
        assert cli_main(base + ["diffit"]) == 0
        assert cli_main(base + ["decompose"]) == 0
        assert cli_main(base + ["project", "--tensor", str(wd / "cohort_tensor.bin"),
                                "--provenance", str(wd / "cohort_provenance.csv")]) == 0
        assert cli_main(base + ["classify"]) == 0
        assert cli_main(base + ["report"]) == 0
        return {p.name: p.read_bytes() for p in wd.iterdir() if p.is_file()}

    first = pipeline()
    second = pipeline()
    same_names = first.keys() == second.keys()
    diffs = [n for n in first if second.get(n) != first[n]]
    ok = same_names and not diffs
    report(
        11,
        ok,
        f"{len(first)} artifacts byte-identical across two runs"
        if ok
        else f"differing artifacts: {diffs}",
    )
