import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eegfactor import (
    ArgumentError,
    CohortDataset,
    assign_folds,
    auc,
    cross_validate,
    gnb_fit,
    gnb_score,
    svm_fit,
    svm_objective,
    svm_score,
)
from eegfactor.classify import TASKS, CVReport, SvmModel


def auc_pairwise_oracle(scores, labels):
    """O(n^2) pair counting, ties worth 1/2."""
    scores = np.asarray(scores, dtype=float)
    labels = np.asarray(labels)
    pos = scores[labels == 1]
    neg = scores[labels == 0]
    wins = 0.0
    for p in pos:
        for n in neg:
            if p > n:
                wins += 1.0
            elif p == n:
                wins += 0.5
    return wins / (len(pos) * len(neg))


def svm_slsqp_oracle(X, y, C):
    """The primal over (w, b, xi) solved by SLSQP: an oracle independent of
    the dual solve.  min (1/2)||w||^2 + C sum xi, s_i (w.x_i + b) >= 1 - xi_i,
    xi >= 0."""
    from scipy.optimize import minimize

    n, d = X.shape
    sgn = np.where(y == 1, 1.0, -1.0)
    margin = np.hstack([sgn[:, None] * X, sgn[:, None], np.eye(n)])
    slack = np.hstack([np.zeros((n, d + 1)), np.eye(n)])
    grad_xi = np.r_[np.zeros(d + 1), np.full(n, C)]
    res = minimize(
        lambda z: 0.5 * z[:d] @ z[:d] + C * z[d + 1 :].sum(),
        np.zeros(d + 1 + n),
        jac=lambda z: grad_xi + np.r_[z[:d], np.zeros(n + 1)],
        constraints=[
            {"type": "ineq", "fun": lambda z: margin @ z - 1.0, "jac": lambda z: margin},
            {"type": "ineq", "fun": lambda z: slack @ z, "jac": lambda z: slack},
        ],
        method="SLSQP",
        options={"ftol": 1e-10, "maxiter": 1000},
    )
    assert res.success, res.message
    return SvmModel(w=res.x[:d], b=float(res.x[d]), C=C)


def gaussian_fixture():
    """100 x 4 z-scored rows, two overlapping Gaussian classes."""
    rng = np.random.default_rng(3)
    X = np.vstack([rng.normal(-0.6, 1.0, (50, 4)), rng.normal(0.6, 1.0, (50, 4))])
    return (X - X.mean(0)) / X.std(0), np.array([0] * 50 + [1] * 50)


def pib_like_fixture():
    """40 x 95 z-scored rows shaped like PIB features: per channel, the five
    band shares of a Dirichlet draw, the alpha share larger in class 1."""
    rng = np.random.default_rng(17)
    y = np.array([0] * 20 + [1] * 20)
    X = np.array([
        rng.dirichlet([3.0, 2.0, 4.0 + 1.5 * c, 2.0, 1.0], size=19).ravel() for c in y
    ])
    return (X - X.mean(0)) / X.std(0), y


class TestGnb:
    def test_midpoint_score_zero(self):
        # symmetric classes around 0 and 2 with equal priors and variances
        X = np.array([[-1.0], [0.0], [1.0], [1.0], [2.0], [3.0]])
        y = np.array([0, 0, 0, 1, 1, 1])
        m = gnb_fit(X, y)
        assert gnb_score(m, np.array([[1.0]]))[0] == pytest.approx(0.0, abs=1e-12)

    def test_matches_log_posterior_formula(self):
        rng = np.random.default_rng(0)
        X = np.vstack([rng.normal(0, 1, (20, 2)), rng.normal(1.5, 0.7, (30, 2))])
        y = np.array([0] * 20 + [1] * 30)
        m = gnb_fit(X, y)
        probe = rng.normal(0.5, 1.0, (10, 2))
        scores = gnb_score(m, probe)
        for i, x in enumerate(probe):
            ll = []
            for c in (0, 1):
                terms = -0.5 * np.log(2 * np.pi * m.variances[c]) - (
                    (x - m.means[c]) ** 2
                ) / (2 * m.variances[c])
                ll.append(np.log(m.priors[c]) + terms.sum())
            assert scores[i] == pytest.approx(ll[1] - ll[0], abs=1e-12)

    def test_constant_feature_is_safe(self):
        X = np.column_stack([np.ones(10), np.arange(10, dtype=float)])
        y = np.array([0] * 5 + [1] * 5)
        m = gnb_fit(X, y)
        assert np.all(m.variances > 0)
        assert np.all(np.isfinite(gnb_score(m, X)))

    def test_single_class_rejected(self):
        with pytest.raises(ArgumentError):
            gnb_fit(np.zeros((4, 2)), np.zeros(4, dtype=int))

    def test_added_constant_feature_changes_nothing(self):
        rng = np.random.default_rng(1)
        X = rng.normal(0, 1, (40, 3))
        y = np.array([0, 1] * 20)
        base = gnb_score(gnb_fit(X, y), X)
        Xc = np.column_stack([X, np.full(40, 7.3)])
        augmented = gnb_score(gnb_fit(Xc, y), Xc)
        assert np.abs(augmented - base).max() < 1e-9

    def test_priors_reflect_counts(self):
        X = np.arange(10, dtype=float).reshape(-1, 1)
        y = np.array([0] * 3 + [1] * 7)
        m = gnb_fit(X, y)
        np.testing.assert_allclose(m.priors, [0.3, 0.7])


class TestSvm:
    def test_separable_toy(self):
        rng = np.random.default_rng(2)
        X = np.vstack([rng.normal((-2, 0), 0.2, (20, 2)), rng.normal((2, 0), 0.2, (20, 2))])
        y = np.array([0] * 20 + [1] * 20)
        m = svm_fit(X, y, C=1.0, epochs=300)
        pred = (svm_score(m, X) > 0).astype(int)
        assert np.array_equal(pred, y)

    def test_objective_near_long_run_oracle(self):
        rng = np.random.default_rng(3)
        X = np.vstack([rng.normal(-0.6, 1.0, (50, 4)), rng.normal(0.6, 1.0, (50, 4))])
        X = (X - X.mean(0)) / X.std(0)
        y = np.array([0] * 50 + [1] * 50)
        fast = svm_fit(X, y, C=1.0, epochs=200)
        oracle = svm_fit(X, y, C=1.0, epochs=10_000)  # a cap of 10^6 pair updates
        f_fast = svm_objective(fast, X, y)
        f_oracle = svm_objective(oracle, X, y)
        assert f_fast <= 1.02 * f_oracle

    @pytest.mark.parametrize("fixture", [gaussian_fixture, pib_like_fixture],
                             ids=["gaussian-100x4", "pib-40x95"])
    def test_objective_matches_slsqp_oracle(self, fixture):
        X, y = fixture()
        f_fit = svm_objective(svm_fit(X, y, C=1.0), X, y)
        f_oracle = svm_objective(svm_slsqp_oracle(X, y, C=1.0), X, y)
        assert abs(f_fit - f_oracle) <= 1e-6 * f_oracle

    def test_epochs_cap_pair_updates(self):
        # epochs * n pair updates are too few on this fixture to converge
        X, y = gaussian_fixture()
        capped = svm_objective(svm_fit(X, y, C=1.0, epochs=1), X, y)
        full = svm_objective(svm_fit(X, y, C=1.0), X, y)
        assert capped > 1.01 * full

    def test_c_zero_degenerate(self):
        X = np.array([[0.0], [1.0]])
        y = np.array([0, 1])
        m = svm_fit(X, y, C=0.0)
        assert m.C == 0.0
        np.testing.assert_array_equal(m.w, 0.0)

    def test_single_class_rejected(self):
        with pytest.raises(ArgumentError):
            svm_fit(np.zeros((4, 2)), np.ones(4, dtype=int))

    def test_deterministic(self):
        rng = np.random.default_rng(4)
        X = rng.normal(0, 1, (30, 3))
        y = np.array([0, 1] * 15)
        m1 = svm_fit(X, y, C=0.5, epochs=50)
        m2 = svm_fit(X, y, C=0.5, epochs=50)
        np.testing.assert_array_equal(m1.w, m2.w)
        assert m1.b == m2.b


class TestAuc:
    def test_perfect_ranking(self):
        assert auc([0.1, 0.2, 0.8, 0.9], [0, 0, 1, 1]) == 1.0

    def test_all_ties(self):
        assert auc([0.5] * 6, [0, 1, 0, 1, 0, 1]) == 0.5

    def test_matches_pairwise_oracle_exactly(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            n = int(rng.integers(4, 30))
            labels = np.zeros(n, dtype=int)
            labels[rng.choice(n, size=int(rng.integers(1, n)), replace=False)] = 1
            if labels.sum() in (0, n):
                continue
            scores = rng.choice([0.0, 0.25, 0.5, 0.75, 1.0], size=n)  # force ties
            assert auc(scores, labels) == auc_pairwise_oracle(scores, labels)

    def test_single_class_rejected(self):
        with pytest.raises(ArgumentError):
            auc([1.0, 2.0], [1, 1])

    @given(st.integers(0, 2**16))
    @settings(max_examples=25, deadline=None)
    def test_invariant_under_increasing_transform(self, seed):
        rng = np.random.default_rng(seed)
        n = 12
        labels = np.array([0, 1] * 6)
        scores = rng.normal(0, 1, n)
        assert auc(scores, labels) == pytest.approx(
            auc(np.exp(scores) + 3.0, labels), abs=1e-12
        )


def make_dataset(rng, sizes, sep=3.0, epochs=4, dim=3):
    feats, subjects, labels = [], [], []
    centers = {"CN": 0.0, "MCI": sep / 2, "AD": sep}
    for label, count in sizes.items():
        for i in range(count):
            sid = f"{label}{i:03d}"
            for k in range(epochs):
                feats.append(rng.normal(centers[label], 1.0, dim))
                subjects.append(sid)
                labels.append(label)
    return CohortDataset(np.array(feats), tuple(subjects), tuple(labels))


class TestCrossValidate:
    SIZES = {"CN": 24, "MCI": 31, "AD": 50}

    def test_paper_shaped_cohort_partition(self):
        rng = np.random.default_rng(6)
        ds = make_dataset(rng, self.SIZES)
        report = cross_validate(ds, "CNvsAD", "GNB", k=15, seed=0)
        subjects = {s for s, l in ds.subject_labels().items() if l in ("CN", "AD")}
        assert set(report.fold_assignments) == subjects
        assert set(report.fold_assignments.values()) <= set(range(15))

    def test_separated_cohort_high_auc(self):
        rng = np.random.default_rng(7)
        ds = make_dataset(rng, self.SIZES, sep=6.0)
        for model in ("GNB", "SVM"):
            report = cross_validate(ds, "CNvsAD", model, k=15, seed=1)
            assert report.mean_auc >= 0.95

    def test_shuffled_labels_near_chance(self):
        rng = np.random.default_rng(8)
        ds = make_dataset(rng, self.SIZES, sep=6.0)
        subj = ds.subject_labels()
        values = [subj[s] for s in sorted(subj)]
        means = []
        for i in range(5):
            perm_rng = np.random.default_rng(100 + i)
            shuffled = list(values)
            perm_rng.shuffle(shuffled)
            relabel = dict(zip(sorted(subj), shuffled))
            ds2 = CohortDataset(
                ds.features, ds.subject_ids, tuple(relabel[s] for s in ds.subject_ids)
            )
            means.append(cross_validate(ds2, "CNvsAD", "GNB", k=15, seed=i).mean_auc)
        assert abs(np.mean(means) - 0.5) < 0.15

    def test_stratified_folds_balanced(self):
        rng = np.random.default_rng(9)
        ds = make_dataset(rng, self.SIZES)
        report = cross_validate(ds, "CNvsMCI", "GNB", k=15, seed=3)
        by_fold: dict[int, int] = {}
        for s, f in report.fold_assignments.items():
            by_fold[f] = by_fold.get(f, 0) + 1
        # 24 CN + 31 MCI over 15 folds: per-class round-robin gives 3-5 per fold
        assert set(by_fold.values()) <= {3, 4, 5}
        assert max(by_fold.values()) - min(by_fold.values()) <= 2

    def test_determinism(self):
        rng = np.random.default_rng(10)
        ds = make_dataset(rng, self.SIZES)
        r1 = cross_validate(ds, "CNvsAD", "SVM", k=15, seed=5)
        r2 = cross_validate(ds, "CNvsAD", "SVM", k=15, seed=5)
        assert r1 == r2

    def test_skipped_folds_flagged(self):
        rng = np.random.default_rng(11)
        ds = make_dataset(rng, {"CN": 3, "AD": 3}, epochs=2)
        report = cross_validate(ds, "CNvsAD", "GNB", k=6, seed=0)
        assert report.skipped_folds
        valid = [a for a in report.fold_aucs if a is not None]
        assert report.mean_auc == pytest.approx(float(np.mean(valid)))
        assert report.std_auc == pytest.approx(float(np.std(valid)))

    def test_too_few_subjects_rejected(self):
        rng = np.random.default_rng(12)
        ds = make_dataset(rng, {"CN": 1, "AD": 5})
        with pytest.raises(ArgumentError):
            cross_validate(ds, "CNvsAD", "GNB", k=3, seed=0)

    def test_unknown_task_rejected(self):
        rng = np.random.default_rng(13)
        ds = make_dataset(rng, {"CN": 3, "AD": 3})
        with pytest.raises(ArgumentError):
            cross_validate(ds, "ADvsMCI", "GNB")

    def test_conflicting_subject_labels_rejected(self):
        with pytest.raises(ArgumentError):
            CohortDataset(
                np.zeros((2, 1)), ("s0", "s0"), ("CN", "AD")
            )

    def test_epoch_scores_averaged_per_subject(self):
        # one test subject with two epochs: its subject score must be the mean
        rng = np.random.default_rng(14)
        ds = make_dataset(rng, {"CN": 4, "AD": 4}, sep=8.0, epochs=3)
        report = cross_validate(ds, "CNvsAD", "GNB", k=4, seed=2)
        assert all(a is None or 0.0 <= a <= 1.0 for a in report.fold_aucs)


def cross_validate_oracle(ds, task, model, k, seed, svm_c=1.0, svm_epochs=200):
    """cross_validate's bookkeeping written out fold by fold with subject sets
    and a dict of each test subject's epoch scores."""
    neg_label, pos_label = TASKS[task]
    mask = [label in (neg_label, pos_label) for label in ds.labels]
    X = ds.features[np.array(mask)]
    y = np.array([int(label == pos_label) for label, m in zip(ds.labels, mask) if m])
    subjects = [s for s, m in zip(ds.subject_ids, mask) if m]
    subject_label = {s: label for s, label, m in zip(ds.subject_ids, ds.labels, mask) if m}
    by_class = {neg_label: [], pos_label: []}
    for s, label in subject_label.items():
        by_class[label].append(s)
    assignment = assign_folds(by_class, k, seed)
    fold_aucs = []
    for f in range(k):
        test = np.array([assignment[s] == f for s in subjects])
        train = ~test
        test_rows = [s for s, m in zip(subjects, test) if m]
        assert not set(test_rows) & {s for s, m in zip(subjects, train) if m}
        if len({subject_label[s] for s in test_rows}) < 2 or len(set(y[train])) < 2:
            fold_aucs.append(None)
            continue
        mean, std = X[train].mean(axis=0), X[train].std(axis=0)
        std = np.where(std > 0, std, 1.0)
        Xtr, Xte = (X[train] - mean) / std, (X[test] - mean) / std
        if model == "GNB":
            scores = gnb_score(gnb_fit(Xtr, y[train]), Xte)
        else:
            scores = svm_score(svm_fit(Xtr, y[train], C=svm_c, epochs=svm_epochs), Xte)
        per_subject: dict[str, list[float]] = {}
        for s, score in zip(test_rows, scores):
            per_subject.setdefault(s, []).append(float(score))
        order = sorted(per_subject)
        fold_aucs.append(auc([float(np.mean(per_subject[s])) for s in order],
                             [int(subject_label[s] == pos_label) for s in order]))
    valid = [a for a in fold_aucs if a is not None]
    if not valid:
        return None
    return CVReport(task, model, tuple(fold_aucs), float(np.mean(valid)), float(np.std(valid)),
                    assignment, tuple(f for f, a in enumerate(fold_aucs) if a is None))


def uneven_dataset(seed):
    """2-9 subjects per class and 1-5 epochs per subject, the rows shuffled
    across subjects; the classes overlap."""
    rng = np.random.default_rng(seed)
    feats, subjects, labels = [], [], []
    for label, center in (("CN", 0.0), ("MCI", 0.5), ("AD", 1.0)):
        for i in range(int(rng.integers(2, 10))):
            for _ in range(int(rng.integers(1, 6))):
                feats.append(rng.normal(center, 1.0, 3))
                subjects.append(f"{label}{i:02d}")
                labels.append(label)
    order = rng.permutation(len(feats))
    return CohortDataset(np.array(feats)[order], tuple(np.array(subjects)[order].tolist()),
                         tuple(np.array(labels)[order].tolist()))


class TestCrossValidateOracle:
    def test_reports_equal_the_per_fold_oracle(self):
        skipped = 0
        for seed in range(24):
            ds = uneven_dataset(seed)
            k = (3, 5, 15)[seed % 3]
            for task in sorted(TASKS):
                for model in ("GNB", "SVM"):
                    want = cross_validate_oracle(ds, task, model, k, seed, svm_epochs=50)
                    if want is None:
                        with pytest.raises(ArgumentError):
                            cross_validate(ds, task, model, k=k, seed=seed, svm_epochs=50)
                        continue
                    got = cross_validate(ds, task, model, k=k, seed=seed, svm_epochs=50)
                    assert got == want, (seed, task, model)
                    skipped += bool(got.skipped_folds)
        assert skipped > 0


class TestAssignFolds:
    def test_round_robin_counts(self):
        folds = assign_folds({"CN": [f"c{i}" for i in range(7)]}, k=3, seed=0)
        counts = [list(folds.values()).count(f) for f in range(3)]
        assert sorted(counts) == [2, 2, 3]

    def test_seed_changes_assignment(self):
        subjects = {"CN": [f"c{i}" for i in range(20)]}
        assert assign_folds(subjects, 5, 0) != assign_folds(subjects, 5, 1)
