"""Subject-disjoint cross-validated cohort classification.

Models are deliberately small and fully deterministic: Gaussian naive Bayes
with floored variances, and a linear SVM whose primal (unregularized bias)
is solved exactly through its dual by pairwise SMO over the fold's Gram
matrix, with no random draws.  Epoch scores are averaged per subject before
the Mann-Whitney AUC, counted over every (positive, negative) subject pair.
"""
from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

import numpy as np

from .errors import ArgumentError
from .tensor import frozen_array

VALID_LABELS = ("CN", "MCI", "AD")

TASKS = {
    "CNvsMCI": ("CN", "MCI"),
    "CNvsAD": ("CN", "AD"),
}


@dataclass(frozen=True)
class CohortDataset:
    """Epoch-level feature rows with subject provenance and class labels."""

    features: np.ndarray  # (n_rows, feature_dim)
    subject_ids: tuple[str, ...]
    labels: tuple[str, ...]

    def __post_init__(self):
        X = frozen_array(self.features, 2, "features")
        subj = tuple(self.subject_ids)
        labs = tuple(self.labels)
        if len(subj) != X.shape[0] or len(labs) != X.shape[0]:
            raise ArgumentError("features, subject_ids, and labels must align")
        seen: dict[str, str] = {}
        for s, l in zip(subj, labs):
            if seen.setdefault(s, l) != l:
                raise ArgumentError(f"subject {s} carries conflicting labels")
        object.__setattr__(self, "features", X)
        object.__setattr__(self, "subject_ids", subj)
        object.__setattr__(self, "labels", labs)

    def subject_labels(self) -> dict[str, str]:
        return dict(zip(self.subject_ids, self.labels))


def ready_tasks(ds: CohortDataset) -> list[str]:
    """The tasks, sorted, whose two classes each hold at least two subjects."""
    counts = Counter(ds.subject_labels().values())
    return [t for t in sorted(TASKS) if min(counts[label] for label in TASKS[t]) >= 2]


@dataclass(frozen=True)
class CVReport:
    task: str
    model: str
    fold_aucs: tuple  # float per valid fold, None where skipped
    mean_auc: float
    std_auc: float  # population std over valid folds
    fold_assignments: dict[str, int]  # subject -> fold index
    skipped_folds: tuple[int, ...]


# ---------------------------------------------------------------------------
# Gaussian naive Bayes

@dataclass(frozen=True)
class GnbModel:
    priors: np.ndarray  # (2,)
    means: np.ndarray  # (2, d)
    variances: np.ndarray  # (2, d), floored


def gnb_fit(X: np.ndarray, y: np.ndarray) -> GnbModel:
    """Per-class Gaussians with variances floored at 1e-9 * max feature
    variance (tiny absolute floor when every feature is constant)."""
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y)
    if set(np.unique(y)) != {0, 1}:
        raise ArgumentError("gnb_fit requires both classes 0 and 1 present")
    global_var = X.var(axis=0, ddof=0)
    floor = max(1e-9 * float(global_var.max()), 1e-12)
    priors = np.empty(2)
    means = np.empty((2, X.shape[1]))
    variances = np.empty((2, X.shape[1]))
    for c in (0, 1):
        rows = X[y == c]
        priors[c] = len(rows) / len(X)
        means[c] = rows.mean(axis=0)
        variances[c] = np.maximum(rows.var(axis=0, ddof=0), floor)
    return GnbModel(priors, means, variances)


def gnb_score(m: GnbModel, X: np.ndarray) -> np.ndarray:
    """log p(class 1 | x) - log p(class 0 | x); monotone in the posterior."""
    X = np.atleast_2d(np.asarray(X, dtype=np.float64))
    ll = np.empty((2, X.shape[0]))
    for c in (0, 1):
        z = (X - m.means[c]) ** 2 / m.variances[c]
        ll[c] = np.log(m.priors[c]) - 0.5 * np.sum(
            np.log(2.0 * np.pi * m.variances[c]) + z, axis=1
        )
    return ll[1] - ll[0]


# ---------------------------------------------------------------------------
# linear SVM (exact dual solve by pairwise SMO)

# the dual solve stops once no pair violates the KKT conditions by more than
# this, in margin units (the spread of the bias the rows ask for)
_KKT_TOL = 1e-9


@dataclass(frozen=True)
class SvmModel:
    w: np.ndarray
    b: float
    C: float


def svm_objective(m: SvmModel, X: np.ndarray, y: np.ndarray) -> float:
    """(1/2)||w||^2 + C * sum hinge; y in {0,1}."""
    sgn = np.where(np.asarray(y) == 1, 1.0, -1.0)
    margins = sgn * (X @ m.w + m.b)
    return 0.5 * float(m.w @ m.w) + m.C * float(np.sum(np.maximum(0.0, 1.0 - margins)))


def svm_fit(X: np.ndarray, y: np.ndarray, C: float = 1.0, epochs: int = 200) -> SvmModel:
    """Minimize (1/2)||w||^2 + C sum_i hinge_i with an unregularized bias.

    The solve is on the dual: min (1/2) a'Qa - sum(a) over 0 <= a_i <= C with
    sum_i s_i a_i = 0, where s_i = +-1 is the class sign and
    Q_ij = s_i s_j x_i.x_j.  Each step moves the maximal-violating pair (i, j)
    to the exact minimum along the equality constraint, clipped to the box
    (pairwise SMO; Platt, 1998; Keerthi et al., 2001).  F_t = s_t - w.x_t,
    the bias row t asks for, is kept up to date from the Gram rows K[i] and
    K[j].  The solve stops when max F over the rows that may move up is
    within ``_KKT_TOL`` of min F over the rows that may move down, or after
    ``epochs * n`` pair updates.  Then w = sum_i s_i a_i x_i, and b is the
    mean F of the free support vectors (0 < a < C), or the midpoint of the
    two KKT bounds when none is free.  No randomness: ties go to the lowest
    row index.
    """
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y)
    if set(np.unique(y)) != {0, 1}:
        raise ArgumentError("svm_fit requires both classes 0 and 1 present")
    if C < 0:
        raise ArgumentError(f"C must be nonnegative, got {C}")
    n, d = X.shape
    if C == 0.0:
        return SvmModel(w=np.zeros(d), b=0.0, C=0.0)
    C = float(C)
    sgn = np.where(y == 1, 1.0, -1.0)
    K = X @ X.T
    alpha = np.zeros(n)
    F = sgn.copy()
    # 0 where s_t a_t may still grow (up) or shrink (low), -inf / +inf elsewhere
    up = np.where(sgn > 0, 0.0, -np.inf)
    low = np.where(sgn > 0, np.inf, 0.0)
    buf = np.empty(n)
    for _ in range(max(1, epochs) * n):
        i = int(np.add(F, up, out=buf).argmax())
        hi = buf[i]
        j = int(np.add(F, low, out=buf).argmin())
        gap = hi - buf[j]
        if gap < _KKT_TOL:
            break
        eta = max(K[i, i] + K[j, j] - 2.0 * K[i, j], 1e-12)
        room_i = C - alpha[i] if sgn[i] > 0 else alpha[i]
        room_j = alpha[j] if sgn[j] > 0 else C - alpha[j]
        step = min(gap / eta, room_i, room_j)
        alpha[i] += sgn[i] * step
        alpha[j] -= sgn[j] * step
        # a clipped step lands exactly on the bound
        if step == room_i:
            alpha[i] = C if sgn[i] > 0 else 0.0
        if step == room_j:
            alpha[j] = 0.0 if sgn[j] > 0 else C
        F -= step * (K[i] - K[j])
        for t in (i, j):
            grow = alpha[t] < C if sgn[t] > 0 else alpha[t] > 0.0
            shrink = alpha[t] > 0.0 if sgn[t] > 0 else alpha[t] < C
            up[t] = 0.0 if grow else -np.inf
            low[t] = 0.0 if shrink else np.inf
    w = X.T @ (sgn * alpha)
    F = sgn - X @ w
    free = (alpha > 0.0) & (alpha < C)
    if free.any():
        b = float(np.mean(F[free]))
    else:
        b = 0.5 * float(np.max(F + up) + np.min(F + low))
    return SvmModel(w=w, b=b, C=C)


def svm_score(m: SvmModel, X: np.ndarray) -> np.ndarray:
    X = np.atleast_2d(np.asarray(X, dtype=np.float64))
    return X @ m.w + m.b


# ---------------------------------------------------------------------------
# metrics and cross-validation

def auc(scores, labels) -> float:
    """Mann-Whitney AUC: P(score_pos > score_neg) with ties counting 1/2."""
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels)
    n_pos, n_neg = int(np.sum(labels == 1)), int(np.sum(labels == 0))
    if n_pos == 0 or n_neg == 0:
        raise ArgumentError("auc requires both classes present")
    # every (positive, negative) pair: the numerator is an exact multiple of 1/2
    pos, neg = scores[labels == 1, None], scores[None, labels == 0]
    wins = np.count_nonzero(pos > neg) + 0.5 * np.count_nonzero(pos == neg)
    return float(wins / (n_pos * n_neg))


def assign_folds(subjects_by_class: dict[str, list[str]], k: int, seed: int) -> dict[str, int]:
    """Stratified round-robin: shuffle each class's subjects, deal into folds."""
    rng = np.random.default_rng(np.random.SeedSequence([seed & (2**63 - 1), 5]))
    assignment: dict[str, int] = {}
    for label in sorted(subjects_by_class):
        subjects = sorted(subjects_by_class[label])
        perm = rng.permutation(len(subjects))
        for pos, idx in enumerate(perm):
            assignment[subjects[idx]] = pos % k
    return assignment


def cross_validate(
    ds: CohortDataset,
    task: str,
    model: str,
    k: int = 15,
    seed: int = 0,
    svm_c: float = 1.0,
    svm_epochs: int = 200,
) -> CVReport:
    """Subject-disjoint k-fold CV scored by subject-level AUC.

    The impaired class of the task scores positive.  Folds whose test split
    lacks a class are excluded from the mean/std and listed as skipped.
    """
    if task not in TASKS:
        raise ArgumentError(f"task must be one of {sorted(TASKS)}, got {task!r}")
    if model not in ("GNB", "SVM"):
        raise ArgumentError(f"model must be 'GNB' or 'SVM', got {model!r}")
    if task not in ready_tasks(ds):
        raise ArgumentError(f"task {task} needs at least 2 subjects per class")
    classes = TASKS[task]
    labels = np.array(ds.labels)
    rows = np.flatnonzero(np.isin(labels, classes))
    X = ds.features[rows]
    y = (labels[rows] == classes[1]).astype(int)
    # the subject table: sorted subjects, each row's subject, each subject's class
    subjects, row_subject = np.unique(np.array(ds.subject_ids)[rows], return_inverse=True)
    subject_y = np.zeros(len(subjects), dtype=int)
    subject_y[row_subject] = y
    assignment = assign_folds({classes[c]: subjects[subject_y == c].tolist() for c in (0, 1)},
                              k, seed)
    subject_fold = np.array([assignment[s] for s in subjects.tolist()])
    row_fold = subject_fold[row_subject]

    fold_aucs: list = []
    for f in range(k):
        test = row_fold == f
        train = ~test
        assert not np.isin(row_subject[train], row_subject[test]).any(), "subject leak across folds"
        test_subjects = np.flatnonzero(subject_fold == f)
        if len(set(subject_y[test_subjects])) < 2 or len(set(y[train])) < 2:
            fold_aucs.append(None)
            continue
        # standardize with the training rows' statistics
        mean, std = X[train].mean(axis=0), X[train].std(axis=0)
        std = np.where(std > 0, std, 1.0)
        Xtr, Xte = (X[train] - mean) / std, (X[test] - mean) / std
        if model == "GNB":
            scores = gnb_score(gnb_fit(Xtr, y[train]), Xte)
        else:
            scores = svm_score(svm_fit(Xtr, y[train], C=svm_c, epochs=svm_epochs), Xte)
        # each test subject scores the mean of its epochs' scores
        scored = row_subject[test]
        subject_scores = [np.mean(scores[scored == s]) for s in test_subjects]
        fold_aucs.append(auc(subject_scores, subject_y[test_subjects]))
    valid = [a for a in fold_aucs if a is not None]
    if not valid:
        raise ArgumentError("every fold was skipped; cohort too small for k")
    return CVReport(
        task=task,
        model=model,
        fold_aucs=tuple(fold_aucs),
        mean_auc=float(np.mean(valid)),
        std_auc=float(np.std(valid)),
        fold_assignments=assignment,
        skipped_folds=tuple(f for f, a in enumerate(fold_aucs) if a is None),
    )
