"""In-memory spans around the public functions of each eegfactor module.

The package binds names with ``from .x import f``, so each function is
patched where its caller looks it up (``eegfactor.cli.cpd_gn``,
``eegfactor.cpd.mttkrp``, ...).  Nothing under src/ changes: the patches are
installed on entering a ``Tracer`` and removed on leaving it.

A span is (name, parent span, start, end); spans of one flow share a flow id.
Counts that only a call's arguments or result reveal (warm refits, epochs
kept, bytes read, folds skipped, recordings skipped) are taken at the same
boundaries.
"""
from __future__ import annotations

import importlib
import os
import statistics
import time
from collections import Counter, defaultdict


def _warm(tracer, args, kwargs, result):
    if kwargs.get("init", args[2] if len(args) > 2 else None) is not None:
        tracer.counts["rank.warm_refits"] += 1


def _kept(tracer, args, kwargs, result):
    tracer.counts["preprocess.epochs_kept"] += len(result)


def _read(tracer, args, kwargs, result):
    tracer.counts["edf.read_bytes"] += os.path.getsize(args[0])


def _folds(tracer, args, kwargs, result):
    tracer.counts["classify.folds_skipped"] += len(result.skipped_folds)


def _skipped(tracer, exc):
    from eegfactor.errors import IngestError, ParseError

    # the errors on which the CLI skips a recording and goes on
    if isinstance(exc, (IngestError, ParseError)):
        tracer.counts["preprocess.recordings_skipped"] += 1


# (module where the caller looks the name up, attribute, span, result hook, error hook)
PATCHES = (
    ("eegfactor.cli", "run_preprocess", "cli.preprocess", None, None),
    ("eegfactor.cli", "run_diffit", "cli.diffit", None, None),
    ("eegfactor.cli", "run_decompose", "cli.decompose", None, None),
    ("eegfactor.cli", "run_project", "cli.project", None, None),
    ("eegfactor.cli", "run_classify", "cli.classify", None, None),
    ("eegfactor.cli", "run_report", "cli.report", None, None),
    ("eegfactor.cli", "diffit", "rank.diffit", None, None),
    ("eegfactor.rank", "cpd_als", "cpd.als", _warm, None),
    ("eegfactor.cli", "cpd_als", "cpd.als", None, None),
    ("eegfactor.cli", "cpd_gn", "cpd.gn", None, None),
    ("eegfactor.cpd", "mttkrp", "tensor.mttkrp", None, None),
    ("eegfactor.cli", "load_tensor", "tensor.load", None, None),
    ("eegfactor.cli", "save_tensor", "tensor.save", None, None),
    ("eegfactor.cli", "read_edf_file", "edf.read", _read, None),
    ("eegfactor.cli", "_preprocess_recording", "preprocess.recording", None, _skipped),
    ("eegfactor.cli", "bandpass", "preprocess.bandpass", None, None),
    ("eegfactor.cli", "epoch_and_reject", "preprocess.epoch_reject", None, None),
    ("eegfactor.cli", "select_awake_epochs", "preprocess.select_awake", _kept, None),
    ("eegfactor.cli", "welch", "preprocess.welch", None, None),
    ("eegfactor.preprocess", "welch", "preprocess.welch", None, None),
    ("eegfactor.cli", "pib", "preprocess.pib", None, None),
    ("eegfactor.cli", "build_basis", "projection.build_basis", None, None),
    ("eegfactor.cli", "project", "projection.project", None, None),
    ("eegfactor.cli", "cross_validate", "classify.cv", _folds, None),
    ("eegfactor.classify", "svm_fit", "classify.svm_fit", None, None),
    ("eegfactor.classify", "gnb_fit", "classify.gnb_fit", None, None),
    ("eegfactor.classify", "auc", "classify.auc", None, None),
)


class Tracer:
    """Context manager that installs the patches and records spans."""

    def __init__(self):
        self.spans: list[list] = []  # [name, parent index or -1, start, end]
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._saved: list = []

    def __enter__(self):
        for module, attr, span, on_result, on_error in PATCHES:
            mod = importlib.import_module(module)
            original = getattr(mod, attr)
            self._saved.append((mod, attr, original))
            setattr(mod, attr, self._wrap(original, span, on_result, on_error))
        return self

    def __exit__(self, *exc):
        for mod, attr, original in reversed(self._saved):
            setattr(mod, attr, original)
        self._saved.clear()
        return False

    def _wrap(self, fn, name, on_result, on_error):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            rec = [name, stack[-1] if stack else -1, time.perf_counter(), 0.0]
            stack.append(len(spans))
            spans.append(rec)
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                if on_error is not None:
                    on_error(self, exc)
                raise
            finally:
                rec[3] = time.perf_counter()
                stack.pop()
            if on_result is not None:
                on_result(self, args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    # -----------------------------------------------------------------
    # summaries

    def table(self) -> dict[str, dict]:
        """Per span name: calls, total time, and self time (total minus the
        time covered by direct children)."""
        child_time = [0.0] * len(self.spans)
        for name, parent, start, end in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out: dict[str, dict] = defaultdict(lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        for i, (name, parent, start, end) in enumerate(self.spans):
            row = out[name]
            row["calls"] += 1
            row["total_s"] += end - start
            row["self_s"] += end - start - child_time[i]
        return dict(sorted(out.items()))

    def children_of(self, child: str, parent: str) -> int:
        """Number of ``child`` spans whose direct parent is a ``parent`` span."""
        return sum(
            1 for name, p, _, _ in self.spans
            if name == child and p >= 0 and self.spans[p][0] == parent
        )

    def layer_metrics(self) -> dict[str, tuple[float, str]]:
        """The per-layer metrics, (value, unit); zero where a layer did not run."""
        t = self.table()

        def total(name):
            return t.get(name, {}).get("total_s", 0.0)

        def self_s(name):
            return t.get(name, {}).get("self_s", 0.0)

        def calls(name):
            return t.get(name, {}).get("calls", 0)

        c = self.counts
        gn_steps = self.children_of("tensor.mttkrp", "cpd.gn") / 3.0
        kept = c["preprocess.epochs_kept"]
        return {
            "rank.diffit_s": (total("rank.diffit"), "s"),
            "rank.diffit_self_s": (self_s("rank.diffit"), "s"),
            "rank.cpd_calls": (self.children_of("cpd.als", "rank.diffit"), "count"),
            "rank.warm_refits": (c["rank.warm_refits"], "count"),
            "cpd.als_s": (total("cpd.als"), "s"),
            "cpd.als_self_s": (self_s("cpd.als"), "s"),
            "cpd.als_calls": (calls("cpd.als"), "count"),
            "cpd.als_sweeps": (self.children_of("tensor.mttkrp", "cpd.als") / 3.0, "count"),
            "cpd.gn_s": (total("cpd.gn"), "s"),
            "cpd.gn_self_s": (self_s("cpd.gn"), "s"),
            "cpd.gn_steps": (gn_steps, "count"),
            "cpd.gn_s_per_step": (total("cpd.gn") / gn_steps if gn_steps else 0.0, "s"),
            "tensor.mttkrp_s": (total("tensor.mttkrp"), "s"),
            "tensor.mttkrp_calls": (calls("tensor.mttkrp"), "count"),
            "tensor.load_s": (total("tensor.load"), "s"),
            "tensor.save_s": (total("tensor.save"), "s"),
            "edf.read_s": (total("edf.read"), "s"),
            "edf.read_calls": (calls("edf.read"), "count"),
            "edf.read_mb": (c["edf.read_bytes"] / 1e6, "MB"),
            "preprocess.bandpass_s": (total("preprocess.bandpass"), "s"),
            "preprocess.epoch_reject_s": (total("preprocess.epoch_reject"), "s"),
            "preprocess.select_awake_s": (total("preprocess.select_awake"), "s"),
            "preprocess.welch_s": (total("preprocess.welch"), "s"),
            "preprocess.welch_calls": (calls("preprocess.welch"), "count"),
            "preprocess.epochs_kept": (kept, "count"),
            "preprocess.welch_per_kept_epoch": (
                calls("preprocess.welch") / kept if kept else 0.0, "ratio"),
            "preprocess.pib_s": (total("preprocess.pib"), "s"),
            "preprocess.pib_calls": (calls("preprocess.pib"), "count"),
            "preprocess.recordings_skipped": (c["preprocess.recordings_skipped"], "count"),
            "projection.build_basis_s": (total("projection.build_basis"), "s"),
            "projection.project_s": (total("projection.project"), "s"),
            "projection.project_calls": (calls("projection.project"), "count"),
            "classify.cv_s": (total("classify.cv"), "s"),
            "classify.svm_fit_s": (total("classify.svm_fit"), "s"),
            "classify.svm_fit_calls": (calls("classify.svm_fit"), "count"),
            "classify.gnb_fit_s": (total("classify.gnb_fit"), "s"),
            "classify.auc_s": (total("classify.auc"), "s"),
            "classify.folds_skipped": (c["classify.folds_skipped"], "count"),
        }


def median_metrics(runs: list[dict]) -> dict[str, tuple[float, str]]:
    """Per-metric median over several flows' layer metrics."""
    return {
        k: (statistics.median(r[k][0] for r in runs), runs[0][k][1]) for k in runs[0]
    }
