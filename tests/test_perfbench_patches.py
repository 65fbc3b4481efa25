"""The benchmark's tracer patches names where the pipeline looks them up.

A refactor that unbinds one of those names breaks the traced benchmark runs,
whose own tests are slow and live outside this suite; this check catches it
here.
"""
import importlib
import importlib.util
from pathlib import Path

import numpy as np
import pytest

from eegfactor import CpdOptions, SynthSpec, make_recording, make_tensor, read_manifest, write_edf

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer


def test_every_traced_name_resolves():
    tracer = load_tracer()
    missing = [
        f"{module}.{attr}"
        for module, attr, *_ in tracer.PATCHES
        if not callable(getattr(importlib.import_module(module), attr, None))
    ]
    assert tracer.PATCHES and missing == []


def test_traced_flow_sees_every_stage(tmp_path):
    # the tracer patches eegfactor.cli.run_<stage>: the CLI must look each
    # stage up by that name when it runs it, or traced runs lose their
    # cli.* spans while every patched name still resolves
    cli = importlib.import_module("eegfactor.cli")
    config = tmp_path / "config.yaml"
    config.write_text("cpd:\n  max_iters: 10\ndiffit:\n  r_max: 3\n  n_runs: 1\n"
                      "classify:\n  k_folds: 3\n  svm_epochs: 20\n")
    cohort, edf = tmp_path / "cohort", tmp_path / "edf"
    flow = [
        (cohort, ["synth", "--mode", "cohort", "--dims", "12", "19", "89",
                  "--subjects-per-class", "CN=3,MCI=3,AD=3", "--epochs-per-subject", "2"]),
        (cohort, ["diffit"]),
        (cohort, ["decompose"]),
        (cohort, ["project", "--tensor", str(cohort / "cohort_tensor.bin"),
                  "--provenance", str(cohort / "cohort_provenance.csv")]),
        (cohort, ["classify"]),
        (cohort, ["report"]),
        (edf, ["synth", "--mode", "edf", "--n-recordings", "1"]),
        (edf, ["preprocess", "--manifest", str(edf / "manifest.csv")]),
    ]
    with load_tracer().Tracer() as tr:
        codes = [cli.main(["--config", str(config), "--workdir", str(wd), *argv])
                 for wd, argv in flow]
    assert codes == [0] * len(flow)
    stages = sorted(name for name, *_ in tr.spans if name.startswith("cli."))
    assert stages == sorted(f"cli.{stage}" for stage in (
        "diffit", "decompose", "project", "classify", "report", "preprocess"))


@pytest.mark.parametrize("solver,span", [("cpd_als", "cpd.als"), ("cpd_gn", "cpd.gn")])
def test_solvers_reach_the_traced_mttkrp(solver, span):
    # the traced benchmark counts ALS sweeps and GN steps as the MTTKRP spans
    # under each solver's span, and asserts they are there: the solvers must
    # call mttkrp through the eegfactor.cpd name that the tracer patches
    cli = importlib.import_module("eegfactor.cli")
    t, _ = make_tensor(SynthSpec(dims=(10, 19, 89), rank=2, snr_db=20.0, seed=5))
    with load_tracer().Tracer() as tr:
        getattr(cli, solver)(t, CpdOptions(rank=2, n_starts=3, max_iters=5, seed=1))
    assert tr.children_of("tensor.mttkrp", span) > 0
    row = tr.table()[span]
    assert row["self_s"] < row["total_s"]


def test_classify_reaches_the_traced_models(tmp_path):
    # the traced benchmark times the SVM and GNB fits and the AUC under each
    # cross-validation span: cross_validate must call them through the
    # eegfactor.classify names that the tracer patches
    cli = importlib.import_module("eegfactor.cli")
    rng = np.random.default_rng(2)
    lines, labels = ["subject_id,recording_id,epoch_index,w1,w2"], {}
    for i, label in enumerate(("CN", "MCI", "AD") * 3):
        labels[f"s{i}"] = label
        lines += [f"s{i},s{i}_r0,{e},{rng.normal()!r},{rng.normal()!r}" for e in range(2)]
    (tmp_path / "weights.csv").write_text("\n".join(lines) + "\n")
    cfg = cli.load_config()
    cfg["classify"].update(k_folds=3, svm_epochs=20)
    with load_tracer().Tracer() as tr:
        reports = cli._classify_feature_set("TD", tmp_path / "weights.csv", labels, cfg)
    assert len(reports) == tr.table()["classify.cv"]["calls"] == 4
    for span in ("classify.svm_fit", "classify.gnb_fit", "classify.auc"):
        assert tr.children_of(span, "classify.cv") > 0, span


def test_selection_welches_once_per_recording(tmp_path):
    # the benchmark's Welch counts: one stacked call scores a recording's
    # candidate epochs, and each picked epoch keeps its own call, so there
    # are more Welch spans than kept epochs
    cli = importlib.import_module("eegfactor.cli")
    lines = ["path,subject_id,label"]
    for i in range(2):
        rec = make_recording(seed=i, duration=60.0)
        (tmp_path / f"rec_{i}.edf").write_bytes(write_edf(rec))
        lines.append(f"rec_{i}.edf,s{i},")
    (tmp_path / "manifest.csv").write_text("\n".join(lines) + "\n")
    entries = read_manifest(tmp_path / "manifest.csv")
    with load_tracer().Tracer() as tr:
        cli._preprocess_entries(entries, cli.load_config())
    selects = [i for i, (name, *_) in enumerate(tr.spans) if name == "preprocess.select_awake"]
    assert len(selects) == 2
    for i in selects:
        assert [name for name, parent, *_ in tr.spans if parent == i] == ["preprocess.welch"]
    welch_calls = tr.table()["preprocess.welch"]["calls"]
    assert welch_calls > tr.counts["preprocess.epochs_kept"] > 0
