"""Tests of the benchmark itself, at toy sizes.

Run from the checkout root (they are not part of the package's test suite):

    python3 -m pytest -q perfbench
"""
from __future__ import annotations

import contextlib
import io
import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))
import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

# stages each workload runs; their times are printed, not gated (see BENCHMARK.json)
STAGES = {
    "readme-synth": ("diffit", "decompose", "project", "classify", "report"),
    "edf-cohort": ("preprocess", "decompose", "project", "classify"),
    "gn-large": ("decompose", "project"),
}


def bench(workload: str, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace), "--scale", "tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def table(stdout: str) -> dict[str, tuple[float, str]]:
    """The readable metric lines printed above the JSON line."""
    out = {}
    for line in stdout.splitlines()[:-1]:
        parts = line.split()
        if len(parts) == 3 and not line.startswith("#"):
            out[parts[0]] = (float(parts[1]), parts[2])
    return out


@pytest.mark.parametrize("workload", workloads.NAMES)
def test_untraced_run_emits_every_end_to_end_metric(workload):
    proc = bench(workload, 0)
    assert proc.returncode == 0, proc.stderr
    line = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True and line["failed"] == 0
    assert line["attempted"] == 2 * len(STAGES[workload])
    declared = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in line["metrics"].items()} == declared
    assert all(v["value"] > 0 for v in line["metrics"].values())
    shown = table(proc.stdout)
    for stage in STAGES[workload]:
        assert shown[f"stage.{stage}_s"][1] == "s"
    assert shown["failed_frac"] == (0.0, "ratio")
    if "classify" in STAGES[workload]:
        assert 0.5 < shown["cv_auc_mean"][0] <= 1.0
    assert "# machine" in proc.stdout


@pytest.mark.parametrize("workload", workloads.NAMES)
def test_traced_run_emits_every_per_layer_metric(workload):
    proc = bench(workload, 1)
    assert proc.returncode == 0, proc.stderr
    line = json.loads(proc.stdout.strip().splitlines()[-1])
    assert line["correct"] is True and line["failed"] == 0
    declared = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {k: v["unit"] for k, v in line["metrics"].items()} == declared
    m = {k: v["value"] for k, v in line["metrics"].items()}
    assert m["cli.import_s"] > 0 and m["trace.flow_s"] > 0
    assert m["cpd.gn_steps"] > 0 and m["projection.project_calls"] > 0
    if workload == "edf-cohort":
        # Welch runs in awake selection and again on the kept epochs
        assert m["preprocess.welch_per_kept_epoch"] > 1
        assert m["edf.read_calls"] > 0
        assert m["preprocess.recordings_skipped"] == sum(workloads.PLANTED_SKIPS.values())
    if workload == "gn-large":
        assert all(m[k] == 0 for k in m if k.startswith(("rank.", "edf.")))
    if workload == "readme-synth":
        assert m["rank.cpd_calls"] > 0 and m["cpd.als_sweeps"] > 0
        assert m["rank.diffit_self_s"] < m["rank.diffit_s"]
        assert m["cpd.als_self_s"] < m["cpd.als_s"]


def test_failed_output_check_raises_failed_frac(monkeypatch):
    # no decomposition reaches a fit of 1, so every decompose stage fails its check
    monkeypatch.setitem(workloads._SIZES["gn-large"]["tiny"], "fit_floor", 1.0)
    monkeypatch.chdir(ROOT)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        rc = run.main(["--workload", "gn-large", "--seed", "3", "--seconds", "1",
                       "--trace", "0", "--scale", "tiny"])
    assert rc == 0
    line = json.loads(out.getvalue().strip().splitlines()[-1])
    assert line["correct"] is False
    assert line["failed"] == line["attempted"] // 2  # decompose fails, project passes
    assert table(out.getvalue())["failed_frac"] == (0.5, "ratio")
    assert "FAILED decompose: fit" in out.getvalue()


def test_refuses_a_directory_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    t0 = time.perf_counter()
    proc = bench("readme-synth", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
    assert time.perf_counter() - t0 < 180


def test_tracer_self_time_and_restore():
    import importlib

    cpd = importlib.import_module("eegfactor.cpd")
    original = cpd.mttkrp
    with tracer.Tracer() as tr:
        assert cpd.mttkrp is not original
    assert cpd.mttkrp is original
    # a parent span [0, 10] with children [1, 3] and [4, 8]: self time 4
    tr.spans = [["p", -1, 0.0, 10.0], ["c", 0, 1.0, 3.0], ["c", 0, 4.0, 8.0]]
    rows = tr.table()
    assert rows["p"] == {"calls": 1, "total_s": 10.0, "self_s": 4.0}
    assert rows["c"] == {"calls": 2, "total_s": 6.0, "self_s": 6.0}
    assert tr.children_of("c", "p") == 2


def test_children_get_one_blas_thread_unless_set(monkeypatch):
    for var in run.THREAD_VARS:
        monkeypatch.delenv(var, raising=False)
    monkeypatch.setenv("OMP_NUM_THREADS", "2")
    env = run.child_env()
    assert env["OMP_NUM_THREADS"] == "2"
    assert all(env[v] == "1" for v in run.THREAD_VARS if v != "OMP_NUM_THREADS")
