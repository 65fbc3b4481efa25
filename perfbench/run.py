"""The eegfactor benchmark: one workload, one seed, one JSON result line.

Run from the root of a checkout (the directory holding src/eegfactor):

    python3 perfbench/run.py --workload readme-synth --seed 1 --seconds 44 --trace 0

--trace 0 builds the workload's fixtures three times (set-up time is their
median), then runs the workload's `eegfactor` CLI stages as child
processes, one after another, repeating the flow while --seconds allows (at
least twice).  A single client, no concurrency, one BLAS thread unless the
environment names another count.  It reports the end-to-end metrics: medians
over repetitions.

--trace 1 builds the fixtures once, times a fresh interpreter importing
eegfactor.cli, and runs the flow in one process (perfbench/traced.py) with
spans around each module's public functions.  It reports the per-layer
metrics.

Every stage's outputs are checked (exit code, planted facts, and byte
identity with the first repetition).  The last stdout line is
{"correct", "attempted", "failed", "metrics"}, where attempted and failed
count stages; the lines above it are a readable table and the machine record.
The full result also goes to .bench_work/results/.

--scale tiny runs the same flows at toy sizes (the benchmark's own tests);
--scale reference runs readme-synth once at the README defaults.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import workloads  # noqa: E402

HERE = Path(__file__).resolve().parent
HARD_LIMIT_S = 170.0  # a benchmark run must end within 180 s
REFERENCE_LIMIT_S = 3600.0  # the README-default flow takes minutes
SETUPS = 3
MIN_REPS = 2
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


def child_env() -> dict:
    env = dict(os.environ)
    # One BLAS thread unless the caller set one: on a small shared box a
    # second spinning BLAS thread barely speeds the stages up and makes
    # their times follow the neighbours' load.
    for var in THREAD_VARS:
        env.setdefault(var, "1")
    src = str(workloads.SRC.resolve())
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def run_child(argv: list[str], log: Path, timeout: float) -> tuple[float, int, float]:
    """Run one child to completion: (wall s, exit code, max RSS MB).

    stdout and stderr go to ``log``.out / ``log``.err.  A child still running
    after ``timeout`` seconds is killed; the child is always reaped.
    """
    with open(log.with_suffix(".out"), "wb") as out, open(log.with_suffix(".err"), "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, env=child_env())
        timer = threading.Timer(max(timeout, 1.0), proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, proc.returncode, usage.ru_maxrss / 1024.0  # ru_maxrss is in KiB


def last_json(path: Path) -> dict:
    lines = path.read_text(encoding="utf-8").strip().splitlines()
    return json.loads(lines[-1])


# ---------------------------------------------------------------------------
# machine record

def machine_record() -> dict:
    import numpy as np
    import scipy

    deps = np.show_config(mode="dicts").get("Build Dependencies", {})
    # name, version and build configuration; install paths say nothing useful
    blas = {k: {f: v for f, v in deps.get(k, {}).items() if "directory" not in f}
            for k in ("blas", "lapack")}
    commit = None
    try:
        # never look above the checkout for a repository
        env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(Path.cwd().parent))
        commit = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True,
                                env=env, timeout=10, check=True).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "thread_env": {v: child_env().get(v) for v in THREAD_VARS},
        "platform": platform.platform(),
        "git_commit": commit,
    }


# ---------------------------------------------------------------------------
# the two kinds of run

def setup(wl, times: int, logs: Path, deadline: float) -> list[float]:
    argv = [sys.executable, str(HERE / "fixtures.py"), "--workload", wl.name,
            "--seed", str(wl.seed), "--scale", wl.scale, "--times", str(times)]
    _, rc, _ = run_child(argv, logs / "setup", deadline - time.perf_counter())
    if rc != 0:
        raise SystemExit(f"set-up failed with exit code {rc}; see {logs / 'setup.err'}")
    res = last_json(logs / "setup.out")
    if not res["identical"]:
        raise SystemExit("set-up is not deterministic: fixture builds differ")
    return res["times"]


def run_rep(wl, rep: int, first: list, logs: Path, deadline: float) -> dict:
    """One repetition of the flow, each stage a child process."""
    wl.reset_work()
    walls, rss, failures = {}, [], []
    for i, stage in enumerate(wl.stages):
        log = logs / f"rep{rep}-{stage.name}"
        argv = [sys.executable, "-m", "eegfactor", *wl.stage_argv(stage)]
        wall, rc, maxrss = run_child(argv, log, deadline - time.perf_counter())
        walls[stage.name] = wall
        rss.append(maxrss)
        failures.append(workloads.stage_failures(
            wl, i, rc, log.with_suffix(".err").read_text(), first))
        if rc != 0:
            break
    return {"walls": walls, "peak_rss_mb": max(rss), "failures": failures}


def untraced(wl, args, start: float, logs: Path) -> dict:
    deadline = start + args.seconds
    hard = start + (REFERENCE_LIMIT_S if wl.scale == "reference" else HARD_LIMIT_S)
    setup_times = setup(wl, 1 if wl.scale == "reference" else SETUPS, logs, hard)
    min_reps = 1 if wl.scale == "reference" else MIN_REPS
    reps, first, longest = [], [], 0.0
    while len(reps) < min_reps or time.perf_counter() + longest <= deadline:
        t0 = time.perf_counter()
        reps.append(run_rep(wl, len(reps), first, logs, hard))
        longest = max(longest, time.perf_counter() - t0)
        if wl.scale == "reference":
            break

    stage_names = [s.name for s in wl.stages]
    flows = [sum(r["walls"].values()) for r in reps]
    metrics = {"flow_s": (statistics.median(flows), "s"),
               "setup_s": (statistics.median(setup_times), "s")}
    for name in stage_names:
        vals = [r["walls"][name] for r in reps if name in r["walls"]]
        if vals:
            metrics[f"stage.{name}_s"] = (statistics.median(vals), "s")
    metrics["peak_rss_mb"] = (statistics.median(r["peak_rss_mb"] for r in reps), "MB")
    rel = workloads.decompose_rel_error(wl.work)
    if rel is not None:
        metrics["decompose_rel_error"] = (rel, "ratio")
    auc = workloads.cv_auc_mean(wl.work)
    if auc is not None:
        metrics["cv_auc_mean"] = (auc, "ratio")
    stage_fails = [f for r in reps for f in r["failures"]]
    attempted = len(stage_fails)
    failed = sum(1 for f in stage_fails if f)
    metrics["failed_frac"] = (failed / attempted, "ratio")
    return {
        "attempted": attempted,
        "failed": failed,
        "failures": [m for f in stage_fails for m in f],
        "metrics": metrics,
        "samples": {"reps": len(reps), "setups": len(setup_times), "flow_s": flows,
                    "setup_s": setup_times, "stages": [r["walls"] for r in reps]},
    }


def traced(wl, args, start: float, logs: Path) -> dict:
    hard = start + HARD_LIMIT_S
    setup(wl, 1, logs, hard)
    probe = ("import time; t0 = time.perf_counter(); import eegfactor.cli; "
             "print(time.perf_counter() - t0)")
    imports = []
    for k in range(3):
        _, rc, _ = run_child([sys.executable, "-c", probe], logs / f"import{k}", hard - time.perf_counter())
        if rc != 0:
            raise SystemExit(f"importing eegfactor.cli failed; see {logs / f'import{k}.err'}")
        imports.append(float((logs / f"import{k}.out").read_text()))
    budget = max(1.0, start + args.seconds - time.perf_counter())
    argv = [sys.executable, str(HERE / "traced.py"), "--workload", wl.name, "--seed", str(wl.seed),
            "--scale", wl.scale, "--budget", f"{budget:.3f}"]
    _, rc, _ = run_child(argv, logs / "traced", hard - time.perf_counter())
    if rc != 0:
        raise SystemExit(f"traced run failed with exit code {rc}; see {logs / 'traced.err'}")
    res = last_json(logs / "traced.out")
    metrics = {"cli.import_s": (statistics.median(imports), "s")}
    metrics.update((k, (v["value"], v["unit"])) for k, v in res["metrics"].items())
    return {
        "attempted": res["attempted"],
        "failed": res["failed"],
        "failures": res["failures"],
        "metrics": metrics,
        "samples": {"flows": res["flows"], "cli.import_s": imports},
        "spans": res["spans"],
    }


# ---------------------------------------------------------------------------

def declared_metrics(trace: bool) -> list[str]:
    with open(HERE.parent / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True, choices=workloads.NAMES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True, help="measurement time of this run")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--scale", default="full", choices=workloads.SCALES)
    args = p.parse_args(argv)

    if not (workloads.SRC / "eegfactor" / "__init__.py").is_file():
        print(f"error: no {workloads.SRC / 'eegfactor'} here; run from the root of an "
              "eegfactor checkout", file=sys.stderr)
        return 2
    try:
        wl = workloads.make(args.workload, args.seed, args.scale)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    start = time.perf_counter()
    shutil.rmtree(wl.base, ignore_errors=True)
    wl.write_config()
    logs = wl.base / "logs"
    logs.mkdir(parents=True)
    result = (traced if args.trace else untraced)(wl, args, start, logs)
    machine = machine_record()

    metrics = result["metrics"]
    width = max(len(k) for k in metrics)
    print(f"# {wl.name} seed={wl.seed} scale={wl.scale} trace={args.trace} "
          f"samples={json.dumps(result['samples'])}")
    for k, (v, unit) in metrics.items():
        print(f"{k:<{width}}  {v:>14.6g}  {unit}")
    for name, row in result.get("spans", {}).get("table", {}).items():
        print(f"# span {name:<24} calls={row['calls']:<7} total_s={row['total_s']:.4f} "
              f"self_s={row['self_s']:.4f}")
    for f in result["failures"]:
        print(f"FAILED {f}")
    print("# machine " + json.dumps(machine, sort_keys=True))

    results = workloads.ROOT / "results"
    results.mkdir(parents=True, exist_ok=True)
    doc = dict(result, workload=wl.name, seed=wl.seed, scale=wl.scale, trace=args.trace,
               machine=machine, metrics={k: {"value": v, "unit": u} for k, (v, u) in metrics.items()})
    (results / f"{wl.name}-{wl.scale}-seed{wl.seed}-trace{args.trace}.json").write_text(
        json.dumps(doc, indent=1, sort_keys=True) + "\n")
    # the fixtures and work dir can be large (EDFs); results and logs stay
    shutil.rmtree(wl.work, ignore_errors=True)
    shutil.rmtree(wl.fixture, ignore_errors=True)

    names = declared_metrics(bool(args.trace))
    missing = [n for n in names if n not in metrics]
    line = {
        "correct": result["failed"] == 0 and not missing,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {n: {"value": metrics[n][0], "unit": metrics[n][1]} for n in names if n in metrics},
    }
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
