"""The traced run: a workload's flow in one process, with and without spans.

Run from the checkout root after the fixture is built (run.py does both):

    python3 perfbench/traced.py --workload NAME --seed N [--scale full] --budget SECONDS

It calls ``eegfactor.cli.main`` stage by stage, alternating untraced and
traced flows in pairs while the budget lasts (at least one pair).  The
per-layer metrics are medians over the traced flows; the tracing overhead is
the median traced flow time minus the median untraced one.  Spans go to
``.bench_work/results/`` as JSON lines, outside the work dir.  The last line
of stdout is a JSON object with the metrics and the check outcome.
"""
from __future__ import annotations

import argparse
import contextlib
import io
import json
import statistics
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402

sys.path.insert(0, str(workloads.SRC.resolve()))

from eegfactor import cli  # noqa: E402


def run_flow(wl: workloads.Workload, first: list) -> dict:
    """One in-process flow, checked stage by stage against ``first``."""
    wl.reset_work()
    elapsed, failed, failures = 0.0, 0, []
    for i, stage in enumerate(wl.stages):
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            t0 = time.perf_counter()
            rc = cli.main(wl.stage_argv(stage))
            elapsed += time.perf_counter() - t0
        fails = workloads.stage_failures(wl, i, rc, err.getvalue(), first)
        failed += bool(fails)
        failures += fails
        if rc != 0:
            break
    return {"flow_s": elapsed, "attempted": i + 1, "failed": failed, "failures": failures}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__)
    p.add_argument("--workload", required=True, choices=workloads.NAMES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--scale", default="full", choices=workloads.SCALES)
    p.add_argument("--budget", type=float, required=True, help="seconds for all flows")
    args = p.parse_args(argv)
    wl = workloads.make(args.workload, args.seed, args.scale)
    deadline = time.perf_counter() + args.budget

    first: list = []
    plain, traced, tracers = [], [], []
    attempted, failed, failures = 0, 0, []
    pair = 0
    while True:
        t_pair = time.perf_counter()
        # alternate which side runs first, so warm-up favours neither
        for with_spans in ((False, True) if pair % 2 == 0 else (True, False)):
            if with_spans:
                with tracing.Tracer() as tr:
                    flow = run_flow(wl, first)
                traced.append(flow["flow_s"])
                tracers.append(tr)
            else:
                flow = run_flow(wl, first)
                plain.append(flow["flow_s"])
            attempted += flow["attempted"]
            failed += flow["failed"]
            failures += flow["failures"]
        pair += 1
        if time.perf_counter() + (time.perf_counter() - t_pair) > deadline:
            break

    metrics = tracing.median_metrics([tr.layer_metrics() for tr in tracers])
    work_bytes = sum(f.stat().st_size for f in wl.work.rglob("*") if f.is_file())
    metrics["cli.artifact_mb"] = (work_bytes / 1e6, "MB")
    metrics["trace.flow_s"] = (statistics.median(traced), "s")
    metrics["trace.untraced_flow_s"] = (statistics.median(plain), "s")
    metrics["trace.overhead_s"] = (metrics["trace.flow_s"][0] - metrics["trace.untraced_flow_s"][0], "s")

    results = workloads.ROOT / "results"
    results.mkdir(parents=True, exist_ok=True)
    spans_path = results / f"spans-{wl.name}-seed{wl.seed}.jsonl"
    with open(spans_path, "w", encoding="utf-8") as fh:
        for flow_id, tr in enumerate(tracers):
            t0 = tr.spans[0][2] if tr.spans else 0.0
            for i, (name, parent, start, end) in enumerate(tr.spans):
                fh.write(json.dumps({"flow": flow_id, "id": i, "parent": parent, "name": name,
                                     "start_s": start - t0, "end_s": end - t0}) + "\n")
    print(json.dumps({
        "attempted": attempted,
        "failed": failed,
        "failures": failures,
        "flows": {"untraced": len(plain), "traced": len(traced)},
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "spans": {"file": str(spans_path), "table": tracers[-1].table()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
