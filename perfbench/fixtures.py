"""Build a workload's fixture set several times and time each build.

Run from the checkout root:

    python3 perfbench/fixtures.py --workload NAME --seed N [--scale full] [--times 3]

Each build goes into the same fixture directory (the path is recorded in the
fixture's config stamp), so the builds can be byte-compared.  The last line of
stdout is a JSON object with the build times and whether the builds matched.
"""
from __future__ import annotations

import argparse
import contextlib
import json
import shutil
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import workloads  # noqa: E402

sys.path.insert(0, str(workloads.SRC.resolve()))


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__)
    p.add_argument("--workload", required=True, choices=workloads.NAMES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--scale", default="full", choices=workloads.SCALES)
    p.add_argument("--times", type=int, default=3)
    args = p.parse_args(argv)
    wl = workloads.make(args.workload, args.seed, args.scale)
    times, first, identical = [], None, True
    for _ in range(args.times):
        shutil.rmtree(wl.fixture, ignore_errors=True)
        with contextlib.redirect_stdout(sys.stderr):
            t0 = time.perf_counter()
            workloads.build_fixture(wl, wl.fixture)
            times.append(time.perf_counter() - t0)
        snap = workloads.snapshot(wl.fixture)
        if first is None:
            first = snap
        identical = identical and snap == first
    print(json.dumps({"times": times, "identical": identical}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
