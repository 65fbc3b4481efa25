"""The benchmark's tracer patches names where the pipeline looks them up.

A refactor that unbinds one of those names breaks the traced benchmark runs,
whose own tests are slow and live outside this suite; this check catches it
here.
"""
import importlib
import importlib.util
from pathlib import Path

import pytest

from eegfactor import CpdOptions, SynthSpec, make_tensor

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
