"""Workload definitions shared by run.py and its child processes.

A workload is a seeded fixture set-up plus a fixed sequence of `eegfactor`
CLI stages run over one work directory.  Each stage has output checks; a
stage fails when it exits non-zero or one of its checks fails.

This module imports only the standard library at import time, so the run.py
process never imports the package under test.  Fixture builders
import `eegfactor` lazily and run in a child process (see fixtures.py).
"""
from __future__ import annotations

import csv
import hashlib
import json
import os
import shutil
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(".bench_work")  # relative to the checkout root, which is the cwd
SRC = Path("src")
NAMES = ("readme-synth", "edf-cohort", "gn-large")
# full: the benchmark; tiny: the benchmark's own tests; reference: the README
# flow at its defaults (readme-synth only), run once to compare with the
# published baseline
SCALES = ("full", "tiny", "reference")


@dataclass(frozen=True)
class Stage:
    name: str  # the CLI subcommand, also the metric suffix stage.<name>_s
    args: tuple[str, ...]  # arguments after the subcommand


@dataclass
class Workload:
    name: str
    scale: str
    seed: int
    config: dict  # written to config.yaml, passed to every stage as --config
    stages: tuple[Stage, ...]
    sizes: dict = field(default_factory=dict)  # fixture sizes and check floors

    @property
    def base(self) -> Path:
        return ROOT / self.name

    @property
    def fixture(self) -> Path:
        return self.base / "fixture"

    @property
    def work(self) -> Path:
        return self.base / "work"

    @property
    def config_path(self) -> Path:
        return self.base / "config.yaml"

    def stage_argv(self, stage: Stage) -> list[str]:
        """Arguments for `eegfactor` (equally `cli.main`) running one stage."""
        return ["--config", str(self.config_path), "--workdir", str(self.work),
                stage.name, *stage.args]

    def write_config(self):
        self.base.mkdir(parents=True, exist_ok=True)
        # JSON is a subset of YAML, so the CLI's YAML loader reads this as is
        self.config_path.write_text(json.dumps(self.config, sort_keys=True) + "\n")

    def reset_work(self):
        """Fresh work dir holding the fixture files the flow starts from."""
        shutil.rmtree(self.work, ignore_errors=True)
        if self.name == "edf-cohort":
            # the EDFs stay in the fixture dir; manifests point there
            self.work.mkdir(parents=True)
        else:
            # the README flow runs every stage in the directory synth wrote
            shutil.copytree(self.fixture, self.work)


# ---------------------------------------------------------------------------
# sizes

# Each full-scale repetition is sized to finish in under 17 s on a 2-core
# box, so that set-up and two repetitions fit a 44 s run (three for
# readme-synth and gn-large when the box is not slowed).  Iteration caps
# make the solver work of a repetition nearly independent of the seed: the
# over-factored fits swamp, and an uncapped swamp ends at a seed-dependent
# point.
_SIZES = {
    "readme-synth": {
        "full": dict(E=40, subjects="CN=6,MCI=6,AD=6", n_runs=2, max_iters=20,
                     auc_floor=0.9),
        "tiny": dict(E=24, subjects="CN=4,MCI=4,AD=4", n_runs=2, max_iters=20,
                     auc_floor=0.75),
        "reference": dict(E=200, subjects="CN=24,MCI=31,AD=50", n_runs=30, max_iters=500,
                          auc_floor=0.9),
    },
    "edf-cohort": {
        "full": dict(n_population=6, per_class=4, duration=300.0, max_iters=15),
        "tiny": dict(n_population=3, per_class=2, duration=60.0, max_iters=10),
    },
    "gn-large": {
        # a cohort of 4 epochs per subject, as many epochs as the population
        "full": dict(E=1000, subjects="CN=84,MCI=83,AD=83", rank=5, max_iters=8, n_starts=10,
                     fit_floor=0.985),
        "tiny": dict(E=400, subjects="CN=34,MCI=33,AD=33", rank=5, max_iters=10,
                     fit_floor=0.95),
    },
}


def make(name: str, seed: int, scale: str = "full") -> Workload:
    if name not in NAMES:
        raise ValueError(f"unknown workload {name!r}; choose from {', '.join(NAMES)}")
    if scale not in _SIZES[name]:
        raise ValueError(f"workload {name} has no scale {scale!r}")
    sz = dict(_SIZES[name][scale])
    base = ROOT / name
    work = base / "work"
    config = {"cpd": {"max_iters": sz["max_iters"]}}
    if "n_starts" in sz:
        config["cpd"]["n_starts"] = sz["n_starts"]
    if scale == "tiny":
        config["classify"] = {"svm_epochs": 20}
    if name == "readme-synth":
        config["diffit"] = {"n_runs": sz["n_runs"]}
        stages = (
            Stage("diffit", ()),
            Stage("decompose", ()),
            Stage("project", ("--tensor", str(work / "cohort_tensor.bin"),
                              "--provenance", str(work / "cohort_provenance.csv"))),
            Stage("classify", ()),
            Stage("report", ()),
        )
    elif name == "edf-cohort":
        fx = base / "fixture"
        stages = (
            Stage("preprocess", ("--manifest", str(fx / "population.csv"))),
            Stage("decompose", ("--rank", "3")),
            Stage("project", ("--manifest", str(fx / "validation.csv"))),
            Stage("classify", ("--labels", str(fx / "labels.csv"))),
        )
    else:
        stages = (
            Stage("decompose", ("--rank", str(sz["rank"]))),
            Stage("project", ("--tensor", str(work / "cohort_tensor.bin"),
                              "--provenance", str(work / "cohort_provenance.csv"))),
        )
    return Workload(name, scale, seed, config, stages, sz)


# ---------------------------------------------------------------------------
# fixtures (run in a child process with src/ on sys.path)

# class rhythm amplitudes in uV: (alpha at 10 Hz, theta at 6 Hz); beta at
# 20 Hz is shared.  The classes differ in amplitude only, so every spectrum
# mixes the same three peaks and the population tensor stays near rank 3.
_RHYTHMS = {"CN": (29.0, 8.5), "MCI": (24.0, 12.0), "AD": (19.0, 15.5)}
_LABELS = ("CN", "MCI", "AD")


def _recording(wl: Workload, index: int, label: str, subject: str, duration: float,
               jitter: float):
    """256 Hz recording whose rhythm amplitudes are the class's, each scaled
    by a per-subject factor in [1 - jitter, 1 + jitter]."""
    import numpy as np
    from eegfactor import make_recording

    rng = np.random.default_rng([wl.seed, index, 11])
    alpha, theta = _RHYTHMS[label]
    tones = (
        (10.0, alpha * rng.uniform(1.0 - jitter, 1.0 + jitter)),
        (6.0, theta * rng.uniform(1.0 - jitter, 1.0 + jitter)),
        (20.0, 4.0),
    )
    return make_recording(
        seed=wl.seed * 1000 + index,
        duration=duration,
        tones=tones,
        subject_id=subject,
        recording_id=f"{subject}_r0",
    )


def build_fixture(wl: Workload, out: Path):
    """Write the workload's inputs, derived only from the seed, into ``out``."""
    from eegfactor import cli

    out.mkdir(parents=True, exist_ok=True)
    sz = wl.sizes
    common = ["--config", str(wl.config_path), "--workdir", str(out), "--seed", str(wl.seed)]
    if wl.name != "edf-cohort":
        # gn-large too: synth --mode tensor adds unclipped noise, so some of its
        # "spectra" are negative and project rejects them; a cohort clips at 0
        rc = cli.main(common + ["synth", "--mode", "cohort", "--dims", str(sz["E"]), "19", "89",
                                "--snr-db", "20", "--subjects-per-class", sz["subjects"]])
        if rc != 0:
            raise RuntimeError(f"synth exited with {rc}")
        return

    from eegfactor import write_edf

    def write(index, label, subject, duration, rows, jitter=0.0):
        name = f"{subject}.edf"
        rec = _recording(wl, index, label, subject, duration, jitter)
        (out / name).write_bytes(write_edf(rec))
        rows.append((name, subject, label))

    # the population recordings sit at their class's amplitudes, so the fit of
    # the rank-3 population model varies little with the seed; the validation
    # subjects are jittered wide enough that the classes overlap
    index = 0
    population: list = []
    for i in range(sz["n_population"]):
        write(index, _LABELS[i % 3], f"P{i:03d}", sz["duration"], population)
        index += 1
    validation: list = []
    for label in _LABELS:
        for k in range(sz["per_class"]):
            write(index, label, f"V{label}{k:02d}", sz["duration"], validation, jitter=0.25)
            index += 1
    # one recording per manifest too short for 2 epochs: the skip path
    write(index, "CN", "PSHORT", 15.0, population)
    write(index + 1, "CN", "VSHORT", 15.0, validation)
    _write_rows(out / "population.csv", ("path", "subject_id", "label"),
                [(p, s, "") for p, s, _ in population])
    _write_rows(out / "validation.csv", ("path", "subject_id", "label"), validation)
    _write_rows(out / "labels.csv", ("subject_id", "label"),
                sorted((s, l) for _, s, l in validation))


def _write_rows(path: Path, header, rows):
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(row) + "\n")


# planted skips: one short recording in each manifest
PLANTED_SKIPS = {"preprocess": 1, "project": 1}


# ---------------------------------------------------------------------------
# checks

def snapshot(directory: Path) -> dict[str, str]:
    """sha256 of every file under ``directory``, keyed by relative path."""
    out = {}
    for root, _, files in os.walk(directory):
        for name in files:
            p = Path(root) / name
            out[str(p.relative_to(directory))] = hashlib.sha256(p.read_bytes()).hexdigest()
    return dict(sorted(out.items()))


def _summary_rows(work: Path) -> list[dict]:
    with open(work / "summary.csv", newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def _load(path: Path) -> dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def cv_auc_mean(work: Path) -> float | None:
    path = work / "summary.csv"
    if not path.exists():
        return None
    rows = _summary_rows(work)
    return sum(float(r["mean_auc"]) for r in rows) / len(rows)


def check_stage(wl: Workload, stage: str, stderr: str) -> list[str]:
    """Output checks of one finished stage; returns the failures."""
    work = wl.work
    fails = []
    try:
        if wl.name == "readme-synth":
            if stage == "diffit":
                modal = _load(work / "rank_report.json")["modal_rank"]
                if modal != 3:
                    fails.append(f"modal rank {modal}, planted 3")
            elif stage == "classify":
                auc = [float(r["mean_auc"]) for r in _summary_rows(work)
                       if (r["feature"], r["classifier"], r["task"]) == ("TD", "GNB", "CNvsAD")]
                if not auc or auc[0] < wl.sizes["auc_floor"]:
                    fails.append(f"TD-GNB CNvsAD AUC {auc} below {wl.sizes['auc_floor']}")
        elif wl.name == "edf-cohort":
            if stage in PLANTED_SKIPS:
                skipped = stderr.count("warning: skipping")
                if skipped != PLANTED_SKIPS[stage]:
                    fails.append(f"{skipped} recordings skipped, planted {PLANTED_SKIPS[stage]}")
            elif stage == "classify":
                auc = cv_auc_mean(work)
                if auc is None or auc <= 0.5:
                    fails.append(f"mean AUC {auc} not above chance")
        elif wl.name == "gn-large" and stage == "decompose":
            fit = _load(work / "decompose_meta.json")["fit"]
            if fit < wl.sizes["fit_floor"]:
                fails.append(f"fit {fit} below {wl.sizes['fit_floor']}")
    except (OSError, KeyError, ValueError) as exc:
        fails.append(f"artifact unreadable: {exc!r}")
    return fails


def stage_failures(wl: Workload, index: int, rc: int, stderr: str, first: list) -> list[str]:
    """Every check after stage ``index`` of a repetition: the exit code, the
    stage's output checks, and criterion 11 across repetitions (the work dir
    is byte-identical to the first repetition's at the same stage).  The
    first repetition fills ``first`` with its snapshots."""
    stage = wl.stages[index].name
    fails = [f"exit code {rc}"] if rc != 0 else check_stage(wl, stage, stderr)
    snap = snapshot(wl.work)
    if len(first) <= index:
        first.append(snap)
    elif snap != first[index]:
        changed = sorted(k for k in first[index].keys() | snap.keys()
                         if first[index].get(k) != snap.get(k))
        fails.append(f"artifacts differ from repetition 1: {', '.join(changed[:5])}")
    return [f"{stage}: {f}" for f in fails]


def decompose_rel_error(work: Path) -> float | None:
    path = work / "decompose_meta.json"
    return float(_load(path)["rel_error"]) if path.exists() else None
