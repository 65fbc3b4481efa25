"""Pipeline orchestration: composable subcommands over a shared work dir.

A stage refuses to start when a work-dir file it needs is missing, and names
the stage that writes it; ``STAGES`` declares those inputs, and the config
section whose seed stamps each stage's record. Every stage but report
persists its fully-resolved config as <stage>.config.json, stamped with
version, config_hash and seed: the classify seed for classify, the cpd seed
for the others. The JSON reports (rank_report, decompose_meta, cv_report,
report) carry the same stamp; the factor files (factors.json,
truth_factors.json) and the CSVs are stamped only by their stage's record.
Reruns with identical config and inputs are byte-identical.

Exit codes: 0 success, 1 usage/config error, 2 data error, 3 numerical
failure.
"""
from __future__ import annotations

import argparse
import contextlib
import csv
import fcntl
import hashlib
import io
import json
import math
import os
import sys
from dataclasses import asdict
from pathlib import Path

import numpy as np
import yaml

from . import __version__
from .channels import CHANNELS, ELECTRODE_COORDS
from .classify import VALID_LABELS, CohortDataset, cross_validate, ready_tasks
from .cpd import CpdOptions, cpd_als, cpd_gn
from .edf import read_edf_file, read_manifest, read_montage, write_edf
from .errors import (
    ArgumentError,
    ConfigError,
    EegFactorError,
    IngestError,
    NumericalError,
    ParseError,
)
from .preprocess import (
    FREQ_GRID,
    INVALID_SPECTRUM,
    PIB_NAMES,
    WELCH_SEGMENT_SECONDS,
    bandpass,
    check_recording,
    epoch_and_reject,
    invalid_spectra,
    pib,
    select_awake_epochs,
    welch,
)
from .projection import build_basis, project
from .rank import diffit
from .synth import SynthSpec, make_cohort, make_recording, make_tensor
from .tensor import (
    Tensor3,
    atomic_open,
    load_factors,
    load_tensor,
    read_text,
    save_factors,
    save_tensor,
    write_json,
)

DEFAULT_CONFIG = {
    "paths": {
        "manifest": "manifest.csv",
        "workdir": "work",
    },
    "preprocess": {
        "band_lo_hz": 0.5,
        "band_hi_hz": 45.0,
        "filter_order": 8,
        "epoch_seconds": 10.0,
        "min_epochs": 2,
        "max_epochs": 6,
        "rejection_sigma": 2.0,
    },
    "cpd": {
        "rank": 3,
        "max_iters": 500,
        "tol": 1e-8,
        "n_starts": 5,
        "seed": 0,
        "solver": "GN",
    },
    "diffit": {
        "r_max": 6,
        "n_runs": 30,
    },
    "classify": {
        "k_folds": 15,
        "svm_c": 1.0,
        "svm_epochs": 200,
        "seed": 0,
    },
}


# ---------------------------------------------------------------------------
# config plumbing

def load_config(path=None) -> dict:
    user = {}
    if path is not None:
        if not Path(path).is_file():
            raise ConfigError(f"--config names no file: {path}")
        try:
            user = yaml.safe_load(read_text(path))
        except ParseError as exc:
            raise ConfigError(f"config file {exc}") from None
        except yaml.YAMLError as exc:
            raise ConfigError(f"config file is not valid YAML: {exc}") from None
        if user is None:
            user = {}
        if not isinstance(user, dict):
            raise ConfigError("config file must hold a mapping of sections")
        unknown = set(user) - set(DEFAULT_CONFIG)
        if unknown:
            raise ConfigError(f"unknown config sections: {sorted(unknown)}")
        for section, fields in user.items():
            if not isinstance(fields, dict):
                raise ConfigError(f"config section {section!r} must be a mapping")
            bad = set(fields) - set(DEFAULT_CONFIG[section])
            if bad:
                raise ConfigError(f"unknown fields in section {section!r}: {sorted(bad)}")
    # sections and fields are checked above, so two levels hold every value
    return {s: {**DEFAULT_CONFIG[s], **user.get(s, {})} for s in DEFAULT_CONFIG}


def _check_types(cfg: dict):
    """Refuse, naming the field, a value of another type than its default:
    an int field takes an int that is not a bool, a float field a finite int
    or float, and a string field a string."""
    for section, defaults in DEFAULT_CONFIG.items():
        for field, default in defaults.items():
            value = cfg[section][field]
            number = isinstance(value, (int, float)) and not isinstance(value, bool)
            if isinstance(default, str):
                ok, kind = isinstance(value, str), "a string"
            elif isinstance(default, float):
                ok, kind = number and math.isfinite(value), "a finite number"
            else:
                ok, kind = number and isinstance(value, int), "an integer"
            if not ok:
                raise ConfigError(f"{section}.{field} must be {kind}, got {value!r}")


def validate_config(cfg: dict):
    _check_types(cfg)
    pp = cfg["preprocess"]
    if not 0 < pp["band_lo_hz"] < pp["band_hi_hz"]:
        raise ConfigError("preprocess.band_lo_hz must be in (0, band_hi_hz)")
    if pp["epoch_seconds"] < WELCH_SEGMENT_SECONDS:
        raise ConfigError(f"preprocess.epoch_seconds must be at least {WELCH_SEGMENT_SECONDS} s, "
                          "one Welch segment")
    if pp["min_epochs"] < 2:
        raise ConfigError("preprocess.min_epochs must be >= 2")
    if pp["max_epochs"] < pp["min_epochs"]:
        raise ConfigError("preprocess.max_epochs must be >= min_epochs")
    if pp["rejection_sigma"] <= 0:
        raise ConfigError("preprocess.rejection_sigma must be positive")
    if pp["filter_order"] < 2:
        raise ConfigError("preprocess.filter_order must be >= 2")
    if cfg["cpd"]["solver"] not in ("ALS", "GN"):
        raise ConfigError(f"cpd.solver must be 'ALS' or 'GN', got {cfg['cpd']['solver']!r}")
    try:
        cpd_options(cfg)
    except ArgumentError as exc:
        raise ConfigError(f"cpd section invalid: {exc}") from None
    di = cfg["diffit"]
    if di["r_max"] < 3:
        raise ConfigError("diffit.r_max must be >= 3")
    if di["n_runs"] < 1:
        raise ConfigError("diffit.n_runs must be >= 1")
    cl = cfg["classify"]
    if cl["k_folds"] < 2:
        raise ConfigError("classify.k_folds must be >= 2")
    if cl["svm_c"] < 0:
        raise ConfigError("classify.svm_c must be nonnegative")
    if cl["svm_epochs"] < 1:
        raise ConfigError("classify.svm_epochs must be >= 1")


def cpd_options(cfg: dict, **overrides) -> CpdOptions:
    section = dict(cfg["cpd"])
    section.update(overrides)
    return CpdOptions(
        rank=int(section["rank"]),
        max_iters=int(section["max_iters"]),
        tol=float(section["tol"]),
        n_starts=int(section["n_starts"]),
        seed=int(section["seed"]),
    )


def config_hash(cfg: dict) -> str:
    canon = json.dumps(cfg, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode("utf-8")).hexdigest()[:16]


# ---------------------------------------------------------------------------
# deterministic artifact writers

def _read_json(path: Path, keys) -> dict:
    """Parse a JSON artifact that must hold an object with ``keys``.

    A truncated or garbled file, or one missing a key, is a ParseError
    naming the file and the field, not a traceback.
    """
    try:
        doc = json.loads(read_text(path))
    except ValueError as exc:
        raise ParseError(f"{path.name} is not valid JSON: {exc}", field="body") from None
    if not isinstance(doc, dict):
        raise ParseError(f"{path.name} must hold a JSON object", field="body")
    for key in keys:
        if key not in doc:
            raise ParseError(f"{path.name} has no {key!r}", field=key)
    return doc


def _sha256(path: Path) -> str:
    """Hex sha256 of a file, read in 1 MiB chunks (hashlib.file_digest is 3.11+)."""
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def _fmt_cell(value) -> str:
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _write_csv(path: Path, header: list[str], rows):
    with atomic_open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(_fmt_cell(c) for c in row) + "\n")


def _stamp(cfg: dict, seed: int) -> dict:
    return {"version": __version__, "config_hash": config_hash(cfg), "seed": seed}


def _write_stage_config(workdir: Path, stage: str, cfg: dict, seed: int):
    doc = dict(_stamp(cfg, seed))
    doc["stage"] = stage
    doc["config"] = cfg
    write_json(workdir / f"{stage}.config.json", doc)


@contextlib.contextmanager
def workdir_lock(workdir: Path):
    """Single-writer guard: an exclusive flock on ``workdir/.lock``.

    The kernel drops the lock when its holder exits or is killed, so a
    leftover ``.lock`` never blocks. The holder unlinks the path before it
    lets go; an invocation that opened the old file meanwhile then locks an
    inode the path no longer names, and refuses as well.
    """
    lock_path = workdir / ".lock"
    try:
        workdir.mkdir(parents=True, exist_ok=True)
        fd = os.open(lock_path, os.O_CREAT | os.O_RDWR)
    except OSError as exc:
        raise ConfigError(f"cannot open {lock_path}: {exc}") from None
    try:
        try:
            fcntl.flock(fd, fcntl.LOCK_EX | fcntl.LOCK_NB)
            held = os.fstat(fd).st_ino == os.stat(lock_path).st_ino
        except (BlockingIOError, FileNotFoundError):
            held = False
        if not held:
            raise ConfigError(f"work dir {workdir} is locked by another invocation")
        try:
            yield
        finally:
            with contextlib.suppress(FileNotFoundError):
                os.unlink(lock_path)
    finally:
        os.close(fd)


def _flag_file(value, flag: str) -> Path:
    """The input file that ``flag``, a command-line flag or a config field,
    names, which must exist."""
    path = Path(value)
    if not path.is_file():
        raise IngestError(f"{flag} names no file: {path}")
    return path


# ---------------------------------------------------------------------------
# provenance / label tables

# the origin of each tensor row, as (subject_id, recording_id, epoch_index)
ID_COLUMNS = ["subject_id", "recording_id", "epoch_index"]


def _write_provenance(path: Path, ids):
    _write_csv(path, ["epoch_row"] + ID_COLUMNS, [(e, *i) for e, i in enumerate(ids)])


def _csv_dict_rows(path: Path, need: set, what: str) -> csv.DictReader:
    reader = csv.DictReader(io.StringIO(read_text(path), newline=""))
    if reader.fieldnames is None or not need.issubset(reader.fieldnames):
        raise ParseError(f"{what} CSV needs columns {sorted(need)}", field="header")
    return reader


def _read_provenance(path: Path) -> list[tuple[str, str, int]]:
    out = []
    reader = _csv_dict_rows(path, {"epoch_row", *ID_COLUMNS}, "provenance")
    for row in reader:
        try:
            out.append((row["subject_id"], row["recording_id"], int(row["epoch_index"])))
        except (TypeError, ValueError):
            raise ParseError(f"provenance line {reader.line_num}: epoch_index "
                             f"{row['epoch_index']!r} is not an integer",
                             field="epoch_index") from None
    return out


def _read_labels(path: Path) -> dict[str, str]:
    """subject_id -> label; every label is one of VALID_LABELS, and a subject
    listed twice must carry the same label both times."""
    labels = {}
    reader = _csv_dict_rows(path, {"subject_id", "label"}, "labels")
    for row in reader:
        subject, label = row["subject_id"], row["label"]
        where = f"{path.name} line {reader.line_num}"
        if label not in VALID_LABELS:
            raise ParseError(f"{where}: label must be one of {VALID_LABELS}, got {label!r}",
                             field="label")
        if labels.setdefault(subject, label) != label:
            raise ParseError(f"{where}: subject {subject!r} is labelled both "
                             f"{labels[subject]} and {label}", field="label")
    return labels


def _write_features(path: Path, ids, names, feats: np.ndarray):
    """One row per epoch: the (subject_id, recording_id, epoch_index) ids,
    then that epoch's row of ``feats``."""
    _write_csv(
        path,
        ID_COLUMNS + list(names),
        [list(i) + row for i, row in zip(ids, feats.tolist())],
    )


def _read_feature_csv(path: Path):
    """Rows of (subject_id, recording_id, epoch_index, feature vector)."""
    reader = csv.reader(io.StringIO(read_text(path), newline=""))
    header = next(reader, None)
    n_ids = len(ID_COLUMNS)
    if header is None or len(header) == n_ids or header[:n_ids] != ID_COLUMNS:
        raise ParseError(f"{path.name} must start with {','.join(ID_COLUMNS)} and go on with "
                         "one or more feature columns", field="header")
    subjects, feats = [], []
    for row in reader:
        try:
            if len(row) != len(header):
                raise ValueError(f"{len(row)} fields, the header has {len(header)}")
            values = [float(v) for v in row[n_ids:]]
            if not all(map(math.isfinite, values)):
                raise ValueError("features must be finite")
        except ValueError as exc:
            raise ParseError(f"{path.name} line {reader.line_num}: {exc}",
                             field="body") from None
        feats.append(values)
        subjects.append(row[0])
    if not feats:
        raise ParseError(f"{path.name} contains no feature rows", field="body")
    return subjects, np.asarray(feats)


# ---------------------------------------------------------------------------
# stages

def _preprocess_recording(entry, cfg):
    """The spectra of one manifest entry's kept epochs and their ids; the
    ids name the recording by its file stem and the entry's subject."""
    pp = cfg["preprocess"]
    recording_id = entry.path.stem
    try:
        # one buffer from the file to Welch: the reader decodes the file's
        # records, a block at a time, into a fresh montage array, the
        # band-pass writes over it, and the kept epochs are moved to its
        # front and viewed there
        samples, fs, resampled = read_edf_file(entry.path, read_montage)
        if resampled:
            rates = ", ".join(f"{ch} ({rate:g} Hz)" for ch, rate in resampled.items())
            print(f"warning: {entry.path.name}: linearly resampled {rates} to {fs:g} Hz",
                  file=sys.stderr)
        check_recording(samples.shape[1], fs, pp["band_hi_hz"], pp["filter_order"],
                        pp["epoch_seconds"])
        bandpass(samples, fs, pp["band_lo_hz"], pp["band_hi_hz"], pp["filter_order"],
                 overwrite=True)
        epochs, ordinals = epoch_and_reject(samples, fs, pp["epoch_seconds"],
                                            pp["rejection_sigma"], overwrite=True)
        picked = select_awake_epochs(epochs, fs, pp["min_epochs"], pp["max_epochs"])
    except OSError as exc:
        raise IngestError(f"cannot read {entry.path}: {exc.strerror}") from None
    except IngestError as exc:
        raise IngestError(f"recording {recording_id} {exc}") from None
    spectra = [welch(epochs[i], fs) for i in picked]
    return spectra, [(entry.subject_id, recording_id, k) for k in ordinals[picked].tolist()]


def _preprocess_entries(entries, cfg):
    """The tensor of every manifest entry's spectra in order, and each row's
    ids; a recording that fails to ingest is skipped with a warning."""
    spectra, ids = [], []
    for entry in entries:
        try:
            psd, rows = _preprocess_recording(entry, cfg)
        except (IngestError, ParseError) as exc:
            print(f"warning: skipping {entry.path.name}: {exc}", file=sys.stderr)
            continue
        spectra += psd
        ids += rows
    if not spectra:
        raise IngestError("no recording in the manifest survived preprocessing")
    return Tensor3(np.stack(spectra)), ids


def run_preprocess(cfg: dict, workdir: Path, args):
    if args.manifest is not None:
        manifest = _flag_file(args.manifest, "--manifest")
    else:
        # the config's manifest lives in the work dir, where `synth --mode edf` writes it
        manifest = _flag_file(workdir / cfg["paths"]["manifest"], "paths.manifest")
    entries = read_manifest(manifest)
    t, ids = _preprocess_entries(entries, cfg)
    save_tensor(t, workdir / "tensor.bin")
    _write_provenance(workdir / "provenance.csv", ids)
    _write_features(workdir / "pib.csv", ids, PIB_NAMES, pib(t.data))
    print(f"preprocess: {t.dims[0]} epochs from {len(entries)} recordings -> tensor {t.dims}")


def run_diffit(cfg: dict, workdir: Path, args):
    tensor_path = workdir / "tensor.bin"
    t = load_tensor(tensor_path)
    seed = cfg["cpd"]["seed"]
    opts = cpd_options(cfg, rank=1)
    report = diffit(
        t, r_max=cfg["diffit"]["r_max"], n_runs=cfg["diffit"]["n_runs"], seed=seed, options=opts
    )
    doc = dict(_stamp(cfg, seed))
    doc.update(
        {
            "r_max": report.r_max,
            "n_runs": report.n_runs,
            "fits": [list(f) for f in report.fits],
            "chosen": list(report.chosen),
            "histogram": {str(k): v for k, v in report.histogram.items()},
            "modal_rank": report.modal_rank,
            # decompose takes its rank from this report only for this tensor
            "tensor_sha256": _sha256(tensor_path),
        }
    )
    write_json(workdir / "rank_report.json", doc)
    _write_csv(
        workdir / "rank_histogram.csv",
        ["rank", "count"],
        [(r, report.histogram[r]) for r in sorted(report.histogram)],
    )
    print(f"diffit: modal rank {report.modal_rank} over {report.n_runs} runs")


def _resolve_rank(cfg: dict, workdir: Path, flag_rank) -> int:
    if flag_rank is not None:
        return int(flag_rank)
    report_path = workdir / "rank_report.json"
    if report_path.is_file():
        doc = _read_json(report_path, ("modal_rank",))
        rank = doc["modal_rank"]
        if type(rank) is not int or rank < 1:
            raise ParseError(f"{report_path.name}: modal_rank must be a positive integer, "
                             f"got {rank!r}", field="modal_rank")
        if doc.get("tensor_sha256") != _sha256(workdir / "tensor.bin"):
            raise ParseError(f"{report_path.name} was not made from this tensor.bin; "
                             "rerun `diffit` or pass --rank", field="tensor_sha256")
        return rank
    return int(cfg["cpd"]["rank"])


def run_decompose(cfg: dict, workdir: Path, args):
    t = load_tensor(workdir / "tensor.bin")
    rank = _resolve_rank(cfg, workdir, args.rank)
    opts = cpd_options(cfg, rank=rank)
    solver = cfg["cpd"]["solver"]
    result = (cpd_gn if solver == "GN" else cpd_als)(t, opts)
    if not result.converged and result.fit <= 0.0:
        raise NumericalError(
            f"{solver} failed to converge to a usable iterate (fit={result.fit:.3g})"
        )
    save_factors(result.factors, workdir / "factors.json")
    meta = dict(_stamp(cfg, opts.seed))
    meta.update(
        {
            "solver": solver,
            "rank": rank,
            "rel_error": result.rel_error,
            "fit": result.fit,
            "iterations": result.iterations,
            "converged": result.converged,
            "start_index": result.start_index,
            "starts": [asdict(s) for s in result.starts],
            "trace": list(result.trace),
        }
    )
    write_json(workdir / "decompose_meta.json", meta)
    fs = result.factors
    for i in range(rank):
        _write_csv(
            workdir / f"factor_{i + 1}_topomap.csv",
            ["channel", "value"],
            [(CHANNELS[s], float(fs.B[s, i])) for s in range(fs.B.shape[0])],
        )
        _write_csv(
            workdir / f"factor_{i + 1}_spectrum.csv",
            ["freq_hz", "value"],
            [(float(FREQ_GRID[f]), float(fs.C[f, i])) for f in range(fs.C.shape[0])],
        )
    _write_csv(
        workdir / "electrode_coords.csv",
        ["channel", "x", "y"],
        [(ch, ELECTRODE_COORDS[ch][0], ELECTRODE_COORDS[ch][1]) for ch in CHANNELS],
    )
    print(
        f"decompose: rank {rank} {solver} fit={result.fit:.6f} "
        f"rel_error={result.rel_error:.3e} ({result.iterations} iters)"
    )


def run_project(cfg: dict, workdir: Path, args):
    factors = load_factors(workdir / "factors.json")
    basis = build_basis(factors)
    if args.tensor is not None:
        if args.provenance is None:
            raise ConfigError("--tensor requires --provenance")
        t = load_tensor(_flag_file(args.tensor, "--tensor"))
        ids = _read_provenance(_flag_file(args.provenance, "--provenance"))
        if t.dims[0] != len(ids):
            raise IngestError(
                f"provenance lists {len(ids)} epochs but tensor holds {t.dims[0]}"
            )
        if not ids:
            raise IngestError("no epochs available to project")
        bad = np.flatnonzero(invalid_spectra(t.data))
        if bad.size:
            e = int(bad[0])
            raise IngestError(f"tensor row {e} ({ids[e][1]}, epoch {ids[e][2]}): "
                              f"{INVALID_SPECTRUM}")
    elif args.manifest is not None:
        entries = read_manifest(_flag_file(args.manifest, "--manifest"))
        t, ids = _preprocess_entries(entries, cfg)
    else:
        raise ConfigError("project needs --manifest or --tensor/--provenance")
    grid = (len(CHANNELS), len(FREQ_GRID))
    if not t.dims[1:] == basis.grid_shape == grid:
        raise IngestError(f"spectra grid {t.dims[1:]} and basis grid {basis.grid_shape} "
                          f"must both be {grid}")
    rank = factors.rank
    _write_features(workdir / "weights.csv", ids, [f"w{i + 1}" for i in range(rank)],
                    project(basis, t.data))
    _write_features(workdir / "validation_pib.csv", ids, PIB_NAMES, pib(t.data))
    print(f"project: {len(ids)} epochs onto a rank-{rank} basis (rank_used={basis.rank_used})")


def _classify_feature_set(name, path, labels, cfg) -> list:
    """(name, CVReport) for each model on each task that has two subjects in
    each class."""
    subjects, feats = _read_feature_csv(path)
    missing = sorted({s for s in subjects if s not in labels})
    if missing:
        raise IngestError(f"no label for subjects: {', '.join(missing[:5])}")
    ds = CohortDataset(
        features=feats,
        subject_ids=tuple(subjects),
        labels=tuple(labels[s] for s in subjects),
    )
    cl = cfg["classify"]
    return [
        (name, cross_validate(ds, task, model, k=cl["k_folds"], seed=cl["seed"],
                              svm_c=cl["svm_c"], svm_epochs=cl["svm_epochs"]))
        for task in ready_tasks(ds)
        for model in ("GNB", "SVM")
    ]


def run_classify(cfg: dict, workdir: Path, args):
    weights_path = workdir / "weights.csv"
    pib_path = workdir / "validation_pib.csv"
    if not weights_path.is_file() and not pib_path.is_file():
        raise IngestError("missing weights.csv; run `project` first")
    labels_file = _flag_file(args.labels, "--labels") if args.labels else workdir / "labels.csv"
    if not labels_file.is_file():
        raise IngestError(f"missing labels CSV {labels_file.name}; provide --labels")
    labels = _read_labels(labels_file)
    reports = []
    for name, path in (("TD", weights_path), ("PIB", pib_path)):
        if path.is_file():
            reports += _classify_feature_set(name, path, labels, cfg)
    if not reports:
        raise IngestError("no task had two classes with >= 2 subjects each")
    doc = dict(_stamp(cfg, cfg["classify"]["seed"]))
    doc["reports"] = [dict(feature=f, **asdict(r)) for f, r in reports]
    write_json(workdir / "cv_report.json", doc)
    _write_csv(
        workdir / "summary.csv",
        ["feature", "classifier", "task", "mean_auc", "std_auc"],
        [(f, r.model, r.task, r.mean_auc, r.std_auc) for f, r in reports],
    )
    for f, r in reports:
        print(f"classify: {f}-{r.model} {r.task} AUC {r.mean_auc:.3f} +/- {r.std_auc:.3f}")


def run_synth(cfg: dict, workdir: Path, args):
    seed = cfg["cpd"]["seed"]
    if args.mode == "edf":
        rows = []
        for i in range(args.n_recordings):
            rec = make_recording(
                seed=seed + i,
                duration=args.duration,
                subject_id=f"S{i:03d}",
                recording_id=f"S{i:03d}_r0",
            )
            name = f"rec_{i:03d}.edf"
            with atomic_open(workdir / name, "wb") as fh:
                fh.write(write_edf(rec))
            rows.append((name, f"S{i:03d}", ""))
        _write_csv(workdir / "manifest.csv", ["path", "subject_id", "label"], rows)
        print(f"synth: wrote {args.n_recordings} EDF recordings + manifest.csv")
        return

    spec = SynthSpec(
        dims=tuple(args.dims),
        rank=3,
        snr_db=args.snr_db if args.snr_db is not None else math.inf,
        factor_style="physiological",
        class_weight_params=_CLASS_WEIGHTS if args.mode == "cohort" else {},
        seed=seed,
    )
    # the cohort is built first: one it refuses leaves the work dir untouched
    if args.mode == "cohort":
        cohort = make_cohort(spec, args.subjects_per_class,
                             epochs_per_subject=args.epochs_per_subject)
    t, truth = make_tensor(spec)
    save_tensor(t, workdir / "tensor.bin")
    save_factors(truth, workdir / "truth_factors.json")
    if args.mode == "cohort":
        save_tensor(Tensor3(cohort.psd), workdir / "cohort_tensor.bin")
        _write_provenance(workdir / "cohort_provenance.csv", cohort.ids)
        _write_csv(
            workdir / "labels.csv",
            ["subject_id", "label"],
            sorted(cohort.labels.items()),
        )
        _write_features(workdir / "truth_weights.csv", cohort.ids,
                        [f"w{i + 1}" for i in range(spec.rank)], cohort.weights)
        print(
            f"synth: population tensor {t.dims} + cohort of "
            f"{len(cohort.ids)} epochs ({len(cohort.labels)} subjects)"
        )
    else:
        print(f"synth: population tensor {t.dims} (rank {spec.rank})")


# per class, the (means, stds) of the Gaussian weights of the three
# physiological components, echoing slowing-vs-alpha separation: the impaired
# classes load more on component 2 and less on component 3
_CLASS_WEIGHTS = {
    "CN": ((1.0, 0.6, 1.8), (0.15,) * 3),
    "MCI": ((1.0, 1.1, 1.1), (0.15,) * 3),
    "AD": ((1.0, 1.8, 0.5), (0.15,) * 3),
}


def _subjects_per_class(text: str) -> dict[str, int]:
    """An argparse type: subjects per class, written CN=24,MCI=31,AD=50."""
    out = {}
    try:
        for part in text.split(","):
            label, count = part.split("=")
            if label.strip() in out:
                raise argparse.ArgumentTypeError(f"names {label.strip()} twice")
            out[label.strip()] = int(count)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"must look like CN=24,MCI=31,AD=50, got {text!r}"
        ) from None
    return out


def run_report(cfg: dict, workdir: Path, args):
    artifacts = {}
    for name in sorted(p.name for p in workdir.iterdir() if p.is_file()):
        if name in (".lock", "report.json"):
            continue
        artifacts[name] = _sha256(workdir / name)[:16]
    summary = dict(_stamp(cfg, cfg["cpd"]["seed"]))
    summary["artifacts"] = artifacts
    for source, keys in (
        ("rank_report.json", ("modal_rank",)),
        ("decompose_meta.json", ("rank", "fit", "rel_error", "converged")),
    ):
        path = workdir / source
        if path.is_file():
            doc = _read_json(path, keys)
            for key in keys:
                summary[f"{source.split('.')[0]}_{key}"] = doc[key]
    cv_path = workdir / "cv_report.json"
    if cv_path.is_file():
        keys = ("feature", "model", "task", "mean_auc", "std_auc")
        try:
            summary["classification"] = [
                {key: r[key] for key in keys} for r in _read_json(cv_path, ("reports",))["reports"]
            ]
        except (KeyError, TypeError):
            raise ParseError(f"{cv_path.name}: each report needs {list(keys)}",
                             field="reports") from None
    write_json(workdir / "report.json", summary)
    print(f"report: {len(artifacts)} artifacts summarized")


# Per stage: the work-dir files it must find, each with the stage that writes
# it, and the config section whose seed stamps <stage>.config.json (None: the
# stage writes no record). An input that a flag names, or one of a pair either
# of which will do, is checked by the stage itself.
STAGES = {
    "preprocess": ({}, "cpd"),
    "diffit": ({"tensor.bin": "preprocess"}, "cpd"),
    "decompose": ({"tensor.bin": "preprocess"}, "cpd"),
    "project": ({"factors.json": "decompose"}, "cpd"),
    "classify": ({}, "classify"),
    "synth": ({}, "cpd"),
    "report": ({}, None),
}


# ---------------------------------------------------------------------------
# argument parsing

class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        raise ConfigError(message)


def _at_least(kind, low):
    """An argparse type: a finite ``kind`` no smaller than ``low``."""
    def parse(text):
        value = kind(text)
        if not low <= value < math.inf:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {text}")
        return value
    parse.__name__ = kind.__name__  # argparse names it in "invalid int value"
    return parse


def _build_parser() -> _Parser:
    parser = _Parser(prog="eegfactor", description=__doc__)
    parser.add_argument("--config", help="YAML config file (defaults merged underneath)")
    parser.add_argument("--workdir", help="work directory (overrides paths.workdir)")
    parser.add_argument("--seed", type=int, help="seed override for cpd and classify")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("preprocess", help="manifest of EDFs -> tensor + provenance + PIB")
    p.add_argument("--manifest", help="cohort manifest CSV (overrides paths.manifest)")

    sub.add_parser("diffit", help="tensor -> DIFFIT rank report + histogram")

    p = sub.add_parser("decompose", help="tensor + rank -> factors + topomaps + spectra")
    p.add_argument("--rank", type=int, help="decomposition rank (default: rank report, then config)")

    p = sub.add_parser("project", help="factors + validation epochs -> weights CSV")
    p.add_argument("--manifest", help="validation manifest CSV of EDF recordings")
    p.add_argument("--tensor", help="validation spectra as a tensor binary")
    p.add_argument("--provenance", help="provenance CSV aligned with --tensor")

    p = sub.add_parser("classify", help="weights/PIB + labels -> CV report + summary")
    p.add_argument("--labels", help="labels CSV subject_id,label (default workdir/labels.csv)")

    p = sub.add_parser("synth", help="seeded synthetic fixtures")
    p.add_argument("--mode", choices=("tensor", "cohort", "edf"), default="tensor")
    p.add_argument("--dims", type=_at_least(int, 1), nargs=3, default=(200, 19, 89),
                   metavar=("E", "S", "F"))
    p.add_argument("--snr-db", type=float, default=None, help="default: noiseless")
    p.add_argument("--subjects-per-class", type=_subjects_per_class,
                   default="CN=24,MCI=31,AD=50")
    p.add_argument("--epochs-per-subject", type=int, default=4)
    p.add_argument("--n-recordings", type=_at_least(int, 1), default=5)
    p.add_argument("--duration", type=_at_least(float, 1.0), default=60.0, help="seconds")

    sub.add_parser("report", help="collect work dir artifacts into one JSON summary")
    return parser


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        cfg = load_config(args.config)
        if args.seed is not None:
            cfg["cpd"]["seed"] = args.seed
            cfg["classify"]["seed"] = args.seed
        if args.workdir is not None:
            cfg["paths"]["workdir"] = args.workdir
        validate_config(cfg)
        workdir = Path(cfg["paths"]["workdir"])
        inputs, seed_section = STAGES[args.command]
        with workdir_lock(workdir):
            for name, producer in inputs.items():
                if not (workdir / name).is_file():
                    raise IngestError(f"missing {name}; run `{producer}` first")
            # looked up by name when it runs, so a patched run_<stage> is the one called
            globals()[f"run_{args.command}"](cfg, workdir, args)
            if seed_section is not None:
                _write_stage_config(workdir, args.command, cfg, cfg[seed_section]["seed"])
        return 0
    except EegFactorError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code


if __name__ == "__main__":
    sys.exit(main())
