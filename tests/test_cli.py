import argparse
import csv
import fcntl
import hashlib
import json
import os
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from eegfactor import (
    ParseError,
    Recording,
    Tensor3,
    bandpass,
    epoch_and_reject,
    load_factors,
    load_tensor,
    make_recording,
    read_edf_file,
    read_manifest,
    save_tensor,
    select_channels,
    welch,
    write_edf,
)
from eegfactor import cli
from eegfactor.channels import CHANNELS, O1_INDEX, O2_INDEX
from eegfactor.cli import _read_feature_csv, _read_labels, _read_provenance, _sha256, main
from eegfactor.preprocess import _ALPHA, _BAND_WEIGHTS, _TOTAL, FREQ_GRID

from conftest import edf_bytes

CONFIG = """\
preprocess:
  filter_order: 8
cpd:
  n_starts: 2
  tol: 1.0e-10
  max_iters: 200
  seed: 3
diffit:
  r_max: 4
  n_runs: 2
classify:
  k_folds: 5
  svm_epochs: 120
  seed: 3
"""


def run(*argv):
    return main(list(argv))


@pytest.fixture()
def workdir(tmp_path):
    cfg = tmp_path / "config.yaml"
    cfg.write_text(CONFIG)
    return tmp_path / "work", cfg


@pytest.fixture()
def factor_workdir(workdir):
    """A work dir holding a 10-epoch tensor, its provenance and rank-3 factors."""
    wd, cfg = workdir
    assert run("--config", str(cfg), "--workdir", str(wd), "synth",
               "--mode", "tensor", "--dims", "10", "19", "89") == 0
    (wd / "factors.json").write_bytes((wd / "truth_factors.json").read_bytes())
    rows = "".join(f"{e},S{e},S{e}_r0,{e}\n" for e in range(10))
    (wd / "prov.csv").write_text("epoch_row,subject_id,recording_id,epoch_index\n" + rows)
    return wd, cfg


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


class TestPipeline:
    def test_synth_to_report_flow(self, workdir):
        wd, cfg = workdir
        base = ["--config", str(cfg), "--workdir", str(wd)]
        assert run(*base, "synth", "--mode", "cohort", "--dims", "30", "19", "89",
                   "--snr-db", "25", "--subjects-per-class", "CN=6,MCI=5,AD=6",
                   "--epochs-per-subject", "3") == 0
        for name in ("tensor.bin", "truth_factors.json", "cohort_tensor.bin",
                     "cohort_provenance.csv", "labels.csv", "truth_weights.csv"):
            assert (wd / name).exists(), name

        assert run(*base, "diffit") == 0
        report = json.loads((wd / "rank_report.json").read_text())
        assert report["modal_rank"] == 3
        hist = read_csv(wd / "rank_histogram.csv")
        assert hist[0] == ["rank", "count"]
        assert len(hist) == 4  # header + ranks 1..3

        assert run(*base, "decompose") == 0
        meta = json.loads((wd / "decompose_meta.json").read_text())
        assert meta["rank"] == 3
        assert meta["solver"] == "GN"
        assert meta["rel_error"] < 0.1
        # one record per start (CONFIG has 2), the picked one among them
        assert [sorted(s) for s in meta["starts"]] == [
            ["converged", "fit", "gram_regularized", "iterations"]] * 2
        picked = meta["starts"][meta["start_index"]]
        assert picked["iterations"] == meta["iterations"]
        assert picked["fit"] == max(s["fit"] for s in meta["starts"])
        for i in (1, 2, 3):
            topo = read_csv(wd / f"factor_{i}_topomap.csv")
            assert len(topo) == 20 and topo[0] == ["channel", "value"]
            spec_rows = read_csv(wd / f"factor_{i}_spectrum.csv")
            assert len(spec_rows) == 90 and spec_rows[0] == ["freq_hz", "value"]
        coords = read_csv(wd / "electrode_coords.csv")
        assert len(coords) == 20

        assert run(*base, "project", "--tensor", str(wd / "cohort_tensor.bin"),
                   "--provenance", str(wd / "cohort_provenance.csv")) == 0
        weights = read_csv(wd / "weights.csv")
        assert weights[0] == ["subject_id", "recording_id", "epoch_index", "w1", "w2", "w3"]
        assert len(weights) == 1 + 17 * 3
        provenance = read_csv(wd / "cohort_provenance.csv")
        assert [r[:3] for r in weights[1:]] == [r[1:] for r in provenance[1:]]
        pib_rows = read_csv(wd / "validation_pib.csv")
        assert len(pib_rows[0]) == 3 + 95

        assert run(*base, "classify") == 0
        summary = read_csv(wd / "summary.csv")
        assert summary[0] == ["feature", "classifier", "task", "mean_auc", "std_auc"]
        combos = {(r[0], r[1], r[2]) for r in summary[1:]}
        assert ("TD", "GNB", "CNvsAD") in combos
        assert ("PIB", "SVM", "CNvsMCI") in combos
        for row in summary[1:]:
            assert 0.0 <= float(row[3]) <= 1.0

        assert run(*base, "report") == 0
        doc = json.loads((wd / "report.json").read_text())
        assert doc["rank_report_modal_rank"] == 3
        assert "summary.csv" in doc["artifacts"]
        assert doc["config_hash"] == meta["config_hash"]
        assert not list(wd.glob("*.tmp"))

    def test_stage_rerun_is_byte_identical(self, workdir):
        wd, cfg = workdir
        base = ["--config", str(cfg), "--workdir", str(wd)]
        assert run(*base, "synth", "--mode", "tensor", "--dims", "25", "19", "89") == 0
        assert run(*base, "decompose", "--rank", "3") == 0
        first = {p.name: p.read_bytes() for p in wd.iterdir() if p.is_file()}
        assert run(*base, "synth", "--mode", "tensor", "--dims", "25", "19", "89") == 0
        assert run(*base, "decompose", "--rank", "3") == 0
        second = {p.name: p.read_bytes() for p in wd.iterdir() if p.is_file()}
        assert first.keys() == second.keys()
        for name in first:
            assert first[name] == second[name], f"{name} differs between reruns"


RECORD_CONFIG = """\
cpd:
  n_starts: 2
  max_iters: 20
  seed: 3
diffit:
  r_max: 3
  n_runs: 1
classify:
  k_folds: 3
  svm_epochs: 20
  seed: 7
"""


def stage_seeds(wd):
    """stage -> seed of each <stage>.config.json, each naming its own stage."""
    seeds = {}
    for path in wd.glob("*.config.json"):
        doc = json.loads(path.read_text())
        assert doc["stage"] == path.name.removesuffix(".config.json")
        seeds[doc["stage"]] = doc["seed"]
    return seeds


class TestStageRecords:
    @pytest.fixture()
    def base(self, tmp_path):
        cfg = tmp_path / "config.yaml"
        cfg.write_text(RECORD_CONFIG)
        wd = tmp_path / "work"
        return wd, ["--config", str(cfg), "--workdir", str(wd)]

    def test_each_stage_records_its_sections_seed(self, base):
        # classify is stamped with classify.seed, every other stage with
        # cpd.seed, and report writes no record
        wd, argv = base
        flow = [
            (["synth", "--mode", "cohort", "--dims", "12", "19", "89",
              "--subjects-per-class", "CN=3,MCI=3,AD=3", "--epochs-per-subject", "2"],
             "synth", 3),
            (["diffit"], "diffit", 3),
            (["decompose"], "decompose", 3),
            (["project", "--tensor", str(wd / "cohort_tensor.bin"),
              "--provenance", str(wd / "cohort_provenance.csv")], "project", 3),
            (["classify"], "classify", 7),
            (["report"], None, None),
        ]
        expected = {}
        for stage_argv, stage, seed in flow:
            assert run(*argv, *stage_argv) == 0, stage_argv
            if stage is not None:
                expected[stage] = seed
            assert stage_seeds(wd) == expected

    def test_edf_route_records_cpd_seed(self, base):
        wd, argv = base
        assert run(*argv, "synth", "--mode", "edf", "--n-recordings", "2",
                   "--duration", "50") == 0
        assert run(*argv, "preprocess", "--manifest", str(wd / "manifest.csv")) == 0
        assert stage_seeds(wd) == {"synth": 3, "preprocess": 3}

    @pytest.mark.parametrize("stage_argv,missing,producer", [
        (["decompose"], "tensor.bin", "preprocess"),
        (["project", "--tensor", "t.bin", "--provenance", "p.csv"], "factors.json", "decompose"),
    ], ids=["decompose", "project"])
    def test_stage_with_missing_input_writes_nothing(self, base, capsys, stage_argv, missing,
                                                     producer):
        wd, argv = base
        assert run(*argv, *stage_argv) == 2
        assert f"missing {missing}; run `{producer}` first" in capsys.readouterr().err
        assert list(wd.iterdir()) == []

    def test_refused_classify_keeps_the_earlier_record(self, base, capsys):
        wd, argv = base
        assert run(*argv, "synth", "--mode", "cohort", "--dims", "12", "19", "89",
                   "--subjects-per-class", "CN=3,MCI=3,AD=3",
                   "--epochs-per-subject", "2") == 0
        (wd / "factors.json").write_bytes((wd / "truth_factors.json").read_bytes())
        assert run(*argv, "project", "--tensor", str(wd / "cohort_tensor.bin"),
                   "--provenance", str(wd / "cohort_provenance.csv")) == 0
        assert run(*argv, "classify") == 0
        before = {p.name: p.read_bytes() for p in wd.iterdir()}
        # another seed would change the record if the refused stage wrote one
        assert run(*argv, "--seed", "9", "classify", "--labels", str(wd / "nope.csv")) == 2
        assert "--labels names no file" in capsys.readouterr().err
        assert {p.name: p.read_bytes() for p in wd.iterdir()} == before

    def test_table_names_every_subcommand(self):
        parser = cli._build_parser()
        sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
        assert set(cli.STAGES) == set(sub.choices)


class TestEdfRoute:
    def test_synth_edf_preprocess(self, workdir):
        wd, cfg = workdir
        base = ["--config", str(cfg), "--workdir", str(wd)]
        assert run(*base, "synth", "--mode", "edf", "--n-recordings", "3",
                   "--duration", "50") == 0
        assert (wd / "manifest.csv").exists()
        assert run(*base, "preprocess", "--manifest", str(wd / "manifest.csv")) == 0
        assert (wd / "tensor.bin").exists()
        prov = read_csv(wd / "provenance.csv")
        assert prov[0] == ["epoch_row", "subject_id", "recording_id", "epoch_index"]
        # 3 recordings x 2..5 kept epochs each
        assert 3 * 2 <= len(prov) - 1 <= 3 * 5
        pib_rows = read_csv(wd / "pib.csv")
        assert len(pib_rows) == len(prov)

    def test_provenance_rows_name_tensor_rows(self, workdir):
        # row i of provenance.csv names the recording (the EDF file's stem),
        # its subject and the epoch whose spectrum is row i of tensor.bin
        wd, cfg = workdir
        cfg.write_text(CONFIG.replace("  filter_order: 8\n", "  filter_order: 8\n  max_epochs: 3\n"))
        base = ["--config", str(cfg), "--workdir", str(wd)]
        assert run(*base, "synth", "--mode", "edf", "--n-recordings", "2",
                   "--duration", "50") == 0
        assert run(*base, "preprocess", "--manifest", str(wd / "manifest.csv")) == 0
        epochs = {}
        for entry in read_manifest(wd / "manifest.csv"):
            rec = read_edf_file(entry.path)
            fs = rec.sample_rate
            stack, ordinals = epoch_and_reject(bandpass(select_channels(rec), fs), fs)
            epochs[entry.path.stem] = (entry.subject_id, fs, dict(zip(ordinals.tolist(), stack)))
        t = load_tensor(wd / "tensor.bin")
        prov = read_csv(wd / "provenance.csv")[1:]
        assert t.dims[0] == len(prov) == 2 * 3
        assert [r[2] for r in prov] == ["rec_000"] * 3 + ["rec_001"] * 3
        for i, (row, subject, recording, index) in enumerate(prov):
            want_subject, fs, by_index = epochs[recording]
            assert int(row) == i and subject == want_subject
            np.testing.assert_array_equal(t.data[i], welch(by_index[int(index)], fs))

    def test_skip_warning_names_the_recording(self, workdir, capsys):
        # a recording with too few epochs to select from is skipped, and the
        # warning names its file and its recording
        wd, cfg = workdir
        cfg.write_text(CONFIG.replace("  filter_order: 8\n",
                                      "  filter_order: 8\n  min_epochs: 6\n  max_epochs: 6\n"))
        base = ["--config", str(cfg), "--workdir", str(wd)]
        assert run(*base, "synth", "--mode", "edf", "--n-recordings", "2",
                   "--duration", "50") == 0
        capsys.readouterr()
        assert run(*base, "preprocess", "--manifest", str(wd / "manifest.csv")) == 2
        err = capsys.readouterr().err
        for name in ("rec_000", "rec_001"):
            assert f"warning: skipping {name}.edf: recording {name} has " in err
        assert "need at least 6" in err
        assert "no recording in the manifest survived preprocessing" in err

    def test_unusable_sample_rate_skips_the_recording(self, workdir, capsys):
        # a 64 Hz recording cannot carry the 45 Hz band edge: preprocess and
        # project --manifest skip it with a warning and go on with the other
        wd, cfg = workdir
        base = ["--config", str(cfg), "--workdir", str(wd)]
        assert run(*base, "synth", "--mode", "edf", "--n-recordings", "2",
                   "--duration", "50") == 0
        slow = make_recording(seed=1, sample_rate=64.0, duration=50.0)
        (wd / "rec_001.edf").write_bytes(write_edf(slow))
        warning = ("warning: skipping rec_001.edf: recording rec_001 has sample rate 64.0 Hz, "
                   "which cannot support a 45.0 Hz band edge")
        capsys.readouterr()
        assert run(*base, "preprocess", "--manifest", str(wd / "manifest.csv")) == 0
        assert warning in capsys.readouterr().err
        assert {r[2] for r in read_csv(wd / "provenance.csv")[1:]} == {"rec_000"}
        assert run(*base, "decompose", "--rank", "2") == 0
        capsys.readouterr()
        assert run(*base, "project", "--manifest", str(wd / "manifest.csv")) == 0
        assert warning in capsys.readouterr().err
        assert {r[1] for r in read_csv(wd / "weights.csv")[1:]} == {"rec_000"}

    def test_too_short_recording_skips_the_recording(self, workdir, capsys):
        # a 40-sample recording, shorter even than the band-pass's odd
        # extension, is refused before it is filtered and skipped with the
        # usual warning
        wd, cfg = workdir
        base = ["--config", str(cfg), "--workdir", str(wd)]
        assert run(*base, "synth", "--mode", "edf", "--n-recordings", "2",
                   "--duration", "50") == 0
        short = make_recording(seed=1, duration=40 / 256.0)
        assert short.samples.shape == (19, 40)
        (wd / "rec_001.edf").write_bytes(write_edf(short))
        capsys.readouterr()
        assert run(*base, "preprocess", "--manifest", str(wd / "manifest.csv")) == 0
        assert ("warning: skipping rec_001.edf: recording rec_001 holds fewer than 2 epochs "
                "(0.2 s)") in capsys.readouterr().err
        assert {r[2] for r in read_csv(wd / "provenance.csv")[1:]} == {"rec_000"}

    @pytest.mark.parametrize("field, offset", [("record_duration", 244),
                                               ("physical_min[0]", 256 + 19 * 104)])
    def test_non_finite_header_number_skips_the_recording(self, workdir, capsys, field,
                                                          offset):
        # a nan in the header is a parse error of that one file: preprocess
        # skips it with a warning naming the field and goes on with the other
        wd, cfg = workdir
        base = ["--config", str(cfg), "--workdir", str(wd)]
        assert run(*base, "synth", "--mode", "edf", "--n-recordings", "2",
                   "--duration", "50") == 0
        bad = bytearray((wd / "rec_001.edf").read_bytes())
        bad[offset : offset + 8] = b"nan     "
        (wd / "rec_001.edf").write_bytes(bytes(bad))
        capsys.readouterr()
        assert run(*base, "preprocess", "--manifest", str(wd / "manifest.csv")) == 0
        err = capsys.readouterr().err
        assert "warning: skipping rec_001.edf: non-finite value 'nan'" in err
        assert f"field: {field}" in err
        assert {r[2] for r in read_csv(wd / "provenance.csv")[1:]} == {"rec_000"}

    @pytest.mark.parametrize("stage", ["preprocess", "project"])
    def test_recording_within_the_odd_extension_skips_the_recording(self, workdir, capsys,
                                                                    stage):
        # at order 70 the band-pass reflects 423 samples at each end: a 4.2-s,
        # 100 Hz recording holds two 2-s epochs but only 420 samples, so it
        # is refused before it is filtered and skipped with the usual warning
        wd, cfg = workdir
        cfg.write_text(CONFIG.replace("  filter_order: 8\n",
                                      "  filter_order: 70\n  epoch_seconds: 2.0\n"))
        base = ["--config", str(cfg), "--workdir", str(wd)]
        assert run(*base, "synth", "--mode", "edf", "--n-recordings", "2",
                   "--duration", "50") == 0
        if stage == "project":
            assert run(*base, "preprocess", "--manifest", str(wd / "manifest.csv")) == 0
            assert run(*base, "decompose", "--rank", "2") == 0
        short = make_recording(seed=1, sample_rate=100.0, duration=4.2)
        assert short.samples.shape == (19, 420)
        (wd / "rec_001.edf").write_bytes(write_edf(short))
        capsys.readouterr()
        assert run(*base, stage, "--manifest", str(wd / "manifest.csv")) == 0
        assert ("warning: skipping rec_001.edf: recording rec_001 has 420 samples, no more "
                "than the 423-sample odd extension of an order-70 band-pass"
                ) in capsys.readouterr().err
        out = "provenance.csv" if stage == "preprocess" else "weights.csv"
        column = 2 if stage == "preprocess" else 1
        assert {r[column] for r in read_csv(wd / out)[1:]} == {"rec_000"}

    def test_missing_channels_warning_names_the_file_stem(self, workdir, capsys):
        # the EDF's own recording field is empty; the warning names the file
        wd, cfg = workdir
        base = ["--config", str(cfg), "--workdir", str(wd)]
        assert run(*base, "synth", "--mode", "edf", "--n-recordings", "2",
                   "--duration", "50") == 0
        rec = make_recording(seed=1, duration=50.0)
        reduced = Recording(samples=rec.samples[:17], sample_rate=rec.sample_rate,
                            channel_labels=rec.channel_labels[:17])
        (wd / "rec_001.edf").write_bytes(write_edf(reduced))
        capsys.readouterr()
        assert run(*base, "preprocess", "--manifest", str(wd / "manifest.csv")) == 0
        assert ("warning: skipping rec_001.edf: recording rec_001 lacks channels: Cz, Pz\n"
                in capsys.readouterr().err)
        assert {r[2] for r in read_csv(wd / "provenance.csv")[1:]} == {"rec_000"}

    def test_resampling_warning_names_file_channels_and_rates(self, workdir, capsys):
        # a montage channel slower than the recording's rate is interpolated
        # onto it, and preprocess says so; the other recording is silent
        wd, cfg = workdir
        base = ["--config", str(cfg), "--workdir", str(wd)]
        assert run(*base, "synth", "--mode", "edf", "--n-recordings", "2",
                   "--duration", "50") == 0
        rows = make_recording(seed=1, duration=50.0).samples
        signals = [(ch, 256, row) for ch, row in zip(CHANNELS, rows)]
        for ch in ("O1", "Pz"):
            signals[CHANNELS.index(ch)] = (ch, 128, rows[CHANNELS.index(ch), ::2])
        (wd / "rec_001.edf").write_bytes(edf_bytes(signals, 50))
        capsys.readouterr()
        assert run(*base, "preprocess", "--manifest", str(wd / "manifest.csv")) == 0
        err = capsys.readouterr().err
        assert err == "warning: rec_001.edf: linearly resampled O1 (128 Hz), Pz (128 Hz) to 256 Hz\n"
        assert {r[2] for r in read_csv(wd / "provenance.csv")[1:]} == {"rec_000", "rec_001"}

    def test_missing_recording_skips_the_recording(self, workdir, capsys):
        # a manifest row that names no file is skipped with the usual warning
        wd, cfg = workdir
        base = ["--config", str(cfg), "--workdir", str(wd)]
        assert run(*base, "synth", "--mode", "edf", "--n-recordings", "2",
                   "--duration", "50") == 0
        (wd / "rec_001.edf").unlink()
        capsys.readouterr()
        assert run(*base, "preprocess", "--manifest", str(wd / "manifest.csv")) == 0
        err = capsys.readouterr().err
        assert "warning: skipping rec_001.edf: cannot read " in err and "Traceback" not in err
        assert {r[2] for r in read_csv(wd / "provenance.csv")[1:]} == {"rec_000"}

    def test_every_recording_missing_is_a_data_error(self, workdir, capsys):
        wd, cfg = workdir
        wd.mkdir(parents=True)
        (wd / "manifest.csv").write_text("path,subject_id,label\nnone_0.edf,S0,\nnone_1.edf,S1,\n")
        assert run("--config", str(cfg), "--workdir", str(wd),
                   "preprocess", "--manifest", str(wd / "manifest.csv")) == 2
        err = capsys.readouterr().err
        assert err.count("warning: skipping none_") == 2
        assert "error: no recording in the manifest survived preprocessing" in err

    def test_provenance_matches_a_scipy_chain(self, workdir):
        # preprocess picks the epochs that a chain built from scipy.signal's
        # butter, sosfiltfilt and welch picks, and their spectra agree to
        # roundoff
        from scipy import signal as sps

        wd, cfg = workdir
        base = ["--config", str(cfg), "--workdir", str(wd)]
        assert run(*base, "synth", "--mode", "edf", "--n-recordings", "2",
                   "--duration", "50") == 0
        assert run(*base, "preprocess", "--manifest", str(wd / "manifest.csv")) == 0
        rows, spectra = [], []
        for entry in read_manifest(wd / "manifest.csv"):
            rec = read_edf_file(entry.path)
            fs, nperseg = rec.sample_rate, int(round(2.0 * rec.sample_rate))
            sos = sps.butter(8, [0.5, 45.0], btype="bandpass", fs=fs, output="sos")
            epochs, ordinals = epoch_and_reject(
                sps.sosfiltfilt(sos, select_channels(rec), axis=1), fs)

            def psd(x):
                freqs, p = sps.welch(x, fs=fs, window="hamming", nperseg=nperseg,
                                     noverlap=nperseg // 2, detrend="constant",
                                     scaling="density")
                return np.apply_along_axis(lambda r: np.interp(FREQ_GRID, freqs, r), -1, p)

            power = psd(epochs[:, [O1_INDEX, O2_INDEX]]) @ _BAND_WEIGHTS
            scores = np.mean(power[..., _ALPHA] / power[..., _TOTAL], axis=1)
            picked = np.sort(np.argsort(-scores, kind="stable")[:min(len(epochs), 6)])
            rows += [[entry.subject_id, entry.path.stem, str(k)] for k in ordinals[picked]]
            spectra.append(psd(epochs[picked]))
        assert [r[1:] for r in read_csv(wd / "provenance.csv")[1:]] == rows
        want = np.concatenate(spectra)
        got = load_tensor(wd / "tensor.bin").data
        assert np.max(np.abs(got - want)) <= 1e-9 * np.max(want)

    def test_default_manifest_is_the_work_dirs(self, workdir, tmp_path, monkeypatch, capsys):
        # `synth --mode edf` writes manifest.csv into the work dir, and the
        # config's relative paths.manifest is read from there, whatever the
        # working directory; a --manifest flag stays relative to it
        wd, cfg = workdir
        base = ["--config", str(cfg), "--workdir", str(wd)]
        elsewhere = tmp_path / "elsewhere"
        elsewhere.mkdir()
        monkeypatch.chdir(elsewhere)
        assert run(*base, "synth", "--mode", "edf", "--n-recordings", "2",
                   "--duration", "30") == 0
        assert run(*base, "preprocess") == 0
        tensor = (wd / "tensor.bin").read_bytes()
        assert run(*base, "preprocess", "--manifest", "../work/manifest.csv") == 0
        assert (wd / "tensor.bin").read_bytes() == tensor
        (wd / "manifest.csv").unlink()
        capsys.readouterr()
        assert run(*base, "preprocess") == 2
        assert f"paths.manifest names no file: {wd / 'manifest.csv'}" in capsys.readouterr().err

    def test_project_via_manifest(self, workdir):
        wd, cfg = workdir
        base = ["--config", str(cfg), "--workdir", str(wd)]
        assert run(*base, "synth", "--mode", "edf", "--n-recordings", "2",
                   "--duration", "50") == 0
        assert run(*base, "preprocess", "--manifest", str(wd / "manifest.csv")) == 0
        assert run(*base, "decompose", "--rank", "2") == 0
        assert run(*base, "project", "--manifest", str(wd / "manifest.csv")) == 0
        weights = read_csv(wd / "weights.csv")
        assert weights[0][:4] == ["subject_id", "recording_id", "epoch_index", "w1"]
        assert len(weights) > 1


# one value per config field, each of another type than the field's default
WRONG_TYPES = [
    ("paths", "manifest", "[a.csv]"),
    ("paths", "workdir", "5"),
    ("preprocess", "band_lo_hz", "low"),
    ("preprocess", "band_hi_hz", "null"),
    ("preprocess", "filter_order", "8.0"),
    ("preprocess", "epoch_seconds", "ten"),
    ("preprocess", "min_epochs", "2.0"),
    ("preprocess", "max_epochs", "null"),
    ("preprocess", "rejection_sigma", "true"),
    ("cpd", "rank", "three"),
    ("cpd", "max_iters", "true"),
    ("cpd", "tol", "1e-8"),  # YAML 1.1 reads a float without a dot as a string
    ("cpd", "n_starts", "[5]"),
    ("cpd", "seed", "0.5"),
    ("cpd", "solver", "1"),
    ("diffit", "r_max", "[6]"),
    ("diffit", "n_runs", "{a: 1}"),
    ("classify", "k_folds", "2.5"),
    ("classify", "svm_c", ".nan"),
    ("classify", "svm_epochs", "false"),
    ("classify", "seed", "'0'"),
]


class TestErrors:
    def test_classify_without_project_names_producer(self, workdir, capsys):
        wd, cfg = workdir
        wd.mkdir(parents=True)
        (wd / "labels.csv").write_text("subject_id,label\ns0,CN\n")
        code = run("--config", str(cfg), "--workdir", str(wd), "classify")
        assert code == 2
        assert "project" in capsys.readouterr().err

    def test_diffit_without_tensor_names_producer(self, workdir, capsys):
        wd, cfg = workdir
        code = run("--config", str(cfg), "--workdir", str(wd), "diffit")
        assert code == 2
        assert "preprocess" in capsys.readouterr().err

    def test_bad_solver(self, tmp_path, capsys):
        cfg = tmp_path / "bad.yaml"
        cfg.write_text("cpd:\n  solver: NEWTON\n")
        assert run("--config", str(cfg), "--workdir", str(tmp_path / "w"), "report") == 1
        assert "solver" in capsys.readouterr().err

    @pytest.mark.parametrize("solver,fit", [("ALS", "cpd_als"), ("GN", "cpd_gn")])
    def test_config_solver_chooses_fit(self, workdir, monkeypatch, solver, fit):
        wd, cfg = workdir
        cfg.write_text(CONFIG.replace("cpd:\n", f"cpd:\n  solver: {solver}\n"))
        assert run("--config", str(cfg), "--workdir", str(wd), "synth",
                   "--mode", "tensor", "--dims", "10", "19", "89") == 0
        calls = []
        real = getattr(cli, fit)
        monkeypatch.setattr(cli, fit, lambda *a: calls.append(fit) or real(*a))
        assert run("--config", str(cfg), "--workdir", str(wd), "decompose", "--rank", "2") == 0
        assert calls == [fit]
        assert json.loads((wd / "decompose_meta.json").read_text())["solver"] == solver

    def test_non_utf8_config_is_config_error(self, tmp_path, capsys):
        cfg = tmp_path / "bad.yaml"
        cfg.write_bytes(b"cpd:\n  rank: 3\xff\n")
        assert run("--config", str(cfg), "--workdir", str(tmp_path / "w"), "report") == 1
        assert "bad.yaml is not UTF-8 text" in capsys.readouterr().err

    def test_config_directory_is_config_error(self, tmp_path, capsys):
        (tmp_path / "conf").mkdir()
        code = run("--config", str(tmp_path / "conf"), "--workdir", str(tmp_path / "w"), "report")
        assert code == 1
        assert f"--config names no file: {tmp_path / 'conf'}" in capsys.readouterr().err

    def test_labels_directory_names_flag(self, workdir, capsys):
        wd, cfg = workdir
        wd.mkdir(parents=True)
        (wd / "weights.csv").write_text("subject_id,recording_id,epoch_index,w1\ns0,r0,0,0.1\n")
        (wd / "labels").mkdir()
        code = run("--config", str(cfg), "--workdir", str(wd), "classify",
                   "--labels", str(wd / "labels"))
        assert code == 2
        assert f"--labels names no file: {wd / 'labels'}" in capsys.readouterr().err

    def test_tensor_directory_names_producer(self, workdir, capsys):
        wd, cfg = workdir
        (wd / "tensor.bin").mkdir(parents=True)
        assert run("--config", str(cfg), "--workdir", str(wd), "diffit") == 2
        assert "missing tensor.bin; run `preprocess` first" in capsys.readouterr().err

    def test_bad_config_field(self, tmp_path, capsys):
        cfg = tmp_path / "bad.yaml"
        cfg.write_text("classify:\n  k_folds: 1\n")
        code = run("--config", str(cfg), "--workdir", str(tmp_path / "w"), "report")
        assert code == 1
        assert "k_folds" in capsys.readouterr().err

    @pytest.mark.parametrize("section,field,value", WRONG_TYPES,
                             ids=[f"{s}.{f}" for s, f, _ in WRONG_TYPES])
    def test_config_field_of_wrong_type(self, tmp_path, capsys, section, field, value):
        cfg = tmp_path / "bad.yaml"
        cfg.write_text(f"{section}:\n  {field}: {value}\n")
        # --workdir would override paths.workdir before validation
        argv = ["--config", str(cfg)]
        if field != "workdir":
            argv += ["--workdir", str(tmp_path / "w")]
        assert run(*argv, "report") == 1
        assert f"error: {section}.{field} must be " in capsys.readouterr().err

    def test_every_config_field_has_a_wrong_type_case(self):
        assert [(s, f) for s, f, _ in WRONG_TYPES] == [
            (s, f) for s, fields in cli.DEFAULT_CONFIG.items() for f in fields]

    @pytest.mark.parametrize("seconds,code", [(1.99, 1), (2, 0)])
    def test_epoch_shorter_than_a_welch_segment(self, tmp_path, capsys, seconds, code):
        cfg = tmp_path / "short.yaml"
        cfg.write_text(f"preprocess:\n  epoch_seconds: {seconds}\n")
        assert run("--config", str(cfg), "--workdir", str(tmp_path / "w"), "report") == code
        assert ("preprocess.epoch_seconds must be at least 2.0 s"
                in capsys.readouterr().err) == bool(code)

    def test_unknown_config_section(self, tmp_path, capsys):
        cfg = tmp_path / "bad.yaml"
        cfg.write_text("mystery:\n  a: 1\n")
        assert run("--config", str(cfg), "--workdir", str(tmp_path / "w"), "report") == 1

    @staticmethod
    def hold_lock(wd, text=""):
        """An open of ``wd/.lock`` holding the exclusive flock, as a running
        invocation would."""
        wd.mkdir(parents=True, exist_ok=True)
        fh = open(wd / ".lock", "w")
        fh.write(text)
        fh.flush()
        fcntl.flock(fh, fcntl.LOCK_EX | fcntl.LOCK_NB)
        return fh

    def test_locked_workdir(self, workdir, capsys):
        wd, cfg = workdir
        with self.hold_lock(wd, "held"):
            code = run("--config", str(cfg), "--workdir", str(wd), "report")
        assert code == 1
        assert "lock" in capsys.readouterr().err.lower()

    def test_lock_of_dead_process_taken_over(self, workdir):
        wd, cfg = workdir
        wd.mkdir(parents=True)
        child = subprocess.Popen([sys.executable, "-c", "pass"])
        child.wait()  # reaped, so its PID names no process
        (wd / ".lock").write_text(str(child.pid))
        assert run("--config", str(cfg), "--workdir", str(wd), "report") == 0
        assert not (wd / ".lock").exists()

    def test_lock_of_live_process_refused(self, workdir, capsys):
        wd, cfg = workdir
        with self.hold_lock(wd, str(os.getpid())):
            code = run("--config", str(cfg), "--workdir", str(wd), "report")
            assert (wd / ".lock").read_text() == str(os.getpid())
        assert code == 1
        assert "lock" in capsys.readouterr().err.lower()

    def test_empty_leftover_lock_does_not_block(self, workdir):
        # a run killed between creating .lock and writing to it left it empty
        wd, cfg = workdir
        wd.mkdir(parents=True)
        (wd / ".lock").write_text("")
        assert run("--config", str(cfg), "--workdir", str(wd), "report") == 0
        assert not (wd / ".lock").exists()

    def test_leftover_lock_of_live_unlocked_process_does_not_block(self, workdir):
        # a live process that holds no lock, as when a PID has been reused
        wd, cfg = workdir
        wd.mkdir(parents=True)
        child = subprocess.Popen([sys.executable, "-c", "import time; time.sleep(60)"])
        try:
            (wd / ".lock").write_text(str(child.pid))
            assert run("--config", str(cfg), "--workdir", str(wd), "report") == 0
        finally:
            child.kill()
            child.wait()
        assert not (wd / ".lock").exists()

    def test_killed_holder_does_not_block(self, workdir):
        wd, cfg = workdir
        wd.mkdir(parents=True)
        holder = (
            "import fcntl, os, sys, time\n"
            f"fd = os.open({str(wd / '.lock')!r}, os.O_CREAT | os.O_RDWR)\n"
            "fcntl.flock(fd, fcntl.LOCK_EX)\n"
            "print('held', flush=True)\n"
            "time.sleep(60)\n"
        )
        child = subprocess.Popen([sys.executable, "-c", holder], stdout=subprocess.PIPE,
                                 text=True)
        try:
            assert child.stdout.readline() == "held\n"
            assert run("--config", str(cfg), "--workdir", str(wd), "report") == 1
        finally:
            child.kill()
            child.wait()
            child.stdout.close()
        assert (wd / ".lock").exists()
        assert run("--config", str(cfg), "--workdir", str(wd), "report") == 0
        assert not (wd / ".lock").exists()

    def test_lock_path_swapped_before_locking_refused(self, workdir, capsys, monkeypatch):
        # another invocation released and unlinked the file this one opened,
        # and a third made a new .lock: the flock taken on the old file
        # guards nothing, so the invocation refuses and leaves the new file
        wd, cfg = workdir
        wd.mkdir(parents=True)
        flock = fcntl.flock

        def swap_then_flock(fd, op):
            (wd / ".lock").unlink()
            (wd / ".lock").write_text("new")
            return flock(fd, op)

        monkeypatch.setattr(cli.fcntl, "flock", swap_then_flock)
        assert run("--config", str(cfg), "--workdir", str(wd), "report") == 1
        assert "lock" in capsys.readouterr().err.lower()
        assert (wd / ".lock").read_text() == "new"

    @pytest.mark.parametrize("blocker", ["work", "work/.lock"])
    def test_unopenable_lock_path_is_config_error(self, workdir, capsys, blocker):
        # a file where the work dir should be, or a directory where .lock
        # should be, exits 1 naming the path rather than with a traceback
        wd, cfg = workdir
        wd.mkdir()
        if blocker == "work":
            wd.rmdir()
            wd.write_text("")
        else:
            (wd / ".lock").mkdir()
        assert run("--config", str(cfg), "--workdir", str(wd), "report") == 1
        assert f"cannot open {wd / '.lock'}" in capsys.readouterr().err

    def test_lock_released_after_run(self, workdir):
        wd, cfg = workdir
        assert run("--config", str(cfg), "--workdir", str(wd), "synth",
                   "--mode", "tensor", "--dims", "10", "19", "89") == 0
        assert not (wd / ".lock").exists()

    def test_stale_rank_report_refused(self, workdir, capsys):
        # a rank report made from another tensor.bin must not choose the rank
        wd, cfg = workdir
        base = ["--config", str(cfg), "--workdir", str(wd)]
        synth = ["synth", "--mode", "tensor", "--dims", "12", "19", "89"]
        assert run(*base, *synth) == 0
        assert run(*base, "diffit") == 0
        assert run(*base, "--seed", "4", *synth) == 0
        assert run(*base, "decompose") == 2
        err = capsys.readouterr().err
        assert "rank_report.json" in err and "tensor.bin" in err
        assert "field: tensor_sha256" in err
        assert run(*base, "decompose", "--rank", "2") == 0

    def test_sha256_needs_no_file_digest(self, tmp_path, monkeypatch):
        # the package declares Python >= 3.10; hashlib.file_digest is 3.11+
        monkeypatch.delattr(hashlib, "file_digest", raising=False)
        blob = tmp_path / "blob.bin"
        blob.write_bytes(bytes(range(256)) * 9000)  # spans several read chunks
        assert _sha256(blob) == hashlib.sha256(blob.read_bytes()).hexdigest()

    def test_bad_rank_flag(self, workdir, capsys):
        wd, cfg = workdir
        assert run("--config", str(cfg), "--workdir", str(wd), "synth",
                   "--mode", "tensor", "--dims", "10", "19", "89") == 0
        assert run("--config", str(cfg), "--workdir", str(wd),
                   "decompose", "--rank", "0") == 1

    def test_unknown_subcommand(self, workdir):
        wd, cfg = workdir
        assert run("--config", str(cfg), "--workdir", str(wd), "explode") == 1

    def test_missing_config_file(self, tmp_path):
        assert run("--config", str(tmp_path / "nope.yaml"), "report") == 1

    def test_non_integer_provenance_index(self, factor_workdir, capsys):
        wd, cfg = factor_workdir
        prov = wd / "prov.csv"
        prov.write_text(prov.read_text().replace("S3_r0,3", "S3_r0,three"))
        code = run("--config", str(cfg), "--workdir", str(wd), "project",
                   "--tensor", str(wd / "tensor.bin"), "--provenance", str(prov))
        assert code == 2
        assert "epoch_index" in capsys.readouterr().err

    @pytest.mark.parametrize("name,row", [
        ("weights.csv", "s1,r1,0,0.5,oops,0.1"),
        ("validation_pib.csv", "s1,r1,0,0.5"),
        ("validation_pib.csv", "s1,r1,0,0.5,inf,nan"),
    ], ids=["non-numeric", "ragged", "non-finite"])
    def test_malformed_feature_row(self, workdir, capsys, name, row):
        wd, cfg = workdir
        wd.mkdir(parents=True)
        (wd / "labels.csv").write_text("subject_id,label\ns0,CN\ns1,AD\n")
        (wd / name).write_text("subject_id,recording_id,epoch_index,w1,w2,w3\n"
                               "s0,r0,0,0.1,0.2,0.3\n" + row + "\n")
        code = run("--config", str(cfg), "--workdir", str(wd), "classify")
        assert code == 2
        assert f"{name} line 3" in capsys.readouterr().err

    def test_feature_csv_without_feature_column(self, workdir, capsys):
        wd, cfg = workdir
        wd.mkdir(parents=True)
        (wd / "labels.csv").write_text("subject_id,label\ns0,CN\ns1,AD\n")
        (wd / "weights.csv").write_text("subject_id,recording_id,epoch_index\ns0,r0,0\ns1,r1,0\n")
        assert run("--config", str(cfg), "--workdir", str(wd), "classify") == 2
        err = capsys.readouterr().err
        assert "error: weights.csv must start with" in err and "feature column" in err

    @pytest.mark.parametrize("row,problem", [
        ("rec_000.edf", "fewer fields than the header"),
        ("rec_000.edf,S0", "fewer fields than the header"),
        (",S0,CN", "path is empty"),
        ("rec_000.edf, ,CN", "subject_id is empty"),
    ], ids=["path-only", "no-label", "empty-path", "empty-subject"])
    def test_bad_manifest_row_names_line(self, workdir, capsys, row, problem):
        wd, cfg = workdir
        wd.mkdir(parents=True)
        (wd / "manifest.csv").write_text(f"path,subject_id,label\nrec_001.edf,S1,\n{row}\n")
        assert run("--config", str(cfg), "--workdir", str(wd),
                   "preprocess", "--manifest", str(wd / "manifest.csv")) == 2
        assert f"error: manifest.csv line 3: {problem}" in capsys.readouterr().err

    @pytest.mark.parametrize("argv,flag", [
        (("--mode", "edf", "--duration", "0"), "--duration"),
        (("--mode", "edf", "--duration", "-5"), "--duration"),
        (("--mode", "edf", "--duration", "nan"), "--duration"),
        (("--mode", "edf", "--duration", "0.001"), "--duration"),
        (("--mode", "edf", "--n-recordings", "-1"), "--n-recordings"),
        (("--dims", "0", "19", "89"), "--dims"),
        (("--mode", "cohort", "--subjects-per-class", "CN=2,CN=3"), "names CN twice"),
        (("--style", "random"), "unrecognized arguments"),
        (("--rank", "2"), "unrecognized arguments"),
    ], ids=["duration-0", "duration-negative", "duration-nan", "duration-below-one-sample",
            "n-recordings-negative", "dims-0", "class-twice", "style", "rank"])
    def test_bad_synth_flag_is_config_error(self, workdir, capsys, argv, flag):
        wd, cfg = workdir
        assert run("--config", str(cfg), "--workdir", str(wd), "synth", *argv) == 1
        err = capsys.readouterr().err
        assert "error: " in err and flag in err
        assert not (wd / "manifest.csv").exists() and not (wd / "tensor.bin").exists()

    @pytest.mark.parametrize("classes,problem", [
        ("CN=1,AD=3", "class CN needs at least 2 subjects"),
        ("CN=3,XX=3", "no weight parameters for class XX"),
    ], ids=["one-subject", "unknown-class"])
    def test_refused_cohort_leaves_work_dir_untouched(self, workdir, capsys, classes, problem):
        wd, cfg = workdir
        synth = ("synth", "--mode", "cohort", "--dims", "12", "19", "89", "--snr-db", "25")
        assert run("--config", str(cfg), "--workdir", str(wd), *synth,
                   "--subjects-per-class", "CN=3,AD=3") == 0
        before = {p.name: p.read_bytes() for p in wd.iterdir()}
        capsys.readouterr()
        # another seed, so a tensor written before the refusal would differ
        assert run("--config", str(cfg), "--workdir", str(wd), "--seed", "9", *synth,
                   "--subjects-per-class", classes) == 1
        assert problem in capsys.readouterr().err
        assert {p.name: p.read_bytes() for p in wd.iterdir()} == before

    @pytest.mark.parametrize("text,line", [
        ("subject_id,label\ns0,CN\ns1,XX\n", 3),
        ("subject_id,label\ns0,CN\ns1,\n", 3),
        ("subject_id,label\ns0,CN\ns1,AD\ns1,AD\ns0,AD\n", 5),
    ], ids=["unknown-label", "empty-label", "two-labels"])
    def test_bad_labels_name_line(self, workdir, capsys, text, line):
        wd, cfg = workdir
        wd.mkdir(parents=True)
        (wd / "labels.csv").write_text(text)
        (wd / "weights.csv").write_text("subject_id,recording_id,epoch_index,w1\n"
                                        "s0,r0,0,0.1\ns1,r1,0,0.2\n")
        assert run("--config", str(cfg), "--workdir", str(wd), "classify") == 2
        assert f"labels.csv line {line}" in capsys.readouterr().err

    @pytest.mark.parametrize("name,argv", [
        ("val.csv", ("project", "--manifest", "{wd}/val.csv")),
        ("labels.csv", ("classify",)),
        ("prov.csv", ("project", "--tensor", "{wd}/tensor.bin", "--provenance", "{wd}/prov.csv")),
        ("factors.json", ("project", "--tensor", "{wd}/tensor.bin",
                          "--provenance", "{wd}/prov.csv")),
    ], ids=["manifest", "labels", "provenance", "factors"])
    def test_non_utf8_file_names_file(self, factor_workdir, capsys, name, argv):
        wd, cfg = factor_workdir
        (wd / "val.csv").write_text("path,subject_id,label\nrec.edf,S0,CN\n")
        (wd / "labels.csv").write_text("subject_id,label\nS0,CN\n")
        (wd / "weights.csv").write_text("subject_id,recording_id,epoch_index,w1\nS0,r0,0,0.1\n")
        path = wd / name
        path.write_bytes(path.read_bytes()[:12] + b"\xff\xfe" + path.read_bytes()[12:])
        argv = [a.format(wd=wd) for a in argv]
        assert run("--config", str(cfg), "--workdir", str(wd), *argv) == 2
        err = capsys.readouterr().err
        assert f"{name} is not UTF-8 text" in err and "byte offset: 12" in err

    @pytest.mark.parametrize("argv,flag,missing", [
        (("preprocess", "--manifest", "{wd}/nope.csv"), "--manifest", "nope.csv"),
        (("project", "--manifest", "{wd}/nope.csv"), "--manifest", "nope.csv"),
        (("project", "--tensor", "{wd}/nope.bin", "--provenance", "{wd}/prov.csv"),
         "--tensor", "nope.bin"),
        (("project", "--tensor", "{wd}/tensor.bin", "--provenance", "{wd}/nope.csv"),
         "--provenance", "nope.csv"),
    ], ids=["preprocess-manifest", "project-manifest", "tensor", "provenance"])
    def test_missing_flag_file_names_flag_and_path(self, factor_workdir, capsys, argv, flag,
                                                   missing):
        wd, cfg = factor_workdir
        argv = [a.format(wd=wd) for a in argv]
        assert run("--config", str(cfg), "--workdir", str(wd), *argv) == 2
        err = capsys.readouterr().err
        assert flag in err and str(wd / missing) in err

    def test_negative_spectrum_names_row(self, factor_workdir, capsys):
        wd, cfg = factor_workdir
        data = load_tensor(wd / "tensor.bin").data.copy()
        data[4, 2, 7] = -1.0
        save_tensor(Tensor3(data), wd / "bad.bin")
        code = run("--config", str(cfg), "--workdir", str(wd), "project",
                   "--tensor", str(wd / "bad.bin"), "--provenance", str(wd / "prov.csv"))
        assert code == 2
        assert "tensor row 4" in capsys.readouterr().err

    def test_non_finite_factor_names_field(self, factor_workdir, capsys):
        wd, cfg = factor_workdir
        doc = json.loads((wd / "factors.json").read_text())
        doc["B"][5][1] = float("nan")
        (wd / "factors.json").write_text(json.dumps(doc))
        code = run("--config", str(cfg), "--workdir", str(wd), "project",
                   "--tensor", str(wd / "tensor.bin"), "--provenance", str(wd / "prov.csv"))
        assert code == 2
        assert "field: B" in capsys.readouterr().err

    @pytest.mark.parametrize("stage,name,text,field", [
        ("decompose", "rank_report.json", '{"modal_rank": 3', "body"),
        ("decompose", "rank_report.json", '{"r_max": 6}', "modal_rank"),
        ("decompose", "rank_report.json", '{"modal_rank": "3"}', "modal_rank"),
        ("report", "decompose_meta.json", '{"rank": 3, "fit": 0.9', "body"),
        ("report", "decompose_meta.json", '[3, 0.9]', "body"),
        ("report", "cv_report.json", '{"reports": [{"feature": "w"}]}', "reports"),
    ], ids=["truncated-rank", "no-modal-rank", "string-modal-rank",
            "truncated-meta", "meta-not-object", "cv-report-entry"])
    def test_malformed_json_artifact_names_file_and_field(
        self, factor_workdir, capsys, stage, name, text, field
    ):
        wd, cfg = factor_workdir
        (wd / name).write_text(text)
        assert run("--config", str(cfg), "--workdir", str(wd), stage) == 2
        err = capsys.readouterr().err
        assert name in err
        assert f"field: {field}" in err


class TestLoaderFuzz:
    VALID = {
        "manifest": b"path,subject_id,label\nrec_000.edf,S000,CN\nrec_001.edf,S001,\n",
        "factors": json.dumps({"rank": 1, "lambda": [2.0], "A": [[1.0], [0.5]],
                               "B": [[0.6], [0.8]], "C": [[1.0]]}).encode(),
        "provenance": b"epoch_row,subject_id,recording_id,epoch_index\n0,S0,S0_r0,3\n",
        "labels": b"subject_id,label\nS0,CN\nS1,AD\n",
        "features": b"subject_id,recording_id,epoch_index,w1,w2\nS0,r0,0,0.5,1e-3\n",
    }
    LOADERS = {
        "manifest": read_manifest,
        "factors": load_factors,
        "provenance": lambda p: _read_provenance(Path(p)),
        "labels": lambda p: _read_labels(Path(p)),
        "features": lambda p: _read_feature_csv(Path(p)),
    }

    @pytest.mark.parametrize("kind", sorted(VALID))
    def test_loader_is_total_on_fuzz(self, tmp_path, kind):
        # any byte stream must load or give a ParseError, never a crash
        rng = np.random.default_rng(8)
        base = self.VALID[kind]
        path = tmp_path / "input"
        path.write_bytes(base)
        self.LOADERS[kind](path)  # the unmutated file loads
        for trial in range(60):
            if trial % 3 == 0:
                blob = bytes(rng.integers(0, 256, size=int(rng.integers(0, 200)), dtype=np.uint8))
            else:
                mutated = bytearray(base)
                for _ in range(int(rng.integers(1, 6))):
                    pos = int(rng.integers(0, len(mutated)))
                    mutated[pos : pos + 1] = bytes([int(rng.integers(0, 256))])
                blob = bytes(mutated)
            path.write_bytes(blob)
            try:
                self.LOADERS[kind](path)
            except ParseError:
                pass

    def test_manifest_row_mutations(self, tmp_path):
        # each row cut short or with a field emptied: an empty label loads,
        # every other mutation is a ParseError naming the row's line
        path = tmp_path / "manifest.csv"
        header, *rows = self.VALID["manifest"].decode().splitlines()
        for i, row in enumerate(rows):
            fields = row.split(",")
            mutants = [",".join(fields[:n]) for n in (1, 2)]
            mutants += [",".join(fields[:j] + [""] + fields[j + 1:]) for j in range(3)]
            for mutant in mutants:
                lines = [header, *rows[:i], mutant, *rows[i + 1:]]
                path.write_text("\n".join(lines) + "\n")
                if mutant == ",".join(fields[:2] + [""]):
                    assert read_manifest(path)[i].subject_id == fields[1]
                    continue
                with pytest.raises(ParseError, match=f"manifest.csv line {i + 2}: "):
                    read_manifest(path)

    def test_tensor_loader_is_total_on_fuzz(self, tmp_path):
        # truncated, flipped and resized tensor files load or give a
        # ParseError, never a crash
        rng = np.random.default_rng(9)
        path = tmp_path / "tensor.bin"
        save_tensor(Tensor3(rng.random((3, 2, 4))), path)
        base = path.read_bytes()
        loaded = 0
        for trial in range(400):
            blob = bytearray(base)
            if trial % 4 == 0:  # truncated
                del blob[int(rng.integers(0, len(blob))):]
            elif trial % 4 == 1:  # bytes replaced, header included
                for _ in range(int(rng.integers(1, 4))):
                    pos = int(rng.integers(0, len(blob)))
                    blob[pos] = int(rng.integers(0, 256))
            elif trial % 4 == 2:  # header dims rewritten, zero and huge ones too
                sizes = (0, 1, 2, 3, 4, 6, 24, 2**31, 2**62, 2**64 - 1)
                dims = [sizes[k] for k in rng.integers(0, len(sizes), size=3)]
                blob[:24] = struct.pack("<3Q", *dims)
                if trial % 8 == 2:  # and the body dropped
                    del blob[24:]
            else:  # bytes appended or cut from the end
                cut = int(rng.integers(-16, 17))
                blob = blob[:cut] if cut < 0 else blob + bytes(cut)
            path.write_bytes(bytes(blob))
            try:
                out = load_tensor(path)
            except ParseError:
                continue
            assert isinstance(out, Tensor3)
            loaded += 1
        assert loaded > 0


class TestFeatureWriter:
    def test_rows_stream_without_a_list_per_epoch(self, tmp_path):
        import tracemalloc

        feats = np.random.default_rng(2).random((2000, 95))
        ids = [(f"s{e // 4}", f"s{e // 4}_r0", e % 4) for e in range(2000)]
        names = [f"x{j}" for j in range(95)]
        tracemalloc.start()
        try:
            cli._write_features(tmp_path / "f.csv", ids, names, feats)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # a list of row lists of Python floats reads about 5x the matrix
        assert peak <= 0.1 * feats.nbytes
        rows = read_csv(tmp_path / "f.csv")
        assert rows[0] == cli.ID_COLUMNS + names
        assert rows[1] == ["s0", "s0_r0", "0", *map(repr, feats[0].tolist())]
        assert len(rows) == 1 + 2000

    def test_failing_row_source_leaves_no_file(self, tmp_path):
        def rows():
            yield ("s0", "s0_r0", 0, 1.0)
            raise RuntimeError("row source failed")

        path = tmp_path / "f.csv"
        with pytest.raises(RuntimeError, match="row source failed"):
            cli._write_csv(path, cli.ID_COLUMNS + ["x"], rows())
        assert list(tmp_path.iterdir()) == []


class TestImportCost:
    def test_cli_import_loads_no_heavy_scipy(self):
        # every stage is a fresh interpreter, so a top-level import of one of
        # these adds its load time (about 1.3 s for all four) to every stage
        heavy = ("scipy.signal", "scipy.stats", "scipy.optimize", "scipy.linalg")
        probe = (
            "import sys; import eegfactor.cli; import eegfactor; "
            f"print(' '.join(m for m in {heavy!r} if m in sys.modules))"
        )
        env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
        out = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                             text=True, check=True, timeout=120)
        assert out.stdout.split() == []

    def test_flow_runs_with_scipy_unimportable(self, workdir):
        # scipy is a test dependency only: a fresh interpreter that cannot
        # import it still runs every stage of the synthetic flow, then
        # preprocess and project --manifest on EDF files
        wd, cfg = workdir
        base = ["--config", str(cfg), "--workdir", str(wd)]
        manifest = str(wd / "manifest.csv")
        stages = [
            ["synth", "--mode", "cohort", "--dims", "20", "19", "89", "--snr-db", "25",
             "--subjects-per-class", "CN=6,MCI=5,AD=6", "--epochs-per-subject", "2"],
            ["diffit"],
            ["decompose"],
            ["project", "--tensor", str(wd / "cohort_tensor.bin"),
             "--provenance", str(wd / "cohort_provenance.csv")],
            ["classify"],
            ["report"],
            ["synth", "--mode", "edf", "--n-recordings", "2", "--duration", "50"],
            ["preprocess", "--manifest", manifest],
            ["project", "--manifest", manifest],
        ]
        probe = (
            "import sys\n"
            "sys.modules['scipy'] = None\n"
            "from eegfactor.cli import main\n"
            f"print([main({base!r} + stage) for stage in {stages!r}])\n"
        )
        env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
        out = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                             text=True, check=True, timeout=120)
        assert out.stdout.splitlines()[-1] == str([0] * len(stages))
        assert {r[1] for r in read_csv(wd / "weights.csv")[1:]} == {"rec_000", "rec_001"}
