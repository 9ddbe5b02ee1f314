"""End-to-end command-line behavior: exit codes, output files, determinism."""

import argparse
import csv
import time
import warnings
import xml.etree.ElementTree as ET

import numpy as np
import pytest

from locosparse import cli, penalties, trainer
from locosparse.cli import build_parser, entrypoint
from locosparse.gabor import GaborParams, render_gabor
from locosparse.manifest import digest_file
from locosparse.penalties import PenaltyConfig
from locosparse.tensor import save_tensor
from locosparse.trainer import Dictionary, TrainConfig, TrainedModel, save_model

from synthdata import dead_leaves_image


TRAIN_ARGS = ["--penalty", "l1", "--lambda", "0.3", "--patch-size", "4",
              "--num-atoms", "6", "--steps", "5", "--epochs", "6",
              "--batch-size", "12", "--seed", "3"]


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    data = root / "image.sct"
    save_tensor(dead_leaves_image(side=40, num_discs=40, seed=11,
                                  r_min=3.0, r_max=12.0), str(data))
    model = root / "model"
    code = entrypoint(["train", "--data", str(data), "--out", str(model)]
                      + TRAIN_ARGS)
    assert code == 0
    return root


def test_train_writes_all_outputs(workspace):
    for suffix in (".sct", ".meta", ".loss.csv", ".manifest.txt"):
        assert (workspace / f"model{suffix}").exists()
    loss = (workspace / "model.loss.csv").read_text().splitlines()
    assert loss[0] == "batch,loss"
    assert len(loss) > 1
    first = loss[1].split(",")
    assert first[0] == "0" and float(first[1]) > 0


def test_train_is_deterministic(workspace):
    out = workspace / "again"
    code = entrypoint(["train", "--data", str(workspace / "image.sct"),
                       "--out", str(out)] + TRAIN_ARGS)
    assert code == 0
    for suffix in (".sct", ".meta", ".loss.csv"):
        assert (out.parent / f"again{suffix}").read_bytes() == \
            (workspace / f"model{suffix}").read_bytes()


def test_train_manifest_records_verifiable_input_digest(workspace):
    lines = (workspace / "model.manifest.txt").read_text().splitlines()
    input_lines = [ln for ln in lines if ln.startswith("input=")]
    assert len(input_lines) == 1
    path, _, digest = input_lines[0][len("input="):].rpartition(" fnv1a64=")
    assert f"{digest_file(path):016x}" == digest


def test_eval_from_atoms(workspace, capsys):
    out = workspace / "ev"
    code = entrypoint(["eval", "--model", str(workspace / "model"),
                       "--source", "atoms", "--bins", "9", "--out", str(out)])
    assert code == 0
    gabor = (workspace / "ev.gabor.csv").read_text().splitlines()
    assert gabor[0].startswith("neuron_id,K,u0,v0,theta_rad")
    assert len(gabor) == 1 + 6
    assert all(row.split(",")[-1] in ("true", "false") for row in gabor[1:])

    phases = (workspace / "ev.phases.csv").read_text().splitlines()
    assert phases[0] == "bin_lo_deg,bin_hi_deg,count"
    assert len(phases) == 1 + 9
    assert float(phases[1].split(",")[0]) == 0.0
    assert float(phases[-1].split(",")[1]) == 90.0

    summary = dict(ln.split("=", 1)
                   for ln in (workspace / "ev.summary.txt").read_text().splitlines())
    assert summary["neurons"] == "6"
    assert int(summary["converged"]) + int(summary["non_converged"]) == 6
    assert summary["source"] == "atoms"
    captured = capsys.readouterr()
    assert "fitted" in captured.out


@pytest.fixture(scope="module")
def gabor_model(workspace):
    # a dictionary of clean oriented filters: the fitter converges on the
    # atoms and on their STA fields
    side = 8
    specs = [(0.3, 0.25, 0.0), (1.2, 0.30, np.pi / 2),
             (2.0, 0.20, 0.3), (0.9, 0.35, -np.pi / 2)]
    cols = []
    for theta, freq, phase in specs:
        img = render_gabor(GaborParams(1.0, 3.5, 3.5, theta, 1.6, 1.6,
                                       freq, phase), side)
        vec = img.reshape(-1)
        cols.append(vec / np.linalg.norm(vec))
    atoms = np.stack(cols, axis=1)
    cfg = TrainConfig(num_atoms=4, patch_side=side,
                      penalty=PenaltyConfig("wl", 0.05), epochs=0)
    model = TrainedModel(Dictionary(atoms, side), cfg, np.zeros(0))
    prefix = workspace / "gabor_model"
    save_model(model, str(prefix))
    return prefix


def test_eval_from_sta_responses(workspace, gabor_model):
    out = workspace / "sta"
    code = entrypoint(["eval", "--model", str(gabor_model),
                       "--source", "sta", "--samples", "5000",
                       "--seed", "1", "--out", str(out)])
    assert code == 0
    summary = dict(ln.split("=", 1)
                   for ln in (workspace / "sta.summary.txt").read_text().splitlines())
    assert summary["source"] == "sta"
    assert int(summary["converged"]) == 4


def test_eval_statistics_count_only_converged_fits(tmp_path):
    # four clean Gabor atoms converge and two flat ones cannot; the phase
    # counts and the balance score read the converged rows of .gabor.csv
    side = 8
    cols = [render_gabor(GaborParams(1.0, 3.5, 3.5, theta, 1.6, 1.6, 0.25, phase),
                         side).reshape(-1)
            for theta, phase in [(0.3, 0.0), (1.2, 0.3), (2.0, 0.5), (0.9, np.pi / 2)]]
    cols += [np.full(side * side, 1.0 / side)] * 2
    atoms = np.stack([c / np.linalg.norm(c) for c in cols], axis=1)
    cfg = TrainConfig(num_atoms=6, patch_side=side,
                      penalty=PenaltyConfig("wl", 0.05), epochs=0)
    save_model(TrainedModel(Dictionary(atoms, side), cfg, np.zeros(0)), str(tmp_path / "m"))
    assert entrypoint(["eval", "--model", str(tmp_path / "m"), "--source", "atoms",
                       "--bins", "6", "--out", str(tmp_path / "e")]) == 0

    with open(tmp_path / "e.gabor.csv", newline="") as f:
        rows = list(csv.DictReader(f))
    folded = [float(r["phase_folded_deg"]) for r in rows if r["converged"] == "true"]
    unconverged = sum(r["converged"] == "false" for r in rows)
    assert len(folded) >= 1 and unconverged >= 1

    counts = [int(ln.rsplit(",", 1)[1])
              for ln in (tmp_path / "e.phases.csv").read_text().splitlines()[1:]]
    summary = dict(ln.split("=", 1)
                   for ln in (tmp_path / "e.summary.txt").read_text().splitlines())
    assert sum(counts) == len(folded) == int(summary["converged"])
    assert int(summary["non_converged"]) == unconverged
    below = sum(f < 45.0 for f in folded)
    above = len(folded) - below
    assert float(summary["symmetry_score"]) == min(below, above) / max(below, above)


def test_train_standardize_reaches_every_batch(tmp_path, monkeypatch):
    # a constant left half gives constant patches; the right half is textured
    image = np.full((24, 24), 0.5)
    image[:, 12:] = dead_leaves_image(side=24, num_discs=30, seed=5)[:, 12:]
    save_tensor(image, str(tmp_path / "half.sct"))
    batches = []
    real_encode = trainer.encode

    def recording_encode(Y, A, cfg):
        batches.append(Y.copy())
        return real_encode(Y, A, cfg)

    monkeypatch.setattr(trainer, "encode", recording_encode)
    out = tmp_path / "std"
    assert entrypoint(["train", "--data", str(tmp_path / "half.sct"), *TRAIN_ARGS,
                       "--standardize", "--out", str(out)]) == 0
    assert len(batches) == 6
    Y = np.concatenate(batches, axis=1)
    constant = np.all(Y == 0.0, axis=0)
    assert 0 < constant.sum() < Y.shape[1]
    live = Y[:, ~constant]
    assert np.allclose(live.mean(axis=0), 0.0, atol=1e-12)
    assert np.allclose(np.linalg.norm(live, axis=0), 1.0, atol=1e-12)
    assert "config.standardize=True" in (tmp_path / "std.manifest.txt").read_text().splitlines()


def test_trained_knn_k_reaches_every_lap_graph(workspace, monkeypatch):
    # k = 3 is not the default 4, so a graph built with a default shows
    calls = []
    real_knn = penalties.knn_adjacency

    def recording_knn(Y, k):
        calls.append((k, Y.shape[1]))
        return real_knn(Y, k)

    monkeypatch.setattr(penalties, "knn_adjacency", recording_knn)
    prefix = workspace / "lap_k3"
    args = ["--penalty", "lap", "--knn-k", "3", "--patch-size", "4",
            "--num-atoms", "6", "--steps", "5", "--epochs", "4",
            "--batch-size", "12", "--seed", "3"]
    assert entrypoint(["train", "--data", str(workspace / "image.sct"),
                       "--out", str(prefix)] + args) == 0
    assert calls == [(3, 12)] * 4
    assert "knn_k=3" in (workspace / "lap_k3.meta").read_text().splitlines()

    # two STA chunks of 1024 and 476 columns; the graph calls come before
    # any Gabor fit, so they hold whether or not a lap fit converges
    calls.clear()
    entrypoint(["eval", "--model", str(prefix), "--source", "sta",
                "--samples", "1500", "--seed", "1", "--out", str(workspace / "lap_k3_sta")])
    assert calls == [(3, 1024), (3, 476)]


def test_eval_without_converged_fits_writes_nothing(workspace, capsys):
    # constant atoms carry no oscillation, so no fit converges and the
    # phase histogram has nothing to bin
    side = 4
    atoms = np.full((side * side, 3), 1.0 / side)
    cfg = TrainConfig(num_atoms=3, patch_side=side,
                      penalty=PenaltyConfig("l1", 0.3), epochs=0)
    prefix = workspace / "flat_model"
    save_model(TrainedModel(Dictionary(atoms, side), cfg, np.zeros(0)), str(prefix))

    code = entrypoint(["eval", "--model", str(prefix), "--source", "atoms",
                       "--out", str(workspace / "flat")])
    assert code == 1
    assert "no converged fits to bin" in capsys.readouterr().err
    assert list(workspace.glob("flat.*")) == []


def test_render_produces_parseable_svg(workspace):
    out = workspace / "grid.svg"
    code = entrypoint(["render", "--tensor", str(workspace / "model.sct"),
                       "--cols", "3", "--cell", "16", "--out", str(out)])
    assert code == 0
    root = ET.fromstring(out.read_text())
    assert root.tag.endswith("svg")
    assert list(workspace.glob("grid.svg*")) == [out]  # render keeps no manifest


def test_cluster_bipartite(workspace):
    codes = workspace / "codes.sct"
    X = np.zeros((4, 6))
    X[:2, :3] = 0.5
    X[2:, 3:] = 0.5
    save_tensor(X, str(codes))
    out = workspace / "clusters.csv"
    code = entrypoint(["cluster", "--codes", str(codes), "--k", "2",
                       "--mode", "bipartite", "--out", str(out)])
    assert code == 0
    rows = out.read_text().splitlines()
    assert rows[0] == "vertex_id,side,label"
    assert len(rows) == 1 + 4 + 6
    sides = [r.split(",")[1] for r in rows[1:]]
    assert sides == ["atom"] * 4 + ["stimulus"] * 6
    labels = [int(r.split(",")[2]) for r in rows[1:]]
    # the two planted blocks land in distinct clusters
    assert labels[0] == labels[1] == labels[4] == labels[5] == labels[6]
    assert labels[2] == labels[3] == labels[7] == labels[8] == labels[9]
    assert labels[0] != labels[2]


def test_cluster_bipartite_is_scale_free(workspace):
    # codes of magnitude ~1e5 and ~1e17 are as valid as codes near 1;
    # power-of-two scales are exact, so the labels must not move
    rng = np.random.default_rng(8)
    X = 0.01 * rng.uniform(size=(4, 6))
    X[:2, :3] += 0.5 + rng.uniform(size=(2, 3))
    X[2:, 3:] += 0.5 + rng.uniform(size=(2, 3))
    csvs = []
    for power in (0, 17, 40):
        codes = workspace / f"scaled{power}.sct"
        save_tensor(X * 2.0 ** power, str(codes))
        out = workspace / f"scaled{power}.csv"
        code = entrypoint(["cluster", "--codes", str(codes), "--k", "2",
                           "--mode", "bipartite", "--out", str(out)])
        assert code == 0, power
        csvs.append(out.read_bytes())
    assert csvs[1] == csvs[0]
    assert csvs[2] == csvs[0]


def test_cluster_stimuli_mode(workspace):
    codes = workspace / "stim_codes.sct"
    rng = np.random.default_rng(0)
    X = np.abs(rng.normal(size=(4, 9)))
    save_tensor(X, str(codes))
    out = workspace / "stim_clusters.csv"
    code = entrypoint(["cluster", "--codes", str(codes), "--k", "2",
                       "--mode", "stimuli", "--knn-k", "2", "--out", str(out)])
    assert code == 0
    rows = out.read_text().splitlines()
    assert len(rows) == 1 + 9
    assert {r.split(",")[1] for r in rows[1:]} == {"stimulus"}


def test_missing_required_flag_exits_2():
    with pytest.raises(SystemExit) as exc:
        entrypoint(["train", "--penalty", "l1"])
    assert exc.value.code == 2


def test_bad_choice_exits_2():
    with pytest.raises(SystemExit) as exc:
        entrypoint(["train", "--data", "x.sct", "--penalty", "l7",
                    "--out", "y"])
    assert exc.value.code == 2


def test_non_positive_numeric_flag_exits_2():
    # one value just past each bound, next to the other flags' required values
    required = {"train": ["--data", "x.sct", "--penalty", "l1"],
                "eval": ["--model", "m"],
                "cluster": ["--codes", "x.sct", "--mode", "bipartite"],
                "render": ["--tensor", "x.sct"]}
    bad = {"train": [["--num-atoms", "0"], ["--patch-size", "1"],
                     ["--lambda", "nan"], ["--lambda", "inf"], ["--lambda", "-0.1"],
                     ["--epochs", "-1"], ["--steps", "0"], ["--batch-size", "0"],
                     ["--knn-k", "0"]],
           "eval": [["--bins", "1"], ["--samples", "0"]],
           "cluster": [["--k", "0"], ["--knn-k", "0"]],
           "render": [["--cols", "0"], ["--cell", "0"], ["--cell", "nan"],
                      ["--cell", "inf"]]}
    for command, flags in bad.items():
        for flag in flags:
            with pytest.raises(SystemExit) as exc:
                entrypoint([command, *required[command], *flag, "--out", "y"])
            assert exc.value.code == 2, (command, flag)


def _option_dests(command):
    """The dests of a subcommand's options, read from the parser itself."""
    subparsers = next(action for action in build_parser()._actions
                      if isinstance(action, argparse._SubParsersAction))
    return {action.dest for action in subparsers.choices[command]._actions} - {"help"}


@pytest.mark.parametrize("command", ["train", "eval", "cluster"])
def test_manifest_records_every_option_and_every_output(workspace, gabor_model, tmp_path,
                                                        command):
    out = tmp_path / ("groups.csv" if command == "cluster" else "run")
    args = {"train": ["--data", str(workspace / "image.sct"), *TRAIN_ARGS],
            "eval": ["--model", str(gabor_model), "--source", "atoms"],
            "cluster": ["--codes", str(workspace / "model.sct"), "--k", "2",
                        "--mode", "stimuli", "--knn-k", "2"]}[command]
    assert entrypoint([command, *args, "--out", str(out)]) == 0
    lines = (tmp_path / f"{out.name}.manifest.txt").read_text().splitlines()
    config = {line.partition("=")[0].removeprefix("config.")
              for line in lines if line.startswith("config.")}
    assert config == _option_dests(command) - {"out"}
    outputs = [line.removeprefix("output=") for line in lines if line.startswith("output=")]
    assert sorted(outputs) == sorted(str(path) for path in tmp_path.iterdir())


def test_manifest_duration_survives_a_wall_clock_step_back(workspace, tmp_path, monkeypatch):
    # the wall clock steps back an hour after its first reading
    start = time.time()
    readings = iter([start])
    monkeypatch.setattr(time, "time", lambda: next(readings, start - 3600.0))
    out = tmp_path / "groups.csv"
    assert entrypoint(["cluster", "--codes", str(workspace / "model.sct"), "--k", "2",
                       "--mode", "stimuli", "--knn-k", "2", "--out", str(out)]) == 0
    last = (tmp_path / "groups.csv.manifest.txt").read_text().splitlines()[-1]
    assert last.startswith("duration_seconds=")
    assert float(last.partition("=")[2]) >= 0.0


def test_cluster_k_exceeding_vertices_returns_2(workspace, capsys):
    out = workspace / "bad.csv"
    code = entrypoint(["cluster", "--codes", str(workspace / "codes.sct"),
                       "--k", "50", "--mode", "bipartite", "--out", str(out)])
    assert code == 2
    assert "exceeds the vertex count" in capsys.readouterr().err
    assert list(workspace.glob("bad.csv*")) == []


def test_train_config_conflicts_exit_2_and_write_nothing(tmp_path, capsys):
    # each flag is valid alone; together with the data they cannot run
    data = tmp_path / "small.sct"
    save_tensor(dead_leaves_image(side=16, num_discs=10, seed=2), str(data))
    for flags in (["--penalty", "l1", "--patch-size", "20"],
                  ["--penalty", "lap", "--patch-size", "4", "--batch-size", "3",
                   "--knn-k", "4"]):
        out = tmp_path / "conflict"
        code = entrypoint(["train", "--data", str(data), "--out", str(out),
                           "--epochs", "2", *flags])
        assert code == 2, flags
        assert "locosparse: error:" in capsys.readouterr().err
        assert list(tmp_path.glob("conflict*")) == [], flags


def test_cluster_rejects_non_2d_codes(workspace):
    vec = workspace / "vector.sct"
    save_tensor(np.arange(5.0), str(vec))
    code = entrypoint(["cluster", "--codes", str(vec), "--k", "2",
                       "--mode", "bipartite", "--out", str(workspace / "v.csv")])
    assert code == 2


def test_cluster_stimuli_knn_k_too_large_returns_2(workspace):
    code = entrypoint(["cluster", "--codes", str(workspace / "codes.sct"),
                       "--k", "2", "--mode", "stimuli", "--knn-k", "6",
                       "--out", str(workspace / "v.csv")])
    assert code == 2


@pytest.mark.parametrize("flags", [["--cell", "1e308"], ["--cols", "1" + "0" * 400]],
                         ids=["cell-1e308", "cols-1e400"])
def test_render_canvas_overflow_exits_2_and_writes_nothing(workspace, flags, capsys):
    out = workspace / "overflow.svg"
    code = entrypoint(["render", "--tensor", str(workspace / "model.sct"),
                       "--out", str(out), *flags])
    assert code == 2
    assert "locosparse: error:" in capsys.readouterr().err
    assert list(workspace.glob("overflow.svg*")) == []


@pytest.mark.parametrize("codes", [
    [[1e308, 1e308, 0.0], [0.0, 0.5, 1e308]],
    [[1e308, 0.5], [0.5, 1e308]],
], ids=["degree-sum-overflows", "symmetrization-overflows"])
def test_cluster_bipartite_overflow_exits_1_and_writes_nothing(tmp_path, capsys, codes):
    # the first case's atom degree overflows; the second's degrees are
    # finite, but above half the float maximum the eigenvalues can overflow
    data = tmp_path / "codes.sct"
    save_tensor(np.array(codes), str(data))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = entrypoint(["cluster", "--codes", str(data), "--k", "2",
                           "--mode", "bipartite", "--out", str(tmp_path / "out.csv")])
    assert code == 1
    assert [str(w.message) for w in caught] == []
    err = capsys.readouterr().err
    assert err.startswith("locosparse: error:") and "overflow" in err
    assert list(tmp_path.iterdir()) == [data]


def test_train_with_overflowing_atom_norms_exits_1_and_writes_nothing(tmp_path, capsys):
    # a huge wl charge leaves finite atoms whose squared norms overflow; an
    # inf norm would divide those atoms to zero
    data = tmp_path / "image.sct"
    save_tensor(dead_leaves_image(8), str(data))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = entrypoint(["train", "--data", str(data), "--out", str(tmp_path / "m"),
                           "--penalty", "wl", "--lambda", "1e200", "--patch-size", "4",
                           "--num-atoms", "8", "--epochs", "5", "--batch-size", "10",
                           "--seed", "7"])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("locosparse: error:") and "overflow" in err
    assert list(tmp_path.iterdir()) == [data]


def test_render_rejects_non_2d_tensor(workspace):
    vec = workspace / "vector1d.sct"
    save_tensor(np.arange(4.0), str(vec))
    code = entrypoint(["render", "--tensor", str(vec),
                       "--out", str(workspace / "v.svg")])
    assert code == 2


TRAIN_L1 = ["--penalty", "l1", "--patch-size", "4", "--epochs", "2"]


@pytest.mark.parametrize("command, array", [
    (["render", "--tensor"], np.arange(15.0).reshape(5, 3)),
    (["train", *TRAIN_L1, "--data"], np.arange(400.0)),
    (["train", *TRAIN_L1, "--data"], np.ones((16, 16, 2, 2))),
    (["cluster", "--k", "2", "--mode", "bipartite", "--codes"],
     np.array([[0.5, -0.1, 0.2], [0.3, 0.4, 0.1]])),
], ids=["render-5x3", "train-1d", "train-4d", "cluster-bipartite-signed"])
def test_tensor_the_command_cannot_use_exits_2_and_writes_nothing(tmp_path, capsys,
                                                                  command, array):
    # the library's own shape checks raise ConfigError, so these are usage
    # errors without a check of their own in the CLI
    data = tmp_path / "input.sct"
    save_tensor(array, str(data))
    code = entrypoint([*command, str(data), "--out", str(tmp_path / "out")])
    assert code == 2
    assert "locosparse: error:" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == [data]


def test_missing_data_file_returns_1(workspace, capsys):
    code = entrypoint(["train", "--data", str(workspace / "nope.sct"),
                       "--penalty", "l1", "--out", str(workspace / "n")])
    assert code == 1
    assert "locosparse: error:" in capsys.readouterr().err


def test_missing_model_returns_1(workspace):
    code = entrypoint(["eval", "--model", str(workspace / "ghost"),
                       "--out", str(workspace / "g")])
    assert code == 1


@pytest.mark.parametrize("command", ["train", "eval", "cluster", "render"])
def test_failed_write_exits_1_and_names_the_path(workspace, gabor_model, tmp_path,
                                                 capsys, command):
    out = tmp_path / "nodir" / "out"
    args = {"train": ["--data", str(workspace / "image.sct"), *TRAIN_ARGS],
            "eval": ["--model", str(gabor_model), "--source", "atoms"],
            "cluster": ["--codes", str(workspace / "model.sct"), "--k", "2",
                        "--mode", "stimuli", "--knn-k", "2"],
            "render": ["--tensor", str(workspace / "model.sct")]}[command]
    assert entrypoint([command, *args, "--out", str(out)]) == 1
    assert f"cannot write {out}" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("message, shown", [
    ("Unable to allocate 7.28 TiB for an array with shape (1000000000000,)",
     "Unable to allocate 7.28 TiB"),
    ("", "out of memory")], ids=["numpy", "bare"])
@pytest.mark.parametrize("command", ["train", "eval"])
def test_failed_allocation_exits_1_without_traceback(tmp_path, monkeypatch, capsys,
                                                     command, message, shown):
    # a stand-in for a refused allocation: a real one of this size may be
    # granted by an overcommitting kernel and the process then killed
    def refuse(args):
        raise MemoryError(message)

    monkeypatch.setattr(cli, f"_cmd_{command}", refuse)
    args = {"train": ["--data", "x.sct", "--penalty", "l1"],
            "eval": ["--model", "m", "--source", "atoms"]}[command]
    assert entrypoint([command, *args, "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert f"locosparse: error: {shown}" in err and "Traceback" not in err
    assert list(tmp_path.iterdir()) == []


def _copy_model(source, prefix, meta_bytes):
    prefix.with_suffix(".sct").write_bytes(source.with_suffix(".sct").read_bytes())
    prefix.with_suffix(".meta").write_bytes(meta_bytes)


@pytest.mark.parametrize("source", ["sta", "atoms"])
def test_non_utf8_meta_exits_1_without_traceback(gabor_model, tmp_path, capsys, source):
    meta = gabor_model.with_suffix(".meta").read_bytes()
    _copy_model(gabor_model, tmp_path / "m", meta.replace(b"penalty=wl", b"penalty=w\xff"))
    code = entrypoint(["eval", "--model", str(tmp_path / "m"), "--source", source,
                       "--samples", "200", "--out", str(tmp_path / "e")])
    assert code == 1
    err = capsys.readouterr().err
    assert "locosparse: error:" in err and "Traceback" not in err
    assert list(tmp_path.glob("e.*")) == []


@pytest.mark.parametrize("source", ["sta", "atoms"])
@pytest.mark.parametrize("key, bad", [("penalty", "l7"), ("steps", "0"),
                                      ("lambda", "nan"), ("momentum_mode", "turbo"),
                                      ("epochs", "-3"), ("batch_size", "0"),
                                      ("patch_side", "-8"), ("patch_side", "1")])
def test_corrupt_meta_value_exits_1_and_writes_nothing(gabor_model, tmp_path, capsys,
                                                       source, key, bad):
    lines = gabor_model.with_suffix(".meta").read_text(encoding="utf-8").splitlines()
    lines = [f"{key}={bad}" if line.startswith(f"{key}=") else line for line in lines]
    _copy_model(gabor_model, tmp_path / "m", "\n".join(lines).encode("utf-8"))
    code = entrypoint(["eval", "--model", str(tmp_path / "m"), "--source", source,
                       "--samples", "200", "--out", str(tmp_path / "e")])
    assert code == 1
    assert f"{tmp_path / 'm'}.meta: " in capsys.readouterr().err
    assert list(tmp_path.glob("e.*")) == []


def test_atom_eval_of_a_model_with_huge_steps_builds_no_schedule(gabor_model, tmp_path):
    # steps only shapes the encoder, which an atom eval never runs; loading
    # the model checks the value without building a 2**62-step schedule
    meta = gabor_model.with_suffix(".meta").read_text(encoding="utf-8")
    assert "\nsteps=15\n" in meta
    huge = meta.replace("\nsteps=15\n", f"\nsteps={2 ** 62}\n")
    _copy_model(gabor_model, tmp_path / "m", huge.encode("utf-8"))
    for prefix, out in ((gabor_model, tmp_path / "ref"), (tmp_path / "m", tmp_path / "e")):
        code = entrypoint(["eval", "--model", str(prefix), "--source", "atoms",
                           "--out", str(out)])
        assert code == 0
    assert ((tmp_path / "e.gabor.csv").read_bytes()
            == (tmp_path / "ref.gabor.csv").read_bytes())


def test_sta_eval_of_a_model_with_huge_steps_exits_1_and_writes_nothing(gabor_model, tmp_path,
                                                                       capsys):
    # numpy refuses a 2**62-step schedule before allocating anything
    meta = gabor_model.with_suffix(".meta").read_text(encoding="utf-8")
    _copy_model(gabor_model, tmp_path / "m",
                meta.replace("\nsteps=15\n", f"\nsteps={2 ** 62}\n").encode("utf-8"))
    code = entrypoint(["eval", "--model", str(tmp_path / "m"), "--source", "sta",
                       "--samples", "200", "--out", str(tmp_path / "e")])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("locosparse: error:") and f"steps={2 ** 62}" in err
    assert "Traceback" not in err
    assert list(tmp_path.glob("e.*")) == []
