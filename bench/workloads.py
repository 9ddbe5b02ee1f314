"""The benchmark's three workloads: their inputs, commands and checks.

Every input derives from the workload seed. The training scene is the
acceptance-gate scene of tests/synthdata.py, with wavelet seed
`seed - 6` and stroke seed `seed - 4`, so seed 7 rebuilds the gate
scene exactly (wavelet seed 1, stroke seed 3, `train --seed 7`).

Each command names the files it writes under `out/` and a check that
parses them; the runner wipes `out/` before every pass, so a pass never
reads another pass's outputs.

Every pass runs at least one `train`, one `eval` and one `cluster`, so
`train_s`, `eval_s` and `cluster_s` are measured in every run. Where a
workload's own commands lack a kind, a probe command of that kind runs:
a tiny `train`, an `eval` of a four-atom Gabor model, or a bipartite
`cluster` of 32 vertices. Probes are checked like any command but kept
out of the span metrics and the exact call counts, so those describe
the workload's own commands only.

A command that takes a few seconds or less is one sample of a machine
whose speed swings 20-40% from sample to sample, and a run holds only
one or two passes. So every probe, and sta-graph's two `cluster`
commands, run REPEATS times in a pass (sta-graph's probe twice that),
spread between its long commands, each repeat writing its own outputs;
the kind's time in a pass sums them.
"""

import math
from dataclasses import dataclass

from checks import check_cluster, check_eval, check_render, check_train

PATCH_SIDE = 8
NUM_ATOMS = 64
EPOCHS = 200
BATCH_SIZE = 100
STA_CHUNK = 1024          # sta_receptive_fields' default chunk size
CODE_STIMULI = 64         # columns of the bipartite code matrix: 64 + 64 = 128 vertices
PLANTED_CLUSTERS = 4
PLANTED_STIMULI = 128
NO_CONVERGED_FITS = "no converged fits to bin"
PROBE_ATOMS = 4           # probe `eval` model: four Gabor atoms, all fits converge
PROBE_EPOCHS = 10         # probe `train`: 10 batches of 20 patches, four atoms
PROBE_BATCH = 20
PROBE_SIDES = (8, 24)     # probe `cluster`: 8 atoms x 24 stimuli in two blocks
REPEATS = 3               # runs of each short command in one pass


def gate_flags(seed):
    """The acceptance-gate training flags (criterion 9)."""
    return ["--lambda", "0.5", "--patch-size", str(PATCH_SIDE),
            "--num-atoms", str(NUM_ATOMS), "--epochs", str(EPOCHS),
            "--batch-size", str(BATCH_SIZE), "--seed", str(seed)]


@dataclass(frozen=True)
class Command:
    kind: str            # the locosparse subcommand
    args: tuple          # arguments after `python -m locosparse`
    check: object        # callable(cwd) -> (output paths, parsed summary or None)
    known_failure: str = ""   # stderr reason of a documented defect, if any
    probe: bool = False  # only there so the pass runs a command of this kind


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    setup: object        # callable(seed, directory, run_train)
    commands: object     # callable(seed) -> list[Command]
    expected_calls: dict  # span -> calls of the own commands of one traced pass
    min_passes: int = 2   # untraced passes a run makes even past --seconds


def _train(seed, penalty, prefix):
    def check(cwd):
        return check_train(cwd, prefix, PATCH_SIDE, NUM_ATOMS, EPOCHS), None
    return Command("train", ("train", "--data", "inputs/scene.sct", "--penalty", penalty,
                             *gate_flags(seed), "--out", prefix), check)


def _eval(args, prefix, source, known_failure="", neurons=NUM_ATOMS, probe=False):
    def check(cwd):
        return check_eval(cwd, prefix, neurons, 9, source)
    return Command("eval", ("eval", *args, "--source", source, "--bins", "9", "--out", prefix),
                   check, known_failure, probe)


def _render(tensor, out):
    def check(cwd):
        return check_render(cwd, out, NUM_ATOMS, PATCH_SIDE), None
    return Command("render", ("render", "--tensor", tensor, "--cols", "8", "--out", out), check)


def _cluster(codes, mode, sides, out, seed, extra=(), k=PLANTED_CLUSTERS, probe=False):
    def check(cwd):
        return check_cluster(cwd, out, sides, k), None
    return Command("cluster", ("cluster", "--codes", codes, "--k", str(k), "--mode", mode,
                               *extra, "--seed", str(seed), "--out", out), check, probe=probe)


def _probe_train(seed, n):
    prefix = f"out/probe{n}"

    def check(cwd):
        return check_train(cwd, prefix, PATCH_SIDE, PROBE_ATOMS, PROBE_EPOCHS), None
    return Command("train", ("train", "--data", "inputs/scene.sct", "--penalty", "l1",
                             "--patch-size", str(PATCH_SIDE), "--num-atoms", str(PROBE_ATOMS),
                             "--epochs", str(PROBE_EPOCHS), "--batch-size", str(PROBE_BATCH),
                             "--seed", str(seed), "--out", prefix), check, probe=True)


def _probe_eval(n):
    return _eval(("--model", "inputs/probe"), f"out/probe_eval{n}", "atoms",
                 neurons=PROBE_ATOMS, probe=True)


def _probe_cluster(seed, n):
    atoms, stimuli = PROBE_SIDES
    return _cluster("inputs/probe_codes.sct", "bipartite",
                    ["atom"] * atoms + ["stimulus"] * stimuli, f"out/probe_clusters{n}.csv",
                    seed, k=2, probe=True)


def _sta_clusters(seed, n):
    """sta-graph's bipartite and planted-stimuli `cluster` commands, repeat n."""
    return [
        _cluster("inputs/codes.sct", "bipartite",
                 ["atom"] * NUM_ATOMS + ["stimulus"] * CODE_STIMULI,
                 f"out/codes_clusters{n}.csv", seed),
        _cluster("inputs/stimuli.sct", "stimuli", ["stimulus"] * PLANTED_STIMULI,
                 f"out/stimuli_clusters{n}.csv", seed, ("--knn-k", "4")),
    ]


def build_scene(seed, directory):
    from locosparse.tensor import save_tensor
    from synthdata import edge_strokes, wavelet_field

    save_tensor(wavelet_field(seed=seed - 6) + edge_strokes(seed=seed - 4),
                str(directory / "scene.sct"))


def build_probe_inputs(seed, directory):
    """A four-atom Gabor model for the probe `eval`, two-block codes for the probe `cluster`."""
    import numpy as np

    from locosparse.gabor import GaborParams, render_gabor
    from locosparse.penalties import PenaltyConfig
    from locosparse.rng import CounterRng, derive_seed
    from locosparse.tensor import save_tensor
    from locosparse.trainer import Dictionary, TrainConfig, TrainedModel, save_model

    centre = (PATCH_SIDE - 1) / 2.0
    atoms = np.stack([render_gabor(GaborParams(1.0, centre, centre, j * np.pi / PROBE_ATOMS,
                                               1.6, 1.6, 0.2, (j % 2) * np.pi / 2),
                                   PATCH_SIDE).ravel() for j in range(PROBE_ATOMS)], axis=1)
    atoms /= np.linalg.norm(atoms, axis=0)
    config = TrainConfig(PROBE_ATOMS, PATCH_SIDE, PenaltyConfig("l1", 0.5), epochs=0,
                         seed=seed)
    save_model(TrainedModel(Dictionary(atoms, PATCH_SIDE), config, np.zeros(0)),
               str(directory / "probe"))

    m, n = PROBE_SIDES
    rng = CounterRng(derive_seed(seed, "bench-probe-codes"))
    codes = np.zeros((m, n))
    codes[: m // 2, : n // 2] = 0.5 + rng.uniforms(m // 2 * n // 2).reshape(m // 2, n // 2)
    codes[m // 2:, n // 2:] = 0.5 + rng.uniforms(m // 2 * n // 2).reshape(m // 2, n // 2)
    save_tensor(codes, str(directory / "probe_codes.sct"))


def _scene_and_probes(seed, directory, run_train):
    build_scene(seed, directory)
    build_probe_inputs(seed, directory)


def _sta_graph_inputs(seed, directory, run_train):
    """Scene, wl and lap models (real `train`), a code matrix, planted stimuli."""
    from locosparse.encoder import EncoderConfig, encode
    from locosparse.patches import PatchSamplerConfig, sample_patches
    from locosparse.penalties import PenaltyConfig
    from locosparse.rng import CounterRng, derive_seed
    from locosparse.tensor import load_tensor, save_tensor
    from locosparse.trainer import load_model

    build_scene(seed, directory)
    for penalty in ("wl", "lap"):
        run_train(["train", "--data", "scene.sct", "--penalty", penalty,
                   *gate_flags(seed), "--out", penalty], directory)

    # wl codes of scene patches: simplex columns, as the pipeline makes them
    dictionary, meta = load_model(str(directory / "wl"))
    batch = sample_patches(load_tensor(str(directory / "scene.sct")),
                           PatchSamplerConfig(PATCH_SIDE, CODE_STIMULI,
                                              derive_seed(seed, "bench-codes")))
    cfg = EncoderConfig(PenaltyConfig(meta["penalty"], meta["lambda"]),
                        meta["steps"], meta["momentum_mode"])
    codes, _ = encode(batch.patches, dictionary.atoms, cfg)
    save_tensor(codes, str(directory / "codes.sct"))

    # equal-sized Gaussian clusters around well-separated centres
    rng = CounterRng(derive_seed(seed, "bench-stimuli"))
    d = PATCH_SIDE * PATCH_SIDE
    centres = 3.0 * rng.normals(d * PLANTED_CLUSTERS).reshape(PLANTED_CLUSTERS, d).T
    labels = [i % PLANTED_CLUSTERS for i in range(PLANTED_STIMULI)]
    stimuli = centres[:, labels] + rng.normals(d * PLANTED_STIMULI).reshape(d, PLANTED_STIMULI)
    save_tensor(stimuli, str(directory / "stimuli.sct"))


def _gate_atoms(seed):
    wl, l1 = (
        [_train(seed, penalty, f"out/{penalty}"),
         _eval(("--model", f"out/{penalty}"), f"out/{penalty}_eval", "atoms"),
         _render(f"out/{penalty}.sct", f"out/{penalty}_grid.svg")]
        for penalty in ("wl", "l1"))
    probes = [_probe_cluster(seed, n) for n in range(REPEATS)]
    return [wl[0], probes[0], *wl[1:], probes[1], *l1, probes[2]]


def _learn(seed):
    commands = []
    for n, penalty in enumerate(("wl", "l1", "lap")):
        commands += [_train(seed, penalty, f"out/{penalty}"),
                     _probe_eval(n), _probe_cluster(seed, n)]
    return commands


def _sta_graph(seed):
    # a run holds one sta-graph pass against two of the other workloads,
    # so the probe `train` runs twice as often: six samples a run either way
    probes = iter([_probe_train(seed, n) for n in range(2 * REPEATS)])
    return [
        next(probes), *_sta_clusters(seed, 0), next(probes),
        _eval(("--model", "inputs/wl", "--samples", "20000", "--seed", str(seed)),
              "out/wl_sta", "sta"),
        next(probes), *_sta_clusters(seed, 1), next(probes),
        # Known defect: every lap fit runs, then the command exits 1 and
        # leaves an orphan .gabor.csv. Kept in the pass so it stays visible.
        _eval(("--model", "inputs/lap", "--samples", "2048", "--seed", str(seed)),
              "out/lap_sta", "sta", known_failure=NO_CONVERGED_FITS),
        next(probes), *_sta_clusters(seed, 2), next(probes),
    ]


# expected_calls: span call counts of the own commands of one traced pass.
# They follow from the commands alone, so they repeat exactly and are
# checked exactly (each `train` digests the scene, each `eval` the
# model's .sct and .meta). sta-graph makes one untraced pass per run: a
# pass (~34 s) and two set-ups (each two gate-flag trains, ~7 s) take
# ~48 s, and the benchmark's whole series of runs has to fit in under an
# hour.
WORKLOADS = {w.name: w for w in (
    Workload(
        "gate-atoms",
        "the paper's headline experiment (criterion 9): Gabor fitting of the atoms "
        "dominates; kNN is bypassed, the eigensolver runs only in a 32-vertex probe",
        _scene_and_probes, _gate_atoms,
        {"gabor.gabor_fit": 2 * NUM_ATOMS, "encoder.encode": 2 * EPOCHS,
         "patches.sample_patches": 2 * EPOCHS, "manifest.digest_file": 2 + 2 * 2,
         "graphs.knn_adjacency": 0, "spectral.symmetric_eigendecomposition": 0}),
    Workload(
        "learn",
        "training: encoder, simplex, patches, trainer and manifest hashing; Gabor "
        "and spectral work only in two tiny probe commands",
        _scene_and_probes, _learn,
        {"encoder.encode": 3 * EPOCHS, "patches.sample_patches": 3 * EPOCHS,
         "graphs.knn_adjacency": EPOCHS, "manifest.digest_file": 3,
         "gabor.gabor_fit": 0, "spectral.symmetric_eigendecomposition": 0}),
    Workload(
        "sta-graph",
        "the encoder on 1024-column chunks of a fixed dictionary, the d*b^2 kNN "
        "scratch, and the Jacobi eigensolver at 128 vertices",
        _sta_graph_inputs, _sta_graph,
        {"encoder.encode": math.ceil(20000 / STA_CHUNK) + math.ceil(2048 / STA_CHUNK),
         "graphs.knn_adjacency": math.ceil(2048 / STA_CHUNK) + REPEATS,
         "rfeval.sta_receptive_fields": 2,
         "spectral.symmetric_eigendecomposition": 2 * REPEATS,
         "patches.sample_patches": 0},
        min_passes=1),
)}
