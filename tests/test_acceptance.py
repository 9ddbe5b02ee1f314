"""Acceptance gate: ten numbered end-to-end checks at fixed tolerances.

Every check prints a single pass/fail line so a full run reads as a
checklist. The heavyweight checks (9 and 10) drive the real command-line
pipeline on a synthetic scene with two planted stroke populations.
"""

import csv
import dataclasses
import hashlib
import itertools
import math
import time
from contextlib import contextmanager

import numpy as np
import pytest

from locosparse import gabor
from locosparse.cli import entrypoint
from locosparse.encoder import EncoderConfig, encode, momentum_schedule
from locosparse.gabor import (_FREQ_CEIL, _FREQ_FLOOR, _SIGMA_FLOOR, GaborParams, fold_phase,
                              gabor_fit, render_gabor)
from locosparse.graphs import (bipartite_laplacian, knn_adjacency,
                               laplacian_from_adjacency)
from locosparse.penalties import BatchObjective, PenaltyConfig
from locosparse.rfeval import sta_receptive_fields
from locosparse.simplex import project_columns
from locosparse.spectral import spectral_cluster
from locosparse.tensor import save_tensor
from locosparse.trainer import load_model

from make_golden import GOLDEN_ARTIFACTS, KERNEL_ARTIFACTS, openblas_core, read_golden_table
from oracles import (connected_components_bfs, fd_gradient,
                     jacobi_eigenvalues_classical,
                     simplex_projection_bruteforce)
from synthdata import phase_contrast_scene


@contextmanager
def _verdict(capsys, label):
    info = {"detail": ""}
    try:
        yield info
    except BaseException:
        with capsys.disabled():
            print(f"\n{label}: FAIL")
        raise
    with capsys.disabled():
        print(f"\n{label}: PASS ({info['detail']})")


def test_criterion_01_simplex_projection_matches_enumeration(capsys):
    with _verdict(capsys, "criterion 1, simplex projection vs enumeration oracle") as info:
        rng = np.random.default_rng(101)
        start = time.monotonic()
        worst = 0.0
        for _ in range(1000):
            m = int(rng.integers(1, 7))
            v = rng.normal(size=m) * rng.uniform(0.5, 3.0) + rng.uniform(-2.0, 2.0)
            diff = np.abs(project_columns(v[:, None])[:, 0] - simplex_projection_bruteforce(v))
            worst = max(worst, float(diff.max()))
        elapsed = time.monotonic() - start
        assert worst < 1e-9
        assert elapsed < 5.0
        info["detail"] = f"1000 vectors, max entry error {worst:.1e}, {elapsed:.2f}s"


def test_criterion_02_analytic_gradients_match_finite_differences(capsys):
    with _verdict(capsys, "criterion 2, analytic gradients vs central differences") as info:
        rng = np.random.default_rng(202)
        start = time.monotonic()
        worst = {"code": 0.0, "atom": 0.0, "graph": 0.0}

        def rel(analytic, numeric):
            return float(np.linalg.norm(analytic - numeric)
                         / max(np.linalg.norm(numeric), 1e-30))

        for _ in range(50):
            d, m, n = 6, 5, 7
            A = rng.normal(size=(d, m))
            Y = rng.normal(size=(d, n))
            X = rng.normal(size=(m, n))
            # the one graph bind builds: the k = 3 kNN Laplacian of the batch
            G = laplacian_from_adjacency(knn_adjacency(Y, 3))
            lam = float(rng.uniform(0.1, 2.0))
            y, x = Y[:, 0].copy(), X[:, 0].copy()

            def f_code(xv):
                r = y - A @ xv
                dists = ((y[:, None] - A) ** 2).sum(axis=0)
                return 0.5 * float(r @ r) + lam * float(xv @ dists)

            def f_atom(Av):
                R = Y - Av @ X
                total = 0.5 * float((R * R).sum())
                for j in range(m):
                    for i in range(n):
                        delta = Y[:, i] - Av[:, j]
                        total += lam * X[j, i] * float(delta @ delta)
                return total

            def f_graph(Xv):
                R = Y - A @ Xv
                return 0.5 * float((R * R).sum()) + lam * float(np.trace(Xv @ G @ Xv.T))

            wl = PenaltyConfig("wl", lam)
            code = BatchObjective(wl, A, y[:, None]).code_gradient(x[:, None])[:, 0]
            graph = BatchObjective(PenaltyConfig("lap", lam, knn_k=3), A, Y).code_gradient(X)
            worst["code"] = max(worst["code"], rel(code, fd_gradient(f_code, x)))
            worst["atom"] = max(worst["atom"], rel(
                wl.atom_gradient(A, Y, X), fd_gradient(f_atom, A)))
            worst["graph"] = max(worst["graph"], rel(graph, fd_gradient(f_graph, X)))
        elapsed = time.monotonic() - start
        assert max(worst.values()) < 1e-6
        assert elapsed < 10.0
        info["detail"] = (f"50 instances x 3 suites, worst rel err "
                          f"{max(worst.values()):.1e}, {elapsed:.2f}s")


def test_criterion_03_momentum_schedule_closed_forms(capsys):
    with _verdict(capsys, "criterion 3, momentum schedule closed forms") as info:
        etas, gammas = momentum_schedule(15, "aswritten")
        golden = (1.0 + math.sqrt(5.0)) / 2.0
        errors = [abs(etas[0]), abs(etas[1] - 1.0),
                  abs(etas[2] - golden),
                  abs(gammas[0] + 1.0), abs(gammas[1])]
        for t in range(15):
            want = (1.0 + math.sqrt(1.0 + 4.0 * etas[t])) / 2.0
            errors.append(abs(etas[t + 1] - want))
            errors.append(abs(gammas[t] - (etas[t] - 1.0) / etas[t + 1]))
        assert max(errors) < 1e-15
        info["detail"] = f"eta/gamma worst deviation {max(errors):.1e}"


def test_criterion_04_unrolled_encoder_descends_on_the_simplex(capsys):
    # the codes start at the infeasible all-zero code, so the descent
    # window is the 15 values the steps themselves produce; the value
    # after step t is the objective of a t-step encode, which runs
    # exactly the first t steps of the 15
    with _verdict(capsys, "criterion 4, plain unrolled encoder descent and feasibility") as info:
        cfg = EncoderConfig(PenaltyConfig("wl", 0.5), steps=15, momentum_mode="none")
        worst_rise = -np.inf
        worst_neg = np.inf
        worst_sum = 0.0
        for seed in range(30):
            rng = np.random.default_rng(400 + seed)
            A = rng.normal(size=(16, 16))
            A /= np.linalg.norm(A, axis=0)
            Y = rng.normal(size=(16, 32))
            X, _ = encode(Y, A, cfg)
            rises = np.diff([encode(Y, A, dataclasses.replace(cfg, steps=t))[1]
                             for t in range(1, 16)])
            worst_rise = max(worst_rise, float(rises.max()))
            worst_neg = min(worst_neg, float(X.min()))
            worst_sum = max(worst_sum, float(np.abs(X.sum(axis=0) - 1.0).max()))
        assert worst_rise <= 1e-10
        assert worst_neg >= -1e-12
        assert worst_sum <= 1e-12
        info["detail"] = (f"30 instances, worst rise {worst_rise:.1e}, "
                          f"simplex error {max(-worst_neg, worst_sum):.1e}")


def test_criterion_05_knn_laplacian_invariants(capsys):
    with _verdict(capsys, "criterion 5, kNN Laplacian invariants on 100 graphs") as info:
        worst_row = 0.0
        worst_eig = np.inf
        for i in range(100):
            rng = np.random.default_rng(2000 + i)
            b = int(rng.integers(6, 13))
            Y = rng.normal(size=(3, b))
            M = laplacian_from_adjacency(knn_adjacency(Y, 4))
            worst_row = max(worst_row, float(np.abs(M.sum(axis=1)).max()))
            evals = jacobi_eigenvalues_classical(M)
            worst_eig = min(worst_eig, float(evals.min()))
            W = -(M - np.diag(np.diag(M)))
            components = len(set(connected_components_bfs(W)))
            assert int((np.abs(evals) < 1e-8).sum()) == components
        assert worst_row < 1e-10
        assert worst_eig > -1e-9
        info["detail"] = (f"row sums <= {worst_row:.1e}, min eigenvalue "
                          f"{worst_eig:.1e}, multiplicities all matched")


def _disconnected_block_codes(rng):
    blocks = int(rng.integers(2, 4))
    while True:
        atoms = rng.integers(1, 4, size=blocks)
        stims = rng.integers(1, 4, size=blocks)
        if atoms.sum() + stims.sum() <= 12:
            break
    X = np.zeros((int(atoms.sum()), int(stims.sum())))
    r0 = c0 = 0
    for b in range(blocks):
        X[r0:r0 + atoms[b], c0:c0 + stims[b]] = rng.uniform(
            0.2, 1.0, size=(atoms[b], stims[b]))
        r0 += atoms[b]
        c0 += stims[b]
    return X, blocks


def test_criterion_06_spectral_clustering_recovers_components(capsys):
    with _verdict(capsys, "criterion 6, spectral clustering vs traversal oracle") as info:
        exact = 0
        for i in range(100):
            rng = np.random.default_rng(1000 + i)
            X, blocks = _disconnected_block_codes(rng)
            G = bipartite_laplacian(X)
            W = -(G - np.diag(np.diag(G)))
            truth = connected_components_bfs(W)
            labels = spectral_cluster(G, blocks, seed=i)
            want = {frozenset(np.flatnonzero(truth == c)) for c in set(truth)}
            got = {frozenset(np.flatnonzero(labels == c)) for c in set(labels)}
            exact += int(want == got)
        assert exact == 100
        info["detail"] = f"{exact}/100 partitions exact"


def test_criterion_07_sta_recovers_relu_linear_filters(capsys):
    with _verdict(capsys, "criterion 7, STA vs planted ReLU-linear filters") as info:
        rng = np.random.default_rng(99)
        W = rng.normal(size=(64, 16))
        W /= np.linalg.norm(W, axis=0)

        def respond(Y):
            return np.maximum(W.T @ Y, 0.0)

        start = time.monotonic()
        fields = sta_receptive_fields(respond, 8, 100000, 5)
        elapsed = time.monotonic() - start
        cosines = []
        for j, image in enumerate(fields):
            assert image.any()
            v = image.reshape(-1)
            cosines.append(float(v @ W[:, j]) / float(np.linalg.norm(v)))
        assert min(cosines) > 0.95
        assert elapsed < 60.0
        info["detail"] = (f"16 neurons, 100000 samples, min cosine "
                          f"{min(cosines):.4f}, {elapsed:.2f}s")


def test_criterion_08_gabor_recovery_across_parameter_grid(capsys):
    with _verdict(capsys, "criterion 8, noiseless Gabor recovery on a 50-point grid") as info:
        side = 16
        center = (side - 1) / 2.0
        thetas = [0.1, 0.7, 1.3, 1.9, 2.5]
        freqs = [0.10, 0.15, 0.20, 0.28, 0.35]
        phases = [0.0, math.pi / 2]
        hits = 0
        unconverged = 0
        wrong_converged = []
        for th, f, ph in itertools.product(thetas, freqs, phases):
            truth = GaborParams(1.0, center, center, th, 2.8, 2.2, f, ph)
            fit = gabor_fit(render_gabor(truth, side))
            if not fit.converged:
                unconverged += 1
                continue
            d_theta = abs(fit.theta - th) % math.pi
            d_theta = math.degrees(min(d_theta, math.pi - d_theta))
            d_freq = abs(fit.freq - f) / f
            d_phase = abs(fold_phase(fit.phase) - fold_phase(ph))
            if (d_theta < 5.0 and d_freq < 0.10 and d_phase < 10.0
                    and fit.residual < 1e-3):
                hits += 1
            else:
                wrong_converged.append((th, f, ph))
        assert not wrong_converged, wrong_converged
        assert hits >= 48
        assert hits + unconverged == 50
        info["detail"] = f"{hits}/50 recovered, {unconverged} flagged non-converged"


_TRAIN_FLAGS = ["--lambda", "0.5", "--patch-size", "8", "--num-atoms", "64",
                "--epochs", "200", "--batch-size", "100", "--seed", "7"]


def _run_contrast_pipeline(root):
    data = root / "scene.sct"
    save_tensor(phase_contrast_scene(), str(data))
    for penalty, tag in (("wl", "wl"), ("l1", "sc")):
        assert entrypoint(["train", "--data", str(data), "--penalty", penalty,
                           "--out", str(root / f"{tag}_run")] + _TRAIN_FLAGS) == 0
        assert entrypoint(["eval", "--model", str(root / f"{tag}_run"),
                           "--source", "atoms", "--bins", "9",
                           "--out", str(root / f"{tag}_eval")]) == 0
        assert entrypoint(["render", "--tensor", str(root / f"{tag}_run.sct"),
                           "--out", str(root / f"{tag}_grid.svg")]) == 0


@pytest.fixture(scope="module")
def contrast_run(tmp_path_factory):
    root = tmp_path_factory.mktemp("contrast")
    start = time.monotonic()
    _run_contrast_pipeline(root)
    return root, time.monotonic() - start


def _summary_symmetry(path):
    pairs = dict(line.split("=", 1) for line in path.read_text().splitlines())
    return float(pairs["symmetry_score"])


def _low_phase_mass(path):
    rows = path.read_text().splitlines()[1:]
    counts = [int(row.split(",")[2]) for row in rows]
    assert len(counts) == 9
    return sum(counts[:3]) / sum(counts)


def test_criterion_09_locality_penalty_restores_even_symmetric_fields(contrast_run, capsys):
    with _verdict(capsys, "criterion 9, locality penalty vs plain sparse baseline") as info:
        root, elapsed = contrast_run
        wl_sym = _summary_symmetry(root / "wl_eval.summary.txt")
        sc_sym = _summary_symmetry(root / "sc_eval.summary.txt")
        wl_mass = _low_phase_mass(root / "wl_eval.phases.csv")
        sc_mass = _low_phase_mass(root / "sc_eval.phases.csv")
        assert wl_sym > sc_sym
        assert wl_mass > sc_mass
        assert elapsed < 900.0
        info["detail"] = (f"symmetry {wl_sym:.3f} vs {sc_sym:.3f}, low-phase mass "
                          f"{wl_mass:.3f} vs {sc_mass:.3f}, {elapsed:.0f}s")


def test_converged_gate_atom_fits_lie_on_the_patch(contrast_run, capsys):
    # a converged fit lies inside every bound of the fitter's feasible
    # region: centre on the patch, sigma floor, frequency floor and ceiling
    side = int(_TRAIN_FLAGS[_TRAIN_FLAGS.index("--patch-size") + 1])

    def outside_the_region(row):
        return not (all(-0.5 <= float(row[key]) <= side - 0.5 for key in ("u0", "v0"))
                    and all(float(row[key]) > _SIGMA_FLOOR for key in ("sigma_x", "sigma_y"))
                    and _FREQ_FLOOR < float(row["freq"]) < _FREQ_CEIL)

    with _verdict(capsys, "gate atom fits, every converged fit inside every bound") as info:
        root, _ = contrast_run
        counts = []
        for name in ("wl_eval.gabor.csv", "sc_eval.gabor.csv"):
            with open(root / name, newline="", encoding="utf-8") as fh:
                rows = [row for row in csv.DictReader(fh) if row["converged"] == "true"]
            outside = [row["neuron_id"] for row in rows if outside_the_region(row)]
            assert not outside, (name, outside)
            counts.append(len(rows))
        info["detail"] = f"wl {counts[0]}, l1 {counts[1]} converged fits, all inside every bound"


def test_gate_atom_fits_stay_within_their_work_bound(contrast_run, monkeypatch, capsys):
    # model evaluations (the grid, each start, each trial) of the gate atom
    # fits: 1848-1877 (wl) and 2072-2093 (l1) under the SkylakeX, Haswell and
    # Prescott kernels, with a start cut off once it is still at residual 0.5
    # or more after _CUTOFF_ITERS iterations, against 2279-2311 and 4842-4862
    # when such a start ran on to the step tolerance or _MAX_ITERS
    calls = [0]
    evaluate = gabor._evaluate

    def counted(q, u, v):
        calls[0] += 1
        return evaluate(q, u, v)

    monkeypatch.setattr(gabor, "_evaluate", counted)
    with _verdict(capsys, "gate atom fits, model evaluations under their work bound") as info:
        root, _ = contrast_run
        details = []
        for penalty, tag, bound in (("wl", "wl", 2200), ("l1", "sc", 2500)):
            dictionary, _ = load_model(str(root / f"{tag}_run"))
            side = dictionary.patch_side
            calls[0] = 0
            fits = [gabor_fit(atom.reshape(side, side)) for atom in dictionary.atoms.T]
            with open(root / f"{tag}_eval.gabor.csv", newline="", encoding="utf-8") as fh:
                flags = [row["converged"] == "true" for row in csv.DictReader(fh)]
            assert [fit.converged for fit in fits] == flags, penalty
            assert calls[0] < bound, (penalty, calls[0])
            details.append(f"{penalty} {calls[0]} < {bound} ({sum(flags)} converged)")
        info["detail"] = ", ".join(details)


def test_gate_atom_fits_converge_alike_without_the_cutoff(contrast_run, monkeypatch, capsys):
    # the cut stops only starts still at residual 0.5 or more, and LM never
    # raises the sse, so a start below 0.5 runs as it would without the cut;
    # with the cut disabled every flag and every converged fit must stay
    # the same, bit for bit
    with _verdict(capsys, "gate atom fits, converged fits unchanged without the cutoff") as info:
        root, _ = contrast_run
        details = []
        for penalty, tag in (("wl", "wl"), ("l1", "sc")):
            dictionary, _ = load_model(str(root / f"{tag}_run"))
            side = dictionary.patch_side
            images = [atom.reshape(side, side) for atom in dictionary.atoms.T]
            fits = [gabor_fit(image) for image in images]
            with monkeypatch.context() as patch:
                patch.setattr(gabor, "_CUTOFF_ITERS", gabor._MAX_ITERS)
                uncut = [gabor_fit(image) for image in images]
            assert [fit.converged for fit in fits] == [fit.converged for fit in uncut], penalty
            changed = [j for j, (fit, other) in enumerate(zip(fits, uncut)) if fit.converged
                       and dataclasses.astuple(fit) != dataclasses.astuple(other)]
            assert not changed, (penalty, changed)
            details.append(f"{penalty} {sum(fit.converged for fit in fits)} converged")
        info["detail"] = ", ".join(details) + " fits identical"


def test_gate_atom_fits_are_invariant_under_the_patch_symmetries(contrast_run, capsys):
    # rotating, transposing, mirroring or negating a field maps a Gabor onto a
    # Gabor with the same folded phase, so its fit may change only by rounding
    transforms = {"rot90": np.rot90, "transpose": np.transpose,
                  "left-right flip": np.fliplr, "negation": np.negative}
    with _verdict(capsys, "gate atom fits, invariant under the patch symmetries") as info:
        root, _ = contrast_run
        checked = 0
        for tag in ("wl", "sc"):
            dictionary, _ = load_model(str(root / f"{tag}_run"))
            side = dictionary.patch_side
            with open(root / f"{tag}_eval.gabor.csv", newline="", encoding="utf-8") as fh:
                flags = [row["converged"] == "true" for row in csv.DictReader(fh)]
            # the first four converged atoms and the first two unconverged ones
            chosen = ([j for j, flag in enumerate(flags) if flag][:4]
                      + [j for j, flag in enumerate(flags) if not flag][:2])
            for j in chosen:
                image = dictionary.atoms[:, j].reshape(side, side)
                fit = gabor_fit(image)
                for name, transform in transforms.items():
                    other = gabor_fit(transform(image))
                    where = (tag, j, name)
                    assert other.converged == fit.converged, where
                    assert abs(fold_phase(other.phase) - fold_phase(fit.phase)) <= 1e-4, where
                    assert abs(other.residual - fit.residual) <= 1e-3, where
                    checked += 1
        info["detail"] = f"{checked} transformed fits agree"


def test_contrast_artifacts_match_the_golden_table(contrast_run, capsys):
    # all 15 artifacts on a core the table records, the 9 that every kernel
    # writes alike on any other
    version, digests, by_core = read_golden_table()
    if version.split(".")[0] != np.__version__.split(".")[0]:
        pytest.skip(f"the golden table was recorded on numpy {version}; whether it "
                    f"holds on numpy {np.__version__} has not been checked")
    core = openblas_core()
    with _verdict(capsys, f"gate artifacts on OpenBLAS core {core}, SHA-256 as in the "
                          "golden table") as info:
        root, _ = contrast_run
        assert sorted(digests) == sorted(GOLDEN_ARTIFACTS)
        assert all(sorted(row) == sorted(KERNEL_ARTIFACTS) for row in by_core.values())
        expected = {**digests, **by_core.get(core, {})}
        for name, digest in expected.items():
            assert hashlib.sha256((root / name).read_bytes()).hexdigest() == digest, name
        info["detail"] = f"{len(expected)} artifacts as recorded on numpy {version}"
        if core not in by_core:
            info["detail"] += (f"; core {core} is not recorded for the other "
                               f"{len(KERNEL_ARTIFACTS)}")


def test_criterion_10_pipeline_is_bit_reproducible(contrast_run, tmp_path, capsys):
    with _verdict(capsys, "criterion 10, rerun produces bit-identical artifacts") as info:
        root, _ = contrast_run
        rerun = tmp_path / "rerun"
        rerun.mkdir()
        _run_contrast_pipeline(rerun)
        names = ["scene.sct",
                 "wl_run.sct", "sc_run.sct", "wl_run.meta", "sc_run.meta",
                 "wl_run.loss.csv", "sc_run.loss.csv",
                 "wl_eval.gabor.csv", "wl_eval.phases.csv", "wl_eval.summary.txt",
                 "sc_eval.gabor.csv", "sc_eval.phases.csv", "sc_eval.summary.txt",
                 "wl_grid.svg", "sc_grid.svg"]
        for name in names:
            assert (rerun / name).read_bytes() == (root / name).read_bytes(), name
        info["detail"] = f"{len(names)} artifacts byte-identical"
