"""Unrolled encoder: schedule exactness, step size, descent, and paths."""

import dataclasses
import math

import numpy as np
import pytest

from locosparse import encoder
from locosparse.encoder import (MOMENTUM_MODES, EncoderConfig, encode,
                                momentum_schedule, spectral_norm_sq_inv)
from locosparse.errors import ConfigError, LocosparseError
from locosparse.graphs import knn_adjacency, laplacian_from_adjacency
from locosparse.penalties import KINDS, BatchObjective, PenaltyConfig
from locosparse.simplex import pairwise_sq_distances, project_columns

from oracles import jacobi_eigenvalues_classical, project_columns_colwise


def test_aswritten_schedule_closed_forms():
    etas, gammas = momentum_schedule(15, "aswritten")
    golden = (1.0 + math.sqrt(5.0)) / 2.0
    assert abs(etas[0] - 0.0) < 1e-15
    assert abs(etas[1] - 1.0) < 1e-15
    assert abs(etas[2] - golden) < 1e-15
    assert abs(gammas[0] - (-1.0)) < 1e-15
    assert abs(gammas[1] - 0.0) < 1e-15
    # recurrence: eta(t+1) solves eta^2 - eta - eta(t) = 0
    for t in range(15):
        lhs = etas[t + 1] ** 2 - etas[t + 1]
        assert abs(lhs - etas[t]) < 1e-12
    for t in range(15):
        want = (etas[t] - 1.0) / etas[t + 1]
        assert abs(gammas[t] - want) < 1e-15


def test_none_schedule_is_all_zero():
    gammas = momentum_schedule(8, "none")[1]
    assert np.all(gammas == 0.0)


def test_schedule_prefixes_are_shorter_schedules():
    # a t-step encode runs exactly the first t steps of a longer one
    for mode in MOMENTUM_MODES:
        full = momentum_schedule(15, mode)[1]
        for t in range(1, 16):
            assert np.array_equal(momentum_schedule(t, mode)[1], full[:t]), (mode, t)


def test_schedule_rejects_bad_arguments():
    # The schedule's step count and mode are checked once, where the
    # encoder config is built; momentum_schedule trusts them.
    pen = PenaltyConfig("wl", 0.5)
    for steps in (0, -1):
        with pytest.raises(ConfigError, match="steps must be positive"):
            EncoderConfig(pen, steps=steps)
    with pytest.raises(ConfigError, match="unknown momentum mode 'nesterov'"):
        EncoderConfig(pen, steps=5, momentum_mode="nesterov")


def test_encoder_config_validation():
    pen = PenaltyConfig("wl", 0.5)
    with pytest.raises(ConfigError):
        EncoderConfig(pen, steps=0)
    for mode in ("turbo", "fista"):
        with pytest.raises(ConfigError, match=r"expected one of \('aswritten', 'none'\)"):
            EncoderConfig(pen, momentum_mode=mode)


def test_step_size_against_jacobi_oracle():
    rng = np.random.default_rng(4)
    for _ in range(10):
        A = rng.normal(size=(10, 6))
        est = spectral_norm_sq_inv(A)
        evals = jacobi_eigenvalues_classical(A.T @ A)
        want = 1.0 / evals[-1]
        assert est == pytest.approx(want, rel=1e-6)


def test_step_size_orthonormal_columns_is_one():
    q, _ = np.linalg.qr(np.random.default_rng(9).normal(size=(12, 5)))
    assert spectral_norm_sq_inv(q) == pytest.approx(1.0, rel=1e-8)


def test_step_size_zero_matrix_raises():
    with pytest.raises(LocosparseError) as excinfo:
        spectral_norm_sq_inv(np.zeros((4, 4)))
    assert excinfo.type is LocosparseError


def _random_instance(seed, d=16, m=16, n=32):
    rng = np.random.default_rng(seed)
    A = rng.normal(size=(d, m))
    A /= np.linalg.norm(A, axis=0)
    Y = rng.normal(size=(d, n))
    return A, Y


def _objective_per_step(Y, A, cfg):
    """The objective after each of cfg.steps steps; a t-step encode is
    exactly the first t steps of a longer one."""
    return np.array([encode(Y, A, dataclasses.replace(cfg, steps=t))[1]
                     for t in range(1, cfg.steps + 1)])


def test_wl_descent_and_simplex_feasibility():
    # the codes start at the infeasible all-zero code, so the descent
    # guarantee covers the values produced by the 15 steps themselves
    for seed in range(10):
        A, Y = _random_instance(seed)
        cfg = EncoderConfig(PenaltyConfig("wl", 0.5), steps=15, momentum_mode="none")
        X, _ = encode(Y, A, cfg)
        diffs = np.diff(_objective_per_step(Y, A, cfg))
        assert diffs.max() <= 1e-10
        assert X.min() >= -1e-12
        assert np.abs(X.sum(axis=0) - 1.0).max() <= 1e-12


def test_lap_descent_with_supplied_graph():
    # descent needs the step 1/sigma_max(A)^2 to cover the graph term's
    # curvature 2 lam lambda_max(G) as well; the encoder does not check this
    A, Y = _random_instance(77, n=12)
    lam = 0.1
    G = laplacian_from_adjacency(knn_adjacency(Y, 4))
    assert 2 * lam * np.linalg.eigvalsh(G)[-1] <= np.linalg.norm(A, 2) ** 2
    cfg = EncoderConfig(PenaltyConfig("lap", lam, knn_k=4), steps=15, momentum_mode="none")
    X, _ = encode(Y, A, cfg)
    assert np.diff(_objective_per_step(Y, A, cfg)).max() <= 1e-10
    assert np.abs(X.sum(axis=0) - 1.0).max() <= 1e-12


def test_l1_path_matches_handrolled_ista():
    # the same loop for every penalty and momentum mode: a gradient step on
    # the smooth part, then soft thresholding (l1) or the simplex projection
    # (wl, lap), then the lookahead Xn + gamma_t (Xn - X). l1 and wl match
    # to the byte; the lap pull here uses G + G^T, so it rounds apart
    A, Y = _random_instance(5, d=12, m=9, n=7)
    lam = 0.4
    G = laplacian_from_adjacency(knn_adjacency(Y, 4))
    D = pairwise_sq_distances(A, Y)
    alpha = spectral_norm_sq_inv(A)
    for kind in KINDS:
        pen = PenaltyConfig(kind, lam, knn_k=4)
        for mode in MOMENTUM_MODES:
            gammas = momentum_schedule(15, mode)[1]
            X = lookahead = np.zeros((9, 7))
            for t in range(15):
                grad = A.T @ (A @ lookahead - Y)
                if kind == "l1":
                    step = lookahead - alpha * grad
                    Xn = np.sign(step) * np.maximum(np.abs(step) - alpha * lam, 0.0)
                else:
                    pull = lam * D if kind == "wl" else lam * (lookahead @ (G + G.T))
                    Xn = project_columns_colwise(lookahead - alpha * (grad + pull))
                lookahead = Xn + gammas[t] * (Xn - X)
                X = Xn
                got, _ = encode(Y, A, EncoderConfig(pen, steps=t + 1, momentum_mode=mode))
                if kind == "lap":
                    assert np.allclose(got, X, atol=1e-12), (kind, mode, t)
                else:
                    assert got.tobytes() == X.tobytes(), (kind, mode, t)


def test_l1_codes_can_go_negative():
    A, Y = _random_instance(6, d=10, m=8, n=20)
    X, _ = encode(Y, A, EncoderConfig(PenaltyConfig("l1", 0.05)))
    assert X.min() < 0.0


def test_momentum_modes_agree_on_easy_problem():
    # on a well-conditioned instance both schedules should land on
    # nearly the same minimizer after 60 steps
    A, Y = _random_instance(13, d=16, m=8, n=5)
    results = {}
    for mode in MOMENTUM_MODES:
        cfg = EncoderConfig(PenaltyConfig("wl", 0.2), steps=60, momentum_mode=mode)
        results[mode], _ = encode(Y, A, cfg)
    assert np.abs(results["aswritten"] - results["none"]).max() < 1e-6


def test_returned_objective_is_bound_objective_of_codes():
    A, Y = _random_instance(30, n=4)
    pen = PenaltyConfig("wl", 0.5)
    X, objective = encode(Y, A, EncoderConfig(pen))
    assert isinstance(objective, float)
    assert objective == BatchObjective(pen, A, Y).objective(X)


def test_lap_penalty_needs_matching_graph():
    # the kNN graph needs more columns than neighbours
    for n in (3, 4):
        A, Y = _random_instance(2, n=n)
        with pytest.raises(ConfigError):
            encode(Y, A, EncoderConfig(PenaltyConfig("lap", 0.5, knn_k=4)))


def test_absurd_step_size_raises_divergence(monkeypatch):
    # the iterates blow through the float range; the overflow on the way
    # up is expected, the error must still surface
    monkeypatch.setattr(encoder, "spectral_norm_sq_inv", lambda A: 1e200)
    A, Y = _random_instance(8)
    cfg = EncoderConfig(PenaltyConfig("l1", 0.5), steps=15, momentum_mode="none")
    with np.errstate(over="ignore"), pytest.raises(LocosparseError) as excinfo:
        encode(Y, A, cfg)
    assert excinfo.type is LocosparseError


@pytest.mark.parametrize("kind", KINDS)
def test_absurd_step_size_diverges_before_prox(monkeypatch, kind):
    # the gradient step blows through the float range; the overflow on
    # the way up is expected, and the error must surface before any prox
    # (the simplex projection of wl and lap assumes finite input)
    monkeypatch.setattr(encoder, "spectral_norm_sq_inv", lambda A: 1e308)
    A, Y = _random_instance(8)
    cfg = EncoderConfig(PenaltyConfig(kind, 0.5), steps=15, momentum_mode="none")
    with (np.errstate(over="ignore"),
          pytest.raises(LocosparseError, match="gradient step") as excinfo):
        encode(Y, A, cfg)
    assert excinfo.type is LocosparseError


def test_projection_helper_feasible_on_random_batches():
    rng = np.random.default_rng(50)
    M = rng.normal(scale=5.0, size=(10, 30))
    P = project_columns(M)
    assert P.min() >= 0.0
    assert np.abs(P.sum(axis=0) - 1.0).max() < 1e-12
