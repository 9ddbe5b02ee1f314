"""Penalty values and analytic gradients against finite differences."""

import numpy as np
import pytest

from locosparse import penalties
from locosparse.errors import ConfigError
from locosparse.graphs import knn_adjacency, laplacian_from_adjacency
from locosparse.penalties import BatchObjective, PenaltyConfig

from oracles import fd_gradient, pairwise_sq_distances_loops


def _rel_err(got, want):
    scale = max(np.linalg.norm(want), 1.0)
    return np.linalg.norm(got - want) / scale


def _fit(Y, A, X):
    r = Y - A @ X
    return 0.5 * float((r * r).sum())


def test_penalty_config_validation():
    PenaltyConfig("l1", 0.0)
    PenaltyConfig("wl", 2.5)
    PenaltyConfig("lap", 0.1, knn_k=3)
    with pytest.raises(ConfigError):
        PenaltyConfig("huber", 0.5)
    for lam in (-0.1, float("nan"), float("inf")):
        with pytest.raises(ConfigError):
            PenaltyConfig("l1", lam)
    with pytest.raises(ConfigError):
        PenaltyConfig("lap", 0.5, knn_k=0)


def test_l1_penalty_value():
    X = np.array([[1.0, -2.0], [0.0, 3.0]])
    A = np.eye(2)
    assert BatchObjective(PenaltyConfig("l1", 0.5), A, X).objective(X) == pytest.approx(3.0)
    assert BatchObjective(PenaltyConfig("l1", 0.0), A, X).objective(X) == 0.0


def test_wl_penalty_matches_explicit_sum():
    rng = np.random.default_rng(2)
    Y = rng.normal(size=(6, 4))
    A = rng.normal(size=(6, 3))
    X = np.abs(rng.normal(size=(3, 4)))
    lam = 0.7
    total = float((X * pairwise_sq_distances_loops(A, Y)).sum())
    got = BatchObjective(PenaltyConfig("wl", lam), A, Y).objective(X)
    assert got == pytest.approx(_fit(Y, A, X) + lam * total)


def test_wl_code_gradient_matches_finite_differences():
    rng = np.random.default_rng(10)
    lam = 0.5
    for _ in range(50):
        d = int(rng.integers(4, 10))
        m = int(rng.integers(2, 8))
        A = rng.normal(size=(d, m))
        y = rng.normal(size=(d, 1))
        x = rng.normal(size=m)
        dists = pairwise_sq_distances_loops(A, y)[:, 0]

        def objective(z):
            r = y[:, 0] - A @ z
            return 0.5 * float(r @ r) + lam * float(dists @ z)

        got = BatchObjective(PenaltyConfig("wl", lam), A, y).code_gradient(x[:, None])[:, 0]
        want = fd_gradient(objective, x)
        assert _rel_err(got, want) < 1e-6


def test_wl_code_gradient_batch_stacks_columns():
    rng = np.random.default_rng(12)
    A = rng.normal(size=(5, 4))
    Y = rng.normal(size=(5, 3))
    X = rng.normal(size=(4, 3))
    pen = PenaltyConfig("wl", 0.3)
    batch = BatchObjective(pen, A, Y).code_gradient(X)
    for i in range(3):
        single = BatchObjective(pen, A, Y[:, i:i + 1]).code_gradient(X[:, i:i + 1])
        assert np.allclose(batch[:, i], single[:, 0], atol=1e-12)


def test_wl_atom_gradient_matches_finite_differences():
    # the full objective 1/2||Y - AX||^2 + lam sum_ij x_ji ||y_i - a_j||^2
    # differentiated in the dictionary entries
    rng = np.random.default_rng(20)
    lam = 0.4
    for _ in range(50):
        d = int(rng.integers(3, 7))
        m = int(rng.integers(2, 5))
        n = int(rng.integers(2, 6))
        Y = rng.normal(size=(d, n))
        A0 = rng.normal(size=(d, m))
        X = np.abs(rng.normal(size=(m, n)))

        def objective(a_flat):
            A = a_flat.reshape(d, m)
            charge = float((X * pairwise_sq_distances_loops(A, Y)).sum())
            return _fit(Y, A, X) + lam * charge

        got = PenaltyConfig("wl", lam).atom_gradient(A0, Y, X).reshape(-1)
        want = fd_gradient(objective, A0.reshape(-1))
        assert _rel_err(got, want) < 1e-6


def test_lap_penalty_value_is_trace_form():
    rng = np.random.default_rng(30)
    A = rng.normal(size=(4, 3))
    Y = rng.normal(size=(4, 5))
    X = rng.normal(size=(3, 5))
    G = laplacian_from_adjacency(knn_adjacency(Y, 2))
    want = _fit(Y, A, X) + 0.9 * np.trace(X @ G @ X.T)
    pen = PenaltyConfig("lap", 0.9, knn_k=2)
    assert BatchObjective(pen, A, Y).objective(X) == pytest.approx(want)


def test_lap_code_gradient_matches_finite_differences():
    rng = np.random.default_rng(31)
    lam = 0.6
    for _ in range(50):
        d = int(rng.integers(3, 7))
        m = int(rng.integers(2, 5))
        n = int(rng.integers(2, 6))
        A = rng.normal(size=(d, m))
        Y = rng.normal(size=(d, n))
        X0 = rng.normal(size=(m, n))
        G = laplacian_from_adjacency(knn_adjacency(Y, 1))

        def objective(x_flat):
            X = x_flat.reshape(m, n)
            return _fit(Y, A, X) + lam * float(((X @ G) * X).sum())

        pen = PenaltyConfig("lap", lam, knn_k=1)
        got = BatchObjective(pen, A, Y).code_gradient(X0).reshape(-1)
        want = fd_gradient(objective, X0.reshape(-1))
        assert _rel_err(got, want) < 1e-6


def test_lap_gradient_shape_errors():
    # the kNN graph needs more columns than knn_k
    with pytest.raises(ConfigError):
        BatchObjective(PenaltyConfig("lap", 0.5), np.zeros((3, 2)), np.zeros((3, 4)))


def test_atom_gradient_is_zero_for_zero_codes():
    # no code, no pull on the atoms: the data term's gradient
    # (AX - Y) X^T and wl's charge both vanish at X = 0
    rng = np.random.default_rng(41)
    A = rng.normal(size=(9, 4))
    Y = rng.normal(size=(9, 6))
    for kind in ("l1", "wl", "lap"):
        grad = PenaltyConfig(kind, 0.5).atom_gradient(A, Y, np.zeros((4, 6)))
        assert np.array_equal(grad, np.zeros((9, 4))), kind


def test_batch_graph_only_for_lap(monkeypatch):
    rng = np.random.default_rng(40)
    Y = rng.normal(size=(5, 9))
    A = rng.normal(size=(5, 4))
    calls = []

    def recording_knn(Y, k):
        calls.append(k)
        return knn_adjacency(Y, k)

    monkeypatch.setattr(penalties, "knn_adjacency", recording_knn)
    for kind in ("l1", "wl"):
        BatchObjective(PenaltyConfig(kind, 0.5, knn_k=3), A, Y)
    assert calls == []
    lap = BatchObjective(PenaltyConfig("lap", 0.5, knn_k=3), A, Y)
    assert calls == [3]
    want = laplacian_from_adjacency(knn_adjacency(Y, 3))
    assert np.array_equal(lap.G, want)
