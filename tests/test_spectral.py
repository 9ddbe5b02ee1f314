"""Eigensolver and spectral clustering correctness."""

import numpy as np
import pytest

from locosparse import spectral
from locosparse.errors import ConfigError, LocosparseError
from locosparse.graphs import bipartite_laplacian, laplacian_from_adjacency
from locosparse.spectral import spectral_cluster, symmetric_eigendecomposition

from oracles import connected_components_bfs, jacobi_eigenvalues_classical


def test_eigenvalues_match_classical_jacobi_oracle():
    rng = np.random.default_rng(3)
    for _ in range(20):
        p = int(rng.integers(2, 10))
        B = rng.normal(size=(p, p))
        M = (B + B.T) / 2.0
        got, _ = symmetric_eigendecomposition(M)
        want = jacobi_eigenvalues_classical(M)
        assert np.allclose(got, want, atol=1e-10)


def test_eigenvectors_reconstruct_and_are_orthonormal():
    rng = np.random.default_rng(5)
    B = rng.normal(size=(7, 7))
    M = B @ B.T
    values, vectors = symmetric_eigendecomposition(M)
    assert np.allclose(vectors @ np.diag(values) @ vectors.T, M, atol=1e-9)
    assert np.allclose(vectors.T @ vectors, np.eye(7), atol=1e-10)
    assert np.all(np.diff(values) >= -1e-12)


def test_eigendecomposition_diagonal_is_exact():
    M = np.diag([3.0, -1.0, 2.0])
    values, vectors = symmetric_eigendecomposition(M)
    assert np.array_equal(values, np.array([-1.0, 2.0, 3.0]))
    # columns are signed unit vectors
    assert np.allclose(np.abs(vectors).sum(axis=0), 1.0)


def test_eigendecomposition_one_by_one_and_zero():
    values, vectors = symmetric_eigendecomposition(np.array([[4.0]]))
    assert values[0] == 4.0 and vectors[0, 0] == 1.0
    values, _ = symmetric_eigendecomposition(np.zeros((3, 3)))
    assert np.array_equal(values, np.zeros(3))


def test_eigendecomposition_known_two_by_two():
    M = np.array([[2.0, 1.0], [1.0, 2.0]])
    values, _ = symmetric_eigendecomposition(M)
    assert values == pytest.approx([1.0, 3.0], abs=1e-12)


def test_eigendecomposition_at_order_300():
    rng = np.random.default_rng(13)
    B = rng.normal(size=(300, 300))
    M = (B + B.T) / 2.0
    values, vectors = symmetric_eigendecomposition(M)
    assert np.allclose(vectors.T @ vectors, np.eye(300), atol=1e-10)
    assert np.allclose(vectors @ np.diag(values) @ vectors.T, M, atol=1e-9)
    assert np.all(np.diff(values) >= 0.0)


def _block_codes(rng, sizes):
    """Block-diagonal code matrix: one bipartite component per block."""
    m = sum(a for a, _ in sizes)
    n = sum(b for _, b in sizes)
    X = np.zeros((m, n))
    r0, c0 = 0, 0
    for atoms, stims in sizes:
        X[r0:r0 + atoms, c0:c0 + stims] = rng.uniform(0.2, 1.0, size=(atoms, stims))
        r0 += atoms
        c0 += stims
    return X


def _partition(labels):
    groups = {}
    for idx, lab in enumerate(labels):
        groups.setdefault(lab, set()).add(idx)
    return frozenset(frozenset(g) for g in groups.values())


def test_disconnected_bipartite_components_recovered_exactly():
    rng = np.random.default_rng(7)
    for _ in range(30):
        num_blocks = int(rng.integers(2, 4))
        sizes = [(int(rng.integers(1, 3)), int(rng.integers(1, 3)))
                 for _ in range(num_blocks)]
        if sum(a + b for a, b in sizes) > 12:
            continue
        X = _block_codes(rng, sizes)
        G = bipartite_laplacian(X)
        W = -np.copy(G)
        np.fill_diagonal(W, 0.0)
        truth = connected_components_bfs(W)
        k = len(set(truth))
        got = spectral_cluster(G, k, seed=0)
        assert _partition(got) == _partition(truth)


def test_spectral_cluster_two_cliques():
    W = np.zeros((6, 6))
    for i in range(3):
        for j in range(3):
            if i != j:
                W[i, j] = 1.0
                W[i + 3, j + 3] = 1.0
    G = laplacian_from_adjacency(W)
    got = spectral_cluster(G, 2, seed=1)
    assert _partition(got) == _partition([0, 0, 0, 1, 1, 1])


def test_spectral_cluster_labels_number_by_first_appearance():
    # three cliques, listed so that the last vertex opens the third one
    W = np.zeros((7, 7))
    for block in ([0, 3], [1, 2, 4], [5, 6]):
        for i in block:
            for j in block:
                if i != j:
                    W[i, j] = 1.0
    G = laplacian_from_adjacency(W)
    for seed in range(4):
        got = spectral_cluster(G, 3, seed=seed)
        assert got.tolist() == [0, 1, 1, 0, 1, 2, 2]


def test_spectral_cluster_accepts_raw_matrix():
    W = np.array([[0.0, 1.0], [1.0, 0.0]])
    G = np.diag(W.sum(axis=1)) - W
    got = spectral_cluster(G, 1)
    assert got.dtype == np.int64
    assert np.array_equal(got, np.zeros(2, dtype=np.int64))


def test_spectral_cluster_k_validation():
    W = np.array([[0.0, 1.0], [1.0, 0.0]])
    G = laplacian_from_adjacency(W)
    with pytest.raises(ConfigError):
        spectral_cluster(G, 0)
    with pytest.raises(ConfigError):
        spectral_cluster(G, 3)


def test_spectral_cluster_rejects_an_empty_cluster(monkeypatch):
    # k-means can return fewer than k labels when points coincide
    W = np.array([[0.0, 1.0, 0.0], [1.0, 0.0, 1.0], [0.0, 1.0, 0.0]])
    monkeypatch.setattr(spectral, "_kmeans", lambda points, k, seed: np.array([0, 0, 1]))
    with pytest.raises(LocosparseError, match="non-empty") as excinfo:
        spectral_cluster(laplacian_from_adjacency(W), 3)
    assert excinfo.type is LocosparseError


def test_eigendecomposition_failure_raises_numerical_error(monkeypatch):
    # when LAPACK reports no convergence, the caller sees the package's
    # runtime failure, not numpy's LinAlgError
    def fail(_):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(spectral.np.linalg, "eigh", fail)
    with pytest.raises(LocosparseError, match="did not converge") as excinfo:
        symmetric_eigendecomposition(np.eye(3))
    assert excinfo.type is LocosparseError
