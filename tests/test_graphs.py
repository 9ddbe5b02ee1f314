"""kNN graph construction and Laplacian invariants."""

import tracemalloc

import numpy as np
import pytest

from locosparse import simplex
from locosparse.errors import ConfigError, LocosparseError
from locosparse.graphs import (bipartite_laplacian, knn_adjacency,
                               laplacian_from_adjacency)

from oracles import (connected_components_bfs, jacobi_eigenvalues_classical,
                     knn_laplacian_argsort)


def test_knn_known_small_case():
    # four points on a line: 0 -- 1 ---- 2 -- 3, k = 1
    Y = np.array([[0.0, 1.0, 3.0, 4.0]])
    W = knn_adjacency(Y, 1)
    want = np.zeros((4, 4))
    want[0, 1] = want[1, 0] = 1.0  # mutual nearest
    want[2, 3] = want[3, 2] = 1.0
    assert np.array_equal(W, want)


def test_knn_union_symmetrization():
    # point 2 is nearest to 1, but 1's nearest is 0; the union keeps (1, 2)
    Y = np.array([[0.0, 1.0, 2.5]])
    W = knn_adjacency(Y, 1)
    assert W[1, 2] == 1.0 and W[2, 1] == 1.0
    assert W[0, 1] == 1.0 and W[1, 0] == 1.0
    assert W[0, 2] == 0.0


def test_knn_tie_resolves_to_lower_index():
    # points 1 and 2 are equidistant from 0
    Y = np.array([[0.0, 1.0, -1.0, 5.0]])
    W = knn_adjacency(Y, 1)
    assert W[0, 1] == 1.0
    # the tie loser is only connected if someone picked it
    assert W[0, 2] == 1.0  # 2's own nearest is 0


def test_knn_basic_properties():
    rng = np.random.default_rng(8)
    Y = rng.normal(size=(5, 12))
    W = knn_adjacency(Y, 3)
    assert np.array_equal(W, W.T)
    assert np.all(np.diag(W) == 0.0)
    assert set(np.unique(W)) <= {0.0, 1.0}
    assert np.all(W.sum(axis=1) >= 3)  # every vertex keeps its own k picks


def _knn_adjacency_full(Y, k):
    """Reference: one d x b x b difference tensor for all rows at once."""
    b = Y.shape[1]
    diff = Y[:, :, None] - Y[:, None, :]
    d2 = np.einsum("dij,dij->ij", diff, diff)
    np.fill_diagonal(d2, np.inf)
    order = np.argsort(d2, axis=1, kind="stable")
    W = np.zeros((b, b))
    W[np.repeat(np.arange(b), k), order[:, :k].reshape(-1)] = 1.0
    return np.maximum(W, W.T)


def test_knn_row_blocks_match_full_tensor(monkeypatch):
    rng = np.random.default_rng(4)
    d, b = 3, 23
    Y = rng.normal(size=(d, b))
    # three copies of one point, split over the blocks of rows 0-3, 4-7, 8-11
    Y[:, 4] = Y[:, 3]
    Y[:, 8] = Y[:, 3]
    monkeypatch.setattr(simplex, "_DIFF_SCRATCH_BYTES", 4 * Y.itemsize * d * b)
    for k in (1, 2, 3, 7):
        assert np.array_equal(knn_adjacency(Y, k), _knn_adjacency_full(Y, k))
    empty = np.zeros((0, 4))  # no features: every distance ties at zero
    assert np.array_equal(knn_adjacency(empty, 2), _knn_adjacency_full(empty, 2))
    W = knn_adjacency(Y, 1)
    # each copy's zero-distance tie goes to the lower index, across blocks
    assert W[3, 4] == W[3, 8] == 1.0
    assert W[4, 8] == 0.0


def _same_bytes(got, want):
    # tobytes tells -0.0 from +0.0, which array_equal does not
    return got.dtype == want.dtype and got.shape == want.shape and got.tobytes() == want.tobytes()


def _assert_matches_argsort_oracle(Y, k):
    want_W, want_L = knn_laplacian_argsort(Y, k)
    W = knn_adjacency(Y, k)
    assert _same_bytes(W, want_W), (Y.shape, k)
    assert _same_bytes(laplacian_from_adjacency(W), want_L), (Y.shape, k)


def test_knn_graph_and_laplacian_match_the_argsort_oracle_byte_for_byte():
    rng = np.random.default_rng(31)
    for _ in range(30):
        b = int(rng.integers(2, 30))
        # integer coordinates: many distances tie, within rows and across them
        Y = np.round(rng.normal(size=(int(rng.integers(1, 4)), b)))
        for k in sorted({1, min(3, b - 1), b - 1}):
            _assert_matches_argsort_oracle(Y, k)
    Y = rng.normal(size=(3, 25))
    Y[:, 10:20] = Y[:, :10]  # duplicate columns: zero-distance ties
    Y[:, 24] = Y[:, 0]
    for k in (1, 2, 3, 11, 24):
        _assert_matches_argsort_oracle(Y, k)
    _assert_matches_argsort_oracle(rng.normal(size=(64, 1024)), 4)  # one STA chunk


def test_knn_laplacian_holds_one_b_by_b_array():
    # beyond the distances, freed before the adjacency is allocated, the
    # graph and its Laplacian share one array
    b = 1024
    Y = np.random.default_rng(5).normal(size=(64, b))
    tracemalloc.start()
    try:
        G = laplacian_from_adjacency(knn_adjacency(Y, 4))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert G.shape == (b, b)
    assert peak <= b * b * 8 + 2 * 2**20, peak / 2**20


def test_knn_rejects_bad_k():
    Y = np.zeros((3, 4))
    with pytest.raises(ConfigError):
        knn_adjacency(Y, 0)
    with pytest.raises(ConfigError):
        knn_adjacency(Y, 4)
    with pytest.raises(ConfigError):
        knn_adjacency(np.zeros(4), 1)


def test_knn_overflowing_distances_fail_the_run():
    # finite stimuli whose squared distances overflow are a numerical
    # breakdown (exit 1), not a graph with self-loops
    Y = np.arange(20.0).reshape(2, 10) * 1e306
    with np.errstate(over="ignore"), pytest.raises(LocosparseError, match="overflow") as excinfo:
        knn_adjacency(Y, 2)
    assert excinfo.type is LocosparseError


def test_laplacian_row_sums_and_psd_on_random_graphs():
    rng = np.random.default_rng(19)
    for _ in range(25):
        b = int(rng.integers(5, 13))
        Y = rng.normal(size=(4, b))
        G = laplacian_from_adjacency(knn_adjacency(Y, min(4, b - 1)))
        # the eigensolver relies on exact symmetry and does not check it
        assert np.array_equal(G, G.T)
        assert np.abs(G.sum(axis=1)).max() < 1e-10
        evals = jacobi_eigenvalues_classical(G)
        assert evals[0] > -1e-9


def test_zero_eigenvalue_multiplicity_counts_components():
    rng = np.random.default_rng(21)
    for _ in range(25):
        b = int(rng.integers(6, 13))
        Y = rng.normal(size=(3, b))
        W = knn_adjacency(Y, 2)
        components = connected_components_bfs(W)  # before the Laplacian consumes W
        evals = jacobi_eigenvalues_classical(laplacian_from_adjacency(W))
        zero_mult = int((np.abs(evals) < 1e-8).sum())
        assert zero_mult == len(set(components))


def test_laplacian_from_adjacency_is_degree_minus_weights():
    W = np.array([[0.0, 2.0], [2.0, 0.0]])
    assert np.array_equal(laplacian_from_adjacency(W), np.array([[2.0, -2.0], [-2.0, 2.0]]))


def test_bipartite_laplacian_structure():
    X = np.array([[0.5, 0.0], [0.5, 1.0]])  # 2 atoms, 2 stimuli
    M = bipartite_laplacian(X)
    assert M.shape == (4, 4)
    # no within-side edges: atom-atom and stimulus-stimulus blocks are
    # diagonal (degrees only)
    assert M[0, 1] == 0.0 and M[2, 3] == 0.0
    assert M[0, 2] == -0.5 and M[1, 3] == -1.0
    assert np.abs(M.sum(axis=1)).max() < 1e-12
    # exactly symmetric for any non-negative codes, as the eigensolver requires,
    # and byte for byte np.diag(deg) - W: an exact zero weight gives +0.0
    rng = np.random.default_rng(23)
    for _ in range(25):
        m, n = (int(v) for v in rng.integers(1, 9, size=2))
        codes = np.abs(rng.normal(size=(m, n)))
        codes[rng.random(codes.shape) < 0.3] = 0.0
        L = bipartite_laplacian(codes)
        assert np.array_equal(L, L.T)
        W = np.zeros((m + n, m + n))
        W[:m, m:] = codes
        W[m:, :m] = codes.T
        assert _same_bytes(L, np.diag(W.sum(axis=1)) - W)


def test_bipartite_laplacian_rejects_negative_codes():
    with pytest.raises(ConfigError):
        bipartite_laplacian(np.array([[0.5, -0.1], [0.5, 1.1]]))
    with pytest.raises(ConfigError):
        bipartite_laplacian(np.zeros(3))
