"""Graph construction and Laplacian assembly."""

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, LocosparseError
from .simplex import pairwise_sq_distances


@dataclass(frozen=True)
class GraphLaplacian:
    """Symmetric Laplacian D - W: zero row sums, non-positive off-diagonal.

    The checks' tolerances scale with max(1, max |G|), so a graph and any
    positive multiple of it pass or fail together.
    """

    matrix: np.ndarray

    def __post_init__(self):
        G = self.matrix
        if G.ndim != 2 or G.shape[0] != G.shape[1]:
            raise ConfigError("laplacian must be square")
        scale = max(1.0, float(np.abs(G).max()))
        if np.abs(G - G.T).max() > 1e-12 * scale:
            raise ConfigError("laplacian must be symmetric")
        if np.abs(G.sum(axis=1)).max() > 1e-10 * scale:
            raise ConfigError("laplacian rows must sum to zero")
        off = G - np.diag(np.diag(G))
        if off.max() > 1e-12 * scale:
            raise ConfigError("laplacian off-diagonal entries must be non-positive")

    @property
    def num_vertices(self):
        return self.matrix.shape[0]


def knn_adjacency(Y, k):
    """Binary union-symmetrized k-nearest-neighbor adjacency over columns.

    Edge (i, j) is set when j is among i's k nearest columns in
    Euclidean distance or i is among j's. Ties resolve toward the lower
    index and the diagonal stays zero. The squared distances come from
    `pairwise_sq_distances(Y, Y)`.
    """
    Y = np.asarray(Y, dtype=np.float64)
    if Y.ndim != 2:
        raise ConfigError("stimuli must be a d x b matrix")
    b = Y.shape[1]
    if k < 1 or k >= b:
        raise ConfigError(f"k must satisfy 1 <= k < b, got k={k} with b={b}")
    d2 = pairwise_sq_distances(Y, Y)
    # an overflowed distance ties with the diagonal's inf below, and a tie
    # can pick a column as its own neighbour
    if not np.isfinite(d2).all():
        raise LocosparseError("squared distances between stimuli overflow")
    np.fill_diagonal(d2, np.inf)
    nearest = np.argsort(d2, axis=1, kind="stable")[:, :k]
    del d2
    W = np.zeros((b, b))
    W[np.repeat(np.arange(b), k), nearest.reshape(-1)] = 1.0
    return np.maximum(W, W.T)


def laplacian_from_adjacency(W):
    """D - W for a symmetric non-negative adjacency with zero diagonal."""
    W = np.asarray(W, dtype=np.float64)
    if W.ndim != 2 or W.shape[0] != W.shape[1]:
        raise ConfigError("adjacency must be square")
    if np.abs(W - W.T).max() > 1e-12:
        raise ConfigError("adjacency must be symmetric")
    if np.any(np.diag(W) != 0.0):
        raise ConfigError("adjacency diagonal must be zero")
    if W.min() < 0.0:
        raise ConfigError("adjacency weights must be non-negative")
    G = np.diag(W.sum(axis=1)) - W
    return GraphLaplacian(G)


def bipartite_laplacian(X):
    """Laplacian on m + n vertices with atom-to-stimulus weights x_ji.

    Vertices 0 .. m-1 are atoms, m .. m+n-1 are stimuli; there are no
    within-side edges. Simplex codes satisfy the non-negativity
    requirement by construction.
    """
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2:
        raise ConfigError("codes must be an m x n matrix")
    if X.min() < 0.0:
        raise ConfigError("bipartite weights require non-negative codes")
    m, n = X.shape
    W = np.zeros((m + n, m + n))
    W[:m, m:] = X
    W[m:, :m] = X.T
    return laplacian_from_adjacency(W)
