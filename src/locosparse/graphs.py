"""Graph construction and Laplacian assembly."""

import sys

import numpy as np

from .errors import ConfigError, LocosparseError
from .simplex import pairwise_sq_distances


def knn_adjacency(Y, k):
    """Binary union-symmetrized k-nearest-neighbor adjacency over columns.

    Edge (i, j) is set when j is among i's k nearest columns in
    Euclidean distance or i is among j's. Each row takes its k first
    minima of `pairwise_sq_distances(Y, Y)`, one `argmin` pass each, so
    ties resolve toward the lower index; the diagonal stays zero.
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
    rows = np.arange(b)
    nearest = np.empty((k, b), dtype=np.intp)
    for pick in nearest:
        d2.argmin(axis=1, out=pick)
        d2[rows, pick] = np.inf
    del d2
    W = np.zeros((b, b))
    W[rows, nearest] = W[nearest, rows] = 1.0
    return W


def laplacian_from_adjacency(W):
    """D - W, formed in W's own memory: consumes W and returns that array.

    W must be an exactly symmetric, finite, non-negative float64
    adjacency with a zero diagonal, as `knn_adjacency` and
    `bipartite_laplacian` build it. D - W then has zero row sums and
    non-positive off-diagonal entries, and is exactly symmetric, as
    `symmetric_eigendecomposition` requires.
    """
    deg = W.sum(axis=1)
    np.subtract(0.0, W, out=W)  # not -W, which turns +0.0 weights into -0.0
    np.fill_diagonal(W, deg)
    return W


def bipartite_laplacian(X):
    """Laplacian on m + n vertices with atom-to-stimulus weights x_ji.

    Vertices 0 .. m-1 are atoms, m .. m+n-1 are stimuli; there are no
    within-side edges. Simplex codes satisfy the non-negativity
    requirement by construction. A degree (a row or column sum of X)
    above half the float maximum raises `LocosparseError`, so every
    eigenvalue of the Laplacian is finite.
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
    with np.errstate(over="ignore"):  # an overflowed degree is rejected below
        L = laplacian_from_adjacency(W)
    # by Gershgorin the eigenvalues of L reach up to twice its largest degree
    if not np.diag(L).max() <= sys.float_info.max / 2:
        raise LocosparseError("atom or stimulus degrees overflow: the largest must be "
                              "at most half the float maximum")
    return L
