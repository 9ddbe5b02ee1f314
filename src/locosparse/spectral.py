"""LAPACK eigendecomposition and spectral clustering."""

import numpy as np

from .errors import ConfigError, LocosparseError
from .rng import CounterRng, derive_seed

_RESTARTS = 20
_MAX_LLOYD_ITERS = 100


def symmetric_eigendecomposition(M):
    """Full eigensystem of a symmetric matrix by LAPACK (``numpy.linalg.eigh``).

    Returns (eigenvalues ascending, eigenvectors as matching columns).
    M must be a finite, exactly symmetric float64 matrix whose
    eigenvalues do not overflow; `eigh` reads only its lower triangle.
    """
    try:
        return np.linalg.eigh(M)
    except np.linalg.LinAlgError as exc:
        raise LocosparseError(f"eigendecomposition failed: {exc}") from exc


def _kmeans(points, k, seed):
    """Best-of-20 seeded Lloyd runs with farthest-point initialization."""
    p = points.shape[0]
    best_inertia, best_labels = np.inf, None
    for restart in range(_RESTARTS):
        rng = CounterRng(derive_seed(seed, "kmeans", restart))
        centers = np.empty((k, points.shape[1]))
        centers[0] = points[int(rng.integers(1, p)[0])]
        d2 = ((points - centers[0]) ** 2).sum(axis=1)
        for c in range(1, k):
            centers[c] = points[int(np.argmax(d2))]
            d2 = np.minimum(d2, ((points - centers[c]) ** 2).sum(axis=1))
        labels = None
        for _ in range(_MAX_LLOYD_ITERS):
            dist = ((points[:, None, :] - centers[None, :, :]) ** 2).sum(axis=2)
            assigned = dist.argmin(axis=1)
            for c in range(k):
                members = assigned == c
                if members.any():
                    centers[c] = points[members].mean(axis=0)
                else:
                    # revive an empty cluster at the worst-served point
                    worst = int(np.argmax(dist[np.arange(p), assigned]))
                    centers[c] = points[worst]
                    assigned[worst] = c
            if labels is not None and np.array_equal(labels, assigned):
                break
            labels = assigned
        inertia = float(((points - centers[labels]) ** 2).sum())
        if inertia < best_inertia:
            best_inertia, best_labels = inertia, labels
    return best_labels


def _first_appearance(labels):
    """Renumber labels 0, 1, ... in the order they first occur."""
    _, first, inverse = np.unique(labels, return_index=True, return_inverse=True)
    return np.argsort(np.argsort(first))[inverse]


def spectral_cluster(G, k, seed=0):
    """Cluster vertices by k-means on the bottom-k eigenvector embedding.

    G is a graph Laplacian from `laplacian_from_adjacency` or
    `bipartite_laplacian`: finite, exactly symmetric, and with its
    eigenvalues bounded by twice its largest degree. Returns int64
    labels numbered by first appearance in vertex order, so they do not
    depend on how the eigensolver signs or rotates the basis of a
    degenerate eigenspace.
    """
    p = len(G)
    if k < 1 or k > p:
        raise ConfigError(f"cluster count k={k} is below 1 or exceeds the vertex count {p}")
    _, vectors = symmetric_eigendecomposition(G)
    labels = _first_appearance(_kmeans(vectors[:, :k], k, seed))
    # k-means on duplicated points can leave a cluster empty
    if labels.max() + 1 < k:
        raise LocosparseError("every cluster must be non-empty")
    return labels.astype(np.int64)
