"""Probability-simplex projection and stimulus-to-atom squared distances."""

import numpy as np

from .errors import ContractError

# bound on the difference scratch of one atom block in pairwise_sq_distances
_DIFF_SCRATCH_BYTES = 16 * 2**20


def project_simplex(x):
    """Euclidean projection of a vector onto {z : z >= 0, sum(z) = 1}.

    The single-column case of `project_columns`, so it runs the very
    arithmetic the encoder does.
    """
    v = np.asarray(x, dtype=np.float64)
    if v.ndim != 1 or v.size < 1:
        raise ContractError("project_simplex expects a non-empty vector")
    if not np.all(np.isfinite(v)):
        raise ContractError("project_simplex requires finite entries")
    return project_columns(v[:, None])[:, 0]


def project_columns(X):
    """Column-wise simplex projection of an m x n matrix.

    Each column v becomes relu(v + b) with the shift b found by the sort
    rule: sort descending as u, take the largest j with
    u_j + (1 - sum_{k<=j} u_k)/j > 0, and set b to that bracketed mean.
    """
    M = np.asarray(X, dtype=np.float64)
    if M.ndim != 2 or M.shape[0] < 1:
        raise ContractError("project_columns expects an m x n matrix with m >= 1")
    if not np.all(np.isfinite(M)):
        raise ContractError("project_columns requires finite entries")
    m = M.shape[0]
    u = -np.sort(-M, axis=0)
    css = np.cumsum(u, axis=0)
    j = np.arange(1, m + 1)[:, None]
    mask = u + (1.0 - css) / j > 0.0
    rho = np.where(mask, j, 0).max(axis=0)
    picked = np.take_along_axis(css, rho[None, :] - 1, axis=0)[0]
    b = (1.0 - picked) / rho
    return np.maximum(M + b[None, :], 0.0)


def pairwise_sq_distances(A, Y):
    """Matrix D with D[j, i] = ||y_i - a_j||^2.

    Computed from explicit differences rather than the norm expansion so
    identical columns give exact zeros and entries never go negative. The
    difference tensor is built and freed one block of atom columns at a
    time, within `_DIFF_SCRATCH_BYTES` (or one column, if that is larger).
    """
    A = np.asarray(A, dtype=np.float64)
    Y = np.asarray(Y, dtype=np.float64)
    if A.ndim != 2 or Y.ndim != 2 or A.shape[0] != Y.shape[0]:
        raise ContractError(f"shape mismatch: A {A.shape} vs Y {Y.shape}")
    (d, m), n = A.shape, Y.shape[1]
    block = max(1, _DIFF_SCRATCH_BYTES // (A.itemsize * max(d, 1) * max(n, 1)))
    D = np.empty((m, n))
    for start in range(0, m, block):
        diff = A[:, start:start + block, None] - Y[:, None, :]
        np.einsum("dmn,dmn->mn", diff, diff, out=D[start:start + block])
        del diff
    return D
