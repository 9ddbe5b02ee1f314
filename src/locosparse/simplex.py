"""Probability-simplex projection and stimulus-to-atom squared distances."""

import numpy as np

# bound on the difference scratch of one atom block in pairwise_sq_distances
_DIFF_SCRATCH_BYTES = 256 * 2**10


def project_columns(M):
    """Euclidean projection of each column of a finite float64 m x n
    matrix, m >= 1, onto the simplex {z : z >= 0, sum(z) = 1}.

    Each column v becomes relu(v + b) with the shift b found by the sort
    rule: sort descending as u, take the largest j with
    u_j + (1 - sum_{k<=j} u_k)/j > 0, and set b to that bracketed mean.

    The sort, the prefix sums and the test run on a C-ordered n x m copy,
    one column per contiguous row, so each pass walks memory in order;
    the cumulative sum is sequential in either layout, so no bit moves.
    A column whose largest entry is above 2**53 rounds the j = 1 test to
    zero and finds no j; it is projected again after subtracting its
    maximum, which leaves the projection unchanged. An entry more than
    the float maximum below that maximum becomes -inf there, with numpy's
    overflow warning, and still projects to 0.
    """
    n, j = M.shape[1], np.arange(1, M.shape[0] + 1)
    u = np.negative(M.T, order="C")
    u.sort(axis=1)
    np.negative(u, out=u)
    css = np.cumsum(u, axis=1)
    rho = np.where(u + (1.0 - css) / j > 0.0, j, 0).max(axis=1)
    lost = rho == 0
    rho[lost] = 1
    b = (1.0 - css[np.arange(n), rho - 1]) / rho
    out = np.maximum(M + b, 0.0)
    if lost.any():
        shifted = M[:, lost] - M[:, lost].max(axis=0)
        out[:, lost] = project_columns(shifted)
    return out


def pairwise_sq_distances(A, Y):
    """Matrix D with D[j, i] = ||y_i - a_j||^2, for A d x m and Y d x n.

    Computed from explicit differences rather than the norm expansion so
    identical columns give exact zeros and entries never go negative. The
    difference tensor is built and freed one block of atom columns at a
    time, within `_DIFF_SCRATCH_BYTES` (or one column, if that is larger).
    256 KiB keeps a block well inside a core's L2 cache (2 MiB on the
    Xeon it was measured on), which 16 MiB blocks overflowed. Both
    operands are made C-contiguous first, so every block is a C-ordered
    d x block x n tensor and `einsum` sums each entry over d in
    sequence, whatever the block size. A single stimulus is laid out as
    two equal columns, since one atom against one stimulus would be
    summed as a plain dot product. With a transposed view (the stimulus
    chunks of `sta_receptive_fields`), a one-atom block would be laid
    out with d innermost and summed in another order.
    """
    one = Y.shape[1] == 1
    A = np.ascontiguousarray(A, dtype=np.float64)
    Y = np.ascontiguousarray(np.repeat(Y, 2, axis=1) if one else Y, dtype=np.float64)
    (d, m), n = A.shape, Y.shape[1]
    block = max(1, _DIFF_SCRATCH_BYTES // (A.itemsize * max(d, 1) * max(n, 1)))
    D = np.empty((m, n))
    for start in range(0, m, block):
        diff = A[:, start:start + block, None] - Y[:, None, :]
        np.einsum("dmn,dmn->mn", diff, diff, out=D[start:start + block])
        del diff
    return np.ascontiguousarray(D[:, :1]) if one else D
