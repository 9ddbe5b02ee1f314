"""Independent reference implementations used to cross-check the package.

Everything here is deliberately written with a different algorithmic
strategy than the library code it validates: support enumeration instead
of sort-and-threshold, finite differences instead of analytic gradients,
classical largest-pivot Jacobi instead of cyclic sweeps, breadth-first
search instead of spectral structure, a full stable sort of every
distance row and a transposed copy instead of k first-minimum passes,
one candidate at a time instead of a broadcast tensor, one byte at a
time instead of numpy blocks, a column-major walk instead of one
contiguous row per stimulus, and every pixel of the frame for each scene
stroke and disc instead of its own window.
"""

import itertools
import math
from collections import deque

import numpy as np

from locosparse.rng import CounterRng, derive_seed
from locosparse.simplex import pairwise_sq_distances
from synthdata import _gaussian_blur


def simplex_projection_bruteforce(v):
    """Minimize 0.5*||x - v||^2 over the probability simplex by trying
    every possible support set and keeping the best feasible candidate."""
    v = np.asarray(v, dtype=np.float64)
    m = v.size
    best = None
    best_obj = np.inf
    for r in range(1, m + 1):
        for support in itertools.combinations(range(m), r):
            idx = np.array(support)
            shift = (1.0 - v[idx].sum()) / r
            cand = np.zeros(m)
            cand[idx] = v[idx] + shift
            if np.any(cand[idx] < -1e-12):
                continue
            obj = 0.5 * np.sum((cand - v) ** 2)
            if obj < best_obj:
                best_obj = obj
                best = cand
    return np.clip(best, 0.0, None)


def project_columns_colwise(M):
    """Column-wise simplex projection by the sort rule, sorting, summing
    and testing down the columns of the m x n matrix as it lies.

    `simplex.project_columns` runs the same arithmetic on one contiguous
    row per column, so the two agree to the byte. This one fails (rho =
    0, a division by zero) on a column whose largest entry is above 2**53.
    """
    M = np.asarray(M, dtype=np.float64)
    m = M.shape[0]
    u = -np.sort(-M, axis=0)
    css = np.cumsum(u, axis=0)
    j = np.arange(1, m + 1)[:, None]
    mask = u + (1.0 - css) / j > 0.0
    rho = np.where(mask, j, 0).max(axis=0)
    picked = np.take_along_axis(css, rho[None, :] - 1, axis=0)[0]
    b = (1.0 - picked) / rho
    return np.maximum(M + b[None, :], 0.0)


def fd_gradient(f, x, h=1e-6):
    """Central finite-difference gradient of a scalar function of an array."""
    x = np.asarray(x, dtype=np.float64)
    grad = np.zeros_like(x)
    flat = grad.ravel()
    xflat = x.ravel()
    for i in range(xflat.size):
        orig = xflat[i]
        xflat[i] = orig + h
        fp = f(x)
        xflat[i] = orig - h
        fm = f(x)
        xflat[i] = orig
        flat[i] = (fp - fm) / (2.0 * h)
    return grad


def jacobi_eigenvalues_classical(M, tol=1e-13, max_rotations=20000):
    """Eigenvalues of a symmetric matrix via classical Jacobi rotations,
    always zeroing the currently largest off-diagonal entry."""
    A = np.array(M, dtype=np.float64)
    A = 0.5 * (A + A.T)
    p = A.shape[0]
    if p == 1:
        return A.ravel().copy()
    scale = np.linalg.norm(A)
    for _ in range(max_rotations):
        off = np.abs(A - np.diag(np.diag(A)))
        i, q = np.unravel_index(np.argmax(off), off.shape)
        if off[i, q] <= tol * max(scale, 1.0):
            break
        theta = (A[q, q] - A[i, i]) / (2.0 * A[i, q])
        t = np.sign(theta) / (abs(theta) + np.sqrt(theta * theta + 1.0))
        if theta == 0.0:
            t = 1.0
        c = 1.0 / np.sqrt(t * t + 1.0)
        s = t * c
        row_i = A[i, :].copy()
        row_q = A[q, :].copy()
        A[i, :] = c * row_i - s * row_q
        A[q, :] = s * row_i + c * row_q
        col_i = A[:, i].copy()
        col_q = A[:, q].copy()
        A[:, i] = c * col_i - s * col_q
        A[:, q] = s * col_i + c * col_q
        A[i, q] = 0.0
        A[q, i] = 0.0
    return np.sort(np.diag(A))


def connected_components_bfs(adjacency):
    """Component labels for an undirected graph given a dense adjacency
    matrix; isolated vertices form their own components."""
    W = np.asarray(adjacency)
    n = W.shape[0]
    labels = -np.ones(n, dtype=np.int64)
    current = 0
    for start in range(n):
        if labels[start] >= 0:
            continue
        labels[start] = current
        queue = deque([start])
        while queue:
            u = queue.popleft()
            for v in range(n):
                if W[u, v] != 0 and labels[v] < 0:
                    labels[v] = current
                    queue.append(v)
        current += 1
    return labels


def knn_laplacian_argsort(Y, k):
    """(W, D - W) for the binary union-symmetrized kNN graph over Y's
    columns: each row's first k columns in a stable argsort of its squared
    distances, the union taken as max(W, W.T), and D - W as a new array."""
    d2 = pairwise_sq_distances(Y, Y)
    np.fill_diagonal(d2, np.inf)
    nearest = np.argsort(d2, axis=1, kind="stable")[:, :k]
    b = d2.shape[0]
    W = np.zeros((b, b))
    W[np.repeat(np.arange(b), k), nearest.reshape(-1)] = 1.0
    W = np.maximum(W, W.T)
    return W, np.diag(W.sum(axis=1)) - W


def pairwise_sq_distances_loops(A, Y):
    """Squared Euclidean distances between columns, written as plain loops."""
    A = np.asarray(A, dtype=np.float64)
    Y = np.asarray(Y, dtype=np.float64)
    m, n = A.shape[1], Y.shape[1]
    out = np.zeros((m, n))
    for j in range(m):
        for i in range(n):
            diff = Y[:, i] - A[:, j]
            out[j, i] = float(diff @ diff)
    return out


def gabor_grid_loop(flat, side, u0, v0, sigma0, thetas, freqs, phases, num_starts):
    """Score a Gabor start grid one (theta, f, phi) candidate at a time.

    Each candidate is rendered on the 2-D pixel grid, centred with
    .mean(), and dotted as an elementwise product and .sum(), and a
    stable Python sort orders them. Returns the (sse, amp) of every candidate in loop order and
    the start vectors (amp, u0, v0, theta, sigma0, sigma0, f, phi) of
    the num_starts best.
    """
    vv, uu = np.mgrid[0:side, 0:side]
    du, dv = uu.astype(np.float64) - u0, vv.astype(np.float64) - v0
    scores, candidates = [], []
    for theta in thetas:
        ct, st = np.cos(theta), np.sin(theta)
        for f in freqs:
            for phi in phases:
                up = du * ct + dv * st
                vp = -du * st + dv * ct
                env = np.exp(-(up * up / (2.0 * sigma0 * sigma0)
                               + vp * vp / (2.0 * sigma0 * sigma0)))
                shape = (env * np.cos(2.0 * np.pi * f * up + phi)).ravel()
                shape = shape - shape.mean()
                denom = float((shape * shape).sum())
                amp = float((shape * flat).sum()) / denom if denom > 0.0 else 0.0
                sse = float(((amp * shape - flat) ** 2).sum())
                scores.append((sse, amp))
                candidates.append((sse, amp, theta, f, phi))
    candidates.sort(key=lambda c: c[0])
    starts = [np.array([amp, u0, v0, theta, sigma0, sigma0, f, phi])
              for _, amp, theta, f, phi in candidates[:num_starts]]
    return scores, starts


def fnv1a64_bytewise(data):
    """64-bit FNV-1a over Python ints, one xor and one multiply per byte."""
    h = 0xCBF29CE484222325
    for byte in bytes(data):
        h = ((h ^ byte) * 0x100000001B3) & ((1 << 64) - 1)
    return h


def edge_strokes_full_frame(side=510, cell=100, seed=3, sigma=1.3, amp=3.5):
    """`synthdata.edge_strokes`, computing every stroke on every pixel."""
    rng = CounterRng(derive_seed(seed, "edge-strokes"))
    img = np.zeros((side, side))
    yy, xx = np.mgrid[0:side, 0:side].astype(float)
    cells = side // cell
    n = cells * cells
    thetas = rng.uniforms(n) * math.pi
    lens = 64.0 + rng.uniforms(n) * 20.0
    signs = np.where(rng.uniforms(n) < 0.5, -1.0, 1.0)
    offs = rng.uniforms(2 * n) * 10.0 - 5.0
    k = 0
    for cv in range(cells):
        for cu in range(cells):
            cx = cu * cell + cell / 2.0 + offs[2 * k]
            cy = cv * cell + cell / 2.0 + offs[2 * k + 1]
            ct, st = math.cos(thetas[k]), math.sin(thetas[k])
            u = (xx - cx) * ct + (yy - cy) * st
            v = -(xx - cx) * st + (yy - cy) * ct
            L = lens[k]
            keep = (np.abs(v) < 5.0 * sigma) & (np.abs(u) < L / 2.0)
            prof = -(v / sigma ** 2) * np.exp(-v ** 2 / (2.0 * sigma ** 2))
            taper = 0.5 * (1.0 + np.cos(
                np.clip(np.abs(u) - (L / 2.0 - 8.0), 0.0, 8.0) * math.pi / 8.0))
            img[keep] += (signs[k] * amp * prof * taper)[keep]
            k += 1
    return img


def dead_leaves_discs(side, num_discs, seed, r_min, r_max):
    """The (radii, cx, cy, grays) that `synthdata.dead_leaves_image` draws."""
    rng = CounterRng(derive_seed(seed, "dead-leaves"))
    a = r_min ** -2.0
    b = r_max ** -2.0
    u = rng.uniforms(num_discs)
    radii = (a - u * (a - b)) ** -0.5
    cx = rng.uniforms(num_discs) * side
    cy = rng.uniforms(num_discs) * side
    grays = rng.uniforms(num_discs) * 2.0 - 1.0
    return radii, cx, cy, grays


def dead_leaves_full_frame(side=512, num_discs=1200, seed=20260825, r_min=6.0,
                           r_max=80.0, blur_sigma=0.7):
    """`synthdata.dead_leaves_image`, testing every disc on every pixel."""
    radii, cx, cy, grays = dead_leaves_discs(side, num_discs, seed, r_min, r_max)
    img = np.zeros((side, side))
    yy, xx = np.mgrid[0:side, 0:side].astype(float)
    for i in range(num_discs):
        mask = (xx - cx[i]) ** 2 + (yy - cy[i]) ** 2 <= radii[i] ** 2
        img[mask] = grays[i]
    img = _gaussian_blur(img, blur_sigma)
    img -= img.mean()
    sd = img.std()
    if sd > 0:
        img /= sd
    return img
