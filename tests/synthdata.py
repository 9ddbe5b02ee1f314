"""Synthetic image sources for the tests.

Everything here is generated from the package's own counter RNG, so a
given (function, seed) pair always reproduces the same pixels.  The
generators give controlled edge and phase statistics: occluding discs
for generic edge-dominated scenes, a sparse bed of low-amplitude odd
wavelets, and strong isolated ring edges.  The combined scene from
``phase_contrast_scene`` separates the two trainers by construction:
the soft-assignment path keeps learning from the faint wavelet bed,
while the thresholding path only ever responds to the strong edges.
"""

import math

import numpy as np

from locosparse.rng import CounterRng, derive_seed


def _gaussian_blur(img, sigma):
    if sigma <= 0.0:
        return img
    half = max(1, int(math.ceil(3.0 * sigma)))
    xs = np.arange(-half, half + 1, dtype=float)
    kern = np.exp(-0.5 * (xs / sigma) ** 2)
    kern /= kern.sum()
    pad = np.pad(img, half, mode="reflect")
    rows = np.apply_along_axis(lambda r: np.convolve(r, kern, mode="valid"), 1, pad)
    return np.apply_along_axis(lambda c: np.convolve(c, kern, mode="valid"), 0, rows)


def _window(cx, cy, reach, side):
    """The frame's pixels within `reach` of (cx, cy) along each axis.

    Returns the window as a (rows, columns) pair of slices, clipped to
    the side x side frame, and its row and column coordinates as a
    float column and a float row, which broadcast to the window.
    """
    r0, r1 = max(int(cy - reach), 0), min(int(cy + reach) + 1, side)
    c0, c1 = max(int(cx - reach), 0), min(int(cx + reach) + 1, side)
    yy = np.arange(r0, r1, dtype=float)[:, None]
    xx = np.arange(c0, c1, dtype=float)[None, :]
    return (slice(r0, r1), slice(c0, c1)), yy, xx


def dead_leaves_image(side=512, num_discs=1200, seed=20260825, r_min=6.0,
                      r_max=80.0, blur_sigma=0.7):
    """Occluding-disc scene with a power-law radius distribution.

    Discs are painted back to front with uniform gray levels, which
    yields the long straight-ish occlusion boundaries that make patch
    statistics edge-dominated.  The result is blurred slightly so the
    edges are resolvable, then standardized to zero mean and unit
    variance.

    Each disc is tested only on its bounding box, widened by one pixel
    and clipped to the frame; no pixel outside that box can lie in the
    disc.  Every pixel inside gets the same distance test as on the
    full frame, and the discs are painted in the same order, so the
    image is the same to the byte as one that tests every pixel.
    """
    rng = CounterRng(derive_seed(seed, "dead-leaves"))
    a = r_min ** -2.0
    b = r_max ** -2.0
    u = rng.uniforms(num_discs)
    radii = (a - u * (a - b)) ** -0.5
    cx = rng.uniforms(num_discs) * side
    cy = rng.uniforms(num_discs) * side
    grays = rng.uniforms(num_discs) * 2.0 - 1.0
    img = np.zeros((side, side))
    for i in range(num_discs):
        box, yy, xx = _window(cx[i], cy[i], radii[i] + 1.0, side)
        mask = (xx - cx[i]) ** 2 + (yy - cy[i]) ** 2 <= radii[i] ** 2
        img[box][mask] = grays[i]
    img = _gaussian_blur(img, blur_sigma)
    img -= img.mean()
    sd = img.std()
    if sd > 0:
        img /= sd
    return img


def wavelet_field(side=510, spacing=17, seed=1, amp=0.55):
    """Sparse bed of oriented odd wavelets on a jittered grid.

    One small Gabor-like wavelet is dropped per grid cell with random
    orientation, frequency, and sign.  The carrier phase sits near 90
    degrees (odd symmetry) with a little jitter.  At the default
    amplitude an 8x8 patch over a wavelet has norm around one, which
    keeps the bed below the response threshold of an l1 encoder with
    moderate lambda while still carrying plenty of structure.
    """
    rng = CounterRng(derive_seed(seed, "wavelet-field"))
    cells = side // spacing
    n = cells * cells
    ju = rng.uniforms(n) * (spacing - 8) + 4.0
    jv = rng.uniforms(n) * (spacing - 8) + 4.0
    thetas = rng.uniforms(n) * math.pi
    freqs = 0.15 + rng.uniforms(n) * 0.13
    sig_a = 1.8 + rng.uniforms(n) * 0.8
    sig_x = 1.2 + rng.uniforms(n) * 0.8
    signs = np.where(rng.uniforms(n) < 0.5, -1.0, 1.0)
    jit = rng.normals(n) * math.radians(8.0)
    img = np.zeros((side, side))
    k = 0
    for cv in range(cells):
        for cu in range(cells):
            u0 = cu * spacing + ju[k]
            v0 = cv * spacing + jv[k]
            half = 7
            lo_u, hi_u = max(int(u0) - half, 0), min(int(u0) + half + 1, side)
            lo_v, hi_v = max(int(v0) - half, 0), min(int(v0) + half + 1, side)
            uu = np.arange(lo_u, hi_u)[None, :] - u0
            vv = np.arange(lo_v, hi_v)[:, None] - v0
            ct, st = math.cos(thetas[k]), math.sin(thetas[k])
            up = uu * ct + vv * st
            vp = -uu * st + vv * ct
            env = np.exp(-(up ** 2 / (2 * sig_a[k] ** 2) + vp ** 2 / (2 * sig_x[k] ** 2)))
            img[lo_v:hi_v, lo_u:hi_u] += signs[k] * amp * env * np.cos(
                2.0 * math.pi * freqs[k] * up + math.pi / 2.0 + jit[k])
            k += 1
    return img


def edge_strokes(side=510, cell=100, seed=3, sigma=1.3, amp=3.5):
    """Strong isolated edge strokes, one per grid cell.

    Each stroke is a straight oriented edge with a Gaussian-derivative
    cross profile (odd and smooth) and a raised-cosine taper at the
    ends.  Placing exactly one stroke per cell with the length capped
    below the cell size guarantees strokes never cross, so no patch
    ever sees two edges superimposed.

    A stroke of length L reaches no pixel farther than hypot(L/2,
    5 sigma) from its centre, so each one is computed only on the
    window of rows and columns within that distance plus one pixel,
    clipped to the frame.  Every pixel in the window gets the same
    arithmetic as on the full frame, and the strokes add in the same
    order, so the image is the same to the byte as one that computes
    every stroke on every pixel.
    """
    rng = CounterRng(derive_seed(seed, "edge-strokes"))
    img = np.zeros((side, side))
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
            L = lens[k]
            box, yy, xx = _window(cx, cy, math.hypot(L / 2.0, 5.0 * sigma) + 1.0, side)
            u = (xx - cx) * ct + (yy - cy) * st
            v = -(xx - cx) * st + (yy - cy) * ct
            keep = (np.abs(v) < 5.0 * sigma) & (np.abs(u) < L / 2.0)
            prof = -(v / sigma ** 2) * np.exp(-v ** 2 / (2.0 * sigma ** 2))
            taper = 0.5 * (1.0 + np.cos(
                np.clip(np.abs(u) - (L / 2.0 - 8.0), 0.0, 8.0) * math.pi / 8.0))
            img[box][keep] += (signs[k] * amp * prof * taper)[keep]
            k += 1
    return img


def phase_contrast_scene(side=510):
    """Training scene mixing the faint wavelet bed with strong strokes.

    Roughly one patch in ten touches a stroke; those patches have norms
    well above the l1 activation threshold at lambda 0.5 and carry odd
    structure only.  Every other patch is wavelet bed, visible to the
    simplex encoder but silent under hard thresholding.
    """
    return wavelet_field(side=side) + edge_strokes(side=side)
