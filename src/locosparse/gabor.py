"""2D Gabor rendering, least-squares fitting, and phase conventions.

The model is g(u, v) = K exp(-(u'^2 / 2 sigma_x^2 + v'^2 / 2 sigma_y^2))
* cos(2 pi f u' + phi), with (u', v') the image coordinates rotated by
theta about the center (u0, v0); u is the column index and v the row
index; _evaluate is its one definition. Fitting scores a (theta, f, phi)
grid with closed-form amplitude in one broadcast _evaluate call, each image
once (phi in [0, pi)), refines the best start with damped Gauss-Newton
(Levenberg-Marquardt) kept inside the one feasible region of _in_bounds,
refines the runner-up too only when the best start was cut off (by the
iteration cap, by an iteration with no acceptable trial, or by a relative
residual still at or above 0.5 after 10 iterations) and keeps the lower
sse, and canonicalizes the result into fixed ranges. Each trial is
evaluated once, and an accepted trial's shared terms give the next
Jacobian. An accepted trial sets the damping from its gain ratio, the
actual over the predicted decrease of the residual (Nielsen, 1999); a
rejected one multiplies it by ten. A fit is converged when the step
tolerance bites with no trial rejected at a bound in the final iteration
and the relative residual is below 0.5, so a converged fit rests at no
bound but the frequency floor: a trial below that floor is rejected
without marking.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError

_GRID_THETAS = np.linspace(0.0, np.pi, 12, endpoint=False)
_GRID_FREQS = np.geomspace(0.05, 0.45, 8)
_GRID_PHASES = np.linspace(0.0, np.pi, 4, endpoint=False)
# candidates (theta, f, phi), phi fastest
_GRID = np.stack(np.meshgrid(_GRID_THETAS, _GRID_FREQS, _GRID_PHASES, indexing="ij"),
                 axis=-1).reshape(-1, 3)

_SIGMA_FLOOR = 0.25
_FREQ_FLOOR = 1e-3
_FREQ_CEIL = 0.75
_CONVERGED_RESIDUAL = 0.5
_NUM_STARTS = 2       # best grid candidates, refined in turn until one settles
_MAX_ITERS = 200      # Gauss-Newton iterations per start
_CUTOFF_ITERS = 10    # iterations after which a start not yet under _CONVERGED_RESIDUAL stops
_STEP_TOL = 1e-8      # relative step length that counts as converged


@dataclass(frozen=True)
class GaborParams:
    """Fitted Gabor parameters plus the relative residual ||fit - rf||/||rf||."""

    amplitude: float
    u0: float
    v0: float
    theta: float
    sigma_x: float
    sigma_y: float
    freq: float
    phase: float
    residual: float = 0.0
    converged: bool = True


def _vector(p):
    return np.array([p.amplitude, p.u0, p.v0, p.theta,
                     p.sigma_x, p.sigma_y, p.freq, p.phase])


def _coords(side):
    """Column (u) and row (v) index of every pixel, row-major, as floats."""
    idx = np.arange(side, dtype=np.float64)
    return np.tile(idx, side), np.repeat(idx, side)


def _evaluate(q, u, v):
    """The model image at q on pixels (u, v), and a function returning its
    Jacobian (one row per pixel) from this evaluation's terms."""
    K, u0, v0, theta, sx, sy, f, phi = q
    du, dv = u - u0, v - v0
    ct, st = np.cos(theta), np.sin(theta)
    up = du * ct + dv * st
    vp = -du * st + dv * ct
    env = np.exp(-(up * up / (2.0 * sx * sx) + vp * vp / (2.0 * sy * sy)))
    arg = 2.0 * np.pi * f * up + phi
    kenv = K * env
    cosa = np.cos(arg)
    image = kenv * cosa

    def jacobian():
        sina = np.sin(arg)
        d_up = kenv * (-(up / (sx * sx)) * cosa - 2.0 * np.pi * f * sina)
        d_vp = kenv * (-(vp / (sy * sy)) * cosa)
        J = np.empty((up.size, 8))
        J[:, 0] = env * cosa                            # amplitude
        J[:, 1] = -ct * d_up + st * d_vp                # u0
        J[:, 2] = -st * d_up - ct * d_vp                # v0
        J[:, 3] = vp * d_up - up * d_vp                 # theta
        J[:, 4] = image * (up * up / (sx ** 3))         # sigma_x
        J[:, 5] = image * (vp * vp / (sy ** 3))         # sigma_y
        J[:, 7] = -(kenv * sina)                        # phase
        J[:, 6] = J[:, 7] * (2.0 * np.pi * up)          # freq
        return J
    return image, jacobian


def render_gabor(params, side):
    """Evaluate the Gabor of a GaborParams on a side x side pixel grid."""
    return _evaluate(_vector(params), *_coords(side))[0].reshape(side, side)


def _in_bounds(q, side):
    """Whether q lies in the feasible region: |sigma_x|, |sigma_y| above
    the sigma floor, |f| strictly between the frequency floor and ceiling,
    and the centre (u0, v0) on the pixel grid, [-0.5, side - 0.5]^2."""
    sx, sy, f = abs(q[4]), abs(q[5]), abs(q[6])
    return (sx > _SIGMA_FLOOR and sy > _SIGMA_FLOOR and _FREQ_FLOOR < f < _FREQ_CEIL
            and -0.5 <= q[1] <= side - 0.5 and -0.5 <= q[2] <= side - 0.5)


def _coarse_grid(flat, u, v, u0, v0, sigma0):
    """(sse, amp) of every grid candidate, and the _NUM_STARTS best start vectors.

    phi spans [0, pi): a negative amp stands for phi + pi, so the grid holds
    each image once and no two starts are mirror images. One _evaluate call
    renders every candidate at unit amplitude, its (theta, f, phi) axes
    broadcast against the pixels. Each dot product is an elementwise product
    summed along its row in the order of that row's own .sum(), so each score
    is bit-identical to scoring its candidate alone, whatever the BLAS kernel.
    """
    n = flat.size
    q = (1.0, u0, v0, _GRID_THETAS[:, None, None, None], sigma0, sigma0,
         _GRID_FREQS[:, None, None], _GRID_PHASES[:, None])
    shapes = _evaluate(q, u, v)[0].reshape(-1, n)
    # the fit quotients out DC: compare in the target's zero-mean subspace
    shapes -= shapes.sum(axis=1, keepdims=True) / n
    denom = (shapes * shapes).sum(axis=1)
    amp = np.zeros_like(denom)
    np.divide((shapes * flat).sum(axis=1), denom, out=amp, where=denom > 0.0)
    sse = ((amp[:, None] * shapes - flat) ** 2).sum(axis=1)
    best = np.argsort(sse, kind="stable")[:_NUM_STARTS]
    starts = [np.array([amp[i], u0, v0, theta, sigma0, sigma0, f, phi])
              for i, (theta, f, phi) in zip(best, _GRID[best])]
    return sse, amp, starts


def _refine(q, flat, u, v):
    """Damped Gauss-Newton inside the feasible region; returns (params,
    sse, step_tol_met, settled).

    An accepted trial scales the damping mu by max(1/3, 1 - (2 rho - 1)^3),
    rho being its gain ratio: the decrease of sse over the decrease
    delta . (mu delta - g) that the linear model predicts, capped at 1,
    and 1 where that prediction is not positive (delta = 0 at an exact
    fit). A rejected trial multiplies mu by ten, and mu stays at or above
    1e-12. A failed solve or a non-finite trial only raises the damping. A
    finite trial outside _in_bounds raises it too, so the returned
    parameters stay in the region, and unless its |f| is at or below the
    frequency floor it marks the iteration as at a bound. step_tol_met is
    False when the final iteration was at a bound: that start rests
    against a bound, not at an interior optimum. A trial below the floor
    does not mark, so a fit can still converge resting there, in the
    f -> 0 limit where the carrier is flat on the patch. settled is True
    when the step tolerance stopped the refinement, in the interior or at a
    bound; it is False when the start was cut off, by _MAX_ITERS, by an
    iteration with no acceptable trial in 50 tries, or by a relative
    residual still at or above _CONVERGED_RESIDUAL after _CUTOFF_ITERS
    iterations. Accepted steps never raise the sse, so a start below that
    residual by then stays below it and is refined exactly as without the
    cut.
    """
    n = flat.size
    side = math.isqrt(n)

    def residual(image):  # the DC-removed model minus the target, and its sse
        resid = image - image.sum() / n - flat
        return resid, float(resid @ resid)

    image, jacobian = _evaluate(q.tolist(), u, v)
    resid, sse = residual(image)
    mu = 1e-3
    hit = settled = False
    eye = np.eye(q.size)
    # sse at relative residual _CONVERGED_RESIDUAL (scaling by 0.25 is exact)
    cutoff_sse = _CONVERGED_RESIDUAL ** 2 * float(flat @ flat)
    for it in range(_MAX_ITERS):
        J = jacobian()
        J -= J.sum(axis=0) / n
        g = J.T @ resid
        H = J.T @ J
        at_bound = False
        for _ in range(50):
            try:
                delta = np.linalg.solve(H + mu * eye, -g)
            except np.linalg.LinAlgError:
                mu *= 10.0
                continue
            trial = q + delta
            trial_q = trial.tolist()
            finite = all(map(math.isfinite, trial_q))
            if not (finite and _in_bounds(trial_q, side)):
                at_bound |= finite and abs(trial_q[6]) > _FREQ_FLOOR
                mu *= 10.0
                continue
            image, trial_jacobian = _evaluate(trial_q, u, v)
            trial_resid, trial_sse = residual(image)
            if math.isfinite(trial_sse) and trial_sse <= sse:
                pred = float(delta @ (mu * delta - g))
                rho = min((sse - trial_sse) / pred, 1.0) if pred > 0.0 else 1.0
                q, resid, sse, jacobian = trial, trial_resid, trial_sse, trial_jacobian
                mu = max(mu * max(1.0 / 3.0, 1.0 - (2.0 * rho - 1.0) ** 3), 1e-12)
                break
            mu *= 10.0
        else:  # no acceptable step in 50 tries
            break
        if math.sqrt(delta @ delta) <= _STEP_TOL * (1.0 + math.sqrt(q @ q)):
            hit, settled = not at_bound, True
            break
        if it + 1 >= _CUTOFF_ITERS and sse >= cutoff_sse:  # not converging
            break
    return q, sse, hit, settled


def canonical_vector(q):
    """Fold the sign and period symmetries into fixed parameter ranges.

    sigma become positive, f becomes positive (phi flips sign), K
    becomes positive (phi gains pi), theta lands in [0, pi) with phi
    mirrored once per half-turn removed, and phi wraps into (-pi, pi].
    The rendered image is unchanged.
    """
    K, u0, v0, theta, sx, sy, f, phi = (float(x) for x in q)
    sx, sy = abs(sx), abs(sy)
    if f < 0:
        f, phi = -f, -phi
    if K < 0:
        K, phi = -K, phi + math.pi
    half_turns = math.floor(theta / math.pi)
    theta -= half_turns * math.pi
    # theta / pi rounds, so the remainder can miss [0, pi): at -1e-17 the
    # quotient floors to -1 and theta rounds to pi; at -5e-324 it is -0
    # and theta stays negative
    if theta < 0.0:
        theta += math.pi
        half_turns -= 1
    if theta >= math.pi:
        theta -= math.pi
        half_turns += 1
    if half_turns % 2 != 0:
        phi = -phi
    phi = math.pi - ((math.pi - phi) % (2.0 * math.pi))
    return np.array([K, u0, v0, theta, sx, sy, f, phi])


def _unfit_params(side):
    """The record of a field with nothing to fit: centred, unconverged, residual 1."""
    center = (side - 1) / 2.0
    return GaborParams(0.0, center, center, 0.0, side / 4.0, side / 4.0,
                       float(_GRID_FREQS[0]), 0.0, residual=1.0, converged=False)


def gabor_fit(image):
    """Least-squares Gabor fit to a square 2-D receptive-field image.

    The field is mean-subtracted first (the model carries no DC term).
    converged requires two things: the step tolerance bites with no trial
    rejected at a bound of _in_bounds in the final iteration, and the
    relative residual is under 0.5. Refinement never leaves the feasible
    region, so every fit lies in it, and a converged one rests at no
    bound but, possibly, the frequency floor (see _refine). A zero or
    constant field comes back as the unfit record: centred, unconverged,
    residual 1.
    """
    img = np.asarray(image, dtype=np.float64)
    if not np.isfinite(img).all():
        raise ConfigError("receptive field must be finite")
    side = img.shape[0]
    # not tnorm == 0: the mean of a constant field can round off its value
    if img.min() == img.max():
        return _unfit_params(side)
    target = img - img.mean()
    tnorm = float(np.linalg.norm(target))

    u, v = _coords(side)
    flat = target.ravel()
    peak = np.unravel_index(int(np.argmax(np.abs(target))), target.shape)
    u0, v0 = float(peak[1]), float(peak[0])
    sigma0 = side / 4.0
    _, _, starts = _coarse_grid(flat, u, v, u0, v0, sigma0)

    # refine the starts in turn until one settles; the lowest sse among
    # those refined wins, an earlier start on a tie
    best = None
    for start in starts:
        refined = _refine(start, flat, u, v)
        if best is None or refined[1] < best[1]:
            best = refined
        if refined[3]:
            break
    best_q, best_sse, best_hit, _ = best
    q = canonical_vector(best_q)
    residual = math.sqrt(best_sse) / tnorm
    return GaborParams(q[0], q[1], q[2], q[3], q[4], q[5], q[6], q[7],
                       residual=residual,
                       converged=bool(best_hit and residual < _CONVERGED_RESIDUAL))


def fold_phase(phi):
    """Collapse a phase into [0, 90] degrees: 0 is even symmetry, 90 odd.

    The amplitude-sign symmetry identifies phi with phi + pi and the
    mirror symmetry identifies phi with -phi, so every phase has a
    representative in the first quadrant.
    """
    r = float(phi) % math.pi
    if r > math.pi / 2.0:
        r = math.pi - r
    return math.degrees(r)


def shape_metrics(params):
    """(sigma_x * f, sigma_y * f) of a converged fit: small means blob-like,
    large elongated."""
    return params.sigma_x * params.freq, params.sigma_y * params.freq
