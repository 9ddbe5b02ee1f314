"""2D Gabor rendering, least-squares fitting, and phase conventions.

The model is g(u, v) = K exp(-(u'^2 / 2 sigma_x^2 + v'^2 / 2 sigma_y^2))
* cos(2 pi f u' + phi), with (u', v') the image coordinates rotated by
theta about the center (u0, v0); u is the column index and v the row
index. Fitting runs a coarse grid over (theta, f, phi) with closed-form
amplitude, then refines the best starts with a damped Gauss-Newton
loop, and finally canonicalizes the parameters into fixed ranges.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import ContractError, DegenerateInputError

_GRID_THETAS = np.linspace(0.0, np.pi, 12, endpoint=False)
_GRID_FREQS = np.geomspace(0.05, 0.45, 8)
_GRID_PHASES = np.linspace(-np.pi, np.pi, 8, endpoint=False)

_SIGMA_FLOOR = 0.25
_FREQ_FLOOR = 1e-3
_FREQ_CEIL = 0.75
_CONVERGED_RESIDUAL = 0.5


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


def _gabor_image(q, uu, vv):
    K, u0, v0, theta, sx, sy, f, phi = q
    du, dv = uu - u0, vv - v0
    ct, st = np.cos(theta), np.sin(theta)
    up = du * ct + dv * st
    vp = -du * st + dv * ct
    env = np.exp(-(up * up / (2.0 * sx * sx) + vp * vp / (2.0 * sy * sy)))
    return K * env * np.cos(2.0 * np.pi * f * up + phi)


def _gabor_jacobian(q, uu, vv):
    K, u0, v0, theta, sx, sy, f, phi = q
    du, dv = uu - u0, vv - v0
    ct, st = np.cos(theta), np.sin(theta)
    up = du * ct + dv * st
    vp = -du * st + dv * ct
    env = np.exp(-(up * up / (2.0 * sx * sx) + vp * vp / (2.0 * sy * sy)))
    arg = 2.0 * np.pi * f * up + phi
    cosa, sina = np.cos(arg), np.sin(arg)
    d_up = K * env * (-(up / (sx * sx)) * cosa - 2.0 * np.pi * f * sina)
    d_vp = K * env * (-(vp / (sy * sy)) * cosa)
    cols = (
        env * cosa,                                   # amplitude
        -ct * d_up + st * d_vp,                       # u0
        -st * d_up - ct * d_vp,                       # v0
        vp * d_up - up * d_vp,                        # theta
        K * env * cosa * (up * up / (sx ** 3)),       # sigma_x
        K * env * cosa * (vp * vp / (sy ** 3)),       # sigma_y
        -K * env * sina * (2.0 * np.pi * up),         # freq
        -K * env * sina,                              # phase
    )
    return np.stack([c.ravel() for c in cols], axis=1)


def render_gabor(params, side):
    """Evaluate a Gabor on a side x side pixel grid."""
    vv, uu = np.mgrid[0:side, 0:side]
    q = _vector(params) if isinstance(params, GaborParams) else np.asarray(params, float)
    return _gabor_image(q, uu.astype(np.float64), vv.astype(np.float64))


def _plausible(q):
    sx, sy, f = abs(q[4]), abs(q[5]), abs(q[6])
    return (np.all(np.isfinite(q)) and sx > _SIGMA_FLOOR and sy > _SIGMA_FLOOR
            and _FREQ_FLOOR < f < _FREQ_CEIL)


def _centered_model(q, uu, vv):
    # the DC direction is quotiented out of the fit, so compare the
    # model in the same zero-mean subspace as the target
    flat = _gabor_image(q, uu, vv).ravel()
    return flat - flat.mean()


def _refine(q, flat, uu, vv, max_iters, step_tol):
    """Damped Gauss-Newton; returns (params, sse, step_tol_met)."""
    q = q.copy()
    resid = _centered_model(q, uu, vv) - flat
    sse = float(resid @ resid)
    mu = 1e-3
    hit = False
    eye = np.eye(q.size)
    for _ in range(max_iters):
        J = _gabor_jacobian(q, uu, vv)
        J -= J.mean(axis=0, keepdims=True)
        g = J.T @ resid
        H = J.T @ J
        accepted = False
        delta = None
        for _ in range(50):
            try:
                delta = np.linalg.solve(H + mu * eye, -g)
            except np.linalg.LinAlgError:
                mu *= 10.0
                continue
            trial = q + delta
            if not _plausible(trial):
                mu *= 10.0
                continue
            trial_resid = _centered_model(trial, uu, vv) - flat
            trial_sse = float(trial_resid @ trial_resid)
            if np.isfinite(trial_sse) and trial_sse <= sse:
                q, resid, sse = trial, trial_resid, trial_sse
                mu = max(mu / 10.0, 1e-12)
                accepted = True
                break
            mu *= 10.0
        if not accepted:
            break
        if np.linalg.norm(delta) <= step_tol * (1.0 + np.linalg.norm(q)):
            hit = True
            break
    return q, sse, hit


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
    if half_turns % 2 != 0:
        phi = -phi
    phi = math.pi - ((math.pi - phi) % (2.0 * math.pi))
    return np.array([K, u0, v0, theta, sx, sy, f, phi])


def unfit_params(side):
    """The record of a field with nothing to fit: centred, unconverged, residual 1."""
    center = (side - 1) / 2.0
    return GaborParams(0.0, center, center, 0.0, side / 4.0, side / 4.0,
                       float(_GRID_FREQS[0]), 0.0, residual=1.0, converged=False)


def gabor_fit(rf, max_iters=200, step_tol=1e-8, num_starts=3):
    """Least-squares Gabor fit to a square receptive-field image.

    The field is mean-subtracted first (the model carries no DC term).
    converged requires both the step tolerance to bite and a relative
    residual under 0.5; constant fields come back unconverged with
    residual 1 since they carry no oscillatory structure at all.
    """
    img = np.asarray(rf.image if hasattr(rf, "image") else rf, dtype=np.float64)
    if img.ndim != 2 or img.shape[0] != img.shape[1]:
        raise ContractError("receptive field must be a square image")
    side = img.shape[0]
    if not img.any():
        raise DegenerateInputError("all-zero receptive field")
    target = img - img.mean()
    tnorm = float(np.linalg.norm(target))
    if tnorm == 0.0:
        return unfit_params(side)

    vv, uu = np.mgrid[0:side, 0:side]
    uu = uu.astype(np.float64)
    vv = vv.astype(np.float64)
    flat = target.ravel()
    peak = np.unravel_index(int(np.argmax(np.abs(target))), target.shape)
    u0, v0 = float(peak[1]), float(peak[0])
    sigma0 = side / 4.0

    candidates = []
    for theta in _GRID_THETAS:
        for f in _GRID_FREQS:
            for phi in _GRID_PHASES:
                q = np.array([1.0, u0, v0, theta, sigma0, sigma0, f, phi])
                shape = _centered_model(q, uu, vv)
                denom = float(shape @ shape)
                amp = float(shape @ flat) / denom if denom > 0.0 else 0.0
                sse = float(((amp * shape - flat) ** 2).sum())
                candidates.append((sse, amp, theta, f, phi))
    candidates.sort(key=lambda item: item[0])

    best_q, best_sse, best_hit = None, np.inf, False
    for _, amp, theta, f, phi in candidates[:num_starts]:
        start = np.array([amp, u0, v0, theta, sigma0, sigma0, f, phi])
        refined, sse, hit = _refine(start, flat, uu, vv, max_iters, step_tol)
        if sse < best_sse:
            best_q, best_sse, best_hit = refined, sse, hit
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
    """(sigma_x * f, sigma_y * f): small means blob-like, large elongated."""
    if not params.converged:
        raise ContractError("shape metrics require a converged fit")
    return params.sigma_x * params.freq, params.sigma_y * params.freq
