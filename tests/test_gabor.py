"""Gabor rendering, fitting, and the phase-fold convention."""

import dataclasses
import itertools
import math

import numpy as np
import pytest

from locosparse import gabor
from locosparse.errors import ConfigError
from locosparse.gabor import (GaborParams, canonical_vector, fold_phase,
                              gabor_fit, render_gabor, shape_metrics)
from locosparse.gabor import (_CONVERGED_RESIDUAL, _CUTOFF_ITERS, _GRID_FREQS,
                              _GRID_PHASES, _GRID_THETAS, _MAX_ITERS, _NUM_STARTS,
                              _SIGMA_FLOOR, _coarse_grid, _coords, _evaluate, _refine,
                              _unfit_params, _vector)
from locosparse.rfeval import sta_receptive_fields

from oracles import fd_gradient, gabor_grid_loop


def _params(**kw):
    base = dict(amplitude=1.0, u0=7.5, v0=7.5, theta=0.6, sigma_x=2.5,
                sigma_y=3.5, freq=0.2, phase=0.4)
    base.update(kw)
    return GaborParams(**base)


# a well-conditioned recovery grid: enough cycles under the envelope for
# every parameter to be identifiable on a 16x16 window
_RECOVERY_CASES = [
    dict(theta=th, freq=f, phase=ph, sigma_x=sx, sigma_y=sy)
    for th, f, ph, sx, sy in [
        (0.0, 0.20, 0.0, 2.5, 3.5),
        (0.4, 0.15, 1.2, 3.0, 2.2),
        (0.9, 0.25, -0.7, 2.0, 3.0),
        (1.3, 0.18, math.pi / 2, 2.8, 2.8),
        (1.6, 0.30, 2.5, 1.8, 3.6),
        (2.1, 0.12, -2.0, 3.5, 2.5),
        (2.6, 0.22, 0.9, 2.2, 2.2),
        (3.0, 0.35, -1.4, 1.6, 2.6),
    ]
]


@pytest.mark.parametrize("case", _RECOVERY_CASES)
def test_noiseless_recovery(case):
    truth = _params(**case)
    img = render_gabor(truth, 16)
    fit = gabor_fit(img)
    assert fit.converged
    assert fit.residual < 1e-3
    dtheta = abs(fit.theta - truth.theta) % math.pi
    dtheta = min(dtheta, math.pi - dtheta)
    assert math.degrees(dtheta) < 5.0
    assert abs(fit.freq - truth.freq) / truth.freq < 0.10
    dphi = abs(fold_phase(fit.phase) - fold_phase(truth.phase))
    assert dphi < 10.0


def test_fit_refit_fixed_point():
    truth = _params(theta=1.1, freq=0.22, phase=0.8)
    first = gabor_fit(render_gabor(truth, 16))
    second = gabor_fit(render_gabor(first, 16))
    a = render_gabor(first, 16)
    b = render_gabor(second, 16)
    scale = np.linalg.norm(a - a.mean())
    assert np.linalg.norm((a - a.mean()) - (b - b.mean())) / scale < 1e-10


def test_recovery_with_mild_noise():
    rng = np.random.default_rng(6)
    truth = _params(theta=0.7, freq=0.2, phase=1.0)
    img = render_gabor(truth, 16)
    img = img + 0.02 * rng.normal(size=img.shape) * np.abs(img).max()
    fit = gabor_fit(img)
    assert fit.converged
    assert abs(fit.freq - truth.freq) / truth.freq < 0.10


def test_fit_is_deterministic():
    img = render_gabor(_params(theta=0.3), 12)
    a = gabor_fit(img)
    b = gabor_fit(img)
    assert _vector(a).tobytes() == _vector(b).tobytes()


def test_jacobian_matches_finite_differences():
    side = 10
    q0 = np.array([0.8, 4.2, 5.1, 0.7, 2.0, 3.0, 0.21, 0.5])
    image, jacobian = _evaluate(q0, *_coords(side))
    assert np.array_equal(image, render_gabor(GaborParams(*q0), side).ravel())
    J = jacobian()
    for pix in (0, 17, 44, 99):
        def value(q):
            return render_gabor(GaborParams(*q), side).ravel()[pix]
        grad = fd_gradient(value, q0)
        assert np.allclose(J[pix], grad, atol=1e-5)


@pytest.mark.parametrize("side", [8, 15])
@pytest.mark.parametrize("kind", ["gabor", "noisy", "random"])
def test_coarse_grid_matches_per_candidate_loop(kind, side):
    # the broadcast grid must score every candidate and pick every start
    # exactly as scoring the candidates one at a time does
    rng = np.random.default_rng(side)
    center = (side - 1) / 2.0
    img = render_gabor(_params(u0=center, v0=center + 0.7, sigma_x=side / 6.0,
                               sigma_y=side / 5.0), side)
    if kind == "noisy":
        img = img + 0.2 * rng.normal(size=img.shape)
    elif kind == "random":
        img = rng.normal(size=img.shape)
    flat = (img - img.mean()).ravel()
    peak = int(np.argmax(np.abs(flat)))
    u0, v0 = float(peak % side), float(peak // side)
    sse, amp, starts = _coarse_grid(flat, *_coords(side), u0, v0, side / 4.0)
    scores, want_starts = gabor_grid_loop(flat, side, u0, v0, side / 4.0, _GRID_THETAS,
                                          _GRID_FREQS, _GRID_PHASES, _NUM_STARTS)
    assert np.array(scores).tobytes() == np.stack([sse, amp], axis=1).tobytes()
    assert np.array(starts).tobytes() == np.array(want_starts).tobytes()


def _field(kind, side, noise=0.2):
    """A centred Gabor rendering, the same plus noise, or pure noise."""
    rng = np.random.default_rng(side)
    center = (side - 1) / 2.0
    img = render_gabor(_params(u0=center, v0=center + 0.7, sigma_x=side / 6.0,
                               sigma_y=side / 5.0), side)
    if kind == "noisy":
        return img + noise * rng.normal(size=img.shape)
    return rng.normal(size=img.shape) if kind == "random" else img


def _flat_and_starts(image):
    """The zero-mean field, flattened, and its starts, as gabor_fit makes them."""
    side = image.shape[0]
    flat = (image - image.mean()).ravel()
    peak = int(np.argmax(np.abs(flat)))
    starts = _coarse_grid(flat, *_coords(side), float(peak % side), float(peak // side),
                          side / 4.0)[2]
    return flat, starts


def _unit_shapes(q, side):
    """Zero-mean, unit-norm model images, one row per vector of q's broadcast axes."""
    shapes = _evaluate(q, *_coords(side))[0].reshape(-1, side * side)
    shapes = shapes - shapes.mean(axis=1, keepdims=True)
    return shapes / np.linalg.norm(shapes, axis=1, keepdims=True)


@pytest.mark.parametrize("side", [8, 15])
def test_start_grid_holds_each_image_once(side):
    # the closed-form amplitude's sign covers phi + pi, so no candidate may
    # be the negative of another, and no two starts may be mirror images
    center = (side - 1) / 2.0
    shapes = _unit_shapes((1.0, center, center, _GRID_THETAS[:, None, None, None],
                           side / 4.0, side / 4.0, _GRID_FREQS[:, None, None],
                           _GRID_PHASES[:, None]), side)
    cosines = (shapes @ shapes.T)[np.triu_indices(len(shapes), 1)]
    assert cosines.min() > -1.0 + 1e-9
    for kind in ("gabor", "noisy", "random"):
        starts = _flat_and_starts(_field(kind, side))[1]
        assert len(starts) == _NUM_STARTS
        unit = _unit_shapes(np.array(starts).T[:, :, None], side)
        assert (unit @ unit.T)[np.triu_indices(len(unit), 1)].min() > -1.0 + 1e-9


@pytest.mark.parametrize("side, kind", [(8, "gabor"), (8, "noisy"), (8, "random"),
                                        (15, "random")])
def test_negated_field_fits_with_phase_shifted_by_pi(side, kind):
    # the symmetry the start grid relies on: fitting -img walks the same
    # path with K negated, and canonical_vector folds K < 0 into phi + pi
    img = _field(kind, side)
    fit, negated = gabor_fit(img), gabor_fit(-img)
    for name in ("amplitude", "u0", "v0", "theta", "sigma_x", "sigma_y", "freq",
                 "residual", "converged"):
        assert getattr(negated, name) == getattr(fit, name), name
    assert abs((negated.phase - fit.phase) % (2.0 * math.pi) - math.pi) <= 1e-15


def test_canonical_vector_preserves_image():
    side = 12
    raw = np.array([-0.7, 5.0, 6.0, 4.0, -2.5, 3.0, -0.2, 7.0])
    canon = canonical_vector(raw)
    assert np.allclose(render_gabor(GaborParams(*raw), side),
                       render_gabor(GaborParams(*canon), side), atol=1e-12)
    K, _, _, theta, sx, sy, f, phi = canon
    assert K > 0 and sx > 0 and sy > 0 and f > 0
    assert 0.0 <= theta < math.pi
    assert -math.pi < phi <= math.pi


@pytest.mark.parametrize("theta", [-1e-17, -1e-16, 2.0 * math.pi - 1e-16, -5e-324])
def test_canonical_vector_folds_rounded_thetas_into_range(theta):
    # theta / pi rounds: -1e-17 folds to pi - 1e-17, which rounds to pi,
    # and -5e-324 / pi underflows to -0, leaving theta negative
    side = 12
    raw = np.array([0.9, 5.0, 6.0, theta, 2.0, 3.0, 0.2, 0.3])
    canon = canonical_vector(raw)
    assert 0.0 <= canon[3] < math.pi
    assert -math.pi < canon[7] <= math.pi
    assert np.allclose(render_gabor(GaborParams(*raw), side),
                       render_gabor(GaborParams(*canon), side), atol=1e-12)


def test_canonical_vector_fixed_point():
    q = np.array([0.9, 5.0, 6.0, 1.0, 2.0, 3.0, 0.2, 0.3])
    assert np.allclose(canonical_vector(q), q, atol=1e-15)


@pytest.mark.parametrize("phi,want", [
    (0.0, 0.0),
    (math.pi, 0.0),
    (-math.pi, 0.0),
    (2.0 * math.pi, 0.0),
    (math.pi / 2.0, 90.0),
    (-math.pi / 2.0, 90.0),
    (math.pi / 4.0, 45.0),
    (-math.pi / 4.0, 45.0),
    (3.0 * math.pi / 4.0, 45.0),
])
def test_fold_phase_table(phi, want):
    assert fold_phase(phi) == pytest.approx(want, abs=1e-9)


def test_fold_phase_even_and_odd_renders():
    # phase 0 renders an even-symmetric patch about the center line,
    # phase pi/2 an odd-symmetric one; the fold maps them to 0 and 90
    even = gabor_fit(render_gabor(_params(phase=0.0, theta=0.0), 15))
    odd = gabor_fit(render_gabor(_params(phase=math.pi / 2.0, theta=0.0), 15))
    assert even.converged and odd.converged
    assert fold_phase(even.phase) < 5.0
    assert fold_phase(odd.phase) > 85.0


@pytest.mark.parametrize("theta,freq,phase", [(0.3, 0.15, 0.4), (0.0, 0.2, 0.0),
                                              (1.2, 0.25, 1.0)])
def test_off_patch_centre_is_not_converged(theta, freq, phase):
    # the Gabor's centre lies 4 px left of the 8x8 patch; the fit may
    # only rest on the edge, and a fit resting there is not converged
    truth = _params(u0=-4.0, v0=3.5, theta=theta, sigma_x=3.0, sigma_y=2.5,
                    freq=freq, phase=phase)
    fit = gabor_fit(render_gabor(truth, 8))
    assert not fit.converged
    assert -0.5 <= fit.u0 <= 7.5 and -0.5 <= fit.v0 <= 7.5


@pytest.mark.parametrize("theta,freq,phase", list(itertools.product(
    [0.1, 1.3, 2.5], [0.10, 0.20, 0.35], [0.0, math.pi / 2])))
def test_centre_near_the_edge_is_recovered(theta, freq, phase):
    # on the patch but one pixel from its left edge: confinement must not
    # cost this fit its convergence (criterion 8's tolerances)
    truth = GaborParams(1.0, 1.0, 6.0, theta, 2.8, 2.2, freq, phase)
    fit = gabor_fit(render_gabor(truth, 16))
    assert fit.converged
    d_theta = abs(fit.theta - theta) % math.pi
    assert math.degrees(min(d_theta, math.pi - d_theta)) < 5.0
    assert abs(fit.freq - freq) / freq < 0.10
    assert abs(fold_phase(fit.phase) - fold_phase(phase)) < 10.0
    assert fit.residual < 1e-3
    assert fit.u0 == pytest.approx(1.0, abs=1e-6) and fit.v0 == pytest.approx(6.0, abs=1e-6)


@pytest.mark.parametrize("u0", [-0.5, 0.0])
def test_start_forced_against_the_edge_is_not_converged(u0):
    # every parameter but the centre starts at the truth, whose centre is
    # off the patch: the step shrinks against the edge until the step
    # tolerance bites, which must not count as converged
    side = 8
    truth = _params(u0=-4.0, v0=3.5, theta=0.3, sigma_x=3.0, sigma_y=2.5, freq=0.15)
    image = render_gabor(truth, side)
    flat = (image - image.mean()).ravel()
    start = _vector(truth)
    start[1] = u0
    q, sse, hit, settled = _refine(start, flat, *_coords(side))
    assert settled and not hit
    assert q[1] == pytest.approx(-0.5, abs=1e-6)
    assert sse > 0.0
    # the same start converges on a target it can reach on the patch
    inside = _params(u0=1.0, v0=3.5, theta=0.3, sigma_x=3.0, sigma_y=2.5, freq=0.15)
    image = render_gabor(inside, side)
    flat = (image - image.mean()).ravel()
    q, sse, hit, settled = _refine(start, flat, *_coords(side))
    assert settled and hit
    assert q[1] == pytest.approx(1.0, abs=1e-6)


def test_field_equal_to_a_grid_start_fits_exactly():
    # the best start is the field itself, so its first step is delta = 0
    # and the predicted decrease that sets the damping is 0 too
    field = render_gabor(GaborParams(1, 3, 3, _GRID_THETAS[0], 2, 2, _GRID_FREQS[2], 0), 8)
    fit = gabor_fit(field)
    assert fit.residual == 0.0
    assert fit.converged


def _recorded_refines(monkeypatch):
    """The results of every _refine call gabor_fit makes, in call order."""
    results = []
    refine = gabor._refine

    def recorded(q, flat, u, v):
        results.append(refine(q, flat, u, v))
        return results[-1]

    monkeypatch.setattr(gabor, "_refine", recorded)
    return results


def test_settled_first_start_is_the_only_one_refined(monkeypatch):
    refined = _recorded_refines(monkeypatch)
    assert gabor_fit(render_gabor(_params(), 16)).converged
    assert len(refined) == 1
    assert refined[0][3]


def test_refinement_cut_off_at_the_iteration_cap_is_not_settled(monkeypatch):
    image = render_gabor(_params(), 16)
    flat = (image - image.mean()).ravel()
    start = _vector(_params(theta=0.5, freq=0.18, phase=0.0))
    assert _refine(start, flat, *_coords(16))[3]
    monkeypatch.setattr(gabor, "_MAX_ITERS", 2)
    _, _, hit, settled = _refine(start, flat, *_coords(16))
    assert not (settled or hit)


@pytest.mark.parametrize("theta, freq, phase, runner_up_wins",
                         [(0.6, 0.2, 0.4, False), (0.0, 0.3, 1.2, True)],
                         ids=["first-start-wins", "runner-up-wins"])
def test_cut_off_first_start_brings_in_the_runner_up(monkeypatch, theta, freq, phase,
                                                     runner_up_wins):
    # two iterations stop every start short of its optimum; the lower sse wins
    refined = _recorded_refines(monkeypatch)
    monkeypatch.setattr(gabor, "_MAX_ITERS", 2)
    image = render_gabor(_params(theta=theta, freq=freq, phase=phase), 16)
    fit = gabor_fit(image)
    assert len(refined) == _NUM_STARTS
    assert not any(settled for *_, settled in refined)
    assert (refined[1][1] < refined[0][1]) == runner_up_wins
    q, sse, _, _ = refined[int(runner_up_wins)]
    assert np.array_equal(_vector(fit), canonical_vector(q))
    assert fit.residual == math.sqrt(sse) / np.linalg.norm(image - image.mean())
    assert not fit.converged


def _counted_jacobians(monkeypatch):
    """A one-item list counting the Jacobians built from gabor._evaluate's results."""
    builds = [0]
    evaluate = gabor._evaluate

    def counted(q, u, v):
        image, jacobian = evaluate(q, u, v)

        def counted_jacobian():
            builds[0] += 1
            return jacobian()
        return image, counted_jacobian

    monkeypatch.setattr(gabor, "_evaluate", counted)
    return builds


def test_start_not_converging_is_cut_off(monkeypatch):
    # white noise holds no Gabor: its best start is still at residual 0.5
    # or more after _CUTOFF_ITERS iterations, and stops there unsettled
    flat, starts = _flat_and_starts(_field("random", 8))
    builds = _counted_jacobians(monkeypatch)
    _, sse, hit, settled = _refine(starts[0], flat, *_coords(8))
    assert not (settled or hit)
    assert builds[0] <= _CUTOFF_ITERS
    assert math.sqrt(sse / (flat @ flat)) >= _CONVERGED_RESIDUAL
    # without the cut the same start runs on until the step tolerance stops it
    monkeypatch.setattr(gabor, "_CUTOFF_ITERS", _MAX_ITERS)
    builds[0] = 0
    assert _refine(starts[0], flat, *_coords(8))[3]
    assert builds[0] > _CUTOFF_ITERS


def test_start_below_the_cutoff_residual_runs_on_and_converges(monkeypatch):
    # this start needs more than _CUTOFF_ITERS iterations, but is below
    # residual 0.5 by then: the cut leaves its refinement as it was
    image = _field("noisy", 8, noise=0.1)
    flat, starts = _flat_and_starts(image)
    builds = _counted_jacobians(monkeypatch)
    _, _, hit, settled = _refine(starts[0], flat, *_coords(8))
    assert settled and hit
    assert builds[0] > _CUTOFF_ITERS
    fit = gabor_fit(image)
    assert fit.converged
    monkeypatch.setattr(gabor, "_CUTOFF_ITERS", _MAX_ITERS)
    assert dataclasses.astuple(gabor_fit(image)) == dataclasses.astuple(fit)


def test_both_starts_cut_off_give_the_lower_sse_unconverged(monkeypatch):
    image = _field("random", 8)
    refined = _recorded_refines(monkeypatch)
    builds = _counted_jacobians(monkeypatch)
    fit = gabor_fit(image)
    assert len(refined) == _NUM_STARTS
    assert builds[0] <= _NUM_STARTS * _CUTOFF_ITERS
    tnorm = np.linalg.norm(image - image.mean())
    for _, sse, hit, settled in refined:
        assert not (settled or hit)
        assert math.sqrt(sse) / tnorm >= _CONVERGED_RESIDUAL
    q, sse, _, _ = min(refined, key=lambda r: r[1])  # the first start on a tie
    assert np.array_equal(_vector(fit), canonical_vector(q))
    assert fit.residual == math.sqrt(sse) / tnorm
    assert not fit.converged


def _thin_gabor():
    # sigma_x = 0.2 is below the sigma floor: the least-squares fit wants
    # an envelope thinner than the fitter allows
    truth = _params(u0=3.6, v0=3.3, theta=0.4, sigma_x=0.2, sigma_y=1.5,
                    freq=0.2, phase=0.3)
    return truth, render_gabor(truth, 8)


def test_start_forced_against_the_sigma_floor_is_not_converged():
    # every parameter but sigma_x starts at the truth: the step shrinks
    # against the sigma floor until the step tolerance bites, which must
    # not count
    truth, image = _thin_gabor()
    start = _vector(truth)
    start[4] = 0.3
    q, _, hit, settled = _refine(start, (image - image.mean()).ravel(), *_coords(8))
    assert settled and not hit
    assert _SIGMA_FLOOR < abs(q[4]) < 1.001 * _SIGMA_FLOOR


def test_fit_at_the_sigma_floor_is_not_converged():
    fit = gabor_fit(_thin_gabor()[1])
    assert not fit.converged
    assert fit.residual < 0.5  # a good fit, but one resting at the sigma floor
    assert fit.sigma_x == pytest.approx(_SIGMA_FLOOR, rel=1e-3)


def test_gabor_fit_input_contracts():
    assert gabor_fit(np.zeros((8, 8))) == _unfit_params(8)
    for bad in (np.nan, np.inf):
        img = render_gabor(_params(), 16)
        img[3, 4] = bad
        with pytest.raises(ConfigError, match="finite"):
            gabor_fit(img)


def test_constant_field_does_not_converge():
    fit = gabor_fit(np.full((8, 8), 2.0))
    assert not fit.converged
    assert fit.residual == 1.0


def test_nothing_to_fit_gives_the_unfit_record():
    # one rule for every field without oscillatory structure: a zero
    # image, constant images (the mean of 64 copies of 0.1 rounds off
    # 0.1, so mean subtraction alone leaves a nonzero residue), and the
    # zero image sta_receptive_fields returns for a dead neuron
    def respond(Y):
        return np.vstack([np.maximum(Y[:1], 0.0), np.zeros((1, Y.shape[1]))])
    dead = sta_receptive_fields(respond, 6, 50, seed=0)[1]
    for image in (np.zeros((8, 8)), np.full((8, 8), 2.0), np.full((8, 8), 0.1),
                  np.full((5, 5), -3.7), dead):
        want = _unfit_params(image.shape[0])
        got = gabor_fit(image)
        assert dataclasses.astuple(got) == dataclasses.astuple(want), image.shape


def test_no_wrong_convergence_on_structured_nongabor():
    # a pure checkerboard is periodic but far from any single Gabor at
    # the grid's frequency floor; whatever the fitter does it must not
    # report a converged fit with a large residual
    img = np.indices((12, 12)).sum(axis=0) % 2 * 2.0 - 1.0
    fit = gabor_fit(img)
    if fit.converged:
        assert fit.residual < 0.5


def test_shape_metrics():
    p = _params(sigma_x=2.0, sigma_y=4.0, freq=0.25)
    nx, ny = shape_metrics(p)
    assert nx == pytest.approx(0.5)
    assert ny == pytest.approx(1.0)
