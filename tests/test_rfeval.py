"""Receptive-field estimation and phase statistics."""

import numpy as np
import pytest

from locosparse import rfeval
from locosparse.errors import LocosparseError
from locosparse.gabor import fold_phase
from locosparse.rfeval import phase_histogram, sta_receptive_fields, symmetry_score


def _relu_hook(W):
    def respond(Y):
        return np.maximum(W.T @ Y, 0.0)
    return respond


def test_sta_recovers_linear_relu_filters():
    # white-noise averages conditioned on a rectified linear response
    # line up with the generating filters
    rng = np.random.default_rng(15)
    side = 5
    d = side * side
    W = rng.normal(size=(d, 6))
    W /= np.linalg.norm(W, axis=0)
    fields = sta_receptive_fields(_relu_hook(W), side, 20000, seed=3)
    assert fields.shape == (6, side, side)
    assert fields.dtype == np.float64
    for j, image in enumerate(fields):
        assert image.any()
        v = image.reshape(-1)
        cos = float(v @ W[:, j]) / np.linalg.norm(v)
        assert cos > 0.9


def test_sta_chunking_is_invariant(monkeypatch):
    rng = np.random.default_rng(16)
    W = rng.normal(size=(16, 3))
    monkeypatch.setattr(rfeval, "_CHUNK", 1024)
    a = sta_receptive_fields(_relu_hook(W), 4, 3000, seed=1)
    monkeypatch.setattr(rfeval, "_CHUNK", 77)
    b = sta_receptive_fields(_relu_hook(W), 4, 3000, seed=1)
    assert np.allclose(a, b, atol=1e-10)


def test_sta_is_deterministic_across_seeds():
    rng = np.random.default_rng(17)
    W = rng.normal(size=(9, 2))
    a = sta_receptive_fields(_relu_hook(W), 3, 500, seed=4)
    b = sta_receptive_fields(_relu_hook(W), 3, 500, seed=4)
    c = sta_receptive_fields(_relu_hook(W), 3, 500, seed=5)
    assert np.array_equal(a, b)
    assert not np.array_equal(a[0], c[0])


def test_sta_of_a_negated_response_is_the_negated_field():
    # signed (l1) codes: the normalizer sums |x|, so a neuron whose
    # responses sum below zero still gets its field
    rng = np.random.default_rng(18)
    W = rng.normal(size=(16, 2))
    fields = sta_receptive_fields(_relu_hook(W), 4, 2000, seed=6)
    negated = sta_receptive_fields(lambda Y: -_relu_hook(W)(Y), 4, 2000, seed=6)
    assert fields.any()
    assert np.array_equal(negated, -fields)


def test_sta_flags_dead_neuron():
    # a dead neuron comes back as a zero image
    def respond(Y):
        X = np.maximum(Y.sum(axis=0, keepdims=True), 0.0)
        return np.vstack([X, np.zeros((1, Y.shape[1]))])
    fields = sta_receptive_fields(respond, 4, 200, seed=0)
    assert fields[0].any()
    assert np.all(fields[1] == 0.0)


def test_phase_histogram_exact_counts():
    counts, edges = phase_histogram(np.array([5.0, 5.0, 25.0, 47.0, 88.0, 90.0]), 9)
    assert counts.tolist() == [2, 0, 1, 0, 1, 0, 0, 0, 2]
    assert edges[0] == 0.0
    assert edges[-1] == 90.0


def test_phase_histogram_right_open_interior_bins():
    # a fold sitting exactly on an interior edge belongs to the upper bin
    counts, _ = phase_histogram(np.array([10.0]), 9)
    assert counts.tolist() == [0, 1, 0, 0, 0, 0, 0, 0, 0]


def test_phase_histogram_counts_against_the_written_edges():
    # this phase folds to exactly the linspace lower edge of bin 3 of 7,
    # while its quotient by the bin width 90/7 falls just short of 3
    folded = fold_phase(0.6731984257692414)
    counts, edges = phase_histogram(np.array([folded]), 7)
    assert edges[3] == folded
    assert counts.tolist() == [0, 0, 0, 1, 0, 0, 0]


def test_phase_histogram_empty_raises():
    with pytest.raises(LocosparseError, match="^no converged fits to bin$") as excinfo:
        phase_histogram(np.array([]), 9)
    assert excinfo.type is LocosparseError


def test_symmetry_score_balance_values():
    assert symmetry_score(np.array([5.0, 20.0, 44.9, 60.0])) == pytest.approx(1.0 / 3.0)
    assert symmetry_score(np.array([5.0, 30.0, 50.0, 80.0])) == pytest.approx(1.0)
    assert symmetry_score(np.array([45.0, 60.0, 89.0, 90.0])) == 0.0


def test_symmetry_score_splits_where_the_two_bin_histogram_does():
    # 45 itself is the upper bin's lower edge, and 90 is in the upper bin
    folded = np.array([0.0, np.nextafter(45.0, 0.0), 45.0, 45.0, 90.0])
    counts, _ = phase_histogram(folded, 2)
    assert counts.tolist() == [2, 3]
    assert symmetry_score(folded) == 2 / 3

