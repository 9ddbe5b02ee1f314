"""Simplex projection against a brute-force active-set oracle."""

import tracemalloc
import warnings

import numpy as np
import pytest

from locosparse import simplex
from locosparse.simplex import pairwise_sq_distances, project_columns

from oracles import (pairwise_sq_distances_loops, project_columns_colwise,
                     simplex_projection_bruteforce)


def _project_vector(v):
    """The projection of one vector: the single-column case of `project_columns`."""
    return project_columns(np.asarray(v, dtype=np.float64)[:, None])[:, 0]


def test_projection_matches_bruteforce_small_dims():
    rng = np.random.default_rng(42)
    for _ in range(300):
        m = int(rng.integers(1, 7))
        v = rng.normal(scale=3.0, size=m)
        got = _project_vector(v)
        want = simplex_projection_bruteforce(v)
        assert np.max(np.abs(got - want)) < 1e-9


def test_projection_output_is_feasible():
    rng = np.random.default_rng(7)
    for _ in range(100):
        v = rng.normal(scale=10.0, size=int(rng.integers(1, 40)))
        z = _project_vector(v)
        assert z.min() >= 0.0
        assert abs(z.sum() - 1.0) < 1e-12


def test_projection_is_idempotent():
    rng = np.random.default_rng(3)
    for _ in range(50):
        z = _project_vector(rng.normal(size=8))
        again = _project_vector(z)
        assert np.max(np.abs(again - z)) < 1e-12


def test_projection_invariant_to_constant_shift():
    # adding c to every coordinate moves the shift b by -c and nothing else
    rng = np.random.default_rng(5)
    for _ in range(50):
        v = rng.normal(size=6)
        c = rng.normal() * 100.0
        assert np.allclose(_project_vector(v), _project_vector(v + c), atol=1e-9)


def test_projection_fixed_points_and_one_hot():
    m = 5
    uniform = np.full(m, 1.0 / m)
    assert np.allclose(_project_vector(uniform), uniform, atol=1e-15)
    spiky = np.array([10.0, 0.0, -1.0, 0.5])
    z = _project_vector(spiky)
    assert np.allclose(z, [1.0, 0.0, 0.0, 0.0], atol=1e-12)


def test_projection_single_coordinate():
    assert _project_vector(np.array([-3.7])) == pytest.approx(1.0)


def test_column_projection_matches_vector_version():
    rng = np.random.default_rng(17)
    M = rng.normal(scale=4.0, size=(6, 40))
    cols = project_columns(M)
    for i in range(M.shape[1]):
        assert np.allclose(cols[:, i], _project_vector(M[:, i]), atol=1e-12)


def _projection_inputs():
    rng = np.random.default_rng(19)
    for m in (1, 2, 7, 64):
        for n in (1, 100, 1024):
            yield rng.normal(scale=3.0, size=(m, n))
    # ties within a column, integer-valued columns, signed zeros
    yield rng.integers(-2, 3, size=(7, 100)).astype(np.float64)
    yield rng.integers(-50, 50, size=(64, 100)).astype(np.float64)
    yield np.tile(rng.normal(size=(1, 100)), (7, 1))
    zeros = np.zeros((7, 100))
    zeros[rng.random(zeros.shape) < 0.5] = -0.0
    yield zeros
    mixed = rng.normal(size=(64, 100))
    mixed[rng.random(mixed.shape) < 0.3] = 0.0
    mixed[rng.random(mixed.shape) < 0.3] = -0.0
    yield mixed


@pytest.mark.parametrize("M", list(_projection_inputs()), ids=lambda M: "x".join(map(str, M.shape)))
def test_column_projection_matches_columnwise_oracle_bytes(M):
    # the row layout reorders memory, not arithmetic
    assert project_columns(M).tobytes() == project_columns_colwise(M).tobytes()


def test_column_projection_of_entries_above_2_53():
    # u_1 + (1 - u_1) rounds to 0 for u_1 > 2**53, so the sort rule finds
    # no j; the projection is shift invariant, so those columns use v - max(v)
    columns = ([1e17, 0.5], [1e17, -3e17], [1e16, 0.25, 0.1])
    for column in columns:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = project_columns(np.array(column)[:, None])[:, 0]
        assert got.tolist() == [1.0] + [0.0] * (len(column) - 1), column
    # the other columns of the matrix keep their bits
    M = np.random.default_rng(23).normal(size=(2, 5))
    want = project_columns(M)
    M_big = np.insert(M, 2, [1e17, -3e17], axis=1)
    got = project_columns(M_big)
    assert got[:, 2].tolist() == [1.0, 0.0]
    assert np.delete(got, 2, axis=1).tobytes() == want.tobytes()


def test_pairwise_distances_match_loop_oracle():
    rng = np.random.default_rng(29)
    A = rng.normal(size=(7, 4))
    Y = rng.normal(size=(7, 6))
    assert np.allclose(pairwise_sq_distances(A, Y),
                       pairwise_sq_distances_loops(A, Y), atol=1e-12)


def test_pairwise_distances_exact_zero_for_identical_columns():
    rng = np.random.default_rng(31)
    a = rng.normal(size=8)
    A = np.stack([a, a + 1.0], axis=1)
    Y = a[:, None]
    D = pairwise_sq_distances(A, Y)
    assert D[0, 0] == 0.0
    assert D.min() >= 0.0


def _sq_distances_one_tensor(A, Y):
    """Reference: one C-ordered d x m x n difference tensor for all atoms at once."""
    diff = np.ascontiguousarray(A)[:, :, None] - np.ascontiguousarray(Y)[:, None, :]
    return np.einsum("dmn,dmn->mn", diff, diff)


def test_pairwise_distances_blocks_match_single_block(monkeypatch):
    rng = np.random.default_rng(33)
    d, m, n = 64, 10, 7
    A = rng.normal(size=(d, m))
    Y = rng.normal(size=(d, n))
    # repeated atoms in different blocks of 3, and a stimulus equal to an atom
    A[:, 4] = A[:, 1]
    A[:, 9] = A[:, 1]
    Y[:, 2] = A[:, 1]
    # transposed views, the layout of sta_receptive_fields' stimulus chunks;
    # d = 64, an 8 x 8 patch, is long enough for a d-innermost sum to round apart
    A_t = np.ascontiguousarray(A.T).T
    Y_t = np.ascontiguousarray(Y.T).T
    cases = ((A, Y), (A_t, Y_t), (A, Y_t), (np.zeros((0, m)), np.zeros((0, n))))
    for A_, Y_ in cases:
        want = _sq_distances_one_tensor(A_, Y_)
        for cols in (1, 3, m):
            scratch = cols * A_.itemsize * max(A_.shape[0], 1) * Y_.shape[1]
            monkeypatch.setattr(simplex, "_DIFF_SCRATCH_BYTES", scratch)
            got = pairwise_sq_distances(A_, Y_)
            assert got.dtype == want.dtype and got.shape == want.shape
            assert got.tobytes() == want.tobytes(), (A_.strides, Y_.strides, cols)
    assert pairwise_sq_distances(A, Y)[[1, 4, 9], 2].tolist() == [0.0, 0.0, 0.0]


def test_pairwise_distances_to_one_stimulus_do_not_depend_on_the_blocks(monkeypatch):
    # every entry is summed over d in sequence, also when an atom ends up
    # alone in a block against a single stimulus
    rng = np.random.default_rng(37)
    d, m = 64, 10
    for _ in range(5):
        A = rng.normal(size=(d, m))
        y = rng.normal(size=(d, 1))
        want = np.zeros((m, 1))
        for k in range(d):
            diff = A[k, :, None] - y[k]
            want += diff * diff
        # 1 to 2m column scratches: every block of 1 to m atoms, whether the
        # stimulus takes one column of a block or more
        for columns in range(1, 2 * m + 1):
            monkeypatch.setattr(simplex, "_DIFF_SCRATCH_BYTES", columns * A.itemsize * d)
            got = pairwise_sq_distances(A, y)
            assert got.shape == (m, 1) and got.flags.c_contiguous
            assert got.tobytes() == want.tobytes(), columns


def test_pairwise_distances_scratch_is_bounded():
    rng = np.random.default_rng(35)
    A = rng.normal(size=(64, 64))
    Y = rng.normal(size=(64, 1024))
    out_bytes = A.shape[1] * Y.shape[1] * A.itemsize
    tracemalloc.start()
    try:
        pairwise_sq_distances(A, Y)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= simplex._DIFF_SCRATCH_BYTES + out_bytes + 2**20
