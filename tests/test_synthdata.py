"""Scene builders: each windowed loop against its full-frame reference.

The builders paint each stroke and disc only inside its own window, so
the references in `oracles` compute every stroke and disc on every
pixel of the frame. The scenes must agree to the byte.
"""

import functools

import pytest

from oracles import dead_leaves_discs, dead_leaves_full_frame, edge_strokes_full_frame
from synthdata import dead_leaves_image, edge_strokes, phase_contrast_scene, wavelet_field


@functools.lru_cache(maxsize=None)
def _reference_strokes(seed):
    return edge_strokes_full_frame(seed=seed)


# seeds 3 and 37 are the stroke layers of the benchmark scenes of seeds 7 and 41
@pytest.mark.parametrize("seed", [3, 37])
def test_edge_strokes_match_full_frame_reference(seed):
    assert edge_strokes(seed=seed).tobytes() == _reference_strokes(seed).tobytes()


def test_edge_strokes_clipped_at_every_edge_match_full_frame_reference():
    # strokes reach 33.6 pixels or more from centres within 32.5 pixels of the
    # frame's sides, so every window is clipped: the first cell's at the top and
    # left, the last cell's at the bottom and right
    for seed in (1, 2):
        kw = dict(side=110, cell=55, seed=seed)
        assert edge_strokes(**kw).tobytes() == edge_strokes_full_frame(**kw).tobytes()


def test_phase_contrast_scene_matches_full_frame_reference():
    reference = wavelet_field() + _reference_strokes(3)
    assert phase_contrast_scene().tobytes() == reference.tobytes()


# the scenes of tests/test_cli.py, tests/test_trainer.py and bench/test_bench.py
@pytest.mark.parametrize("kw", [
    dict(side=40, num_discs=40, seed=11, r_min=3.0, r_max=12.0),
    dict(side=24, num_discs=30, seed=5),
    dict(side=16, num_discs=10, seed=2),
    dict(side=64, num_discs=60, seed=5, r_min=4.0, r_max=20.0),
])
def test_dead_leaves_match_full_frame_reference(kw):
    assert dead_leaves_image(**kw).tobytes() == dead_leaves_full_frame(**kw).tobytes()


def test_dead_leaves_cut_by_every_edge_match_full_frame_reference():
    kw = dict(side=256, num_discs=30, seed=1, r_min=10.0, r_max=100.0)
    radii, cx, cy, _ = dead_leaves_discs(kw["side"], kw["num_discs"], kw["seed"],
                                         kw["r_min"], kw["r_max"])
    for centre in (cx, cy):
        assert (centre - radii < 0.0).any() and (centre + radii > kw["side"]).any()
    assert dead_leaves_image(**kw).tobytes() == dead_leaves_full_frame(**kw).tobytes()
