"""Deterministic patch sampling."""

import numpy as np
import pytest

from locosparse.errors import ConfigError, LocosparseError
from locosparse.patches import PatchSamplerConfig, StimulusBatch, sample_patches


def _all_windows(img, side):
    wins = set()
    H, W = img.shape
    for r in range(H - side + 1):
        for c in range(W - side + 1):
            wins.add(img[r:r + side, c:c + side].tobytes())
    return wins


def test_every_patch_is_a_real_window():
    rng = np.random.default_rng(1)
    img = rng.normal(size=(20, 24))
    cfg = PatchSamplerConfig(patch_side=5, count=200, seed=3, standardize=False)
    batch = sample_patches(img, cfg)
    wins = _all_windows(img, 5)
    for i in range(batch.patches.shape[1]):
        patch = batch.patches[:, i].reshape(5, 5)
        assert patch.tobytes() in wins


def test_sampling_is_deterministic_and_seed_sensitive():
    img = np.random.default_rng(2).normal(size=(16, 16))
    cfg = PatchSamplerConfig(4, 50, seed=9, standardize=False)
    a = sample_patches(img, cfg).patches
    b = sample_patches(img, cfg).patches
    assert np.array_equal(a, b)
    c = sample_patches(img, PatchSamplerConfig(4, 50, seed=10, standardize=False)).patches
    assert not np.array_equal(a, c)


def test_shapes_and_count():
    img = np.zeros((12, 12))
    batch = sample_patches(img, PatchSamplerConfig(3, 17, seed=0))
    assert batch.patches.shape == (9, 17)


def test_standardize_gives_zero_mean_unit_norm():
    rng = np.random.default_rng(4)
    img = rng.normal(size=(30, 30))
    batch = sample_patches(img, PatchSamplerConfig(6, 100, seed=1, standardize=True))
    means = batch.patches.mean(axis=0)
    norms = np.linalg.norm(batch.patches, axis=0)
    assert np.abs(means).max() < 1e-12
    assert np.abs(norms - 1.0).max() < 1e-12


def test_constant_image_standardizes_to_zero_columns():
    img = np.full((10, 10), 3.25)
    batch = sample_patches(img, PatchSamplerConfig(4, 20, seed=5, standardize=True))
    assert np.all(batch.patches == 0.0)


def test_raw_sampling_preserves_values():
    img = np.full((10, 10), 3.25)
    batch = sample_patches(img, PatchSamplerConfig(4, 20, seed=5, standardize=False))
    assert np.all(batch.patches == 3.25)


def test_multi_frame_stack_draws_from_every_frame():
    # three constant frames with distinct values; standardize off keeps
    # the constants, so the sampled frame is readable from any pixel
    stack = np.stack([np.full((9, 9), v) for v in (1.0, 2.0, 3.0)], axis=2)
    batch = sample_patches(stack, PatchSamplerConfig(3, 120, seed=2, standardize=False))
    seen = set(np.unique(batch.patches))
    assert seen == {1.0, 2.0, 3.0}


def test_patch_side_larger_than_image_rejected():
    with pytest.raises(ConfigError):
        sample_patches(np.zeros((4, 4)), PatchSamplerConfig(5, 3, seed=0))


def test_rank_errors():
    with pytest.raises(ConfigError):
        sample_patches(np.zeros(5), PatchSamplerConfig(2, 3, seed=0))
    with pytest.raises(ConfigError):
        sample_patches(np.zeros((2, 2, 2, 2)), PatchSamplerConfig(2, 3, seed=0))


def test_stimulus_batch_contract():
    with pytest.raises(LocosparseError) as excinfo:
        StimulusBatch(np.full((4, 2), np.nan))
    assert excinfo.type is LocosparseError
