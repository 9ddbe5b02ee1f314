"""Patch ingestion: deterministic sampling of image windows into columns."""

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, LocosparseError
from .rng import CounterRng, derive_seed

# a 1-pixel patch has no spatial structure: nothing to code or fit a Gabor to
MIN_PATCH_SIDE = 2


@dataclass(frozen=True)
class PatchSamplerConfig:
    """count >= 1 patches of patch_side >= MIN_PATCH_SIDE pixels a side."""

    patch_side: int
    count: int
    seed: int
    standardize: bool = True


@dataclass(frozen=True)
class StimulusBatch:
    """A d x n matrix whose columns are vectorized patches."""

    patches: np.ndarray

    def __post_init__(self):
        if not np.all(np.isfinite(self.patches)):
            raise LocosparseError("stimulus batch contains non-finite values")


def sample_patches(images, cfg):
    """Draw cfg.count patches at uniform random top-left corners.

    Args:
        images: H x W array or H x W x C stack of grayscale frames.
        cfg: PatchSamplerConfig.

    The corners come from the counter generator in three blocks (frame
    index, row, column), so a seed pins the whole draw. Each patch is
    flattened row by row into a column. With standardization on, every
    non-constant patch is shifted to zero mean and scaled to unit norm;
    constant patches become zero vectors instead of blowing up.
    """
    stack = np.asarray(images, dtype=np.float64)
    if stack.ndim == 2:
        stack = stack[:, :, None]
    if stack.ndim != 3:
        raise ConfigError(f"images must be H x W or H x W x C, got shape {stack.shape}")
    height, width, frames = stack.shape
    side = cfg.patch_side
    if side > min(height, width):
        raise ConfigError(f"patch_side {side} exceeds image extent {height}x{width}")

    rng = CounterRng(derive_seed(cfg.seed, "patches"))
    frame_idx = rng.integers(cfg.count, frames)
    rows = rng.integers(cfg.count, height - side + 1)
    cols = rng.integers(cfg.count, width - side + 1)

    offsets = np.arange(side)
    P = stack[rows[:, None, None] + offsets[:, None], cols[:, None, None] + offsets,
              frame_idx[:, None, None]].reshape(cfg.count, side * side)
    if cfg.standardize:
        constant = np.all(P == P[:, :1], axis=1)
        P -= P.mean(axis=1, keepdims=True)
        norms = _row_norms(P)
        P[constant] = 0.0
        norms[constant] = 1.0
        P /= norms[:, None]
    return StimulusBatch(np.ascontiguousarray(P.T))


def _row_norms(P):
    """Each row's norm, rounded as np.linalg.norm(row) rounds it (norm(P, axis=1) does not)."""
    return np.sqrt((P[:, None, :] @ P[:, :, None]).ravel())
