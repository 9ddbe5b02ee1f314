"""The unrolled encoder: momentum-accelerated proximal gradient steps.

Codes start at zero and take a fixed number of steps on the composite
batch objective that `penalties` defines: a gradient step on its smooth
part, then its proximal step, the simplex projection (wl and lap
penalties) or soft thresholding (the l1 baseline, where a simplex
constraint would pin the l1 norm to one and neuter the penalty). The
step size is the inverse squared spectral norm of the dictionary.
Whatever a penalty needs from the batch, its `BatchObjective` builds.
"""

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, LocosparseError
from .penalties import BatchObjective, PenaltyConfig

MOMENTUM_MODES = ("aswritten", "none")


@dataclass(frozen=True)
class EncoderConfig:
    penalty: PenaltyConfig
    steps: int = 15
    momentum_mode: str = "aswritten"

    def __post_init__(self):
        if self.steps < 1:
            raise ConfigError(f"steps must be positive, got {self.steps}")
        if self.momentum_mode not in MOMENTUM_MODES:
            raise ConfigError(f"unknown momentum mode {self.momentum_mode!r}; "
                              f"expected one of {MOMENTUM_MODES}")


def momentum_schedule(steps, mode):
    """Momentum coefficients for T >= 1 steps, gamma(t) = (eta(t) - 1)/eta(t+1).

    Returns (etas, gammas): eta(0) .. eta(T) and gamma(0) .. gamma(T-1).
    aswritten starts eta at 0 with 4*eta(t) under the root: gamma(0) = -1
    resets the first lookahead to the origin and gamma(1) = 0, so step 1
    repeats step 0, which `encode` skips (a zero may keep a minus sign);
    none holds every gamma at zero. `EncoderConfig` checks T and the mode.
    """
    try:
        etas = np.empty(steps + 1)
    except (ValueError, MemoryError) as exc:  # numpy's "array is too big" is a ValueError
        raise LocosparseError(f"no momentum schedule for steps={steps}: {exc}") from None
    if mode == "aswritten":
        etas[0] = 0.0
        for t in range(steps):
            etas[t + 1] = (1.0 + np.sqrt(1.0 + 4.0 * etas[t])) / 2.0
    else:
        etas[:] = 1.0
    return etas, (etas[:-1] - 1.0) / etas[1:]


def spectral_norm_sq_inv(A):
    """1 / sigma_max(A)^2, the 1/L step size of proximal gradient descent,
    for a finite d x m dictionary A."""
    if not A.any():
        raise LocosparseError("zero dictionary has no spectral norm")
    return 1.0 / np.linalg.norm(A, 2) ** 2


def encode(Y, A, cfg):
    """Run the unrolled encoder on a batch of stimulus columns; with more
    than one step, aswritten skips step 0, which its step 1 repeats.

    Args:
        Y: float64 d x n stimulus matrix.
        A: finite float64 d x m dictionary.
        cfg: EncoderConfig.

    Returns:
        (codes, objective): codes is m x n and objective is the
        composite batch objective of the final codes, a float. For wl
        and lap the codes land on the probability simplex column-wise;
        the l1 path returns soft-thresholded codes instead.
    """
    pen = BatchObjective(cfg.penalty, A, Y)

    alpha = spectral_norm_sq_inv(A)
    _, gammas = momentum_schedule(cfg.steps, cfg.momentum_mode)

    # each step overwrites the buffers it no longer reads: the gradient
    # becomes the step Z, and the previous codes become the lookahead
    X = np.zeros((A.shape[1], Y.shape[1]))
    lookahead = X
    for t in range(1 if cfg.steps > 1 and gammas[0] == -1.0 else 0, cfg.steps):
        Z = pen.code_gradient(lookahead)
        Z *= alpha
        np.subtract(lookahead, Z, out=Z)
        if not np.all(np.isfinite(Z)):
            raise LocosparseError(f"encoder gradient step {t} produced non-finite values")
        Xn = pen.prox(Z, alpha)
        lookahead = np.subtract(Xn, X, out=X)
        lookahead *= gammas[t]
        lookahead += Xn
        X = Xn
    return X, pen.objective(X)
