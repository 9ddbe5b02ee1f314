"""The composite batch objective: a data term plus one sparsity penalty.

Three penalties are supported: plain l1, a weighted-l1 locality charge
that prices activation by the squared stimulus-to-atom distance, and a
graph Laplacian smoothness term coupling the codes of a batch over the
binary kNN graph of its stimuli. This module is the one definition of
each penalty's value, its gradient in the codes, the proximal step that
follows a gradient step, and the gradient in the atoms; the encoder and
the dictionary update both call it. It is also the only module that
builds the lap graph. Every value is a sum over the batch, not a mean.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError
from .graphs import knn_adjacency, laplacian_from_adjacency
from .simplex import pairwise_sq_distances, project_columns

KINDS = ("l1", "wl", "lap")


@dataclass(frozen=True)
class PenaltyConfig:
    """Penalty selection: kind in {l1, wl, lap} with weight lam.

    knn_k is the neighbour count of the lap kind's batch graph; l1 and
    wl ignore it.
    """

    kind: str
    lam: float
    knn_k: int = 4

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ConfigError(f"unknown penalty kind {self.kind!r}; expected one of {KINDS}")
        if not (math.isfinite(self.lam) and self.lam >= 0):
            raise ConfigError(f"lambda must be finite and non-negative, got {self.lam}")
        if self.knn_k < 1:
            raise ConfigError(f"knn_k must be positive, got {self.knn_k}")

    def atom_gradient(self, A, Y, X):
        """Gradient in A of 1/2 ||Y - AX||_F^2 plus the penalty.

        Only the wl charge depends on the atoms: column j of its part is
        sum_i 2 lam x_ji (a_j - y_i), which collapses to
        2 lam (A diag(X 1) - Y X^T).
        """
        fit = (A @ X - Y) @ X.T
        if self.kind != "wl":
            return fit
        totals = X.sum(axis=1)
        return fit + 2.0 * self.lam * (A * totals[None, :] - Y @ X.T)


class BatchObjective:
    """1/2 ||Y - AX||_F^2 + penalty(X) for a fixed float64 d x m dictionary
    A and d x n batch Y.

    The penalty is lam * sum |x_ji| (l1), lam * sum_ji x_ji ||y_i - a_j||^2
    (wl) or lam * tr(X G X^T) (lap), with G the Laplacian of the binary
    kNN graph (k = knn_k) over the batch's columns, symmetric, so its code
    gradient is 2 lam X G. The wl distances and G are built once, not per step.
    """

    def __init__(self, penalty, A, Y):
        self.kind, self.lam, self.A, self.Y = penalty.kind, penalty.lam, A, Y
        if self.kind == "wl":
            self.D = pairwise_sq_distances(A, Y)
            self.lam_D = self.lam * self.D  # the code gradient's charge, formed once
        elif self.kind == "lap":
            self.G = laplacian_from_adjacency(knn_adjacency(Y, penalty.knn_k))

    def objective(self, X):
        """The objective summed over the batch."""
        resid = self.Y - self.A @ X
        fit = 0.5 * float((resid * resid).sum())
        if self.kind == "l1":
            return fit + self.lam * float(np.abs(X).sum())
        if self.kind == "wl":
            return fit + self.lam * float((self.D * X).sum())
        return fit + self.lam * float(((X @ self.G) * X).sum())

    def code_gradient(self, X):
        """Gradient in X of the smooth part; l1's charge goes to `prox`.

        Returns a new array that the caller may overwrite. Each term is
        added in place, with the same operands and order as the formula.
        """
        resid = self.A @ X
        resid -= self.Y
        grad = self.A.T @ resid
        if self.kind == "wl":
            grad += self.lam_D
        elif self.kind == "lap":
            pull = X @ self.G
            pull *= 2.0 * self.lam
            grad += pull
        return grad

    def prox(self, Z, alpha):
        """The step after a gradient step of size alpha: soft thresholding
        for l1, the column-wise simplex projection for wl and lap."""
        if self.kind == "l1":
            shrunk = np.abs(Z)
            shrunk -= alpha * self.lam
            np.maximum(shrunk, 0.0, out=shrunk)
            shrunk *= np.sign(Z)
            return shrunk
        return project_columns(Z)
