"""Receptive-field estimation and spatial-phase statistics."""

import numpy as np

from .errors import LocosparseError
from .rng import CounterRng, derive_seed

_DEAD_RESPONSE = 1e-9
_CHUNK = 1024  # stimuli per block handed to `respond`


def sta_receptive_fields(respond, patch_side, num_samples, seed):
    """Spike-triggered averages under Gaussian white noise.

    Args:
        respond: callable mapping a float64 d x c stimulus block to an
            m x c float64 code block, d = patch_side**2.
        patch_side: pixel edge of the stimulus patches.
        num_samples: white-noise stimuli to draw, at least 1.
        seed: stream seed; the same seed reproduces the fields exactly.

    Returns an m x patch_side x patch_side stack whose image j is
    RF_j = sum_s x_j(y_s) y_s / sum_s |x_j(y_s)|, so that signed (l1)
    responses do not cancel in the normalizer. Noise is drawn per
    sample (all d values of a stimulus are consecutive in the stream),
    so the draw does not depend on how many samples remain in the final
    chunk. A dead neuron, whose total absolute response stays below
    1e-9, gets a zero image rather than a division by nearly nothing.
    """
    d = patch_side * patch_side
    rng = CounterRng(derive_seed(seed, "sta"))
    weighted = None
    totals = None
    done = 0
    while done < num_samples:
        c = min(_CHUNK, num_samples - done)
        Y = rng.normals(d * c).reshape(c, d).T
        X = respond(Y)
        if weighted is None:
            weighted = np.zeros((d, X.shape[0]))
            totals = np.zeros(X.shape[0])
        weighted += Y @ X.T
        totals += np.abs(X).sum(axis=1)
        done += c
    live = totals >= _DEAD_RESPONSE
    fields = np.zeros((totals.size, d))
    fields[live] = weighted.T[live] / totals[live, None]
    return fields.reshape(totals.size, patch_side, patch_side)


def phase_histogram(folded, num_bins):
    """Histogram folded phases (degrees) over [0, 90] in num_bins >= 2 bins:
    numpy's (counts, bin_edges).

    `folded` holds the folded phases of the fits that count, the
    converged ones. Interior bins are right-open; the last bin includes
    90. A phase is counted against the bin edges it is written with.
    """
    if len(folded) == 0:
        raise LocosparseError("no converged fits to bin")
    return np.histogram(folded, num_bins, (0.0, 90.0))


def symmetry_score(folded):
    """Balance min(L, R) / max(L, R) of the two bins of
    `phase_histogram(folded, 2)`, folded phases below 45 degrees (L) and at
    or above it (R): 1 means the halves carry equal mass, and near 0 the
    phases pile up on one side.
    """
    counts, _ = phase_histogram(folded, 2)
    return float(counts.min() / counts.max())
