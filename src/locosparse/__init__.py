"""Locality-regularized sparse coding with an unrolled simplex encoder."""

__version__ = "0.1.0"
