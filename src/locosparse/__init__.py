"""Locality-regularized sparse coding with an unrolled simplex encoder."""

from .encoder import (EncoderConfig, MomentumSchedule, encode, momentum_schedule,
                      spectral_norm_sq_inv)
from .errors import ConfigError, LocosparseError
from .gabor import GaborParams, canonical_vector, fold_phase, gabor_fit, render_gabor, shape_metrics
from .graphs import GraphLaplacian, bipartite_laplacian, knn_adjacency, laplacian_from_adjacency
from .patches import PatchSamplerConfig, StimulusBatch, sample_patches
from .penalties import BatchObjective, PenaltyConfig
from .rfeval import PhaseHistogram, phase_histogram, sta_receptive_fields, symmetry_score
from .rng import CounterRng, derive_seed, mix64
from .simplex import pairwise_sq_distances, project_columns, project_simplex
from .spectral import ClusterAssignment, spectral_cluster, symmetric_eigendecomposition
from .tensor import as_tensor, load_tensor, read_pgm, save_tensor
from .trainer import (Dictionary, TrainConfig, TrainedModel, dictionary_step,
                      init_dictionary, load_model, save_model, train)

__version__ = "0.1.0"
