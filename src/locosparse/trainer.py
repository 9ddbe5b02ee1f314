"""Dictionary learning: alternate unrolled encoding with atom updates.

The outer loop samples a fresh patch batch per epoch, encodes it with
the unrolled network, and takes one gradient step on the atoms followed
by column renormalization. Atoms that lose their norm or receive no
activation in a batch are redrawn from the seeded generator.
"""

from dataclasses import dataclass

import numpy as np

from .encoder import EncoderConfig, encode
from .errors import ConfigError, LocosparseError
from .patches import MIN_PATCH_SIDE, PatchSamplerConfig, _row_norms, sample_patches
from .penalties import PenaltyConfig
from .rng import CounterRng, derive_seed
from .tensor import load_tensor, read_file, save_tensor, write_file

_DEAD_NORM = 1e-12


@dataclass(frozen=True)
class Dictionary:
    """Finite d x m basis matrix with unit-norm columns, d = patch_side**2."""

    atoms: np.ndarray
    patch_side: int

    def __post_init__(self):
        if self.atoms.ndim != 2 or self.atoms.shape[0] != self.patch_side ** 2:
            raise ConfigError(
                f"atoms must be {self.patch_side ** 2} x m for "
                f"patch_side {self.patch_side}, got {self.atoms.shape}")


@dataclass(frozen=True)
class TrainConfig:
    num_atoms: int
    patch_side: int
    penalty: PenaltyConfig
    steps: int = 15
    momentum_mode: str = "aswritten"
    epochs: int = 200
    batch_size: int = 100
    seed: int = 0
    standardize: bool = False

    def __post_init__(self):
        for name, least in (("num_atoms", 1), ("patch_side", MIN_PATCH_SIDE),
                            ("batch_size", 1)):
            if getattr(self, name) < least:
                raise ConfigError(f"{name} must be at least {least}")
        self.encoder_config()  # validates steps and momentum_mode
        if self.epochs < 0:
            raise ConfigError("epochs must be non-negative")

    def encoder_config(self):
        return EncoderConfig(self.penalty, self.steps, self.momentum_mode)


@dataclass(frozen=True)
class TrainedModel:
    dictionary: Dictionary
    config: TrainConfig
    loss_history: np.ndarray

    def __post_init__(self):
        if not np.all(np.isfinite(self.loss_history)):
            raise LocosparseError("loss history contains non-finite values")


def init_dictionary(d, m, seed):
    """Standard-normal entries, then unit-norm columns; d, m >= 1."""
    atoms = CounterRng(seed).normals(d * m).reshape(d, m)
    return atoms / np.linalg.norm(atoms, axis=0)


def dictionary_step(A, Y, X, penalty, lr, rng):
    """One gradient step on the atoms, renormalized column-wise.

    The step is lr times the penalty's `atom_gradient` divided by the
    batch size. Columns whose norm collapses, then columns whose code
    row is all zero, each in ascending order, are redrawn as fresh unit
    vectors from `rng`. A is d x m, Y d x b and X m x b, all float64.
    Returns the updated atoms together with the sorted indices of every
    redrawn column.
    """
    b = Y.shape[1]
    grad = penalty.atom_gradient(A, Y, X)
    if not np.all(np.isfinite(grad)):
        raise LocosparseError("non-finite dictionary gradient")
    out = A - (lr / b) * grad
    with np.errstate(over="ignore"):  # an overflowed norm is rejected below
        norms = np.linalg.norm(out, axis=0)
    if not np.isfinite(norms).all():
        raise LocosparseError("atom norms overflow after the dictionary step")
    alive = norms >= _DEAD_NORM
    out[:, alive] /= norms[alive]
    unused = alive & (np.abs(X).sum(axis=1) == 0.0)
    redraw = np.concatenate((np.flatnonzero(~alive), np.flatnonzero(unused)))
    if redraw.size:
        # one draw for all columns matches one draw per column, in this order
        C = rng.normals(out.shape[0] * redraw.size).reshape(redraw.size, out.shape[0])
        out[:, redraw] = (C / _row_norms(C)[:, None]).T
    return out, np.sort(redraw).tolist()


def train(images, cfg):
    """Learn a dictionary from image patches.

    Every epoch draws one batch. The recorded loss is the composite
    batch objective at the final codes divided by the batch size. Fully
    deterministic for a given cfg.seed.
    """
    d = cfg.patch_side ** 2
    encoder = cfg.encoder_config()
    atoms = init_dictionary(d, cfg.num_atoms, derive_seed(cfg.seed, "dict-init"))
    reinit_rng = CounterRng(derive_seed(cfg.seed, "dict-reinit"))
    losses = np.empty(cfg.epochs)
    for batch_idx in range(cfg.epochs):
        sampler = PatchSamplerConfig(cfg.patch_side, cfg.batch_size,
                                     derive_seed(cfg.seed, "batch", batch_idx),
                                     standardize=cfg.standardize)
        Y = sample_patches(images, sampler).patches
        X, objective = encode(Y, atoms, encoder)
        losses[batch_idx] = objective / cfg.batch_size
        atoms, _ = dictionary_step(atoms, Y, X, cfg.penalty, 1.0, reinit_rng)
    return TrainedModel(Dictionary(atoms, cfg.patch_side), cfg, losses)


# The .meta file, one key=value line each in this order: the key, the parser
# that reads the value back, and the TrainConfig value it records. num_atoms
# is not stored, it is the atom count of the .sct.
_META = (
    ("penalty", str, lambda cfg: cfg.penalty.kind),
    ("lambda", float, lambda cfg: cfg.penalty.lam),
    ("patch_side", int, lambda cfg: cfg.patch_side),
    ("steps", int, lambda cfg: cfg.steps),
    ("momentum_mode", str, lambda cfg: cfg.momentum_mode),
    ("seed", int, lambda cfg: cfg.seed),
    ("epochs", int, lambda cfg: cfg.epochs),
    ("batch_size", int, lambda cfg: cfg.batch_size),
    ("knn_k", int, lambda cfg: cfg.penalty.knn_k),
)


def save_model(model, prefix):
    """Write <prefix>.sct (the atoms) and <prefix>.meta (key=value lines);
    return the two paths."""
    paths = f"{prefix}.sct", f"{prefix}.meta"
    save_tensor(model.dictionary.atoms, paths[0])
    # a value written as its parser reads it: repr(float) for lambda
    text = "".join(f"{key}={parse(value(model.config))}\n" for key, parse, value in _META)
    write_file(paths[1], text.encode("utf-8"))
    return paths


def load_model(prefix):
    """Read back (Dictionary, meta dict) as written by save_model.

    The meta dict holds the parsed values, and meta["encoder"] the
    EncoderConfig of the TrainConfig they describe. A value that a new
    TrainConfig would reject makes the file corrupt.
    """
    atoms = load_tensor(f"{prefix}.sct")
    path = f"{prefix}.meta"
    try:
        text = read_file(path).decode("utf-8")
    except UnicodeDecodeError as exc:
        raise LocosparseError(f"{path}: not UTF-8 text: {exc}") from exc
    raw = {}
    for line in text.splitlines():
        if not line.strip():
            continue
        key, sep, value = line.partition("=")
        if not sep:
            raise LocosparseError(f"{path}: malformed line {line!r}")
        raw[key] = value
    missing = [key for key, _, _ in _META if key not in raw]
    if missing:
        raise LocosparseError(f"{path}: missing keys {missing}")
    try:
        meta = {key: parse(raw[key]) for key, parse, _ in _META}
    except ValueError as exc:
        raise LocosparseError(f"{path}: malformed numeric value: {exc}") from exc
    # the stored values pass the checks of a new run, num_atoms read from the
    # atoms; only then is a shape that disagrees with them the fault of the
    # .sct (Dictionary also rejects one that is not 2-D, a scalar included)
    fields = dict(meta)
    try:
        penalty = PenaltyConfig(*(fields.pop(key) for key in ("penalty", "lambda", "knn_k")))
        cfg = TrainConfig(num_atoms=atoms.shape[-1] if atoms.ndim else 1, penalty=penalty,
                          **fields)
    except ConfigError as exc:
        raise LocosparseError(f"{path}: {exc}") from exc
    try:
        dictionary = Dictionary(atoms, cfg.patch_side)
    except ConfigError as exc:
        raise LocosparseError(f"{prefix}.sct: {exc}") from exc
    meta["encoder"] = cfg.encoder_config()
    return dictionary, meta
