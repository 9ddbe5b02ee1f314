"""Command-line surface: train, eval, cluster, render.

The parser is the one description of every option: `entrypoint` writes
the manifest of train, eval and cluster from the parsed arguments.
Exit codes: 0 success, 1 runtime failure (a LocosparseError, OSError or
MemoryError), 2 usage error (a bad flag or a ConfigError).
"""

import argparse
import math
import shlex
import sys
import time

import numpy as np

from .encoder import MOMENTUM_MODES, encode
from .errors import ConfigError, LocosparseError
from .gabor import fold_phase, gabor_fit, shape_metrics
from .graphs import bipartite_laplacian, knn_adjacency, laplacian_from_adjacency
from .manifest import write_manifest
from .patches import MIN_PATCH_SIDE
from .penalties import KINDS, PenaltyConfig
from .render import render_grid_svg
from .rfeval import phase_histogram, sta_receptive_fields, symmetry_score
from .spectral import spectral_cluster
from .tensor import load_image_stack, load_tensor, write_file
from .trainer import TrainConfig, load_model, save_model, train


def _at_least(cast, least, strict=False):
    """An argparse type: cast the text, then require a finite value of at
    least `least` (above it when strict)."""
    def parse(text):
        value = cast(text)
        # comparisons, not math.isfinite: they reject nan and inf, and an int
        # too large for a float still compares exactly
        if not ((least < value if strict else least <= value) and value < math.inf):
            bound = f"above {least}" if strict else f"at least {least}"
            raise argparse.ArgumentTypeError(f"expected a finite value {bound}, got {text}")
        return value

    parse.__name__ = cast.__name__  # argparse names the type when the cast fails
    return parse


def build_parser():
    parser = argparse.ArgumentParser(
        prog="locosparse",
        description="Locality-regularized sparse coding of image patches.")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("train", help="learn a dictionary from image patches")
    p.add_argument("--data", required=True, help="SCT or PGM image file")
    p.add_argument("--penalty", required=True, choices=KINDS)
    p.add_argument("--lambda", type=_at_least(float, 0.0), default=0.5)
    p.add_argument("--patch-size", type=_at_least(int, MIN_PATCH_SIDE), default=8)
    p.add_argument("--num-atoms", type=_at_least(int, 1), default=64)
    p.add_argument("--steps", type=_at_least(int, 1), default=15)
    p.add_argument("--momentum", choices=MOMENTUM_MODES, default="aswritten")
    p.add_argument("--epochs", type=_at_least(int, 0), default=200)
    p.add_argument("--batch-size", type=_at_least(int, 1), default=100)
    p.add_argument("--knn-k", type=_at_least(int, 1), default=4)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--standardize", action="store_true",
                   help="zero-mean and unit-norm each sampled patch")
    p.add_argument("--out", required=True, help="output prefix")
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser("eval", help="fit Gabors to receptive-field estimates")
    p.add_argument("--model", required=True, help="model prefix from train")
    p.add_argument("--samples", type=_at_least(int, 1), default=20000)
    p.add_argument("--source", choices=("sta", "atoms"), default="sta")
    p.add_argument("--bins", type=_at_least(int, 2), default=9)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True, help="output prefix")
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("cluster", help="spectral clustering of codes or stimuli")
    p.add_argument("--codes", required=True, help="SCT tensor of codes or stimuli")
    p.add_argument("--k", type=_at_least(int, 1), required=True)
    p.add_argument("--mode", choices=("bipartite", "stimuli"), required=True)
    p.add_argument("--knn-k", type=_at_least(int, 1), default=4)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True, help="output CSV path")
    p.set_defaults(func=_cmd_cluster)

    p = sub.add_parser("render", help="render a 2-D tensor as a filter grid")
    p.add_argument("--tensor", required=True, help="SCT tensor, columns are filters")
    p.add_argument("--cols", type=_at_least(int, 1), default=8)
    p.add_argument("--cell", type=_at_least(float, 0.0, strict=True), default=32.0)
    p.add_argument("--out", required=True, help="output SVG path")
    p.set_defaults(func=_cmd_render)
    return parser


def entrypoint(argv=None):
    """Run one subcommand, then write the manifest if it returned (inputs, outputs)."""
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    args = build_parser().parse_args(argv)
    start = time.perf_counter()
    try:
        record = args.func(args)
        if record is not None:
            inputs, outputs = record
            manifest = f"{args.out}.manifest.txt"
            config = {key: value for key, value in vars(args).items()
                      if key not in ("subcommand", "func", "out")}
            write_manifest(manifest, shlex.join(["locosparse", *argv]), config, inputs,
                           [*outputs, manifest], time.perf_counter() - start)
    except (LocosparseError, OSError, MemoryError) as exc:
        # numpy names the allocation it refused; a bare MemoryError says nothing
        print(f"locosparse: error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return 2 if isinstance(exc, ConfigError) else 1
    return 0


def _fmt_float(x):
    return repr(float(x))


def _write_lines(path, lines):
    write_file(path, "".join(f"{line}\n" for line in lines).encode("utf-8"))


def _cmd_train(args):
    images = load_image_stack(args.data)
    cfg = TrainConfig(
        num_atoms=args.num_atoms,
        patch_side=args.patch_size,
        penalty=PenaltyConfig(args.penalty, getattr(args, "lambda"), args.knn_k),
        steps=args.steps,
        momentum_mode=args.momentum,
        epochs=args.epochs,
        batch_size=args.batch_size,
        seed=args.seed,
        standardize=args.standardize,
    )
    model = train(images, cfg)
    model_paths = save_model(model, args.out)
    loss_path = f"{args.out}.loss.csv"
    _write_lines(loss_path, ["batch,loss", *(
        f"{i},{_fmt_float(value)}" for i, value in enumerate(model.loss_history))])
    print(f"trained {args.penalty} dictionary with {args.num_atoms} atoms: {model_paths[0]}")
    return [args.data], [*model_paths, loss_path]


def _cmd_eval(args):
    dictionary, meta = load_model(args.model)
    atoms = dictionary.atoms
    side = dictionary.patch_side

    if args.source == "atoms":
        fields = atoms.T.reshape(-1, side, side)
    else:
        def respond(Y):
            return encode(Y, atoms, meta["encoder"])[0]

        fields = sta_receptive_fields(respond, side, args.samples, args.seed)

    params = [gabor_fit(image) for image in fields]
    folded = np.array([fold_phase(p.phase) for p in params])
    converged = np.array([p.converged for p in params], dtype=bool)
    # the histogram raises when no fit converged, so build it before
    # writing any output: a failing eval writes nothing
    counts, edges = phase_histogram(folded[converged], args.bins)
    balance = symmetry_score(folded[converged])

    lines = ["neuron_id,K,u0,v0,theta_rad,sigma_x,sigma_y,freq,phase_rad,"
             "phase_folded_deg,n_x,n_y,residual,converged"]
    for j, p in enumerate(params):
        n_x, n_y = shape_metrics(p) if p.converged else (float("nan"), float("nan"))
        values = (p.amplitude, p.u0, p.v0, p.theta, p.sigma_x, p.sigma_y, p.freq,
                  p.phase, folded[j], n_x, n_y, p.residual)
        lines.append(",".join([str(j), *map(_fmt_float, values),
                               "true" if p.converged else "false"]))
    gabor_path = f"{args.out}.gabor.csv"
    _write_lines(gabor_path, lines)

    phases_path = f"{args.out}.phases.csv"
    _write_lines(phases_path, ["bin_lo_deg,bin_hi_deg,count", *(
        f"{_fmt_float(edges[i])},{_fmt_float(edges[i + 1])},{int(counts[i])}"
        for i in range(counts.size))])

    converged_count = int(converged.sum())
    summary_path = f"{args.out}.summary.txt"
    _write_lines(summary_path, [
        f"neurons={len(params)}", f"converged={converged_count}",
        f"non_converged={len(params) - converged_count}",
        f"symmetry_score={_fmt_float(balance)}",
        f"source={args.source}", f"bins={args.bins}"])

    print(f"fitted {converged_count}/{len(params)} neurons: {gabor_path}")
    return [f"{args.model}.sct", f"{args.model}.meta"], [gabor_path, phases_path, summary_path]


def _cmd_cluster(args):
    X = load_tensor(args.codes)
    if args.mode == "bipartite":
        graph = bipartite_laplacian(X)
        sides = ["atom"] * X.shape[0] + ["stimulus"] * X.shape[1]
    else:
        graph = laplacian_from_adjacency(knn_adjacency(X, args.knn_k))
        sides = ["stimulus"] * X.shape[1]
    labels = spectral_cluster(graph, args.k, seed=args.seed)
    _write_lines(args.out, ["vertex_id,side,label", *(
        f"{vid},{side_name},{int(label)}"
        for vid, (side_name, label) in enumerate(zip(sides, labels)))])
    return [args.codes], [args.out]


def _cmd_render(args):
    M = load_tensor(args.tensor)
    write_file(args.out, render_grid_svg(M, args.cols, args.cell).encode("utf-8"))
