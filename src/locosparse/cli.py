"""Command-line surface: train, eval, cluster, render.

Exit codes: 0 success, 1 runtime failure, 2 usage error (a bad flag or a ConfigError).
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


def _positive_int(text):
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {text}")
    return value


def _patch_side(text):
    value = int(text)
    if value < MIN_PATCH_SIDE:
        raise argparse.ArgumentTypeError(
            f"expected a patch side of at least {MIN_PATCH_SIDE}, got {text}")
    return value


def _non_negative_int(text):
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"expected a non-negative integer, got {text}")
    return value


def _positive_float(text):
    value = float(text)
    if not (math.isfinite(value) and value > 0):
        raise argparse.ArgumentTypeError(f"expected a finite positive number, got {text}")
    return value


def _non_negative_float(text):
    value = float(text)
    if not (math.isfinite(value) and value >= 0):
        raise argparse.ArgumentTypeError(
            f"expected a finite non-negative number, got {text}")
    return value


def _bin_count(text):
    value = int(text)
    if value < 2:
        raise argparse.ArgumentTypeError(f"need at least 2 bins, got {text}")
    return value


def build_parser():
    parser = argparse.ArgumentParser(
        prog="locosparse",
        description="Locality-regularized sparse coding of image patches.")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("train", help="learn a dictionary from image patches")
    p.add_argument("--data", required=True, help="SCT or PGM image file")
    p.add_argument("--penalty", required=True, choices=KINDS)
    p.add_argument("--lambda", dest="lam", type=_non_negative_float, default=0.5)
    p.add_argument("--patch-size", type=_patch_side, default=8)
    p.add_argument("--num-atoms", type=_positive_int, default=64)
    p.add_argument("--steps", type=_positive_int, default=15)
    p.add_argument("--momentum", choices=MOMENTUM_MODES, default="aswritten")
    p.add_argument("--epochs", type=_non_negative_int, default=200)
    p.add_argument("--batch-size", type=_positive_int, default=100)
    p.add_argument("--knn-k", type=_positive_int, default=4)
    p.add_argument("--lr", type=_positive_float, default=1.0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--standardize", action="store_true",
                   help="zero-mean and unit-norm each sampled patch")
    p.add_argument("--out", required=True, help="output prefix")
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser("eval", help="fit Gabors to receptive-field estimates")
    p.add_argument("--model", required=True, help="model prefix from train")
    p.add_argument("--samples", type=_positive_int, default=20000)
    p.add_argument("--source", choices=("sta", "atoms"), default="sta")
    p.add_argument("--bins", type=_bin_count, default=9)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True, help="output prefix")
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("cluster", help="spectral clustering of codes or stimuli")
    p.add_argument("--codes", required=True, help="SCT tensor of codes or stimuli")
    p.add_argument("--k", type=_positive_int, required=True)
    p.add_argument("--mode", choices=("bipartite", "stimuli"), required=True)
    p.add_argument("--knn-k", type=_positive_int, default=4)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True, help="output CSV path")
    p.set_defaults(func=_cmd_cluster)

    p = sub.add_parser("render", help="render a 2-D tensor as a filter grid")
    p.add_argument("--tensor", required=True, help="SCT tensor, columns are filters")
    p.add_argument("--cols", type=_positive_int, default=8)
    p.add_argument("--cell", type=_positive_float, default=32.0)
    p.add_argument("--out", required=True, help="output SVG path")
    p.set_defaults(func=_cmd_render)
    return parser


def entrypoint(argv=None):
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    parser = build_parser()
    args = parser.parse_args(argv)
    command = shlex.join(["locosparse"] + argv)
    try:
        return args.func(args, command)
    except (LocosparseError, OSError) as exc:
        print(f"locosparse: error: {exc}", file=sys.stderr)
        return 2 if isinstance(exc, ConfigError) else 1


def _fmt_float(x):
    return repr(float(x))


def _write_lines(path, lines):
    write_file(path, "".join(f"{line}\n" for line in lines).encode("utf-8"))


def _cmd_train(args, command):
    start = time.time()
    images = load_image_stack(args.data)
    cfg = TrainConfig(
        num_atoms=args.num_atoms,
        patch_side=args.patch_size,
        penalty=PenaltyConfig(args.penalty, args.lam, args.knn_k),
        steps=args.steps,
        momentum_mode=args.momentum,
        epochs=args.epochs,
        batch_size=args.batch_size,
        dict_learning_rate=args.lr,
        seed=args.seed,
        standardize=args.standardize,
    )
    model = train(images, cfg)
    save_model(model, args.out)
    loss_path = f"{args.out}.loss.csv"
    _write_lines(loss_path, ["batch,loss", *(
        f"{i},{_fmt_float(value)}" for i, value in enumerate(model.loss_history))])
    outputs = [f"{args.out}.sct", f"{args.out}.meta", loss_path,
               f"{args.out}.manifest.txt"]
    config = {
        "penalty": args.penalty, "lambda": _fmt_float(args.lam),
        "patch_size": args.patch_size, "num_atoms": args.num_atoms,
        "steps": args.steps, "momentum": args.momentum,
        "epochs": args.epochs, "batch_size": args.batch_size,
        "knn_k": args.knn_k, "lr": _fmt_float(args.lr), "seed": args.seed,
        "standardize": args.standardize,
    }
    write_manifest(outputs[-1], command, config, [args.data], outputs,
                   time.time() - start)
    print(f"trained {args.penalty} dictionary with {args.num_atoms} atoms: {outputs[0]}")
    return 0


def _cmd_eval(args, command):
    start = time.time()
    dictionary, meta = load_model(args.model)
    atoms = dictionary.atoms
    side = dictionary.patch_side

    if args.source == "atoms":
        fields = [atoms[:, j].reshape(side, side) for j in range(atoms.shape[1])]
    else:
        def respond(Y):
            return encode(Y, atoms, meta["encoder"])[0]

        fields = sta_receptive_fields(respond, side, args.samples, args.seed)

    params = [gabor_fit(image) for image in fields]
    # both histograms raise when no fit converged, so build them before
    # writing any output: a failing eval writes nothing
    hist = phase_histogram(params, args.bins)
    # the balance score needs an even split at 45 degrees, so compute it
    # from a two-bin histogram of the same fits
    balance = symmetry_score(phase_histogram(params, 2))

    lines = ["neuron_id,K,u0,v0,theta_rad,sigma_x,sigma_y,freq,phase_rad,"
             "phase_folded_deg,n_x,n_y,residual,converged"]
    for j, p in enumerate(params):
        n_x, n_y = shape_metrics(p) if p.converged else (float("nan"), float("nan"))
        values = (p.amplitude, p.u0, p.v0, p.theta, p.sigma_x, p.sigma_y, p.freq,
                  p.phase, fold_phase(p.phase), n_x, n_y, p.residual)
        lines.append(",".join([str(j), *map(_fmt_float, values),
                               "true" if p.converged else "false"]))
    gabor_path = f"{args.out}.gabor.csv"
    _write_lines(gabor_path, lines)

    phases_path = f"{args.out}.phases.csv"
    _write_lines(phases_path, ["bin_lo_deg,bin_hi_deg,count", *(
        f"{_fmt_float(hist.bin_edges[i])},{_fmt_float(hist.bin_edges[i + 1])},"
        f"{int(hist.counts[i])}" for i in range(hist.counts.size))])

    converged_count = len(params) - hist.excluded
    summary_path = f"{args.out}.summary.txt"
    _write_lines(summary_path, [
        f"neurons={len(params)}", f"converged={converged_count}",
        f"non_converged={hist.excluded}", f"symmetry_score={_fmt_float(balance)}",
        f"source={args.source}", f"bins={args.bins}"])

    outputs = [gabor_path, phases_path, summary_path, f"{args.out}.manifest.txt"]
    config = {"model": args.model, "samples": args.samples, "source": args.source,
              "bins": args.bins, "seed": args.seed}
    inputs = [f"{args.model}.sct", f"{args.model}.meta"]
    write_manifest(outputs[-1], command, config, inputs, outputs,
                   time.time() - start)
    print(f"fitted {converged_count}/{len(params)} neurons: {gabor_path}")
    return 0


def _cmd_cluster(args, command):
    X = load_tensor(args.codes)
    if X.ndim != 2:
        raise ConfigError("codes tensor must be 2-D")
    if args.mode == "bipartite":
        graph = bipartite_laplacian(X)
        sides = ["atom"] * X.shape[0] + ["stimulus"] * X.shape[1]
    else:
        graph = laplacian_from_adjacency(knn_adjacency(X, args.knn_k))
        sides = ["stimulus"] * X.shape[1]
    assignment = spectral_cluster(graph, args.k, seed=args.seed)
    _write_lines(args.out, ["vertex_id,side,label", *(
        f"{vid},{side_name},{int(label)}"
        for vid, (side_name, label) in enumerate(zip(sides, assignment.labels)))])
    return 0


def _cmd_render(args, command):
    M = load_tensor(args.tensor)
    if M.ndim != 2:
        raise ConfigError("render expects a 2-D tensor")
    write_file(args.out, render_grid_svg(M, args.cols, args.cell).encode("utf-8"))
    return 0
