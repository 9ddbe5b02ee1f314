"""Output checks for the locosparse commands, independent of the package.

Each `check_*` function parses the files one command writes, in the
layout the README documents, and raises `OutputError` on the first
deviation: a missing file, a truncated payload, a malformed row, or
counts that disagree with each other. `digest_files` and `changed_files`
implement the reproducibility check: a pass must reproduce the first
pass byte for byte, except for the `duration_seconds=` line of a
manifest, which is a wall-clock reading.
"""

import hashlib
import math
import re
import struct
import xml.etree.ElementTree as ET

import numpy as np

_SCT_MAGIC = b"SCT1"
_HEX64 = re.compile(r"[0-9a-f]{16}")
_META_KEYS = ("penalty", "lambda", "patch_side", "steps", "momentum_mode",
              "seed", "epochs", "batch_size", "knn_k")
_GABOR_HEADER = ("neuron_id,K,u0,v0,theta_rad,sigma_x,sigma_y,freq,phase_rad,"
                 "phase_folded_deg,n_x,n_y,residual,converged")
_SUMMARY_KEYS = ("neurons", "converged", "non_converged", "symmetry_score",
                 "source", "bins")
_DURATION_PREFIX = b"duration_seconds="


class OutputError(ValueError):
    """A command's output does not match its documented layout."""


def _require(condition, message):
    if not condition:
        raise OutputError(message)


def _read_text(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise OutputError(f"{path}: unreadable: {exc}") from exc


def _lines(path):
    text = _read_text(path)
    _require(text.endswith("\n"), f"{path}: last line is not terminated")
    return text[:-1].split("\n")


def _float(path, text):
    try:
        return float(text)
    except ValueError as exc:
        raise OutputError(f"{path}: {text!r} is not a number") from exc


def _int(path, text):
    _require(re.fullmatch(r"-?[0-9]+", text) is not None,
             f"{path}: {text!r} is not an integer")
    return int(text)


def _key_values(path, keys):
    pairs = []
    for line in _lines(path):
        key, sep, value = line.partition("=")
        _require(sep == "=", f"{path}: malformed line {line!r}")
        pairs.append((key, value))
    _require(tuple(k for k, _ in pairs) == keys,
             f"{path}: keys {[k for k, _ in pairs]} != {list(keys)}")
    return dict(pairs)


def read_sct(path):
    """Parse an SCT1 tensor: magic, rank byte, uint64 extents, float64 payload."""
    try:
        with open(path, "rb") as fh:
            buf = fh.read()
    except OSError as exc:
        raise OutputError(f"{path}: unreadable: {exc}") from exc
    _require(len(buf) >= 5 and buf[:4] == _SCT_MAGIC, f"{path}: bad SCT1 magic")
    rank = buf[4]
    offset = 5 + 8 * rank
    _require(1 <= rank <= 4 and len(buf) >= offset, f"{path}: bad extent table")
    dims = struct.unpack_from(f"<{rank}Q", buf, 5)
    _require(len(buf) - offset == 8 * math.prod(dims),
             f"{path}: payload holds {len(buf) - offset} bytes for shape {dims}")
    data = np.frombuffer(buf, dtype="<f8", offset=offset).reshape(dims)
    _require(bool(np.all(np.isfinite(data))), f"{path}: non-finite payload")
    return data


def check_manifest(path, outputs):
    """command=, config.*, input=<path> fnv1a64=<hex>, output=..., duration."""
    lines = _lines(path)
    _require(lines[0].startswith("command=locosparse "), f"{path}: no command line")
    _require(lines[-1].startswith("duration_seconds="), f"{path}: no duration line")
    _require(_float(path, lines[-1].partition("=")[2]) >= 0.0, f"{path}: negative duration")
    listed = []
    for line in lines[1:-1]:
        key, sep, value = line.partition("=")
        _require(sep == "=", f"{path}: malformed line {line!r}")
        if key == "input":
            _, marker, digest = value.rpartition(" fnv1a64=")
            _require(marker and _HEX64.fullmatch(digest), f"{path}: bad input digest {line!r}")
        elif key == "output":
            listed.append(value)
        else:
            _require(key.startswith("config."), f"{path}: unexpected key {key!r}")
    _require(listed == list(outputs), f"{path}: outputs {listed} != {list(outputs)}")


def check_train(base, prefix, patch_side, num_atoms, epochs):
    """<prefix>.sct/.meta/.loss.csv/.manifest.txt of one `train`.

    Paths are relative to `base`, the directory the command ran in, as
    the manifest lists them; the relative output paths are returned.
    """
    outputs = [f"{prefix}.sct", f"{prefix}.meta", f"{prefix}.loss.csv",
               f"{prefix}.manifest.txt"]
    atoms = read_sct(base / outputs[0])
    _require(atoms.shape == (patch_side * patch_side, num_atoms),
             f"{prefix}.sct: shape {atoms.shape}")
    norms = np.sqrt((atoms * atoms).sum(axis=0))
    _require(bool(np.all(np.abs(norms - 1.0) < 1e-9)), f"{prefix}.sct: atoms not unit norm")
    meta = _key_values(base / outputs[1], _META_KEYS)
    _require(int(meta["patch_side"]) == patch_side and int(meta["epochs"]) == epochs,
             f"{prefix}.meta: config disagrees with the command")
    loss_path = base / outputs[2]
    rows = _lines(loss_path)
    _require(rows[0] == "batch,loss", f"{loss_path}: bad header")
    _require(len(rows) == epochs + 1, f"{loss_path}: {len(rows) - 1} rows for {epochs} batches")
    for i, row in enumerate(rows[1:]):
        batch, sep, loss = row.partition(",")
        _require(sep == "," and _int(loss_path, batch) == i, f"{loss_path}: bad row {row!r}")
        _require(math.isfinite(_float(loss_path, loss)), f"{loss_path}: non-finite loss")
    check_manifest(base / outputs[3], outputs)
    return outputs


def check_eval(base, prefix, neurons, bins, source):
    """<prefix>.gabor.csv/.phases.csv/.summary.txt/.manifest.txt of one `eval`.

    Returns the output paths and the parsed summary.
    """
    outputs = [f"{prefix}.gabor.csv", f"{prefix}.phases.csv", f"{prefix}.summary.txt",
               f"{prefix}.manifest.txt"]
    gabor_path = base / outputs[0]
    rows = _lines(gabor_path)
    _require(rows[0] == _GABOR_HEADER, f"{gabor_path}: bad header")
    _require(len(rows) == neurons + 1, f"{gabor_path}: {len(rows) - 1} rows for {neurons} neurons")
    converged = 0
    for i, row in enumerate(rows[1:]):
        fields = row.split(",")
        _require(len(fields) == 14, f"{gabor_path}: row {i} has {len(fields)} fields")
        _require(_int(gabor_path, fields[0]) == i, f"{gabor_path}: row {i} has id {fields[0]}")
        for text in fields[1:13]:
            _float(gabor_path, text)
        _require(fields[13] in ("true", "false"), f"{gabor_path}: bad flag {fields[13]!r}")
        converged += fields[13] == "true"

    phases_path = base / outputs[1]
    rows = _lines(phases_path)
    _require(rows[0] == "bin_lo_deg,bin_hi_deg,count", f"{phases_path}: bad header")
    _require(len(rows) == bins + 1, f"{phases_path}: {len(rows) - 1} rows for {bins} bins")
    total = 0
    for i, row in enumerate(rows[1:]):
        fields = row.split(",")
        _require(len(fields) == 3, f"{phases_path}: bad row {row!r}")
        lo, hi = _float(phases_path, fields[0]), _float(phases_path, fields[1])
        _require(abs(lo - 90.0 * i / bins) < 1e-9 and abs(hi - 90.0 * (i + 1) / bins) < 1e-9,
                 f"{phases_path}: bad bin edges {row!r}")
        total += _int(phases_path, fields[2])
    _require(total == converged, f"{phases_path}: {total} binned, {converged} converged")

    summary_path = base / outputs[2]
    summary = _key_values(summary_path, _SUMMARY_KEYS)
    _require(_int(summary_path, summary["neurons"]) == neurons
             and _int(summary_path, summary["converged"]) == converged
             and _int(summary_path, summary["non_converged"]) == neurons - converged
             and summary["source"] == source
             and _int(summary_path, summary["bins"]) == bins,
             f"{summary_path}: disagrees with the fits")
    score = _float(summary_path, summary["symmetry_score"])
    _require(0.0 <= score <= 1.0, f"{summary_path}: symmetry_score {score} out of [0, 1]")
    check_manifest(base / outputs[3], outputs)
    return outputs, {"converged": converged, "symmetry_score": score}


def check_cluster(base, out, sides, k):
    """vertex_id,side,label rows: one per vertex, every label in use."""
    path = base / out
    rows = _lines(path)
    _require(rows[0] == "vertex_id,side,label", f"{path}: bad header")
    _require(len(rows) == len(sides) + 1, f"{path}: {len(rows) - 1} rows for {len(sides)} vertices")
    used = set()
    for i, row in enumerate(rows[1:]):
        fields = row.split(",")
        _require(len(fields) == 3 and _int(path, fields[0]) == i and fields[1] == sides[i],
                 f"{path}: bad row {row!r}")
        label = _int(path, fields[2])
        _require(0 <= label < k, f"{path}: label {label} outside [0, {k})")
        used.add(label)
    _require(len(used) == k, f"{path}: only {len(used)} of {k} clusters used")
    return [out]


def check_render(base, out, tiles, patch_side):
    """A standalone SVG with one rect per pixel of every tile."""
    path = base / out
    try:
        root = ET.fromstring(_read_text(path))
    except ET.ParseError as exc:
        raise OutputError(f"{path}: not well-formed XML: {exc}") from exc
    _require(root.tag == "{http://www.w3.org/2000/svg}svg", f"{path}: root is {root.tag}")
    rects = [child for child in root if child.tag == "{http://www.w3.org/2000/svg}rect"]
    _require(len(rects) == tiles * patch_side * patch_side,
             f"{path}: {len(rects)} rects for {tiles} tiles")
    return [out]


def _normalized_bytes(path):
    with open(path, "rb") as fh:
        data = fh.read()
    if str(path).endswith(".manifest.txt"):
        data = b"".join(line for line in data.splitlines(keepends=True)
                        if not line.startswith(_DURATION_PREFIX))
    return data


def digest_files(base, paths):
    """sha256 of each file under `base`, with manifest duration lines left out."""
    return {str(p): hashlib.sha256(_normalized_bytes(base / p)).hexdigest() for p in paths}


def changed_files(reference, digests):
    """Paths whose digest differs from the reference, or that one side lacks."""
    return sorted(p for p in set(reference) | set(digests)
                  if reference.get(p) != digests.get(p))
