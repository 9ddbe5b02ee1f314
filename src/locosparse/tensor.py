"""Dense float64 tensors with a fixed binary layout, plus PGM ingestion.

The on-disk layout (magic `SCT1`) is: four magic bytes, one unsigned
rank byte, `rank` little-endian uint64 extents, then the payload as
little-endian float64 in row-major order. Round trips are bit exact.

`read_file` and `write_file` are the package's only file access: every
other module reads and writes through them, so a failed access always
raises LocosparseError naming the path.
"""

import math
import re
import struct

import numpy as np

from .errors import LocosparseError

_MAGIC = b"SCT1"
_MAX_RANK = 4
# the lookahead stops a comment giving characters back: a header ending in one is truncated
_PGM_TOKEN = re.compile(rb"(?:\s|#[^\r\n]*(?=[\r\n]|\Z))*([^\s#]+)")


def as_tensor(data):
    """Coerce to a contiguous float64 array obeying the layout rules."""
    arr = np.ascontiguousarray(data, dtype=np.float64)
    if arr.ndim > _MAX_RANK:
        raise LocosparseError(f"rank {arr.ndim} exceeds the maximum of {_MAX_RANK}")
    if any(e < 1 for e in arr.shape):
        raise LocosparseError(f"zero-length extent in shape {arr.shape}")
    return arr


def read_file(path):
    """The bytes of a file: the package's one way to read one."""
    try:
        with open(path, "rb") as fh:
            return fh.read()
    except OSError as exc:
        raise LocosparseError(f"cannot read {path}: {exc}") from exc


def write_file(path, data):
    """Write bytes to a file: the package's one way to write one."""
    try:
        with open(path, "wb") as fh:
            fh.write(data)
    except OSError as exc:
        raise LocosparseError(f"cannot write {path}: {exc}") from exc


def save_tensor(t, path):
    """Write a tensor in the SCT1 layout."""
    arr = as_tensor(t)
    header = _MAGIC + struct.pack("<B", arr.ndim)
    header += struct.pack(f"<{arr.ndim}Q", *arr.shape)
    write_file(path, header + arr.astype("<f8", copy=False).tobytes())


def load_tensor(path):
    """Read a tensor written by save_tensor; the exact inverse."""
    return _parse_sct(read_file(path), path)


def _parse_sct(buf, path):
    if len(buf) < 5 or buf[:4] != _MAGIC:
        raise LocosparseError(f"{path}: not an SCT1 tensor (bad magic)")
    rank = buf[4]
    if rank > _MAX_RANK:
        raise LocosparseError(f"{path}: rank {rank} exceeds the maximum of {_MAX_RANK}")
    offset = 5 + 8 * rank
    if len(buf) < offset:
        raise LocosparseError(f"{path}: truncated extent table")
    dims = struct.unpack_from(f"<{rank}Q", buf, 5)
    if any(d < 1 for d in dims):
        raise LocosparseError(f"{path}: zero-length extent in {dims}")
    expected = 8 * math.prod(dims)
    actual = len(buf) - offset
    if actual != expected:
        raise LocosparseError(f"{path}: payload holds {actual} bytes, expected {expected}")
    data = np.frombuffer(buf, dtype="<f8", offset=offset)
    if not np.all(np.isfinite(data)):
        raise LocosparseError(f"{path}: payload contains non-finite values")
    return np.array(data, dtype=np.float64).reshape(dims)


def _parse_pgm(buf, path):
    pos = 0

    def token():
        nonlocal pos
        match = _PGM_TOKEN.match(buf, pos)
        if match is None:
            raise LocosparseError(f"{path}: truncated PGM header")
        pos = match.end()
        return match[1]

    if token() != b"P5":
        raise LocosparseError(f"{path}: not a binary PGM (P5) file")
    try:
        width, height, maxval = int(token()), int(token()), int(token())
    except ValueError as exc:
        raise LocosparseError(f"{path}: malformed PGM header") from exc
    if width < 1 or height < 1:
        raise LocosparseError(f"{path}: bad PGM dimensions {width}x{height}")
    if not 0 < maxval <= 255:
        raise LocosparseError(f"{path}: only 8-bit PGM supported (maxval {maxval})")
    pos += 1  # exactly one whitespace byte separates maxval from the raster
    need = width * height
    raster = buf[pos:pos + need]
    if len(raster) != need:
        raise LocosparseError(f"{path}: raster holds {len(raster)} bytes, expected {need}")
    img = np.frombuffer(raster, dtype=np.uint8).reshape(height, width)
    return img.astype(np.float64) / maxval


def load_image_stack(path):
    """Load grayscale image data from SCT or PGM, sniffing the magic bytes:
    every netpbm magic, P1 to P7, goes to the PGM parser, which reads P5."""
    buf = read_file(path)
    return (_parse_pgm if b"P1" <= buf[:2] <= b"P7" else _parse_sct)(buf, path)
