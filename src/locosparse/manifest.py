"""Run manifests: the invoked command, resolved config, and input digests."""

from .tensor import read_file, write_file

_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3
_MASK = (1 << 64) - 1


def fnv1a64(data):
    """64-bit FNV-1a hash of a byte string."""
    h = _FNV_OFFSET
    for byte in data:
        h = ((h ^ byte) * _FNV_PRIME) & _MASK
    return h


def digest_file(path):
    """fnv1a64 of a file's contents."""
    return fnv1a64(read_file(path))


def write_manifest(path, command, config, inputs, outputs, duration_seconds):
    """Write a key=value manifest; every input path gets its digest."""
    lines = [f"command={command}"]
    for key in sorted(config):
        lines.append(f"config.{key}={config[key]}")
    for input_path in inputs:
        lines.append(f"input={input_path} fnv1a64={digest_file(input_path):016x}")
    for output_path in outputs:
        lines.append(f"output={output_path}")
    lines.append(f"duration_seconds={duration_seconds:.3f}")
    write_file(path, ("\n".join(lines) + "\n").encode("utf-8"))

