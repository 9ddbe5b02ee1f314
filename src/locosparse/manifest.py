"""Run manifests: the invoked command, resolved config, and input digests."""

import numpy as np

from .tensor import read_file, write_file

_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3
_MASK = (1 << 64) - 1
_BLOCK = 1 << 16  # bytes hashed per numpy pass; bounds the scratch arrays


def fnv1a64(data):
    """64-bit FNV-1a hash of a bytes-like object, one block at a time.

    Xoring a byte b into the state h changes only its low byte l, so it
    adds e = (l ^ b) - l. Over a block of m bytes h therefore becomes
    P**m * h + sum_j P**(m - j) * e_j (mod 2**64), one wrapping uint64
    dot product; `_low_bytes` supplies the l each e needs.
    """
    buf = np.frombuffer(data, dtype=np.uint8)
    h = _FNV_OFFSET
    # P**n, ..., P**2, P**1 for n = min(size, _BLOCK); a block of m bytes uses the last m
    powers = np.multiply.accumulate(
        np.full(min(buf.size, _BLOCK), _FNV_PRIME, dtype=np.uint64))[::-1]
    for start in range(0, buf.size, _BLOCK):
        block = buf[start:start + _BLOCK]
        low = _low_bytes(h & 0xFF, block)
        e = (low ^ block).astype(np.uint64)
        e -= low
        weights = powers[powers.size - block.size:]
        h = (int(weights[0]) * h + int(np.dot(e, weights))) & _MASK
    return h


def _low_bytes(low0, block):
    """Low byte of the FNV-1a state before each byte of block.

    The low byte steps as l' = ((l ^ b) * P) mod 256. For an odd P, bit
    k of x * P is bit k of x xored with bit k of (x mod 2**k) * P, so
    once the bits below k are known, bit k over the whole block is a
    prefix xor: eight passes, lowest bit first. Each prefix xor handles
    eight bytes per little-endian uint64 word: three shifts xor every
    byte into the bytes above it, and a running xor over the words' top
    bytes, eight times shorter than the block, carries the earlier words
    in. The block is zero-padded to whole words; the prefix runs forward,
    so the padding changes no byte before it.
    """
    low_prime = _FNV_PRIME & 0xFF
    size = -(-block.size // 8) * 8
    padded = np.zeros(size, dtype=np.uint8)
    padded[:block.size] = block
    low = np.zeros(size + 1, dtype=np.uint8)  # before byte j: low[j]; after it: low[j + 1]
    low[0] = low0
    flips = np.empty(size, dtype=np.uint8)
    words = flips.view("<u8")
    for k in range(8):
        bit = 1 << k
        known = (low[:-1] ^ padded) & (bit - 1)
        np.bitwise_and(padded ^ (known * low_prime), bit, out=flips)
        for shift in (8, 16, 32):
            words ^= words << np.uint64(shift)
        carry = np.bitwise_xor.accumulate(words >> np.uint64(56))
        words[1:] ^= carry[:-1] * np.uint64(0x0101010101010101)
        low[1:] |= flips ^ (low0 & bit)
    return low[:block.size]


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

