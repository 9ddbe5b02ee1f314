"""Run-manifest hashing and the lines a manifest records."""

import tracemalloc

import numpy as np
import pytest

from locosparse.errors import LocosparseError
from locosparse.manifest import _BLOCK, digest_file, fnv1a64, write_manifest

from oracles import fnv1a64_bytewise

# published FNV-1a 64-bit reference vectors
_KNOWN = [
    (b"", 0xCBF29CE484222325),
    (b"a", 0xAF63DC4C8601EC8C),
    (b"foobar", 0x85944171F73967E8),
]


@pytest.mark.parametrize("data,expected", _KNOWN)
def test_fnv1a64_reference_vectors(data, expected):
    assert fnv1a64(data) == expected


def test_fnv1a64_stays_in_64_bits():
    rng = np.random.default_rng(11)
    for _ in range(20):
        blob = rng.integers(0, 256, size=rng.integers(1, 200)).astype(np.uint8).tobytes()
        h = fnv1a64(blob)
        assert 0 <= h < (1 << 64)


def test_fnv1a64_sensitive_to_any_byte():
    base = bytes(range(64))
    h0 = fnv1a64(base)
    for i in range(0, 64, 7):
        flipped = bytearray(base)
        flipped[i] ^= 0x01
        assert fnv1a64(bytes(flipped)) != h0


def _oracle_inputs():
    rng = np.random.default_rng(12)
    for n in (0, 1, 2, 255, 256, _BLOCK - 1, _BLOCK, _BLOCK + 1, 3 * _BLOCK + 7):
        yield rng.integers(0, 256, size=n, dtype=np.uint8).tobytes()
    yield b"\x00" * (2 * _BLOCK + 3)
    yield b"\xff" * (2 * _BLOCK + 3)


@pytest.mark.parametrize("data", list(_oracle_inputs()), ids=lambda d: f"{len(d)}B")
@pytest.mark.parametrize("kind", [bytes, bytearray, memoryview])
def test_fnv1a64_matches_bytewise_oracle(data, kind):
    # block edges, and runs of all-zero and all-one bytes
    assert fnv1a64(kind(data)) == fnv1a64_bytewise(data)


def test_fnv1a64_sensitive_to_a_byte_in_a_later_block():
    data = bytearray(np.random.default_rng(13).integers(0, 256, size=2 * _BLOCK + 5,
                                                        dtype=np.uint8).tobytes())
    h0 = fnv1a64(data)
    data[_BLOCK + 17] ^= 0x40
    assert fnv1a64(data) != h0
    assert fnv1a64(data) == fnv1a64_bytewise(data)


def test_fnv1a64_scratch_is_bounded():
    data = bytes(8 << 20)
    tracemalloc.start()
    try:
        fnv1a64(data)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 << 20


def test_digest_file_matches_in_memory_hash(tmp_path):
    path = tmp_path / "blob.bin"
    payload = b"locality\x00\xff\x80 charges"
    path.write_bytes(payload)
    assert digest_file(str(path)) == fnv1a64(payload)


def test_digest_file_missing_raises_storage_error(tmp_path):
    with pytest.raises(LocosparseError) as excinfo:
        digest_file(str(tmp_path / "nope.bin"))
    assert excinfo.type is LocosparseError


def test_manifest_roundtrip(tmp_path):
    data = tmp_path / "input.sct"
    data.write_bytes(b"\x01\x02\x03")
    digest = fnv1a64(b"\x01\x02\x03")
    manifest = tmp_path / "run.manifest.txt"
    config = {"penalty": "wl", "lambda": "0.5", "seed": 7}
    write_manifest(str(manifest), "locosparse train --data input.sct",
                   config, [str(data)], ["out.sct", "out.meta"], 1.23456)
    assert manifest.read_text(encoding="utf-8").splitlines() == [
        "command=locosparse train --data input.sct",
        "config.lambda=0.5",
        "config.penalty=wl",
        "config.seed=7",
        f"input={data} fnv1a64={digest:016x}",
        "output=out.sct",
        "output=out.meta",
        "duration_seconds=1.235",
    ]


def test_manifest_config_keys_are_sorted(tmp_path):
    data = tmp_path / "x.bin"
    data.write_bytes(b"z")
    manifest = tmp_path / "m.txt"
    write_manifest(str(manifest), "cmd", {"zeta": 1, "alpha": 2}, [str(data)], [], 0.0)
    lines = manifest.read_text().splitlines()
    keys = [ln for ln in lines if ln.startswith("config.")]
    assert keys == ["config.alpha=2", "config.zeta=1"]


def _recorded_input(manifest):
    """(path, digest) of the one input line of a manifest."""
    lines = [ln for ln in manifest.read_text(encoding="utf-8").splitlines()
             if ln.startswith("input=")]
    assert len(lines) == 1
    path, _, digest = lines[0][len("input="):].rpartition(" fnv1a64=")
    return path, int(digest, 16)


def test_manifest_digest_tracks_input_changes(tmp_path):
    data = tmp_path / "input.bin"
    data.write_bytes(b"before")
    m1 = tmp_path / "m1.txt"
    write_manifest(str(m1), "cmd", {}, [str(data)], [], 0.0)
    path1, digest1 = _recorded_input(m1)
    data.write_bytes(b"after!")
    m2 = tmp_path / "m2.txt"
    write_manifest(str(m2), "cmd", {}, [str(data)], [], 0.0)
    path2, digest2 = _recorded_input(m2)
    assert path1 == path2 == str(data)
    assert digest1 != digest2
    # and the recorded digest can be re-verified against the file
    assert digest2 == digest_file(str(data))


def test_manifest_input_path_with_spaces(tmp_path):
    data = tmp_path / "my data file.sct"
    data.write_bytes(b"abc")
    manifest = tmp_path / "m.txt"
    write_manifest(str(manifest), "cmd", {}, [str(data)], [], 0.5)
    assert _recorded_input(manifest) == (str(data), fnv1a64(b"abc"))


def test_write_manifest_unwritable_raises_storage_error(tmp_path):
    with pytest.raises(LocosparseError) as excinfo:
        write_manifest(str(tmp_path / "no_dir" / "m.txt"), "cmd", {}, [], [], 0.0)
    assert excinfo.type is LocosparseError

