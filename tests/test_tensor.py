import ast
import re
import struct
from pathlib import Path

import numpy as np
import pytest

import locosparse
from locosparse import tensor
from locosparse.errors import LocosparseError
from locosparse.rng import CounterRng
from locosparse.tensor import (as_tensor, load_image_stack, load_tensor,
                               save_tensor, write_file)


def test_as_tensor_promotes_lists():
    arr = as_tensor([[1, 2], [3, 4]])
    assert arr.dtype == np.float64
    assert arr.flags["C_CONTIGUOUS"]
    assert arr.shape == (2, 2)


def test_as_tensor_rank_limit():
    with pytest.raises(LocosparseError) as excinfo:
        as_tensor(np.zeros((2, 2, 2, 2, 2)))
    assert excinfo.type is LocosparseError


def test_as_tensor_rejects_empty_extent():
    with pytest.raises(LocosparseError) as excinfo:
        as_tensor(np.zeros((3, 0)))
    assert excinfo.type is LocosparseError


def test_save_writes_documented_byte_layout(tmp_path):
    path = tmp_path / "eye.sct"
    save_tensor(np.eye(2), path)
    raw = path.read_bytes()
    expected = b"SCT1" + struct.pack("<B", 2) + struct.pack("<2Q", 2, 2)
    expected += struct.pack("<4d", 1.0, 0.0, 0.0, 1.0)
    assert raw == expected


def test_scalar_saves_as_rank_one(tmp_path):
    path = tmp_path / "s.sct"
    save_tensor(3.5, path)
    back = load_tensor(path)
    assert back.shape == (1,)
    assert back[0] == 3.5


def test_roundtrips_are_bit_exact(tmp_path):
    rng = CounterRng(2024)
    for i in range(60):
        rank = 1 + i % 3
        dims = tuple(int(d) + 1 for d in rng.integers(rank, 6))
        n = int(np.prod(dims))
        t = rng.normals(n).reshape(dims) * 10.0 ** (i % 7 - 3)
        path = tmp_path / f"t{i}.sct"
        save_tensor(t, path)
        back = load_tensor(path)
        assert back.shape == t.shape
        assert np.array_equal(back, t)


def test_roundtrip_preserves_negative_zero(tmp_path):
    path = tmp_path / "nz.sct"
    save_tensor(np.array([-0.0, 0.0]), path)
    back = load_tensor(path)
    assert np.signbit(back[0])
    assert not np.signbit(back[1])


def test_load_missing_file_raises_storage_error(tmp_path):
    with pytest.raises(LocosparseError) as excinfo:
        load_tensor(tmp_path / "absent.sct")
    assert excinfo.type is LocosparseError


def test_load_rejects_bad_magic(tmp_path):
    path = tmp_path / "bad.sct"
    path.write_bytes(b"NOPE" + bytes(16))
    with pytest.raises(LocosparseError) as excinfo:
        load_tensor(path)
    assert excinfo.type is LocosparseError


def test_load_rejects_excessive_rank(tmp_path):
    path = tmp_path / "r9.sct"
    path.write_bytes(b"SCT1" + struct.pack("<B", 9))
    with pytest.raises(LocosparseError) as excinfo:
        load_tensor(path)
    assert excinfo.type is LocosparseError


def test_load_rejects_truncated_extents(tmp_path):
    path = tmp_path / "tr.sct"
    path.write_bytes(b"SCT1" + struct.pack("<B", 2) + struct.pack("<Q", 3))
    with pytest.raises(LocosparseError) as excinfo:
        load_tensor(path)
    assert excinfo.type is LocosparseError


def test_load_rejects_zero_extent(tmp_path):
    path = tmp_path / "z.sct"
    path.write_bytes(b"SCT1" + struct.pack("<B", 1) + struct.pack("<Q", 0))
    with pytest.raises(LocosparseError) as excinfo:
        load_tensor(path)
    assert excinfo.type is LocosparseError


def test_payload_mismatch_message_names_both_sizes(tmp_path):
    path = tmp_path / "short.sct"
    header = b"SCT1" + struct.pack("<B", 1) + struct.pack("<Q", 3)
    path.write_bytes(header + struct.pack("<2d", 1.0, 2.0))
    with pytest.raises(LocosparseError) as excinfo:
        load_tensor(path)
    assert excinfo.type is LocosparseError
    assert "16" in str(excinfo.value)
    assert "24" in str(excinfo.value)


def test_load_rejects_non_finite_payload(tmp_path):
    path = tmp_path / "nan.sct"
    header = b"SCT1" + struct.pack("<B", 1) + struct.pack("<Q", 2)
    path.write_bytes(header + struct.pack("<2d", 1.0, float("nan")))
    with pytest.raises(LocosparseError) as excinfo:
        load_tensor(path)
    assert excinfo.type is LocosparseError
    path2 = tmp_path / "inf.sct"
    path2.write_bytes(header + struct.pack("<2d", 1.0, float("inf")))
    with pytest.raises(LocosparseError) as excinfo:
        load_tensor(path2)
    assert excinfo.type is LocosparseError


def _pgm_bytes(width, height, maxval, raster, header_sep=b"\n"):
    head = b"P5" + header_sep + str(width).encode() + b" " + str(height).encode()
    head += b" " + str(maxval).encode() + b"\n"
    return head + raster


def test_read_pgm_scales_by_maxval(tmp_path):
    path = tmp_path / "a.pgm"
    path.write_bytes(_pgm_bytes(3, 2, 200, bytes([0, 50, 100, 150, 200, 25])))
    img = load_image_stack(path)
    assert img.shape == (2, 3)
    assert np.allclose(img, np.array([[0, 50, 100], [150, 200, 25]]) / 200.0)


def test_read_pgm_handles_comments_and_odd_whitespace(tmp_path):
    path = tmp_path / "c.pgm"
    body = b"P5 # format marker\n# a comment line\n 2\t2 #inline\n255\n"
    path.write_bytes(body + bytes([10, 20, 30, 40]))
    img = load_image_stack(path)
    assert np.allclose(img, np.array([[10, 20], [30, 40]]) / 255.0)


def test_read_pgm_raster_may_start_with_whitespace_byte(tmp_path):
    # the single separator after maxval is consumed; a raster whose first
    # pixel value is 0x20 (a space) must not be eaten by the tokenizer
    path = tmp_path / "w.pgm"
    path.write_bytes(b"P5\n2 1 255\n" + bytes([0x20, 0x0A]))
    img = load_image_stack(path)
    assert np.allclose(img, np.array([[0x20, 0x0A]]) / 255.0)


def test_read_pgm_rejects_ascii_variant(tmp_path):
    # every netpbm magic selects the PGM parser, which reads only binary P5
    path = tmp_path / "p2.pgm"
    path.write_bytes(b"P2\n2 2\n255\n1 2 3 4\n")
    with pytest.raises(LocosparseError, match=r"not a binary PGM \(P5\) file") as excinfo:
        load_image_stack(path)
    assert excinfo.type is LocosparseError


def test_read_pgm_rejects_16_bit(tmp_path):
    path = tmp_path / "deep.pgm"
    path.write_bytes(_pgm_bytes(1, 1, 65535, bytes(2)))
    with pytest.raises(LocosparseError) as excinfo:
        load_image_stack(path)
    assert excinfo.type is LocosparseError


def test_read_pgm_rejects_short_raster(tmp_path):
    path = tmp_path / "short.pgm"
    path.write_bytes(_pgm_bytes(4, 4, 255, bytes(7)))
    with pytest.raises(LocosparseError) as excinfo:
        load_image_stack(path)
    assert excinfo.type is LocosparseError


def test_read_pgm_rejects_truncated_header(tmp_path):
    # a header that ends inside a comment has no maxval: nothing of the
    # comment may be read back as a token
    path = tmp_path / "trunc.pgm"
    for header in (b"P5\n4", b"P5 4 4 # no maxval"):
        path.write_bytes(header)
        with pytest.raises(LocosparseError, match="truncated PGM header") as excinfo:
            load_image_stack(path)
        assert excinfo.type is LocosparseError


def test_load_image_stack_sniffs_both_formats(tmp_path):
    pgm = tmp_path / "img.pgm"
    pgm.write_bytes(_pgm_bytes(2, 2, 255, bytes([0, 255, 128, 64])))
    by_sniff = load_image_stack(pgm)
    assert by_sniff.shape == (2, 2)

    sct = tmp_path / "img.sct"
    save_tensor(np.arange(6.0).reshape(2, 3), sct)
    assert np.array_equal(load_image_stack(sct), np.arange(6.0).reshape(2, 3))


def test_load_image_stack_missing_file(tmp_path):
    with pytest.raises(LocosparseError) as excinfo:
        load_image_stack(tmp_path / "nope.bin")
    assert excinfo.type is LocosparseError


def test_load_image_stack_reads_its_file_once(tmp_path, monkeypatch):
    reads = []
    real_read = tensor.read_file

    def counting_read(path):
        reads.append(path)
        return real_read(path)

    monkeypatch.setattr(tensor, "read_file", counting_read)
    pgm = tmp_path / "img.pgm"
    pgm.write_bytes(_pgm_bytes(2, 2, 255, bytes([0, 255, 128, 64])))
    sct = tmp_path / "img.sct"
    save_tensor(np.arange(6.0).reshape(2, 3), sct)
    load_image_stack(pgm)
    load_image_stack(sct)
    assert reads == [pgm, sct]


def test_failed_access_names_the_path(tmp_path):
    absent = tmp_path / "nodir" / "x.sct"
    with pytest.raises(LocosparseError, match=re.escape(f"cannot read {absent}: ")) as excinfo:
        load_tensor(absent)
    assert excinfo.type is LocosparseError
    with pytest.raises(LocosparseError, match=re.escape(f"cannot write {absent}: ")) as excinfo:
        write_file(absent, b"")
    assert excinfo.type is LocosparseError


def test_only_tensor_calls_open():
    # read_file and write_file are the package's one file access
    callers = set()
    for source in Path(locosparse.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(source.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Call):
                func = node.func
                name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", "")
                if name == "open":
                    callers.add(source.name)
    assert callers == {"tensor.py"}
