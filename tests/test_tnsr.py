"""Binary tensor container: byte-level layout and failure modes."""

import struct

import numpy as np
import pytest

from trfuse.tnsr import (TnsrDataError, TnsrDimError, TnsrError,
                         TnsrMagicError, TnsrTruncatedError, read_tnsr,
                         write_tnsr, write_tnsr_slabs)


def test_round_trip_is_bit_exact(tmp_path):
    rng = np.random.default_rng(0)
    for shape in ((1,), (3, 4), (2, 3, 4), (2, 2, 2, 2)):
        t = rng.standard_normal(shape)
        t[(0,) * len(shape)] = -0.0  # sign of zero must survive
        p = tmp_path / "t.tnsr"
        write_tnsr(p, t)
        back = read_tnsr(p)
        assert back.shape == t.shape
        assert back.tobytes() == t.astype("<f8").tobytes()


def test_rewrite_is_byte_identical(tmp_path):
    t = np.random.default_rng(1).standard_normal((4, 5, 6))
    a, b = tmp_path / "a.tnsr", tmp_path / "b.tnsr"
    write_tnsr(a, t)
    write_tnsr(b, t)
    assert a.read_bytes() == b.read_bytes()


def test_minimal_file_is_41_bytes(tmp_path):
    p = tmp_path / "one.tnsr"
    write_tnsr(p, np.full((1, 1, 1), 2.5))
    raw = p.read_bytes()
    # 4 magic + 1 version + 4 mode count + 3*8 extents + 8 payload
    assert len(raw) == 41
    assert raw[:4] == b"TNSR"
    assert raw[4] == 1
    assert struct.unpack_from("<I", raw, 5)[0] == 3
    assert struct.unpack_from("<3Q", raw, 9) == (1, 1, 1)
    assert struct.unpack_from("<d", raw, 33)[0] == 2.5


def test_payload_is_row_major(tmp_path):
    t = np.arange(24, dtype=float).reshape(2, 3, 4)
    p = tmp_path / "rm.tnsr"
    write_tnsr(p, t)
    raw = p.read_bytes()
    values = struct.unpack_from("<24d", raw, 9 + 8 * 3)
    assert list(values) == list(range(24))  # last index fastest
    # non-contiguous inputs are written in the same row-major order
    q = tmp_path / "f.tnsr"
    write_tnsr(q, np.asfortranarray(t))
    assert q.read_bytes() == raw
    wide = np.zeros((2, 3, 8))
    wide[:, :, ::2] = t
    write_tnsr(q, wide[:, :, ::2])
    assert q.read_bytes() == raw


def test_slabs_write_the_bytes_of_the_whole(tmp_path):
    t = np.random.default_rng(2).standard_normal((7, 3, 4))
    whole, slabbed = tmp_path / "whole.tnsr", tmp_path / "slabbed.tnsr"
    write_tnsr(whole, t)
    write_tnsr_slabs(slabbed, t.shape, (t[i:i + 3] for i in range(0, 7, 3)))
    assert slabbed.read_bytes() == whole.read_bytes()


def test_refused_slabs_leave_no_partial_file(tmp_path):
    # the file is renamed into place once whole: a refused or failed write
    # leaves nothing at the path, or the older file there as it was
    p = tmp_path / "x.tnsr"
    bad = np.ones((2, 3, 4))
    bad[1, 2, 3] = np.nan

    def failing():
        yield np.ones((2, 3, 4))
        raise RuntimeError("slab failed")

    refusals = ((TnsrDataError, lambda: iter([np.ones((2, 3, 4)), bad])),
                (TnsrDimError, lambda: iter([np.ones((2, 3, 4))])),
                (RuntimeError, failing))
    for exc, slabs in refusals:
        with pytest.raises(exc):
            write_tnsr_slabs(p, (4, 3, 4), slabs())
        assert list(tmp_path.iterdir()) == []
    write_tnsr(p, np.full((1, 1, 1), 2.5))
    older = p.read_bytes()
    for exc, slabs in refusals:
        with pytest.raises(exc):
            write_tnsr_slabs(p, (4, 3, 4), slabs())
        assert list(tmp_path.iterdir()) == [p]
        assert p.read_bytes() == older
    # a directory at the path fails the rename, which is reported
    d = tmp_path / "d"
    d.mkdir()
    with pytest.raises(TnsrError, match="cannot write"):
        write_tnsr_slabs(d, (4, 3, 4), iter([np.ones((4, 3, 4))]))
    assert sorted(tmp_path.iterdir()) == [d, p] and list(d.iterdir()) == []


def test_magic_and_version_errors(tmp_path):
    p = tmp_path / "bad.tnsr"
    p.write_bytes(b"NOPE" + bytes(40))
    with pytest.raises(TnsrMagicError):
        read_tnsr(p)
    good = tmp_path / "good.tnsr"
    write_tnsr(good, np.ones((1, 1, 1)))
    raw = bytearray(good.read_bytes())
    raw[4] = 99
    p.write_bytes(bytes(raw))
    with pytest.raises(TnsrMagicError):
        read_tnsr(p)


def test_truncation_errors(tmp_path):
    good = tmp_path / "good.tnsr"
    write_tnsr(good, np.ones((2, 2, 2)))
    raw = good.read_bytes()
    p = tmp_path / "cut.tnsr"
    for cut in (2, 6, 20, len(raw) - 1):
        p.write_bytes(raw[:cut])
        with pytest.raises(TnsrTruncatedError):
            read_tnsr(p)
    # trailing bytes are an error too, not silently ignored
    p.write_bytes(raw + b"\x00")
    with pytest.raises(TnsrTruncatedError):
        read_tnsr(p)


def test_dim_errors(tmp_path):
    p = tmp_path / "dims.tnsr"
    # zero extent
    header = b"TNSR" + bytes([1]) + struct.pack("<I", 2) + struct.pack("<2Q", 0, 3)
    p.write_bytes(header)
    with pytest.raises(TnsrDimError):
        read_tnsr(p)
    # mode count outside range
    header = b"TNSR" + bytes([1]) + struct.pack("<I", 9)
    p.write_bytes(header + bytes(72))
    with pytest.raises(TnsrDimError):
        read_tnsr(p)
    # extent product over the element cap; header-only file must fail on the
    # cap before any payload-size math
    header = (b"TNSR" + bytes([1]) + struct.pack("<I", 2)
              + struct.pack("<2Q", 1 << 21, 1 << 21))
    p.write_bytes(header)
    with pytest.raises(TnsrDimError):
        read_tnsr(p)


def test_write_rejects_bad_tensors(tmp_path):
    p = tmp_path / "w.tnsr"
    with pytest.raises(TnsrDataError):
        write_tnsr(p, np.array([[np.nan]]))
    with pytest.raises(TnsrDataError):
        write_tnsr(p, np.array([np.inf, 1.0]))
    with pytest.raises(TnsrDimError):
        write_tnsr(p, np.zeros(()))
    with pytest.raises(TnsrDimError):
        write_tnsr(p, np.zeros((2, 0, 3)))
    with pytest.raises(TnsrDimError):
        write_tnsr(p, np.zeros((1,) * 9))


def test_read_rejects_nonfinite_payload(tmp_path):
    p = tmp_path / "nan.tnsr"
    header = b"TNSR" + bytes([1]) + struct.pack("<I", 1) + struct.pack("<Q", 1)
    p.write_bytes(header + struct.pack("<d", float("nan")))
    with pytest.raises(TnsrDataError):
        read_tnsr(p)


def test_error_hierarchy():
    for cls in (TnsrMagicError, TnsrTruncatedError, TnsrDimError,
                TnsrDataError):
        assert issubclass(cls, TnsrError)


def test_read_returns_native_writable_array(tmp_path):
    p = tmp_path / "rw.tnsr"
    write_tnsr(p, np.ones((2, 2)))
    back = read_tnsr(p)
    back[0, 0] = 7.0  # must not be a read-only frombuffer view
    assert back[0, 0] == 7.0
