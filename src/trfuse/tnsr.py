"""TNSR binary tensor container.

Layout, all little endian: 4-byte magic ``TNSR``, 1-byte format version,
uint32 mode count, one uint64 extent per mode, then the float64 payload in
row-major (last index fastest) order. A 1x1x1 tensor is exactly
4 + 1 + 4 + 3*8 + 8 = 41 bytes.
"""

from __future__ import annotations

import math
import os
import struct

import numpy as np

MAGIC = b"TNSR"
VERSION = 1
MAX_NDIM = 8
MAX_ELEMENTS = 1 << 40


class TnsrError(Exception):
    """Base class for TNSR container failures."""


class TnsrMagicError(TnsrError):
    """Wrong magic bytes or unsupported format version."""


class TnsrTruncatedError(TnsrError):
    """File shorter (or longer) than its header promises."""


class TnsrDimError(TnsrError):
    """Mode count or extents outside the supported range."""


class TnsrDataError(TnsrError):
    """Payload holds non-finite values."""


def write_tnsr(path, t: np.ndarray) -> None:
    t = np.asarray(t, dtype="<f8")
    if not 1 <= t.ndim <= MAX_NDIM:
        raise TnsrDimError(f"{t.ndim} modes outside supported range 1..{MAX_NDIM}")
    if t.size == 0:
        raise TnsrDimError("zero extent not representable")
    if not np.all(np.isfinite(t)):
        raise TnsrDataError("refusing to write non-finite values")
    header = MAGIC + bytes([VERSION]) + struct.pack("<I", t.ndim)
    header += struct.pack(f"<{t.ndim}Q", *t.shape)
    try:
        # streamed from the array's buffer: no payload-sized copies
        with open(path, "wb") as fh:
            fh.write(header)
            fh.write(np.ascontiguousarray(t).data)
    except OSError as exc:
        raise TnsrError(f"cannot write {path}: {exc}") from exc


def read_tnsr(path) -> np.ndarray:
    """Read a TNSR file; its payload is read straight into the returned array."""
    try:
        with open(path, "rb") as fh:
            return _read_open(fh, os.fstat(fh.fileno()).st_size)
    except OSError as exc:
        raise TnsrError(f"cannot read {path}: {exc}") from exc


def _read_open(fh, size: int) -> np.ndarray:
    if size < 4:
        raise TnsrTruncatedError(f"{size} bytes is too short for the magic")
    head = fh.read(9)
    if head[:4] != MAGIC:
        raise TnsrMagicError(f"bad magic {head[:4]!r}")
    if size < 9:
        raise TnsrTruncatedError("header cut off before the mode count")
    if head[4] != VERSION:
        raise TnsrMagicError(f"unsupported format version {head[4]}")
    ndim = struct.unpack_from("<I", head, 5)[0]
    if not 1 <= ndim <= MAX_NDIM:
        raise TnsrDimError(f"{ndim} modes outside supported range 1..{MAX_NDIM}")
    offset = 9 + 8 * ndim
    if size < offset:
        raise TnsrTruncatedError("header cut off inside the extents")
    extents = struct.unpack(f"<{ndim}Q", fh.read(8 * ndim))
    if any(e == 0 for e in extents):
        raise TnsrDimError(f"zero extent in {extents}")
    count = math.prod(extents)
    if count > MAX_ELEMENTS:
        raise TnsrDimError(f"extent product {count} overflows the element cap")
    expected = offset + 8 * count
    if size < expected:
        raise TnsrTruncatedError(f"payload truncated: {size} bytes of "
                                 f"{expected} expected")
    if size > expected:
        raise TnsrTruncatedError(f"trailing data: {size} bytes, "
                                 f"{expected} expected")
    arr = np.empty(extents, dtype="<f8")
    got = fh.readinto(arr)
    if got != arr.nbytes:
        raise TnsrTruncatedError(f"payload truncated: {offset + got} bytes of "
                                 f"{expected} expected")
    arr = arr.astype(float, copy=False)
    if not np.all(np.isfinite(arr)):
        raise TnsrDataError("payload holds non-finite values")
    return arr
