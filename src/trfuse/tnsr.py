"""TNSR binary tensor container.

Layout, all little endian: 4-byte magic ``TNSR``, 1-byte format version,
uint32 mode count, one uint64 extent per mode, then the float64 payload in
row-major (last index fastest) order. A 1x1x1 tensor is exactly
4 + 1 + 4 + 3*8 + 8 = 41 bytes.
"""

from __future__ import annotations

import math
import struct
from pathlib import Path

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
    try:
        data = Path(path).read_bytes()
    except OSError as exc:
        raise TnsrError(f"cannot read {path}: {exc}") from exc
    if len(data) < 4:
        raise TnsrTruncatedError(f"{len(data)} bytes is too short for the magic")
    if data[:4] != MAGIC:
        raise TnsrMagicError(f"bad magic {data[:4]!r}")
    if len(data) < 9:
        raise TnsrTruncatedError("header cut off before the mode count")
    if data[4] != VERSION:
        raise TnsrMagicError(f"unsupported format version {data[4]}")
    ndim = struct.unpack_from("<I", data, 5)[0]
    if not 1 <= ndim <= MAX_NDIM:
        raise TnsrDimError(f"{ndim} modes outside supported range 1..{MAX_NDIM}")
    offset = 9 + 8 * ndim
    if len(data) < offset:
        raise TnsrTruncatedError("header cut off inside the extents")
    extents = struct.unpack_from(f"<{ndim}Q", data, 9)
    if any(e == 0 for e in extents):
        raise TnsrDimError(f"zero extent in {extents}")
    count = math.prod(extents)
    if count > MAX_ELEMENTS:
        raise TnsrDimError(f"extent product {count} overflows the element cap")
    expected = offset + 8 * count
    if len(data) < expected:
        raise TnsrTruncatedError(f"payload truncated: {len(data)} bytes of "
                                 f"{expected} expected")
    if len(data) > expected:
        raise TnsrTruncatedError(f"trailing data: {len(data)} bytes, "
                                 f"{expected} expected")
    arr = np.frombuffer(data, dtype="<f8", count=count, offset=offset)
    arr = arr.reshape(extents).astype(float, copy=True)
    if not np.all(np.isfinite(arr)):
        raise TnsrDataError("payload holds non-finite values")
    return arr
