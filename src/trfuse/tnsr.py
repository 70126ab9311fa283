"""TNSR binary tensor container.

Layout, all little endian: 4-byte magic ``TNSR``, 1-byte format version,
uint32 mode count, one uint64 extent per mode, then the float64 payload in
row-major (last index fastest) order. A 1x1x1 tensor is exactly
4 + 1 + 4 + 3*8 + 8 = 41 bytes.
"""

from __future__ import annotations

import contextlib
import math
import os
import struct
from collections.abc import Iterable

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
    """Write ``t`` as a TNSR file: :func:`write_tnsr_slabs` with one slab."""
    t = np.asarray(t)
    write_tnsr_slabs(path, t.shape, (t,))


def write_tnsr_slabs(path, shape: tuple[int, ...], slabs: Iterable[np.ndarray]
                     ) -> None:
    """Write a TNSR file of extents ``shape`` from its payload in slabs.

    ``slabs`` yields consecutive row-major pieces of the tensor, each written
    as it comes, so the whole tensor need never be held; a generator may
    reuse one buffer for every slab. Each slab is checked for non-finite
    values before it is written. The file is written under a temporary name
    beside ``path`` and renamed onto it once complete, so a refused or
    failed write leaves no partial file, and an older file at ``path`` stays
    as it was.
    """
    shape = tuple(int(e) for e in shape)
    if not 1 <= len(shape) <= MAX_NDIM:
        raise TnsrDimError(f"{len(shape)} modes outside supported range 1..{MAX_NDIM}")
    if 0 in shape:
        raise TnsrDimError("zero extent not representable")
    expected = 8 * math.prod(shape)
    path = os.fspath(path)
    head, name = os.path.split(path)
    tmp = os.path.join(head, f".{name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "wb") as fh:
            fh.write(MAGIC + bytes([VERSION]) + struct.pack(f"<I{len(shape)}Q",
                                                            len(shape), *shape))
            written = 0
            for slab in slabs:
                slab = np.ascontiguousarray(slab, dtype="<f8")
                if not np.all(np.isfinite(slab)):
                    raise TnsrDataError("refusing to write non-finite values")
                # streamed from the slab's buffer: no payload-sized copies
                fh.write(slab.data)
                written += slab.nbytes
        if written != expected:
            raise TnsrDimError(f"slabs hold {written} payload bytes, extents "
                               f"{shape} need {expected}")
        os.replace(tmp, path)
    except OSError as exc:
        raise TnsrError(f"cannot write {path}: {exc}") from exc
    finally:
        # gone once renamed; otherwise the partial file a failure left
        with contextlib.suppress(OSError):
            os.unlink(tmp)


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
