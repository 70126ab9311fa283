"""Dense tensor algebra: the ring matricization, mode products, norms.

Tensors are plain float64 numpy arrays with 0-based mode indices. There is
one matricization, :func:`unfold`: rows are the unfolded mode n, and columns
run over the other modes in cyclic order after n (n+1, n+2, ...), the last
one fastest. It is ``transpose(t, (n, n+1, ...)).reshape(I_n, -1)``, a view
for n = 0, and :func:`fold` inverts it given the original extents.

It is the layout of the tensor-ring unfolding identity (Zhao et al., "Tensor
Ring Decomposition", arXiv:1606.05535): for three ring cores,
``unfold(X, n) == unfold(G_n, 1) @ merge_cores(G_{n+1}, G_{n+2})``.
"""

from __future__ import annotations

import math

import numpy as np


def _check_mode(ndim: int, mode: int) -> None:
    if not 0 <= mode < ndim:
        raise ValueError(f"mode {mode} out of range for a {ndim}-way tensor")


def _cyclic_order(ndim: int, mode: int) -> list[int]:
    return [(mode + k) % ndim for k in range(ndim)]


def unfold(t: np.ndarray, mode: int) -> np.ndarray:
    """Matricize ``t`` along ``mode``, columns in cyclic mode order after it."""
    t = np.asarray(t)
    _check_mode(t.ndim, mode)
    return np.transpose(t, _cyclic_order(t.ndim, mode)).reshape(t.shape[mode], -1)


def fold(m: np.ndarray, mode: int, dims: tuple[int, ...]) -> np.ndarray:
    """Invert :func:`unfold`: rebuild the C-contiguous tensor with extents ``dims``.

    For mode 0 this is a reshape, so it may share memory with ``m``.
    """
    m = np.asarray(m)
    dims = tuple(int(d) for d in dims)
    _check_mode(len(dims), mode)
    ndim = len(dims)
    perm = _cyclic_order(ndim, mode)
    expected = (dims[mode], math.prod(dims[p] for p in perm[1:]))
    if m.shape != expected:
        raise ValueError(f"matrix shape {m.shape} does not match extents {dims} "
                         f"for mode {mode} (expected {expected})")
    t_perm = m.reshape([dims[p] for p in perm])
    # the inverse of a cyclic shift by mode is the shift by -mode
    return np.ascontiguousarray(np.transpose(t_perm, _cyclic_order(ndim, -mode % ndim)))


def mode_n_product(t: np.ndarray, m: np.ndarray, mode: int) -> np.ndarray:
    """Contract matrix ``m`` (J x I_mode) with ``t`` along ``mode``."""
    t = np.asarray(t)
    m = np.asarray(m)
    _check_mode(t.ndim, mode)
    if m.ndim != 2 or m.shape[1] != t.shape[mode]:
        raise ValueError(f"matrix {m.shape} incompatible with mode {mode} "
                         f"extent {t.shape[mode]}")
    out = np.tensordot(m, t, axes=(1, mode))
    return np.ascontiguousarray(np.moveaxis(out, 0, mode))


def frobenius_norm(t: np.ndarray) -> float:
    return float(np.linalg.norm(np.asarray(t).ravel()))


def l1_norm(t: np.ndarray) -> float:
    return float(np.sum(np.abs(t)))
