"""Dense tensor algebra: matricizations, mode products, norms.

Tensors are plain float64 numpy arrays with 0-based mode indices. Two
matricization conventions appear throughout:

* ``unfold_first``: rows are the unfolded mode; columns run over the remaining
  modes in natural order, earliest mode varying fastest.
* ``unfold_cyclic``: rows are the unfolded mode; columns run over the remaining
  modes in cyclic order starting right after the unfolded mode, with that next
  mode varying fastest.

Both are inverted by :func:`fold` given the original extents.
"""

from __future__ import annotations

import numpy as np


def _check_mode(ndim: int, mode: int) -> None:
    if not 0 <= mode < ndim:
        raise ValueError(f"mode {mode} out of range for a {ndim}-way tensor")


def _column_modes(ndim: int, mode: int, convention: str) -> list[int]:
    if convention == "first":
        return [ax for ax in range(ndim) if ax != mode]
    if convention == "cyclic":
        return [(mode + k) % ndim for k in range(1, ndim)]
    raise ValueError(f"unknown unfolding convention {convention!r}")


def unfold(t: np.ndarray, mode: int, convention: str = "first") -> np.ndarray:
    """Matricize ``t`` along ``mode`` under the given column convention.

    The first listed column mode varies fastest, so the result equals a
    Fortran-order reshape of the suitably permuted tensor.
    """
    t = np.asarray(t)
    _check_mode(t.ndim, mode)
    perm = [mode] + _column_modes(t.ndim, mode, convention)
    return np.transpose(t, perm).reshape(t.shape[mode], -1, order="F")


def unfold_first(t: np.ndarray, mode: int) -> np.ndarray:
    return unfold(t, mode, "first")


def unfold_cyclic(t: np.ndarray, mode: int) -> np.ndarray:
    return unfold(t, mode, "cyclic")


def fold(m: np.ndarray, mode: int, dims: tuple[int, ...],
         convention: str = "first") -> np.ndarray:
    """Invert :func:`unfold`: rebuild the tensor with extents ``dims``."""
    m = np.asarray(m)
    dims = tuple(int(d) for d in dims)
    _check_mode(len(dims), mode)
    perm = [mode] + _column_modes(len(dims), mode, convention)
    expected = (dims[mode], int(np.prod([dims[p] for p in perm[1:]], dtype=np.int64)))
    if m.shape != expected:
        raise ValueError(f"matrix shape {m.shape} does not match extents {dims} "
                         f"for mode {mode} (expected {expected})")
    t_perm = m.reshape([dims[p] for p in perm], order="F")
    return np.ascontiguousarray(np.transpose(t_perm, np.argsort(perm)))


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


def rel_change(a: np.ndarray, b: np.ndarray) -> float:
    """||a - b||_F / ||a||_F, raising when the reference ``a`` is zero."""
    denom = frobenius_norm(a)
    if denom == 0.0:
        raise ValueError("relative change undefined for a zero reference tensor")
    return frobenius_norm(np.asarray(a) - np.asarray(b)) / denom
