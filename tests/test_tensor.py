"""Unfolding/folding oracles by direct index enumeration.

The two matricization conventions only differ in how the remaining modes are
ordered along the columns: natural order vs cyclic order starting after the
unfolded mode. Both keep the earliest listed mode fastest (Fortran style), so
every test here recomputes column positions from scratch and compares.
"""

import numpy as np
import pytest

from helpers import cyclic_shift
from trfuse.tensor import (fold, frobenius_norm, l1_norm, mode_n_product,
                           rel_change, unfold, unfold_cyclic, unfold_first)


def _column_of(idx, dims, rest):
    col = 0
    stride = 1
    for m in rest:
        col += idx[m] * stride
        stride *= dims[m]
    return col


def _enumerate_check(t, mode, convention):
    dims = t.shape
    ndim = t.ndim
    if convention == "first":
        rest = [m for m in range(ndim) if m != mode]
    else:
        rest = [(mode + k) % ndim for k in range(1, ndim)]
    m = unfold(t, mode, convention)
    assert m.shape == (dims[mode], int(np.prod([dims[r] for r in rest])))
    for idx in np.ndindex(*dims):
        col = _column_of(idx, dims, rest)
        assert m[idx[mode], col] == t[idx]


def test_unfold_first_matches_enumeration():
    rng = np.random.default_rng(0)
    for _ in range(5):
        dims = tuple(rng.integers(2, 5, size=3))
        t = rng.standard_normal(dims)
        for mode in range(3):
            _enumerate_check(t, mode, "first")


def test_unfold_cyclic_matches_enumeration():
    rng = np.random.default_rng(1)
    for _ in range(5):
        dims = tuple(rng.integers(2, 5, size=3))
        t = rng.standard_normal(dims)
        for mode in range(3):
            _enumerate_check(t, mode, "cyclic")


def test_unfold_conventions_agree_on_mode_0_of_2way():
    # with only one remaining mode the orderings coincide
    rng = np.random.default_rng(2)
    t = rng.standard_normal((4, 7))
    np.testing.assert_array_equal(unfold(t, 0, "first"), unfold(t, 0, "cyclic"))


def test_fold_inverts_unfold_both_conventions():
    rng = np.random.default_rng(3)
    for _ in range(10):
        ndim = int(rng.integers(2, 5))
        dims = tuple(rng.integers(2, 5, size=ndim))
        t = rng.standard_normal(dims)
        for mode in range(ndim):
            for conv in ("first", "cyclic"):
                m = unfold(t, mode, conv)
                np.testing.assert_array_equal(fold(m, mode, dims, conv), t)


def test_fold_rejects_wrong_shape():
    with pytest.raises(ValueError):
        fold(np.zeros((3, 5)), 0, (3, 4, 2), "first")


def test_unfold_rejects_bad_mode_and_convention():
    t = np.zeros((2, 3, 4))
    with pytest.raises(ValueError):
        unfold(t, 3, "first")
    with pytest.raises(ValueError):
        unfold(t, 0, "rowmajor")


def test_mode_product_triple_loop_oracle():
    rng = np.random.default_rng(4)
    t = rng.standard_normal((3, 4, 5))
    for mode in range(3):
        u = rng.standard_normal((6, t.shape[mode]))
        got = mode_n_product(t, u, mode)
        want_dims = list(t.shape)
        want_dims[mode] = 6
        want = np.zeros(want_dims)
        for idx in np.ndindex(*want_dims):
            s = 0.0
            for k in range(t.shape[mode]):
                src = list(idx)
                src[mode] = k
                s += u[idx[mode], k] * t[tuple(src)]
            want[idx] = s
        np.testing.assert_allclose(got, want, atol=1e-12)


def test_mode_product_unfolding_identity():
    # unfold(t x_n U, n) == U @ unfold(t, n) under either convention
    rng = np.random.default_rng(5)
    t = rng.standard_normal((4, 5, 3))
    for mode in range(3):
        u = rng.standard_normal((7, t.shape[mode]))
        prod = mode_n_product(t, u, mode)
        for conv in ("first", "cyclic"):
            np.testing.assert_allclose(unfold(prod, mode, conv),
                                       u @ unfold(t, mode, conv), atol=1e-12)


def test_cyclic_shift_entry_mapping():
    rng = np.random.default_rng(6)
    t = rng.standard_normal((3, 4, 5))
    s = cyclic_shift(t, 1)
    assert s.shape == (4, 5, 3)
    for i, j, k in np.ndindex(3, 4, 5):
        assert s[j, k, i] == t[i, j, k]


def test_cyclic_shift_full_rotation_is_identity():
    rng = np.random.default_rng(7)
    t = rng.standard_normal((2, 5, 4))
    np.testing.assert_array_equal(cyclic_shift(t, 3), t)
    np.testing.assert_array_equal(cyclic_shift(cyclic_shift(t, 1), 2), t)


def test_norms_against_manual():
    rng = np.random.default_rng(10)
    t = rng.standard_normal((4, 3, 2))
    assert abs(frobenius_norm(t) - np.sqrt(np.sum(t * t))) < 1e-12
    assert abs(l1_norm(t) - np.sum(np.abs(t))) < 1e-12


def test_rel_change_definition_and_zero_reference():
    a = np.ones((2, 2))
    b = np.zeros((2, 2))
    # denominator is the first argument
    assert abs(rel_change(a, b) - 1.0) < 1e-15
    with pytest.raises(ValueError):
        rel_change(b, a)
