"""Unfolding/folding oracles by direct index enumeration.

The one matricization puts the unfolded mode on the rows and the other modes
on the columns in cyclic order after it, the last one fastest (C style), so
every test here recomputes column positions from scratch and compares.
"""

import numpy as np
import pytest

from helpers import cyclic_shift
from trfuse.tensor import fold, frobenius_norm, l1_norm, mode_n_product, unfold


def _column_of(idx, dims, rest):
    col = 0
    for m in rest:
        col = col * dims[m] + idx[m]
    return col


def test_unfold_cyclic_matches_enumeration():
    rng = np.random.default_rng(1)
    for _ in range(5):
        for ndim in (2, 3, 4):
            dims = tuple(int(v) for v in rng.integers(2, 5, size=ndim))
            t = rng.standard_normal(dims)
            for mode in range(ndim):
                rest = [(mode + k) % ndim for k in range(1, ndim)]
                m = unfold(t, mode)
                assert m.shape == (dims[mode], t.size // dims[mode])
                for idx in np.ndindex(*dims):
                    assert m[idx[mode], _column_of(idx, dims, rest)] == t[idx]


def test_unfold_mode_0_is_a_view():
    t = np.random.default_rng(2).standard_normal((4, 3, 5))
    assert np.shares_memory(unfold(t, 0), t)


def test_fold_inverts_unfold():
    rng = np.random.default_rng(3)
    for _ in range(10):
        ndim = int(rng.integers(2, 5))
        dims = tuple(rng.integers(2, 5, size=ndim))
        t = rng.standard_normal(dims)
        for mode in range(ndim):
            np.testing.assert_array_equal(fold(unfold(t, mode), mode, dims), t)


def test_fold_rejects_wrong_shape():
    with pytest.raises(ValueError):
        fold(np.zeros((3, 5)), 0, (3, 4, 2))


def test_unfold_rejects_bad_mode():
    t = np.zeros((2, 3, 4))
    with pytest.raises(ValueError):
        unfold(t, 3)
    with pytest.raises(ValueError):
        unfold(t, -1)


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
    # unfold(t x_n U, n) == U @ unfold(t, n)
    rng = np.random.default_rng(5)
    t = rng.standard_normal((4, 5, 3))
    for mode in range(3):
        u = rng.standard_normal((7, t.shape[mode]))
        prod = mode_n_product(t, u, mode)
        np.testing.assert_allclose(unfold(prod, mode), u @ unfold(t, mode),
                                   atol=1e-12)


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
