"""Ring-core algebra checks.

The three structural identities exercised here anchor everything downstream:
the unfolding identity that turns per-core least squares into matrix algebra,
the mode-product push-through, and invariance of the composed tensor under a
cyclic rotation of the core list.
"""

import tracemalloc
import warnings

import numpy as np
import pytest

from helpers import cyclic_shift, evaluate_entry
from trfuse.ring import (TRFactors, _core_solve, _pad_core, _sequential_svd, compose,
                         merge_cores, random_init, tr_svd_init)
from trfuse.tensor import mode_n_product, unfold


def _subchain(f, skip):
    """The merged cores after ``skip``, in cyclic order."""
    return merge_cores(f.cores[(skip + 1) % 3], f.cores[(skip + 2) % 3])


def _random_factors(rng):
    dims = tuple(int(v) for v in rng.integers(2, 9, size=3))
    ranks = tuple(int(v) for v in rng.integers(1, 5, size=3))
    return random_init(dims, ranks, seed=int(rng.integers(0, 2**31)))


def test_factors_validation():
    g1 = np.zeros((2, 4, 3))
    g2 = np.zeros((3, 5, 2))
    g3 = np.zeros((2, 6, 2))
    f = TRFactors((g1, g2, g3))
    assert f.ranks == (2, 3, 2)
    assert f.dims == (4, 5, 6)
    with pytest.raises(ValueError):
        TRFactors((g1, g3, g2))  # adjacency broken
    with pytest.raises(ValueError):
        TRFactors((g1, g2, np.zeros((2, 6, 3))))  # cyclic closure broken


def test_merge_cores_slice_products():
    rng = np.random.default_rng(0)
    a = rng.standard_normal((2, 4, 3))
    b = rng.standard_normal((3, 5, 6))
    m = merge_cores(a, b)
    assert m.shape == (12, 20)
    # row r * Rc + c, column j * K + k is entry (r, c) of a[:, j] @ b[:, k]
    for j in range(4):
        for k in range(5):
            prod = a[:, j, :] @ b[:, k, :]
            for r in range(2):
                for c in range(6):
                    assert abs(m[r * 6 + c, j * 5 + k] - prod[r, c]) < 1e-13
    with pytest.raises(ValueError, match="not adjacent"):
        merge_cores(b, a)


def test_subchain_shapes_and_slices():
    rng = np.random.default_rng(1)
    f = random_init((3, 4, 5), (2, 3, 4), seed=5)
    for skip in range(3):
        sc = _subchain(f, skip)
        ra = f.cores[skip].shape[2]
        rb = f.cores[skip].shape[0]
        assert sc.shape == (ra * rb, f.dims[(skip + 1) % 3] * f.dims[(skip + 2) % 3])
    idx = rng.integers(0, 4), rng.integers(0, 5)
    got = _subchain(f, 0)[:, idx[0] * 5 + idx[1]].reshape(3, 2)
    want = f.cores[1][:, idx[0], :] @ f.cores[2][:, idx[1], :]
    np.testing.assert_allclose(got, want, atol=1e-13)
    with pytest.raises(ValueError):
        merge_cores(f.cores[2], f.cores[1])


def test_compose_agrees_with_trace_everywhere():
    rng = np.random.default_rng(2)
    for _ in range(4):
        f = _random_factors(rng)
        x = compose(f)
        for idx in np.ndindex(*f.dims):
            assert abs(x[idx] - evaluate_entry(f, idx)) < 1e-11


def test_compose_allocates_only_the_cube():
    f = random_init((64, 48, 40), (2, 3, 2), seed=8)
    compose(f)  # warm up any lazily allocated numpy state
    tracemalloc.start()
    try:
        x = compose(f)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert x.shape == (64, 48, 40) and x.flags.c_contiguous
    assert peak <= 1.25 * x.nbytes, f"peak {peak / x.nbytes:.2f}x the cube"


def _lstsq_core(smat, target):
    return np.linalg.lstsq(smat, target.T, rcond=None)[0].T


def _assert_core_solve_matches_lstsq(f, t):
    for n in range(3):
        smat = _subchain(f, n).T
        target = unfold(t, n)
        want = _lstsq_core(smat, target)
        got = _core_solve(smat, target)
        assert got.shape == want.shape
        assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want), n


def test_core_solve_matches_lstsq_full_rank():
    rng = np.random.default_rng(9)
    f = random_init((6, 7, 5), (2, 3, 2), seed=3)
    _assert_core_solve_matches_lstsq(f, rng.standard_normal((6, 7, 5)))


def test_core_solve_matches_lstsq_rank_deficient():
    # core 1 zero-padded to a larger last rank, as tr_svd_init pads a
    # clamped core, leaves zero rows in the matrix of the subchain it
    # ends (the one that skips core 2)
    rng = np.random.default_rng(10)
    small = random_init((6, 7, 5), (2, 2, 2), seed=4)
    f = TRFactors((small.cores[0], _pad_core(small.cores[1], (2, 7, 3)),
                   rng.standard_normal((3, 5, 2))))
    sv = np.linalg.svd(_subchain(f, 2), compute_uv=False)
    assert sv[-1] <= 1e-12 * sv[0], "subchain matrix should be rank-deficient"
    _assert_core_solve_matches_lstsq(f, rng.standard_normal((6, 7, 5)))


def test_core_solve_of_zero_subchain_is_zero():
    rng = np.random.default_rng(11)
    smat = np.zeros((30, 6))
    target = rng.standard_normal((4, 30))
    got = _core_solve(smat, target)
    np.testing.assert_array_equal(got, np.zeros((4, 6)))
    np.testing.assert_array_equal(got, _lstsq_core(smat, target))


def test_unfolding_identity_all_modes():
    # the mode-n unfolding of the composition factors as the skipped core's
    # mode-1 unfolding times the subchain matrix of the other two
    rng = np.random.default_rng(3)
    for _ in range(25):
        f = _random_factors(rng)
        x = compose(f)
        scale = max(np.linalg.norm(x), 1.0)
        for n in range(3):
            lhs = unfold(x, n)
            rhs = unfold(f.cores[n], 1) @ _subchain(f, n)
            assert np.linalg.norm(lhs - rhs) < 1e-10 * scale


def test_mode_product_pushes_through_composition():
    rng = np.random.default_rng(4)
    for _ in range(25):
        f = _random_factors(rng)
        x = compose(f)
        n = int(rng.integers(0, 3))
        u = rng.standard_normal((int(rng.integers(2, 7)), f.dims[n]))
        lifted = f.replace_core(n, mode_n_product(f.cores[n], u, 1))
        want = mode_n_product(x, u, n)
        got = compose(lifted)
        assert np.linalg.norm(got - want) < 1e-10 * max(np.linalg.norm(want), 1.0)


def test_cyclic_rotation_of_cores_shifts_composition():
    rng = np.random.default_rng(5)
    for _ in range(25):
        f = _random_factors(rng)
        x = compose(f)
        rotated = TRFactors((f.cores[1], f.cores[2], f.cores[0]))
        want = cyclic_shift(x, 1)
        got = compose(rotated)
        assert np.linalg.norm(got - want) < 1e-10 * max(np.linalg.norm(x), 1.0)


def test_random_init_determinism_and_shapes():
    a = random_init((4, 4, 3), (2, 5, 2), seed=9)
    b = random_init((4, 4, 3), (2, 5, 2), seed=9)
    c = random_init((4, 4, 3), (2, 5, 2), seed=10)
    for ca, cb in zip(a.cores, b.cores):
        np.testing.assert_array_equal(ca, cb)
    assert any(np.any(ca != cc) for ca, cc in zip(a.cores, c.cores))
    assert a.ranks == (2, 5, 2)
    assert a.dims == (4, 4, 3)


def test_tr_svd_init_is_bounded_on_exact_rank_tensors(monkeypatch):
    # an exact fit is attainable here, yet the init neither restarts from
    # random cores nor composes the tensor to measure its fit
    def forbidden(*args, **kwargs):
        raise AssertionError("tr_svd_init restarted or composed")

    monkeypatch.setattr("trfuse.ring.random_init", forbidden)
    monkeypatch.setattr("trfuse.ring.compose", forbidden)
    for seed in range(6):
        t = compose(random_init((7, 8, 5), (2, 3, 2), seed=seed))
        f = tr_svd_init(t, (2, 3, 2))
        assert f.ranks == (2, 3, 2)
        assert all(np.all(np.isfinite(c)) for c in f.cores)
        err = np.linalg.norm(compose(f) - t)
        svd_err = np.linalg.norm(compose(_sequential_svd(t, (2, 3, 2))) - t)
        assert err <= svd_err * (1 + 1e-12), f"seed {seed}"


def test_first_split_takes_no_svd_of_the_full_matricization(monkeypatch):
    shapes = []
    svd = np.linalg.svd

    def recording_svd(a, *args, **kwargs):
        shapes.append(np.shape(a))
        return svd(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", recording_svd)
    t = np.random.default_rng(8).standard_normal((12, 40, 40))
    _sequential_svd(t, (2, 3, 2))
    # both splits still take an SVD, neither of the 12 x 1600 mode-0 matricization
    assert len(shapes) == 2
    assert all(40 * 40 not in shape for shape in shapes), shapes


def test_tr_svd_zero_tensor_gives_zero_cores():
    f = tr_svd_init(np.zeros((4, 5, 6)), (2, 2, 2))
    assert all(np.all(c == 0) for c in f.cores)
    np.testing.assert_array_equal(compose(f), np.zeros((4, 5, 6)))
    # the third rank clamps to the second split's (2 x 1) matricization, and
    # the cores come back padded to the requested ranks
    with pytest.warns(UserWarning, match=r"clamped to \(1, 1, 1\)"):
        f = tr_svd_init(np.zeros((3, 2, 1)), (1, 1, 3))
    assert [c.shape for c in f.cores] == [(1, 3, 1), (1, 2, 3), (3, 1, 1)]
    assert all(np.all(c == 0) for c in f.cores)


def test_tr_svd_rank_one_constant():
    t = np.full((5, 6, 7), 3.25)
    f = tr_svd_init(t, (1, 1, 1))
    err = np.linalg.norm(compose(f) - t) / np.linalg.norm(t)
    assert err < 1e-10


def test_tr_svd_clamps_oversized_ranks_with_warning():
    rng = np.random.default_rng(6)
    t = rng.standard_normal((3, 4, 5))
    with warnings.catch_warnings(record=True) as rec:
        warnings.simplefilter("always")
        f = tr_svd_init(t, (4, 3, 2))
    # R1·R2 clamps to I1 = 3 with R1 cut to 3 and R2 to 1; R3 = 2 fits
    assert [str(w.message) for w in rec] == [
        "ring ranks clamped to (3, 1, 2) for extents (3, 4, 5)"]
    assert f.ranks == (4, 3, 2)
    g1, g2, g3 = f.cores
    assert not g1[3:].any() and not g1[:, :, 1:].any()
    assert not g2[1:].any()
    assert not g3[:, :, 3:].any()
    assert np.all(np.isfinite(compose(f)))


def test_tr_svd_fit_never_worse_than_plain_truncation_bound():
    # on a non-exact input the returned fit is finite and bounded by 1
    rng = np.random.default_rng(7)
    t = rng.standard_normal((10, 9, 8))
    f = tr_svd_init(t, (2, 3, 2))
    err = np.linalg.norm(compose(f) - t) / np.linalg.norm(t)
    assert np.isfinite(err) and err < 1.0
