"""Solver building blocks and short end-to-end runs on small fixtures.

Quadratic pieces are checked against independent references: CG against a
dense direct solve, the block operator against symmetry/coercivity probes,
and the whole block step against the property that exact factors are a fixed
point when the nonsmooth terms are off.
"""

import warnings

import numpy as np
import pytest

from trfuse.degradation import DegradationModel, add_noise, degrade
from trfuse.ring import TRFactors, compose, random_init
from trfuse.solver import (FusionResult, SolverConfig, SolverDivergenceError,
                           _block_rhs_data, _subchain_factors,
                           build_difference_matrix, build_sylvester_operator,
                           cg_solve, initial_factors, objective, solve,
                           update_block)
from trfuse.prox import ltnn_value
from trfuse.tensor import unfold_cyclic


def _small_problem(seed=21, noisy=False):
    f = random_init((8, 8, 6), (2, 3, 2), seed=seed)
    x = compose(f)
    model = DegradationModel.build((8, 8, 6), factor=2, kernel_size=3,
                                   sigma=1.0, out_bands=3)
    y, z = degrade(x, model)
    if noisy:
        y = add_noise(y, 25.0, rng=5)
        z = add_noise(z, 30.0, rng=6)
    return f, x, model, y, z


def test_difference_matrix_rows():
    d = build_difference_matrix(3)
    np.testing.assert_array_equal(d, [[-1, 1, 0], [0, -1, 1], [0, 0, 0]])
    with pytest.raises(ValueError):
        build_difference_matrix(1)


def test_cg_matches_direct_solve():
    rng = np.random.default_rng(0)
    for _ in range(5):
        n = int(rng.integers(4, 12))
        a = rng.standard_normal((n, n))
        spd = a @ a.T + n * np.eye(n)
        rhs = rng.standard_normal((n, 3))
        x, iters, relres = cg_solve(lambda v: spd @ v, rhs, tol=1e-12,
                                    max_iter=500)
        want = np.linalg.solve(spd, rhs)
        assert np.linalg.norm(x - want) < 1e-8 * np.linalg.norm(want)
        assert relres <= 1e-12


def test_cg_zero_rhs_and_warm_start():
    spd = np.diag([1.0, 2.0, 3.0])
    x, iters, relres = cg_solve(lambda v: spd @ v, np.zeros((3, 2)))
    np.testing.assert_array_equal(x, np.zeros((3, 2)))
    assert iters == 0
    rhs = np.array([[1.0], [4.0], [9.0]])
    exact = np.linalg.solve(spd, rhs)
    x, iters, _ = cg_solve(lambda v: spd @ v, rhs, tol=1e-10, x0=exact)
    assert iters == 0
    np.testing.assert_allclose(x, exact, atol=1e-12)


def test_cg_raises_on_nonfinite_residual():
    def bad(v):
        return np.full_like(v, np.nan) if np.any(v != 0) else v

    rhs = np.ones((3, 1))
    with pytest.raises(SolverDivergenceError):
        cg_solve(bad, rhs)


def test_sylvester_operator_symmetric_and_coercive():
    f, x, model, y, z = _small_problem()
    cfg = SolverConfig(ranks=(2, 3, 2))
    rng = np.random.default_rng(1)
    for n in range(3):
        op = build_sylvester_operator(n, list(f.cores), model, cfg)
        # the operator acts on the core's extent-first mode-1 unfolding
        shape = (f.cores[n].shape[1], f.cores[n].shape[0] * f.cores[n].shape[2])
        for _ in range(5):
            a = rng.standard_normal(shape)
            b = rng.standard_normal(shape)
            lab = float(np.sum(op.apply(a) * b))
            alb = float(np.sum(a * op.apply(b)))
            assert abs(lab - alb) < 1e-8 * max(abs(lab), 1.0)
            quad = float(np.sum(op.apply(a) * a))
            floor = (cfg.eta + cfg.mu) * float(np.sum(a * a))
            assert quad >= floor - 1e-8 * floor


def test_objective_at_zero_cores():
    f, x, model, y, z = _small_problem()
    cfg = SolverConfig(ranks=(2, 3, 2), lam=0.7, alpha=1e-3, beta=0.4)
    zeros = TRFactors(tuple(np.zeros_like(c) for c in f.cores))
    got = objective(zeros, y, z, model, cfg)
    want = 0.5 * np.sum(y * y) + 0.5 * cfg.lam * np.sum(z * z)
    for c in zeros.cores:
        want += cfg.beta * ltnn_value(c, cfg.eps_log)
    assert abs(got - want) < 1e-10 * abs(want)


def test_objective_beta_scales_gate_each_core():
    f, x, model, y, z = _small_problem()
    base = SolverConfig(ranks=(2, 3, 2), alpha=0.0, beta=0.5,
                        beta_scales=(1.0, 1.0, 1.0))
    off = SolverConfig(ranks=(2, 3, 2), alpha=0.0, beta=0.5,
                       beta_scales=(1.0, 0.0, 1.0))
    diff = objective(f, y, z, model, base) - objective(f, y, z, model, off)
    want = 0.5 * ltnn_value(f.cores[1], base.eps_log)
    assert abs(diff - want) < 1e-10 * max(abs(want), 1.0)


def test_exact_factors_are_a_fixed_point_without_nonsmooth_terms():
    f, x, model, y, z = _small_problem()
    cfg = SolverConfig(ranks=(2, 3, 2), alpha=0.0, beta=0.0, eta=1.0, mu=1e-3,
                       k_max=3, inner_max=50, inner_tol=1e-12, cg_tol=1e-10,
                       cg_max=2000, stop_tol=1e-12)
    res = solve(y, z, model, cfg, init_factors_override=f)
    dev = np.linalg.norm(res.fused - x) / np.linalg.norm(x)
    assert dev < 1e-8, f"deviation {dev}"


def test_huge_anchor_weight_pins_the_block_update():
    f, x, model, y, z = _small_problem()
    cfg = SolverConfig(ranks=(2, 3, 2), eta=1e9, mu=0.1, inner_max=1,
                       cg_tol=1e-12, cg_max=2000)
    cores = list(random_init((8, 8, 6), (2, 3, 2), seed=3).cores)
    before = [c.copy() for c in cores]
    cg_log = []
    for n in range(3):
        assert update_block(n, cores, y, z, model, cfg, cg_log) == 1
        move = (np.linalg.norm(cores[n] - before[n])
                / np.linalg.norm(before[n]))
        assert move < 1e-6, f"block {n} moved {move}"
    assert len(cg_log) == 3


def test_block_rhs_matches_left_to_right_products():
    f, x, model, y, z = _small_problem(noisy=True)
    cores = list(random_init((8, 8, 6), (2, 3, 2), seed=4).cores)
    lam = 0.7
    for n in range(3):
        py, pz = _subchain_factors(n, cores, model)
        if n == 0:
            want = (model.u1.T @ unfold_cyclic(y, 0) @ py.T
                    + lam * (unfold_cyclic(z, 0) @ pz.T))
        elif n == 1:
            want = (model.u2.T @ unfold_cyclic(y, 1) @ py.T
                    + lam * (unfold_cyclic(z, 1) @ pz.T))
        else:
            want = (unfold_cyclic(y, 2) @ py.T
                    + lam * (model.u3.T @ unfold_cyclic(z, 2) @ pz.T))
        got = _block_rhs_data(n, y, z, model, lam, py, pz)
        assert got.shape == want.shape
        assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want), n


def test_objective_decreases_on_noisy_problem():
    f, x, model, y, z = _small_problem(noisy=True)
    cfg = SolverConfig(ranks=(2, 3, 2), k_max=15)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # init clamps ranks on the 4x4x6 cube
        res = solve(y, z, model, cfg)
    objs = [h.objective for h in res.history]
    assert len(objs) >= 2
    for a, b in zip(objs, objs[1:]):
        assert b <= a * (1.0 + 1e-8), f"objective rose {a} -> {b}"


def test_k_max_zero_returns_composed_initialization():
    f, x, model, y, z = _small_problem()
    cfg = SolverConfig(ranks=(2, 2, 2), k_max=0)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        res = solve(y, z, model, cfg)
        want = compose(initial_factors(y, z, cfg))
    assert res.history == []
    np.testing.assert_array_equal(res.fused, want)


def test_solve_is_deterministic():
    f, x, model, y, z = _small_problem(noisy=True)
    cfg = SolverConfig(ranks=(2, 2, 2), k_max=4)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        a = solve(y, z, model, cfg)
        b = solve(y, z, model, cfg)
    np.testing.assert_array_equal(a.fused, b.fused)
    assert [h.objective for h in a.history] == [h.objective for h in b.history]
    assert [h.rel_change for h in a.history] == [h.rel_change for h in b.history]


def test_solve_raises_on_nonfinite_input(monkeypatch):
    f, x, model, y, z = _small_problem()

    def no_init(*args, **kwargs):
        raise AssertionError("initialization ran on non-finite input")

    monkeypatch.setattr("trfuse.solver.initial_factors", no_init)
    for bad in (np.nan, np.inf, -np.inf):
        y_bad = y.copy()
        y_bad[0, 0, 0] = bad
        z_bad = z.copy()
        z_bad[1, 2, 0] = bad
        for init in ("tr_svd", "random"):
            cfg = SolverConfig(ranks=(2, 2, 2), k_max=3, init=init)
            with pytest.raises(ValueError, match="y contains NaN or Inf"):
                solve(y_bad, z, model, cfg)
            with pytest.raises(ValueError, match="z contains NaN or Inf"):
                solve(y, z_bad, model, cfg)


def test_solve_validates_shapes():
    f, x, model, y, z = _small_problem()
    cfg = SolverConfig(ranks=(2, 2, 2))
    with pytest.raises(ValueError):
        solve(y[:, :, 0], z, model, cfg)
    with pytest.raises(ValueError):
        solve(y[:3], z, model, cfg)  # u1 no longer maps the extents
    with pytest.raises(ValueError):
        solve(y, z[:, :, :2], model, cfg)
    with pytest.raises(ValueError):
        solve(y, z, model, cfg,
              init_factors_override=random_init((4, 8, 6), (2, 2, 2), seed=0))


def test_initial_factors_pad_clamped_ranks():
    f, x, model, y, z = _small_problem()
    cfg = SolverConfig(ranks=(3, 3, 3))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        init = initial_factors(y, z, cfg)
    assert init.ranks == (3, 3, 3)
    assert init.dims == (8, 8, 6)


def test_initial_factors_random_mode_is_seeded():
    f, x, model, y, z = _small_problem()
    a = initial_factors(y, z, SolverConfig(ranks=(2, 2, 2), init="random", seed=4))
    b = initial_factors(y, z, SolverConfig(ranks=(2, 2, 2), init="random", seed=4))
    for ca, cb in zip(a.cores, b.cores):
        np.testing.assert_array_equal(ca, cb)
    assert a.dims == (8, 8, 6)


def test_config_validation():
    with pytest.raises(ValueError):
        SolverConfig(ranks=(0, 2, 2))
    with pytest.raises(ValueError):
        SolverConfig(ranks=(2, 2))
    with pytest.raises(ValueError):
        SolverConfig(alpha=-1e-3)
    with pytest.raises(ValueError):
        SolverConfig(eta=0.0)
    with pytest.raises(ValueError):
        SolverConfig(k_max=-1)
    with pytest.raises(ValueError):
        SolverConfig(init="pca")
    with pytest.raises(ValueError):
        SolverConfig(beta_scales=(1.0, -1.0, 1.0))
    with pytest.raises(ValueError):
        SolverConfig(inner_max=0)


def test_result_history_fields():
    f, x, model, y, z = _small_problem(noisy=True)
    cfg = SolverConfig(ranks=(2, 2, 2), k_max=3)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        res = solve(y, z, model, cfg)
    assert isinstance(res, FusionResult)
    assert res.fused.shape == (8, 8, 6)
    assert [h.k for h in res.history] == list(range(1, len(res.history) + 1))
    secs = [h.seconds for h in res.history]
    assert all(b >= a for a, b in zip(secs, secs[1:]))  # cumulative clock
    assert all(np.isfinite(h.objective) and np.isfinite(h.rel_change)
               for h in res.history)
    for h in res.history:
        assert 3 <= h.inner_sweeps <= 3 * cfg.inner_max
        assert 0 <= h.cg_iters <= h.inner_sweeps * cfg.cg_max
        assert 0 <= h.cg_capped <= h.inner_sweeps


def test_history_counts_capped_cg_solves():
    f, x, model, y, z = _small_problem(noisy=True)
    cfg = SolverConfig(ranks=(2, 2, 2), k_max=2, inner_max=2, cg_max=1,
                       cg_tol=1e-12)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        res = solve(y, z, model, cfg)
    assert res.history
    for h in res.history:
        assert h.cg_iters <= h.inner_sweeps
        assert h.cg_capped > 0
