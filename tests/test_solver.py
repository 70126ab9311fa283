"""Solver building blocks and short end-to-end runs on small fixtures.

Quadratic pieces are checked against independent references: CG against a
dense direct solve, the block operator against symmetry/coercivity probes,
and the whole block step against the property that exact factors are a fixed
point when the nonsmooth terms are off.
"""

import tracemalloc
import warnings
from dataclasses import replace

import numpy as np
import pytest

import trfuse.solver

from trfuse.degradation import DegradationModel, add_noise, degrade
from trfuse.ring import TRFactors, compose, random_init
from trfuse.solver import (FusionResult, SolverConfig, SolverDivergenceError,
                           _block_system, _diff, block_constants, cg_solve,
                           initial_factors, objective, solve, update_block)
from trfuse.prox import ltnn_value
from trfuse.tensor import fold, mode_n_product

from helpers import (bench_oracle, cube_objective, dense_difference,
                     full_spectrum_ltnn_prox, plain_cg)


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


def _objective(f, y, z, model, cfg):
    """solver.objective at f, with block 3's system built at f's cores."""
    system = _block_system(2, list(f.cores), (y, z), model,
                           cfg, block_constants(2, model, cfg))
    data_sq = 0.5 * np.sum(y * y) + 0.5 * cfg.lam * np.sum(z * z)
    return objective(f, system, data_sq, cfg)


def test_difference_matrix_rows():
    # D applied to the identity is D's matrix: rows (-1, +1), last row zero
    np.testing.assert_array_equal(_diff(np.eye(3), np.empty((3, 3))),
                                  [[-1, 1, 0], [0, -1, 1], [0, 0, 0]])
    # one band has no forward difference: the single row is the zero last row
    np.testing.assert_array_equal(_diff(np.eye(1), np.empty((1, 1))), [[0.0]])


def _spd_cases():
    rng = np.random.default_rng(0)
    for _ in range(5):
        n = int(rng.integers(4, 12))
        a = rng.standard_normal((n, n))
        yield a @ a.T + n * np.eye(n), rng.standard_normal((n, 3))


def test_cg_matches_direct_solve():
    for spd, rhs in _spd_cases():
        want = np.linalg.solve(spd, rhs)
        # plain CG, Jacobi, and the inverse of a nearby SPD matrix
        near = spd + np.diag(np.arange(len(spd)) + 1.0)
        for precondition in (lambda v: v, lambda v: v / np.diag(spd)[:, None],
                             lambda v: np.linalg.solve(near, v)):
            x, iters, relres = cg_solve(lambda v: spd @ v, rhs, tol=1e-12,
                                        max_iter=500, precondition=precondition)
            assert np.linalg.norm(x - want) < 1e-8 * np.linalg.norm(want)
            assert relres <= 1e-12


def test_cg_zero_rhs_and_warm_start():
    spd = np.diag([1.0, 2.0, 3.0])
    x, iters, relres = cg_solve(lambda v: spd @ v, np.zeros((3, 2)), 1e-6, 300,
                                precondition=lambda r: r)
    np.testing.assert_array_equal(x, np.zeros((3, 2)))
    assert iters == 0
    rhs = np.array([[1.0], [4.0], [9.0]])
    exact = np.linalg.solve(spd, rhs)
    x, iters, _ = cg_solve(lambda v: spd @ v, rhs, tol=1e-10, max_iter=300,
                           x0=exact, precondition=lambda r: r)
    assert iters == 0
    np.testing.assert_allclose(x, exact, atol=1e-12)


def test_unpreconditioned_cg_is_plain_cg():
    # the identity preconditioner reproduces plain CG bit for bit, converged,
    # capped, warm-started and on a zero right-hand side
    spd = np.diag([1.0, 2.0, 3.0])
    cases = [(spd, np.zeros((3, 2)), {"tol": 1e-6, "max_iter": 300}),
             (spd, np.array([[1.0], [4.0], [9.0]]),
              {"tol": 1e-10, "max_iter": 300,
               "x0": np.linalg.solve(spd, [[1.0], [4.0], [9.0]])})]
    for spd, rhs in _spd_cases():
        cases += [(spd, rhs, {"tol": 1e-12, "max_iter": 500}),
                  (spd, rhs, {"tol": 1e-6, "max_iter": 2, "x0": np.ones_like(rhs)})]
    for spd, rhs, kw in cases:
        x, iters, relres = cg_solve(lambda v: spd @ v, rhs, precondition=lambda r: r, **kw)
        x_ref, iters_ref, relres_ref = plain_cg(lambda v: spd @ v, rhs, **kw)
        np.testing.assert_array_equal(x, x_ref)
        assert (iters, relres) == (iters_ref, relres_ref)


def test_cg_raises_on_nonfinite_residual():
    def bad(v):
        return np.full_like(v, np.nan) if np.any(v != 0) else v

    rhs = np.ones((3, 1))
    with pytest.raises(SolverDivergenceError):
        cg_solve(bad, rhs, 1e-6, 300, precondition=lambda r: r)


@pytest.mark.parametrize("x0", [None, "cancel"])
def test_cg_raises_on_overflowing_rhs(x0):
    # ||rhs|| overflows although every entry is finite; a warm start that
    # cancels the right-hand side exactly would otherwise read as converged
    rhs = np.full((3, 2), 1e200)
    x0 = rhs.copy() if x0 == "cancel" else x0
    with np.errstate(over="ignore"), pytest.raises(SolverDivergenceError):
        cg_solve(lambda v: v, rhs, 1e-6, 300, x0=x0, precondition=lambda r: r)


def test_sylvester_operator_symmetric_and_coercive():
    f, x, model, y, z = _small_problem()
    cfg = SolverConfig(ranks=(2, 3, 2))
    rng = np.random.default_rng(1)
    for n in range(3):
        op = _block_system(n, list(f.cores), (y, z), model,
                           cfg, block_constants(n, model, cfg))
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


def test_preconditioner_inverts_the_two_term_part():
    # P is the exact inverse of g -> a1 g b1 + g e: the operator without its
    # mu dᵀd g term
    f, x, model, y, z = _small_problem(noisy=True)
    cfg = SolverConfig(ranks=(2, 3, 2), lam=0.7)
    rng = np.random.default_rng(2)
    for n in range(3):
        op = _block_system(n, list(f.cores), (y, z), model,
                           cfg, block_constants(n, model, cfg))
        r = rng.standard_normal((f.cores[n].shape[1],
                                 f.cores[n].shape[0] * f.cores[n].shape[2]))
        g = op.precondition(r)
        two_term = op.a1 @ g @ op.b1 + g @ op.e
        assert np.linalg.norm(two_term - r) <= 1e-10 * np.linalg.norm(r), n
        d = dense_difference(len(g))
        np.testing.assert_allclose(two_term, op.apply(g) - cfg.mu * (d.T @ d @ g),
                                   rtol=0, atol=1e-12 * np.abs(two_term).max())


def test_objective_at_zero_cores():
    f, x, model, y, z = _small_problem()
    cfg = SolverConfig(ranks=(2, 3, 2), lam=0.7, alpha=1e-3, beta=0.4)
    zeros = TRFactors(tuple(np.zeros_like(c) for c in f.cores))
    got = _objective(zeros, y, z, model, cfg)
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
    diff = _objective(f, y, z, model, base) - _objective(f, y, z, model, off)
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
        system = _block_system(n, cores, (y, z), model, cfg,
                               block_constants(n, model, cfg))
        assert update_block(n, cores, system, cfg, cg_log) == 1
        move = (np.linalg.norm(cores[n] - before[n])
                / np.linalg.norm(before[n]))
        assert move < 1e-6, f"block {n} moved {move}"
    assert len(cg_log) == 3


def test_block_system_is_the_data_quadratic():
    # The data terms are quadratic in core n's unfolding g:
    #   f(g) - f(0) = 1/2 <g, Q g> - <b, g>,
    # with Q the operator less its splitting and anchor parts and b the data
    # right-hand side. f is evaluated through compose, with the degradations
    # spelled out here: y blurs cores 1 and 2, z band-aggregates core 3.
    f, x, model, y, z = _small_problem(noisy=True)
    cfg = SolverConfig(ranks=(2, 3, 2), lam=0.7)
    cores = list(random_init((8, 8, 6), (2, 3, 2), seed=4).cores)
    rng = np.random.default_rng(9)

    def data_terms(core_n, n):
        g = list(cores)
        g[n] = core_n
        y_hat = compose(TRFactors((mode_n_product(g[0], model.u1, 1),
                                   mode_n_product(g[1], model.u2, 1), g[2])))
        z_hat = compose(TRFactors((g[0], g[1],
                                   mode_n_product(g[2], model.u3, 1))))
        return (0.5 * np.sum((y - y_hat) ** 2)
                + 0.5 * cfg.lam * np.sum((z - z_hat) ** 2))

    for n in range(3):
        shape = cores[n].shape
        d = dense_difference(shape[1])
        op = _block_system(n, cores, (y, z), model, cfg,
                           block_constants(n, model, cfg))
        g = rng.standard_normal((shape[1], shape[0] * shape[2]))
        qg = op.apply(g) - cfg.mu * (d.T @ d @ g) - (cfg.eta + cfg.mu) * g
        quad, lin = 0.5 * np.sum(g * qg), np.sum(op.rhs * g)
        got = data_terms(fold(g, 1, shape), n) - data_terms(np.zeros(shape), n)
        scale = abs(quad) + abs(lin) + data_terms(np.zeros(shape), n)
        assert abs(got - (quad - lin)) <= 1e-10 * scale, n


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


def test_gram_prox_keeps_the_svd_prox_trajectory(monkeypatch):
    # the prox thresholds through Gram eigendecompositions, which round
    # differently from an SVD; on a noiseless exact-rank phantom the run
    # must take the same path as with the SVD reference prox
    oracle = bench_oracle()
    gt = oracle.ring_phantom((32, 32, 16), (2, 4, 2), 11)
    model = DegradationModel.build(gt.shape, factor=4, kernel_size=7,
                                   sigma=2.0, out_bands=4)
    y, z = degrade(gt, model)
    cfg = SolverConfig(ranks=(2, 4, 2))
    runs = [solve(y, z, model, cfg).history]
    monkeypatch.setattr(trfuse.solver, "ltnn_prox", full_spectrum_ltnn_prox)
    runs.append(solve(y, z, model, cfg).history)
    gram, svd = ([(h.k, h.inner_sweeps, h.cg_iters, h.cg_capped) for h in run]
                 for run in runs)
    assert gram == svd
    for a, b in zip(*runs):
        assert abs(a.objective - b.objective) <= 1e-9 * abs(b.objective)


def test_rel_change_matches_the_composed_cubes():
    # each row's rel_change, taken from ring inner products, against the
    # cubes of the runs that stop after k = 1, 2 and 3 outer iterations
    f, x, model, y, z = _small_problem(noisy=True)
    init = random_init((8, 8, 6), (2, 2, 2), seed=4)
    cubes = [compose(init)]
    for k_max in (1, 2, 3):
        res = solve(y, z, model, SolverConfig(ranks=(2, 2, 2), k_max=k_max),
                    init_factors_override=init)
        assert len(res.history) == k_max
        cubes.append(res.fused)
    for h, prev, new in zip(res.history, cubes, cubes[1:]):
        want = np.linalg.norm(new - prev) / np.linalg.norm(new)
        assert abs(h.rel_change - want) <= 1e-8 * want, h.k


@pytest.mark.parametrize("case", ["noisy", "exact", "smooth"])
def test_objective_matches_the_cube_formed_oracle(case):
    # each history row's objective, read from block 3's system, against the
    # objective of composed cubes at the iterates of the runs that stop after
    # k = 1, 2 and 3 outer iterations. "exact" observes a noiseless exact-rank
    # ring scaled by 10 from near its own cores, so ½||y||² + ½ lam ||z||² is
    # 2.0e6 against an objective of about 8 and the data terms cancel 5 to 6
    # digits, as on a noiseless benchmark pair; "smooth" sets alpha = beta = 0
    f, x, model, y, z = _small_problem(noisy=case != "exact")
    init = random_init((8, 8, 6), (2, 3, 2), seed=4)
    if case == "exact":
        f = TRFactors(tuple(10.0 * c for c in f.cores))
        y, z = degrade(compose(f), model)
        init = TRFactors(tuple(c + 1e-2 * r for c, r in zip(f.cores, init.cores)))
    extra = {"alpha": 0.0, "beta": 0.0} if case == "smooth" else {}
    cfg = SolverConfig(ranks=(2, 3, 2), lam=0.7, stop_tol=1e-12, **extra)
    iterates = []
    for k_max in (1, 2, 3):
        res = solve(y, z, model, replace(cfg, k_max=k_max), init_factors_override=init)
        assert len(res.history) == k_max
        iterates.append(res.factors)
    for h, f_k in zip(res.history, iterates):
        want = cube_objective(f_k, y, z, model, cfg)
        assert abs(h.objective - want) <= 1e-9 * abs(want), (h.k, h.objective, want)


def test_solve_composes_the_estimate_once(monkeypatch):
    f, x, model, y, z = _small_problem(noisy=True)
    calls = []

    def counting(factors):
        calls.append(factors.dims)
        return compose(factors)

    monkeypatch.setattr("trfuse.solver.compose", counting)
    cfg = SolverConfig(ranks=(2, 2, 2), k_max=5, stop_tol=1e-12)
    res = solve(y, z, model, cfg,
                init_factors_override=random_init(x.shape, (2, 2, 2), seed=4))
    assert len(res.history) == 5
    assert calls == [x.shape]


@pytest.mark.parametrize("k_max", [1, 6])
def test_solve_allocates_no_observation_sized_array_after_the_init(monkeypatch,
                                                                    k_max):
    # from the init to the final compose the loop reads y and z through
    # views only, so no step grows the traced heap by half of y, which any
    # unfolding of y (as large as y) would. The growth is taken per step,
    # between the entries and exits of the solver's functions, so the
    # constants a step keeps count once and never add up to the bound.
    dims = (128, 128, 64)
    model = DegradationModel.build(dims, factor=2, kernel_size=3, sigma=1.0,
                                   out_bands=3)
    y, z = degrade(compose(random_init(dims, (2, 2, 2), seed=4)), model)
    y, z = add_noise(y, 25.0, rng=5), add_noise(z, 30.0, rng=6)
    half_y = y.nbytes // 2
    growth, start, loop = [], [], {}

    def checkpoint():
        current, peak = tracemalloc.get_traced_memory()
        if start:
            growth.append(peak - start[-1])
        start.append(current)
        tracemalloc.reset_peak()

    def staged(fn):
        def step(*args, **kwargs):
            if start:
                checkpoint()
            out = fn(*args, **kwargs)
            checkpoint()
            return out
        return step

    def final_compose(factors):
        checkpoint()
        loop["growth"] = list(growth)
        return compose(factors)

    for name in ("initial_factors", "block_constants", "_block_system",
                 "update_block", "objective"):
        monkeypatch.setattr(trfuse.solver, name, staged(getattr(trfuse.solver, name)))
    monkeypatch.setattr(trfuse.solver, "compose", final_compose)
    cfg = SolverConfig(ranks=(2, 2, 2), k_max=k_max, stop_tol=1e-12)
    tracemalloc.start()
    try:
        res = solve(y, z, model, cfg)
    finally:
        tracemalloc.stop()
    assert len(res.history) == k_max
    # every step after the init is measured: three block constants, then
    # three systems, three updates and one objective per outer iteration
    assert len(loop["growth"]) == 2 * (3 + 7 * k_max) + 1
    assert max(loop["growth"]) < half_y, (max(loop["growth"]), half_y)


def test_solve_raises_when_the_estimate_collapses():
    # zero observations give zero initial cores, which no block update moves
    f, x, model, y, z = _small_problem()
    cfg = SolverConfig(ranks=(2, 2, 2), k_max=3)
    with pytest.raises(SolverDivergenceError, match="collapsed to zero at outer 1"):
        solve(np.zeros_like(y), np.zeros_like(z), model, cfg)


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
        cfg = SolverConfig(ranks=(2, 2, 2), k_max=3)
        for override in (None, random_init(x.shape, (2, 2, 2), seed=0)):
            with pytest.raises(ValueError, match="y contains NaN or Inf"):
                solve(y_bad, z, model, cfg, init_factors_override=override)
            with pytest.raises(ValueError, match="z contains NaN or Inf"):
                solve(y, z_bad, model, cfg, init_factors_override=override)


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


def test_history_counts_cg_breakdowns(monkeypatch):
    # a breakdown (pᵀAp <= 0) returns early, above cg_tol and below cg_max
    def breakdown(apply, rhs, tol=1e-6, max_iter=300, x0=None, *, precondition):
        return np.array(x0, dtype=float), 0, 1.0

    monkeypatch.setattr("trfuse.solver.cg_solve", breakdown)
    f, x, model, y, z = _small_problem(noisy=True)
    cfg = SolverConfig(ranks=(2, 2, 2), k_max=2)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        res = solve(y, z, model, cfg)
    assert res.history
    for h in res.history:
        assert h.cg_iters == 0
        assert h.cg_capped == h.inner_sweeps >= 3
