"""Property tests over many small geometries, drawn by hypothesis.

Extents mostly run from 1 to 9 and ranks from 1 to 4 on every mode. Runs are
derandomized, so a failure reproduces on every run and an example database
would hold nothing worth keeping; none is kept.
"""

import warnings

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from trfuse.degradation import DegradationModel, add_noise, degrade
from trfuse.ring import (TRFactors, _sequential_svd, compose, inner, merge_cores,
                         random_init, tr_svd_init)
from trfuse.solver import (SolverConfig, SolverDivergenceError, _block_system,
                           _diff, _diff_t, block_constants, initial_factors,
                           solve, unfold_observations, update_block)
from trfuse.tensor import fold, mode_n_product, unfold

from helpers import (dense_difference, diff_along, diff_t_along,
                     reference_update_block)

extents = st.tuples(*[st.integers(1, 9)] * 3)
ranks = st.tuples(*[st.integers(1, 4)] * 3)
seeds = st.integers(0, 2**32 - 1)
PROPERTY = settings(max_examples=100, derandomize=True, deadline=None,
                    database=None)


@PROPERTY
@given(dims=extents, ranks=ranks, seed=seeds)
def test_compose_is_the_trace_of_slice_products(dims, ranks, seed):
    rng = np.random.default_rng(seed)
    cores = tuple(rng.standard_normal((ranks[n], dims[n], ranks[(n + 1) % 3]))
                  for n in range(3))
    want = np.einsum("aib,bjc,cka->ijk", *cores)
    got = compose(TRFactors(cores))
    assert got.shape == dims
    scale = max(np.linalg.norm(want), 1.0)
    assert np.linalg.norm(got - want) <= 1e-12 * scale
    # the ring unfolding identity at every mode
    for n in range(3):
        sub = merge_cores(cores[(n + 1) % 3], cores[(n + 2) % 3])
        rhs = unfold(cores[n], 1) @ sub
        assert np.linalg.norm(unfold(want, n) - rhs) <= 1e-12 * scale, n


@PROPERTY
@given(dims=extents, ranks_f=ranks, ranks_g=ranks, seed=seeds)
def test_inner_is_the_inner_product_of_the_composed_cubes(dims, ranks_f, ranks_g,
                                                         seed):
    assume(ranks_f != ranks_g)
    rng = np.random.default_rng(seed)
    f, g = (TRFactors(tuple(rng.standard_normal((r[n], dims[n], r[(n + 1) % 3]))
                            for n in range(3)))
            for r in (ranks_f, ranks_g))
    xf, xg = compose(f), compose(g)
    bound = 1e-12 * np.linalg.norm(xf) * np.linalg.norm(xg)
    assert abs(inner(f, g) - np.vdot(xf, xg)) <= bound


def _same_bits(a, b):
    return a.shape == b.shape and a.tobytes() == b.tobytes()


@PROPERTY
@given(dims=st.tuples(st.integers(1, 40), st.integers(1, 40), st.integers(1, 4)),
       seed=seeds)
def test_difference_stencils_are_the_dense_difference(dims, seed):
    # D and Dᵀ as row stencils against the dense matrix, along the extent
    # axis of a core (1) and of an unfolding (0), through a view that puts
    # that axis first; extent 1 gives zeros
    rng = np.random.default_rng(seed)
    x, w = rng.standard_normal((2, *dims))
    mu = 0.1
    for axis in (0, 1):
        d = dense_difference(dims[axis])
        xa, wa = x.swapaxes(0, axis), w.swapaxes(0, axis)
        dx = _diff(xa, np.empty_like(xa)).swapaxes(0, axis)
        dtw = _diff_t(wa[:-1], 1.0, np.empty_like(wa)).swapaxes(0, axis)
        assert np.array_equal(dx, mode_n_product(x, d, axis)), axis
        assert np.array_equal(dtw, mode_n_product(w, d.T, axis)), axis
        assert abs(np.vdot(dx, w) - np.vdot(x, dtw)) <= (
            1e-12 * np.linalg.norm(x) * np.linalg.norm(w))
        # DᵀD g rounds differently from the dense dᵀd g
        want = mode_n_product(x, d.T @ d, axis)
        scale = max(np.linalg.norm(want), 1.0)
        dtd = _diff_t(xa[1:] - xa[:-1], 1.0, np.empty_like(xa)).swapaxes(0, axis)
        assert np.linalg.norm(dtd - want) <= 1e-14 * scale, axis
        # bit for bit, signed zeros included, the np.diff forms scaled by mu;
        # rounded data has equal neighbours and zeros of both signs
        for t in (x, np.rint(x)):
            ta = t.swapaxes(0, axis)
            assert _same_bits(_diff(ta, np.empty_like(ta)).swapaxes(0, axis),
                              diff_along(t, axis)), axis
            dtt = _diff_t(ta[:-1], mu, np.empty_like(ta)).swapaxes(0, axis)
            assert _same_bits(dtt, mu * diff_t_along(t, axis)), axis
            dtd = _diff_t(ta[1:] - ta[:-1], mu, np.empty_like(ta)).swapaxes(0, axis)
            assert _same_bits(dtd, mu * diff_t_along(diff_along(t, axis), axis)), axis


@st.composite
def degradations(draw):
    """Spatial extents as multiples of a common factor, a band grouping into
    1 to all of the bands, and the blur kernel's size and width."""
    factor = draw(st.integers(1, 3))
    dims = (factor * draw(st.integers(1, 4)), factor * draw(st.integers(1, 4)),
            draw(st.integers(1, 9)))
    return dims, DegradationModel.build(
        dims, factor, kernel_size=draw(st.sampled_from((1, 3, 5, 7))),
        sigma=draw(st.sampled_from((0.0, 0.5, 1.0, 2.0))),
        out_bands=draw(st.integers(1, dims[2])))


@PROPERTY
@given(geometry=degradations(), ranks=ranks, seed=seeds)
def test_degradation_commutes_with_the_ring(geometry, ranks, seed):
    # degrading the composed cube equals composing the cores degraded on
    # their extent modes: the identity the solver's data terms rest on
    dims, model = geometry
    rng = np.random.default_rng(seed)
    cores = tuple(rng.standard_normal((ranks[n], dims[n], ranks[(n + 1) % 3]))
                  for n in range(3))
    for got, ops in zip(degrade(compose(TRFactors(cores)), model),
                        model.mode_operators):
        want = compose(TRFactors(tuple(g if u is None else mode_n_product(g, u, 1)
                                       for g, u in zip(cores, ops))))
        assert got.shape == want.shape
        assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)


@settings(PROPERTY, max_examples=50)
@given(geometry=degradations(), ranks=ranks, phantom_ranks=ranks, seed=seeds,
       noisy=st.booleans(), k_max=st.integers(1, 3))
def test_solve_from_a_clamped_init_is_finite_or_diverges_loudly(
        geometry, ranks, phantom_ranks, seed, noisy, k_max):
    # the init clamps ranks an observation cannot carry and pads the cores
    # back; a short solve then returns a finite cube at the requested ranks or
    # raises SolverDivergenceError, and nothing else
    dims, model = geometry
    y, z = degrade(compose(random_init(dims, phantom_ranks, seed=seed)), model)
    if noisy:
        y, z = add_noise(y, 30.0, rng=seed), add_noise(z, 35.0, rng=seed + 1)
    cfg = SolverConfig(ranks=ranks, k_max=k_max)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        initial_factors(y, z, cfg)
    assume(any("clamped" in str(w.message) for w in caught))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        try:
            res = solve(y, z, model, cfg)
        except SolverDivergenceError:
            return
    assert np.all(np.isfinite(res.fused))
    assert res.factors.ranks == cfg.ranks


@settings(PROPERTY, max_examples=50)
@given(geometry=degradations(), ranks=ranks, phantom_ranks=ranks, seed=seeds,
       noisy=st.booleans(), alpha=st.sampled_from((0.0, 1e-4, 1e-2)),
       beta_scales=st.tuples(*[st.sampled_from((0.0, 0.5, 1.0))] * 3),
       inner_max=st.integers(1, 10), cg_max=st.sampled_from((1, 2, 300)))
def test_update_block_is_bit_equal_to_the_reference(
        geometry, ranks, phantom_ranks, seed, noisy, alpha, beta_scales,
        inner_max, cg_max):
    # sweeps on the core's unfolding leave the same core bytes, sweep count
    # and CG log as the reference's fold and unfold per sweep, block by block
    # from the (possibly clamped and padded) init
    dims, model = geometry
    y, z = degrade(compose(random_init(dims, phantom_ranks, seed=seed)), model)
    if noisy:
        y, z = add_noise(y, 30.0, rng=seed), add_noise(z, 35.0, rng=seed + 1)
    cfg = SolverConfig(ranks=ranks, alpha=alpha, beta_scales=beta_scales,
                       inner_max=inner_max, cg_max=cg_max)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        cores = list(initial_factors(y, z, cfg).cores)
    unfolded = unfold_observations(y, z)
    for n in range(3):
        system = _block_system(n, cores, unfolded, model, cfg,
                               block_constants(n, model, cfg))
        want_cores, want_log, got_log = list(cores), [], []
        want = reference_update_block(n, want_cores, system, cfg, want_log)
        got = update_block(n, cores, system, cfg, got_log)
        assert type(got) is int and got == want, n
        assert got_log == want_log, n
        assert all(_same_bits(a, b) for a, b in zip(cores, want_cores)), n


@PROPERTY
@given(dims=extents, seed=seeds)
def test_fold_inverts_unfold(dims, seed):
    t = np.random.default_rng(seed).standard_normal(dims)
    for mode in range(3):
        m = unfold(t, mode)
        assert m.shape == (dims[mode], t.size // dims[mode])
        np.testing.assert_array_equal(fold(m, mode, dims), t)


@PROPERTY
@given(dims=extents, observed=extents, ranks=ranks, seed=seeds,
       weights=st.tuples(*[st.floats(1e-2, 1e2)] * 3))
def test_preconditioner_inverts_the_two_term_part(dims, observed, ranks, seed,
                                                  weights):
    # dims are the estimate's extents; y keeps band count dims[2] and z keeps
    # the spatial extents dims[:2], with random operators on the other modes
    rng = np.random.default_rng(seed)
    lam, eta, mu = weights
    model = DegradationModel(u1=rng.standard_normal((observed[0], dims[0])),
                             u2=rng.standard_normal((observed[1], dims[1])),
                             u3=rng.standard_normal((observed[2], dims[2])))
    y = rng.standard_normal((observed[0], observed[1], dims[2]))
    z = rng.standard_normal((dims[0], dims[1], observed[2]))
    cores = [rng.standard_normal((ranks[n], dims[n], ranks[(n + 1) % 3]))
             for n in range(3)]
    cfg = SolverConfig(ranks=ranks, lam=lam, eta=eta, mu=mu)
    for n in range(3):
        op = _block_system(n, cores, unfold_observations(y, z), model, cfg,
                           block_constants(n, model, cfg))
        r = rng.standard_normal((dims[n], ranks[n] * ranks[(n + 1) % 3]))
        g = op.precondition(r)
        residual = op.a1 @ g @ op.b1 + g @ op.e - r
        assert np.linalg.norm(residual) <= 1e-10 * np.linalg.norm(r), n


def _carried(dims, ranks):
    """The clamping rule, written out: R1·R2 at most min(I1, I2·I3), then R3
    at most both extents of the second split."""
    (i1, i2, i3), (r1, r2, r3) = dims, ranks
    kmax = min(i1, i2 * i3)
    if r1 * r2 > kmax:
        r1, r2 = (kmax, 1) if r1 > kmax else (r1, max(1, kmax // r1))
    return r1, r2, min(r3, i2 * r2, r1 * i3)


@st.composite
def first_splits(draw):
    """A cube whose mode-0 matricization is wide, square or tall, random or of
    an exact low ring rank, with first-split ranks clamped as the init clamps
    them."""
    i2, i3 = draw(st.integers(1, 5)), draw(st.integers(1, 5))
    cols = i2 * i3
    aspect = draw(st.sampled_from(("wide", "square", "tall")))
    assume(aspect != "wide" or cols > 1)
    if aspect == "wide":
        i1 = draw(st.integers(1, cols - 1))
    elif aspect == "square":
        i1 = cols
    else:
        i1 = cols + draw(st.integers(1, 12))
    dims = (i1, i2, i3)
    rng = np.random.default_rng(draw(seeds))
    if draw(st.booleans()):
        exact = draw(st.tuples(*[st.integers(1, 3)] * 3))
        t = compose(TRFactors(tuple(
            rng.standard_normal((exact[n], dims[n], exact[(n + 1) % 3]))
            for n in range(3))))
    else:
        t = rng.standard_normal(dims)
    r1, r2, _ = _carried(dims, (draw(st.integers(1, 4)), draw(st.integers(1, 4)), 1))
    return t, r1, r2


@PROPERTY
@given(case=first_splits())
def test_first_split_is_the_rank_k_projection(case):
    t, r1, r2 = case
    i1, i2, i3 = t.shape
    k = r1 * r2
    # a third rank as large as the second split allows makes that split
    # exact, so cores 2 and 3 multiply back to z and the ring is core 1 × z
    f = _sequential_svd(t, (r1, r2, min(i2 * r2, r1 * i3)))
    g1 = unfold(f.cores[0], 1)
    assert np.linalg.norm(g1.T @ g1 - np.eye(k)) <= 1e-12
    m = unfold(t, 0)
    u, s, _ = np.linalg.svd(m, full_matrices=False)
    # the projection is unique across a gap, and is m itself past m's rank
    assume(k == s.size or s[k - 1] - s[k] > 1e-4 * s[0] or s[k - 1] <= 1e-13 * s[0])
    want = u[:, :k] @ (u[:, :k].T @ m)
    assert np.linalg.norm(unfold(compose(f), 0) - want) <= 1e-10 * np.linalg.norm(m)


@PROPERTY
@given(dims=extents, ranks=ranks, seed=seeds)
def test_tr_svd_init_is_finite_clamped_and_no_worse_than_its_svd(dims, ranks, seed):
    t = np.random.default_rng(seed).standard_normal(dims)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        f = tr_svd_init(t, ranks)
    svd = _sequential_svd(t, _carried(dims, ranks))
    assert f.ranks == ranks
    assert all(np.all(np.isfinite(c)) for c in f.cores)
    err = np.linalg.norm(compose(f) - t)
    assert err <= np.linalg.norm(compose(svd) - t) + 1e-12 * np.linalg.norm(t)


@PROPERTY
@given(dims=extents, ranks=ranks, seed=seeds)
def test_tr_svd_init_pads_a_clamped_ring_back_to_the_requested_ranks(dims, ranks,
                                                                     seed):
    # one warning names the clamped ranks; the cores past them are exactly 0,
    # so the padded ring composes to the clamped ring's cube. The zero terms
    # change how the products group their sums (dims (2, 1, 2) at ranks
    # (4, 4, 1) moves one entry by an ulp), so each entry agrees within a
    # rounding bound on its terms' absolute sum, not bit for bit
    carried = _carried(dims, ranks)
    assume(carried != ranks)
    t = np.random.default_rng(seed).standard_normal(dims)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        f = tr_svd_init(t, ranks)
    assert [str(w.message) for w in caught] == [
        f"ring ranks clamped to {carried} for extents {dims}"]
    assert f.ranks == ranks
    kept = []
    for n, core in enumerate(f.cores):
        ra, rb = carried[n], carried[(n + 1) % 3]
        padded = core.copy()
        padded[:ra, :, :rb] = 0.0
        assert not padded.any(), n
        kept.append(core[:ra, :, :rb])
    clamped = TRFactors(tuple(kept))
    bound = 1e-14 * compose(TRFactors(tuple(np.abs(c) for c in kept)))
    assert np.all(np.abs(compose(f) - compose(clamped)) <= bound)
