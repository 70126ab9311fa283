"""Shrinkage and log-penalty threshold checks.

The scalar threshold is verified against an independent stationarity oracle:
any positive output x must satisfy t/(x+eps) + (x - s) = 0, the derivative of
t*log(x+eps) + (x-s)^2/2.
"""

import numpy as np
import pytest

from helpers import full_spectrum_ltnn_prox, full_spectrum_ltnn_value
from trfuse.prox import (log_threshold_scalar, ltnn_prox, ltnn_value,
                         soft_shrink_weighted, update_weights)
from trfuse.ring import _pad_core


def test_soft_shrink_basic_cases():
    j = np.array([3.0, -3.0, 0.5, -0.5, 0.0])
    w = np.ones(5)
    out = soft_shrink_weighted(j, 1.0, w)
    np.testing.assert_allclose(out, [2.0, -2.0, 0.0, 0.0, 0.0], atol=1e-15)
    # per-entry weights scale the threshold
    out = soft_shrink_weighted(np.array([3.0, 3.0]), 1.0, np.array([0.5, 2.0]))
    np.testing.assert_allclose(out, [2.5, 1.0], atol=1e-15)
    # tau = 0 is the identity
    r = np.random.default_rng(0).standard_normal(16)
    np.testing.assert_array_equal(soft_shrink_weighted(r, 0.0, np.ones(16)), r)


def test_soft_shrink_is_the_weighted_l1_prox():
    # oracle: scalar prox of tau*w*|x| is argmin over a dense grid
    rng = np.random.default_rng(1)
    for _ in range(20):
        s = float(rng.uniform(-3, 3))
        tau = float(rng.uniform(0, 2))
        w = float(rng.uniform(0, 2))
        grid = np.linspace(-4, 4, 20001)
        obj = tau * w * np.abs(grid) + 0.5 * (grid - s) ** 2
        want = grid[np.argmin(obj)]
        got = soft_shrink_weighted(np.array([s]), tau, np.array([w]))[0]
        assert abs(got - want) < 5e-4


def test_soft_shrink_validation():
    with pytest.raises(ValueError):
        soft_shrink_weighted(np.ones(3), -0.1, np.ones(3))
    with pytest.raises(ValueError):
        soft_shrink_weighted(np.ones(3), 0.1, -np.ones(3))


def test_update_weights():
    j = np.array([0.0, 1.0, -3.0])
    np.testing.assert_allclose(update_weights(j, 0.5),
                               [2.0, 1.0 / 1.5, 1.0 / 3.5], atol=1e-15)
    with pytest.raises(ValueError):
        update_weights(j, 0.0)


def test_log_threshold_zero_branch_and_frozen_value():
    # small input with a large scale lands on the c2 <= 0 branch
    assert log_threshold_scalar(0.1, 0.5, 0.01) == 0.0
    # larger input: the closed form gives the positive stationary point
    got = log_threshold_scalar(2.0, 0.5, 0.01)
    assert abs(got - 1.7091603461408371) < 1e-12
    assert abs(0.5 / (got + 0.01) + (got - 2.0)) < 1e-10


def test_log_threshold_stationarity_oracle():
    rng = np.random.default_rng(2)
    for _ in range(200):
        s = float(rng.uniform(0.0, 5.0))
        t = float(rng.uniform(0.0, 2.0))
        eps = float(rng.choice([1e-2, 1e-1, 1.0]))
        x = log_threshold_scalar(s, t, eps)
        if x > 0:
            assert abs(t / (x + eps) + (x - s)) < 1e-9


def test_log_threshold_odd_symmetry_and_t_zero():
    rng = np.random.default_rng(3)
    s = rng.uniform(-4, 4, size=50)
    out_pos = log_threshold_scalar(np.abs(s), 0.3, 0.05)
    out = log_threshold_scalar(s, 0.3, 0.05)
    np.testing.assert_allclose(out, np.sign(s) * out_pos, atol=1e-14)
    np.testing.assert_allclose(log_threshold_scalar(s, 0.0, 0.05), s, atol=0)
    assert isinstance(log_threshold_scalar(1.5, 0.3, 0.05), float)


def test_log_threshold_known_negative_output_region():
    # the closed form takes the larger stationary point without comparing
    # against x = 0, so a tiny input with eps above it can undershoot; this
    # pins the documented behavior
    out = log_threshold_scalar(0.001, 0.002, 0.1)
    assert out < 0.0


def test_log_threshold_monotone_in_input():
    for t, eps in ((0.5, 1e-2), (1.5, 1e-1), (0.05, 1e-2)):
        grid = np.linspace(0, 6, 400)
        out = log_threshold_scalar(grid, t, eps)
        assert np.all(np.diff(out) > -1e-12)


def test_log_threshold_validation():
    with pytest.raises(ValueError):
        log_threshold_scalar(1.0, -0.1, 0.01)
    with pytest.raises(ValueError):
        log_threshold_scalar(1.0, 0.1, 0.0)


def _prox_reference_inputs(g):
    """Cores derived from a random core g (R, S, R') for the prox reference
    check: g at scales 1e-3 and 1e3, g with slice singular values spread
    over 8 decades, g zero-padded in both rank modes, and an all-zero core."""
    r, n, r2 = g.shape
    q = np.linalg.qr(np.random.default_rng(r * n * r2).standard_normal((r, r)))[0]
    spread = np.einsum("ab,bic->aic", q * np.logspace(0, -8, r), g)
    return (g, 1e-3 * g, 1e3 * g, spread, _pad_core(g, (r + 1, n, r2 + 2)),
            np.zeros_like(g))


def test_ltnn_matches_full_spectrum_reference():
    # the half-spectrum Gram path must equal the full DFT, per-slice SVD and
    # real part of the inverse DFT, for odd and even S and for R != R'
    rng = np.random.default_rng(4)
    for n in (1, 2, 3, 4, 7, 8, 64):
        for r, r2 in ((3, 3), (2, 5), (4, 1)):
            g = 2.0 * rng.standard_normal((r, n, r2))
            # a real core has conjugate-symmetric frequency slices, so
            # mirrored slices share singular values; the half spectrum
            # relies on this
            sv = np.linalg.svd(np.fft.fft(g, axis=1).transpose(1, 0, 2),
                               compute_uv=False)
            for k in range(n):
                np.testing.assert_allclose(sv[k], sv[(n - k) % n],
                                           rtol=1e-12, atol=1e-12 * sv.max())
            for eps in (1e-3, 1e-1):
                want = full_spectrum_ltnn_value(g, eps)
                assert abs(ltnn_value(g, eps) - want) <= 1e-12 * abs(want)
            # below t = eps²/4 the threshold of a vanishing σ is not 0, so
            # that case is compared on g alone, whose slices have full rank
            cases = [(core, t) for core in _prox_reference_inputs(g)
                     for t in (0.0, 0.3, 1.5)] + [(g, 1e-5)]
            for core, t in cases:
                want = full_spectrum_ltnn_prox(core, t, 1e-2)
                got = ltnn_prox(core, t, 1e-2)
                assert got.shape == core.shape and got.dtype == np.float64
                assert (np.linalg.norm(got - want)
                        <= 1e-12 * np.linalg.norm(want))
    with pytest.raises(ValueError):
        ltnn_prox(np.zeros((2, 2)), 0.1, 1e-2)


@pytest.mark.parametrize("wide", [True, False])
def test_ltnn_prox_adds_nothing_from_a_vanishing_singular_value(wide):
    # every slice of a = A ∘ b (or b ∘ Aᵀ) has rank 2 in a 3-row (3-column)
    # space, so its third σ is 0 up to rounding. Below t = eps²/4 the
    # threshold maps σ → 0+ to about -t/eps, not 0, so a rebuilt slice that
    # took that σ would leave A's span; the prox must stay inside it and
    # match the reference there
    rng = np.random.default_rng(9)
    basis = rng.standard_normal((3, 2))
    b = rng.standard_normal((2, 8, 4))
    if wide:
        a = np.einsum("ab,bic->aic", basis, b)
    else:
        a = np.einsum("bia,cb->aic", b, basis)
    t, eps = 1e-5, 1e-2
    onto = basis @ np.linalg.pinv(basis)

    def project(core, proj):
        return (np.einsum("ab,bic->aic", proj, core) if wide
                else np.einsum("aib,bc->aic", core, proj))

    got = ltnn_prox(a, t, eps)
    scale = np.linalg.norm(got)
    assert np.linalg.norm(project(got, np.eye(3) - onto)) <= 1e-13 * scale
    want = project(full_spectrum_ltnn_prox(a, t, eps), onto)
    assert np.linalg.norm(got - want) <= 1e-12 * scale


def test_ltnn_prox_takes_no_svd(monkeypatch):
    def no_svd(*args, **kwargs):
        raise AssertionError("ltnn_prox called np.linalg.svd")

    monkeypatch.setattr(np.linalg, "svd", no_svd)
    g = np.random.default_rng(10).standard_normal((3, 6, 4))
    for core in (g, g.transpose(2, 1, 0)):
        ltnn_prox(core, 0.3, 1e-2)


def test_ltnn_value_zero_tensor():
    # every frequency slice of a zero core has min(R, R') zero singular
    # values, so the value collapses to that count times log(eps)
    got = ltnn_value(np.zeros((2, 5, 3)), 1e-2)
    assert abs(got - 2 * np.log(1e-2)) < 1e-12


def test_ltnn_value_matches_direct_computation():
    rng = np.random.default_rng(5)
    for _ in range(10):
        shape = tuple(int(v) for v in rng.integers(2, 6, size=3))
        g = rng.standard_normal(shape)
        eps = float(rng.choice([1e-3, 1e-2, 1e-1]))
        acc = 0.0
        gf = np.fft.fft(g, axis=1)
        for k in range(shape[1]):
            sv = np.linalg.svd(gf[:, k, :], compute_uv=False)
            acc += float(np.sum(np.log(sv + eps)))
        want = acc / shape[1]
        assert abs(ltnn_value(g, eps) - want) < 1e-10
    with pytest.raises(ValueError):
        ltnn_value(np.zeros((2, 2, 2)), 0.0)
    with pytest.raises(ValueError):
        ltnn_value(np.zeros((2, 2)), 1e-2)


def test_ltnn_prox_t_zero_is_identity():
    rng = np.random.default_rng(6)
    g = rng.standard_normal((3, 7, 3))
    out = ltnn_prox(g, 0.0, 1e-2)
    np.testing.assert_array_equal(out, g)
    assert out.dtype == np.float64 and out is not g


def test_ltnn_prox_thresholds_slice_singular_values():
    rng = np.random.default_rng(7)
    g = 3.0 * rng.standard_normal((4, 5, 4))
    t, eps = 0.4, 1e-2
    out = ltnn_prox(g, t, eps)
    before_sv = np.linalg.svd(np.fft.fft(g, axis=1).transpose(1, 0, 2),
                              compute_uv=False)
    after_sv = np.linalg.svd(np.fft.fft(out, axis=1).transpose(1, 0, 2),
                             compute_uv=False)
    want = log_threshold_scalar(before_sv, t, eps)
    # thresholding can only produce nonnegative singular values here
    np.testing.assert_allclose(np.sort(after_sv, axis=1),
                               np.sort(np.maximum(want, 0.0), axis=1),
                               atol=1e-8)


def test_ltnn_prox_output_is_local_minimum_of_slice_objective():
    # F(Z) over frequency slices: t * sum log(sv + eps) + 0.5 ||Z - A||^2;
    # the prox output should not be beaten by small perturbations
    rng = np.random.default_rng(8)
    g = 2.0 * rng.standard_normal((3, 4, 3))
    t, eps = 0.2, 1e-2

    def objective(cand):
        cf = np.fft.fft(cand, axis=1).transpose(1, 0, 2)
        af = np.fft.fft(g, axis=1).transpose(1, 0, 2)
        sv = np.linalg.svd(cf, compute_uv=False)
        return (t * float(np.sum(np.log(sv + eps)))
                + 0.5 * float(np.sum(np.abs(cf - af) ** 2)))

    star = ltnn_prox(g, t, eps)
    base = objective(star)
    for k in range(20):
        delta = rng.standard_normal(g.shape)
        delta *= 1e-3 / np.linalg.norm(delta)
        assert objective(star + delta) >= base - 1e-9
