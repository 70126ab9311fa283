"""Observation-operator checks against hand-built references."""

import numpy as np
import pytest

from trfuse.degradation import (DegradationModel, add_noise,
                                build_spectral_operator, contiguous_band_groups,
                                degrade, gaussian_kernel,
                                spatial_operator_from_kernel)
from trfuse.ring import compose, random_init
from trfuse.tensor import mode_n_product


def test_gaussian_kernel_shape_and_normalization():
    for size in (1, 3, 5, 7, 9):
        k = gaussian_kernel(size, 2.0)
        assert k.shape == (size,)
        assert abs(k.sum() - 1.0) < 1e-12
        assert np.all(k > 0)
        # symmetric around the center
        np.testing.assert_allclose(k, k[::-1], atol=1e-15)
    with pytest.raises(ValueError):
        gaussian_kernel(4, 2.0)
    with pytest.raises(ValueError):
        gaussian_kernel(0, 2.0)


def test_gaussian_kernel_with_vanishing_variance_is_the_delta():
    delta = gaussian_kernel(5, 0.0)
    # 2·sigma² underflows to zero at 1e-200 and is subnormal at 1e-160
    for sigma in (1e-200, 1e-160, 5e-324):
        with np.errstate(all="raise"):
            np.testing.assert_array_equal(gaussian_kernel(5, sigma), delta)
    # ordinary widths keep their taps bit for bit
    for sigma in (0.01, 0.7, 1.0, 2.0, 1e3):
        x = np.arange(7) - 3.0
        want = np.exp(-(x * x) / (2.0 * sigma * sigma))
        np.testing.assert_array_equal(gaussian_kernel(7, sigma), want / want.sum())


def test_delta_kernel_gives_pure_selection_rows():
    op = spatial_operator_from_kernel(8, 2, gaussian_kernel(5, 0.0))
    want = np.zeros((4, 8))
    for i in range(4):
        want[i, 2 * i] = 1.0
    np.testing.assert_array_equal(op, want)


def test_two_tap_average_rows():
    # explicit half-half kernel: row i averages samples 2i-... per the
    # center offset (size-1)//2 = 0 for size 2? kernel is length 2, center 0
    op = spatial_operator_from_kernel(6, 2, np.array([0.5, 0.5]))
    want = np.zeros((3, 6))
    for i in range(3):
        want[i, (2 * i) % 6] += 0.5
        want[i, (2 * i + 1) % 6] += 0.5
    np.testing.assert_allclose(op, want, atol=1e-15)


def test_spatial_rows_nonnegative_and_sum_to_one():
    for extent, factor, size, sigma in ((8, 2, 5, 1.0), (16, 4, 7, 2.0),
                                        (12, 3, 9, 0.7)):
        op = spatial_operator_from_kernel(extent, factor,
                                          gaussian_kernel(size, sigma))
        assert op.shape == (extent // factor, extent)
        assert np.all(op >= 0)
        np.testing.assert_allclose(op.sum(axis=1), 1.0, atol=1e-12)


def test_spatial_kernel_wraps_circularly():
    # wide kernel on a small extent: taps must accumulate, never fall off
    op = spatial_operator_from_kernel(4, 2, gaussian_kernel(7, 2.0))
    np.testing.assert_allclose(op.sum(axis=1), 1.0, atol=1e-12)
    k = gaussian_kernel(7, 2.0)
    want = np.zeros(4)
    for j, tap in enumerate(k):
        want[(0 + j - 3) % 4] += tap
    np.testing.assert_allclose(op[0], want, atol=1e-15)


def test_spatial_operator_validation():
    with pytest.raises(ValueError):
        spatial_operator_from_kernel(7, 2, np.array([1.0]))  # not divisible
    with pytest.raises(ValueError):
        spatial_operator_from_kernel(8, 2, np.array([np.nan]))
    with pytest.raises(ValueError):
        spatial_operator_from_kernel(8, 2, np.array([[1.0]]))


def test_contiguous_band_groups_cover_without_overlap():
    for bands, out in ((16, 4), (10, 3), (7, 7), (5, 1)):
        groups = contiguous_band_groups(bands, out)
        assert len(groups) == out
        flat = [i for g in groups for i in g]
        assert flat == list(range(bands))
    with pytest.raises(ValueError):
        contiguous_band_groups(4, 5)


def test_spectral_operator_from_groups_averages():
    op = build_spectral_operator(6, groups=((0, 1, 2), (3, 4, 5)))
    want = np.array([[1, 1, 1, 0, 0, 0], [0, 0, 0, 1, 1, 1]]) / 3.0
    np.testing.assert_allclose(op, want, atol=1e-15)


def test_spectral_operator_partition_validation():
    with pytest.raises(ValueError):
        build_spectral_operator(4, groups=((0, 1), (1, 2, 3)))  # overlap
    with pytest.raises(ValueError):
        build_spectral_operator(4, groups=((0, 1), (3,)))  # gap
    with pytest.raises(ValueError):
        build_spectral_operator(4)  # neither
    with pytest.raises(ValueError):
        build_spectral_operator(4, groups=((0, 1),), response=np.eye(4))  # both


def test_spectral_operator_from_response_row_normalizes():
    r = np.array([[2.0, 2.0, 0.0, 0.0], [0.0, 0.0, 1.0, 3.0]])
    op = build_spectral_operator(4, response=r)
    np.testing.assert_allclose(op.sum(axis=1), 1.0, atol=1e-14)
    np.testing.assert_allclose(op[0], [0.5, 0.5, 0, 0], atol=1e-14)
    np.testing.assert_allclose(op[1], [0, 0, 0.25, 0.75], atol=1e-14)
    with pytest.raises(ValueError):
        build_spectral_operator(4, response=np.zeros((2, 4)))  # zero row sum
    with pytest.raises(ValueError):
        build_spectral_operator(4, response=-np.ones((2, 4)))
    with pytest.raises(ValueError):
        build_spectral_operator(4, response=np.ones((2, 3)))  # wrong width


def test_degrade_matches_explicit_mode_products():
    rng = np.random.default_rng(0)
    x = rng.standard_normal((8, 8, 6))
    model = DegradationModel.build((8, 8, 6), factor=2, kernel_size=5,
                                   sigma=1.0, out_bands=3)
    y, z = degrade(x, model)
    assert y.shape == (4, 4, 6)
    assert z.shape == (8, 8, 3)
    want_y = mode_n_product(mode_n_product(x, model.u1, 0), model.u2, 1)
    want_z = mode_n_product(x, model.u3, 2)
    np.testing.assert_allclose(y, want_y, atol=1e-13)
    np.testing.assert_allclose(z, want_z, atol=1e-13)


def test_degradation_commutes_with_ring_structure():
    # degrading the composed tensor equals composing cores hit by the same
    # matrices on their middle mode; this is what lets the solver work on
    # cores instead of the full cube
    f = random_init((16, 16, 8), (2, 4, 2), seed=11)
    x = compose(f)
    model = DegradationModel.build((16, 16, 8), factor=4, kernel_size=7,
                                   sigma=2.0, out_bands=4)
    y, z = degrade(x, model)

    fy = f.replace_core(0, mode_n_product(f.cores[0], model.u1, 1))
    fy = fy.replace_core(1, mode_n_product(fy.cores[1], model.u2, 1))
    fz = f.replace_core(2, mode_n_product(f.cores[2], model.u3, 1))
    assert np.linalg.norm(compose(fy) - y) < 1e-10 * np.linalg.norm(y)
    assert np.linalg.norm(compose(fz) - z) < 1e-10 * np.linalg.norm(z)


def test_model_build_validation():
    with pytest.raises(ValueError):
        DegradationModel.build((8, 8, 6), factor=3, kernel_size=7, sigma=2.0,
                               out_bands=3)  # 8 % 3
    with pytest.raises(ValueError):
        DegradationModel.build((8, 8, 6), factor=2, kernel_size=7,
                               sigma=2.0)  # no spectral spec
    m = DegradationModel.build((8, 8, 6), factor=2, kernel_size=5, sigma=1.0,
                               response=np.ones((2, 6)))
    assert m.band_groups is None
    assert m.u3.shape == (2, 6)


def test_add_noise_hits_requested_snr():
    rng = np.random.default_rng(1)
    t = rng.standard_normal((24, 24, 8)) + 2.0
    for snr in (15.0, 25.0, 35.0):
        noisy = add_noise(t, snr, rng=np.random.default_rng(99))
        err = noisy - t
        got = 10.0 * np.log10(np.sum(t * t) / np.sum(err * err))
        assert abs(got - snr) < 0.5, f"snr {snr}: measured {got}"


def test_add_noise_none_and_inf_are_identity():
    t = np.ones((3, 3, 3))
    np.testing.assert_array_equal(add_noise(t, None), t)
    np.testing.assert_array_equal(add_noise(t, np.inf), t)
    out = add_noise(t, None)
    out[0, 0, 0] = 5.0
    assert t[0, 0, 0] == 1.0  # returned a copy


def test_add_noise_rejects_nan_and_minus_inf():
    t = np.ones((3, 3, 3))
    for snr in (-np.inf, np.nan, float("nan")):
        with pytest.raises(ValueError, match="snr_db"):
            add_noise(t, snr)


def test_add_noise_at_the_ends_of_the_float_range():
    t = np.random.default_rng(3).uniform(1.0, 2.0, size=(4, 5, 3))
    power = float(np.sum(t * t))
    # a finite, nonzero power of ten keeps the formula bit for bit
    for snr in (3000.0, -3000.0):
        sigma = np.sqrt(power / (t.size * 10.0 ** (snr / 10.0)))
        want = t + sigma * np.random.default_rng(5).standard_normal(t.shape)
        got = add_noise(t, snr, rng=5)
        assert np.all(np.isfinite(got))
        np.testing.assert_array_equal(got, want)
    # 10^400 overflows: no noise, as with None
    np.testing.assert_array_equal(add_noise(t, 4000.0, rng=5), add_noise(t, None))
    # 10^-400 underflows to 0: no finite noise has that SNR
    with pytest.raises(ValueError, match="snr_db of -4000.0 dB"):
        add_noise(t, -4000.0)
    # 10^-310 is subnormal, and sigma overflows
    with pytest.raises(ValueError, match="SNR of -3100.0 dB puts the noise sigma"):
        add_noise(t, -3100.0)


def test_add_noise_determinism_and_zero_rejection():
    t = np.ones((4, 4, 4))
    a = add_noise(t, 20.0, rng=7)
    b = add_noise(t, 20.0, rng=7)
    c = add_noise(t, 20.0, rng=8)
    np.testing.assert_array_equal(a, b)
    assert np.any(a != c)
    with pytest.raises(ValueError):
        add_noise(np.zeros((2, 2, 2)), 20.0)
