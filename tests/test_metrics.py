"""Quality indices checked against naive from-the-definition references.

The reference implementations below loop over bands and window positions and
compute every statistic directly, sharing no code with the module under test.
"""

import math
import os
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import trfuse.metrics
from helpers import einsum_sam
from trfuse.metrics import (MetricsReport, _sam_from, _walk, ergas,
                            metrics_report, psnr, psnr_per_band, rescale_pair,
                            sam, ssim, uiqi, uiqi_per_band)

PEAK = 255.0


def _pair(shape, seed, spread=60.0):
    rng = np.random.default_rng(seed)
    ref = rng.uniform(10.0, 250.0, size=shape)
    est = ref + rng.normal(0.0, spread / 10.0, size=shape)
    return ref, est


def _flat_pair(shape, seed):
    # a reference band constant at 42.1 and one near-constant ramp, each
    # under an estimate with noise: the local variances of the reference are
    # rounding-sized, so var1 + var2 formed from one filtered x² + y² map
    # must cancel E[x²] against mu² as cleanly as a per-map variance does
    ref, est = _pair(shape, seed)
    rng = np.random.default_rng(seed + 100)
    ref[:, :, 0] = 42.1
    ref[:, :, 1] = 42.1 + 1e-4 * np.arange(shape[0])[:, None]
    est[:, :, :2] = ref[:, :, :2] + rng.normal(0.0, 6.0, size=shape[:2] + (2,))
    return ref, est


def _naive_psnr(ref, est):
    vals = []
    for b in range(ref.shape[2]):
        acc = 0.0
        for i in range(ref.shape[0]):
            for j in range(ref.shape[1]):
                d = ref[i, j, b] - est[i, j, b]
                acc += d * d
        mse = acc / (ref.shape[0] * ref.shape[1])
        vals.append(np.inf if mse == 0 else 10.0 * np.log10(PEAK * PEAK / mse))
    return float(np.mean(vals))


def _naive_ergas(ref, est, factor):
    acc = 0.0
    for b in range(ref.shape[2]):
        diff = ref[:, :, b] - est[:, :, b]
        rmse = np.sqrt(np.mean(diff * diff))
        acc += (rmse / np.mean(ref[:, :, b])) ** 2
    return float(100.0 / factor * np.sqrt(acc / ref.shape[2]))


def _naive_ssim(ref, est):
    x1 = np.arange(11) - 5.0
    g = np.exp(-(x1 * x1) / (2.0 * 1.5 * 1.5))
    win = np.outer(g, g)
    win /= win.sum()
    c1 = (0.01 * PEAK) ** 2
    c2 = (0.03 * PEAK) ** 2
    vals = []
    for b in range(ref.shape[2]):
        x, y = ref[:, :, b], est[:, :, b]
        scores = []
        for i in range(x.shape[0] - 10):
            for j in range(x.shape[1] - 10):
                px = x[i:i + 11, j:j + 11]
                py = y[i:i + 11, j:j + 11]
                mu1 = float((win * px).sum())
                mu2 = float((win * py).sum())
                v1 = float((win * px * px).sum()) - mu1 * mu1
                v2 = float((win * py * py).sum()) - mu2 * mu2
                cov = float((win * px * py).sum()) - mu1 * mu2
                num = (2 * mu1 * mu2 + c1) * (2 * cov + c2)
                den = (mu1 * mu1 + mu2 * mu2 + c1) * (v1 + v2 + c2)
                scores.append(num / den)
        vals.append(float(np.mean(scores)))
    return float(np.mean(vals))


def _naive_uiqi(ref, est, w):
    vals = []
    for b in range(ref.shape[2]):
        x, y = ref[:, :, b], est[:, :, b]
        scores = []
        for i in range(x.shape[0] - w + 1):
            for j in range(x.shape[1] - w + 1):
                px = x[i:i + w, j:j + w]
                py = y[i:i + w, j:j + w]
                mu1, mu2 = float(px.mean()), float(py.mean())
                v1 = float((px * px).mean()) - mu1 * mu1
                v2 = float((py * py).mean()) - mu2 * mu2
                cov = float((px * py).mean()) - mu1 * mu2
                num = 4.0 * cov * mu1 * mu2
                den = (v1 + v2) * (mu1 * mu1 + mu2 * mu2)
                if abs(den) > 1e-12:
                    scores.append(num / den)
        vals.append(float(np.mean(scores)) if scores else np.nan)
    return float(np.nanmean(vals))


def test_psnr_matches_naive_reference():
    for shape, seed in (((16, 18, 3), 0), ((25, 21, 4), 1), ((40, 33, 2), 2)):
        ref, est = _pair(shape, seed)
        assert abs(psnr(ref, est) - _naive_psnr(ref, est)) < 1e-8


def test_psnr_identical_is_infinite_and_bands_mix():
    ref, est = _pair((16, 16, 3), 3)
    est[:, :, 1] = ref[:, :, 1]  # one perfect band
    per = psnr_per_band(ref, est)
    assert per[1] == np.inf and np.isfinite(per[0]) and np.isfinite(per[2])
    assert psnr(ref, ref) == np.inf


def test_ergas_matches_naive_reference():
    for shape, seed, factor in (((16, 16, 3), 4, 4.0), ((30, 26, 5), 5, 2.0)):
        ref, est = _pair(shape, seed)
        got = ergas(ref, est, factor)
        assert abs(got - _naive_ergas(ref, est, factor)) < 1e-8
    ref, est = _pair((8, 8, 2), 6)
    with pytest.raises(ValueError):
        ergas(ref, est, 0.0)
    ref[:, :, 1] = 0.0
    with pytest.raises(ValueError, match="reference band 1 has zero mean"):
        ergas(ref, est, 4.0)


def test_ssim_matches_naive_reference():
    # non-square bands, and bands exactly one and two pixels wider than
    # the window's ten-pixel reach along either axis
    for shape, seed in (((16, 17, 2), 7), ((24, 20, 3), 8), ((11, 19, 2), 18),
                        ((21, 11, 2), 19), ((12, 15, 2), 20), ((14, 12, 2), 21),
                        ((11, 12, 1), 22)):
        ref, est = _pair(shape, seed)
        assert abs(ssim(ref, est) - _naive_ssim(ref, est)) < 1e-8
    ref, est = _flat_pair((16, 17, 3), 25)
    assert abs(ssim(ref, est) - _naive_ssim(ref, est)) < 1e-8
    ref, est = _pair((20, 20, 2), 9)
    assert abs(ssim(ref, ref) - 1.0) < 1e-12


def test_ssim_small_image_uses_global_stats():
    ref, est = _pair((8, 8, 2), 10)
    c1 = (0.01 * PEAK) ** 2
    c2 = (0.03 * PEAK) ** 2
    vals = []
    for b in range(2):
        x, y = ref[:, :, b], est[:, :, b]
        mu1, mu2 = x.mean(), y.mean()
        cov = float(np.mean((x - mu1) * (y - mu2)))
        num = (2 * mu1 * mu2 + c1) * (2 * cov + c2)
        den = (mu1 ** 2 + mu2 ** 2 + c1) * (x.var() + y.var() + c2)
        vals.append(num / den)
    assert abs(ssim(ref, est) - float(np.mean(vals))) < 1e-10


def test_uiqi_matches_naive_reference_windowed():
    # a band larger than the window, bands as wide as the window and one
    # wider along either axis
    for shape, seed in (((36, 34, 3), 11), ((32, 32, 2), 12), ((32, 33, 2), 23),
                        ((33, 32, 2), 24)):
        ref, est = _pair(shape, seed)
        assert abs(uiqi(ref, est) - _naive_uiqi(ref, est, 32)) < 1e-8
    ref, est = _flat_pair((36, 34, 3), 26)
    assert abs(uiqi(ref, est) - _naive_uiqi(ref, est, 32)) < 1e-8


def test_uiqi_small_image_global_window_and_nan_band():
    # constant band: denominator vanishes everywhere, band skipped as nan;
    # the mean of 42.1s is inexact, so E[x²] - mu² would leave a variance
    # near 1e-12 where moments centred before squaring leave about 1e-28
    for level in (42.0, 42.1):
        ref, est = _pair((10, 10, 2), 13)
        ref[:, :, 1] = level
        est[:, :, 1] = level
        per = uiqi_per_band(ref, est)
        assert np.isnan(per[1]) and np.isfinite(per[0])
        assert abs(uiqi(ref, est) - per[0]) < 1e-12
    flat_ref = np.full((10, 10, 1), 7.0)
    with pytest.raises(ValueError):
        uiqi(flat_ref, flat_ref.copy())


def test_uiqi_perfect_match_on_varied_image():
    ref, _ = _pair((33, 33, 2), 14)
    assert abs(uiqi(ref, ref.copy()) - 1.0) < 1e-10


def _exact_uiqi_per_band(ref, est, w):
    # on cubes of multiples of 2**-16 below 256, every box sum, moment and
    # product is an exact Python int once scaled by 2**16, and int / int is
    # correctly rounded, so the only rounding is in the final mean
    unit = 2.0 ** 16
    vals = []
    for b in range(ref.shape[2]):
        x, y = ((c[:, :, b] * unit).astype(np.int64).astype(object)
                for c in (ref, est))

        def box(m):
            c = np.zeros((m.shape[0] + 1, m.shape[1] + 1), dtype=object)
            c[1:, 1:] = m.cumsum(axis=0).cumsum(axis=1)
            return c[w:, w:] - c[:-w, w:] - c[w:, :-w] + c[:-w, :-w]

        sx, sy, spow, sxy = box(x), box(y), box(x * x + y * y), box(x * y)
        mu12, mu_sq = sx * sy, sx * sx + sy * sy  # times (w² · 2**16)²
        cov, var = w * w * sxy - mu12, w * w * spow - mu_sq
        q = (4 * cov * mu12) / (var * mu_sq)
        vals.append(math.fsum(q.ravel()) / q.size)
    return np.array(vals)


def test_uiqi_is_accurate_on_a_near_flat_pair():
    # local variances of about 250 under means of about 227, so var1 + var2
    # cancels E[x² + y²] against mu1² + mu2² two hundredfold: the local means
    # must be accurate to a few ulps for UIQI to be
    rng = np.random.default_rng(28)
    ref = rng.uniform(200.0, 255.0, size=(128, 128, 2))
    est = ref + rng.normal(0.0, 1.0, size=ref.shape)
    # on the 2**-16 grid x² + y² and xy are exact in floating point too
    ref, est = (np.rint(c * 2.0 ** 16) / 2.0 ** 16 for c in (ref, est))
    want = _exact_uiqi_per_band(ref, est, 32)
    got = uiqi_per_band(ref, est)
    assert np.all(np.abs(got - want) <= 2e-15 * np.abs(want))


def test_sam_reference_angles_exact():
    # spectra with perfect-square norms keep the cosine arithmetic exact;
    # expected angles 0 (colinear), 90 (orthogonal), 0 (identical) -> mean 30
    ref = np.zeros((3, 1, 2))
    est = np.zeros((3, 1, 2))
    ref[0, 0] = [3.0, 4.0]
    est[0, 0] = [6.0, 8.0]
    ref[1, 0] = [3.0, 0.0]
    est[1, 0] = [0.0, 4.0]
    ref[2, 0] = [3.0, 4.0]
    est[2, 0] = [3.0, 4.0]
    assert sam(ref, est) == 30.0
    rng = np.random.default_rng(15)
    cube = rng.uniform(1.0, 2.0, size=(9, 9, 4))
    assert sam(cube, cube.copy()) == 0.0
    # generic positive scaling is colinear only up to rounding in the norms
    assert abs(sam(cube, 3.0 * cube)) < 1e-5


def test_sam_forty_five_degrees():
    ref = np.zeros((1, 1, 2))
    est = np.zeros((1, 1, 2))
    ref[0, 0] = [1.0, 0.0]
    est[0, 0] = [1.0, 1.0]
    assert abs(sam(ref, est) - 45.0) < 1e-10


def test_sam_skips_zero_spectra():
    ref = np.ones((2, 2, 3))
    est = np.ones((2, 2, 3))
    ref[0, 0] = 0.0          # zero reference spectrum
    est[1, 1] = 0.0          # zero estimate spectrum
    report = metrics_report(ref, est, factor=2.0)
    assert report.sam_skipped == 2
    assert report.sam == 0.0
    with pytest.raises(ValueError):
        sam(np.zeros((2, 2, 2)), np.zeros((2, 2, 2)))


@settings(max_examples=100, derandomize=True, deadline=None, database=None)
@given(dims=st.tuples(st.integers(1, 12), st.integers(1, 12), st.integers(1, 9)),
       zeros=st.integers(0, 4), equal=st.integers(0, 4),
       seed=st.integers(0, 2**32 - 1))
def test_sam_matches_the_per_spectrum_oracle(dims, zeros, equal, seed):
    rng = np.random.default_rng(seed)
    ref = rng.uniform(0.0, 255.0, size=dims)
    est = ref + rng.normal(0.0, 20.0, size=dims)
    # zero spectra alternate between the two cubes; bit-equal ones follow
    pixels = [divmod(int(p), dims[1]) for p in rng.permutation(dims[0] * dims[1])]
    for n, pixel in enumerate(pixels[:zeros]):
        (ref if n % 2 else est)[pixel] = 0.0
    for pixel in pixels[zeros:zeros + equal]:
        est[pixel] = ref[pixel]
    # a pair with no spectrum nonzero in both cubes has no SAM
    assume(np.any(np.any(ref, axis=2) & np.any(est, axis=2)))
    want, skipped = einsum_sam(ref, est)
    got, got_skipped = _sam_from(_walk(ref, est))
    assert got_skipped == skipped
    if np.isnan(want):
        assert np.isnan(got)
    else:
        assert abs(got - want) <= 1e-12 * want
    np.testing.assert_array_equal(sam(ref, est), got)


def test_sam_is_nan_on_a_single_band():
    # one-element spectra only differ in sign: 0 or 180 degrees, no angle
    rng = np.random.default_rng(18)
    ref = rng.uniform(1.0, 2.0, size=(5, 4, 1))
    est = ref.copy()
    est[0, 0, 0] = -1.0
    assert np.isnan(sam(ref, est))
    report = metrics_report(ref, est, factor=2.0)
    assert np.isnan(report.sam) and np.isnan(report.scalars()["sam"])
    # the report maps the reference's minimum to 0: one zero spectrum
    assert report.sam_skipped == 1
    assert np.isfinite(report.psnr)


def _band_major(cube):
    # the layout spectral_lift_baseline returns: each band contiguous
    return np.ascontiguousarray(np.moveaxis(cube, 2, 0)).transpose(1, 2, 0)


def test_rescale_pair_affine_map():
    rng = np.random.default_rng(16)
    ref = rng.uniform(-3.0, 5.0, size=(19, 11, 3))
    est = rng.uniform(-4.0, 6.0, size=(19, 11, 3))
    ref2, est2 = rescale_pair(ref, _band_major(est))
    assert abs(ref2.min() - 0.0) < 1e-12
    assert abs(ref2.max() - PEAK) < 1e-12
    scale = PEAK / (ref.max() - ref.min())
    np.testing.assert_array_equal(est2, (est - ref.min()) * scale)
    assert ref2.flags.c_contiguous and est2.flags.c_contiguous
    with pytest.raises(ValueError, match="reference tensor is constant"):
        rescale_pair(np.ones((2, 2, 2)), np.zeros((2, 2, 2)))


def test_report_does_not_depend_on_the_layout():
    rng = np.random.default_rng(18)
    # own units, a non-square band, one band narrower than SSIM's window
    for dims in ((12, 9, 4), (40, 35, 3)):
        gt = rng.uniform(-2.0, 7.0, size=dims)
        est = gt + rng.normal(0.0, 0.3, size=dims)
        report = metrics_report(gt, est, factor=2.0)
        assert metrics_report(gt, _band_major(est), factor=2.0) == report
        assert metrics_report(_band_major(gt), est, factor=2.0) == report
        # mapping band by band gives the bits of the mapped cubes
        ref255, est255 = rescale_pair(gt, est)
        assert report.psnr == psnr(ref255, est255)
        assert report.ssim == ssim(ref255, est255)
        assert report.ergas == ergas(ref255, est255, 2.0)
        assert report.sam == sam(ref255, est255)
        assert report.uiqi == uiqi(ref255, est255)
        assert report.psnr_per_band == tuple(psnr_per_band(ref255, est255))
        assert report.uiqi_per_band == tuple(uiqi_per_band(ref255, est255))


# one band, bands narrower than SSIM's 11 and UIQI's 32 window, non-square bands
@settings(max_examples=100, derandomize=True, deadline=None, database=None)
@given(dims=st.tuples(st.integers(1, 40), st.integers(1, 40), st.integers(1, 5)),
       seed=st.integers(0, 2**32 - 1))
def test_indices_do_not_depend_on_the_layout(dims, seed):
    assume(np.prod(dims) > 1)  # a one-voxel reference is constant
    rng = np.random.default_rng(seed)
    ref = rng.uniform(0.0, 1.0, size=dims)
    est = ref + rng.normal(0.0, 0.05, size=dims)
    ref_c, est_c = rescale_pair(ref, est)
    ref_b, est_b = _band_major(ref_c), _band_major(est_c)
    # every index sums in one order on any layout, so all five are bit-equal
    for index in (psnr_per_band, uiqi_per_band, ssim, sam):
        np.testing.assert_array_equal(index(ref_b, est_b), index(ref_c, est_c))
    # a one-pixel band at the reference's minimum has zero mean: no ergas
    assert _outcome(ergas, ref_b, est_b, 2.0) == _outcome(ergas, ref_c, est_c, 2.0)


def _outcome(index, *args):
    try:
        return index(*args)
    except ValueError as exc:
        return str(exc)


def test_shape_validation():
    with pytest.raises(ValueError):
        psnr(np.zeros((2, 2)), np.zeros((2, 2)))
    with pytest.raises(ValueError):
        ssim(np.zeros((2, 2, 2)), np.zeros((2, 2, 3)))


def test_scores_do_not_depend_on_the_worker_count(monkeypatch):
    # every band goes to the pool, however small
    for shape in ((16, 17, 3), (96, 97, 3), (192, 193, 3)):
        ref, est = _pair(shape, 27)
        reports, used = [], []
        for workers in (1, 4):
            with ThreadPoolExecutor(workers) as pool:
                monkeypatch.setattr(trfuse.metrics, "_pool",
                                    lambda: used.append(workers) or pool)
                reports.append(metrics_report(ref, est, factor=2.0))
        assert used == [1, 4], shape
        # each band is scored whole by one worker and gathered in band order
        assert reports[0] == reports[1], shape


def test_the_pool_is_sized_without_sched_getaffinity(monkeypatch):
    # os.sched_getaffinity is Linux only; elsewhere the pool counts the CPUs
    ref, est = _pair((192, 192, 2), 31)
    want = metrics_report(ref, est, factor=2.0)
    trfuse.metrics._pool.cache_clear()
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    try:
        assert metrics_report(ref, est, factor=2.0) == want
    finally:
        trfuse.metrics._pool.cache_clear()


def test_sam_of_bit_equal_spectra_on_the_pool():
    ref, est = _pair((200, 200, 5), 33)
    rng = np.random.default_rng(34)
    copied = rng.random(ref.shape[:2]) < 0.25
    copied[0, 0] = True
    ref[0, 0, 2] = 0.0
    est[copied] = ref[copied]
    est[0, 0, 2] = -0.0  # equal to +0, though not in its bits
    # value-equal spectra, signed zeros included, leave x·x, e·e and x·e
    # bit-equal, and here no other spectrum does
    scores = _walk(ref, est)
    np.testing.assert_array_equal(
        (scores.xe == scores.xx) & (scores.xe == scores.ee), copied)
    want, _ = einsum_sam(ref, est)
    assert abs(_sam_from(scores)[0] - want) <= 1e-12 * want
    # every spectrum value-equal: every angle is 0, the mean exactly 0
    copy = ref.copy()
    copy[0, 0, 2] = -0.0
    assert sam(ref, copy) == 0.0


@pytest.mark.parametrize("shape", [(16, 17, 3), (192, 193, 3)])
def test_a_band_whose_scores_overflow_is_an_error(shape):
    # small bands and large: the band's index, not inf or 0
    ref, est = _pair(shape, 29)
    est[:, :, 1] *= 1e160
    with np.errstate(over="ignore"), pytest.raises(
            ValueError, match="band 1 cannot be scored: overflow"):
        metrics_report(ref, est, factor=2.0)
    with pytest.raises(ValueError, match="band 1 cannot be scored"):
        psnr(ref, est)


def test_metrics_report_wires_everything_together():
    gt, est_gt = _pair((36, 33, 3), 17)
    report = metrics_report(gt, est_gt, factor=4.0)
    assert isinstance(report, MetricsReport)
    assert np.all(np.isfinite(report.psnr_per_band))
    # one scoring pass must reproduce the standalone indices bit for bit
    ref, est = rescale_pair(gt, est_gt)
    assert report.psnr == psnr(ref, est)
    assert report.ssim == ssim(ref, est)
    assert report.ergas == ergas(ref, est, 4.0)
    assert report.sam == sam(ref, est)
    assert report.uiqi == uiqi(ref, est)
    assert report.psnr_per_band == tuple(psnr_per_band(ref, est))
    assert report.uiqi_per_band == tuple(uiqi_per_band(ref, est))
    assert report.sam_skipped == 0
    assert len(report.psnr_per_band) == 3
    assert len(report.uiqi_per_band) == 3
    # every band flat, the reference not constant: no UIQI window is usable
    flat = np.full((10, 10, 2), 7.0)
    flat[:, :, 1] = 9.0
    with pytest.raises(ValueError, match="uiqi undefined"):
        metrics_report(flat, flat.copy(), factor=4.0)
    with pytest.raises(ValueError, match="reference tensor is constant"):
        metrics_report(np.full((10, 10, 2), 7.0), flat, factor=4.0)
    scalars = report.scalars()
    assert set(scalars) == {"psnr", "ssim", "ergas", "sam", "uiqi",
                            "sam_skipped"}
