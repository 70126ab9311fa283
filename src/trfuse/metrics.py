"""Full-reference quality indices for image cubes on the 0..255 convention.

All functions take two equally shaped 3-way arrays (width, height, bands).
Callers are expected to rescale both cubes with :func:`rescale_pair` first so
the reference spans [0, 255]; the indices themselves are plain arithmetic.
The rescaled cubes keep their (width, height, bands) shape but are stored
band-major, so every band ``x[:, :, b]`` is a contiguous view and the band
walk copies nothing. The indices accept any memory layout; the layout only
decides whether the walk copies.

Every index but SAM comes from one walk over the bands, one band per task.
Bands of at least 192x192 pixels are spread over a pool of threads, one per
CPU the process may run on; smaller ones are scored in the calling thread.
A task returns all a report takes from its band, and results are gathered
in band order, so no output depends on the number of threads.

SSIM and UIQI use the local means only through mu1*mu2 and mu1² + mu2², and
the variances only through var1 + var2, so both take their local moments
from four stacked maps, x, y, x² + y² and xy, under two windows: SSIM's
11x11 Gaussian, and UIQI's box, which makes UIQI SSIM with C1 = C2 = 0
(Wang & Bovik, IEEE SPL 9(3), 2002). A band narrower than the window is one
whole-band window whose moments are centred on the band means before
squaring, so a constant band's variance is at most a squared rounding error
and UIQI skips the band.
"""

from __future__ import annotations

import os
from collections.abc import Callable
from dataclasses import dataclass
from functools import cache, partial
from typing import NamedTuple

import numpy as np

from .degradation import gaussian_kernel

PEAK = 255.0
SSIM_WINDOW = 11
SSIM_SIGMA = 1.5
UIQI_WINDOW = 32
_DENOM_FLOOR = 1e-12


def _check_pair(ref: np.ndarray, est: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    ref = np.asarray(ref, dtype=float)
    est = np.asarray(est, dtype=float)
    if ref.ndim != 3 or est.ndim != 3:
        raise ValueError("metrics expect 3-way tensors")
    if ref.shape != est.shape:
        raise ValueError(f"shape mismatch {ref.shape} vs {est.shape}")
    return ref, est


def reference_map(ref: np.ndarray) -> Callable[..., np.ndarray]:
    """The affine map that takes the reference's range onto [0, 255].

    The map sends a (W, H, B) cube x to (x - min) * 255 / (max - min), stored
    band-major, or into ``out`` (which may be x itself) when given. A constant
    reference has no such map (ValueError).
    """
    lo, hi = float(np.min(ref)), float(np.max(ref))
    if hi == lo:
        raise ValueError("reference tensor is constant; rescale undefined")
    return partial(_affine_band_major, lo=lo, scale=PEAK / (hi - lo))


_RESCALE_SLAB = 8


def _affine_band_major(x: np.ndarray, lo: float, scale: float,
                       out: np.ndarray | None = None) -> np.ndarray:
    # slabs of mode-0 rows are mapped into a temporary in x's own layout and
    # then copied into out: on a C-order x this transposes a cache-sized slab
    # at a time, about three times faster than one strided pass over the cube
    if out is None:
        out = np.empty((x.shape[2], x.shape[0], x.shape[1])).transpose(1, 2, 0)
    for i in range(0, x.shape[0], _RESCALE_SLAB):
        slab = np.subtract(x[i:i + _RESCALE_SLAB], lo)
        slab *= scale
        out[i:i + _RESCALE_SLAB] = slab
    return out


def rescale_pair(ref: np.ndarray, est: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Affinely map the reference range onto [0, 255]; apply the same map to est."""
    ref, est = _check_pair(ref, est)
    to255 = reference_map(ref)
    return to255(ref), to255(est)


def _score_band(ref: np.ndarray, est: np.ndarray, band: int,
                uiqi_window: int) -> tuple[float, float, float, float]:
    """Everything a report takes from one band of a checked pair.

    Returns the band's squared-error sum, its reference sum, its SSIM and its
    UIQI (nan when no UIQI window is usable). The band is copied contiguous
    unless it already is, so both sums see the same contiguous band on any
    layout and give the same bits.
    """
    x = np.ascontiguousarray(ref[:, :, band])
    y = np.ascontiguousarray(est[:, :, band])
    d = x - y
    sq_err = np.vdot(d, d)
    ref_sum = x.sum()
    maps = np.stack((x, y, x * x + y * y, x * y))
    return (sq_err, ref_sum, _ssim_band(maps),
            _uiqi_band(maps, uiqi_window))


def _moments(maps: np.ndarray, mean, window: int) -> tuple:
    """mu1*mu2, mu1² + mu2², var1 + var2 and the covariance, as 2-D maps.

    ``maps`` stacks a band pair's x, y, x² + y² and xy; ``mean`` is the
    valid-mode mean over ``window`` x ``window`` windows of each stacked map.
    Bands narrower than the window get one whole-band window, taken in two
    passes: centring first leaves a constant band a variance of at most a
    squared rounding error, where E[x²] - mu² would leave the error itself.
    """
    if min(maps.shape[1:]) < window:
        x, y = maps[0], maps[1]
        mu1, mu2 = x.mean(), y.mean()
        dx, dy = x - mu1, y - mu2
        stats = (mu1 * mu2, mu1 * mu1 + mu2 * mu2,
                 np.mean(dx * dx) + np.mean(dy * dy), np.mean(dx * dy))
        return tuple(np.full((1, 1), m) for m in stats)
    mu1, mu2, power, cross = mean(maps)
    mu12 = mu1 * mu2
    mu_sq = mu1 * mu1 + mu2 * mu2
    return mu12, mu_sq, power - mu_sq, cross - mu12


def _windowed_mean(maps: np.ndarray, taps: np.ndarray) -> np.ndarray:
    """Valid-mode filter of each stacked map with the window outer(taps, taps).

    Both 1-D passes run down columns, the second on a transposed copy, where
    each is a strided matrix-vector product; overlapping windows along a row
    would take a slower loop. The result is a transposed view.
    """
    sliding = np.lib.stride_tricks.sliding_window_view
    cols = (sliding(maps, taps.size, axis=1) @ taps).transpose(0, 2, 1).copy()
    return (sliding(cols, taps.size, axis=1) @ taps).transpose(0, 2, 1)


_C1 = (0.01 * PEAK) ** 2
_C2 = (0.03 * PEAK) ** 2


def _ssim_band(maps: np.ndarray) -> float:
    """SSIM of one band pair, 11x11 Gaussian window (sigma 1.5).

    The window is separable, so each stacked map is filtered as two 1-D
    passes, one per spatial axis.
    """
    mean = partial(_windowed_mean, taps=gaussian_kernel(SSIM_WINDOW, SSIM_SIGMA))
    mu12, mu_sq, var, cov = _moments(maps, mean, SSIM_WINDOW)
    num = (2.0 * mu12 + _C1) * (2.0 * cov + _C2)
    den = (mu_sq + _C1) * (var + _C2)
    return float(np.mean(num / den))


def _box_mean(maps: np.ndarray, w: int) -> np.ndarray:
    """Valid-mode mean of each stacked map over w x w boxes, from 2-D cumulative sums."""
    c = np.zeros((maps.shape[0], maps.shape[1] + 1, maps.shape[2] + 1))
    sums = c[:, 1:, 1:]
    np.cumsum(maps, axis=1, out=sums)
    np.cumsum(sums, axis=2, out=sums)
    out = c[:, w:, w:] - c[:, :-w, w:]
    out -= c[:, w:, :-w]
    out += c[:, :-w, :-w]
    out /= w * w
    return out


def _uiqi_band(maps: np.ndarray, window: int) -> float:
    """UIQI of one band pair over sliding boxes; vanishing denominators skipped."""
    mu12, mu_sq, var, cov = _moments(maps, partial(_box_mean, w=window), window)
    num = 4.0 * cov * mu12
    den = var * mu_sq
    valid = np.abs(den) > _DENOM_FLOOR
    return float(np.mean(num[valid] / den[valid])) if np.any(valid) else np.nan


@cache
def _pool():
    """The scoring threads, one per CPU this process may run on, made at first use."""
    from concurrent.futures import ThreadPoolExecutor
    return ThreadPoolExecutor(len(os.sched_getaffinity(0)))


# A band takes some sixty numpy calls, and between busy threads each call
# hands the GIL over. On a 2-CPU host the hand-offs cost more than the second
# CPU saves up to bands of about 160x160 pixels, so bands smaller than this
# are scored in the calling thread.
_POOL_MIN_PIXELS = 192 * 192


class _BandScores(NamedTuple):
    sq_err: np.ndarray   # sum of squared errors per band
    ref_sum: np.ndarray  # sum of the reference per band
    ssim: np.ndarray
    uiqi: np.ndarray


def _walk(ref: np.ndarray, est: np.ndarray,
          uiqi_window: int = UIQI_WINDOW) -> _BandScores:
    """Score every band of a checked pair, gathered in band order.

    Each band is scored whole by one worker, so the scores do not depend on
    the number of workers, nor on whether the bands ran on the pool.
    """
    score = partial(_score_band, ref, est, uiqi_window=uiqi_window)
    bands = range(ref.shape[2])
    if ref.shape[0] * ref.shape[1] >= _POOL_MIN_PIXELS:
        rows = list(_pool().map(score, bands))
    else:
        rows = list(map(score, bands))
    return _BandScores(*np.array(rows, dtype=float).reshape(-1, 4).T)


def _psnr_from(scores: _BandScores, pixels: int) -> np.ndarray:
    mse = scores.sq_err / pixels
    out = np.full(mse.shape, np.inf)
    nz = mse > 0
    out[nz] = 10.0 * np.log10(PEAK * PEAK / mse[nz])
    return out


def _ergas_from(scores: _BandScores, pixels: int, factor: float) -> float:
    rmse = np.sqrt(scores.sq_err / pixels)
    means = scores.ref_sum / pixels
    if np.any(means == 0):
        raise ValueError("ergas undefined: a reference band has zero mean")
    return float(100.0 / factor * np.sqrt(np.mean((rmse / means) ** 2)))


def _check_factor(factor: float) -> None:
    if factor <= 0:
        raise ValueError("resolution factor must be positive")


def psnr_per_band(ref: np.ndarray, est: np.ndarray) -> np.ndarray:
    ref, est = _check_pair(ref, est)
    return _psnr_from(_walk(ref, est), ref.shape[0] * ref.shape[1])


def psnr(ref: np.ndarray, est: np.ndarray) -> float:
    """Band-averaged peak signal-to-noise ratio; +inf for identical inputs."""
    return float(np.mean(psnr_per_band(ref, est)))


def ssim(ref: np.ndarray, est: np.ndarray) -> float:
    """Band-averaged structural similarity, 11x11 Gaussian window (sigma 1.5).

    Bands narrower than the window fall back to global statistics.
    """
    ref, est = _check_pair(ref, est)
    return float(np.mean(_walk(ref, est).ssim))


def ergas(ref: np.ndarray, est: np.ndarray, factor: float) -> float:
    """Relative global dimensionless synthesis error at resolution ratio ``factor``."""
    ref, est = _check_pair(ref, est)
    _check_factor(factor)
    return _ergas_from(_walk(ref, est), ref.shape[0] * ref.shape[1], factor)


def _sam_and_skipped(ref: np.ndarray, est: np.ndarray) -> tuple[float, int]:
    """SAM and its count of skipped zero spectra, on a checked pair."""
    # per-pixel dots accumulated band by band, in band order: each band is a
    # view, nothing cube-sized is copied, and every layout sums in one order
    plane = ref.shape[:2]
    aa, bb, ab, prod = (np.zeros(plane) for _ in range(4))
    equal = np.ones(plane, dtype=bool)
    for b in range(ref.shape[2]):
        r, e = ref[:, :, b], est[:, :, b]
        aa += np.multiply(r, r, out=prod)
        bb += np.multiply(e, e, out=prod)
        ab += np.multiply(r, e, out=prod)
        equal &= r == e
    na, nb = np.sqrt(aa), np.sqrt(bb)
    keep = (na > 0) & (nb > 0)
    skipped = int(np.size(na) - np.count_nonzero(keep))
    if not np.any(keep):
        raise ValueError("sam undefined: every spectral vector is zero")
    if ref.shape[2] < 2:
        # one-element spectra are colinear or opposite: a sign test, not an angle
        return np.nan, skipped
    cosang = ab[keep] / (na[keep] * nb[keep])
    angles = np.degrees(np.arccos(np.clip(cosang, -1.0, 1.0)))
    # arccos near 1 cannot resolve the zero angle of bit-equal spectra
    angles[equal[keep]] = 0.0
    return float(np.mean(angles)), skipped


def sam(ref: np.ndarray, est: np.ndarray) -> float:
    """Mean spectral angle in degrees; zero-spectrum pixels are skipped.

    nan on cubes with fewer than two bands, where no angle is defined.
    """
    return _sam_and_skipped(*_check_pair(ref, est))[0]


def uiqi_per_band(ref: np.ndarray, est: np.ndarray,
                  window: int = UIQI_WINDOW) -> np.ndarray:
    """Universal image quality index per band over sliding windows (stride 1).

    Vanishing-denominator windows are skipped; bands narrower than the window
    use one global window. A band with no usable window yields nan.
    """
    ref, est = _check_pair(ref, est)
    if window < 1:
        raise ValueError("window must be positive")
    return _walk(ref, est, window).uiqi


def uiqi(ref: np.ndarray, est: np.ndarray, window: int = UIQI_WINDOW) -> float:
    return _uiqi_from_bands(uiqi_per_band(ref, est, window))


def _uiqi_from_bands(per_band: np.ndarray) -> float:
    if np.all(np.isnan(per_band)):
        raise ValueError("uiqi undefined: no band has a usable window")
    return float(np.nanmean(per_band))


@dataclass(frozen=True)
class MetricsReport:
    psnr: float
    ssim: float
    ergas: float
    sam: float
    uiqi: float
    sam_skipped: int
    psnr_per_band: tuple[float, ...]
    uiqi_per_band: tuple[float, ...]

    def scalars(self) -> dict:
        return {"psnr": self.psnr, "ssim": self.ssim, "ergas": self.ergas,
                "sam": self.sam, "uiqi": self.uiqi,
                "sam_skipped": self.sam_skipped}


def metrics_report(ref: np.ndarray, est: np.ndarray, factor: float) -> MetricsReport:
    """All five indices plus per-band psnr/uiqi curves, on already scaled cubes.

    One band walk yields every per-band score, and the band averages derive
    from it.
    """
    ref, est = _check_pair(ref, est)
    _check_factor(factor)
    sam_value, skipped = _sam_and_skipped(ref, est)
    scores = _walk(ref, est)
    pixels = ref.shape[0] * ref.shape[1]
    psnr_bands = _psnr_from(scores, pixels)
    return MetricsReport(
        psnr=float(np.mean(psnr_bands)),
        ssim=float(np.mean(scores.ssim)),
        ergas=_ergas_from(scores, pixels, factor),
        sam=sam_value,
        uiqi=_uiqi_from_bands(scores.uiqi),
        sam_skipped=skipped,
        psnr_per_band=tuple(float(v) for v in psnr_bands),
        uiqi_per_band=tuple(float(v) for v in scores.uiqi),
    )
