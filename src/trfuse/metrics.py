"""Full-reference quality indices for image cubes on the 0..255 convention.

All functions take two equally shaped 3-way arrays (width, height, bands).
:func:`metrics_report` takes both cubes in their own units: it finds the
reference's span once, and each band task maps its two bands onto [0, 255]
with (x - min) * 255 / (max - min) as it reads them. The single indices
(:func:`psnr`, :func:`ssim`, ...) are plain arithmetic on the cubes they are
given, the same walk under the identity map. The walk makes no cube-sized
copy, and every memory layout gives the same bits.

Every index comes from one walk over the bands, one band per task. The
walk reads the estimate through a function of the band index, so an
estimate can be made band by band and never held whole. Every band is scored
on a pool of threads, one per CPU the process may run on, except by
:func:`band_report`, which scores them in order on the calling thread. A
task returns all a report takes from its band, and the walk takes the
results in band order, adding each mapped pair into SAM's per-pixel sums, so
no output depends on the number of threads.

SSIM and UIQI are one index, the mean over sliding windows of
(2 mu1 mu2 + c1)(2 cov + c2) / ((mu1² + mu2² + c1)(var1 + var2 + c2)):
SSIM under an 11x11 Gaussian window (sigma 1.5) with its C1 and C2, UIQI
under a 32x32 box with c1 = c2 = 0 (Wang & Bovik, IEEE SPL 9(3), 2002).
Both windows are separable, so one filter serves both, and the index uses
the local means only through mu1 mu2 and mu1² + mu2² and the variances only
through var1 + var2; it filters four stacked maps, x, y, x² + y² and xy.
A band narrower than the window is one whole-band window whose moments are
centred on the band means before squaring, so a constant band's variance is
at most a squared rounding error and UIQI skips the band.
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


def reference_span(ref: np.ndarray) -> tuple[float, float]:
    """(min, 255 / (max - min)): the map of the reference's range onto [0, 255].

    A constant reference has no such map (ValueError).
    """
    lo, hi = float(np.min(ref)), float(np.max(ref))
    if hi == lo:
        raise ValueError("reference tensor is constant; rescale undefined")
    return lo, PEAK / (hi - lo)


def _mapped(x: np.ndarray, lo: float, scale: float) -> np.ndarray:
    """(x - lo) * scale, rounded in that order, in a fresh C-order array."""
    out = np.subtract(x, lo, order="C")
    out *= scale
    return out


def _bands(cube: np.ndarray) -> Callable[[int], np.ndarray]:
    """Band b of ``cube`` as a function of b."""
    return lambda band: cube[:, :, band]


def _score_band(ref: np.ndarray, est_band: Callable[[int], np.ndarray],
                lo: float, scale: float,
                band: int) -> tuple[tuple[float, float, float, float],
                                    np.ndarray, np.ndarray]:
    """Everything a report takes from one band of ref and ``est_band(band)``.

    Both bands are mapped into fresh C-order arrays, so the sums see the
    same contiguous band on any layout and give the same bits. Returns the
    band's squared-error sum, its reference sum, its SSIM and its UIQI (nan
    when no UIQI window is usable), then the two mapped bands. A band whose
    arithmetic overflows the float range has no scores (ValueError).
    """
    try:
        with np.errstate(over="raise"):
            x = _mapped(ref[:, :, band], lo, scale)
            y = _mapped(est_band(band), lo, scale)
            d = x - y
            sq_err = np.vdot(d, d)  # a BLAS sum, which raises nothing itself
            if np.isinf(sq_err):
                raise FloatingPointError("overflow in the squared error")
            ref_sum = x.sum()
            maps = np.stack((x, y, x * x + y * y, x * y))
            scores = (sq_err, ref_sum, _windowed_index(maps, _SSIM_TAPS, _C1, _C2),
                      _windowed_index(maps, _UIQI_TAPS, 0.0, 0.0))
    except FloatingPointError as exc:
        raise ValueError(f"band {band} cannot be scored: {exc}") from None
    return scores, x, y


def _moments(maps: np.ndarray, taps: np.ndarray) -> tuple:
    """mu1*mu2, mu1² + mu2², var1 + var2 and the covariance, as 2-D maps.

    ``maps`` stacks a band pair's x, y, x² + y² and xy; the window is
    outer(taps, taps). Bands narrower than the window get one whole-band
    window, taken in two passes: centring first leaves a constant band a
    variance of at most a squared rounding error, where E[x²] - mu² would
    leave the error itself.
    """
    if min(maps.shape[1:]) < taps.size:
        x, y = maps[0], maps[1]
        mu1, mu2 = x.mean(), y.mean()
        dx, dy = x - mu1, y - mu2
        stats = (mu1 * mu2, mu1 * mu1 + mu2 * mu2,
                 np.mean(dx * dx) + np.mean(dy * dy), np.mean(dx * dy))
        return tuple(np.full((1, 1), m) for m in stats)
    mu1, mu2, power, cross = _windowed_mean(maps, taps)
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


_SSIM_TAPS = gaussian_kernel(SSIM_WINDOW, SSIM_SIGMA)
_UIQI_TAPS = np.full(UIQI_WINDOW, 1.0 / UIQI_WINDOW)
_C1 = (0.01 * PEAK) ** 2
_C2 = (0.03 * PEAK) ** 2


def _windowed_index(maps: np.ndarray, taps: np.ndarray,
                    c1: float, c2: float) -> float:
    """SSIM (c1 = C1, c2 = C2) or UIQI (c1 = c2 = 0) of one band pair.

    Windows whose denominator vanishes are skipped, which only UIQI's can:
    SSIM's is at least C1·C2. A band with no usable window yields nan.
    """
    mu12, mu_sq, var, cov = _moments(maps, taps)
    num = (2.0 * mu12 + c1) * (2.0 * cov + c2)
    den = (mu_sq + c1) * (var + c2)
    valid = np.abs(den) > _DENOM_FLOOR
    if valid.all():
        # gathering the usable windows would copy both maps for nothing
        return float(np.mean(num / den))
    return float(np.mean(num[valid] / den[valid])) if valid.any() else np.nan


@cache
def _pool():
    """The scoring threads, one per CPU this process may run on, made at first use."""
    from concurrent.futures import ThreadPoolExecutor
    if hasattr(os, "sched_getaffinity"):  # Linux only
        return ThreadPoolExecutor(len(os.sched_getaffinity(0)))
    return ThreadPoolExecutor(os.cpu_count() or 1)


class _BandScores(NamedTuple):
    sq_err: np.ndarray   # sum of squared errors per band
    ref_sum: np.ndarray  # sum of the reference per band
    ssim: np.ndarray
    uiqi: np.ndarray
    xx: np.ndarray       # per-pixel spectral dots x·x, e·e and x·e
    ee: np.ndarray
    xe: np.ndarray


def _walk(ref: np.ndarray, est_band: Callable[[int], np.ndarray],
          lo: float = 0.0, scale: float = 1.0, map_=None) -> _BandScores:
    """Score each band of ref against ``est_band(band)``, mapped by (v - lo) * scale.

    The identity map (lo 0, scale 1) is exact. Every band is scored whole by
    one call of ``map_`` (the pool's by default; the builtin ``map`` scores
    them in order on this thread), and the walk takes the results in band
    order, adding each mapped pair into SAM's per-pixel sums, so the scores
    do not depend on the number of workers.
    """
    score = partial(_score_band, ref, est_band, lo, scale)
    xx, ee, xe, prod = (np.zeros(ref.shape[:2]) for _ in range(4))
    rows = []
    for row, x, e in (map_ or _pool().map)(score, range(ref.shape[2])):
        rows.append(row)
        xx += np.multiply(x, x, out=prod)
        ee += np.multiply(e, e, out=prod)
        xe += np.multiply(x, e, out=prod)
    return _BandScores(*np.array(rows, dtype=float).reshape(-1, 4).T, xx, ee, xe)


def _psnr_from(scores: _BandScores, pixels: int) -> np.ndarray:
    mse = scores.sq_err / pixels
    out = np.full(mse.shape, np.inf)
    nz = mse > 0
    out[nz] = 10.0 * np.log10(PEAK * PEAK / mse[nz])
    return out


def _ergas_from(scores: _BandScores, pixels: int, factor: float) -> float:
    rmse = np.sqrt(scores.sq_err / pixels)
    means = scores.ref_sum / pixels
    zero = np.flatnonzero(means == 0)
    if zero.size:
        raise ValueError(f"ergas undefined: reference band {zero[0]} has zero mean")
    return float(100.0 / factor * np.sqrt(np.mean((rmse / means) ** 2)))


def _sam_from(scores: _BandScores) -> tuple[float, int]:
    """SAM and its count of skipped zero spectra."""
    nx, ne = np.sqrt(scores.xx), np.sqrt(scores.ee)
    keep = (nx > 0) & (ne > 0)
    skipped = int(np.size(nx) - np.count_nonzero(keep))
    if not np.any(keep):
        raise ValueError("sam undefined: every spectral vector is zero")
    if scores.sq_err.size < 2:
        # one-element spectra are colinear or opposite: a sign test, not an angle
        return np.nan, skipped
    cosang = scores.xe[keep] / (nx[keep] * ne[keep])
    angles = np.degrees(np.arccos(np.clip(cosang, -1.0, 1.0)))
    # arccos near 1 cannot resolve the zero angle of bit-equal spectra, whose
    # three sums add the same products in the same order
    angles[((scores.xe == scores.xx) & (scores.xe == scores.ee))[keep]] = 0.0
    return float(np.mean(angles)), skipped


def _check_factor(factor: float) -> None:
    if factor <= 0:
        raise ValueError("resolution factor must be positive")


def psnr_per_band(ref: np.ndarray, est: np.ndarray) -> np.ndarray:
    ref, est = _check_pair(ref, est)
    return _psnr_from(_walk(ref, _bands(est)), ref.shape[0] * ref.shape[1])


def psnr(ref: np.ndarray, est: np.ndarray) -> float:
    """Band-averaged peak signal-to-noise ratio; +inf for identical inputs."""
    return float(np.mean(psnr_per_band(ref, est)))


def ssim(ref: np.ndarray, est: np.ndarray) -> float:
    """Band-averaged structural similarity, 11x11 Gaussian window (sigma 1.5).

    Bands narrower than the window fall back to global statistics.
    """
    ref, est = _check_pair(ref, est)
    return float(np.mean(_walk(ref, _bands(est)).ssim))


def ergas(ref: np.ndarray, est: np.ndarray, factor: float) -> float:
    """Relative global dimensionless synthesis error at resolution ratio ``factor``."""
    ref, est = _check_pair(ref, est)
    _check_factor(factor)
    return _ergas_from(_walk(ref, _bands(est)), ref.shape[0] * ref.shape[1], factor)


def sam(ref: np.ndarray, est: np.ndarray) -> float:
    """Mean spectral angle in degrees; zero-spectrum pixels are skipped.

    nan on cubes with fewer than two bands, where no angle is defined.
    """
    ref, est = _check_pair(ref, est)
    return _sam_from(_walk(ref, _bands(est)))[0]


def uiqi_per_band(ref: np.ndarray, est: np.ndarray) -> np.ndarray:
    """Universal image quality index per band over 32x32 sliding windows (stride 1).

    Vanishing-denominator windows are skipped; bands narrower than the window
    use one global window. A band with no usable window yields nan.
    """
    ref, est = _check_pair(ref, est)
    return _walk(ref, _bands(est)).uiqi


def uiqi(ref: np.ndarray, est: np.ndarray) -> float:
    return _uiqi_from_bands(uiqi_per_band(ref, est))


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
    """All five indices plus per-band psnr/uiqi curves, the cubes in their own units.

    Each band is mapped onto the reference's span, [0, 255], as it is read,
    and one band walk yields every score. A constant reference has no span
    (ValueError).
    """
    ref, est = _check_pair(ref, est)
    _check_factor(factor)
    return _report(ref, _bands(est), factor)


def band_report(ref: np.ndarray, est_band: Callable[[int], np.ndarray],
                factor: float) -> MetricsReport:
    """:func:`metrics_report` of the estimate whose band b is ``est_band(b)``.

    ``est_band`` returns a 2-D array shaped like a band of ``ref``; each band
    is asked for once, so the estimate need not exist as a cube. The bands
    are scored in order on the calling thread, which starts no thread, and
    the report has the bits :func:`metrics_report` gives the stacked cube.
    """
    ref = np.asarray(ref, dtype=float)
    if ref.ndim != 3:
        raise ValueError("metrics expect 3-way tensors")
    _check_factor(factor)
    return _report(ref, est_band, factor, map)


def _report(ref: np.ndarray, est_band: Callable[[int], np.ndarray],
            factor: float, map_=None) -> MetricsReport:
    scores = _walk(ref, est_band, *reference_span(ref), map_)
    sam_value, skipped = _sam_from(scores)
    uiqi_value = _uiqi_from_bands(scores.uiqi)
    pixels = ref.shape[0] * ref.shape[1]
    psnr_bands = _psnr_from(scores, pixels)
    return MetricsReport(
        psnr=float(np.mean(psnr_bands)),
        ssim=float(np.mean(scores.ssim)),
        ergas=_ergas_from(scores, pixels, factor),
        sam=sam_value,
        uiqi=uiqi_value,
        sam_skipped=skipped,
        psnr_per_band=tuple(float(v) for v in psnr_bands),
        uiqi_per_band=tuple(float(v) for v in scores.uiqi),
    )
