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


def _score_band(ref: np.ndarray, est: np.ndarray,
                band: int) -> tuple[float, float, float, float]:
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
    return (sq_err, ref_sum, _windowed_index(maps, _SSIM_TAPS, _C1, _C2),
            _windowed_index(maps, _UIQI_TAPS, 0.0, 0.0))


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


def _walk(ref: np.ndarray, est: np.ndarray) -> _BandScores:
    """Score every band of a checked pair, gathered in band order.

    Each band is scored whole by one worker, so the scores do not depend on
    the number of workers, nor on whether the bands ran on the pool.
    """
    score = partial(_score_band, ref, est)
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


def uiqi_per_band(ref: np.ndarray, est: np.ndarray) -> np.ndarray:
    """Universal image quality index per band over 32x32 sliding windows (stride 1).

    Vanishing-denominator windows are skipped; bands narrower than the window
    use one global window. A band with no usable window yields nan.
    """
    ref, est = _check_pair(ref, est)
    return _walk(ref, est).uiqi


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
