"""Full-reference quality indices for image cubes on the 0..255 convention.

All functions take two equally shaped 3-way arrays (width, height, bands).
Callers are expected to rescale both cubes with :func:`rescale_pair` first so
the reference spans [0, 255]; the indices themselves are plain arithmetic.
The rescaled cubes keep their (width, height, bands) shape but are stored
band-major, so every band ``x[:, :, b]`` is a contiguous view and the per-band
walks of SSIM and UIQI copy nothing. The indices accept any memory layout;
the layout only decides whether a band walk copies.

SSIM and UIQI are the same five local moments (two means, two variances and
a covariance) under two windows: SSIM's 11x11 Gaussian, and UIQI's box,
which makes UIQI SSIM with C1 = C2 = 0 (Wang & Bovik, IEEE SPL 9(3), 2002).
A band narrower than the window is one whole-band window whose moments are
centred on the band means before squaring, so a constant band's variance is
at most a squared rounding error and UIQI skips the band.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass
from functools import partial

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


def reference_map(ref: np.ndarray) -> Callable[[np.ndarray], np.ndarray]:
    """The affine map that takes the reference's range onto [0, 255].

    The map sends a (W, H, B) cube x to (x - min) * 255 / (max - min), stored
    band-major. A constant reference has no such map (ValueError).
    """
    lo, hi = float(np.min(ref)), float(np.max(ref))
    if hi == lo:
        raise ValueError("reference tensor is constant; rescale undefined")
    return partial(_affine_band_major, lo=lo, scale=PEAK / (hi - lo))


def _affine_band_major(x: np.ndarray, lo: float, scale: float) -> np.ndarray:
    out = np.empty((x.shape[2], x.shape[0], x.shape[1])).transpose(1, 2, 0)
    np.subtract(x, lo, out=out)
    out *= scale
    return out


def rescale_pair(ref: np.ndarray, est: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Affinely map the reference range onto [0, 255]; apply the same map to est."""
    ref, est = _check_pair(ref, est)
    to255 = reference_map(ref)
    return to255(ref), to255(est)


def _bands(ref: np.ndarray, est: np.ndarray):
    """Each band of a checked pair, as a contiguous (ref, est) pair; the
    filter passes and cumulative sums run faster on contiguous bands.

    :func:`rescale_pair` returns band-major cubes, whose bands are views here;
    a band of any other layout is copied, with the same values.
    """
    for band in range(ref.shape[2]):
        yield np.ascontiguousarray(ref[:, :, band]), np.ascontiguousarray(est[:, :, band])


def _band_mse(ref: np.ndarray, est: np.ndarray) -> np.ndarray:
    """Mean squared error per band, one band at a time.

    Each band's squares are summed along each row in order, then over the row
    sums in order: the order of a mode-0 slab walk over a C-order cube, kept
    on any layout. Summing the transposed band down its columns keeps each
    row's order, where a sum along a contiguous row would go pairwise.
    """
    out = np.empty(ref.shape[2])
    for band, (x, y) in enumerate(_bands(ref, est)):
        d = np.subtract(x.T, y.T, order="C")
        d *= d
        out[band] = np.cumsum(d.sum(axis=0))[-1]
    return out / (ref.shape[0] * ref.shape[1])


def psnr_per_band(ref: np.ndarray, est: np.ndarray) -> np.ndarray:
    ref, est = _check_pair(ref, est)
    mse = _band_mse(ref, est)
    out = np.full(ref.shape[2], np.inf)
    nz = mse > 0
    out[nz] = 10.0 * np.log10(PEAK * PEAK / mse[nz])
    return out


def psnr(ref: np.ndarray, est: np.ndarray) -> float:
    """Band-averaged peak signal-to-noise ratio; +inf for identical inputs."""
    return float(np.mean(psnr_per_band(ref, est)))


def _moments(x: np.ndarray, y: np.ndarray, mean, window: int) -> tuple:
    """Local means, variances and covariance of two bands, as 2-D maps.

    ``mean`` is the valid-mode mean over ``window`` x ``window`` windows.
    Bands narrower than the window get one whole-band window, taken in two
    passes: centring first leaves a constant band a variance of at most a
    squared rounding error, where E[x²] - mu² would leave the error itself.
    """
    if min(x.shape) < window:
        mu1, mu2 = x.mean(), y.mean()
        dx, dy = x - mu1, y - mu2
        return tuple(np.full((1, 1), m) for m in
                     (mu1, mu2, np.mean(dx * dx), np.mean(dy * dy), np.mean(dx * dy)))
    mu1, mu2 = mean(x), mean(y)
    return (mu1, mu2, mean(x * x) - mu1 * mu1, mean(y * y) - mu2 * mu2,
            mean(x * y) - mu1 * mu2)


def _windowed_mean(x: np.ndarray, taps: np.ndarray) -> np.ndarray:
    """Valid-mode filter with the separable window outer(taps, taps)."""
    sliding = np.lib.stride_tricks.sliding_window_view
    rows = sliding(x, taps.size, axis=0) @ taps
    return sliding(rows, taps.size, axis=1) @ taps


def ssim(ref: np.ndarray, est: np.ndarray) -> float:
    """Band-averaged structural similarity, 11x11 Gaussian window (sigma 1.5).

    The window is separable, so each local statistic is filtered as two 1-D
    passes, one per spatial axis. Bands narrower than the window fall back to
    global statistics.
    """
    ref, est = _check_pair(ref, est)
    mean = partial(_windowed_mean, taps=gaussian_kernel(SSIM_WINDOW, SSIM_SIGMA))
    c1 = (0.01 * PEAK) ** 2
    c2 = (0.03 * PEAK) ** 2
    vals = []
    for x, y in _bands(ref, est):
        mu1, mu2, var1, var2, cov = _moments(x, y, mean, SSIM_WINDOW)
        num = (2.0 * mu1 * mu2 + c1) * (2.0 * cov + c2)
        den = (mu1 * mu1 + mu2 * mu2 + c1) * (var1 + var2 + c2)
        vals.append(float(np.mean(num / den)))
    return float(np.mean(vals))


def ergas(ref: np.ndarray, est: np.ndarray, factor: float) -> float:
    """Relative global dimensionless synthesis error at resolution ratio ``factor``."""
    ref, est = _check_pair(ref, est)
    if factor <= 0:
        raise ValueError("resolution factor must be positive")
    rmse = np.sqrt(_band_mse(ref, est))
    # a running sum over each band's pixels in C order: the order of a C-order
    # cube's mean over its leading axes, kept on any layout
    sums = [np.cumsum(ref[:, :, band])[-1] for band in range(ref.shape[2])]
    means = np.array(sums) / (ref.shape[0] * ref.shape[1])
    if np.any(means == 0):
        raise ValueError("ergas undefined: a reference band has zero mean")
    return float(100.0 / factor * np.sqrt(np.mean((rmse / means) ** 2)))


def _sam_and_skipped(ref: np.ndarray, est: np.ndarray) -> tuple[float, int]:
    ref, est = _check_pair(ref, est)
    # row dots by einsum, one mode-0 slab at a time: no cube-sized product,
    # and a C-order slab has each spectrum summed in one order on any layout
    dots = []
    for r, e in zip(ref, est):
        r, e = np.ascontiguousarray(r), np.ascontiguousarray(e)
        dots.append((np.einsum("pk,pk->p", r, r), np.einsum("pk,pk->p", e, e),
                     np.einsum("pk,pk->p", r, e), np.all(r == e, axis=1)))
    aa, bb, ab, equal = (np.concatenate(c) for c in zip(*dots))
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
    return _sam_and_skipped(ref, est)[0]


def _box_mean(x: np.ndarray, w: int) -> np.ndarray:
    """Valid-mode mean over w x w boxes, from one 2-D cumulative sum."""
    c = np.zeros((x.shape[0] + 1, x.shape[1] + 1))
    c[1:, 1:] = x.cumsum(axis=0).cumsum(axis=1)
    return (c[w:, w:] - c[:-w, w:] - c[w:, :-w] + c[:-w, :-w]) / (w * w)


def uiqi_per_band(ref: np.ndarray, est: np.ndarray,
                  window: int = UIQI_WINDOW) -> np.ndarray:
    """Universal image quality index per band over sliding windows (stride 1).

    Vanishing-denominator windows are skipped; bands narrower than the window
    use one global window. A band with no usable window yields nan.
    """
    ref, est = _check_pair(ref, est)
    if window < 1:
        raise ValueError("window must be positive")
    mean = partial(_box_mean, w=window)
    out = np.empty(ref.shape[2])
    for band, (x, y) in enumerate(_bands(ref, est)):
        mu1, mu2, var1, var2, cov = _moments(x, y, mean, window)
        num = 4.0 * cov * mu1 * mu2
        den = (var1 + var2) * (mu1 * mu1 + mu2 * mu2)
        valid = np.abs(den) > _DENOM_FLOOR
        out[band] = float(np.mean(num[valid] / den[valid])) if np.any(valid) else np.nan
    return out


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

    Each per-band curve is computed once and the band averages derive from it.
    """
    ref, est = _check_pair(ref, est)
    sam_value, skipped = _sam_and_skipped(ref, est)
    psnr_bands = psnr_per_band(ref, est)
    uiqi_bands = uiqi_per_band(ref, est)
    return MetricsReport(
        psnr=float(np.mean(psnr_bands)),
        ssim=ssim(ref, est),
        ergas=ergas(ref, est, factor),
        sam=sam_value,
        uiqi=_uiqi_from_bands(uiqi_bands),
        sam_skipped=skipped,
        psnr_per_band=tuple(float(v) for v in psnr_bands),
        uiqi_per_band=tuple(float(v) for v in uiqi_bands),
    )
