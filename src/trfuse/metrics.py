"""Full-reference quality indices for image cubes on the 0..255 convention.

All functions take two equally shaped 3-way arrays (width, height, bands).
Callers are expected to rescale both cubes with :func:`rescale_pair` first so
the reference spans [0, 255]; the indices themselves are plain arithmetic.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

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


def rescale_pair(ref: np.ndarray, est: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Affinely map the reference range onto [0, 255]; apply the same map to est."""
    ref, est = _check_pair(ref, est)
    lo, hi = float(ref.min()), float(ref.max())
    if hi == lo:
        raise ValueError("reference tensor is constant; rescale undefined")
    scale = PEAK / (hi - lo)
    ref, est = ref - lo, est - lo
    ref *= scale
    est *= scale
    return ref, est


def _band_mse(ref: np.ndarray, est: np.ndarray) -> np.ndarray:
    """Mean squared error per band, formed one mode-0 slab at a time, so no
    cube-sized temporary is held."""
    total = np.zeros(ref.shape[2])
    for r, e in zip(ref, est):
        d = r - e
        d *= d
        total += d.sum(axis=0)
    return total / (ref.shape[0] * ref.shape[1])


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


def _gaussian_taps(size: int, sigma: float) -> np.ndarray:
    x = np.arange(size) - (size - 1) / 2.0
    g = np.exp(-(x * x) / (2.0 * sigma * sigma))
    return g / g.sum()


def _windowed_mean(x: np.ndarray, taps: np.ndarray) -> np.ndarray:
    """Valid-mode filter with the separable window outer(taps, taps)."""
    sliding = np.lib.stride_tricks.sliding_window_view
    rows = sliding(x, taps.size, axis=0) @ taps
    return sliding(rows, taps.size, axis=1) @ taps


def _ssim_from_stats(mu1, mu2, var1, var2, cov):
    c1 = (0.01 * PEAK) ** 2
    c2 = (0.03 * PEAK) ** 2
    num = (2.0 * mu1 * mu2 + c1) * (2.0 * cov + c2)
    den = (mu1 * mu1 + mu2 * mu2 + c1) * (var1 + var2 + c2)
    return num / den


def ssim(ref: np.ndarray, est: np.ndarray) -> float:
    """Band-averaged structural similarity, 11x11 Gaussian window (sigma 1.5).

    The window is separable, so each local statistic is filtered as two 1-D
    passes, one per spatial axis. Bands narrower than the window fall back to
    global statistics.
    """
    ref, est = _check_pair(ref, est)
    vals = []
    windowed = min(ref.shape[0], ref.shape[1]) >= SSIM_WINDOW
    taps = _gaussian_taps(SSIM_WINDOW, SSIM_SIGMA)
    for band in range(ref.shape[2]):
        x, y = ref[:, :, band], est[:, :, band]
        if windowed:
            # the filter passes run faster on contiguous bands
            x, y = np.ascontiguousarray(x), np.ascontiguousarray(y)
            mu1 = _windowed_mean(x, taps)
            mu2 = _windowed_mean(y, taps)
            var1 = _windowed_mean(x * x, taps) - mu1 * mu1
            var2 = _windowed_mean(y * y, taps) - mu2 * mu2
            cov = _windowed_mean(x * y, taps) - mu1 * mu2
            vals.append(float(np.mean(_ssim_from_stats(mu1, mu2, var1, var2, cov))))
        else:
            mu1, mu2 = x.mean(), y.mean()
            var1, var2 = x.var(), y.var()
            cov = float(np.mean((x - mu1) * (y - mu2)))
            vals.append(float(_ssim_from_stats(mu1, mu2, var1, var2, cov)))
    return float(np.mean(vals))


def ergas(ref: np.ndarray, est: np.ndarray, factor: float) -> float:
    """Relative global dimensionless synthesis error at resolution ratio ``factor``."""
    ref, est = _check_pair(ref, est)
    if factor <= 0:
        raise ValueError("resolution factor must be positive")
    rmse = np.sqrt(_band_mse(ref, est))
    means = np.mean(ref, axis=(0, 1))
    if np.any(means == 0):
        raise ValueError("ergas undefined: a reference band has zero mean")
    return float(100.0 / factor * np.sqrt(np.mean((rmse / means) ** 2)))


def _sam_and_skipped(ref: np.ndarray, est: np.ndarray) -> tuple[float, int]:
    ref, est = _check_pair(ref, est)
    a = ref.reshape(-1, ref.shape[2])
    b = est.reshape(-1, est.shape[2])
    # row dots by einsum, which forms no cube-sized product
    na = np.sqrt(np.einsum("pk,pk->p", a, a))
    nb = np.sqrt(np.einsum("pk,pk->p", b, b))
    keep = (na > 0) & (nb > 0)
    skipped = int(np.size(na) - np.count_nonzero(keep))
    if not np.any(keep):
        raise ValueError("sam undefined: every spectral vector is zero")
    if ref.shape[2] < 2:
        # one-element spectra are colinear or opposite: a sign test, not an angle
        return np.nan, skipped
    cosang = np.einsum("pk,pk->p", a, b)[keep] / (na[keep] * nb[keep])
    angles = np.degrees(np.arccos(np.clip(cosang, -1.0, 1.0)))
    # arccos near 1 cannot resolve the zero angle of bit-equal spectra
    angles[np.all(a == b, axis=1)[keep]] = 0.0
    return float(np.mean(angles)), skipped


def sam(ref: np.ndarray, est: np.ndarray) -> float:
    """Mean spectral angle in degrees; zero-spectrum pixels are skipped.

    nan on cubes with fewer than two bands, where no angle is defined.
    """
    return _sam_and_skipped(ref, est)[0]


def _box_sums(x: np.ndarray, w: int) -> np.ndarray:
    c = np.zeros((x.shape[0] + 1, x.shape[1] + 1))
    c[1:, 1:] = x.cumsum(axis=0).cumsum(axis=1)
    return c[w:, w:] - c[:-w, w:] - c[w:, :-w] + c[:-w, :-w]


def _uiqi_from_stats(mu1, mu2, var1, var2, cov):
    num = 4.0 * cov * mu1 * mu2
    den = (var1 + var2) * (mu1 * mu1 + mu2 * mu2)
    return num, den


def uiqi_per_band(ref: np.ndarray, est: np.ndarray,
                  window: int = UIQI_WINDOW) -> np.ndarray:
    """Universal image quality index per band over sliding windows (stride 1).

    Vanishing-denominator windows are skipped; bands narrower than the window
    use one global window. A band with no usable window yields nan.
    """
    ref, est = _check_pair(ref, est)
    if window < 1:
        raise ValueError("window must be positive")
    w = window
    windowed = min(ref.shape[0], ref.shape[1]) >= w
    out = np.empty(ref.shape[2])
    for band in range(ref.shape[2]):
        x, y = ref[:, :, band], est[:, :, band]
        if windowed:
            area = float(w * w)
            mu1 = _box_sums(x, w) / area
            mu2 = _box_sums(y, w) / area
            var1 = _box_sums(x * x, w) / area - mu1 * mu1
            var2 = _box_sums(y * y, w) / area - mu2 * mu2
            cov = _box_sums(x * y, w) / area - mu1 * mu2
        else:
            mu1, mu2 = np.array([[x.mean()]]), np.array([[y.mean()]])
            var1, var2 = np.array([[x.var()]]), np.array([[y.var()]])
            cov = np.array([[float(np.mean((x - x.mean()) * (y - y.mean())))]])
        num, den = _uiqi_from_stats(mu1, mu2, var1, var2, cov)
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
