"""Independent reference code for the benchmark's output checks.

Everything here is written from the definitions in the repository README
and the metric literature, without importing ``trfuse``: the ``.tnsr`` byte
layout, the ring phantom, the blur/decimation and band-averaging
degradation, the five quality indices, and the checks an operation's output
files must pass. A check returns a list of problems; an empty list passes.
"""

from __future__ import annotations

import json
import math
import struct
from pathlib import Path

import numpy as np

PEAK = 255.0
BASELINE_MARGIN_DB = 3.0
OBJECTIVE_SLACK = 1e-6
METRIC_RTOL = 1e-6
METRIC_ATOL = 1e-9
INDICES = ("psnr", "ssim", "ergas", "sam", "uiqi")
ABLATION_VARIANTS = ("full", "ban_spe", "ban_spa", "no_tv", "trkj")


# .tnsr container: magic, version byte, uint32 mode count, uint64 extents,
# float64 payload, all little endian, row-major

def write_tnsr(path, t: np.ndarray) -> None:
    t = np.ascontiguousarray(t, dtype="<f8")
    header = b"TNSR" + bytes([1]) + struct.pack("<I", t.ndim)
    header += struct.pack(f"<{t.ndim}Q", *t.shape)
    Path(path).write_bytes(header + t.tobytes())


def read_tnsr(path) -> np.ndarray:
    data = Path(path).read_bytes()
    if data[:4] != b"TNSR" or len(data) < 9 or data[4] != 1:
        raise ValueError(f"{path}: bad magic or version")
    ndim = struct.unpack_from("<I", data, 5)[0]
    if not 1 <= ndim <= 8 or len(data) < 9 + 8 * ndim:
        raise ValueError(f"{path}: {ndim} modes in {len(data)} bytes")
    dims = struct.unpack_from(f"<{ndim}Q", data, 9)
    offset = 9 + 8 * ndim
    if len(data) != offset + 8 * math.prod(dims):
        raise ValueError(f"{path}: {len(data)} bytes do not match extents {dims}")
    return np.frombuffer(data, dtype="<f8", offset=offset).reshape(dims).astype(float)


# inputs

def ring_phantom(dims, ranks, seed: int) -> np.ndarray:
    """Positive ring phantom: cores |N(0,1)| + 0.1, contracted around the ring."""
    rng = np.random.default_rng(seed)
    cores = [np.abs(rng.standard_normal((ranks[n], dims[n], ranks[(n + 1) % 3]))) + 0.1
             for n in range(3)]
    return np.einsum("aib,bjc,cka->ijk", *cores, optimize=True)


def gaussian_taps(size: int, sigma: float) -> np.ndarray:
    x = np.arange(size) - (size - 1) / 2.0
    k = np.exp(-x * x / (2.0 * sigma * sigma))
    return k / k.sum()


def blur_decimate(x: np.ndarray, axis: int, factor: int, taps: np.ndarray) -> np.ndarray:
    """Circular blur centred at every factor-th sample: out[i] = sum_j taps[j] x[i*f + j - c]."""
    center = (taps.size - 1) // 2
    out = sum(tap * np.roll(x, center - j, axis=axis) for j, tap in enumerate(taps))
    return np.take(out, np.arange(0, x.shape[axis], factor), axis=axis)


def band_average_matrix(bands: int, groups: int) -> np.ndarray:
    """Each output band is the mean of one contiguous, near-equal run of input bands."""
    edges = np.rint(np.linspace(0, bands, groups + 1)).astype(int)
    m = np.zeros((groups, bands))
    for g in range(groups):
        m[g, edges[g]:edges[g + 1]] = 1.0 / (edges[g + 1] - edges[g])
    return m


def degrade(x: np.ndarray, factor: int, kernel_size: int, sigma: float,
            msi_bands: int) -> tuple[np.ndarray, np.ndarray]:
    """Noiseless pair: y blurs and decimates both spatial modes, z averages bands."""
    taps = gaussian_taps(kernel_size, sigma)
    y = blur_decimate(blur_decimate(x, 0, factor, taps), 1, factor, taps)
    z = np.einsum("ijb,gb->ijg", x, band_average_matrix(x.shape[2], msi_bands))
    return y, z


def spectral_lift(z: np.ndarray, bands: int) -> np.ndarray:
    """Baseline estimate: pseudo-inverse of the band-averaging matrix applied to z."""
    lift = np.linalg.pinv(band_average_matrix(bands, z.shape[2]))
    return np.einsum("ijg,bg->ijb", z, lift)


# quality indices on the 0..255 rescale of the reference range

def rescale(ref: np.ndarray, est: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    lo, hi = float(ref.min()), float(ref.max())
    scale = PEAK / (hi - lo)
    return (ref - lo) * scale, (est - lo) * scale


def psnr(ref: np.ndarray, est: np.ndarray) -> float:
    mse = np.mean((ref - est) ** 2, axis=(0, 1))
    with np.errstate(divide="ignore"):
        return float(np.mean(10.0 * np.log10(PEAK * PEAK / mse)))


def _filter_valid(x: np.ndarray, taps: np.ndarray) -> np.ndarray:
    """Separable 'valid' correlation of every band with taps along both spatial axes."""
    w = taps.size
    rows = sum(t * x[k:x.shape[0] - w + 1 + k] for k, t in enumerate(taps))
    return sum(t * rows[:, k:x.shape[1] - w + 1 + k] for k, t in enumerate(taps))


def ssim(ref: np.ndarray, est: np.ndarray) -> float:
    """Band-mean SSIM, 11x11 Gaussian window (sigma 1.5) as a separable filter."""
    g = gaussian_taps(11, 1.5)
    mu1, mu2 = _filter_valid(ref, g), _filter_valid(est, g)
    var1 = _filter_valid(ref * ref, g) - mu1 * mu1
    var2 = _filter_valid(est * est, g) - mu2 * mu2
    cov = _filter_valid(ref * est, g) - mu1 * mu2
    c1, c2 = (0.01 * PEAK) ** 2, (0.03 * PEAK) ** 2
    s = ((2 * mu1 * mu2 + c1) * (2 * cov + c2)
         / ((mu1 * mu1 + mu2 * mu2 + c1) * (var1 + var2 + c2)))
    return float(np.mean(s.mean(axis=(0, 1))))


def ergas(ref: np.ndarray, est: np.ndarray, factor: int) -> float:
    rmse = np.sqrt(np.mean((ref - est) ** 2, axis=(0, 1)))
    return float(100.0 / factor * np.sqrt(np.mean((rmse / ref.mean(axis=(0, 1))) ** 2)))


def sam(ref: np.ndarray, est: np.ndarray) -> float:
    a = ref.reshape(-1, ref.shape[2])
    b = est.reshape(-1, est.shape[2])
    cos = np.sum(a * b, axis=1) / (np.linalg.norm(a, axis=1) * np.linalg.norm(b, axis=1))
    return float(np.mean(np.degrees(np.arccos(np.clip(cos, -1.0, 1.0)))))


def _box_mean_valid(x: np.ndarray, w: int) -> np.ndarray:
    """Mean over every w x w spatial window, by running sums along each axis in turn."""
    for axis in (0, 1):
        c = np.cumsum(x, axis=axis)
        head = np.take(c, [w - 1], axis=axis)
        x = np.concatenate([head, np.take(c, np.arange(w, c.shape[axis]), axis=axis)
                            - np.take(c, np.arange(c.shape[axis] - w), axis=axis)], axis=axis)
    return x / (w * w)


def uiqi(ref: np.ndarray, est: np.ndarray, window: int = 32) -> float:
    """Band-mean universal image quality index over all 32x32 windows (stride 1)."""
    mu1, mu2 = _box_mean_valid(ref, window), _box_mean_valid(est, window)
    var1 = _box_mean_valid(ref * ref, window) - mu1 * mu1
    var2 = _box_mean_valid(est * est, window) - mu2 * mu2
    cov = _box_mean_valid(ref * est, window) - mu1 * mu2
    num = 4.0 * cov * mu1 * mu2
    den = (var1 + var2) * (mu1 * mu1 + mu2 * mu2)
    per_band = []
    for b in range(ref.shape[2]):
        keep = np.abs(den[..., b]) > 1e-12
        per_band.append(np.mean(num[..., b][keep] / den[..., b][keep]))
    return float(np.mean(per_band))


def indices(gt: np.ndarray, est: np.ndarray, factor: int) -> dict:
    ref255, est255 = rescale(gt, est)
    return {"psnr": psnr(ref255, est255), "ssim": ssim(ref255, est255),
            "ergas": ergas(ref255, est255, factor), "sam": sam(ref255, est255),
            "uiqi": uiqi(ref255, est255)}


def psnr_db(gt: np.ndarray, est: np.ndarray) -> float:
    return psnr(*rescale(gt, est))


# checks of one operation's outputs

def check_fused(out: Path, gt: np.ndarray, baseline_db: float) -> tuple[list, float]:
    """xhat.tnsr parses, has the ground truth's shape, is finite and beats the baseline."""
    try:
        xhat = read_tnsr(out / "xhat.tnsr")
    except (OSError, ValueError) as exc:
        return [f"xhat.tnsr: {exc}"], math.nan
    if xhat.shape != gt.shape:
        return [f"xhat shape {xhat.shape} != {gt.shape}"], math.nan
    if not np.all(np.isfinite(xhat)):
        return ["xhat holds non-finite values"], math.nan
    db = psnr_db(gt, xhat)
    if not db >= baseline_db + BASELINE_MARGIN_DB:
        return [f"psnr {db:.3f} dB not {BASELINE_MARGIN_DB} dB above the "
                f"baseline's {baseline_db:.3f} dB"], db
    return [], db


def check_convergence(out: Path) -> list:
    """The objective column never rises by more than the relative slack."""
    try:
        lines = (out / "convergence.csv").read_text().strip().split("\n")
        objs = [float(line.split(",")[1]) for line in lines[1:]]
    except (OSError, ValueError, IndexError) as exc:
        return [f"convergence.csv: {exc}"]
    if not objs:
        return ["convergence.csv has no iterations"]
    return [f"objective rises at row {k + 1}: {a!r} -> {b!r}"
            for k, (a, b) in enumerate(zip(objs, objs[1:]))
            if b - a > OBJECTIVE_SLACK * abs(a)]


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= METRIC_ATOL + METRIC_RTOL * abs(b)


def check_metrics(out: Path, gt: np.ndarray, factor: int) -> list:
    """metrics.json holds the five indices of xhat, recomputed here."""
    try:
        reported = json.loads((out / "metrics.json").read_text())["metrics"]
        ours = indices(gt, read_tnsr(out / "xhat.tnsr"), factor)
    except (OSError, ValueError, KeyError) as exc:
        return [f"metrics.json: {exc}"]
    return [f"metrics.json {k} = {reported.get(k)!r}, recomputed {ours[k]!r}"
            for k in INDICES
            if not isinstance(reported.get(k), (int, float)) or not _close(reported[k], ours[k])]


def expected_coefficients(alpha: float, beta: float) -> dict:
    """(alpha, beta on cores 1-3) that each ablation switch leaves in force."""
    return {"full": (alpha, beta, beta, beta),
            "ban_spe": (alpha, beta, beta, 0.0),
            "ban_spa": (alpha, 0.0, 0.0, beta),
            "no_tv": (0.0, beta, beta, beta),
            "trkj": (0.0, 0.0, 0.0, 0.0)}


def check_ablation(out: Path, alpha: float, beta: float,
                   baseline_db: float) -> tuple[list, float]:
    """Five rows in order, switch-consistent coefficients, every row above the baseline."""
    try:
        lines = (out / "ablation.csv").read_text().strip().split("\n")
        header = lines[0].split(",")
        rows = [dict(zip(header, line.split(","))) for line in lines[1:]]
        names = [r["variant"] for r in rows]
        coeffs = {r["variant"]: tuple(float(r[c]) for c in
                                      ("alpha", "beta_core1", "beta_core2", "beta_core3"))
                  for r in rows}
        dbs = {r["variant"]: float(r["psnr"]) for r in rows}
    except (OSError, ValueError, KeyError, IndexError) as exc:
        return [f"ablation.csv: {exc}"], math.nan
    if tuple(names) != ABLATION_VARIANTS:
        return [f"ablation variants {names}"], math.nan
    problems = [f"{name} coefficients {coeffs[name]} != {want}"
                for name, want in expected_coefficients(alpha, beta).items()
                if coeffs[name] != want]
    problems += [f"{name} psnr {db:.3f} dB not {BASELINE_MARGIN_DB} dB above the "
                 f"baseline's {baseline_db:.3f} dB"
                 for name, db in dbs.items() if not db >= baseline_db + BASELINE_MARGIN_DB]
    return problems, dbs["full"]
