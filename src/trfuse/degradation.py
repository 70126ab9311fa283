"""Observation operators mapping a high-resolution image cube to its inputs.

The low-spatial-resolution cube y applies a circular blur and decimation to
each of the first two modes; the low-spectral-resolution cube z applies a
band-averaging (or user supplied response) matrix to the third mode. Every
operator row is nonnegative and sums to one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .tensor import mode_n_product


def gaussian_kernel(size: int, sigma: float) -> np.ndarray:
    """Normalized 1-D Gaussian taps; ``sigma <= 0`` degenerates to a delta,
    as does a ``sigma`` so small that ``2 sigma²`` underflows to zero."""
    size = int(size)
    if size < 1:
        raise ValueError("kernel size must be positive")
    if size % 2 == 0:
        raise ValueError("Gaussian kernel size must be odd")
    two_var = 2.0 * sigma * sigma
    if sigma <= 0 or two_var == 0.0:
        k = np.zeros(size)
        k[(size - 1) // 2] = 1.0
        return k
    x = np.arange(size) - (size - 1) / 2.0
    # a subnormal 2·sigma² sends the off-centre exponents to -inf: zero taps
    with np.errstate(over="ignore"):
        k = np.exp(-(x * x) / two_var)
    return k / k.sum()


def spatial_operator_from_kernel(extent: int, factor: int,
                                 kernel: np.ndarray) -> np.ndarray:
    """Decimation of a circular 1-D convolution, as one (extent/factor) x extent matrix.

    Output row i blurs around sample position i*factor; taps are placed
    circularly with the kernel center offset (size-1)//2, accumulating when
    the kernel wraps onto itself.
    """
    extent, factor = int(extent), int(factor)
    if extent < 1 or factor < 1:
        raise ValueError("extent and factor must be positive")
    if extent % factor != 0:
        raise ValueError(f"extent {extent} not divisible by factor {factor}")
    kernel = np.asarray(kernel, dtype=float)
    if kernel.ndim != 1 or kernel.size < 1:
        raise ValueError("kernel must be a nonempty 1-D array")
    if not np.all(np.isfinite(kernel)):
        raise ValueError("kernel taps must be finite")
    center = (kernel.size - 1) // 2
    op = np.zeros((extent // factor, extent))
    for i in range(extent // factor):
        pos = i * factor
        for j, tap in enumerate(kernel):
            op[i, (pos + j - center) % extent] += tap
    return op


def contiguous_band_groups(bands: int, out_bands: int) -> tuple[tuple[int, ...], ...]:
    """Partition ``bands`` indices into ``out_bands`` contiguous, near-equal runs."""
    bands, out_bands = int(bands), int(out_bands)
    if not 1 <= out_bands <= bands:
        raise ValueError(f"cannot group {bands} bands into {out_bands}")
    edges = np.linspace(0, bands, out_bands + 1).round().astype(int)
    groups = tuple(tuple(range(edges[g], edges[g + 1])) for g in range(out_bands))
    if any(len(g) == 0 for g in groups):
        raise ValueError("empty band group")
    return groups


def build_spectral_operator(bands: int,
                            groups: tuple[tuple[int, ...], ...] | None = None,
                            response: np.ndarray | None = None) -> np.ndarray:
    """Band-averaging matrix from a partition, or a row-normalized response.

    Exactly one of ``groups``/``response`` must be given. A partition must
    cover every band exactly once; a response matrix must be finite and
    nonnegative with positive row sums (rows are rescaled to sum to one).
    """
    bands = int(bands)
    if (groups is None) == (response is None):
        raise ValueError("pass exactly one of groups or response")
    if response is not None:
        r = np.asarray(response, dtype=float)
        if r.ndim != 2 or r.shape[1] != bands:
            raise ValueError(f"response shape {r.shape} incompatible with {bands} bands")
        if not np.all(np.isfinite(r)):
            raise ValueError("response entries must be finite")
        if np.any(r < 0):
            raise ValueError("response entries must be nonnegative")
        sums = r.sum(axis=1)
        if np.any(sums <= 0):
            raise ValueError("every response row needs a positive sum")
        return r / sums[:, None]
    seen: list[int] = []
    for g in groups:
        seen.extend(int(i) for i in g)
    if sorted(seen) != list(range(bands)):
        raise ValueError("band groups must partition the band range with no "
                         "gaps or overlaps")
    op = np.zeros((len(groups), bands))
    for gi, g in enumerate(groups):
        op[gi, list(g)] = 1.0 / len(g)
    return op


@dataclass(frozen=True)
class DegradationModel:
    """The three observation matrices, plus the band partition behind u3."""

    u1: np.ndarray
    u2: np.ndarray
    u3: np.ndarray
    band_groups: tuple[tuple[int, ...], ...] | None = None

    def __post_init__(self):
        for name in ("u1", "u2", "u3"):
            m = np.asarray(getattr(self, name), dtype=float)
            if m.ndim != 2:
                raise ValueError(f"{name} must be a matrix")
            if not np.all(np.isfinite(m)):
                raise ValueError(f"{name} has non-finite entries")
            object.__setattr__(self, name, m)

    @property
    def mode_operators(self) -> tuple[tuple[np.ndarray | None, ...], ...]:
        """Per-mode operators of (y, z); None where the observation keeps the mode.

        y blurs and decimates modes 0 and 1, z band-aggregates mode 2. On ring
        cores, the operator of mode n acts on core n's extent mode.
        """
        return (self.u1, self.u2, None), (None, None, self.u3)

    @classmethod
    def build(cls, dims: tuple[int, int, int], factor: int,
              kernel_size: int, sigma: float,
              band_groups: tuple[tuple[int, ...], ...] | None = None,
              out_bands: int | None = None,
              response: np.ndarray | None = None) -> "DegradationModel":
        w, h, b = (int(d) for d in dims)
        kernel = gaussian_kernel(kernel_size, sigma)
        u1 = spatial_operator_from_kernel(w, factor, kernel)
        u2 = spatial_operator_from_kernel(h, factor, kernel)
        if response is not None:
            u3 = build_spectral_operator(b, response=response)
            groups = None
        else:
            if band_groups is None:
                if out_bands is None:
                    raise ValueError("need band_groups, out_bands, or response")
                band_groups = contiguous_band_groups(b, out_bands)
            u3 = build_spectral_operator(b, groups=band_groups)
            groups = tuple(tuple(int(i) for i in g) for g in band_groups)
        return cls(u1=u1, u2=u2, u3=u3, band_groups=groups)


def degrade(x: np.ndarray, model: DegradationModel) -> tuple[np.ndarray, np.ndarray]:
    """Apply the model: y contracts modes 0 and 1, z contracts mode 2."""
    x = np.asarray(x, dtype=float)
    if x.ndim != 3:
        raise ValueError("degrade expects a 3-way tensor")
    out = []
    for ops in model.mode_operators:
        t = x
        for mode, u in enumerate(ops):
            if u is not None:
                t = mode_n_product(t, u, mode)
        out.append(t)
    return tuple(out)


def snr_power_ratio(snr_db: float, name: str = "snr_db") -> float:
    """The signal-to-noise power ratio 10^(snr_db/10) of an SNR in dB.

    +inf where the power of ten overflows, so that SNR adds no noise.
    ValueError, naming ``name``, for NaN and where the power of ten
    underflows to zero (-inf included): no finite noise has that SNR.
    """
    if math.isnan(snr_db):
        raise ValueError(f"{name} must be a number, +inf or None, got {snr_db}")
    try:
        ratio = 10.0 ** (snr_db / 10.0)
    except OverflowError:
        return math.inf
    if ratio == 0.0:
        raise ValueError(f"{name} of {snr_db} dB is below the float range: "
                         f"10^({name}/10) underflows to 0")
    return ratio


def add_noise(t: np.ndarray, snr_db: float | None,
              rng: np.random.Generator | int | None = 0) -> np.ndarray:
    """Additive white Gaussian noise at the requested SNR.

    ``snr_db`` of None, +inf, or so large that 10^(snr_db/10) overflows,
    disables the noise; NaN, -inf, or so small that the power of ten
    underflows to zero, raise ValueError (see :func:`snr_power_ratio`), as
    does an SNR so low that sigma overflows on a finite signal power. The
    variance follows sigma^2 = ||t||_F^2 / (numel * 10^(snr_db/10)).
    """
    t = np.asarray(t, dtype=float)
    ratio = math.inf if snr_db is None else snr_power_ratio(snr_db)
    if ratio == math.inf:
        return t.copy()
    power = float(np.sum(t * t))
    if power == 0.0:
        raise ValueError("cannot set an SNR for an all-zero tensor")
    if not isinstance(rng, np.random.Generator):
        rng = np.random.default_rng(rng)
    sigma = math.sqrt(power / (t.size * ratio))
    if math.isinf(sigma) and math.isfinite(power):
        raise ValueError(f"an SNR of {snr_db} dB puts the noise sigma past "
                         f"the float range")
    return t + sigma * rng.standard_normal(t.shape)
