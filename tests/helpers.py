"""Reference helpers shared by the test suites, kept out of the package."""

import numpy as np

from trfuse.prox import log_threshold_scalar


def evaluate_entry(f, idx):
    """Entry ``idx`` of the composed ring: the trace of the slice product."""
    g1, g2, g3 = f.cores
    i1, i2, i3 = idx
    return float(np.trace(g1[:, i1, :] @ g2[:, i2, :] @ g3[:, i3, :]))


def cyclic_shift(t, steps):
    """Rotate the mode order by ``steps``: mode ``steps`` becomes mode 0.

    A shift by ``t.ndim`` (full rotation) is the identity.
    """
    t = np.asarray(t)
    if steps < 0:
        raise ValueError("shift steps must be nonnegative")
    s = steps % t.ndim
    if s == 0:
        return t.copy()
    perm = list(range(s, t.ndim)) + list(range(s))
    return np.ascontiguousarray(np.transpose(t, perm))


def full_spectrum_ltnn_value(g, eps):
    """LTNN by the full mode-1 DFT: the mean over all S slices of sum log(sigma + eps)."""
    slices = np.fft.fft(g, axis=1).transpose(1, 0, 2)
    s = np.linalg.svd(slices, compute_uv=False)
    return float(np.sum(np.log(s + eps)) / g.shape[1])


def full_spectrum_ltnn_prox(a, t, eps):
    """LTNN prox by the full mode-1 DFT: threshold the singular values of
    every slice, rebuild, and keep the real part of the inverse DFT."""
    slices = np.fft.fft(a, axis=1).transpose(1, 0, 2)
    u, s, vh = np.linalg.svd(slices, full_matrices=False)
    rebuilt = u @ (log_threshold_scalar(s, t, eps)[..., None] * vh)
    return np.fft.ifft(rebuilt.transpose(1, 0, 2), axis=1).real
