"""Proximal pieces of the solver: weighted soft shrinkage and the logarithmic
tensor nuclear norm (LTNN) of ring cores.

The LTNN of a core G (R, S, R') is the mean over its S frequency slices, after
a DFT along mode 1, of sum_j log(sigma_j + eps). Its threshold operator acts
on each slice's singular values through :func:`log_threshold_scalar`.

G is real, so slices k and S-k of its DFT are complex conjugates with the
same singular values. Both operators therefore work on the half spectrum
``rfft(G, axis=1)``, slices 0..S//2.

The threshold operator takes no SVD. It reads each slice X's singular values
from one batched ``eigh`` of its Gram matrix on the smaller side, X Xᴴ when
R <= R' and Xᴴ X otherwise, and applies the thresholded values f(σ) as a
matrix function of that Gram matrix: U diag(f(σ)/σ) Uᴴ X, or
X V diag(f(σ)/σ) Vᴴ. With ε the machine epsilon, eigenvalues at or below
λ_max·ε·max(R, R') count as σ = 0 and add nothing, so a rank-deficient
slice keeps its null space whatever f(0+) is. A σ taken from a Gram
eigenvalue carries an absolute error of about √ε·σ_max, against ε·σ_max from
an SVD; the threshold sends such small σ to 0, but log(σ + eps) would carry
the error into the value, so :func:`ltnn_value`, which the objective reads,
stays on the SVD's singular values.
"""

from __future__ import annotations

import numpy as np


def soft_shrink_weighted(j: np.ndarray, tau: float, w: np.ndarray) -> np.ndarray:
    """Elementwise sign(j) * max(|j| - tau*w, 0); weights must be nonnegative."""
    j = np.asarray(j, dtype=float)
    w = np.asarray(w, dtype=float)
    if tau < 0:
        raise ValueError("shrinkage scale must be nonnegative")
    if np.any(w < 0):
        raise ValueError("shrinkage weights must be nonnegative")
    return np.sign(j) * np.maximum(np.abs(j) - tau * w, 0.0)


def update_weights(j: np.ndarray, varsigma: float) -> np.ndarray:
    """Reweighting map 1 / (|j| + varsigma); varsigma must be positive."""
    if varsigma <= 0:
        raise ValueError("varsigma must be positive")
    return 1.0 / (np.abs(np.asarray(j, dtype=float)) + varsigma)


def ltnn_value(g: np.ndarray, eps: float) -> float:
    """Mean over frequency slices of sum_j log(sigma_j + eps)."""
    g = np.asarray(g)
    if g.ndim != 3:
        raise ValueError("ltnn_value expects a 3-way core")
    if eps <= 0:
        raise ValueError("log offset eps must be positive")
    s = np.linalg.svd(np.fft.rfft(g, axis=1).transpose(1, 0, 2),
                      compute_uv=False)
    # each half-spectrum slice also stands for its conjugate mirror S-k,
    # except slice 0 and, when S is even, the Nyquist slice S/2
    counts = np.full(s.shape[0], 2.0)
    counts[0] = 1.0
    if g.shape[1] % 2 == 0:
        counts[-1] = 1.0
    return float(np.sum(np.log(s + eps), axis=1) @ counts / g.shape[1])


def log_threshold_scalar(s, t: float, eps: float):
    """Threshold for the scaled log penalty t*log(x + eps) at input s.

    With c1 = |s| - eps and c2 = c1^2 - 4*(t - eps*|s|), returns 0 when
    c2 <= 0 and sign(s)*(c1 + sqrt(c2))/2 otherwise, which is the larger
    stationary point of t*log(x+eps) + (x-s)^2/2. No objective comparison
    against x = 0 is made, so for small |s| with large eps the output can
    undershoot zero. t = 0 returns s exactly. Accepts scalars or arrays.
    """
    if t < 0:
        raise ValueError("threshold scale t must be nonnegative")
    if eps <= 0:
        raise ValueError("log offset eps must be positive")
    s_arr = np.asarray(s, dtype=float)
    a = np.abs(s_arr)
    c1 = a - eps
    c2 = c1 * c1 - 4.0 * (t - eps * a)
    out = np.where(c2 > 0,
                   np.sign(s_arr) * (c1 + np.sqrt(np.maximum(c2, 0.0))) / 2.0,
                   0.0)
    if np.isscalar(s) or np.ndim(s) == 0:
        return float(out)
    return out


def ltnn_prox(a: np.ndarray, t: float, eps: float) -> np.ndarray:
    """Slice-wise singular value thresholding in the mode-1 spectral domain.

    Rebuilds each half-spectrum slice X through its Gram matrix on the smaller
    side (module docstring) and inverts with ``irfft``, so the output is real
    by construction. t = 0 is the identity and returns a copy of ``a`` without
    transforming it.
    """
    a = np.asarray(a, dtype=float)
    if a.ndim != 3:
        raise ValueError("ltnn_prox expects a 3-way core")
    if t == 0:
        return a.copy()
    x = np.fft.rfft(a, axis=1).transpose(1, 0, 2)
    wide = a.shape[0] <= a.shape[2]
    xh = x.conj().swapaxes(1, 2)
    lam, u = np.linalg.eigh(x @ xh if wide else xh @ x)
    keep = lam > lam[:, -1:] * np.finfo(float).eps * max(a.shape[0], a.shape[2])
    sigma = np.sqrt(np.where(keep, lam, 1.0))
    gain = np.where(keep, log_threshold_scalar(sigma, t, eps) / sigma, 0.0)
    m = (u * gain[:, None, :]) @ u.conj().swapaxes(1, 2)
    rebuilt = m @ x if wide else x @ m
    return np.fft.irfft(rebuilt.transpose(1, 0, 2), n=a.shape[1], axis=1)
