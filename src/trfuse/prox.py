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

A core whose smaller rank is 2, min(R, R') == 2, has slices of two rows (or
two columns), so each Gram matrix is 2×2. Such a core skips ``eigh``: the
two eigenvalues come in closed form, the one-rotation symmetric Schur step
(Golub & Van Loan, Matrix Computations, §8.5), and the matrix function is
rebuilt from them elementwise under the same keep rule, with no LAPACK call.
Every other core takes the batched ``eigh``.
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
    r, r2 = a.shape[0], a.shape[2]
    spec = np.fft.rfft(a, axis=1)
    if r == 2 <= r2:
        rebuilt = _two_row_prox(spec, t, eps, r2)
    elif r2 == 2 < r:
        # thresholding commutes with the transpose: rows of Xᵀ are X's columns
        rebuilt = _two_row_prox(spec.transpose(2, 1, 0), t, eps, r).transpose(2, 1, 0)
    else:
        rebuilt = _gram_prox(spec.transpose(1, 0, 2), t, eps).transpose(1, 0, 2)
    return np.fft.irfft(rebuilt, n=a.shape[1], axis=1)


def _gram_prox(x: np.ndarray, t: float, eps: float) -> np.ndarray:
    """Threshold the slices x (H, R, R') through one batched ``eigh``."""
    wide = x.shape[1] <= x.shape[2]
    xh = x.conj().swapaxes(1, 2)
    lam, u = np.linalg.eigh(x @ xh if wide else xh @ x)
    keep = lam > lam[:, -1:] * np.finfo(float).eps * max(x.shape[1], x.shape[2])
    sigma = np.sqrt(np.where(keep, lam, 1.0))
    gain = np.where(keep, log_threshold_scalar(sigma, t, eps) / sigma, 0.0)
    m = (u * gain[:, None, :]) @ u.conj().swapaxes(1, 2)
    return m @ x if wide else x @ m


def _two_row_prox(y: np.ndarray, t: float, eps: float, long_side: int) -> np.ndarray:
    """Threshold two-row slices y (2, H, long_side) in closed form.

    Row pair p = y[0], q = y[1] of each slice has the Gram matrix
    [[a, b], [b̄, d]], whose eigenvalues are (a+d)/2 ± r with
    r = hypot((a-d)/2, |b|). A gain g(λ) applied as a matrix function of it is
    ḡ I + (Δg/r) [[(a-d)/2, b], [b̄, -(a-d)/2]], with ḡ and Δg the mean and
    half-difference of g(λ₊) and g(λ₋); where r = 0 the gains are equal and
    the second term vanishes.
    """
    gram = np.einsum("ihl,jhl->ijh", y, y.conj())
    a, d, b = gram[0, 0].real, gram[1, 1].real, gram[0, 1]
    half = (a - d) / 2
    r = np.hypot(half, np.abs(b))
    lam = (a + d) / 2 + np.stack([r, -r])
    keep = lam > lam[0] * np.finfo(float).eps * long_side
    sigma = np.sqrt(np.where(keep, lam, 1.0))
    gain = np.where(keep, log_threshold_scalar(sigma, t, eps) / sigma, 0.0)
    mean = (gain[0] + gain[1]) / 2
    slope = np.divide(gain[0] - gain[1], 2 * r, out=np.zeros_like(r), where=r > 0)
    m = np.array([[mean + slope * half, slope * b],
                  [slope * b.conj(), mean - slope * half]])
    return np.einsum("ijh,jhl->ihl", m, y)
