"""Proximal pieces of the solver: weighted soft shrinkage and the logarithmic
tensor nuclear norm (LTNN) of ring cores.

The LTNN of a core G (R, S, R') is the mean over its S frequency slices, after
a DFT along mode 1, of sum_j log(sigma_j + eps). Its threshold operator acts
on each slice's singular values through :func:`log_threshold_scalar`.

G is real, so slices k and S-k of its DFT are complex conjugates with the
same singular values. Both operators therefore work on the half spectrum
``rfft(G, axis=1)``, slices 0..S//2.

The threshold operator takes no SVD. It thresholds a tall core (R > R') as
its transpose, since thresholding commutes with the transpose, so every
slice X it meets is wide, R <= R'. It reads X's singular values from the
eigenvalues λ of its Gram matrix X Xᴴ and applies the thresholded values f(σ)
as a matrix function of it, U diag(f(σ)/σ) Uᴴ X. With ε the machine epsilon,
eigenvalues at or below λ_max·ε·R' count as σ = 0 and add nothing, so a
rank-deficient slice keeps its null space whatever f(0+) is. A σ taken from
a Gram eigenvalue carries an absolute error of about √ε·σ_max, against
ε·σ_max from an SVD; the threshold sends such small σ to 0, but log(σ + eps)
would carry the error into the value, so :func:`ltnn_value`, which the
objective reads, stays on the SVD's singular values.

Slices of two rows, min(R, R') == 2, have 2×2 Gram matrices. They skip
``eigh``: the two eigenvalues come in closed form, the one-rotation
symmetric Schur step (Golub & Van Loan, Matrix Computations, §8.5), and the
matrix function is rebuilt from them elementwise, with no LAPACK call. Every
other core takes one batched ``eigh``. Both paths keep and weight the
eigenvalues by the same rule, :func:`_gains`.
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
    out = np.sign(s_arr) * _log_threshold(np.abs(s_arr), t, eps)
    if np.isscalar(s) or np.ndim(s) == 0:
        return float(out)
    return out


def _log_threshold(a: np.ndarray, t: float, eps: float) -> np.ndarray:
    """:func:`log_threshold_scalar` of nonnegative ``a``, with no checks."""
    c1 = a - eps
    c2 = c1 * c1 - 4.0 * (t - eps * a)
    return np.where(c2 > 0, (c1 + np.sqrt(np.maximum(c2, 0.0))) / 2.0, 0.0)


def ltnn_prox(a: np.ndarray, t: float, eps: float) -> np.ndarray:
    """Slice-wise singular value thresholding in the mode-1 spectral domain.

    Rebuilds each half-spectrum slice X through its Gram matrix X Xᴴ (module
    docstring) and inverts with ``irfft``, so the output is real by
    construction. t = 0 is the identity and returns a copy of ``a`` without
    transforming it.
    """
    a = np.asarray(a, dtype=float)
    if a.ndim != 3:
        raise ValueError("ltnn_prox expects a 3-way core")
    if t == 0:
        return a.copy()
    # thresholding commutes with the transpose (the rows of Xᵀ are X's
    # columns), so a tall core is thresholded as its transpose
    tall = a.shape[0] > a.shape[2]
    spec = np.fft.rfft(a.transpose(2, 1, 0) if tall else a, axis=1)
    if spec.shape[0] == 2:
        rebuilt = _two_row_prox(spec, t, eps)
    else:
        rebuilt = _gram_prox(spec.transpose(1, 0, 2), t, eps).transpose(1, 0, 2)
    out = np.fft.irfft(rebuilt, n=a.shape[1], axis=1)
    return out.transpose(2, 1, 0) if tall else out


def _gains(lam: np.ndarray, cols: int, t: float, eps: float) -> np.ndarray:
    """Gains f(√λ)/√λ of Gram eigenvalues ``lam``, ascending along the last axis.

    An eigenvalue at or below λ_max·ε·cols, with λ_max its slice's largest
    and cols the slices' column count R', counts as σ = 0 and gets gain 0.
    """
    keep = lam > lam[..., -1:] * np.finfo(float).eps * cols
    sigma = np.sqrt(np.where(keep, lam, 1.0))
    return np.where(keep, _log_threshold(sigma, t, eps) / sigma, 0.0)


def _gram_prox(x: np.ndarray, t: float, eps: float) -> np.ndarray:
    """Threshold wide slices x (H, R, R'), R <= R', through one batched ``eigh``."""
    lam, u = np.linalg.eigh(x @ x.conj().swapaxes(1, 2))
    gain = _gains(lam, x.shape[2], t, eps)
    return ((u * gain[:, None, :]) @ u.conj().swapaxes(1, 2)) @ x


def _two_row_prox(y: np.ndarray, t: float, eps: float) -> np.ndarray:
    """Threshold two-row slices y (2, H, R') in closed form.

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
    lam = (a + d)[:, None] / 2 + np.stack([-r, r], axis=1)
    lo, hi = _gains(lam, y.shape[2], t, eps).T
    mean = (hi + lo) / 2
    slope = np.divide(hi - lo, 2 * r, out=np.zeros_like(r), where=r > 0)
    m = np.array([[mean + slope * half, slope * b],
                  [slope * b.conj(), mean - slope * half]])
    return np.einsum("ijh,jhl->ihl", m, y)
