"""Reference helpers shared by the test suites, kept out of the package."""

import importlib.util
import math
from pathlib import Path

import numpy as np

from trfuse.harness import spectral_lift
from trfuse.metrics import _check_pair, _mapped, reference_span
from trfuse.prox import (log_threshold_scalar, ltnn_prox, ltnn_value,
                         soft_shrink_weighted, update_weights)
from trfuse.ring import TRFactors, compose
from trfuse.solver import SolverDivergenceError, cg_solve
from trfuse.tensor import fold, frobenius_norm, l1_norm, mode_n_product, unfold


def bench_oracle():
    """The benchmark's reference module ``bench/oracle.py``, which does not
    import the package: pinned phantoms, its own degradation and checks."""
    path = Path(__file__).resolve().parents[1] / "bench" / "oracle.py"
    spec = importlib.util.spec_from_file_location("bench_oracle", path)
    oracle = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(oracle)
    return oracle


def spectral_lift_baseline(z, model):
    """The baseline ``fuse`` scores, as the (W, H, B) cube the bands of
    :func:`trfuse.harness.spectral_lift` stack into, stored band-major."""
    band = spectral_lift(z, model)
    return np.stack([band(b) for b in range(model.u3.shape[1])]).transpose(1, 2, 0)


def dense_difference(extent):
    """The forward difference as a dense matrix: rows (-1, +1), last row zero."""
    d = np.zeros((extent, extent))
    idx = np.arange(extent - 1)
    d[idx, idx] = -1.0
    d[idx, idx + 1] = 1.0
    return d


def diff_along(x, axis):
    """D x along ``axis`` by ``np.diff``: slice i+1 minus slice i, the last slice 0."""
    return np.diff(x, axis=axis, append=np.take(x, [-1], axis=axis))


def diff_t_along(w, axis):
    """Dᵀ w along ``axis`` by ``np.diff``: slice i-1 minus slice i of w's first
    I-1 slices; w's last slice is ignored, as D's last row is zero."""
    head = np.take(w, range(w.shape[axis] - 1), axis=axis)
    return -np.diff(head, axis=axis, prepend=0.0, append=0.0)


def reference_update_block(n, cores, system, cfg, cg_log):
    """The block update as the solver ran it before its sweeps kept the core's
    unfolding: each sweep unfolds the split variables and folds the CG
    solution back into a core, and D and Dᵀ (here also inside the system's
    operator) are :func:`diff_along` and :func:`diff_t_along`."""
    def apply(g):
        return (system.a1 @ g @ system.b1 + g @ system.e
                + system.mu * diff_t_along(diff_along(g, 0), 0))

    core = cores[n]
    shape = core.shape
    anchor_mat = unfold(core, 1)
    mu = cfg.mu
    beta_eff = cfg.beta * cfg.beta_scales[n]
    rhs_static = system.rhs + cfg.eta * anchor_mat

    v = np.zeros(shape)
    m = np.zeros(shape)
    nn = np.zeros(shape)
    g_mat = anchor_mat.copy()
    sweeps = 0
    for _ in range(cfg.inner_max):
        sweeps += 1
        j = diff_along(core, 1) - m / mu
        weights = update_weights(j, cfg.varsigma)
        r = soft_shrink_weighted(j, cfg.alpha / mu, weights)
        rhs = (rhs_static
               + mu * diff_t_along(unfold(r + m / mu, 1), 0)
               + mu * unfold(v + nn / mu, 1))
        g_mat, iters, relres = cg_solve(apply, rhs, cfg.cg_tol, cfg.cg_max,
                                        x0=g_mat, precondition=system.precondition)
        cg_log.append((iters, relres))
        core_new = fold(g_mat, 1, shape)
        v = ltnn_prox(core_new - nn / mu, beta_eff / mu, cfg.eps_log)
        m = m + mu * (r - diff_along(core_new, 1))
        nn = nn + mu * (v - core_new)
        new_norm = frobenius_norm(core_new)
        if new_norm == 0.0:
            step = 0.0 if frobenius_norm(core) == 0.0 else math.inf
        else:
            step = frobenius_norm(core_new - core) / new_norm
        core = core_new
        if step < cfg.inner_tol:
            break

    cores[n] = core
    return sweeps


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


def plain_cg(apply, rhs, tol, max_iter, x0=None):
    """Unpreconditioned conjugate gradients, as the solver ran them before it
    took a preconditioner; returns (x, iterations, relative residual)."""
    rhs = np.asarray(rhs, dtype=float)
    bnorm = float(np.linalg.norm(rhs))
    x = np.zeros_like(rhs) if x0 is None else np.array(x0, dtype=float)
    if bnorm == 0.0:
        return np.zeros_like(rhs), 0, 0.0
    r = rhs - apply(x)
    p = r.copy()
    rs = float(np.sum(r * r))
    relres = math.sqrt(rs) / bnorm
    iters = 0
    while relres > tol and iters < max_iter:
        ap = apply(p)
        denom = float(np.sum(p * ap))
        if denom <= 0.0:
            break
        step = rs / denom
        x = x + step * p
        r = r - step * ap
        rs_new = float(np.sum(r * r))
        if not math.isfinite(rs_new):
            raise SolverDivergenceError("non-finite residual in conjugate gradients")
        p = r + (rs_new / rs) * p
        rs = rs_new
        relres = math.sqrt(rs) / bnorm
        iters += 1
    return x, iters, relres


def cube_objective(f, y, z, model, cfg):
    """The model objective with its data terms taken from composed cubes: each
    observation's estimate is the ring of the cores degraded by that
    observation's operators, and the reweighting is the cores' own."""
    val = 0.0
    for obs, ops, w in zip((y, z), model.mode_operators, (1.0, cfg.lam)):
        est = compose(TRFactors(tuple(g if u is None else mode_n_product(g, u, 1)
                                      for g, u in zip(f.cores, ops))))
        val += 0.5 * w * np.linalg.norm((np.asarray(obs) - est).ravel()) ** 2
    for n, g in enumerate(f.cores):
        diff = mode_n_product(g, dense_difference(g.shape[1]), 1)
        if cfg.alpha != 0.0:
            val += cfg.alpha * l1_norm(update_weights(diff, cfg.varsigma) * diff)
        beta_eff = cfg.beta * cfg.beta_scales[n]
        if beta_eff != 0.0:
            val += beta_eff * ltnn_value(g, cfg.eps_log)
    return float(val)


def rescale_pair(ref, est):
    """Map the reference range onto [0, 255] and est by the same map, in
    fresh C-order arrays, rounding as the metrics report maps each band."""
    ref, est = _check_pair(ref, est)
    lo, scale = reference_span(ref)
    return _mapped(ref, lo, scale), _mapped(est, lo, scale)


def einsum_sam(ref, est):
    """SAM from per-spectrum einsum dots: the mean angle in degrees over the
    spectra where neither vector is zero, with bit-equal spectra at angle 0,
    and the count of skipped spectra. The angle is nan on fewer than two
    bands."""
    bands = np.shape(ref)[2]
    x = np.asarray(ref, dtype=float).reshape(-1, bands)
    e = np.asarray(est, dtype=float).reshape(-1, bands)
    na = np.sqrt(np.einsum("pk,pk->p", x, x))
    ne = np.sqrt(np.einsum("pk,pk->p", e, e))
    keep = (na > 0) & (ne > 0)
    skipped = int(np.count_nonzero(~keep))
    if bands < 2:
        return math.nan, skipped
    x, e = x[keep], e[keep]
    cos = np.einsum("pk,pk->p", x, e) / (na[keep] * ne[keep])
    angles = np.degrees(np.arccos(np.clip(cos, -1.0, 1.0)))
    angles[np.all(x == e, axis=1)] = 0.0
    return float(np.mean(angles)), skipped
