"""Alternating block solver for ring-factored image fusion.

Given a spatially degraded cube y and a spectrally degraded cube z, the
solver seeks ring cores G1, G2, G3 minimizing

    0.5 * ||y - compose(G1 x U1, G2 x U2, G3)||_F^2
  + 0.5 * lam * ||z - compose(G1, G2, G3 x U3)||_F^2
  + sum_n [ alpha * ||W_n o (G_n x D_n)||_1 + beta_n * LTNN(G_n) ]

where x denotes the product along each core's extent mode, D_n is the forward
difference along that mode (slice i+1 minus slice i, the last slice 0), W_n a
reweighting, and LTNN the logarithmic tensor nuclear norm. D and its adjoint
are applied as row stencils written into preallocated arrays; no difference
matrix is formed.

The outer loop is a proximal alternating minimization over the cores with
anchor weight eta, started from :func:`initial_factors`: cores 1 and 2 of
z's sequential-SVD ring and core 3 of y's, each at the configured ranks
(:func:`trfuse.ring.tr_svd_init`). Each block runs a small ADMM whose
auxiliaries and multipliers are re-zeroed at block entry; the quadratic
step is a generalized Sylvester system

    a1 G b1 + G e + mu * DᵀD G = R,    e = scale2 * b2 + (eta + mu) I,

on core n's unfolding G, solved by warm-started preconditioned conjugate
gradients. Each block update runs in that one layout: G, the split variable,
the low-rank auxiliary and both multipliers stay unfoldings for all sweeps,
and G is folded back into the core once, on exit. Each block entry builds
one :class:`BlockSystem` holding the operator, the data part of R and the
preconditioner: the exact inverse of the two-term part a1 G b1 + G e (Wei,
Dobigeon & Tourneret, IEEE TIP 2015).
a1 = V diag(s) Vᵀ is fixed for the whole solve, and (b1, e) is diagonalized
by one Cholesky factor and one eigendecomposition of its small right-hand side,
so applying the inverse takes four small products. The term mu * DᵀD G is left
out because it acts on the same side as a1 and does not commute with it, so
the three terms have no common eigenbasis. It is also small: the two-term
part is at least (eta + mu) I and ||DᵀD|| <= 4, so the preconditioned
operator's eigenvalues lie in [1, 1 + 4 mu / (eta + mu)], and CG needs about
two iterations per solve at the default weights.

The outer loop never forms the estimate. Its stop rule reads the relative
change ||x - x_prev|| / ||x|| from ring inner products of the cores
(:func:`trfuse.ring.inner`), expanding the squared difference as
||x||² + ||x_prev||² - 2 <x, x_prev>, and the solve returns the final
cores without composing them. The block systems read the observations only
through views of the C-order cubes (:func:`_observation_term`), so the loop
copies neither. The objective's data terms are quadratic in core 3's
unfolding G, and block 3's system is built from the updated cores 1 and 2,
so after block 3 they read ½||y||² + ½ lam ||z||² + ½ <G, Q G> - <b, G>
from that system's operator Q (less its anchor and splitting parts) and
data right-hand side b.
"""

from __future__ import annotations

import ctypes
import math
import time
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from .degradation import DegradationModel
from .prox import ltnn_prox, ltnn_value, soft_shrink_weighted, update_weights
from .ring import (TRFactors, _validate_ranks, inner, merge_cores, subchain_gram,
                   tr_svd_init)
from .tensor import fold, frobenius_norm, l1_norm, mode_n_product, unfold


class SolverDivergenceError(RuntimeError):
    """Raised when iterates stop being finite (or collapse to zero)."""


@dataclass(frozen=True)
class SolverConfig:
    """Model coefficients, penalty parameters, and iteration controls.

    beta_scales lets individual cores opt out of the LTNN term (used by the
    ablation grid); the effective weight on core n is beta * beta_scales[n].
    """

    ranks: tuple[int, int, int] = (2, 4, 2)
    lam: float = 1.0
    alpha: float = 1e-4
    beta: float = 0.5
    eta: float = 1.0
    mu: float = 0.1
    eps_log: float = 1e-2
    varsigma: float = 1e-3
    k_max: int = 50
    inner_max: int = 10
    inner_tol: float = 1e-3
    cg_tol: float = 1e-6
    cg_max: int = 300
    stop_tol: float = 1e-4
    beta_scales: tuple[float, float, float] = (1.0, 1.0, 1.0)

    def __post_init__(self):
        object.__setattr__(self, "ranks", _validate_ranks(self.ranks))
        for name in ("lam", "eta", "mu", "eps_log", "varsigma",
                     "inner_tol", "cg_tol", "stop_tol"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")
        for name in ("alpha", "beta"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be nonnegative")
        if self.k_max < 0:
            raise ValueError("k_max must be nonnegative")
        if self.inner_max < 1 or self.cg_max < 1:
            raise ValueError("inner_max and cg_max must be at least 1")
        object.__setattr__(self, "beta_scales",
                           tuple(float(s) for s in self.beta_scales))
        if len(self.beta_scales) != 3 or any(s < 0 for s in self.beta_scales):
            raise ValueError("beta_scales must be three nonnegative floats")


@dataclass
class IterationRecord:
    """One outer iteration.

    inner_sweeps sums the ADMM sweeps of the three blocks, each of which
    runs one CG solve; cg_iters sums the iterations of those solves, and
    cg_capped counts the ones that returned with the residual still above
    cg_tol, whether they stopped at cg_max or at a breakdown (pᵀAp ≤ 0).
    """

    k: int
    objective: float
    rel_change: float
    seconds: float
    inner_sweeps: int
    cg_iters: int
    cg_capped: int


@dataclass
class FusionResult:
    """The final ring cores, whose cube is the fused estimate, and the history."""

    factors: TRFactors
    history: list[IterationRecord]


def _diff(x: np.ndarray, out: np.ndarray) -> np.ndarray:
    """D x along axis 0, written into ``out``: row i+1 minus row i, the last row 0."""
    np.subtract(x[1:], x[:-1], out=out[:-1])
    out[-1] = 0.0
    return out


def _diff_t(head: np.ndarray, scale: float, out: np.ndarray) -> np.ndarray:
    """scale * Dᵀ w along axis 0, written into ``out``.

    ``head`` is w's first I-1 rows; D's last row is zero, so w's last row
    never enters. Row i of Dᵀ w is w[i-1] - w[i] with the rows -1 and I-1 of
    w taken as 0. It is formed as -scale times the forward difference of
    (0, head, 0), each step rounded once.
    """
    out[:-1] = head
    out[-1] = 0.0
    np.subtract(out[1:], head, out=out[1:])
    np.multiply(out, -scale, out=out)
    return out


def cg_solve(apply, rhs: np.ndarray, tol: float, max_iter: int,
             x0: np.ndarray | None = None, *, precondition
             ) -> tuple[np.ndarray, int, float]:
    """Preconditioned conjugate gradients on matrices under the trace inner product.

    ``precondition`` applies a symmetric positive definite approximation of
    the inverse of ``apply``; the identity gives plain CG.
    Returns (x, iterations, relative residual); stops at
    ||apply(x) - rhs|| <= tol * ||rhs|| (the true residual, not the
    preconditioned one) or at max_iter. ``x0`` is never written to; when no
    iteration runs, the returned x is ``x0`` itself. A right-hand side or a
    residual whose norm is not finite, at the start or after any step,
    raises SolverDivergenceError.
    """
    rhs = np.asarray(rhs, dtype=float)
    bnorm = float(np.linalg.norm(rhs))
    x = np.zeros_like(rhs) if x0 is None else np.asarray(x0, dtype=float)
    if bnorm == 0.0:
        return np.zeros_like(rhs), 0, 0.0
    r = rhs - apply(x)
    s = precondition(r)
    p = s
    rs = float((r * r).sum())
    rz = float((r * s).sum())
    if not (math.isfinite(bnorm) and math.isfinite(rs)):
        raise SolverDivergenceError("non-finite residual in conjugate gradients")
    relres = math.sqrt(rs) / bnorm
    iters = 0
    while relres > tol and iters < max_iter:
        ap = apply(p)
        denom = float((p * ap).sum())
        if denom <= 0.0:
            break
        step = rz / denom
        x = x + step * p
        r = r - step * ap
        rs = float((r * r).sum())
        if not math.isfinite(rs):
            raise SolverDivergenceError("non-finite residual in conjugate gradients")
        s = precondition(r)
        rz_new = float((r * s).sum())
        p = s + (rz_new / rz) * p
        rz = rz_new
        relres = math.sqrt(rs) / bnorm
        iters += 1
    return x, iters, relres


def sylvester_preconditioner(a1_eig: tuple[np.ndarray, np.ndarray],
                             b1: np.ndarray, e: np.ndarray):
    """Exact inverse of the two-term map g -> a1 g b1 + g e, as a function.

    ``a1_eig`` = (s, V) with a1 = V diag(s) Vᵀ; b1 is symmetric positive
    semidefinite and e symmetric positive definite. With e = L Lᵀ and
    L⁻¹ b1 L⁻ᵀ = W diag(l) Wᵀ, T = L⁻ᵀ W gives Tᵀ e T = I and
    Tᵀ b1 T = diag(l), so the map sends V H Tᵀ to V (H ∘ (s lᵀ + 1)) T⁻¹ and
    its inverse is r -> V ((Vᵀ r T) ./ (s lᵀ + 1)) Tᵀ: four small products.
    """
    s, v = a1_eig
    l_inv = np.linalg.inv(np.linalg.cholesky(e))
    lams, w = np.linalg.eigh(l_inv @ b1 @ l_inv.T)
    t = l_inv.T @ w
    scale = np.outer(s, lams) + 1.0

    def precondition(r: np.ndarray) -> np.ndarray:
        return v @ ((v.T @ r @ t) / scale) @ t.T
    return precondition


def block_constants(n: int, model: DegradationModel, cfg: SolverConfig
                    ) -> tuple[np.ndarray, tuple[np.ndarray, np.ndarray]]:
    """The part of block n's system that stays fixed for a whole solve.

    Returns (a1, (s, V)): a1 = w UᵀU for the observation (weight w, operator
    U) that degrades core n, and its eigendecomposition a1 = V diag(s) Vᵀ.
    """
    [(u, w)] = [(ops[n], w) for ops, w in zip(model.mode_operators, (1.0, cfg.lam))
                if ops[n] is not None]
    a1 = w * (u.T @ u)
    return a1, np.linalg.eigh(a1)


def _observation_term(obs: np.ndarray, n: int, a: np.ndarray, b: np.ndarray
                      ) -> np.ndarray:
    """unfold(obs, n) @ merge_cores(a, b).T, reading obs only through views.

    a and b are the cores of modes n + 1 and n + 2 as obs sees them. On a
    C-order obs the unfoldings along modes 0 and 2 are views, but along
    mode 1 a copy, so there obs is contracted along mode 0 first, with b,
    and the result, whose rows run over (i1, i2), with a, one small product
    per i1. Neither the unfolding nor the subchain matrix is formed.
    """
    if n != 1:
        return unfold(obs, n) @ merge_cores(a, b).T
    ra, rb, rc = a.shape[0], b.shape[0], b.shape[2]
    # t[(i1, i2), (m, c)] = sum over i0 of obs[i0, i1, i2] b[m, i0, c]
    t = unfold(obs, 0).T @ b.transpose(1, 0, 2).reshape(b.shape[1], rb * rc)
    t = t.reshape(obs.shape[1], -1, rc)
    return np.matmul(a.reshape(ra, -1), t).reshape(obs.shape[1], ra * rc)


@dataclass(frozen=True)
class BlockSystem:
    """Block n's quadratic step: the map g -> a1 g b1 + g e + mu * DᵀD g, the
    data part ``rhs`` of its right-hand side, and ``precondition``, the exact
    inverse of the two-term part a1 g b1 + g e (:func:`sylvester_preconditioner`).

    e = scale2 * b2 + (eta + mu) I folds the one-sided data term and the
    anchor and splitting shifts into one right factor; D differences
    consecutive rows of g.
    """

    a1: np.ndarray
    b1: np.ndarray
    e: np.ndarray
    mu: float
    rhs: np.ndarray
    precondition: Callable[[np.ndarray], np.ndarray]

    def apply(self, g: np.ndarray) -> np.ndarray:
        out = self.a1 @ g @ self.b1
        out += g @ self.e
        out += _diff_t(g[1:] - g[:-1], self.mu, np.empty_like(g))
        return out


def _block_system(n: int, cores, observations, model: DegradationModel,
                  cfg: SolverConfig, consts) -> BlockSystem:
    """Block n's quadratic-step system at ``cores``.

    ``observations`` is (y, z), and ``consts`` is :func:`block_constants` of
    block n. Each observation, with weight 1 for y and lam for z, contributes
    through its subchain matrix p: the cores other than n merged in cyclic
    order, each degraded by that observation's operator on its mode, so the
    observation's unfolding factors as U (G_n's unfolding) p. The
    observation that degrades core n gives the two-sided term w UᵀU g ppᵀ;
    the other gives w g ppᵀ. The Gram ppᵀ comes from the cores' transfer
    matrices (:func:`trfuse.ring.subchain_gram`), and each observation is
    contracted with the narrow p (:func:`_observation_term`) before Uᵀ is
    applied, which keeps every intermediate as small as the core's unfolding.
    """
    a1, a1_eig = consts
    rest = ((n + 1) % 3, (n + 2) % 3)
    rhs = []
    for obs, ops, w in zip(observations, model.mode_operators, (1.0, cfg.lam)):
        a, b = (cores[m] if ops[m] is None else mode_n_product(cores[m], ops[m], 1)
                for m in rest)
        term = _observation_term(obs, n, a, b)
        gram = subchain_gram(a, b)
        if ops[n] is None:
            e = w * gram + (cfg.eta + cfg.mu) * np.eye(len(gram))
            rhs.append(w * term)
        else:
            b1 = gram
            rhs.append(w * (ops[n].T @ term))
    return BlockSystem(a1=a1, b1=b1, e=e, mu=cfg.mu, rhs=rhs[0] + rhs[1],
                       precondition=sylvester_preconditioner(a1_eig, b1, e))


def update_block(n: int, cores: list[np.ndarray], system: BlockSystem,
                 cfg: SolverConfig, cg_log: list[tuple[int, float]]) -> int:
    """One proximal block update of core n via ADMM sweeps, in place in ``cores``.

    ``system`` is block n's :func:`_block_system` at ``cores``. Per sweep:
    shrink the weighted differences, solve the system by warm-started CG with
    its preconditioner, threshold the low-rank auxiliary, then take a
    multiplier ascent step. Weights are recomputed from the current split
    variable every sweep. Appends each CG solve's (iterations, relative
    residual) to ``cg_log`` and returns the number of sweeps run.

    The sweeps run on the core's unfolding g, where D differences consecutive
    rows; the split variable, the low-rank auxiliary and both multipliers
    share that layout, and g is folded back once, on exit. The prox and the
    step's norms read g through its (R, I, R') view, so they see the core's
    own element order.
    """
    shape = cores[n].shape
    # C order: CG's sums and products round in g's memory order
    g = np.ascontiguousarray(unfold(cores[n], 1))
    mu = cfg.mu
    beta_eff = cfg.beta * cfg.beta_scales[n]
    rhs_static = system.rhs + cfg.eta * g

    def as_core(mat: np.ndarray) -> np.ndarray:
        return mat.reshape(shape[1], shape[2], shape[0]).transpose(2, 0, 1)

    v = np.zeros_like(g)
    m = np.zeros_like(g)
    nn = np.zeros_like(g)
    rhs = np.empty_like(g)
    dg = _diff(g, np.empty_like(g))
    for sweeps in range(1, cfg.inner_max + 1):
        m_mu = m / mu
        nn_mu = nn / mu
        j = dg - m_mu
        weights = update_weights(j, cfg.varsigma)
        r = soft_shrink_weighted(j, cfg.alpha / mu, weights)
        # rhs = rhs_static + mu Dᵀ(r + m/mu) + mu (v + nn/mu)
        np.add(rhs_static, _diff_t(r[:-1] + m_mu[:-1], mu, rhs), out=rhs)
        rhs += mu * (v + nn_mu)
        g_new, iters, relres = cg_solve(system.apply, rhs, cfg.cg_tol, cfg.cg_max,
                                        x0=g, precondition=system.precondition)
        cg_log.append((iters, relres))
        np.copyto(as_core(v), ltnn_prox(as_core(g_new - nn_mu), beta_eff / mu,
                                        cfg.eps_log))
        m += mu * (r - _diff(g_new, dg))
        nn += mu * (v - g_new)
        new_norm = frobenius_norm(as_core(g_new))
        if new_norm == 0.0:
            step = 0.0 if frobenius_norm(g) == 0.0 else math.inf
        else:
            step = frobenius_norm(as_core(g_new - g)) / new_norm
        g = g_new
        if step < cfg.inner_tol:
            break

    cores[n] = fold(g, 1, shape)
    return sweeps


def objective(f: TRFactors, system: BlockSystem, data_sq: float,
              cfg: SolverConfig) -> float:
    """Model objective at the given cores.

    ``system`` is block 3's :func:`_block_system` at f's cores 1 and 2, and
    data_sq = ½||y||² + ½ lam ||z||². The data terms are the block's
    quadratic ½ <G, Q G> - <b, G> + data_sq at G = f's core 3 unfolding, where
    Q G = a1 G b1 + G (e - (eta + mu) I). That is a difference of terms as
    large as data_sq, so the value loses about log10(data_sq / objective) of
    its 16 digits (about 5 on a noiseless exact-rank fit); the iteration
    reads it only for its divergence check. The reweighting tensors are
    recomputed from the cores' own differences, which is the reweighting
    fixed point the inner loops drive toward.
    """
    g = unfold(f.cores[2], 1)
    e = system.e.copy()
    e.flat[::len(e) + 1] -= cfg.eta + cfg.mu
    qg = system.a1 @ g @ system.b1 + g @ e
    val = data_sq + 0.5 * float(np.sum(g * qg)) - float(np.sum(system.rhs * g))
    for n, core in enumerate(f.cores):
        if cfg.alpha != 0.0:
            diff = np.empty_like(core)
            _diff(core.swapaxes(0, 1), diff.swapaxes(0, 1))
            val += cfg.alpha * l1_norm(update_weights(diff, cfg.varsigma) * diff)
        beta_eff = cfg.beta * cfg.beta_scales[n]
        if beta_eff != 0.0:
            val += beta_eff * ltnn_value(core, cfg.eps_log)
    return float(val)


def initial_factors(y: np.ndarray, z: np.ndarray, cfg: SolverConfig) -> TRFactors:
    """Starting cores at the configured ranks: the sequential-SVD ring's
    cores 1 and 2 from z and core 3 from y."""
    fz = tr_svd_init(z, cfg.ranks)
    fy = tr_svd_init(y, cfg.ranks)
    return TRFactors((*fz.cores[:2], fy.cores[2]))


def _release_freed_heap() -> None:
    """Return the C heap's free pages to the OS, where the C library can.

    glibc trims the top of its main heap only when the free space there
    passes a threshold, so whether memory freed by the init or the solve
    stays resident depends on a few hundred KiB of allocations;
    malloc_trim(0) releases it whatever the layout, in every arena. Other C
    libraries lack the symbol, and nothing is done.
    """
    try:
        trim = ctypes.CDLL(None).malloc_trim
    except (AttributeError, OSError, TypeError):
        return
    trim(0)


def check_observations(y: np.ndarray, z: np.ndarray, model: DegradationModel
                       ) -> tuple[np.ndarray, np.ndarray]:
    """Return y and z as float arrays, or raise ValueError.

    Rejects tensors that are not 3-way, degradation operators whose shapes
    do not map z's extents onto y's, and NaN or Inf in either observation.
    """
    y = np.asarray(y, dtype=float)
    z = np.asarray(z, dtype=float)
    if y.ndim != 3 or z.ndim != 3:
        raise ValueError("solve expects 3-way tensors y and z")
    if model.u1.shape != (y.shape[0], z.shape[0]):
        raise ValueError(f"u1 shape {model.u1.shape} does not map extents "
                         f"{z.shape[0]} -> {y.shape[0]}")
    if model.u2.shape != (y.shape[1], z.shape[1]):
        raise ValueError(f"u2 shape {model.u2.shape} does not map extents "
                         f"{z.shape[1]} -> {y.shape[1]}")
    if model.u3.shape != (z.shape[2], y.shape[2]):
        raise ValueError(f"u3 shape {model.u3.shape} does not map extents "
                         f"{y.shape[2]} -> {z.shape[2]}")
    for name, obs in (("y", y), ("z", z)):
        if not np.all(np.isfinite(obs)):
            raise ValueError(f"{name} contains NaN or Inf")
    return y, z


def solve(y: np.ndarray, z: np.ndarray, model: DegradationModel,
          cfg: SolverConfig, init_factors_override: TRFactors | None = None
          ) -> FusionResult:
    """Run the full outer loop and return the final cores with the history.

    Stops when the relative change of the composed estimate falls to
    stop_tol, or after k_max outer iterations. That change is taken from
    ring inner products of the cores and the objective from block 3's
    system, so the solve composes nothing: the caller composes the fused
    cube from ``factors``, whole (:func:`trfuse.ring.compose`) or in slabs
    (:func:`trfuse.ring.compose_slabs`). k_max = 0 returns the
    initialization with an empty history. The heap the init freed is
    returned to the OS before the loop (:func:`_release_freed_heap`).
    Inputs that check_observations rejects raise ValueError before any work
    starts; non-finite objectives or a collapsed estimate raise
    SolverDivergenceError.
    """
    y, z = check_observations(y, z, model)
    if init_factors_override is not None:
        f = init_factors_override
        if f.dims != (z.shape[0], z.shape[1], y.shape[2]):
            raise ValueError(f"initial factors compose to {f.dims}, expected "
                             f"{(z.shape[0], z.shape[1], y.shape[2])}")
    else:
        f = initial_factors(y, z, cfg)
        # the init's temporaries are freed; keep the loop from growing the
        # heap on top of them
        _release_freed_heap()
    cores = list(f.cores)
    consts = [block_constants(n, model, cfg) for n in range(3)]
    data_sq = 0.5 * (float(np.vdot(y, y)) + cfg.lam * float(np.vdot(z, z)))
    new_sq = inner(f, f)

    history: list[IterationRecord] = []
    t0 = time.perf_counter()
    for k in range(1, cfg.k_max + 1):
        prev, prev_sq = f, new_sq
        cg_log: list[tuple[int, float]] = []
        for n in range(3):
            system = _block_system(n, cores, (y, z), model, cfg, consts[n])
            update_block(n, cores, system, cfg, cg_log)
        f = TRFactors(tuple(cores))
        new_sq = inner(f, f)
        if new_sq <= 0.0:
            raise SolverDivergenceError(f"estimate collapsed to zero at outer {k}")
        # ||x - x_prev||² by expansion: the cancellation costs about 8 of 16
        # digits at rel ≈ 1e-4, and the stop test needs 2
        diff_sq = new_sq + prev_sq - 2.0 * inner(f, prev)
        rel = math.sqrt(max(diff_sq, 0.0) / new_sq)
        obj = objective(f, system, data_sq, cfg)
        if not (math.isfinite(obj) and math.isfinite(rel)):
            raise SolverDivergenceError(f"non-finite objective at outer {k} "
                                        f"(objective={obj}, rel_change={rel})")
        history.append(IterationRecord(
            k=k, objective=obj, rel_change=rel, seconds=time.perf_counter() - t0,
            inner_sweeps=len(cg_log), cg_iters=sum(it for it, _ in cg_log),
            cg_capped=sum(1 for _, res in cg_log if res > cfg.cg_tol)))
        if rel < cfg.stop_tol:
            break
    return FusionResult(factors=f, history=history)
