"""Tensor-ring factor algebra: compose, inner, subchains and initializations.

A 3-way tensor X of extents (I1, I2, I3) is represented by three cores
G1 (R1, I1, R2), G2 (R2, I2, R3), G3 (R3, I3, R1); the entry at (i1, i2, i3)
is the trace of the product of the three lateral slices. Ranks close
cyclically, so the last rank of core 3 must equal the first rank of core 1.

Everything here rests on one identity, in the single matricization of
:mod:`trfuse.tensor`: with n + 1 and n + 2 taken cyclically,

    unfold(X, n) == unfold(G_n, 1) @ merge_cores(G_{n+1}, G_{n+2}),

where the merged subchain is an (R_{n+1}·R_n, I_{n+1}·I_{n+2}) matrix.
:func:`compose` is the identity at n = 0, and the ALS polish solves it for
each core in turn.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .tensor import fold, unfold


@dataclass(frozen=True)
class TRFactors:
    """An ordered triple of ring cores with cyclically consistent ranks."""

    cores: tuple[np.ndarray, np.ndarray, np.ndarray]

    def __post_init__(self):
        cores = tuple(np.asarray(c, dtype=float) for c in self.cores)
        object.__setattr__(self, "cores", cores)
        if len(cores) != 3:
            raise ValueError("expected exactly three ring cores")
        for n, c in enumerate(cores):
            if c.ndim != 3:
                raise ValueError(f"core {n} must be 3-way, got {c.ndim}-way")
        for n in range(3):
            left = cores[n].shape[2]
            right = cores[(n + 1) % 3].shape[0]
            if left != right:
                raise ValueError(f"rank mismatch between core {n} (last rank {left}) "
                                 f"and core {(n + 1) % 3} (first rank {right})")

    @property
    def ranks(self) -> tuple[int, int, int]:
        return tuple(c.shape[0] for c in self.cores)

    @property
    def dims(self) -> tuple[int, int, int]:
        return tuple(c.shape[1] for c in self.cores)

    def replace_core(self, n: int, core: np.ndarray) -> "TRFactors":
        cores = list(self.cores)
        cores[n] = core
        return TRFactors(tuple(cores))


def merge_cores(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The subchain matrix of adjacent cores a (Ra, J, Rb) and b (Rb, K, Rc).

    Row r·Rc + c, column j·K + k holds entry (r, c) of the slice product
    a[:, j, :] @ b[:, k, :]. Rows match ``unfold``'s columns of the core
    (Rc, I, Ra) before a, and columns match the tensor's.
    """
    ra, j, mid = a.shape
    mid2, k, rc = b.shape
    if mid != mid2:
        raise ValueError(f"cores not adjacent: {a.shape} vs {b.shape}")
    return np.matmul(a[:, None], b.transpose(2, 0, 1)).reshape(ra * rc, j * k)


def compose(f: TRFactors) -> np.ndarray:
    """Evaluate the full tensor from its ring cores.

    The ring unfolding identity at mode 0, ``unfold(X, 0)`` being a view of
    the C-ordered cube: the product is written straight into the cube, the
    only cube-sized allocation.
    """
    g0, g1, g2 = f.cores
    out = np.empty(f.dims)
    np.matmul(unfold(g0, 1), merge_cores(g1, g2), out=unfold(out, 0))
    return out


def inner(f: TRFactors, g: TRFactors) -> float:
    """The inner product <compose(f), compose(g)>, formed without either cube.

    Core n's transfer matrix sums kron(F_n[:, i, :], G_n[:, i, :]) over the
    extent i, an (Ra·Rc, Rb·Rd) matrix for cores of ranks (Ra, Rb) and
    (Rc, Rd); the inner product is the trace of the ring's product of the
    three (Zhao et al., arXiv:1606.05535). O(I·R⁴) work per core, one GEMM
    over the extent each.
    """
    a, b, c = (np.tensordot(p, q, axes=(1, 1)).transpose(0, 2, 1, 3)
               .reshape(p.shape[0] * q.shape[0], -1)
               for p, q in zip(f.cores, g.cores))
    return float(np.trace(a @ b @ c))


def random_init(dims: tuple[int, int, int], ranks: tuple[int, int, int],
                seed: int = 0) -> TRFactors:
    """Gaussian cores scaled by 1/sqrt(R_n * R_{n+1}) to keep entries O(1)."""
    _validate_ranks(ranks)
    rng = np.random.default_rng(seed)
    cores = []
    for n in range(3):
        rn, rn1 = ranks[n], ranks[(n + 1) % 3]
        cores.append(rng.standard_normal((rn, dims[n], rn1)) / np.sqrt(rn * rn1))
    return TRFactors(tuple(cores))


def _validate_ranks(ranks) -> tuple[int, int, int]:
    ranks = tuple(int(r) for r in ranks)
    if len(ranks) != 3 or any(r < 1 for r in ranks):
        raise ValueError(f"ranks must be three positive integers, got {ranks}")
    return ranks


def _core_solve(smat: np.ndarray, target: np.ndarray) -> np.ndarray:
    """Minimum-norm g minimizing ||target - g smatᵀ||_F.

    One thin SVD of the transposed subchain matrix ``smat`` (J x R) and one
    product with ``target`` (I x J). Singular values at or below
    s_max * eps * max(J, R) count as zero, the cutoff numpy's least-squares
    solver applies by default, so rank-deficient and all-zero subchains give
    the same minimum-norm solution it does.
    """
    u, s, vt = np.linalg.svd(smat, full_matrices=False)
    keep = s > s[0] * np.finfo(float).eps * max(smat.shape)
    return (target @ u[:, keep]) / s[keep] @ vt[keep]


# the polish only starts the solver, which fits the data itself; more sweeps
# pull toward an exact fit that hands the loop a worse start (README, "Notes")
_POLISH_SWEEPS = 3


def _als_polish(t: np.ndarray, f: TRFactors) -> TRFactors:
    """``_POLISH_SWEEPS`` alternating exact least-squares sweeps over the cores.

    Core n's update is the exact least-squares solution of the ring
    unfolding identity ``unfold(t, n) = unfold(G_n, 1) @ merge_cores(G_{n+1},
    G_{n+2})``, so the fit error never increases.
    """
    targets = [unfold(t, n) for n in range(3)]
    for _ in range(_POLISH_SWEEPS):
        for n in range(3):
            sub = merge_cores(f.cores[(n + 1) % 3], f.cores[(n + 2) % 3])
            g = _core_solve(sub.T, targets[n])
            f = f.replace_core(n, fold(g, 1, f.cores[n].shape))
    return f


def _sequential_svd(t: np.ndarray, ranks: tuple[int, int, int]) -> TRFactors:
    """The two sequential SVD splits of ``t`` into ring cores of ``ranks``.

    The ranks must be ones the extents carry, as :func:`tr_svd_init` clamps
    them; none is clamped here. The first split needs only the leading left
    singular vectors u of the mode-0 matricization m, and m's right factor is
    never formed: with mᵀ = QR, m = Rᵀ Qᵀ shares its left singular vectors
    with Rᵀ, at most I1 x I1, and the split keeps uᵀ m. On a wide m these are
    the two steps LAPACK's ``dgesdd`` takes (an LQ factorization, then the
    SVD of L), with the same Householder reflectors, so u carries the signs a
    full SVD of m gives it (README, "Notes").

    The full-size factors die on return, so they are not held through
    the polish that follows.
    """
    r1, r2, r3 = ranks
    i1, i2, i3 = t.shape
    # m in C order, column i2·l + j holding t[:, j, l] (i2 fastest): mᵀ is
    # then the column-major matrix LAPACK factors, copied contiguously
    m = np.ascontiguousarray(t.transpose(0, 2, 1)).reshape(i1, i2 * i3)
    k = r1 * r2
    u = np.linalg.svd(np.linalg.qr(m.T, mode="r").T, full_matrices=False)[0][:, :k]
    core1 = u.reshape(i1, r2, r1).transpose(2, 0, 1)
    z = u.T @ m

    # regroup rows (r1 fastest, r2) and columns (i2 fastest, i3) into the
    # split (r2, i2) x (i3, r1) used by the second factorization
    z4 = z.reshape(r2, r1, i3, i2)
    m2 = z4.transpose(3, 0, 1, 2).reshape(i2 * r2, r1 * i3)

    u2, s2, v2t = np.linalg.svd(m2, full_matrices=False)
    core2 = u2[:, :r3].reshape(i2, r2, r3).transpose(1, 0, 2)
    w = s2[:r3, None] * v2t[:r3]
    core3 = w.reshape(r3, r1, i3).transpose(0, 2, 1)

    return TRFactors((np.ascontiguousarray(core1),
                      np.ascontiguousarray(core2),
                      np.ascontiguousarray(core3)))


def _pad_core(core: np.ndarray, shape: tuple[int, int, int]) -> np.ndarray:
    """``core`` zero-padded in its two rank modes to ``shape``."""
    if core.shape == shape:
        return core
    out = np.zeros(shape)
    out[:core.shape[0], :, :core.shape[2]] = core
    return out


def tr_svd_init(t: np.ndarray, ranks: tuple[int, int, int]) -> TRFactors:
    """Sequential SVD initialization of ring cores at the requested ranks.

    Steps: matricize ``t`` along mode 0 (columns in natural order, i2 fastest),
    take a rank R1*R2 truncated SVD, split U's column index as (r1 fastest, r2)
    into core 1, then reshape S*Vt to (R2*I2) x (I3*R1) and split again with a
    rank R3 truncated SVD into cores 2 and 3.

    Ranks the matricizations cannot carry, R1·R2 past min(I1, I2·I3) or R3
    past min(I2·R2, R1·I3), are clamped once, up front, with one warning.
    The splits and the polish run at the clamped ranks, and the cores come
    back zero-padded to the requested ones.

    The sequential pass alone cannot recover an exactly low-rank tensor: the
    first SVD mixes the two ring indices sharing its rank bound, which breaks
    the second split. Three alternating exact least-squares sweeps polish the
    cores for every input; they start the solver and do not decompose ``t``
    exactly.
    """
    t = np.asarray(t, dtype=float)
    if t.ndim != 3:
        raise ValueError("tr_svd_init expects a 3-way tensor")
    ranks = r1, r2, r3 = _validate_ranks(ranks)
    i1, i2, i3 = t.shape
    kmax = min(i1, i2 * i3)
    if r1 * r2 > kmax:
        r1, r2 = (kmax, 1) if r1 > kmax else (r1, kmax // r1)
    carried = (r1, r2, min(r3, i2 * r2, r1 * i3))
    if carried != ranks:
        warnings.warn(f"ring ranks clamped to {carried} for extents {t.shape}")
    f = _als_polish(t, _sequential_svd(t, carried))
    return TRFactors(tuple(_pad_core(core, (ranks[n], t.shape[n], ranks[(n + 1) % 3]))
                           for n, core in enumerate(f.cores)))
