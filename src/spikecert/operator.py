"""The stationary profile operator and its linearization, in interval arithmetic.

G(c) combines a diagonal linear part (identity, scaling drift, diffusion), a
quadratic self-advection realized through the basis interaction tensor, and a
stretching term that first passes the coefficients through the recovery
kernel.  Inputs live on modes 1..N; quadratic output spills into modes up to
2N and is deliberately not projected away, since the residual certification
needs exactly that spillover block.

G, its quadratic form and its Jacobian all come from one interaction sum.
For weights w on modes 1..N,

    A_w[j, l] = sum_k w_k C_{klj},   so   Q(u, v) = A_u v,

with A_u taken over the support of v and rows 1..2N.  With L the linear
symbol and K = diag(K_rec(k)), G(c) = L c + Q(c, c) + 2 Q(K c, c).  The
basis is symmetric, C_{klj} = C_{lkj}, so Q(u, v) = Q(v, u); that is used
twice and nowhere else:

* G(c) = L c + A_c c + 2 A_c (K c), since Q(K c, c) = Q(c, K c): one sum,
  A_c over the support of c with 2N rows;
* DG(c) h = L h + Q(h, c) + Q(c, h) + 2 Q(K h, c) + 2 Q(K c, h), where
  Q(h, c) = Q(c, h) = A_c h and Q(K h, c) = Q(c, K h) = A_c K h, while
  Q(K c, h) = A_{Kc} h; so J = L + 2 A_c + 2 A_c K + 2 A_{Kc} on rows and
  columns 1..N, two sums, A_c K being A_c with column m scaled by K_m.

The tensor is read only through the basis's interaction_block, one slab
per nonzero weight, added where the slab is nonzero; no selection rule is
assumed.  Every sum and product is outward rounded entry by entry, so each
entry encloses its exact value.  An entry no term reaches is exactly
[0, 0], and the vectors returned leave it out, as CoefficientVector does
for exact zeros.  Interval finite differences could never certify
anything; they appear only in tests as a consistency oracle for midpoints.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .basis import BasisModel
from .interval import _CHUNK, ONE, IntervalMatrix, IntervalScalar, _chunks, _np_add
from .spaces import CoefficientVector

__all__ = [
    "OperatorConfig",
    "apply_linear",
    "recover_velocity",
    "apply_quadratic",
    "apply_G",
    "assemble_jacobian",
]


@dataclass(frozen=True)
class OperatorConfig:
    model: BasisModel
    nu: IntervalScalar
    truncation_N: int = 450

    def __post_init__(self):
        if not isinstance(self.truncation_N, int) or self.truncation_N < 1:
            raise ValueError(
                f"truncation_N must be a positive integer, got {self.truncation_N!r}"
            )


def _check_support(c: CoefficientVector, cfg: OperatorConfig, who: str) -> None:
    if c.entries and c.support[-1] > cfg.truncation_N:
        raise ValueError(
            f"{who}: input mode {c.support[-1]} exceeds truncation N={cfg.truncation_N}"
        )


def apply_linear(c: CoefficientVector, cfg: OperatorConfig) -> CoefficientVector:
    """Mode-j output (1 + d_j + nu*lambda_j) c_j."""
    _check_support(c, cfg, "apply_linear")
    out = []
    for j, cj in c.items():
        sym = ONE + cfg.model.drift_eig(j) + cfg.nu * cfg.model.diffusion_eig(j)
        out.append((j, sym * cj))
    return CoefficientVector(tuple(out), cfg.truncation_N)


def recover_velocity(c: CoefficientVector, cfg: OperatorConfig) -> CoefficientVector:
    """Velocity coefficients K_rec(k) c_k (the elliptic inverse and weighted
    derivative collapsed into the kernel's net multiplier)."""
    _check_support(c, cfg, "recover_velocity")
    return CoefficientVector(
        tuple((k, cfg.model.recovery_kernel(k) * ck) for k, ck in c.items()),
        cfg.truncation_N,
    )


def _interaction_sums(
    weights: Sequence[CoefficientVector], cols: Sequence[int], n: int, cfg: OperatorConfig
) -> list:
    """A_w for each w in ``weights``: the n x len(cols) matrix with
    [j-1, i] = sum_k C_{k, cols[i], j} w_k.

    Each sum runs over its nonzero weights in mode order, each term added
    only where its slab is nonzero, at most _CHUNK entries at a time; an
    entry no term reaches is [0, 0].  A source mode's slab and its nonzeros
    are formed once and serve every sum with a nonzero weight there.
    """
    sums = [(np.zeros((n, len(cols))), np.zeros((n, len(cols)))) for _ in weights]
    by_mode = [dict(w.items()) for w in weights]
    for k in sorted(set().union(*by_mode)):
        terms = [(acc, ws[k]) for acc, ws in zip(sums, by_mode) if k in ws]
        terms = [(acc, wk) for acc, wk in terms if not wk.lo == 0.0 == wk.hi]
        if not terms:
            continue
        block = cfg.model.interaction_block(k, cols, n)
        rows, at = np.nonzero(~_zeros(block))
        for part in _chunks(0, rows.size):
            j, i = rows[part], at[part]
            entries = block[None, j, i]
            for (lo, hi), wk in terms:
                term = entries * wk
                lo[j, i] = _np_add(lo[j, i], term.lo[0], up=False)
                hi[j, i] = _np_add(hi[j, i], term.hi[0], up=True)
    return [IntervalMatrix(lo, hi) for lo, hi in sums]


def _times(A: IntervalMatrix, v: CoefficientVector) -> IntervalMatrix:
    """A v as a 1 x n row, for an n x |v| matrix A over the support of v:
    A's columns scaled by v's entries and added in support order."""
    cols = IntervalMatrix(A.lo.T, A.hi.T)
    out = IntervalMatrix(np.zeros((1, A.shape[0])), np.zeros((1, A.shape[0])))
    for i, (_, vi) in enumerate(v.items()):
        out = out + cols[i : i + 1] * vi
    return out


def apply_quadratic(
    u: CoefficientVector, v: CoefficientVector, cfg: OperatorConfig
) -> CoefficientVector:
    """Bilinear form Q(u,v)_j = sum_{k,l<=N} C_{klj} u_k v_l, supported on 1..2N.

    Formed as A_u v with A_u over the support of v, so sparse inputs cost
    O(|u||v| N) rather than O(N^3).
    """
    _check_support(u, cfg, "apply_quadratic")
    _check_support(v, cfg, "apply_quadratic")
    (A,) = _interaction_sums((u,), v.support, 2 * cfg.truncation_N, cfg)
    return _vector(_times(A, v))


def apply_G(c: CoefficientVector, cfg: OperatorConfig) -> CoefficientVector:
    """Full operator: linear part + Q(c,c) + 2 Q(recover_velocity(c), c)."""
    return _vector(_G_row(c, cfg))


def _G_row(c: CoefficientVector, cfg: OperatorConfig) -> IntervalMatrix:
    """apply_G(c) as a 1 x 2N row, L c + A_c c + 2 A_c (K c), [0, 0] where no
    part reaches."""
    _check_support(c, cfg, "apply_G")
    n2 = 2 * cfg.truncation_N
    (A,) = _interaction_sums((c,), c.support, n2, cfg)
    lin = _dense(apply_linear(c, cfg), n2)
    return (lin + _times(A, c)) + _times(A, recover_velocity(c, cfg)) * 2.0


def _dense(c: CoefficientVector, n: int) -> IntervalMatrix:
    """c as a 1 x n row over modes 1..n, [0, 0] off its support."""
    at = np.array(c.support, dtype=np.intp) - 1
    lo, hi = np.zeros((1, n)), np.zeros((1, n))
    lo[0, at] = [x.lo for _, x in c.items()]
    hi[0, at] = [x.hi for _, x in c.items()]
    return IntervalMatrix(lo, hi)


def _vector(row: IntervalMatrix) -> CoefficientVector:
    """The entries of a 1 x n row that are not exactly [0, 0], as a vector
    over modes 1..n."""
    reached = np.flatnonzero(~_zeros(row)[0])
    return CoefficientVector(
        tuple((int(i) + 1, row.entry(0, i)) for i in reached), row.shape[1]
    )


def _row(entries) -> IntervalMatrix:
    return IntervalMatrix.from_scalars([entries])


def _zeros(M: IntervalMatrix) -> np.ndarray:
    return (M.lo == 0.0) & (M.hi == 0.0)


def assemble_jacobian(c: CoefficientVector, cfg: OperatorConfig) -> IntervalMatrix:
    """N x N projected Frechet derivative of apply_G at c,

        J = L + 2 A_c + 2 A_c K + 2 A_{Kc}

    (derived in the module docstring), combined a band of rows at a time.
    A_c and A_{Kc} come from one pass over the source modes.
    """
    _check_support(c, cfg, "assemble_jacobian")
    N = cfg.truncation_N
    model = cfg.model
    modes = range(1, N + 1)
    # A_c, overwritten by J
    J, a_kc = _interaction_sums((c, recover_velocity(c, cfg)), modes, N, cfg)
    K = _row([model.recovery_kernel(m) for m in modes])
    step = max(1, _CHUNK // N)  # rows per band; bounds the temporaries
    for r in range(0, N, step):
        band = slice(r, r + step)
        a = J[band]
        out = (a + a) + (a * K + a_kc[band]) * 2.0
        J.lo[band], J.hi[band] = out.lo, out.hi
    d = np.arange(N)
    drift = _row([model.drift_eig(m) for m in modes])
    sym = (drift + ONE) + cfg.nu * _row([model.diffusion_eig(m) for m in modes])
    diag = J[None, d, d] + sym
    J.lo[d, d], J.hi[d, d] = diag.lo[0], diag.hi[0]
    return J
