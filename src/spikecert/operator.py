"""The stationary profile operator and its linearization, in interval arithmetic.

G(c) is a diagonal linear part (identity, scaling drift, diffusion) plus a
quadratic self-advection through the basis interaction tensor and a
stretching term that first passes the coefficients through the recovery
kernel.  Inputs live on modes 1..N; the quadratic output spills into modes
up to 2N, kept because the residual certification needs that block.

The operator reads the basis as rows and slabs alone: the linear symbol
L_j = 1 + d_j + nu lambda_j (``_symbol``) and the kernel K_rec as 1 x n
rows over the support or over 1..N, from ``drift_row``, ``diffusion_row``
and ``kernel_row``, and the tensor through ``interaction_block``.  Each
product and sum of those rows keeps the operand order of the scalar
expression it stands for, so its entries have that expression's bits.
The scalar ``interaction`` stays only as the oracles' reference and the
hook a call tracer wraps.

With L the linear symbol, K = diag(K_rec(k)) and Q(u, v)_j = sum_{k,l}
C_{klj} u_k v_l, G(c) = L c + Q(c, c) + 2 Q(K c, c).  The basis is
symmetric, C_{klj} = C_{lkj}, so Q(K c, c) = Q(c, K c), and in mode j of
DG(c) h = L h + Q(h, c) + Q(c, h) + 2 Q(K h, c) + 2 Q(K c, h) the
coefficient of h_m is sum_k C_{kmj} c_k (2 + 2 K_m + 2 K_k).  Each of
Q, G and J is thus one sum
over source modes k of a slab C_k = interaction_block(k, cols, n) times
a weight row W_k formed in directed arithmetic (no selection rule assumed):

    Q(u, v)_j = sum_{k,l} u_k v_l C_{klj}
    G(c)_j    = L_j c_j + sum_{k,l} c_k c_l (1 + 2 K_l) C_{klj}
    J[j, m]   = L_m delta_jm + sum_k 2 c_k (1 + K_k + K_m) C_{kmj}

Each sum is formed in midpoint-radius form (Rump, *Fast and parallel
interval arithmetic*, BIT 39, 1999; *Verification methods*, Acta Numerica
19, 2010, section 10): with C_k and W_k split into float mid and rad,
float arrays add up mid, rad and scale from Cm Wm, |Cm| Wr + Cr (|Wm| +
Wr) and (|Cm| + Cr) (|Wm| + Wr).  Each exact C W lies within the second of
Cm Wm, and |Cm Wm| plus it is at most the third, so the exact sum lies
within rad + gamma_n scale of mid, plus an underflow term, with n bounding
the roundings a term meets (matrix._mid_rad_enclosure).  This is not
bit-identical to directed rounding entry by entry.  An entry no term
reaches is exactly [0, 0], left out of the vectors returned; an
overflowing sum, or a factor with an infinite endpoint, makes its entries
the whole line.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .basis import BasisModel
from .interval import ONE, IntervalScalar
from .matrix import IntervalMatrix, _mid_rad, _mid_rad_enclosure
from .spaces import CoefficientVector

__all__ = [
    "OperatorConfig",
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


def _symbol(modes: Sequence[int], cfg: OperatorConfig) -> IntervalMatrix:
    """The linear symbol 1 + d_j + nu*lambda_j over ``modes``, as a row."""
    model = cfg.model
    return (ONE + model.drift_row(modes)) + cfg.nu * model.diffusion_row(modes)


def _slab_terms(weights: dict, cols: Sequence[int], n: int, cfg: OperatorConfig):
    """Per source mode k, the n x len(cols) terms of C_{k, cols[i], j} W_k[i]
    (module docstring), W_k = ``weights[k]``, and the mask of entries reached
    (no factor [0, 0]); an infinite endpoint makes its radius term inf."""
    for k, w in weights.items():
        Wm, Wr, w_inf = _mid_rad(w)
        Wa = np.abs(Wm) + Wr
        w_live = (Wa != 0.0) | w_inf
        if not w_live.any():
            continue
        Cm, Cr, c_inf = _mid_rad(cfg.model.interaction_block(k, cols, n))
        mid = Cm * Wm
        Ca = np.abs(Cm, out=Cm)
        rad = Ca * Wr
        rad += Cr * Wa
        Ca += Cr
        reach = ((Ca != 0.0) | c_inf) & w_live
        rad[reach & (c_inf | w_inf)] = np.inf
        Ca *= Wa
        del Cm, Cr  # the slab is freed before the next one is read
        yield mid, rad, Ca, reach
        del mid, rad, Ca


@np.errstate(over="ignore", invalid="ignore")
def _interaction_sum(weights: dict, cols: Sequence[int], n: int, cfg: OperatorConfig):
    """The n x len(cols) matrix [j-1, i] = sum_k C_{k, cols[i], j} W_k[i],
    added over k in order, so n counts the terms that reach an entry.  An
    overflowing term or sum is inf or NaN here, which _mid_rad_enclosure
    turns into the whole line, so numpy's warnings are off (for the slab
    generator too, which runs inside this call)."""
    sums = [np.zeros((n, len(cols))) for _ in range(3)]
    count = np.zeros((n, len(cols)), dtype=np.int32)
    for *terms, reach in _slab_terms(weights, cols, n, cfg):
        for acc, x in zip(sums, terms):
            acc += x
        count += reach
        del terms
    return _mid_rad_enclosure(*sums, count)


@np.errstate(over="ignore", invalid="ignore")
def _interaction_row(weights: dict, cols: Sequence[int], n: int, cfg: OperatorConfig):
    """_interaction_sum summed over i, a 1 x n row added by halves over i, then
    k: n is 1 + ceil(log2 len(cols)) + ceil(log2 #k) where a term reaches;
    numpy's warnings are off as in _interaction_sum."""
    parts, reached = ([], [], []), np.zeros(n, dtype=bool)
    for *terms, reach in _slab_terms(weights, cols, n, cfg):
        for part, x in zip(parts, terms):
            part.append(_halving(x))
        reached |= reach.any(axis=1)
    mid, rad, scale = (_halving(np.stack(p or [np.zeros(n)], axis=1))[None] for p in parts)
    depth = 1 + (len(cols) - 1).bit_length() + (len(parts[0]) - 1).bit_length()
    return _mid_rad_enclosure(mid, rad, scale, np.where(reached, depth, 0)[None])


def _halving(x: np.ndarray) -> np.ndarray:
    """Sums along the last axis, of length m >= 1, in ceil(log2 m) rounds."""
    while (m := x.shape[-1]) > 1:
        x = np.concatenate((x[..., : m - 1 : 2] + x[..., 1::2], x[..., m - m % 2 :]), axis=-1)
    return x[..., 0]


def apply_quadratic(
    u: CoefficientVector, v: CoefficientVector, cfg: OperatorConfig
) -> CoefficientVector:
    """Bilinear form Q(u,v)_j = sum_{k,l<=N} C_{klj} u_k v_l, supported on 1..2N,
    over the support of v, so sparse inputs cost O(|u||v| N), not O(N^3)."""
    _check_support(u, cfg, "apply_quadratic")
    _check_support(v, cfg, "apply_quadratic")
    v_row = _coefficients(v)
    weights = {k: v_row * uk for k, uk in u.items()}
    return _vector(_interaction_row(weights, v.support, 2 * cfg.truncation_N, cfg))


def apply_G(c: CoefficientVector, cfg: OperatorConfig) -> CoefficientVector:
    """Full operator: linear part + Q(c,c) + 2 Q(K_rec c, c)."""
    return _vector(_G_row(c, cfg))


def _G_row(c: CoefficientVector, cfg: OperatorConfig) -> IntervalMatrix:
    """apply_G(c) as a 1 x 2N row, [0, 0] where no part reaches: the linear
    part L_j c_j on the support of c, plus one interaction row."""
    _check_support(c, cfg, "apply_G")
    n2 = 2 * cfg.truncation_N
    coeffs = _coefficients(c)
    kernel = cfg.model.kernel_row(c.support)
    stretched = coeffs * (kernel * 2.0 + ONE)
    weights = {k: stretched * ck for k, ck in c.items()}
    linear = _symbol(c.support, cfg) * coeffs
    at = np.array(c.support, dtype=np.intp) - 1
    lo, hi = np.zeros((1, n2)), np.zeros((1, n2))
    lo[0, at], hi[0, at] = linear.lo[0], linear.hi[0]
    return IntervalMatrix(lo, hi) + _interaction_row(weights, c.support, n2, cfg)


def _vector(row: IntervalMatrix) -> CoefficientVector:
    """The entries of a 1 x n row that are not exactly [0, 0], as a vector
    over modes 1..n."""
    reached = np.flatnonzero((row.lo[0] != 0.0) | (row.hi[0] != 0.0))
    return CoefficientVector(
        tuple((int(i) + 1, row.entry(0, i)) for i in reached), row.shape[1]
    )


def _coefficients(c: CoefficientVector) -> IntervalMatrix:
    """c's coefficients as a 1 x |support| row, in the order of its support."""
    return IntervalMatrix.from_scalars([[x for _, x in c.items()]])


def assemble_jacobian(c: CoefficientVector, cfg: OperatorConfig) -> IntervalMatrix:
    """N x N projected Frechet derivative of apply_G at c: one interaction
    sum, then the linear symbol on the diagonal (module docstring)."""
    _check_support(c, cfg, "assemble_jacobian")
    N = cfg.truncation_N
    modes = range(1, N + 1)
    K = cfg.model.kernel_row(modes)
    # row i is W_k = (K + (1 + K_k)) (2 c_k), k the i-th mode of the support
    src = np.array(c.support, dtype=np.intp)[:, None] - 1
    W = (K + (K[0, src] + ONE)) * (_coefficients(c)[0, :, None] * 2.0)
    weights = {k: W[i, None] for i, k in enumerate(c.support)}
    J = _interaction_sum(weights, modes, N, cfg)
    d = np.arange(N)
    diag = J[None, d, d] + _symbol(modes, cfg)
    J.lo[d, d], J.hi[d, d] = diag.lo[0], diag.hi[0]
    return J
