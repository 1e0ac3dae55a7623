"""The stationary profile operator and its linearization, in interval arithmetic.

G(c) is a diagonal linear part (identity, scaling drift, diffusion) plus a
quadratic self-advection through the basis interaction tensor and a
stretching term that first passes the coefficients through the recovery
kernel.  Inputs live on modes 1..N; the quadratic output spills into modes
up to 2N, kept because the residual certification needs that block.

The operator reads the basis as rows and slabs alone: the linear symbol
L_j = 1 + d_j + nu lambda_j (``_symbol``) and the kernel K_rec as 1 x n
rows over the support or over 1..N, from ``drift_row``, ``diffusion_row``
and ``kernel_row``, and the tensor through ``interaction_block``, one
len(cols) x n slab C_k per source mode k with mode j along contiguous
memory, served already split into the float arrays Cm and Cr below.  Each
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
bit-identical to directed rounding entry by entry.  The slabs arrive split
(BasisModel.interaction_block), W is split once per call, and the terms and sums are
formed in place in buffers allocated once per call.  An entry no term
reaches is exactly [0, 0], left out of the vectors returned; an
overflowing sum, or a factor with an infinite endpoint (a slab entry with
rad = inf), makes its entries the whole line.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .basis import BasisModel
from .config import check_field
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
    truncation_N: int

    def __post_init__(self):
        check_field("truncation_N", self.truncation_N)


def _check_support(c: CoefficientVector, cfg: OperatorConfig, who: str) -> None:
    if c.entries and c.support[-1] > cfg.truncation_N:
        raise ValueError(
            f"{who}: input mode {c.support[-1]} exceeds truncation N={cfg.truncation_N}"
        )


def _symbol(modes: Sequence[int], cfg: OperatorConfig) -> IntervalMatrix:
    """The linear symbol 1 + d_j + nu*lambda_j over ``modes``, as a row."""
    model = cfg.model
    return (ONE + model.drift_row(modes)) + cfg.nu * model.diffusion_row(modes)


def _slab_terms(
    W: IntervalMatrix, ks: Sequence[int], cols: Sequence[int], n: int, cfg: OperatorConfig, out
):
    """Per source mode k = ks[r] whose weight row W_k (row r of ``W``, read
    as a column) is not all [0, 0], the len(cols) x n terms of
    C_{k, cols[i], j} W_k[i] (module docstring), written into out[0], out[1]
    and out[2] (mid, rad, scale), and the mask of entries reached (no
    factor [0, 0]).  W is split once; the slab arrives split and serves as
    scratch.  An unbounded slab entry (rad = inf) makes its rad term inf or
    NaN by arithmetic alone.  A weight [0, 0] reaches nothing, so its slab
    row's terms are set to 0 (inf times 0 left NaN there); an unbounded
    weight, split to 0, makes the entries its row reaches inf.  An
    overflowing term is inf or NaN, which _mid_rad_enclosure turns into
    the whole line, so the sums that run this generator turn numpy's
    warnings off."""
    Wm, Wr, w_inf = _mid_rad(W)
    Wa = np.abs(Wm) + Wr
    dead = (Wa == 0.0) & ~w_inf  # Wa is 0 where w_inf too
    # the two fixes below change nothing in a row with neither kind of weight
    fix = (dead | w_inf).any(axis=1).tolist()
    mid, rad, scale = out
    for r, k in enumerate(ks):
        if dead[r].all():
            continue
        Cm, Cr = cfg.model.interaction_block(k, cols, n)
        wm, wr, wa = Wm[r, :, None], Wr[r, :, None], Wa[r, :, None]
        np.multiply(Cm, wm, out=mid)
        Ca = np.abs(Cm, out=Cm)
        np.multiply(Ca, wr, out=rad)
        Ca += Cr
        rad += np.multiply(Cr, wa, out=Cr)
        reach = Ca != 0.0
        np.multiply(Ca, wa, out=scale)
        if fix[r]:
            at = dead[r]
            reach[at], rad[at], scale[at] = False, 0.0, 0.0
            at = w_inf[r]
            rad[at] = np.where(reach[at], np.inf, rad[at])
        del Cm, Cr, Ca  # the slab is freed before the next one is read
        yield reach


@np.errstate(over="ignore", invalid="ignore")
def _interaction_sum(
    W: IntervalMatrix, ks: Sequence[int], cols: Sequence[int], n: int, cfg: OperatorConfig
):
    """The n x len(cols) matrix [j-1, i] = sum_k C_{k, cols[i], j} W_k[i],
    added over k in order, so n counts the terms that reach an entry.  The
    sums run in place over its transpose, in the slabs' layout, and the
    endpoints are copied back C-contiguous once the sums are freed.
    numpy's warnings are off, for the slab generator too (_slab_terms)."""
    terms = np.empty((3, len(cols), n))
    sums = np.zeros((3, len(cols), n))
    count = np.zeros((len(cols), n), dtype=np.int32)
    for reach in _slab_terms(W, ks, cols, n, cfg, terms):
        sums += terms
        count += reach
    del terms
    J = _mid_rad_enclosure(*sums, count)
    del sums, count  # freed before the transposed copies
    J.lo = np.ascontiguousarray(J.lo.T)
    J.hi = np.ascontiguousarray(J.hi.T)
    return J


@np.errstate(over="ignore", invalid="ignore")
def _interaction_row(
    W: IntervalMatrix, ks: Sequence[int], cols: Sequence[int], n: int, cfg: OperatorConfig
):
    """_interaction_sum summed over i, a 1 x n row added by halves over i, then
    k: n is 1 + ceil(log2 len(cols)) + ceil(log2 #k) where a term reaches.
    Each source's three parts are halved in place in one buffer, and the
    halved rows copied into one array, halved in turn; numpy's warnings are
    off as in _interaction_sum."""
    terms = np.empty((3, len(cols), n))
    rows = np.zeros((3, max(len(ks), 1), n))
    reached, m = np.zeros(n, dtype=bool), 0
    for reach in _slab_terms(W, ks, cols, n, cfg, terms):
        rows[:, m] = _halving(terms.swapaxes(0, 1))
        reached |= reach.any(axis=0)
        m += 1
    mid, rad, scale = _halving(rows[:, : max(m, 1)].swapaxes(0, 1))[:, None]
    depth = 1 + (len(cols) - 1).bit_length() + (m - 1).bit_length()
    return _mid_rad_enclosure(mid, rad, scale, np.where(reached, depth, 0)[None])


def _halving(x: np.ndarray) -> np.ndarray:
    """Sums along the first axis, of length m >= 1, in place, in ceil(log2 m)
    rounds of stride s = 1, 2, 4, ...: each adds row i + s into row i for
    every i a multiple of 2s with i + s < m.  Those are the pairs of rounds
    that add rows 2i and 2i+1 and carry an odd last row over.  Returns row
    0, a view of x."""
    m, s = x.shape[0], 1
    while s < m:
        x[: m - s : 2 * s] += x[s :: 2 * s]
        s *= 2
    return x[0]


def apply_quadratic(
    u: CoefficientVector, v: CoefficientVector, cfg: OperatorConfig
) -> CoefficientVector:
    """Bilinear form Q(u,v)_j = sum_{k,l<=N} C_{klj} u_k v_l, supported on 1..2N,
    over the support of v, so sparse inputs cost O(|u||v| N), not O(N^3)."""
    _check_support(u, cfg, "apply_quadratic")
    _check_support(v, cfg, "apply_quadratic")
    # row r is W_k = v u_k, k the r-th mode of u's support
    W = _coefficients(v) * _coefficients(u)[0, :, None]
    return _vector(_interaction_row(W, u.support, v.support, 2 * cfg.truncation_N, cfg))


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
    # row r is W_k = c (1 + 2 K) c_k, k the r-th mode of the support
    W = stretched * coeffs[0, :, None]
    linear = _symbol(c.support, cfg) * coeffs
    at = np.array(c.support, dtype=np.intp) - 1
    lo, hi = np.zeros((1, n2)), np.zeros((1, n2))
    lo[0, at], hi[0, at] = linear.lo[0], linear.hi[0]
    return IntervalMatrix(lo, hi) + _interaction_row(W, c.support, c.support, n2, cfg)


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
    # row r is W_k = (K + (1 + K_k)) (2 c_k), k the r-th mode of the support
    src = np.array(c.support, dtype=np.intp)[:, None] - 1
    W = (K + (K[0, src] + ONE)) * (_coefficients(c)[0, :, None] * 2.0)
    J = _interaction_sum(W, c.support, modes, N, cfg)
    d = np.arange(N)
    diag = J[None, d, d] + _symbol(modes, cfg)
    J.lo[d, d], J.hi[d, d] = diag.lo[0], diag.hi[0]
    return J
