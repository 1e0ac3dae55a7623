"""The stationary profile operator and its linearization, in interval arithmetic.

G(c) combines a diagonal linear part (identity, scaling drift, diffusion), a
quadratic self-advection realized through the basis interaction tensor, and a
stretching term that first passes the coefficients through the recovery
kernel.  Inputs live on modes 1..N; quadratic output spills into modes up to
2N and is deliberately not projected away, since the residual certification
needs exactly that spillover block.

The operator reads the interaction tensor only through the basis's
interaction_block, one slab per source mode k, and takes the modes k reaches
from the slab's nonzero entries; it assumes no selection rule of its own.
The Jacobian is assembled analytically from the bilinear structure.  For a
symmetric interaction C_{kmj} its column m is

    J[j, m] = sum_{k in S} [ C_{kmj} c_k + C_{kmj} c_k
                             + 2 (C_{kmj} (K_m c_k) + C_{kmj} (K_k c_k)) ]
              + delta_{jm} (1 + d_m + nu lambda_m),

S the support of c and K the recovery kernel.  The assembly loops over the
few source modes k and updates the nonzero entries of each slab with
elementwise interval arithmetic.  The terms are formed and summed in the
order apply_quadratic uses, so every endpoint is the one a column-by-column
scalar assembly gives.  Interval finite differences could never certify
anything; they appear only in tests as a consistency oracle for midpoints.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .basis import BasisModel
from .interval import ONE, IntervalMatrix, IntervalScalar, _chunks, _np_add
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


def apply_quadratic(
    u: CoefficientVector, v: CoefficientVector, cfg: OperatorConfig
) -> CoefficientVector:
    """Bilinear form Q(u,v)_j = sum_{k,l<=N} C_{klj} u_k v_l, supported on 1..2N.

    Iterates over support pairs, so sparse inputs cost O(|u||v| N) rather
    than O(N^3).  The terms C_{klj} (u_k v_l) of a run of pairs are formed
    at once with elementwise interval arithmetic, only where C_{klj} is
    nonzero, then added pair by pair over all output modes: every mode sums
    its terms in pair order, so its endpoints are those of a scalar running
    sum.
    """
    return _vector(_quadratic_row(u, v, cfg))


_STACK = 1 << 15  # entries per stack of interaction blocks; bounds the temporaries


def _quadratic_row(
    u: CoefficientVector, v: CoefficientVector, cfg: OperatorConfig
) -> IntervalMatrix:
    """Q(u, v) as a 1 x 2N row, absent (-0.0) where no term reaches."""
    _check_support(u, cfg, "apply_quadratic")
    _check_support(v, cfg, "apply_quadratic")
    n2 = 2 * cfg.truncation_N
    lo, hi = np.full(n2, -0.0), np.full(n2, -0.0)
    pairs = [
        (k, l, uk * vl)
        for k, uk in u.items()
        if not (uk.mag() == 0.0 and uk.lo == uk.hi)
        for l, vl in v.items()
    ]
    width = max(1, _STACK // n2)  # pairs per stack
    for run in (pairs[a : a + width] for a in range(0, len(pairs), width)):
        # the blocks of the run's source modes side by side, transposed: row
        # p is pair p in (k, l) order
        blocks = [
            cfg.model.interaction_block(k, [l for _, l, _ in group], n2)
            for k, group in itertools.groupby(run, key=lambda pair: pair[0])
        ]
        ckl = IntervalMatrix(
            np.vstack([b.lo.T for b in blocks]), np.vstack([b.hi.T for b in blocks])
        )
        at = np.flatnonzero(~_zeros(ckl))
        terms = IntervalMatrix(np.full(ckl.shape, -0.0), np.full(ckl.shape, -0.0))
        _put(terms, at, _take(ckl, at) * _take(_row([p for *_, p in run]), at // n2))
        for t_lo, t_hi in zip(terms.lo, terms.hi):
            lo, hi = _np_add(lo, t_lo, up=False), _np_add(hi, t_hi, up=True)
    return IntervalMatrix(lo[None, :], hi[None, :])


def apply_G(c: CoefficientVector, cfg: OperatorConfig) -> CoefficientVector:
    """Full operator: linear part + Q(c,c) + 2 Q(recover_velocity(c), c).

    The three parts are joined as rows over modes 1..2N, in that order.
    """
    return _vector(_G_row(c, cfg))


def _G_row(c: CoefficientVector, cfg: OperatorConfig) -> IntervalMatrix:
    """apply_G(c) as a 1 x 2N row, absent (-0.0) where no part reaches."""
    _check_support(c, cfg, "apply_G")
    lin = _dense(apply_linear(c, cfg), 2 * cfg.truncation_N)
    advection = _quadratic_row(c, c, cfg)
    stretching = _quadratic_row(recover_velocity(c, cfg), c, cfg)
    return (lin + advection) + _unless(_absent(stretching), stretching * 2.0)


def _dense(c: CoefficientVector, n: int) -> IntervalMatrix:
    """c as a 1 x n row over modes 1..n, absent (-0.0) off its support."""
    at = np.array(c.support, dtype=np.intp) - 1
    lo, hi = np.full((1, n), -0.0), np.full((1, n), -0.0)
    lo[0, at] = [x.lo for _, x in c.items()]
    hi[0, at] = [x.hi for _, x in c.items()]
    return IntervalMatrix(lo, hi)


def _vector(row: IntervalMatrix) -> CoefficientVector:
    """The entries of a 1 x n row that are not absent, as a vector over modes 1..n."""
    reached = np.flatnonzero(~_absent(row)[0])
    return CoefficientVector(
        tuple((int(i) + 1, row.entry(0, i)) for i in reached), row.shape[1]
    )


def _row(entries) -> IntervalMatrix:
    return IntervalMatrix.from_scalars([entries])


def _zeros(M: IntervalMatrix) -> np.ndarray:
    return (M.lo == 0.0) & (M.hi == 0.0)


def _take(M: IntervalMatrix, flat: np.ndarray) -> IntervalMatrix:
    """Entries of M at flat (row-major) positions, as a row."""
    return IntervalMatrix(M.lo.reshape(-1)[flat][None, :], M.hi.reshape(-1)[flat][None, :])


def _put(M: IntervalMatrix, flat: np.ndarray, row: IntervalMatrix) -> None:
    M.lo.reshape(-1)[flat] = row.lo[0]
    M.hi.reshape(-1)[flat] = row.hi[0]


# While a quadratic form, apply_G or the Jacobian is accumulated, an entry that no
# term has reached is -0.0 in both endpoints, and a term the scalar loop
# skips is -0.0 too.
# -0.0 is the exact identity of both directed sums, so a running sum that
# starts at -0.0 has the bits of a scalar sum that starts at its first term.
# A formed lower endpoint is never -0.0: neither a directed product nor a
# directed sum of formed terms returns it.


def _absent(M: IntervalMatrix) -> np.ndarray:
    return (M.lo == 0.0) & np.signbit(M.lo)


def _unless(skip: np.ndarray, M: IntervalMatrix) -> IntervalMatrix:
    return IntervalMatrix(np.where(skip, -0.0, M.lo), np.where(skip, -0.0, M.hi))


def assemble_jacobian(c: CoefficientVector, cfg: OperatorConfig) -> IntervalMatrix:
    """N x N projected Frechet derivative of apply_G at c.

    Column m collects the linear symbol at row m plus the bilinear
    derivatives Q(e_m, c) + Q(c, e_m) and the stretching analogue
    2[Q(K e_m, c) + Q(K c, e_m)], rows cut at N.  One pass over the support
    of c updates the nonzero entries of each source mode's interaction
    block; the endpoints are those of assembling each column from
    apply_quadratic calls.

    Q(e_m, c) + Q(c, e_m) is formed as Q(e_m, c) + Q(e_m, c), with the same
    bits: the interaction is symmetric, 1 * c_k and c_k * 1 round alike, and
    the two sums differ only in the +0.0 terms of exactly zero c_k, which
    Q(c, e_m) skips.  Those can make the upper endpoint +0.0 where
    Q(c, e_m) has -0.0, and (+0.0) + (-0.0) is +0.0 as well.
    """
    _check_support(c, cfg, "assemble_jacobian")
    N = cfg.truncation_N
    model = cfg.model
    vel_e = _row([model.recovery_kernel(mm) * ONE for mm in range(1, N + 1)])
    vel_e_zero = _zeros(vel_e)[0]
    # Q(e_m, c), Q(K e_m, c), Q(K c, e_m); the first ends up holding J
    q_ec, q_vc, q_cv = (
        IntervalMatrix(np.full((N, N), -0.0), np.full((N, N), -0.0)) for _ in range(3)
    )

    def accumulate(q: IntervalMatrix, idx, term: IntervalMatrix) -> None:
        _put(q, idx, _take(q, idx) + term)

    def add_source_mode(k: int, ck: IntervalScalar) -> None:
        block = model.interaction_block(k, range(1, N + 1), N)
        nonzero = np.flatnonzero(~_zeros(block))
        unit_ck = ONE * ck
        vel_ck = model.recovery_kernel(k) * ck
        for part in _chunks(0, nonzero.size):
            idx = nonzero[part]
            ckl = _take(block, idx)
            accumulate(q_ec, idx, ckl * unit_ck)
            cols = idx % N
            vel = ckl * (_take(vel_e, cols) * ck)
            accumulate(q_vc, idx, _unless(vel_e_zero[cols], vel))
            if vel_ck.lo != 0.0 or vel_ck.hi != 0.0:  # Q(K c, e_m) skips zero sources
                accumulate(q_cv, idx, ckl * (vel_ck * ONE))

    for k, ck in c.items():
        add_source_mode(k, ck)
    for part in _chunks(0, N * N):
        ec = _take(q_ec, part)
        stretch = _take(q_vc, part) + _take(q_cv, part)
        _put(q_ec, part, (ec + ec) + _unless(_absent(stretch), stretch * 2.0))
    diag = np.arange(N) * (N + 1)
    sym = _row(
        [ONE + model.drift_eig(mm) + cfg.nu * model.diffusion_eig(mm) for mm in range(1, N + 1)]
    )
    _put(q_ec, diag, _take(q_ec, diag) + sym)
    never = _absent(q_ec)
    q_ec.lo[never] = 0.0
    q_ec.hi[never] = 0.0
    return q_ec
