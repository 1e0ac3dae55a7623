"""Scalar reference helpers the tests compare the program against.

The program forms the weighted norm, the linear part of G and the
recovered velocity as rows (``residual.weight_sq_row``, ``operator._G_row``);
these are the per-mode scalar versions, built with the scalar interval
calculus, and the outward-rounded mid-rad constructor the tests build
their data with.
"""

import math

from spikecert import operator
from spikecert.interval import (
    ZERO,
    IntervalError,
    IntervalScalar,
    _add,
    exp_iv,
    intpow_iv,
    ln_iv,
    sqrt_iv,
)
from spikecert.spaces import CoefficientVector, WeightedSpace


def make_interval(mid: float, rad: float) -> IntervalScalar:
    """Interval [mid - rad, mid + rad] with outward rounding.

    A zero radius yields the degenerate point [mid, mid] exactly.
    """
    mid = float(mid)
    rad = float(rad)
    if not (math.isfinite(mid) and math.isfinite(rad)):
        raise IntervalError(
            f"non-finite midpoint/radius ({mid!r}, {rad!r}); corrupt certificate data?"
        )
    if rad < 0.0:
        raise IntervalError(f"negative radius {rad!r}")
    if rad == 0.0:
        return IntervalScalar(mid, mid)
    return IntervalScalar(_add(mid, -rad, False), _add(mid, rad, True))


def weight_sq(j: int, space: WeightedSpace) -> IntervalScalar:
    """Enclosure of the squared weight (1+j^2)^s e^{2 tau j}.

    Raises IntervalOverflowError once e^{2 tau j} leaves double range
    (j of order 4400 for tau=0.08).
    """
    if not isinstance(j, int) or j < 1:
        raise ValueError(f"mode index must be a positive integer, got {j!r}")
    jj = intpow_iv(IntervalScalar(float(j), float(j)), 2)
    base = jj + 1.0
    s = space.s
    if float(s).is_integer():
        poly = intpow_iv(base, int(s))
    else:
        poly = exp_iv(ln_iv(base) * s)
    rate = IntervalScalar(2.0 * space.tau, 2.0 * space.tau) * float(j)
    return poly * exp_iv(rate)


def norm(c: CoefficientVector, space: WeightedSpace) -> IntervalScalar:
    """Enclosure of the weighted l2 norm sqrt(sum_j w^2(j) |c_j|^2).

    Terms accumulate in descending index order; interval soundness does not
    depend on the order, it just keeps the midpoints tighter.
    """
    acc = ZERO
    for j, cj in sorted(c.entries, reverse=True):
        a = abs(cj)
        acc = acc + weight_sq(j, space) * a * a
    return sqrt_iv(acc)


def scaled(c: CoefficientVector, lam) -> CoefficientVector:
    """lam c, entry by entry."""
    return CoefficientVector(tuple((j, x * lam) for j, x in c.items()), c.max_mode)


def _on_support(c: CoefficientVector, row) -> CoefficientVector:
    return CoefficientVector(
        tuple((j, row.entry(0, i)) for i, j in enumerate(c.support)), c.max_mode
    )


def linear_part(c: CoefficientVector, cfg) -> CoefficientVector:
    """L_j c_j on the support of c: the operator's symbol row times c."""
    return _on_support(c, operator._symbol(c.support, cfg) * operator._coefficients(c))


def velocity(c: CoefficientVector, cfg) -> CoefficientVector:
    """K_rec(k) c_k on the support of c: the kernel row times c."""
    return _on_support(c, cfg.model.kernel_row(c.support) * operator._coefficients(c))
