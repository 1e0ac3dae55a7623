"""Contraction products and the periodic image-overlap bound.

The final test is one multiplication: with residual delta, inverse
bound M and Lipschitz constant K, the scalar closure needs
2*delta*M*K < 1, and the periodic variant adds the transfer error
epsilon to delta.  Everything here is outward-rounded interval
arithmetic plus one genuinely delicate ingredient: the Gaussian image
overlap between periodic copies lives around 10^-1714, far below any
double, so overlap magnitudes travel in log10 form and only get
promoted (saturating upward at the subnormal floor) when they finally
meet delta.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from itertools import product as iter_product

from .errors import CertificationError
from .interval import (
    _TWO,
    LN10,
    ONE,
    PI,
    ZERO,
    IntervalScalar,
    LogMagnitude,
    as_nonneg,
    exp_iv,
    ln_iv,
    sqrt_iv,
)

# refuse lattice tails that need more terms than this before the
# geometric comparison kicks in (concentration scale too coarse)
_TAIL_LIMIT = 200_000

# the largest lattice radius R the overlap bound accepts: it enumerates the
# (2R + 1)^3 lattice points in Python, about 0.5 s at R = 64 on a 2-vCPU
# x86-64 host, and the time grows as R^3
MAX_LATTICE_RADIUS = 64


@dataclass(frozen=True)
class ClosureReport:
    """One contraction product with its margin to 1."""

    product: IntervalScalar

    @property
    def margin(self) -> IntervalScalar:
        return ONE - self.product

    @property
    def verdict(self) -> bool:
        return self.product.hi < 1.0


def nk_closure(delta, M, K) -> ClosureReport:
    """Contraction test 2*delta*M*K < 1, outward rounded."""
    d = as_nonneg(delta, "delta")
    m = as_nonneg(M, "M")
    k = as_nonneg(K, "K")
    return ClosureReport(_TWO * d * m * k)


def torus_closure(delta, eps, M, K) -> ClosureReport:
    """Periodic contraction test 2*(delta+eps)*M*K < 1, outward rounded."""
    d = as_nonneg(delta, "delta")
    e = as_nonneg(eps, "eps")
    m = as_nonneg(M, "M")
    k = as_nonneg(K, "K")
    return ClosureReport(_TWO * (d + e) * m * k)


def image_overlap_bound(
    sigma: float, lattice_radius: int, nearest_only: bool = False
) -> LogMagnitude:
    """Log-domain bound on the Gaussian mass the periodic images overlap.

    Each image at lattice point n contributes at most
    exp(-pi^2 |n|^2 / sigma^2).  Images with |n| <= lattice_radius are
    enumerated shell by shell; beyond the radius the quadratic exponent
    is relaxed to a linear one (|n|^2 >= R|n|) and the remaining lattice
    sum is dominated by a geometric series over the l1 shells, whose
    counts grow only quadratically.  The whole computation runs relative
    to the nearest-image scale 10^L1 so nothing underflows before the
    final, certified-upward log10.

    ``nearest_only`` returns the single nearest-image bound, the scale
    the headline estimates quote.  A radius below 1 is refused: it would
    enumerate no image and bound the overlap by exactly 0.  So is one above
    MAX_LATTICE_RADIUS, whose enumeration would outlast the audit.

    The ratio of consecutive tail terms never grows with the shell index,
    so a sigma whose ratio test fails at the last shell the walk may reach
    is refused before the walk starts.  The bound is a pure function of
    the checked float sigma and int radius, formed once per process for
    each.
    """
    sigma = float(sigma)
    if not (math.isfinite(sigma) and sigma > 0.0):
        raise CertificationError(f"concentration scale must be positive, got {sigma!r}")
    if not isinstance(lattice_radius, int) or isinstance(lattice_radius, bool):
        raise CertificationError(f"lattice_radius must be an integer, got {lattice_radius!r}")
    if lattice_radius < 1:
        raise CertificationError(f"lattice_radius must be >= 1, got {lattice_radius}")
    if lattice_radius > MAX_LATTICE_RADIUS:
        raise CertificationError(f"lattice_radius must be at most {MAX_LATTICE_RADIUS}")
    return _overlap_bound(sigma, int(lattice_radius), bool(nearest_only))


@functools.lru_cache(maxsize=32)
def _overlap_bound(sigma: float, R: int, nearest_only: bool) -> LogMagnitude:
    base = (PI * PI) / (IntervalScalar(sigma, sigma) * IntervalScalar(sigma, sigma))
    nearest_log10 = (-base) / LN10
    if nearest_only:
        return LogMagnitude(nearest_log10.hi)

    # shells inside the radius, scaled by the nearest-image weight
    counts = {}
    for n in iter_product(range(-R, R + 1), repeat=3):
        m = n[0] * n[0] + n[1] * n[1] + n[2] * n[2]
        if 0 < m <= R * R:
            counts[m] = counts.get(m, 0) + 1
    scaled = ZERO
    for m in sorted(counts, reverse=True):
        term = exp_iv(-(base * float(m - 1))) * float(counts[m])
        scaled = scaled + term

    # l1-shell tail: |n| > R implies sum|n_i| >= R+1, and
    # exp(-pi^2 |n|^2 / sigma^2) <= exp(-c * sum|n_i|) with
    # c = pi^2 R / (sigma^2 sqrt(3)); shell count at l1-size t is 4t^2+2
    c = base * float(R) / sqrt_iv(IntervalScalar(3.0, 3.0))
    x = exp_iv(-c)

    def ratio(t: int) -> IntervalScalar:
        return x * (float(4 * (t + 1) * (t + 1) + 2) / float(4 * t * t + 2))

    if ratio(R + _TAIL_LIMIT).hi >= 1.0 - 1e-6:
        raise CertificationError(
            f"lattice tail at sigma={sigma!r} does not reach geometric "
            f"domination within {_TAIL_LIMIT} shells"
        )
    tail = ZERO
    t = R + 1
    while True:
        term = exp_iv(base - c * float(t)) * float(4 * t * t + 2)
        tail = tail + term
        rho = ratio(t)
        if rho.hi < 1.0 - 1e-6:
            tail = tail + term * (rho / (ONE - rho))
            break
        t += 1
    grand = scaled + tail
    total = nearest_log10 + ln_iv(grand) / LN10
    return LogMagnitude(total.hi)
