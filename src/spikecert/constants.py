"""Certified closure constants.

The audit works in two fixed spaces, the profile space X = PROFILE_SPACE
(s = 6, tau_X = 0.08) and the source space Y = SOURCE_SPACE (s = 7,
tau_Y = 0.081), and every rate below is theirs.  Three constants feed the
final contraction test.  The recovery-mapping constant is the supremum
over integer modes of the norm-level multiplier
k^{7/2} (1+k^2)^{-1/2} e^{-(tau_Y-tau_X)k}, the recovery kernel times
w_X(k)/w_Y(k); the multiplier is log-concave, so its one-step ratio
decreases and a bracket of levels around the stationary point, whose two
edges are certified to rise and to fall, holds it.  The convolution
constant bounds the bilinear form from Y into X through the elementary
inequality 1+(k+l)^2 <= 2(1+k^2)(1+l^2) and the same exponential buffer
tau_Y - tau_X, which turns the double sum into a product of
one-dimensional sums.  The Lipschitz constant is their outward-rounded
product, ceiled to two significant digits.

The recovery constant is the bare supremum, without the recovery-kernel
prefactor, because that is the value downstream audits compare against.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from decimal import ROUND_CEILING, Decimal, localcontext

import numpy as np

from .basis import BasisModel
from .errors import CertificationError
from .interval import (
    _TWO,
    ONE,
    ZERO,
    IntervalScalar,
    _float_rounded,
    as_nonneg,
    decay_ratio,
    exp_iv,
    intpow_iv,
    pow_seven_halves,
    sqrt_iv,
)
from .matrix import IntervalMatrix, row_sum
from .spaces import PROFILE_SPACE, SOURCE_SPACE

# the exponential buffer tau_Y - tau_X between the two spaces
_BUFFER = IntervalScalar(SOURCE_SPACE.tau, SOURCE_SPACE.tau) - IntervalScalar(
    PROFILE_SPACE.tau, PROFILE_SPACE.tau
)


def level_multiplier(k: int, rate: IntervalScalar) -> IntervalScalar:
    """Enclosure of k^{7/2} (1+k^2)^{-1/2} e^{-rate*k} for integer k >= 1."""
    if not isinstance(k, int) or isinstance(k, bool) or k < 1:
        raise CertificationError(f"level index must be a positive integer, got {k!r}")
    one_plus = IntervalScalar(float(1 + k * k), float(1 + k * k))
    return pow_seven_halves(k) / sqrt_iv(one_plus) * exp_iv(-(rate * float(k)))


@dataclass(frozen=True)
class RecoveryMapResult:
    """Supremum of the level multiplier and the first level attaining it."""

    value: IntervalScalar
    argmax_k: int


def recovery_mapping_constant() -> RecoveryMapResult:
    """Certified sup over integers k >= 1 of the norm-level multiplier f(k)
    for the buffer b = tau_Y - tau_X of the audit's two spaces: a constant
    of the program, argmax k = 2500."""
    return _recovery_scan(_BUFFER)


def _recovery_scan(b: IntervalScalar) -> RecoveryMapResult:
    """The sup of f(k) = k^{7/2} (1+k^2)^{-1/2} e^{-bk} over k >= 1 for a
    certifiably positive buffer b.

    log f(k) = (7/2) log k - (1/2) log(1+k^2) - b k is strictly concave
    for k >= 1:

        (log f)'' = -7/(2k^2) + (k^2-1)/(1+k^2)^2 < -5/(2k^2),

    so the one-step ratio f(k+1)/f(k) decreases in k.  The bracket a..z
    starts at k0 - 2..k0 + 2 around k0 = round(2.5/b), near the
    stationary point, and each side widens by doubling steps until its
    edge is certified:

        f(a-1).hi < f(a).lo  (or a = 1):     f rises up to a;
        f(z+1).hi < f(z).lo  (or z = k_end): f falls after z.

    The sup is then attained on a..z, and [max lo, max hi] over the
    bracket encloses it: the lower endpoint is a level's own, and every
    level outside lies below an edge.  The right side stops at the scan
    end k_end = ceil(4.5/b) + 1, past the stationary point k* = 2.5/b;
    there the ratio bound e^{-b} ((k+1)/k)^{7/2} is certified below one
    instead, and it only decreases afterwards.  argmax is the first level
    with the largest upper endpoint.
    """
    k_end = int(math.ceil(4.5 / b.lo)) + 1
    levels = {}

    def f(k: int) -> IntervalScalar:
        if k not in levels:
            levels[k] = level_multiplier(k, b)
        return levels[k]

    k0 = min(max(round(2.5 / b.mid), 1), k_end)
    a, z = max(k0 - 2, 1), min(k0 + 2, k_end)
    step = 1
    while a > 1 and not f(a - 1).hi < f(a).lo:
        a, step = max(a - step, 1), 2 * step
    step = 1
    while z < k_end and not f(z + 1).hi < f(z).lo:
        z, step = min(z + step, k_end), 2 * step
    if z == k_end:
        ratio = decay_ratio(k_end, b)
        if not ratio.hi < 1.0:
            raise CertificationError(
                f"monotone-decrease ratio test failed at k={k_end}: bound {ratio.hi!r}"
            )
    best_hi = -1.0
    best_lo = -1.0
    argmax = a
    # a later level replaces a running maximum only when strictly above it
    for k in range(a, z + 1):
        m = f(k)
        if m.hi > best_hi:
            best_hi = m.hi
            argmax = k
        if m.lo > best_lo:
            best_lo = m.lo
    return RecoveryMapResult(value=IntervalScalar(best_lo, best_hi), argmax_k=argmax)


def convolution_constant(model: BasisModel, N: int) -> IntervalScalar:
    """Certified C with ||Q(u,v)||_X <= C ||u||_Y ||v||_Y on modes <= N,
    for X = PROFILE_SPACE (s_X = 6) and Y = SOURCE_SPACE (s_Y = 7).

    Route: for an output mode j <= k+l,

        w_X(j) <= 2^3 [(1+k^2)^3 e^{tau_X k}] [(1+l^2)^3 e^{tau_X l}] e^{-beta j} ...

    more precisely each factor is absorbed into the Y-norm of its input,
    leaving per-mode weights q_k = (1+k^2)^{-(s_Y-s_X)/2} e^{-beta k}
    = (1+k^2)^{-1/2} e^{-beta k} with beta = (tau_Y - tau_X)/2, and a
    residual e^{-beta j} on the output mode that keeps the j-sum finite.
    The constant is

        2^3 * Cb * sqrt(sum_{j<=2N} e^{-2 beta j}) * (sum_{k<=N} q_k)^2.

    The route closes only with the buffers tau_Y > tau_X and s_Y >= s_X,
    which the two spaces have.
    """
    if not isinstance(N, int) or isinstance(N, bool) or N < 1:
        raise CertificationError(f"N must be a positive integer, got {N!r}")
    cb = model.interaction_bound
    if cb.lo < 0.0:
        raise CertificationError(f"interaction bound must be nonnegative, got {cb}")
    if cb.hi == 0.0:
        return ZERO
    s1, root_geo = _convolution_sums(N)
    # the prefactor 2^{s_X/2} = 2^3
    return intpow_iv(_TWO, 3) * cb * root_geo * s1 * s1


@functools.lru_cache(maxsize=16)
def _convolution_sums(N: int):
    """(sum_{k<=N} q_k, sqrt(sum_{j<=2N} e^{-2 beta j})) of
    convolution_constant.  They depend on N alone, so they are kept for the
    16 truncations last asked for: an audit process asks for one or a few."""
    beta = _BUFFER * 0.5

    # both sums run from the top mode down, each term formed on a row
    k = np.arange(N, 0, -1)
    kk = IntervalMatrix.from_point(k[None, :].astype(np.float64))
    one_plus = IntervalMatrix.from_point((1 + k * k)[None, :].astype(np.float64))
    s1 = row_sum(ONE / one_plus.sqrt() * (-(beta * kk)).exp())
    jj = IntervalMatrix.from_point(np.arange(2 * N, 0, -1, dtype=np.float64)[None, :])
    geo = row_sum((-(_BUFFER * jj)).exp())
    return s1, sqrt_iv(geo)


def _ceil_two_significant(x: float) -> float:
    """Smallest float at or above x whose decimal form has two significant digits."""
    if x == 0.0:
        return 0.0
    if not math.isfinite(x) or x < 0.0:
        raise CertificationError(f"cannot round {x!r} to two significant digits")
    with localcontext() as ctx:
        ctx.prec = 60
        d = Decimal(x)
        q = d.quantize(Decimal(1).scaleb(d.adjusted() - 1), rounding=ROUND_CEILING)
    return _float_rounded(q, True, str(q))


def lipschitz_constant(C_rec_map, C_conv) -> IntervalScalar:
    """Outward product of the two constants, presented as a headline bound.

    The upper endpoint is ceiled to two significant decimal digits, which
    is how the headline constant is quoted.
    """
    a = as_nonneg(C_rec_map, "C_rec_map")
    b = as_nonneg(C_conv, "C_conv")
    product = a * b
    return IntervalScalar(product.lo, _ceil_two_significant(product.hi))


@dataclass(frozen=True)
class ConstantsReport:
    """The three closure constants with the product consistency invariant."""

    C_rec_map: IntervalScalar
    argmax_k: int
    C_conv: IntervalScalar
    K: IntervalScalar

    def __post_init__(self):
        product = self.C_rec_map * self.C_conv
        if not self.K.hi >= product.hi:
            raise CertificationError(
                f"Lipschitz constant upper bound {self.K.hi!r} falls below the "
                f"product bound {product.hi!r}"
            )


def certify_constants(rec: RecoveryMapResult, model: BasisModel, N: int) -> ConstantsReport:
    """The constants block: the recovery supremum ``rec`` the caller
    certified, the convolution bound and their product."""
    c_conv = convolution_constant(model, N)
    k_const = lipschitz_constant(rec.value, c_conv)
    return ConstantsReport(
        C_rec_map=rec.value, argmax_k=rec.argmax_k, C_conv=c_conv, K=k_const
    )
