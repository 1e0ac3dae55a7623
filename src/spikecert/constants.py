"""Certified closure constants.

The audit works in two fixed spaces, the profile space X = PROFILE_SPACE
(s = 6, tau_X = 0.08) and the source space Y = SOURCE_SPACE (s = 7,
tau_Y = 0.081), and every rate below is theirs.  Three constants feed the
final contraction test.  The recovery-mapping constant is the supremum
over integer modes of the norm-level multiplier
k^{7/2} (1+k^2)^{-1/2} e^{-(tau_Y-tau_X)k}, the recovery kernel times
w_X(k)/w_Y(k); the multiplier is log-concave, so its one-step ratio
decreases and the five levels around the stationary point k0 = 2500,
whose two edges are certified to rise and to fall, hold it.  The convolution
constant bounds the bilinear form from Y into X through the elementary
inequality 1+(k+l)^2 <= 2(1+k^2)(1+l^2) and the same exponential buffer
tau_Y - tau_X, which turns the double sum into a product of
one-dimensional sums over the whole space.  The Lipschitz constant is
their outward-rounded product, ceiled to two significant digits.

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


def level_multiplier(k: int) -> IntervalScalar:
    """Enclosure of f(k) = k^{7/2} (1+k^2)^{-1/2} e^{-bk} for integer k >= 1,
    with the buffer b = tau_Y - tau_X."""
    if not isinstance(k, int) or isinstance(k, bool) or k < 1:
        raise CertificationError(f"level index must be a positive integer, got {k!r}")
    one_plus = IntervalScalar(float(1 + k * k), float(1 + k * k))
    return pow_seven_halves(k) / sqrt_iv(one_plus) * exp_iv(-(_BUFFER * float(k)))


@dataclass(frozen=True)
class RecoveryMapResult:
    """Supremum of the level multiplier and the first level attaining it."""

    value: IntervalScalar
    argmax_k: int


@functools.cache
def recovery_mapping_constant() -> RecoveryMapResult:
    """Certified sup over integers k >= 1 of the level multiplier f(k), a
    constant of the program (argmax k = 2500), formed once per process.

    log f(k) = (7/2) log k - (1/2) log(1+k^2) - b k is strictly concave
    for k >= 1:

        (log f)'' = -7/(2k^2) + (k^2-1)/(1+k^2)^2 < -5/(2k^2),

    so the one-step ratio f(k+1)/f(k) decreases in k: once f rises into a
    level it has risen into every earlier one, and once it falls out of a
    level it falls out of every later one.  The bracket k0-2..k0+2 around
    k0 = round(2.5/b), the stationary point, therefore holds the sup when
    its two edges are certified,

        f(k0-3).hi < f(k0-2).lo   and   f(k0+3).hi < f(k0+2).lo,

    and no scan end is needed.  [max lo, max hi] over the bracket encloses
    the sup: the lower endpoint is a level's own, and every level outside
    lies below an edge.  argmax is the first level with the largest upper
    endpoint.  An edge that cannot be certified raises CertificationError.
    """
    k0 = round(2.5 / _BUFFER.mid)
    f = {k: level_multiplier(k) for k in range(k0 - 3, k0 + 4)}
    if not f[k0 - 3].hi < f[k0 - 2].lo:
        raise CertificationError(f"level multiplier not certified to rise into k={k0 - 2}")
    if not f[k0 + 3].hi < f[k0 + 2].lo:
        raise CertificationError(f"level multiplier not certified to fall after k={k0 + 2}")
    bracket = range(k0 - 2, k0 + 3)
    # max() keeps the first of equal upper endpoints
    argmax = max(bracket, key=lambda k: f[k].hi)
    value = IntervalScalar(max(f[k].lo for k in bracket), f[argmax].hi)
    return RecoveryMapResult(value=value, argmax_k=argmax)


# S's last summed mode: C_conv then lies 0.019 % above its whole-space
# value, for about 10 ms once per process (4096: 0.48 %; 16384: 19 ms)
_CUTOFF = 8192


def convolution_constant(model: BasisModel) -> IntervalScalar:
    """Certified C with ||Q(u,v)||_X <= C ||u||_Y ||v||_Y for all u, v in Y,
    for X = PROFILE_SPACE (s_X = 6) and Y = SOURCE_SPACE (s_Y = 7).

    Route: for an output mode j <= k+l,

        w_X(j) <= 2^3 [(1+k^2)^3 e^{tau_X k}] [(1+l^2)^3 e^{tau_X l}] e^{-beta j} ...

    more precisely each factor is absorbed into the Y-norm of its input,
    leaving per-mode weights q_k = (1+k^2)^{-(s_Y-s_X)/2} e^{-beta k}
    = (1+k^2)^{-1/2} e^{-beta k} with beta = (tau_Y - tau_X)/2, and a
    residual e^{-beta j} on the output mode that keeps the j-sum finite.
    Over the whole space the constant is 2^3 * Cb * sqrt(G) * S^2 with

        G = sum_{j>=1} e^{-2 beta j} = 1/(e^{2 beta} - 1),   S = sum_{k>=1} q_k.

    S is summed on k = n..1, n = _CUTOFF, plus its tail, which is at most
    (1+(n+1)^2)^{-1/2} e^{-beta(n+1)} / (1 - e^{-beta}) as (1+k^2)^{-1/2} falls.
    The route closes only with the buffers tau_Y > tau_X and s_Y >= s_X,
    which the two spaces have.
    """
    cb = model.interaction_bound  # nonnegative: reference_model checks the coupling
    if cb.hi == 0.0:
        return ZERO
    return cb * _whole_space_factor()


@functools.cache
def _whole_space_factor() -> IntervalScalar:
    """2^3 sqrt(G) S^2 of convolution_constant, formed once per process."""
    beta = _BUFFER * 0.5
    # S's partial sum runs from the cutoff down, each term formed on a row
    k = np.arange(_CUTOFF, 0, -1)
    kk = IntervalMatrix.from_point(k[None, :].astype(np.float64))
    one_plus = IntervalMatrix.from_point((1 + k * k)[None, :].astype(np.float64))
    n1 = float(_CUTOFF + 1)
    tail = ONE / sqrt_iv(ONE + n1 * n1) * exp_iv(-(beta * n1)) / (ONE - exp_iv(-beta))
    s = row_sum(ONE / one_plus.sqrt() * (-(beta * kk)).exp()) + tail
    # the prefactor 2^{s_X/2} = 2^3, and G in closed form
    return intpow_iv(_TWO, 3) * sqrt_iv(ONE / (exp_iv(_BUFFER) - ONE)) * s * s


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


def certify_constants(rec: RecoveryMapResult, model: BasisModel) -> ConstantsReport:
    """The constants block: the recovery supremum ``rec`` the caller
    certified, the convolution bound and their product."""
    c_conv = convolution_constant(model)
    k_const = lipschitz_constant(rec.value, c_conv)
    return ConstantsReport(
        C_rec_map=rec.value, argmax_k=rec.argmax_k, C_conv=c_conv, K=k_const
    )
