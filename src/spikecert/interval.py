"""Outward-rounded interval arithmetic on hardware doubles: the scalar calculus.

Containment is the only contract: every operation returns an interval that
contains the exact real result for all points of its operands.  Endpoints are
doubles; directed rounding is emulated with error-free transformations
(two-sum / Dekker product) so that exactly representable results keep exact
endpoints, with a one-ulp ``math.nextafter`` nudge otherwise.  Transcendental
functions call libm and widen by two ulps per endpoint, which covers any
faithfully rounded implementation.

The scalar core has one routine per operation: ``_add(a, b, up)`` and
``_sqrt(x, up)`` round in the direction asked for, ``_mul(a, b)`` and
``_div(a, b)`` return the (down, up) pair and share the decision helper
``_directed``.  ``IntervalScalar`` multiplies and divides by the four-corner
rule.  Dense matrices live in ``spikecert.matrix``, whose elementwise
kernels are the twins of these routines and give their bits entry by entry.
This module imports only the standard library, so the certificate reader,
the closure products and the ``closure`` and ``gen-profile`` commands run
without numpy.

A NaN endpoint is refused where it forms: building an ``IntervalScalar``
with one raises ``IntervalError``.  The directed routines never form one: an
indeterminate sum, product or quotient (inf - inf, inf / inf) widens to the
whole line, and overflow in ``+ - * /`` widens the outward endpoint to
infinity.  Only ``exp_iv`` and ``LogMagnitude.to_interval`` raise on
overflow.  Division by an interval containing zero raises, since a
certification pipeline must not continue across a possible singularity.

``IntervalMatrix`` and ``point_times_interval`` are still answered under
this module's name, forwarded to ``spikecert.matrix`` on first use, because
the benchmark in ``perfbench/`` reaches them here by name.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from decimal import ROUND_CEILING, ROUND_FLOOR, Decimal, InvalidOperation, Overflow, localcontext

from .errors import CertificationError

__all__ = [
    "IntervalScalar",
    "LogMagnitude",
    "IntervalError",
    "SingularDivisionError",
    "IntervalOverflowError",
    "ZERO",
    "ONE",
    "as_nonneg",
    "arith",
    "exp_iv",
    "ln_iv",
    "sqrt_iv",
    "intpow_iv",
    "interval_from_decimal",
    "interval_from_mid_rad_decimal",
    "float_to_decimal_string",
    "PI",
    "LN10",
]

_INF = math.inf
_MAX = sys.float_info.max


class IntervalError(ValueError):
    """Base for interval-domain violations."""


class SingularDivisionError(IntervalError):
    """Division by an interval containing zero."""


class IntervalOverflowError(IntervalError):
    """Result magnitude exceeds double range; use the log-magnitude path."""


def _down(x: float) -> float:
    return math.nextafter(x, -_INF)


def _up(x: float) -> float:
    return math.nextafter(x, _INF)


def _two_sum(a: float, b: float):
    # Knuth branch-free two-sum: a + b = s + e exactly (no overflow assumed).
    s = a + b
    t = s - a
    e = (a - (s - t)) + (b - t)
    return s, e


_SPLIT = 134217729.0  # 2**27 + 1, Veltkamp splitting constant

# Dekker's product is exact only away from over/underflow; outside this band
# we fall back to an unconditional one-ulp nudge.
_EFT_LO = 1e-290
_EFT_HI = 1e300


def _prod_err(a: float, b: float, p: float) -> float:
    c = _SPLIT * a
    ah = c - (c - a)
    al = a - ah
    c = _SPLIT * b
    bh = c - (c - b)
    bl = b - bh
    return ((ah * bh - p) + ah * bl + al * bh) + al * bl


def _eft_ok(a: float, b: float, p: float) -> bool:
    return abs(a) < _EFT_HI and abs(b) < _EFT_HI and _EFT_LO < abs(p) < _EFT_HI


def _add(a: float, b: float, up: bool) -> float:
    """a + b rounded up or down; the scalar twin of _np_add."""
    s, e = _two_sum(a, b)
    if math.isfinite(s):
        if up:
            return _up(s) if e > 0 else s
        return _down(s) if e < 0 else s
    if s != s:
        return _INF if up else -_INF
    return s if (s > 0) == up else math.copysign(_MAX, s)


def _directed(x: float, zero: bool, down_nudge: bool, up_nudge: bool, same_sign: bool):
    """(down, up) of a rounded product or quotient x; the scalar twin of
    _np_directed, taking its branches in the same order."""
    if zero:
        return 0.0, 0.0
    if x != x:
        return -_INF, _INF
    if x == 0.0:  # full underflow: keep the sign of the true result
        return (0.0, 5e-324) if same_sign else (-5e-324, 0.0)
    # an overflowed x nudges to the clamp: nextafter(inf, -inf) is MAX
    return (_down(x) if down_nudge else x), (_up(x) if up_nudge else x)


def _mul(a: float, b: float):
    """(a * b rounded down, rounded up); the scalar twin of _np_mul."""
    p = a * b
    eft = _eft_ok(a, b, p)
    e = _prod_err(a, b, p) if eft else 0.0
    return _directed(
        p, a == 0.0 or b == 0.0, not eft or e < 0, not eft or e > 0, (a > 0) == (b > 0)
    )


def _div(a: float, b: float):
    """(a / b rounded down, rounded up) for b != 0; the scalar twin of _np_div."""
    q = a / b
    p = q * b
    eft = _eft_ok(q, b, p)
    # Sign of a - q*b, exact: q*b = p + e by Dekker, a - p exact by Sterbenz
    # (p is within one rounding of a), and the sign of a float difference is
    # the sign of the real difference.
    d = (a - p) - _prod_err(q, b, p) if eft else 0.0
    above = d != 0.0 and (d > 0) == (b > 0)  # true quotient above q
    below = d != 0.0 and (d > 0) != (b > 0)
    return _directed(q, a == 0.0, not eft or below, not eft or above, (a > 0) == (b > 0))


def _sqrt(x: float, up: bool) -> float:
    """sqrt(x) rounded up or down for x >= 0; the scalar twin of _np_sqrt."""
    if x == 0.0:
        return 0.0
    s = math.sqrt(x)
    p = s * s
    if _eft_ok(s, s, p):
        e = _prod_err(s, s, p)  # s*s = p + e exactly
        below = p < x or (p == x and e < 0)  # s under the true root
        above = p > x or (p == x and e > 0)
        if not (below if up else above):
            return s
    return _up(s) if up else _down(s)


@dataclass(frozen=True)
class IntervalScalar:
    """Closed interval [lo, hi] of doubles, lo <= hi; a NaN endpoint is refused."""

    lo: float
    hi: float

    def __post_init__(self):
        lo = float(self.lo)
        hi = float(self.hi)
        if lo != lo or hi != hi:
            raise IntervalError(f"NaN endpoint lo={lo!r}, hi={hi!r}")
        if lo > hi:
            raise IntervalError(f"inverted endpoints lo={lo!r} > hi={hi!r}")
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)

    # -- state ---------------------------------------------------------------

    @property
    def mid(self) -> float:
        return 0.5 * self.lo + 0.5 * self.hi

    @property
    def width(self) -> float:
        return _add(self.hi, -self.lo, True)

    def contains(self, x: float) -> bool:
        return self.lo <= x <= self.hi

    def mag(self) -> float:
        """Largest absolute value over the interval."""
        return max(abs(self.lo), abs(self.hi))

    def mig(self) -> float:
        """Smallest absolute value over the interval (0 if it spans zero)."""
        if self.lo <= 0.0 <= self.hi:
            return 0.0
        return min(abs(self.lo), abs(self.hi))

    # -- arithmetic ----------------------------------------------------------

    @staticmethod
    def _coerce(x) -> "IntervalScalar":
        if isinstance(x, IntervalScalar):
            return x
        if isinstance(x, (int, float)):
            f = float(x)
            if not math.isfinite(f):
                raise IntervalError(f"non-finite scalar operand {x!r}")
            return IntervalScalar(f, f)
        return NotImplemented  # type: ignore[return-value]

    def _corners(self, b: "IntervalScalar", kernel) -> "IntervalScalar":
        # kernel (_mul or _div) gives (down, up) of each corner once; min()
        # and max() keep the first of equal bounds, as the matrix kernels do
        downs, ups = zip(
            *map(kernel, (self.lo, self.lo, self.hi, self.hi), (b.lo, b.hi, b.lo, b.hi))
        )
        return IntervalScalar(min(downs), max(ups))

    def __add__(self, other):
        b = self._coerce(other)
        if b is NotImplemented:
            return NotImplemented
        return IntervalScalar(_add(self.lo, b.lo, False), _add(self.hi, b.hi, True))

    __radd__ = __add__

    def __neg__(self):
        return IntervalScalar(-self.hi, -self.lo)

    def __sub__(self, other):
        b = self._coerce(other)
        if b is NotImplemented:
            return NotImplemented
        return self + (-b)

    def __mul__(self, other):
        b = self._coerce(other)
        if b is NotImplemented:
            return NotImplemented
        return self._corners(b, _mul)

    __rmul__ = __mul__

    def __truediv__(self, other):
        b = self._coerce(other)
        if b is NotImplemented:
            return NotImplemented
        if b.lo <= 0.0 <= b.hi:
            raise SingularDivisionError(
                f"divisor {b} contains zero (possible singularity)"
            )
        return self._corners(b, _div)

    def __abs__(self):
        return IntervalScalar(self.mig(), self.mag())

    def __repr__(self):
        return f"IntervalScalar({self.lo!r}, {self.hi!r})"


ZERO = IntervalScalar(0.0, 0.0)
ONE = IntervalScalar(1.0, 1.0)
_TWO = IntervalScalar(2.0, 2.0)


def as_nonneg(x, what: str) -> IntervalScalar:
    """``x`` as an interval, refused when partly negative."""
    if isinstance(x, IntervalScalar):
        iv = x
    else:
        iv = IntervalScalar(float(x), float(x))
    if iv.lo < 0.0:
        raise CertificationError(f"{what} must be nonnegative, got {iv}")
    return iv


def arith(op: str, a: IntervalScalar, b: IntervalScalar) -> IntervalScalar:
    """Dispatch one of the four basic operations by name."""
    if op == "add":
        return a + b
    if op == "sub":
        return a - b
    if op == "mul":
        return a * b
    if op == "div":
        return a / b
    raise IntervalError(f"unknown operation {op!r}")


# -- elementary functions ----------------------------------------------------

_TINY_EXP_UP = 1e-320  # safe ceiling for a fully underflowed exp


def exp_iv(x: IntervalScalar) -> IntervalScalar:
    """Enclosure of exp over x.  Widens libm by 2 ulps per endpoint."""
    try:
        vlo = math.exp(x.lo)
        vhi = math.exp(x.hi)
    except OverflowError:
        raise IntervalOverflowError(
            f"exp({x}) exceeds double range; use the log-magnitude path"
        ) from None
    if vhi < 2.3e-308:
        # deep underflow band: keep a sound, deliberately slack enclosure
        hi = _TINY_EXP_UP if vhi == 0.0 else vhi * 4.0
        return IntervalScalar(0.0 if vlo == 0.0 else vlo * 0.25, hi)
    lo = max(0.0, _down(_down(vlo)))
    return IntervalScalar(lo, _up(_up(vhi)))


def ln_iv(x: IntervalScalar) -> IntervalScalar:
    """Enclosure of the natural log; requires x strictly positive."""
    if x.lo <= 0.0:
        raise IntervalError(f"ln of non-positive interval {x}")
    return IntervalScalar(_down(_down(math.log(x.lo))), _up(_up(math.log(x.hi))))


def sqrt_iv(x: IntervalScalar) -> IntervalScalar:
    if x.lo < 0.0:
        raise IntervalError(f"sqrt of partially negative interval {x}")
    return IntervalScalar(_sqrt(x.lo, False), _sqrt(x.hi, True))


def intpow_iv(x: IntervalScalar, n: int) -> IntervalScalar:
    """x**n for a nonnegative interval x and integer n >= 0: a chain of n
    directed products from 1, downward for lo and upward for hi."""
    if n < 0:
        raise IntervalError("negative exponent; divide explicitly")
    if x.lo < 0.0:
        raise IntervalError(f"power of partially negative interval {x}")
    lo = hi = 1.0
    for _ in range(n):
        lo = _mul(lo, x.lo)[0]
        hi = _mul(hi, x.hi)[1]
    return IntervalScalar(lo, hi)


def pow_seven_halves(k: int) -> IntervalScalar:
    """Enclosure of k**3.5 for a positive integer k (k**3 * sqrt(k))."""
    if k < 1:
        raise IntervalError(f"k**3.5 needs k >= 1, got {k}")
    kk = IntervalScalar(float(k), float(k))
    return intpow_iv(kk, 3) * sqrt_iv(kk)


def _const_interval(x: float, ulps: int = 1) -> IntervalScalar:
    lo, hi = x, x
    for _ in range(ulps):
        lo = _down(lo)
        hi = _up(hi)
    return IntervalScalar(lo, hi)


PI = _const_interval(math.pi)
LN10 = _const_interval(math.log(10.0), ulps=2)


# -- log-domain magnitudes ---------------------------------------------------


@dataclass(frozen=True)
class LogMagnitude:
    """Nonnegative magnitude 10**log10_value for quantities far below double
    range.

    ``log10_value`` is a certified upper bound on log10 of the magnitude, the
    conservative direction for the error bounds this type carries; -inf
    denotes an exactly zero magnitude.
    """

    log10_value: float

    def __post_init__(self):
        if self.log10_value != self.log10_value:
            raise IntervalError("NaN log10 magnitude")

    def to_interval(self) -> IntervalScalar:
        """Promote to a linear-domain upper-bound interval [0, m].

        Magnitudes below the subnormal floor saturate to the smallest positive
        double, which is still a valid upper bound for them.
        """
        if self.log10_value == -_INF:
            return ZERO
        if self.log10_value > 308.0:
            raise IntervalOverflowError(
                f"magnitude 10**{self.log10_value} exceeds double range"
            )
        v = 10.0 ** max(self.log10_value, -323.0)
        v = _up(_up(v * (1.0 + 4e-16)))
        if v == 0.0:
            v = 5e-324
        return IntervalScalar(0.0, v)


# -- decimal certificate endpoints -------------------------------------------

_DEC_PREC = 1200  # enough digits for exact arithmetic on double expansions


def _float_rounded(d: Decimal, up: bool, text: str) -> float:
    """The double nearest to d at or above it (``up``) or at or below it;
    ``text`` is the decimal as its source wrote it, for the error message."""
    f = float(d)  # infinite beyond double range, never an OverflowError
    while math.isfinite(f) and ((Decimal(f) < d) if up else (Decimal(f) > d)):
        f = _up(f) if up else _down(f)  # past +-MAX this steps to +-inf
    if math.isinf(f):
        if (f > 0) != up:
            return math.copysign(_MAX, f)
        raise IntervalError(f"decimal {text} {'above' if up else 'below'} double range")
    return f


def _parse_decimal(s: str, what: str) -> Decimal:
    try:
        d = Decimal(s)
    except InvalidOperation:
        raise IntervalError(f"unparseable decimal for {what}: {s!r}") from None
    if not d.is_finite():
        raise IntervalError(f"non-finite decimal for {what}: {s!r}")
    return d


def interval_from_decimal(s: str) -> IntervalScalar:
    """Tightest double interval containing the decimal value ``s``."""
    d = _parse_decimal(s, "value")
    return IntervalScalar(_float_rounded(d, False, s), _float_rounded(d, True, s))


def interval_from_mid_rad_decimal(mid: str, rad: str) -> IntervalScalar:
    """Outward-rounded enclosure of [mid - rad, mid + rad], decimals as strings.

    The endpoint arithmetic runs in decimal, exact whenever the result fits
    in the working precision, so a certificate written by
    :func:`float_to_decimal_string` round-trips to identical double endpoints.
    A result that does not fit (a radius thousands of decades below the
    midpoint) is rounded toward floor and ceiling, never to nearest; one
    beyond the decimal exponent range rounds to infinity on its outward
    side, so it is refused as beyond double range like any other.
    """
    dm = _parse_decimal(mid, "midpoint")
    dr = _parse_decimal(rad, "radius")
    if dr < 0:
        raise IntervalError(f"negative radius {rad!r}")
    with localcontext() as ctx:
        ctx.prec = _DEC_PREC
        ctx.traps[Overflow] = False
        ctx.rounding = ROUND_FLOOR
        lo = dm - dr
        ctx.rounding = ROUND_CEILING
        hi = dm + dr
    return IntervalScalar(
        _float_rounded(lo, False, f"{mid} - {rad}"), _float_rounded(hi, True, f"{mid} + {rad}")
    )


def float_to_decimal_string(f: float) -> str:
    """Exact decimal expansion of a double, suitable for lossless round-trips."""
    if not math.isfinite(f):
        raise IntervalError(f"non-finite value {f!r} cannot be serialized")
    return str(Decimal(f))


# -- names kept for the benchmark ---------------------------------------------

# Answered with spikecert.matrix's own objects: the tracer patches every
# module that binds the object it got here, which must be the one the
# stages import.  Any other name, dunders included (the import system asks
# a module for __path__), is refused, so no other lookup loads numpy.
_FORWARDED = ("IntervalMatrix", "point_times_interval")


def __getattr__(name: str):
    if name in _FORWARDED:
        from . import matrix

        return getattr(matrix, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
