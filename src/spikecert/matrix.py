"""Dense interval matrices as paired float64 endpoint arrays.

``IntervalMatrix`` is the array twin of ``spikecert.interval.IntervalScalar``:
entry (i, j) of every elementwise result has the bits the scalar calculus
gives for that entry.  The elementwise kernels are the twins of the scalar
directed routines (``_np_add``, ``_np_mul``, ``_np_div``, ``_np_sqrt``,
``_np_directed``), each taking the side it rounds to.  A common entry, with
finite operands and a result inside Dekker's band, costs only its
error-free transformation and one nudge: the zero, underflow and NaN
branches run only on the entries the band mask flags, and the inf and NaN
branches of a sum only when some sum is non-finite.  The scalar routine
takes none of those branches for an in-band entry, so the bits are
unchanged.  Products form only the two corners the sign table picks
wherever that gives the same bits (see the kernel notes below); quotients
take the four-corner rule of IntervalScalar.

Building an ``IntervalMatrix`` with a NaN endpoint raises ``IntervalError``;
``IntervalMatrix.exp`` raises on overflow, as ``exp_iv`` does.  Sums of
products (``point_times_interval`` and the operator's interaction sums) are
formed in midpoint-radius form and closed by ``_mid_rad_enclosure``; the
three float products of a point matrix times an interval matrix have one
home, ``_mid_rad_products``, which the inverse bound also reads.  A factor
entry whose radius max(mid - lo, hi - mid) rounds to exactly 0 is a point
(a float difference is 0 only when it is exact) and keeps radius 0; every
other radius is stepped outward.  A zero radius stepped up would be a
subnormal, which float64 matmuls handle far more slowly than 0.

Outside the elementwise kernels, a dense ulp step is ``_np_up`` or
``_np_down``: nextafter toward +-inf with its bits, formed as an integer
step on the binary64 encoding (+1 on the positive side, -1 on the
negative one, after -0.0 is made +0.0; down(a) = -up(-a)).  On a large
array those few integer passes are several times faster than
np.nextafter, which still serves the entries that are not finite.

This is the only module of the interval layer that imports numpy.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .interval import (
    _EFT_HI,
    _EFT_LO,
    _INF,
    _MAX,
    _TINY_EXP_UP,
    IntervalError,
    IntervalOverflowError,
    IntervalScalar,
    SingularDivisionError,
    _add,
    _down,
    _prod_err,
    _two_sum,
    _up,
)

__all__ = [
    "IntervalMatrix",
    "endpoint_table",
    "row_sum",
    "pow_seven_halves_row",
    "point_times_interval",
    "inf_norm",
]

_U = 2.0 ** -53  # unit roundoff for binary64


def _np_up(a: np.ndarray, steps: int = 1) -> np.ndarray:
    """``steps`` applications of nextafter(., +inf) to every entry of a, bit
    for bit, each as an integer step on the binary64 encoding: after + 0.0
    turns -0.0 into +0.0, the encoding read as an int64 is monotone in the
    value on each sign, and one ulp up is +1 on the positive side (MAX goes
    to inf) and -1 on the negative one (-5e-324 goes to -0.0).  Entries
    that are not finite take np.nextafter."""
    for _ in range(steps):
        out = a + 0.0
        bits = out.view(np.int64)
        step = np.signbit(out).view(np.int8)  # int8, so no int64 temporary
        step *= -2
        step += 1
        bits += step
        if not np.isfinite(a).all():
            bad = ~np.isfinite(a)
            out[bad] = np.nextafter(a[bad], _INF)
        a = out
    return a


def _np_down(a: np.ndarray, steps: int = 1) -> np.ndarray:
    """``steps`` applications of nextafter(., -inf): -up(-a)."""
    out = _np_up(-a, steps)
    np.negative(out, out=out)
    return out


# Elementwise twins of the scalar directed routines: _np_add of _add,
# _np_mul of _mul, _np_div of _div, _np_sqrt of _sqrt, and _np_directed of
# _directed.  Each rounds to one side, ``up`` or down: _np_mul(a, b, up)[0]
# is _mul(a, b)[up].  Every entry carries exactly the bits its scalar twin
# returns for it, although the branches run only where an entry needs them.
# A product or quotient inside the error-free band (finite operands below
# _EFT_HI in magnitude, a result between _EFT_LO and _EFT_HI) is nonzero and
# finite, so its scalar twin takes none of the zero, underflow, overflow and
# NaN branches: it is the rounded result, nudged one ulp where the
# transformation says the exact value lies beyond it.  Every entry computes
# that much.  The band mask flags the rest, and only those entries are
# recomputed, by _np_directed, through the scalar branches in their order,
# with the unconditional nudge the scalar routine gives outside the band.
# A sum is likewise the nudged two-sum wherever it is finite; the inf and
# NaN branches run only when some sum is not.  Overflow to infinity is one
# of those branches, hence the silenced warnings.
#
# IntervalMatrix products are sign-aware.  Where both operands are strictly
# signed, Moore's sign table names the corner that holds the exact minimum
# and the one that holds the maximum.  Where, moreover, every corner lies in
# the error-free band (its operands below _EFT_HI in magnitude, its result
# between _EFT_LO and _EFT_HI), each corner's directed result is its exact
# value rounded to the next double below or above: a monotone map that
# never gives 0.  So the picked corner rounded down is the least of the four
# corners' lower bounds, bit for bit, and the other picked corner rounded up
# the greatest of their upper bounds; only those two are formed.  The picked
# corners take each operand's two endpoints and the products of least and
# greatest magnitude, so their band test, which _np_mul returns beside its
# result, holds the band on all four.  Where an operand is exactly [0, 0],
# every corner is +0.0, so the picked ones already are the four-corner
# result.  Every other entry (an endpoint that is 0, -0.0 or infinite, an
# operand that straddles 0, underflow, overflow, the _eft_ok fallback) takes
# the four-corner rule of IntervalScalar, as every quotient does.  The band
# also keeps out results that round to 0, where the sign of a zero bound
# depends on which corner comes first: [-2e-323, -1e-323] *
# 0.15000000000000002 has the upper bound -0.0 by the four corners but +0.0
# from the picked corner alone.


@np.errstate(over="ignore", invalid="ignore")
def _np_add(a, b, up: bool) -> np.ndarray:
    s, e = _two_sum(a, b)
    toward, clamp = (_INF, -_MAX) if up else (-_INF, _MAX)
    out = np.where(e > 0 if up else e < 0, np.nextafter(s, toward), s)
    if np.isfinite(s).all():
        return out
    out = np.where(np.isinf(s), np.where(s == toward, s, clamp), out)
    return np.where(np.isnan(s), toward, out)


def _np_eft_ok(a, b, p) -> np.ndarray:
    ap = np.abs(p)
    return (np.abs(a) < _EFT_HI) & (np.abs(b) < _EFT_HI) & (_EFT_LO < ap) & (ap < _EFT_HI)


def _np_directed(out, x, band, a, b, zero_b: bool, up: bool) -> None:
    """Overwrite the entries of ``out`` outside ``band`` with _directed's
    branches for x = a * b or a / b there: 0 where an operand (a, or b too
    if ``zero_b``) is 0, the whole line where x is NaN, the signed underflow
    floor where it is 0, and x nudged one ulp everywhere else, which takes
    an overflowed x to the clamp.  a and b have the shape of x."""
    if band.all():
        return
    at = ~band
    x, a, b = x[at], a[at], b[at]
    same_sign = (a > 0) == (b > 0)
    if up:
        toward, underflow = _INF, np.where(same_sign, 5e-324, 0.0)
    else:
        toward, underflow = -_INF, np.where(same_sign, 0.0, -5e-324)
    fixed = np.where(x == 0.0, underflow, np.nextafter(x, toward))
    fixed = np.where(np.isnan(x), toward, fixed)
    out[at] = np.where((a == 0.0) | (b == 0.0) if zero_b else a == 0.0, 0.0, fixed)


@np.errstate(over="ignore", invalid="ignore")
def _np_mul(a, b, up: bool):
    """Elementwise _mul(a, b), its upper bound if ``up``, else its lower,
    and the mask of the entries in the error-free band."""
    p = a * b
    e = _prod_err(a, b, p)
    out = np.where(e > 0 if up else e < 0, np.nextafter(p, _INF if up else -_INF), p)
    band = _np_eft_ok(a, b, p)
    _np_directed(out, p, band, a, b, True, up)
    return out, band


@np.errstate(over="ignore", invalid="ignore")
def _np_div(a, b, up: bool) -> np.ndarray:
    """Elementwise _div(a, b) for divisors without 0, its upper bound if
    ``up``, else its lower."""
    q = a / b
    p = q * b
    d = (a - p) - _prod_err(q, b, p)  # sign of a - q*b, as in _div
    above = (d > 0) == (b > 0)  # true quotient above q, where d != 0
    nudge = (d != 0.0) & (above if up else ~above)
    out = np.where(nudge, np.nextafter(q, _INF if up else -_INF), q)
    _np_directed(out, q, _np_eft_ok(q, b, p), a, b, False, up)
    return out


@np.errstate(over="ignore", invalid="ignore")
def _np_sqrt(x, up: bool) -> np.ndarray:
    """Elementwise _sqrt(x, up) for x >= 0."""
    s = np.sqrt(x)
    p = s * s
    e = _prod_err(s, s, p)
    eft = _np_eft_ok(s, s, p)
    if up:
        nudge = (p < x) | ((p == x) & (e < 0))
    else:
        nudge = (p > x) | ((p == x) & (e > 0))
    out = np.where(~eft | nudge, np.nextafter(s, _INF if up else -_INF), s)
    return np.where(x == 0.0, 0.0, out)


def _np_libm(fn, x: np.ndarray) -> np.ndarray:
    """fn of every entry through the math module, whose exp is the one the
    scalar path widens; numpy's SIMD version promises no accuracy."""
    return np.array(list(map(fn, x.ravel().tolist())), dtype=np.float64).reshape(x.shape)


def _exp_overflows(x: float) -> bool:
    try:
        math.exp(x)
    except OverflowError:
        return True
    return False


def _first_entry(lo, hi, bad) -> IntervalScalar:
    """The first entry, in row-major order, of the (broadcast) endpoint arrays
    lo, hi where ``bad`` holds; error messages name it."""
    lo, hi, bad = np.broadcast_arrays(lo, hi, bad)
    i = int(np.argmax(bad))
    return IntervalScalar(float(lo.flat[i]), float(hi.flat[i]))


class IntervalMatrix:
    """Dense interval matrix as paired float64 endpoint arrays."""

    __slots__ = ("lo", "hi")

    def __init__(self, lo: np.ndarray, hi: np.ndarray):
        lo = np.asarray(lo, dtype=np.float64)
        hi = np.asarray(hi, dtype=np.float64)
        if lo.shape != hi.shape or lo.ndim != 2:
            raise IntervalError(f"endpoint shape mismatch {lo.shape} vs {hi.shape}")
        if not (lo <= hi).all():  # also false at a NaN endpoint
            if np.isnan(lo).any() or np.isnan(hi).any():
                raise IntervalError("NaN endpoint in interval matrix")
            raise IntervalError("inverted endpoints in interval matrix")
        self.lo = lo
        self.hi = hi

    @classmethod
    def from_point(cls, a: np.ndarray) -> "IntervalMatrix":
        a = np.asarray(a, dtype=np.float64)
        return cls(a.copy(), a.copy())

    @classmethod
    def from_scalars(cls, rows) -> "IntervalMatrix":
        lo = np.array([[e.lo for e in row] for row in rows], dtype=np.float64)
        hi = np.array([[e.hi for e in row] for row in rows], dtype=np.float64)
        return cls(lo, hi)

    @property
    def shape(self):
        return self.lo.shape

    def entry(self, i: int, j: int) -> IntervalScalar:
        return IntervalScalar(float(self.lo[i, j]), float(self.hi[i, j]))

    def __getitem__(self, key) -> "IntervalMatrix":
        return IntervalMatrix(self.lo[key], self.hi[key])

    @np.errstate(invalid="ignore")
    def midpoint(self) -> np.ndarray:
        """0.5 lo + 0.5 hi, NaN where the entry is the whole line."""
        return 0.5 * self.lo + 0.5 * self.hi

    def mag(self) -> np.ndarray:
        return np.maximum(np.abs(self.lo), np.abs(self.hi))

    def mig(self) -> np.ndarray:
        m = np.minimum(np.abs(self.lo), np.abs(self.hi))
        m[(self.lo <= 0.0) & (self.hi >= 0.0)] = 0.0
        return m

    # -- elementwise arithmetic ----------------------------------------------
    # Operands broadcast: another matrix of the same shape or a row vector, an
    # IntervalScalar, or a finite int/float.  Entry (i, j) of the result has
    # the bits IntervalScalar gives for ``self.entry(i, j) op other`` (for
    # ``other op self`` in the reflected operators), and each function of a
    # matrix the bits of the scalar function of its entry.  A matrix is only
    # ever a divisor, of an IntervalScalar or a number.

    @staticmethod
    def _endpoints(x):
        if isinstance(x, IntervalMatrix):
            return x.lo, x.hi
        if isinstance(x, (int, float)):
            x = IntervalScalar._coerce(x)
        if isinstance(x, IntervalScalar):
            return np.float64(x.lo), np.float64(x.hi)
        return NotImplemented

    @staticmethod
    def _corners(a, b, kernel):
        # corners in the scalar order, one at a time, each bound kernel(x, y,
        # up) of endpoints of one shape; like min() and max(), a later corner
        # replaces the running bound only when strictly beyond it
        lo = hi = None
        for x, y in ((a[0], b[0]), (a[0], b[1]), (a[1], b[0]), (a[1], b[1])):
            down, up = kernel(x, y, False), kernel(x, y, True)
            if lo is None:
                lo, hi = down, up
            else:
                lo = np.where(down < lo, down, lo)
                hi = np.where(up > hi, up, hi)
        return lo, hi

    @staticmethod
    def _product(a, b) -> "IntervalMatrix":
        """a * b of endpoint pairs a and b, entry by entry: the two corners
        the sign table picks where that has the bits of the four-corner rule,
        the four corners elsewhere.  The picked corners come out of np.where
        at the broadcast shape; the endpoints are broadcast themselves only
        for the entries left over."""
        (a0, a1), (b0, b1) = a, b
        pos_a, pos_b = a0 > 0.0, b0 > 0.0
        x_lo, y_lo = np.where(pos_b, a0, a1), np.where(pos_a, b0, b1)
        x_hi, y_hi = np.where(pos_b, a1, a0), np.where(pos_a, b1, b0)
        (lo, band_lo), (hi, band_hi) = _np_mul(x_lo, y_lo, False), _np_mul(x_hi, y_hi, True)
        # the rest: an operand that is not strictly signed, or a corner
        # outside the error-free band, unless an operand is exactly [0, 0]:
        # then every corner, picked or not, is +0.0
        zero = ((a0 == 0.0) & (a1 == 0.0)) | ((b0 == 0.0) & (b1 == 0.0))
        rest = ~((pos_a | (a1 < 0.0)) & (pos_b | (b1 < 0.0)) & band_lo & band_hi | zero)
        if rest.any():
            a0, a1, b0, b1 = (np.broadcast_to(x, rest.shape)[rest] for x in (a0, a1, b0, b1))
            lo[rest], hi[rest] = IntervalMatrix._corners(
                (a0, a1), (b0, b1), lambda x, y, up: _np_mul(x, y, up)[0]
            )
        return IntervalMatrix(lo, hi)

    def __add__(self, other):
        b = self._endpoints(other)
        if b is NotImplemented:
            return NotImplemented
        return IntervalMatrix(
            _np_add(self.lo, b[0], up=False), _np_add(self.hi, b[1], up=True)
        )

    def __radd__(self, other):
        b = self._endpoints(other)
        if b is NotImplemented:
            return NotImplemented
        return IntervalMatrix(
            _np_add(b[0], self.lo, up=False), _np_add(b[1], self.hi, up=True)
        )

    def __neg__(self):
        return IntervalMatrix(-self.hi, -self.lo)

    def __abs__(self):
        return IntervalMatrix(self.mig(), self.mag())

    def __mul__(self, other):
        b = self._endpoints(other)
        if b is NotImplemented:
            return NotImplemented
        return self._product((self.lo, self.hi), b)

    def __rmul__(self, other):
        b = self._endpoints(other)
        if b is NotImplemented:
            return NotImplemented
        return self._product(b, (self.lo, self.hi))

    def __rtruediv__(self, other):
        b = self._endpoints(other)
        if b is NotImplemented:
            return NotImplemented
        singular = (self.lo <= 0.0) & (0.0 <= self.hi)
        if singular.any():
            raise SingularDivisionError(
                f"divisor {_first_entry(self.lo, self.hi, singular)} contains zero "
                "(possible singularity)"
            )
        ends = np.broadcast_arrays(*b, self.lo, self.hi)
        return IntervalMatrix(*self._corners(ends[:2], ends[2:], _np_div))

    def sqrt(self) -> "IntervalMatrix":
        """Entrywise sqrt_iv."""
        negative = self.lo < 0.0
        if negative.any():
            bad = _first_entry(self.lo, self.hi, negative)
            raise IntervalError(f"sqrt of partially negative interval {bad}")
        return IntervalMatrix(_np_sqrt(self.lo, up=False), _np_sqrt(self.hi, up=True))

    def intpow(self, n: int) -> "IntervalMatrix":
        """Entrywise intpow_iv(x, n) for nonnegative entries: the same chain of
        n directed products from 1, downward for lo and upward for hi."""
        if n < 0:
            raise IntervalError("negative exponent; divide explicitly")
        negative = self.lo < 0.0
        if negative.any():
            bad = _first_entry(self.lo, self.hi, negative)
            raise IntervalError(f"power of partially negative interval {bad}")
        lo = hi = np.ones(self.shape)
        for _ in range(n):
            lo = _np_mul(lo, self.lo, up=False)[0]
            hi = _np_mul(hi, self.hi, up=True)[0]
        return IntervalMatrix(lo, hi)

    @np.errstate(over="ignore")
    def exp(self) -> "IntervalMatrix":
        """Entrywise exp_iv: libm endpoints widened by 2 ulps, the same slack
        enclosure in the deep underflow band."""
        try:
            vhi = _np_libm(math.exp, self.hi)
        except OverflowError:
            big = np.array([_exp_overflows(x) for x in self.hi.ravel().tolist()])
            big = big.reshape(self.shape)
            raise IntervalOverflowError(
                f"exp({_first_entry(self.lo, self.hi, big)}) exceeds double range; "
                "use the log-magnitude path"
            ) from None
        vlo = _np_libm(math.exp, self.lo)  # below vhi, so it cannot overflow
        deep = vhi < 2.3e-308
        deep_lo = np.where(vlo == 0.0, 0.0, vlo * 0.25)
        deep_hi = np.where(vhi == 0.0, _TINY_EXP_UP, vhi * 4.0)
        lo = _np_down(vlo, steps=2)
        return IntervalMatrix(
            np.where(deep, deep_lo, np.where(lo > 0.0, lo, 0.0)),
            np.where(deep, deep_hi, _np_up(vhi, steps=2)),
        )


def endpoint_table(row, need: int):
    """(lo, hi) of f(1..n) for an entrywise row function f, n the least
    power of two at or above ``need``: f(i) at index i - 1, as read-only
    arrays.  ``row`` maps a 1 x n point row of positive integers to the row
    of their values, each entry with the bits of its own scalar chain.  A
    table is formed whole, a pure function of (row, n), and kept in a
    bounded cache that serves it to every caller of the process."""
    return _endpoint_table(row, 1 << max(need - 1, 0).bit_length())


@functools.lru_cache(maxsize=32)
def _endpoint_table(row, n: int):
    x = row(IntervalMatrix.from_point(np.arange(1.0, n + 1.0)[None, :]))
    ends = (x.lo[0], x.hi[0])
    for a in ends:
        a.flags.writeable = False
    return ends


def row_sum(row: IntervalMatrix) -> IntervalScalar:
    """Sum of the entries of a 1 x n row, left to right from ZERO, with the
    bits of the same running sum in IntervalScalar arithmetic.

    The loop spells out _add's two-sum and nudge for finite sums.  A sum
    that is not finite stays so for the rest of the inline loop (its error
    term is NaN, so no nudge applies), whereas _add clamps an overflow to
    +-MAX and may come back to finite values; a row whose inline result is
    not finite is therefore summed again by the _add loop."""
    los, his = row.lo[0].tolist(), row.hi[0].tolist()
    lo = hi = 0.0
    nextafter, inf = math.nextafter, _INF
    for a, b in zip(los, his):
        s = lo + a
        t = s - lo
        lo = nextafter(s, -inf) if (lo - (s - t)) + (a - t) < 0.0 else s
        s = hi + b
        t = s - hi
        hi = nextafter(s, inf) if (hi - (s - t)) + (b - t) > 0.0 else s
    if not (math.isfinite(lo) and math.isfinite(hi)):
        lo = hi = 0.0
        for a, b in zip(los, his):
            lo = _add(lo, a, False)
            hi = _add(hi, b, True)
    return IntervalScalar(lo, hi)


def pow_seven_halves_row(k: "IntervalMatrix") -> "IntervalMatrix":
    """pow_seven_halves of each entry of a point matrix of positive integers
    k, with its bits: the matrix twins of the same chain."""
    return k.intpow(3) * k.sqrt()


def _gamma_factor(n: int) -> float:
    # a priori dot-product rounding bound, padded
    g = (n + 2) * _U
    return 1.01 * g / (1.0 - g)


@np.errstate(invalid="ignore")
def _mid_rad(x: IntervalMatrix):
    """(mid, rad, unbounded) of x for a midpoint-radius sum: each entry with
    finite endpoints lies in [mid - rad, mid + rad], and rad is exactly 0
    on an entry [x, x] whose mid is x, [0, 0] included.  mid - lo and
    hi - mid are rounded to nearest; where their maximum is not 0, one ulp
    up makes it an upper bound (a float difference is 0 only when exact).
    ``unbounded`` flags the entries with an infinite endpoint, which get
    mid = rad = 0."""
    mid = x.lo * 0.5
    mid += x.hi * 0.5
    rad = mid - x.lo
    np.maximum(rad, x.hi - mid, out=rad)
    exact = rad == 0.0
    rad = _np_up(rad)
    np.copyto(rad, 0.0, where=exact)
    unbounded = ~np.isfinite(mid)  # 0.5 lo + 0.5 hi is finite iff both are
    if unbounded.any():
        mid[unbounded] = rad[unbounded] = 0.0
    return mid, rad, unbounded


@np.errstate(invalid="ignore", over="ignore")
def _mid_rad_enclosure(mid, rad, scale, n) -> IntervalMatrix:
    """[mid - r, mid + r] outward, with r = rad + gamma * scale + n * 1e-300,
    for sums formed in midpoint-radius form (Rump, *Fast and parallel
    interval arithmetic*, BIT 39, 1999; Rump, *Verification methods*, Acta
    Numerica 19, 2010, section 10).

    The exact value s of an entry is a sum of terms x_t, each within rho_t
    of p_t, with |p_t| + rho_t <= sigma_t, where p_t, rho_t and sigma_t are
    real expressions in floats; mid, rad and scale are their sums evaluated
    in floats, every term passing through at most n + 2 roundings on its
    way in (a sum of n terms, each formed with at most three roundings,
    added in any order; terms that are exactly 0 do not count).  n is an
    int or an array of them, one per entry.  Then |s - mid| <= rad +
    gamma_(n+2) / (1 - gamma_(n+2)) * scale, which _gamma_factor(n)
    covers, plus at most 2^-1075 for each product that underflows, which
    the underflow term n * 1e-300 covers for any count of products below
    10^22.  An entry with n = 0 has mid = rad = scale = 0, its exact sum,
    and stays [0, 0].  The three roundings that form r are absorbed by the
    factor 1 + 4e-16 and two ulps, those of mid -+ r by two ulps outward.
    Where an overflow left inf - inf, that side is unbounded.
    """
    r = _gamma_factor(n) * scale
    r += rad
    r += n * 1e-300
    exact = r == 0.0
    r *= 1.0 + 4e-16
    r = _np_up(r, steps=2)
    lo, hi = _np_down(mid - r, steps=2), _np_up(mid + r, steps=2)
    if exact.any():
        np.copyto(lo, mid, where=exact)
        np.copyto(hi, mid, where=exact)
    np.copyto(lo, -_INF, where=np.isnan(lo))
    np.copyto(hi, _INF, where=np.isnan(hi))
    return IntervalMatrix(lo, hi)


def _mid_rad_products(A: np.ndarray, Bm: np.ndarray, Br: np.ndarray):
    """A @ Bm, |A| @ Br and |A| @ (|Bm| + Br) by float64 matmuls: the mid,
    rad and scale sums of ``_mid_rad_enclosure`` for A times the interval
    matrix of midpoints Bm and radii Br."""
    absA = np.abs(A)
    return A @ Bm, absA @ Br, absA @ (np.abs(Bm) + Br)


def point_times_interval(A: np.ndarray, B: IntervalMatrix) -> IntervalMatrix:
    """Enclosure of A @ B for a point matrix A, in midpoint-radius form:
    terms A_ik Bm_kj, within |A_ik| Br_kj of A_ik B_kj, bounded by
    |A_ik| (|Bm_kj| + Br_kj), summed by float64 matmuls.  Br is the rounded
    max(Bm - lo, hi - Bm) two ulps up, or exactly 0 where that is 0."""
    A = np.asarray(A, dtype=np.float64)
    n = A.shape[1]
    if n != B.shape[0]:
        raise IntervalError(f"shape mismatch {A.shape} @ {B.shape}")
    Bm = 0.5 * B.lo + 0.5 * B.hi
    Br = np.maximum(Bm - B.lo, B.hi - Bm)
    exact = Br == 0.0
    Br = _np_up(Br, steps=2)
    np.copyto(Br, 0.0, where=exact)
    return _mid_rad_enclosure(*_mid_rad_products(A, Bm, Br), n)


def inf_norm(m: IntervalMatrix) -> IntervalScalar:
    """Enclosure of the max-row-sum norm over all point matrices in m."""
    if not isinstance(m, IntervalMatrix):
        raise IntervalError("inf_norm expects an IntervalMatrix")
    n = m.shape[1]
    g = _gamma_factor(n)
    hi_rows = m.mag().sum(axis=1)
    hi = _up(_up(float(hi_rows.max()) * (1.0 + g)))
    lo_rows = m.mig().sum(axis=1)
    lo = max(0.0, _down(float(lo_rows.max()) * (1.0 - g)))
    return IntervalScalar(lo, hi)
