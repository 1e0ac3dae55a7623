import math
import operator
import random
import struct
import sys
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from spikecert import matrix
from spikecert.closure import nk_closure
from spikecert.interval import (
    LN10,
    ONE,
    PI,
    IntervalError,
    IntervalOverflowError,
    IntervalScalar,
    LogMagnitude,
    SingularDivisionError,
    arith,
    as_nonneg,
    exp_iv,
    float_to_decimal_string,
    interval_from_decimal,
    interval_from_mid_rad_decimal,
    intpow_iv,
    ln_iv,
    pow_seven_halves,
    sqrt_iv,
)
from spikecert.matrix import (
    IntervalMatrix,
    _mid_rad,
    identity_minus,
    inf_norm,
    point_times_interval,
    row_sum,
)
from spikecert.stability import inverse_bound_from_norms

from mutants import mutant_module
from oracles import make_interval


def iv(lo, hi=None):
    return IntervalScalar(lo, lo if hi is None else hi)


class TestExactEndpoints:
    def test_add_exact(self):
        s = iv(1.0, 2.0) + iv(3.0, 4.0)
        assert (s.lo, s.hi) == (4.0, 6.0)

    def test_sub_exact(self):
        d = iv(1.0, 2.0) - iv(0.5, 1.5)
        assert (d.lo, d.hi) == (-0.5, 1.5)

    def test_mul_mixed_signs_exact(self):
        m = iv(-1.0, 2.0) * iv(-2.0, 4.0)
        assert (m.lo, m.hi) == (-4.0, 8.0)

    def test_div_exact(self):
        q = iv(1.0) / iv(0.25, 0.5)
        assert (q.lo, q.hi) == (2.0, 4.0)

    def test_sqrt_exact(self):
        s = sqrt_iv(iv(4.0))
        assert (s.lo, s.hi) == (2.0, 2.0)

    def test_intpow_exact(self):
        p = intpow_iv(iv(0.0, 3.0), 2)
        assert (p.lo, p.hi) == (0.0, 9.0)
        p3 = intpow_iv(iv(2.0, 3.0), 3)
        assert (p3.lo, p3.hi) == (8.0, 27.0)
        # the domain of IntervalMatrix.intpow: a partly negative base is refused
        with pytest.raises(IntervalError, match="partially negative"):
            intpow_iv(iv(-2.0, 3.0), 2)
        z = intpow_iv(iv(-0.0), 3)
        assert (z.lo, z.hi) == (0.0, 0.0)

    def test_scalar_promotion(self):
        s = 2.0 * iv(1.0, 3.0) + 1
        assert (s.lo, s.hi) == (3.0, 7.0)


class TestRoundingDirection:
    def test_add_rounds_outward(self):
        x = iv(1.0) + iv(1e-300)
        assert x.lo == 1.0  # exactly below the true sum already
        assert x.hi == math.nextafter(1.0, math.inf)

    def test_third_not_point(self):
        t = iv(1.0) / iv(3.0)
        assert t.lo < t.hi
        assert t.hi == math.nextafter(t.lo, math.inf)
        assert t.lo <= Fraction(1, 3) <= t.hi

    def test_make_interval_tiny_radius(self):
        x = make_interval(5.0, 1e-32)
        assert x.lo == math.nextafter(5.0, -math.inf)
        assert x.hi == math.nextafter(5.0, math.inf)

    def test_make_interval_zero_radius_is_point(self):
        x = make_interval(0.0, 0.0)
        assert (x.lo, x.hi) == (0.0, 0.0)
        y = make_interval(5.0, 0.0)
        assert (y.lo, y.hi) == (5.0, 5.0)

    def test_make_interval_rejects_bad_inputs(self):
        with pytest.raises(IntervalError):
            make_interval(1.0, -1e-3)
        with pytest.raises(IntervalError):
            make_interval(math.nan, 0.0)
        with pytest.raises(IntervalError):
            make_interval(1.0, math.inf)


class TestLibmEnclosures:
    def test_exp_enclosure_width(self):
        e = exp_iv(iv(0.16))
        assert e.contains(1.1735108709918102)  # exp(0.16) to 60 decimal digits
        assert e.width <= 5 * math.ulp(e.lo)

    def test_exp_tiny(self):
        e = exp_iv(iv(-60.0))
        assert e.contains(8.7565107626965203e-27)
        assert e.width / e.lo < 1e-15

    def test_exp_zero(self):
        e = exp_iv(iv(0.0))
        assert e.contains(1.0)
        assert e.width <= 7e-16  # two ulps outward on each side

    def test_exp_deep_underflow_saturates(self):
        e = exp_iv(iv(-800.0))
        assert e.lo == 0.0
        assert 0.0 < e.hi <= 1e-320

    def test_exp_overflow_raises(self):
        with pytest.raises(IntervalOverflowError):
            exp_iv(iv(1000.0))

    @pytest.mark.parametrize(
        "lo, hi",
        [(-710.0, -710.0), (-720.0, -720.0), (-744.4, -735.0), (-740.0, -708.3), (-745.1, -744.0)],
    )
    def test_exp_deep_underflow_band_is_sound(self, lo, hi):
        import mpmath

        mpmath.mp.dps = 40
        e = exp_iv(IntervalScalar(lo, hi))
        for x in (lo, hi):
            assert mpmath.mpf(e.lo) <= mpmath.exp(mpmath.mpf(x)) <= mpmath.mpf(e.hi)

    def test_ln_inverse_of_exp(self):
        x = iv(2.5)
        back = ln_iv(exp_iv(x))
        assert back.contains(2.5)
        assert back.width < 1e-14

    def test_ln_rejects_nonpositive(self):
        with pytest.raises(IntervalError):
            ln_iv(iv(-1.0, 2.0))
        with pytest.raises(IntervalError):
            ln_iv(iv(0.0, 2.0))

    def test_sqrt_rejects_negative(self):
        with pytest.raises(IntervalError):
            sqrt_iv(iv(-1.0, 1.0))

    def test_pi_and_ln10_constants(self):
        import mpmath

        mpmath.mp.dps = 40
        assert PI.contains(math.pi) and PI.width <= 3 * math.ulp(math.pi)
        assert float(mpmath.pi) == math.pi  # sanity on the oracle itself
        assert LN10.lo < float(mpmath.log(10)) < LN10.hi or LN10.contains(
            float(mpmath.log(10))
        )

    def test_pow_seven_halves(self):
        p = pow_seven_halves(2)
        assert p.contains(11.313708498984760)
        assert p.width / p.lo < 1e-14


class TestConstruction:
    @pytest.mark.parametrize(
        "build",
        [
            lambda: IntervalScalar(math.nan, 1.0),
            lambda: IntervalScalar(1.0, math.nan),
            lambda: as_nonneg(math.nan, "x"),
            lambda: nk_closure(math.nan, iv(1.0), iv(1.0)),
            lambda: inverse_bound_from_norms(math.nan, 0.5),
        ],
        ids=["lo", "hi", "as_nonneg", "nk_closure", "inverse_bound_from_norms"],
    )
    def test_nan_endpoint_is_refused(self, build):
        with pytest.raises(IntervalError, match="NaN"):
            build()

    def test_inverted_raises(self):
        with pytest.raises(IntervalError):
            IntervalScalar(2.0, 1.0)

    def test_nan_named_before_inverted_endpoints(self):
        lo = np.array([[2.0, math.nan, 0.0]])
        hi = np.array([[1.0, 0.0, math.nan]])
        with pytest.raises(IntervalError, match="NaN endpoint in interval matrix"):
            IntervalMatrix(lo, hi)
        with pytest.raises(IntervalError, match="inverted endpoints in interval matrix"):
            IntervalMatrix(lo[:, :1], hi[:, :1])


class TestDivisionGuards:
    def test_zero_spanning_divisor_raises(self):
        with pytest.raises(SingularDivisionError):
            iv(1.0) / iv(-1.0, 1.0)

    def test_zero_point_divisor_raises(self):
        with pytest.raises(SingularDivisionError):
            iv(1.0) / iv(0.0)

    def test_divisor_touching_zero_raises(self):
        with pytest.raises(SingularDivisionError):
            iv(1.0) / iv(0.0, 2.0)


class TestLogMagnitude:
    def test_zero_magnitude(self):
        z = LogMagnitude(-math.inf)
        t = z.to_interval()
        assert (t.lo, t.hi) == (0.0, 0.0)

    def test_promotion_saturates(self):
        t = LogMagnitude(-1714.5).to_interval()
        assert t.lo == 0.0
        assert 0.0 < t.hi <= 1e-322

    def test_promotion_moderate(self):
        t = LogMagnitude(-5.0).to_interval()
        assert t.lo == 0.0
        assert 1e-5 <= t.hi <= 1.0001e-5

    def test_promotion_overflow(self):
        with pytest.raises(IntervalOverflowError):
            LogMagnitude(400.0).to_interval()


class TestDecimalEndpoints:
    def test_round_trip_identity(self):
        rng = random.Random(11)
        for _ in range(500):
            f = rng.uniform(-1.0, 1.0) * 10.0 ** rng.randint(-300, 300)
            s = float_to_decimal_string(f)
            back = interval_from_decimal(s)
            assert back.lo == back.hi == f

    def test_nonrepresentable_gets_one_ulp(self):
        x = interval_from_decimal("0.1")
        assert x.lo < x.hi
        assert x.hi == math.nextafter(x.lo, math.inf)
        assert Decimal(x.lo) < Decimal("0.1") < Decimal(x.hi)

    def test_mid_rad_decimal_exactness(self):
        x = interval_from_mid_rad_decimal(
            "+5.0000000000000000000000000000000e0", "1.0e-32"
        )
        assert x.lo == math.nextafter(5.0, -math.inf)
        assert x.hi == math.nextafter(5.0, math.inf)

    def test_zero_radius_nonrepresentable_mid(self):
        x = interval_from_mid_rad_decimal("0.005", "0")
        assert x.hi == math.nextafter(x.lo, math.inf)
        assert Decimal(x.lo) < Decimal("0.005") < Decimal(x.hi)

    @pytest.mark.parametrize("rad", ["1e-1300", "1e-2000"])
    @pytest.mark.parametrize("mid", ["1", "-3.25", "0.1"])
    def test_mid_rad_decimal_contains_tiny_radius(self, mid, rad):
        # mid +- rad needs more digits than the decimal working precision
        x = interval_from_mid_rad_decimal(mid, rad)
        m, r = Fraction(Decimal(mid)), Fraction(Decimal(rad))
        assert Fraction(x.lo) <= m - r and m + r <= Fraction(x.hi)
        assert Fraction(x.lo) < m < Fraction(x.hi)

    def test_garbage_rejected(self):
        with pytest.raises(IntervalError):
            interval_from_decimal("not-a-number")
        with pytest.raises(IntervalError):
            interval_from_mid_rad_decimal("1.0", "-1e-3")
        with pytest.raises(IntervalError):
            interval_from_decimal("1e999")

    @pytest.mark.parametrize("sign, side", [("", "above"), ("-", "below")])
    def test_within_half_an_ulp_beyond_max_is_refused(self, sign, side):
        # rounds to nearest onto +-MAX, but its enclosure needs +-inf
        text = sign + "1.7976931348623158e308"
        with pytest.raises(IntervalError, match=f"{side} double range"):
            interval_from_decimal(text)
        with pytest.raises(IntervalError, match=f"{side} double range"):
            interval_from_mid_rad_decimal(text, "0")
        big = interval_from_decimal(sign + "1.7976931348623157e308")
        assert big.mag() == sys.float_info.max


class TestMatrix:
    def test_inf_norm_point(self):
        m = IntervalMatrix.from_point(np.array([[1.0, -2.0], [0.5, 0.5]]))
        n = inf_norm(m)
        assert n.contains(3.0)
        assert n.width < 1e-13

    def test_inf_norm_interval(self):
        m = IntervalMatrix(
            np.array([[0.9, -2.1], [0.4, 0.4]]), np.array([[1.1, -1.9], [0.6, 0.6]])
        )
        n = inf_norm(m)
        assert n.lo <= 2.8 and n.hi >= 3.2

    def test_point_times_interval_contains(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            n = rng.integers(2, 8)
            A = rng.standard_normal((n, n))
            Bc = rng.standard_normal((n, n))
            Br = np.abs(rng.standard_normal((n, n))) * 1e-6
            B = IntervalMatrix(Bc - Br, Bc + Br)
            P = point_times_interval(A, B)
            # sampled point matrices from B must map inside P
            for _ in range(5):
                S = Bc + Br * rng.uniform(-1, 1, size=(n, n))
                exact = A.astype(np.longdouble) @ S.astype(np.longdouble)
                assert (P.lo.astype(np.longdouble) <= exact + 1e-18).all()
                assert (exact <= P.hi.astype(np.longdouble) + 1e-18).all()

    def test_point_times_interval_keeps_its_formula(self):
        # the finish it shares with the interaction sums gives the bits of
        # its own midpoint-radius formula, written out here
        rng = np.random.default_rng(4)
        for n in (1, 5, 40):
            A = rng.standard_normal((n, n)) * 10.0 ** rng.integers(-8, 9, (n, n))
            Bc = rng.standard_normal((n, n))
            Br = np.abs(Bc) * rng.choice([0.0, 1e-12, 1e-3], (n, n))
            B = IntervalMatrix(Bc - Br, Bc + Br)
            P = point_times_interval(A, B)
            mid = 0.5 * B.lo + 0.5 * B.hi
            rad = np.maximum(mid - B.lo, B.hi - mid)
            rad = np.nextafter(np.nextafter(rad, np.inf), np.inf)
            g = (n + 2) * 2.0**-53
            g = 1.01 * g / (1.0 - g)
            r = np.abs(A) @ rad + g * (np.abs(A) @ (np.abs(mid) + rad)) + n * 1e-300
            r = r * (1.0 + 4e-16)
            r = np.nextafter(np.nextafter(r, np.inf), np.inf)
            lo, hi = A @ mid - r, A @ mid + r
            lo = np.nextafter(np.nextafter(lo, -np.inf), -np.inf)
            hi = np.nextafter(np.nextafter(hi, np.inf), np.inf)
            assert (P.lo == lo).all() and (P.hi == hi).all()

    @staticmethod
    def check_mid_rad(mid_rad):
        """mid - rad <= lo and hi <= mid + rad in exact arithmetic, for every
        finite entry of a matrix of edge cases and random intervals."""
        rng = random.Random(17)
        pairs = [
            # mid = 0.5, and mid - lo rounds to 0.5, below the true 0.5 + 1e-20
            (-1e-20, 1.0),
            (0.0, 0.0), (-0.0, 0.0), (1.0, 1.0), (0.1, 0.3), (-3.0, 5.0),
            (5e-324, 1.5e-323), (-5e-324, 5e-324), (1.0, math.nextafter(1.0, 2.0)),
            (-1e308, 1e308), (-math.inf, 1.0), (2.0, math.inf),
        ]
        for _ in range(2000):
            a = rng.uniform(-1.0, 1.0) * 10.0 ** rng.randint(-30, 30)
            b = rng.choice([a, -a, a * rng.uniform(0.0, 2.0), rng.uniform(-1.0, 1.0)])
            pairs.append((min(a, b), max(a, b)))
        lo, hi = (np.array([[p[i] for p in pairs]]) for i in (0, 1))
        mid, rad, unbounded = mid_rad(IntervalMatrix(lo, hi))
        for i, (a, b) in enumerate(pairs):
            assert unbounded[0, i] == (math.isinf(a) or math.isinf(b)), (a, b)
            if unbounded[0, i] or rad[0, i] == math.inf:
                continue
            m, r = Fraction(mid[0, i]), Fraction(rad[0, i])
            assert m - r <= Fraction(a) and Fraction(b) <= m + r, (a, b, mid[0, i], rad[0, i])

    def test_mid_rad_radius_covers_both_endpoints(self):
        self.check_mid_rad(_mid_rad)

    def test_mid_rad_without_its_nudge_misses_an_endpoint(self, monkeypatch):
        mutant = mutant_module(monkeypatch, matrix, "np.nextafter(rad, _INF, out=rad)", "pass")
        with pytest.raises(AssertionError):
            self.check_mid_rad(mutant._mid_rad)

    def test_identity_minus(self):
        P = IntervalMatrix.from_point(np.array([[0.25, 0.0], [0.0, 0.25]]))
        E = identity_minus(P)
        assert E.entry(0, 0).contains(0.75)
        assert E.entry(0, 1).contains(0.0)

    def test_shape_guards(self):
        with pytest.raises(IntervalError):
            IntervalMatrix(np.zeros((2, 2)), np.zeros((3, 2)))
        with pytest.raises(IntervalError):
            IntervalMatrix(np.ones((2, 2)), np.zeros((2, 2)))


# endpoints that reach every branch of the directed kernels: signed zeros,
# subnormals, both edges of the error-free-transformation band, products and
# sums that overflow, and ordinary values
_TINY = 5e-324
_kernel_edges = [
    0.0, -0.0, _TINY, -_TINY, 2.2250738585072014e-308, 1e-300,
    1e-290, math.nextafter(1e-290, 0.0), math.nextafter(1e-290, 1.0),
    1e300, math.nextafter(1e300, 0.0), math.nextafter(1e300, math.inf),
    1e-160, 1e160, 1e200, sys.float_info.max, 1.0, 3.0, 0.1,
]
_kernel_endpoint = st.one_of(
    st.sampled_from(_kernel_edges + [-x for x in _kernel_edges]),
    st.floats(allow_nan=False, allow_infinity=False),
    st.floats(min_value=-1e-280, max_value=1e-280, allow_nan=False),
)


@st.composite
def kernel_intervals(draw):
    a, b = draw(_kernel_endpoint), draw(_kernel_endpoint)
    return IntervalScalar(min(a, b), max(a, b))


@st.composite
def _divisor_intervals(draw):
    nonzero = _kernel_endpoint.filter(lambda x: x != 0.0)
    a, b = abs(draw(nonzero)), abs(draw(nonzero))
    sign = draw(st.sampled_from([-1.0, 1.0]))
    return IntervalScalar(min(sign * a, sign * b), max(sign * a, sign * b))


_divisors = _divisor_intervals()


@st.composite
def _nonneg_intervals(draw):
    a, b = abs(draw(_kernel_endpoint)), abs(draw(_kernel_endpoint))
    return IntervalScalar(min(a, b), max(a, b))


# exp arguments: ordinary values, the edge of overflow, and the deep
# underflow band where libm returns subnormals or zero
_exp_endpoint = st.one_of(
    st.sampled_from([0.0, -0.0, _TINY, -708.4, -709.5, -744.4, -745.13, -745.2, -800.0, 709.7]),
    st.floats(min_value=-1e4, max_value=709.7, allow_nan=False),
    st.floats(min_value=-760.0, max_value=-700.0),
)


@st.composite
def _exp_intervals(draw):
    a, b = draw(_exp_endpoint), draw(_exp_endpoint)
    return IntervalScalar(min(a, b), max(a, b))


def _bits(x):
    return struct.pack("<d", float(x))


def _same(entry_lo, entry_hi, scalar):
    return _bits(entry_lo) == _bits(scalar.lo) and _bits(entry_hi) == _bits(scalar.hi)


# Explicit operands at the edges of the sign-aware product and quotient: the
# two corners the sign table picks have the four-corner bits only inside the
# error-free band.  [-2e-323, -1e-323] * 0.15000000000000002 (and its
# quotient by 6.666666666666667) underflows: the four corners give the upper
# endpoint -0.0, the picked corner alone +0.0.  Mixed in are subnormal
# results, operands at 1e300, results at 1e-290, a quotient in the band whose
# dividend is not (2**-980 / 2**-30), signed and infinite endpoints and
# entries that straddle 0.
_NEG_ZERO_TRAP = iv(-2e-323, -1e-323)
_EDGE = [
    _NEG_ZERO_TRAP,
    iv(1e-300, 2e-300),
    iv(1e300, 1e300),
    iv(1e-290, 2e-290),
    iv(-0.0, 2.0),
    iv(-1.0, 3.0),
]
_MIXED = [
    iv(2.0, 3.0),
    iv(-0.0, 0.0),
    iv(-5.0, -4.0),
    iv(-math.inf, -1.0),
    iv(0.1, 0.7),
    iv(-1e-300, 1e-300),
]
_BAND = [
    iv(1e-145, 3e-145),
    iv(math.nextafter(1e300, 0.0)),
    iv(-1e300, -2.0),
    iv(2.0 ** -980, 2.0 ** -979),
    iv(-2e-290, -1e-290),
    iv(0.5),
]
_EDGE_FACTORS = [
    iv(0.15000000000000002),
    iv(1e-20, 3e-20),
    iv(2.0, 3.0),
    iv(1.0, 1.5),
    iv(0.5, math.inf),
    iv(-3.0, -2.0),
]
_MIXED_FACTORS = [
    iv(-3.0, -2.0),
    iv(1.5, 2.5),
    iv(-0.0, 4.0),
    iv(3.0, 7.0),
    iv(-2.0, -0.5),
    iv(0.25, 0.75),
]
_BAND_FACTORS = [
    iv(1e-145),
    iv(1.0, 2.0),
    iv(0.5, 0.75),
    iv(2.0 ** -30, 2.0 ** -29),
    iv(-1.0, -0.5),
    iv(1e-290),
]
# exact zeros, of either sign, against infinite, straddling and signed
# entries: the products take the picked corners only
_ZEROS = [iv(0.0), iv(-0.0), iv(0.0), iv(1.0, 2.0), iv(-3.0, -2.0), iv(-0.0, 0.0)]
_ZERO_FACTORS = [
    iv(-math.inf, 5.0),
    iv(0.5, math.inf),
    iv(-1.0, 1.0),
    iv(0.0),
    iv(-0.0),
    iv(-math.inf, math.inf),
]
_EDGE_DIVISORS = [
    iv(6.666666666666667),
    iv(1e-20, 3e-20),
    iv(0.5, 3.0),
    iv(1.0, 1.5),
    iv(0.5, math.inf),
    iv(-3.0, -2.0),
]
_MIXED_DIVISORS = [
    iv(-3.0, -2.0),
    iv(1.5, 2.5),
    iv(1e-300, 1e300),
    iv(3.0, 7.0),
    iv(-2.0, -0.5),
    iv(5e-324, 0.75),
]
_BAND_DIVISORS = [
    iv(1e145),
    iv(1.0, 2.0),
    iv(-1e300, -0.5),
    iv(2.0 ** -30, 2.0 ** -29),
    iv(-1.0, -0.5),
    iv(1e290, 1e300),
]


class TestMatrixKernels:
    @given(
        st.lists(kernel_intervals(), min_size=6, max_size=6),
        st.lists(kernel_intervals(), min_size=6, max_size=6),
        kernel_intervals(),
    )
    @example(xs=_EDGE, ys=_EDGE_FACTORS, s=iv(0.15000000000000002))
    @example(xs=_MIXED, ys=_MIXED_FACTORS, s=_NEG_ZERO_TRAP)
    @example(xs=_BAND, ys=_BAND_FACTORS, s=iv(1e-290, 1e-289))
    @example(xs=_ZEROS, ys=_ZERO_FACTORS, s=iv(-0.0))
    @settings(max_examples=400, deadline=None)
    def test_elementwise_matches_scalar_bit_for_bit(self, xs, ys, s):
        A = IntervalMatrix.from_scalars([xs[:3], xs[3:]])
        B = IntervalMatrix.from_scalars([ys[:3], ys[3:]])
        row = IntervalMatrix.from_scalars([ys[:3]])
        cases = (
            (A + B, lambda i, j: xs[3 * i + j] + ys[3 * i + j]),
            (A * B, lambda i, j: xs[3 * i + j] * ys[3 * i + j]),
            (A + row, lambda i, j: xs[3 * i + j] + ys[j]),
            (A * row, lambda i, j: xs[3 * i + j] * ys[j]),
            (A + s, lambda i, j: xs[3 * i + j] + s),
            (A * s, lambda i, j: xs[3 * i + j] * s),
        )
        for M, scalar in cases:
            for i in range(2):
                for j in range(3):
                    assert _same(M.lo[i, j], M.hi[i, j], scalar(i, j)), (i, j)

    @given(kernel_intervals(), st.sampled_from([0, 2, -3, 0.5, 1e308, -_TINY]))
    @settings(max_examples=200, deadline=None)
    def test_python_number_operand(self, x, f):
        A = IntervalMatrix.from_scalars([[x]])
        for M, r in ((A + f, x + f), (A * f, x * f)):
            assert _same(M.lo[0, 0], M.hi[0, 0], r)

    @given(st.lists(kernel_intervals(), min_size=6, max_size=6), kernel_intervals())
    @example(xs=_EDGE, s=_NEG_ZERO_TRAP)
    @example(xs=_ZEROS, s=iv(-0.0))
    @settings(max_examples=200, deadline=None)
    def test_reflected_sum_and_difference_match_scalar_bit_for_bit(self, xs, s):
        # a scalar on the left keeps the scalar operand order: 1.0 - row and
        # ONE + row have, entry by entry, the bits of 1.0 - x and ONE + x
        A = IntervalMatrix.from_scalars([xs[:3], xs[3:]])
        cases = (
            (1.0 - A, lambda x: 1.0 - x),
            (ONE + A, lambda x: ONE + x),
            (1.0 + A, lambda x: 1.0 + x),
            (s + A, lambda x: s + x),
            (s - A, lambda x: s - x),
            (2 - A, lambda x: 2 - x),
        )
        for M, scalar in cases:
            for i in range(2):
                for j in range(3):
                    assert _same(M.lo[i, j], M.hi[i, j], scalar(xs[3 * i + j])), (i, j)

    @given(
        st.lists(kernel_intervals(), min_size=6, max_size=6),
        st.lists(kernel_intervals(), min_size=6, max_size=6),
        st.lists(_divisors, min_size=6, max_size=6),
        kernel_intervals(),
        _divisors,
    )
    @example(xs=_EDGE, ys=_MIXED, ds=_EDGE_DIVISORS, s=_NEG_ZERO_TRAP, d=iv(6.666666666666667))
    @example(xs=_MIXED, ys=_BAND, ds=_MIXED_DIVISORS, s=iv(1e-290, 1e300), d=iv(-math.inf, -1e-10))
    @example(xs=_BAND, ys=_EDGE, ds=_BAND_DIVISORS, s=iv(-1e-300, -1e-310), d=iv(1e-10, 1e290))
    @example(xs=_ZEROS, ys=_ZERO_FACTORS, ds=_EDGE_DIVISORS, s=iv(0.0), d=iv(0.5, math.inf))
    @settings(max_examples=200, deadline=None)
    def test_sub_div_and_unary_match_scalar_bit_for_bit(self, xs, ys, ds, s, d):
        A = IntervalMatrix.from_scalars([xs[:3], xs[3:]])
        B = IntervalMatrix.from_scalars([ys[:3], ys[3:]])
        D = IntervalMatrix.from_scalars([ds[:3], ds[3:]])
        row = IntervalMatrix.from_scalars([ds[:3]])
        cases = (
            (A - B, lambda i, j: xs[3 * i + j] - ys[3 * i + j]),
            (A - s, lambda i, j: xs[3 * i + j] - s),
            (A / D, lambda i, j: xs[3 * i + j] / ds[3 * i + j]),
            (A / row, lambda i, j: xs[3 * i + j] / ds[j]),
            (A / d, lambda i, j: xs[3 * i + j] / d),
            (s / D, lambda i, j: s / ds[3 * i + j]),
            (2 / D, lambda i, j: 2 / ds[3 * i + j]),
            (s * A, lambda i, j: s * xs[3 * i + j]),
            (-A, lambda i, j: -xs[3 * i + j]),
            (abs(A), lambda i, j: abs(xs[3 * i + j])),
        )
        for M, scalar in cases:
            for i in range(2):
                for j in range(3):
                    assert _same(M.lo[i, j], M.hi[i, j], scalar(i, j)), (i, j)

    @given(st.lists(_nonneg_intervals(), min_size=6, max_size=6), st.integers(0, 9))
    @settings(max_examples=300, deadline=None)
    def test_sqrt_and_intpow_match_scalar_bit_for_bit(self, xs, n):
        A = IntervalMatrix.from_scalars([xs[:3], xs[3:]])
        for M, scalar in ((A.sqrt(), sqrt_iv), (A.intpow(n), lambda x: intpow_iv(x, n))):
            for i in range(2):
                for j in range(3):
                    assert _same(M.lo[i, j], M.hi[i, j], scalar(xs[3 * i + j])), (i, j)

    @given(st.lists(_exp_intervals(), min_size=6, max_size=6))
    @settings(max_examples=300, deadline=None)
    def test_exp_and_log_match_scalar_bit_for_bit(self, xs):
        A = IntervalMatrix.from_scalars([xs[:3], xs[3:]])
        E = A.exp()
        for i in range(2):
            for j in range(3):
                assert _same(E.lo[i, j], E.hi[i, j], exp_iv(xs[3 * i + j])), (i, j)
        pos = [x for x in xs if x.lo > 0.0]
        L = IntervalMatrix.from_scalars([pos]).log()
        for j, x in enumerate(pos):
            assert _same(L.lo[0, j], L.hi[0, j], ln_iv(x))

    @pytest.mark.parametrize(
        "a, b",
        [
            (1e300, 1e-300),  # overflows
            (-1e300, 1e-300),
            (sys.float_info.max, 0.5),
            (1e-300, 1e300),  # underflows to a subnormal or to zero
            (-1e-300, 1e300),
            (_TINY, 3.0),
            (-_TINY, 3.0),
            (_TINY, -sys.float_info.max),
            (1e-290, 1.0),  # quotients on both edges of the error-free band
            (math.nextafter(1e-290, 0.0), 1.0),
            (1e300, 1.0),
            (math.nextafter(1e300, 0.0), 3.0),
            (1.0, 3.0),
            (-0.0, 3.0),
        ],
    )
    def test_quotient_edges_match_scalar(self, a, b):
        wide = (iv(min(a, a / 2), max(a, a / 2)), iv(min(b, b / 2), max(b, b / 2)))
        for x, y in ((iv(a), iv(b)), wide):
            Q = IntervalMatrix.from_scalars([[x]]) / y
            assert _same(Q.lo[0, 0], Q.hi[0, 0], x / y), (x, y)

    def test_quotient_band_margin_covers_a_corner_that_leaves_the_band(self):
        # both picked corners, x.lo / y.hi and x.hi / y.lo, lie in the plain
        # error-free band; the other corner x.lo / y.lo does not: its
        # quotient is subnormal, so q * y.lo falls below _EFT_LO, and its
        # unconditional nudge gives the least lower bound of the four; the
        # margin on the dividend sends the entry to the four-corner rule
        x = iv(float.fromhex("0x1.8f2b061aec000p-964"), float.fromhex("0x1.8f2b061aec000p-963"))
        y = iv(float.fromhex("0x1.fffffffffd73ep+71"), float.fromhex("0x1p+72"))
        lower = float.fromhex("0x0.00063cac186bap-1022")
        assert (x / y).lo == lower
        X, Y = IntervalMatrix.from_scalars([[x]]), IntervalMatrix.from_scalars([[y]])
        for Q in (X / y, X / Y, x / Y):
            assert _same(Q.lo[0, 0], Q.hi[0, 0], x / y)
            assert Q.lo[0, 0] == lower

    def test_exp_deep_underflow_and_overflow(self):
        xs = [iv(-800.0), iv(-745.2, -744.9), iv(-720.0, -709.0), iv(-709.5, -708.0), iv(-0.0, 0.0)]
        E = IntervalMatrix.from_scalars([xs]).exp()
        for j, x in enumerate(xs):
            assert _same(E.lo[0, j], E.hi[0, j], exp_iv(x))
        big = iv(700.0, 710.0)
        with pytest.raises(IntervalOverflowError) as scalar:
            exp_iv(big)
        with pytest.raises(IntervalOverflowError) as matrix:
            IntervalMatrix.from_scalars([[iv(1.0), big, iv(800.0)]]).exp()
        assert str(matrix.value) == str(scalar.value)

    def test_singular_divisor_and_domain_errors(self):
        A = IntervalMatrix.from_scalars([[iv(1.0), iv(2.0), iv(3.0)]])
        for bad in (iv(-1.0, 2.0), iv(0.0), iv(0.0, 1.0), iv(-1.0, -0.0)):
            D = IntervalMatrix.from_scalars([[iv(1.0), bad, iv(-1.0, 1.0)]])
            with pytest.raises(SingularDivisionError) as scalar:
                iv(2.0) / bad
            for quotient in (lambda: A / D, lambda: iv(2.0) / D):
                with pytest.raises(SingularDivisionError) as matrix:
                    quotient()
                assert str(matrix.value) == str(scalar.value)
            with pytest.raises(SingularDivisionError):
                A / bad
        negative = IntervalMatrix.from_scalars([[iv(1.0), iv(-1e-300, 1.0)]])
        for f in (IntervalMatrix.sqrt, IntervalMatrix.log, lambda M: M.intpow(2)):
            with pytest.raises(IntervalError):
                f(negative)
        with pytest.raises(IntervalError):
            IntervalMatrix.from_scalars([[iv(0.0, 1.0)]]).log()
        with pytest.raises(IntervalError):
            A.intpow(-1)

    def test_row_sum_is_the_scalar_running_sum(self):
        xs = [iv(-0.0), iv(1e300, sys.float_info.max), iv(0.1), iv(-_TINY, 0.0), iv(-3.0, -1.0)]
        total = IntervalScalar(0.0, 0.0)
        for x in xs:
            total = total + x
        r = row_sum(IntervalMatrix.from_scalars([xs]))
        assert _same(r.lo, r.hi, total)
        empty = row_sum(IntervalMatrix(np.zeros((1, 0)), np.zeros((1, 0))))
        assert _same(empty.lo, empty.hi, IntervalScalar(0.0, 0.0))

    def test_poisoned_or_foreign_operands_rejected(self):
        A = IntervalMatrix.from_point(np.ones((2, 2)))
        with pytest.raises(IntervalError):
            A * math.inf
        with pytest.raises(TypeError):
            A * "2"


# One matrix whose in-band entries sit beside every kind of entry the kernels
# flag for their branches: signed zeros, infinite endpoints, a subnormal,
# operands below the error-free band, pairs whose products overflow
# (1e300 * 1e10) or underflow (1e-200 * 1e-200), and pairs whose sums
# overflow against the rounding direction or meet as inf - inf.  _FLAGGED_B
# pairs with _FLAGGED_A entry by entry; the divisors _FLAGGED_D leave out 0.
_FLAGGED_A = [
    iv(1.5, 2.5), iv(0.0), iv(-0.0), iv(-0.0, 0.0), iv(-3.0, -0.7), iv(1e300),
    iv(1.5e308, math.inf), iv(-math.inf, -1.0), iv(2.0, math.inf), iv(_TINY),
    iv(1e-300, 2e-300), iv(1e-200), iv(-1.0, 2.0), iv(-1.5e308, -1e308),
]
_FLAGGED_B = [
    iv(-0.7, -0.3), iv(-2.0, 3.0), iv(1.25), iv(5.0, 6.0), iv(1e-200), iv(1e10),
    iv(1e308), iv(math.inf), iv(-math.inf, -2.0), iv(-3.0),
    iv(0.1, 0.3), iv(-1e-200), iv(1e300), iv(-1e308),
]
_FLAGGED_D = [
    iv(-0.7, -0.3), iv(1e-300), iv(1.25), iv(5.0, 6.0), iv(1e-200), iv(1e-10),
    iv(1e308), iv(0.5, math.inf), iv(-math.inf, -2.0), iv(-3.0),
    iv(_TINY, 0.3), iv(-1e200), iv(1e300), iv(-1e308, -1e-308),
]
_FLAGGED_SCALARS = [iv(1e10), iv(-1e-200), iv(0.0), iv(-0.0), iv(0.75, 1.25), iv(-2.0, 1e300)]


class TestFlaggedEntries:
    """Entries outside the error-free band take the scalar branches, in a
    matrix whose other entries skip them, with the bits of IntervalScalar,
    the sign of a zero endpoint included."""

    @staticmethod
    def _check(M, xs, ys, op, cols=7):
        assert M.shape == (2, cols)
        for i in range(2):
            for j in range(cols):
                r = op(xs(i, j), ys(i, j))
                assert _same(M.lo[i, j], M.hi[i, j], r), (i, j, xs(i, j), ys(i, j))

    def test_matrix_matrix_row_and_scalar_in_both_orders(self):
        def matrix(xs):
            return IntervalMatrix.from_scalars([xs[:7], xs[7:]]), lambda i, j: xs[7 * i + j]

        def rows(xs):
            for r in (0, 1):
                yield IntervalMatrix.from_scalars([xs[7 * r : 7 * r + 7]]), (
                    lambda i, j, r=r: xs[7 * r + j]
                )

        (A, a), (B, b), (D, d) = map(matrix, (_FLAGGED_A, _FLAGGED_B, _FLAGGED_D))
        for op in (operator.add, operator.sub, operator.mul):
            self._check(op(A, B), a, b, op)
            self._check(op(B, A), b, a, op)
            for R, r in rows(_FLAGGED_B):
                self._check(op(A, R), a, r, op)
                self._check(op(R, A), r, a, op)
            for s in _FLAGGED_SCALARS:
                self._check(op(A, s), a, lambda i, j: s, op)
                if op is operator.mul:  # the reflected scalar operators are * and /
                    self._check(op(s, A), lambda i, j: s, a, op)
        div = operator.truediv
        self._check(A / D, a, d, div)
        self._check(D / D[::-1], d, lambda i, j: d(1 - i, j), div)
        for R, r in rows(_FLAGGED_D):
            self._check(A / R, a, r, div)
            self._check(R / D, r, d, div)
        for s in _FLAGGED_SCALARS:
            self._check(s / D, lambda i, j: s, d, div)
            if not s.lo <= 0.0 <= s.hi:
                self._check(A / s, a, lambda i, j: s, div)

    def test_sqrt_and_intpow(self):
        xs = [iv(0.0, x.mag()) if x.lo < 0.0 else x for x in _FLAGGED_A]
        A = IntervalMatrix.from_scalars([xs[:7], xs[7:]])
        x = lambda i, j: xs[7 * i + j]
        self._check(A.sqrt(), x, x, lambda v, _: sqrt_iv(v))
        for n in range(6):
            self._check(A.intpow(n), x, x, lambda v, _: intpow_iv(v, n))


class TestContainmentFuzz:
    def test_random_op_containment(self):
        rng = random.Random(1234)
        ops = ("add", "sub", "mul", "div")
        for _ in range(10_000):
            a_lo = rng.uniform(-1e6, 1e6)
            a_hi = a_lo + abs(rng.uniform(0, 10.0))
            b_lo = rng.uniform(-1e6, 1e6)
            b_hi = b_lo + abs(rng.uniform(0, 10.0))
            a = IntervalScalar(a_lo, a_hi)
            b = IntervalScalar(b_lo, b_hi)
            op = rng.choice(ops)
            if op == "div" and b_lo <= 0.0 <= b_hi:
                continue
            r = arith(op, a, b)
            pa = Fraction(rng.uniform(a_lo, a_hi))
            pb = Fraction(rng.uniform(b_lo, b_hi))
            if op == "add":
                exact = pa + pb
            elif op == "sub":
                exact = pa - pb
            elif op == "mul":
                exact = pa * pb
            else:
                exact = pa / pb
            assert Fraction(r.lo) <= exact <= Fraction(r.hi)


    def test_matrix_kernels_contain_exact_values(self):
        # the elementwise kernels against exact rationals (40-digit mpmath for
        # exp and log) at random points of random operands
        import mpmath

        mpmath.mp.dps = 40
        rng = random.Random(20261018)
        n = 10_000  # ten kernels: 100k trials, as in acceptance criterion 08

        def operand(lo_range, rel_width, min_mag=0.0):
            lo = []
            for _ in range(n):
                x = rng.uniform(*lo_range)
                if rng.random() < 0.25:  # products reach below the error-free band
                    x = math.copysign(10.0 ** rng.uniform(-160, 150), x)
                lo.append(math.copysign(max(abs(x), min_mag), x))
            lo = np.array(lo)
            width = np.array([rng.uniform(0.0, rel_width) for _ in range(n)])
            return IntervalMatrix(lo[None, :], (lo + np.abs(lo) * width)[None, :])

        def points(M):
            return [rng.uniform(a, b) for a, b in zip(M.lo[0].tolist(), M.hi[0].tolist())]

        def contained(M, exact):  # an infinite endpoint bounds everything
            return all(
                (a == -math.inf or Fraction(a) <= e) and (b == math.inf or e <= Fraction(b))
                for a, b, e in zip(M.lo[0].tolist(), M.hi[0].tolist(), exact)
            )

        A = operand((-1e6, 1e6), 1e-3)
        B = operand((-1e6, 1e6), 1e-3, min_mag=1e-3)  # no divisor contains 0
        exact_ops = {
            "add": lambda x, y: x + y,
            "sub": lambda x, y: x - y,
            "mul": lambda x, y: x * y,
            "div": lambda x, y: x / y,
        }
        for M, op in ((A + B, "add"), (A - B, "sub"), (A * B, "mul"), (A / B, "div")):
            pairs = zip(points(A), points(B))
            assert contained(M, [exact_ops[op](Fraction(x), Fraction(y)) for x, y in pairs]), op
        P = abs(A)
        pp = [Fraction(x) for x in points(P)]
        S = P.sqrt()
        assert all(
            Fraction(a) ** 2 <= x <= Fraction(b) ** 2
            for a, b, x in zip(S.lo[0].tolist(), S.hi[0].tolist(), pp)
        )
        for k in (2, 3, 7):
            assert contained(P.intpow(k), [x**k for x in pp]), k

        def libm_contained(M, X, f):
            return all(
                mpmath.mpf(a) <= f(mpmath.mpf(x)) <= mpmath.mpf(b)
                for a, b, x in zip(M.lo[0].tolist(), M.hi[0].tolist(), points(X))
            )

        lo = np.array([rng.uniform(-760.0, 700.0) for _ in range(n)])
        width = np.array([rng.uniform(0.0, 2.0) for _ in range(n)])
        X = IntervalMatrix(lo[None, :], (lo + width)[None, :])
        assert libm_contained(X.exp(), X, mpmath.exp)
        assert libm_contained(abs(B).log(), abs(B), mpmath.log)


_endpoint = st.floats(
    min_value=-1e140,
    max_value=1e140,
    allow_nan=False,
    allow_infinity=False,
    allow_subnormal=False,
)


@st.composite
def intervals(draw):
    a = draw(_endpoint)
    b = draw(_endpoint)
    return IntervalScalar(min(a, b), max(a, b))


# endpoints kept inside the band where the EFT kernels give exactly directed
# rounding, so order laws hold without slack
_endpoint_normal = st.one_of(
    st.just(0.0),
    st.builds(
        lambda m, s: m * s,
        st.floats(min_value=1e-100, max_value=1e100, allow_nan=False),
        st.sampled_from([-1.0, 1.0]),
    ),
)


@st.composite
def intervals_normal(draw):
    a = draw(_endpoint_normal)
    b = draw(_endpoint_normal)
    return IntervalScalar(min(a, b), max(a, b))


class TestProperties:
    @given(intervals(), intervals())
    @settings(max_examples=300, deadline=None)
    def test_add_contains_endpoint_sums(self, a, b):
        r = a + b
        for x in (a.lo, a.hi):
            for y in (b.lo, b.hi):
                assert Fraction(r.lo) <= Fraction(x) + Fraction(y) <= Fraction(r.hi)

    @given(intervals(), intervals())
    @settings(max_examples=300, deadline=None)
    def test_mul_contains_endpoint_products(self, a, b):
        r = a * b
        for x in (a.lo, a.hi):
            for y in (b.lo, b.hi):
                p = Fraction(x) * Fraction(y)
                assert Fraction(r.lo) <= p <= Fraction(r.hi)

    @given(
        intervals_normal(), intervals_normal(), st.floats(0, 1), st.floats(0, 1)
    )
    @settings(max_examples=300, deadline=None)
    def test_inclusion_monotonicity(self, a, b, s, t):
        # shrink each operand (clamped so rounding cannot escape the parent)
        # and check the result shrinks too; exact in the range where directed
        # rounding is error-free
        def shrink(x, f):
            lo = min(max(x.lo + f * (x.mid - x.lo), x.lo), x.hi)
            hi = max(min(x.hi - f * (x.hi - x.mid), x.hi), lo)
            return IntervalScalar(lo, hi)

        a2 = shrink(a, s)
        b2 = shrink(b, t)
        for op in ("add", "sub", "mul"):
            big = arith(op, a, b)
            small = arith(op, a2, b2)
            assert big.lo <= small.lo and small.hi <= big.hi

    @given(st.floats(min_value=-700, max_value=700, allow_nan=False))
    @settings(max_examples=300, deadline=None)
    def test_exp_contains_true_value(self, x):
        import mpmath

        mpmath.mp.dps = 40
        e = exp_iv(IntervalScalar(x, x))
        t = mpmath.exp(mpmath.mpf(x))
        assert mpmath.mpf(e.lo) <= t <= mpmath.mpf(e.hi)

    @given(st.floats(min_value=1e-290, max_value=1e290, allow_nan=False))
    @settings(max_examples=300, deadline=None)
    def test_sqrt_contains_true_value(self, x):
        r = sqrt_iv(IntervalScalar(x, x))
        assert Fraction(r.lo) ** 2 <= Fraction(x) <= Fraction(r.hi) ** 2


# ---------------------------------------------------------------------------
# the scalar core against exact rationals, branch by branch
#
# Point operands from a fixed table, through public names only.  Inside the
# error-free band (operands below 1e300, the rounded product or the divisor
# times the rounded quotient strictly between 1e-290 and 1e300) the
# endpoints are the tightest doubles around the exact value; outside it the
# documented fallback holds: a one-ulp nudge of the rounded value, the
# signed floor +-5e-324 where it underflows to 0, and the clamp to +-MAX
# where it overflows.

_MAX = sys.float_info.max
_LO, _HI = 1e-290, 1e300
_POSITIVE = [
    _TINY,
    2.0 ** -1022,
    math.nextafter(_LO, 0.0),
    _LO,
    math.nextafter(_LO, 1.0),
    1e-160,
    0.1,
    1 / 3,
    1.0,
    3.0,
    1e155,
    1e160,
    math.nextafter(_HI, 0.0),
    _HI,
    math.nextafter(_HI, math.inf),
    _MAX,
]
_TABLE = [0.0, -0.0] + _POSITIVE + [-v for v in _POSITIVE]


def _below(q):
    """The largest double at or below q (-inf if none)."""
    if q >= _MAX:
        return _MAX
    if q < -_MAX:
        return -math.inf
    f = float(q)  # rounded to nearest, so at most one ulp above q
    return math.nextafter(f, -math.inf) if Fraction(f) > q else f


def _above(q):
    """The smallest double at or above q (inf if none)."""
    return -_below(-q)


def _tight(q):
    return _below(q), _above(q)


def _nudged(p):
    return math.nextafter(p, -math.inf), math.nextafter(p, math.inf)


def _in_band(x, y, p):
    return abs(x) < _HI and abs(y) < _HI and _LO < abs(p) < _HI


def _ends(r):
    return r.lo, r.hi


def _contains(r, q):
    return (r.lo == -math.inf or Fraction(r.lo) <= q) and (
        r.hi == math.inf or q <= Fraction(r.hi)
    )


def _fallback(q, p, zero):
    """Endpoints outside the error-free band: exact 0, clamp, floor, nudge."""
    if zero:
        return 0.0, 0.0
    if math.isinf(p):
        return _tight(q)  # the clamp to +-MAX on the inner side
    if p == 0.0:
        return (0.0, _TINY) if q > 0 else (-_TINY, 0.0)
    return _nudged(p)


class TestScalarCoreOracle:
    pairs = [(a, b) for a in _TABLE for b in _TABLE]

    def test_sum_and_difference_are_tight(self):
        for a, b in self.pairs:
            x, y = IntervalScalar(a, a), IntervalScalar(b, b)
            for got, q in ((x + y, Fraction(a) + Fraction(b)), (x - y, Fraction(a) - Fraction(b))):
                assert _contains(got, q), (a, b)
                assert _ends(got) == _tight(q), (a, b, got)

    def test_product(self):
        for a, b in self.pairs:
            got = IntervalScalar(a, a) * IntervalScalar(b, b)
            q = Fraction(a) * Fraction(b)
            p = a * b
            assert _contains(got, q), (a, b, got)
            if a != 0.0 and b != 0.0 and _in_band(a, b, p):
                want = _tight(q)
            else:
                want = _fallback(q, p, a == 0.0 or b == 0.0)
            assert _ends(got) == want, (a, b, got, want)

    def test_quotient(self):
        for a, b in self.pairs:
            if b == 0.0:
                with pytest.raises(SingularDivisionError):
                    IntervalScalar(a, a) / IntervalScalar(b, b)
                continue
            got = IntervalScalar(a, a) / IntervalScalar(b, b)
            q = Fraction(a) / Fraction(b)
            p = a / b
            assert _contains(got, q), (a, b, got)
            if a != 0.0 and math.isfinite(p) and _in_band(p, b, p * b):
                want = _tight(q)
            else:
                want = _fallback(q, p, a == 0.0)
            assert _ends(got) == want, (a, b, got, want)

    def test_square_root(self):
        for x in [v for v in _TABLE if v >= 0.0]:
            got = sqrt_iv(IntervalScalar(x, x))
            s = math.sqrt(x)
            assert Fraction(got.lo) ** 2 <= Fraction(x) <= Fraction(got.hi) ** 2, x
            if x == 0.0:
                want = (0.0, 0.0)
            elif _in_band(s, s, s * s):
                # the tightest doubles around the root: s itself when s^2 = x,
                # else s and its neighbour on the side of the root
                square = Fraction(s) ** 2
                if square == x:
                    want = (s, s)
                elif square < x:
                    want = (s, math.nextafter(s, math.inf))
                else:
                    want = (math.nextafter(s, -math.inf), s)
            else:
                want = _nudged(s)
            assert _ends(got) == want, (x, got, want)

    def test_make_interval(self):
        for mid, rad in self.pairs:
            rad = abs(rad)
            got = make_interval(mid, rad)
            if rad == 0.0:
                want = (mid, mid)
            else:
                want = (_below(Fraction(mid) - Fraction(rad)), _above(Fraction(mid) + Fraction(rad)))
            assert _ends(got) == want, (mid, rad, got, want)

    @pytest.mark.parametrize(
        "text",
        [repr(v) for v in _TABLE]
        + ["0.1", "-0.3", "1e-400", "-1e-400", "2.5e-324", "1e-290", "1e300", "1e400", "-1e400"]
        + ["1.7976931348623158e308", "-1.7976931348623158e308"],
    )
    def test_decimal_endpoints(self, text):
        q = Fraction(Decimal(text))
        try:
            got = interval_from_decimal(text)
        except IntervalError:
            assert abs(q) > _MAX, text
            return
        assert _ends(got) == _tight(q), (text, got)
