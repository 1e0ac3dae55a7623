import contextlib
import dataclasses
import io
import math
import random
import sys
import tracemalloc

import mpmath
import numpy as np
import pytest

from spikecert import matrix, operator
from spikecert.basis import reference_model
from spikecert.cli import main as cli_main
from spikecert.interval import IntervalScalar
from spikecert.matrix import IntervalMatrix
from spikecert.operator import (
    OperatorConfig,
    apply_G,
    apply_quadratic,
    assemble_jacobian,
)
from spikecert.spaces import CoefficientVector, load_certificate

from mutants import mutant_module
from oracles import linear_part, make_interval, split_block, velocity

mpmath.mp.dps = 40


def iv(x):
    return IntervalScalar(float(x), float(x))


def vec(d, N=0):
    return CoefficientVector(tuple((j, iv(x)) for j, x in d.items()), N)


def cfg_for(coupling, nu=0.005, N=10, coupling_rec=None):
    return OperatorConfig(
        model=reference_model(coupling, coupling_rec=coupling_rec),
        nu=iv(nu),
        truncation_N=N,
    )


# -- high-precision brute-force oracle ----------------------------------------


def brute_interaction(k, l, j, coupling):
    if not (abs(k - l) <= j <= k + l):
        return mpmath.mpf(0)
    return mpmath.mpf(coupling) / (1 + abs(j - k - l))


def brute_Q(u, v, coupling, N):
    out = {}
    for k, uk in u.items():
        for l, vl in v.items():
            for j in range(1, 2 * N + 1):
                c = brute_interaction(k, l, j, coupling)
                if c:
                    out[j] = out.get(j, mpmath.mpf(0)) + c * uk * vl
    return out


def brute_G(c, coupling, coupling_rec, nu, N):
    out = {}
    for j, cj in c.items():
        sym = 1 + mpmath.mpf(j) / 2 + mpmath.mpf(nu) * j * j
        out[j] = out.get(j, mpmath.mpf(0)) + sym * cj
    for j, q in brute_Q(c, c, coupling, N).items():
        out[j] = out.get(j, mpmath.mpf(0)) + q
    vel = {
        k: mpmath.mpf(coupling_rec) * mpmath.mpf(k) ** mpmath.mpf("3.5") * ck
        for k, ck in c.items()
    }
    for j, q in brute_Q(vel, c, coupling, N).items():
        out[j] = out.get(j, mpmath.mpf(0)) + 2 * q
    return out


def assert_contains_oracle(result: CoefficientVector, oracle: dict, tol=0):
    for j in set(list(oracle) + list(result.support)):
        r = result.get(j)
        t = oracle.get(j, mpmath.mpf(0))
        assert mpmath.mpf(r.lo) - tol <= t <= mpmath.mpf(r.hi) + tol, (
            f"mode {j}: {t} not in [{r.lo}, {r.hi}]"
        )


class TestLinear:
    """The symbol row times the coefficients, as G's linear part forms it."""

    def test_zero_maps_to_zero(self):
        out = linear_part(CoefficientVector(), cfg_for(1.0))
        assert len(out) == 0

    def test_mode_one_symbol(self):
        out = linear_part(vec({1: 1.0}), cfg_for(0.0))
        r = out.get(1)
        assert r.contains(1.505)  # 1 + 1/2 + 0.005
        assert r.width < 1e-15

    def test_mode_two_symbol(self):
        out = linear_part(vec({2: 1.0}), cfg_for(0.0))
        r = out.get(2)
        assert r.contains(2.02)  # 1 + 1 + 0.005*4
        assert r.width < 1e-15

    def test_rejects_modes_above_truncation(self):
        with pytest.raises(ValueError, match="exceeds truncation"):
            apply_G(vec({11: 1.0}), cfg_for(0.0, N=10))


class TestRecovery:
    """The kernel row times the coefficients, as G's stretching weights it."""

    def test_zero(self):
        out = velocity(CoefficientVector(), cfg_for(1.0))
        assert len(out) == 0

    def test_unit_kernel_power(self):
        out = velocity(vec({4: 1.0}), cfg_for(1.0))
        assert out.get(4).contains(128.0)

    def test_capped_kernel_bound_propagation(self):
        out = velocity(vec({1: 2.0}), cfg_for(1.0, coupling_rec=200.0))
        r = out.get(1)
        assert abs(r.lo) <= 400.0 * (1 + 1e-12)
        assert abs(r.hi) <= 400.0 * (1 + 1e-12)


class TestQuadratic:
    def test_zero_factor(self):
        out = apply_quadratic(CoefficientVector(), vec({1: 1.0}), cfg_for(1.0))
        assert len(out) == 0

    def test_delta_mode_squared(self):
        out = apply_quadratic(vec({1: 1.0}), vec({1: 1.0}), cfg_for(1.0))
        assert out.get(1).contains(0.5)  # C_{1,1,1} = 1/2
        assert out.get(2).contains(1.0)  # C_{1,1,2} = 1
        assert out.support == (1, 2)

    def test_against_brute_force(self):
        rng = random.Random(21)
        for _ in range(25):
            N = 10
            coupling = rng.uniform(0.0, 2.0)
            u = {j: rng.uniform(-1, 1) for j in rng.sample(range(1, N + 1), 5)}
            v = {j: rng.uniform(-1, 1) for j in rng.sample(range(1, N + 1), 5)}
            res = apply_quadratic(vec(u), vec(v), cfg_for(coupling, N=N))
            assert_contains_oracle(res, brute_Q(u, v, coupling, N))

    def test_support_bound(self):
        rng = random.Random(22)
        for _ in range(10):
            N = rng.randint(2, 15)
            u = {j: rng.uniform(-1, 1) for j in range(1, N + 1)}
            res = apply_quadratic(vec(u), vec(u), cfg_for(1.0, N=N))
            assert res.support[-1] <= 2 * N

    def test_bilinearity(self):
        rng = random.Random(23)
        N = 8
        c = cfg_for(0.7, N=N)
        for _ in range(10):
            u = {j: rng.uniform(-1, 1) for j in rng.sample(range(1, N + 1), 3)}
            w = {j: rng.uniform(-1, 1) for j in rng.sample(range(1, N + 1), 3)}
            v = {j: rng.uniform(-1, 1) for j in rng.sample(range(1, N + 1), 3)}
            a, b = rng.uniform(-2, 2), rng.uniform(-2, 2)
            uw = {
                j: a * u.get(j, 0.0) + b * w.get(j, 0.0)
                for j in set(u) | set(w)
            }
            lhs = apply_quadratic(vec(uw), vec(v), c)
            q1 = apply_quadratic(vec(u), vec(v), c)
            q2 = apply_quadratic(vec(w), vec(v), c)
            for j in set(lhs.support) | set(q1.support) | set(q2.support):
                lj, rj = lhs.get(j), q1.get(j) * a + q2.get(j) * b
                scale = max(lj.mag(), rj.mag(), 1e-3)
                assert abs(lj.mid - rj.mid) <= 1e-11 * scale
                # the two evaluations overlap as intervals
                assert lj.lo <= rj.hi + 1e-11 * scale
                assert rj.lo <= lj.hi + 1e-11 * scale


class TestApplyG:
    def test_zero_profile(self):
        out = apply_G(CoefficientVector(), cfg_for(1.0))
        assert len(out) == 0

    def test_decoupled_reduces_to_linear(self):
        out = apply_G(vec({1: 1.0}), cfg_for(0.0))
        assert out.support == (1,)
        assert out.get(1).contains(1.505)

    def test_single_mode_full_composition(self):
        # linear 1.505 at mode 1; advection (0.5, 1.0) at modes (1, 2);
        # stretching doubles the advection through K_rec(1) = 1
        out = apply_G(vec({1: 1.0}), cfg_for(1.0))
        assert out.get(1).contains(1.505 + 0.5 + 2 * 0.5)
        assert out.get(2).contains(1.0 + 2 * 1.0)

    def test_against_brute_force(self):
        rng = random.Random(31)
        for _ in range(15):
            N = rng.randint(4, 12)
            coupling = rng.uniform(0.0, 1.5)
            crec = rng.uniform(0.0, 1.5)
            c = {
                j: rng.uniform(-1, 1)
                for j in rng.sample(range(1, N + 1), rng.randint(1, min(5, N)))
            }
            nu = rng.uniform(1e-4, 0.1)
            res = apply_G(
                vec(c), cfg_for(coupling, nu=nu, N=N, coupling_rec=crec)
            )
            oracle = brute_G(c, coupling, crec, nu, N)
            assert_contains_oracle(res, oracle)

    def test_support_bound(self):
        N = 7
        c = {j: 0.5 for j in range(1, N + 1)}
        out = apply_G(vec(c), cfg_for(1.0, N=N))
        assert out.support[-1] <= 2 * N


# -- a priori widths -------------------------------------------------------------

_ONE = IntervalScalar(1.0, 1.0)
_U = mpmath.mpf(2) ** -53


def entry(row):
    """The one entry of a 1 x 1 row."""
    assert row.shape == (1, 1)
    return row.entry(0, 0)


def kernel_at(model, k):
    """K_rec(k) of a basis, read from its kernel row."""
    return entry(model.kernel_row([k]))


def _split(x):
    """x's float midpoint and radius, formed as matrix._mid_rad forms them."""
    mid = 0.5 * x.lo + 0.5 * x.hi
    d = max(mid - x.lo, x.hi - mid)
    return mid, (math.nextafter(d, math.inf) if d > 0.0 else 0.0)


def apriori_width(terms, n):
    """Twice the radius the operator docstring states for one entry of an
    interaction sum, padded relatively for its own float evaluation.

    ``terms`` holds the (C, W) interval pairs of the entry, slab entry and
    weight, and n the rounding count the docstring gives it.  The radius is
    rad + gamma scale + n 1e-300 in 40 digits, with rad and scale summed
    over the terms from the float splits of C and W and gamma =
    1.01 (n+2) u / (1 - (n+2) u).  It is infinite where a factor is
    unbounded or the sum may overflow."""
    rad = scale = mpmath.mpf(0)
    for C, W in terms:
        if not all(map(math.isfinite, (C.lo, C.hi, W.lo, W.hi))):
            return mpmath.inf
        (cm, cr), (wm, wr) = (map(mpmath.mpf, _split(x)) for x in (C, W))
        rad += abs(cm) * wr + cr * (abs(wm) + wr)
        scale += (abs(cm) + cr) * (abs(wm) + wr)
    if scale >= sys.float_info.max / 4:
        return mpmath.inf
    gamma = mpmath.mpf("1.01") * (n + 2) * _U / (1 - (n + 2) * _U)
    return 2 * (rad + gamma * scale + n * mpmath.mpf(1e-300)) * (1 + (n + 20) * _U)


def _reaches(C, W):
    return not (C.lo == C.hi == 0.0 or W.lo == W.hi == 0.0)


def row_width(weights, n_cols, j, C):
    """apriori_width of entry j of a row sum (G or Q) over the weights
    {(k, l): W}: n is 1 + ceil(log2 #columns) + ceil(log2 #k), counting
    the source modes whose weights are not all [0, 0], where a term
    reaches the entry, else 0."""
    terms = [(C(k, l, j), w) for (k, l), w in weights.items()]
    sources = {k for (k, _), w in weights.items() if not w.lo == w.hi == 0.0}
    n = 1 + (n_cols - 1).bit_length() + (len(sources) - 1).bit_length()
    return apriori_width(terms, n if any(_reaches(*t) for t in terms) else 0)


def random_problem(rng, max_N=24):
    N = rng.randint(1, max_N)
    coupling = rng.choice([0.0, rng.uniform(0.0, 2.0), rng.uniform(0.0, 2.0)])
    crec = rng.choice([0.0, None, rng.uniform(0.0, 3.0)])
    nu = make_interval(rng.uniform(1e-4, 0.1), rng.choice([0.0, 1e-7]))
    modes = rng.sample(range(1, N + 1), rng.randint(0, min(N, 6)))
    if rng.random() < 0.5:
        modes = sorted(set(modes) | {N})
    entries = []
    for k in modes:
        mid = rng.uniform(-1.0, 1.0) * 10.0 ** rng.randint(-12, 1)
        rad = rng.choice([0.0, abs(mid) * 1e-9, 1e-3])
        entries.append((k, make_interval(mid, rad)))
    cfg = OperatorConfig(
        model=reference_model(coupling, coupling_rec=crec), nu=nu, truncation_N=N
    )
    return CoefficientVector(tuple(entries), N), cfg


def with_interaction(model, interaction):
    """``model`` with the tensor ``interaction``, its slab split entry by
    entry from that scalar."""

    def interaction_block(k, ls, n):
        return split_block(interaction, k, ls, n)

    return dataclasses.replace(
        model, interaction=interaction, interaction_block=interaction_block
    )


def off_band_model(model):
    """A basis whose nonzeros are not the triangle band: C_{klj} = cpl /
    (1 + k + l - j) for every 1 <= j <= k+l, symmetric and zero above k+l,
    with cpl the reference model's coupling."""
    cpl = model.interaction_bound

    def interaction(k, l, j):
        return IntervalScalar(0.0, 0.0) if j > k + l else cpl / float(1 + k + l - j)

    return with_interaction(model, interaction)


def wide_model(model):
    """The reference basis with every interaction widened to [C/2, C]: it
    contains the reference model's tensor and the one at half the coupling,
    so both exact values must lie in each enclosure."""

    def interaction(k, l, j):
        x = model.interaction(k, l, j)
        return IntervalScalar(0.5 * x.lo, x.hi)

    return with_interaction(model, interaction)


# -- containment oracles --------------------------------------------------------
#
# Each enclosure is checked two ways: (a) at the lower endpoints, the upper
# endpoints and the midpoints of every input interval, the 40-digit value of
# Q, G or J lies in it, and an infinite endpoint bounds the side it stands
# for; (b) it is no wider than the a priori width of its interaction sum
# (apriori_width), with the same directed weights the operator forms, plus
# the width of the linear part where there is one, plus per endpoint two
# outward nudges and half an ulp of rounding (one ulp more for the directed
# sum with the linear part).  The 40-digit values take the tensor straight
# from its definition, without the symmetry the operator relies on.


def _picks(x):
    lo, hi = mpmath.mpf(x.lo), mpmath.mpf(x.hi)
    return lo, hi, (lo + hi) / 2


class Exact:
    """The reference model of cfg (or its off-band variant) in 40 digits,
    its coupling scaled by ``factor``."""

    def __init__(self, cfg, off_band=False, factor=1):
        kernel = kernel_at(cfg.model, 1)  # coupling_rec * 1^{7/2}, a point
        assert kernel.lo == kernel.hi
        self.coupling = mpmath.mpf(cfg.model.interaction_bound.lo) * factor
        self.crec = mpmath.mpf(kernel.lo)
        self.off_band = off_band

    def C(self, k, l, j):
        if self.off_band:
            return self.coupling / (1 + k + l - j) if j <= k + l else 0
        return brute_interaction(k, l, j, self.coupling)

    def K(self, k):
        return self.crec * mpmath.mpf(k) ** mpmath.mpf("3.5")

    def Q(self, u, v, n):
        out = {}
        for k, uk in u.items():
            for l, vl in v.items():
                for j in range(1, min(n, k + l) + 1):
                    ckl = self.C(k, l, j)
                    if ckl:
                        out[j] = out.get(j, 0) + ckl * uk * vl
        return out

    def G(self, c, nu, N):
        out = {j: (1 + mpmath.mpf(j) / 2 + nu * j * j) * cj for j, cj in c.items()}
        vel = {k: self.K(k) * ck for k, ck in c.items()}
        for q, factor in ((self.Q(c, c, 2 * N), 1), (self.Q(vel, c, 2 * N), 2)):
            for j, x in q.items():
                out[j] = out.get(j, 0) + factor * x
        return out

    def J(self, c, nu, N):
        """DG(c) column by column: Q(e_m, c) + Q(c, e_m) + 2 Q(K e_m, c)
        + 2 Q(K c, e_m) + L e_m, rows cut at N."""
        J = [[mpmath.mpf(0)] * N for _ in range(N)]
        stretch = {m: 1 + 2 * self.K(m) for m in range(1, N + 1)}
        for m in range(1, N + 1):
            J[m - 1][m - 1] = 1 + mpmath.mpf(m) / 2 + nu * m * m
            for k, ck in c.items():
                # Q(e_m, c) + 2 Q(K e_m, c), then Q(c, e_m) + 2 Q(K c, e_m)
                a, b = ck * stretch[m], ck * stretch[k]
                for j in range(1, min(N, k + m) + 1):
                    J[j - 1][m - 1] += self.C(m, k, j) * a + self.C(k, m, j) * b
        return J

    @staticmethod
    def points(*inputs):
        """The inputs, vectors or scalars, at their lower endpoints, at their
        upper endpoints and at their midpoints."""
        for p in range(3):
            yield [
                {j: _picks(x)[p] for j, x in v.items()}
                if isinstance(v, CoefficientVector)
                else _picks(v)[p]
                for v in inputs
            ]


def assert_entry(lo, hi, bound, exact, where, linear=None):
    assert lo != math.inf and hi != -math.inf, f"{where}: [{lo}, {hi}]"
    for t in exact:
        assert mpmath.mpf(lo) <= t <= mpmath.mpf(hi), f"{where}: {t} not in [{lo}, {hi}]"
    width = mpmath.mpf(hi) - mpmath.mpf(lo)
    if linear is None:
        slack = 5 * math.ulp(max(abs(lo), abs(hi)))
    else:
        # the sum's own endpoints are at most twice the largest of these
        top = max(abs(lo), abs(hi), abs(linear.lo), abs(linear.hi))
        bound += mpmath.mpf(linear.hi) - mpmath.mpf(linear.lo)
        slack = 7 * math.ulp(2 * top)
    assert width <= bound + slack, f"{where}: [{lo}, {hi}] wider than {bound} + {slack}"


def check_quadratic(u, v, cfg, exact, quadratic=apply_quadratic):
    n2 = 2 * cfg.truncation_N
    values = [exact.Q(up, vp, n2) for up, vp in Exact.points(u, v)]
    out = quadratic(u, v, cfg)
    weights = {(k, l): vl * uk for k, uk in u.items() for l, vl in v.items()}
    for j in range(1, n2 + 1):
        x = out.get(j)
        bound = row_width(weights, len(v), j, cfg.model.interaction)
        assert_entry(x.lo, x.hi, bound, [t.get(j, 0) for t in values], f"mode {j}")


def check_G(c, cfg, exact, G=apply_G):
    N = cfg.truncation_N
    values = [exact.G(cp, nup, N) for cp, nup in Exact.points(c, cfg.nu)]
    out = G(c, cfg)
    stretched = {l: cl * (kernel_at(cfg.model, l) * 2.0 + _ONE) for l, cl in c.items()}
    weights = {(k, l): stretched[l] * ck for k, ck in c.items() for l in c.support}
    linear = linear_part(c, cfg)
    for j in range(1, 2 * N + 1):
        x = out.get(j)
        bound = row_width(weights, len(c), j, cfg.model.interaction)
        assert_entry(
            x.lo, x.hi, bound, [t.get(j, 0) for t in values],
            f"mode {j}", linear.get(j) if j in linear.support else None,
        )


def check_jacobian(c, cfg, exact, assemble=assemble_jacobian):
    N = cfg.truncation_N
    J = assemble(c, cfg)
    values = [exact.J(cp, nup, N) for cp, nup in Exact.points(c, cfg.nu)]
    model = cfg.model
    K = {m: kernel_at(model, m) for m in range(1, N + 1)}
    weights = {
        (k, m): (K[m] + (_ONE + K[k])) * (ck * 2.0)
        for k, ck in c.items()
        for m in range(1, N + 1)
    }
    for j in range(1, N + 1):
        for m in range(1, N + 1):
            # n counts the source modes whose terms reach the entry
            terms = [(model.interaction(k, m, j), weights[k, m]) for k in c.support]
            bound = apriori_width(terms, sum(_reaches(*t) for t in terms))
            sym = None
            if j == m:
                drift, diffusion = entry(model.drift_row([m])), entry(model.diffusion_row([m]))
                sym = _ONE + drift + cfg.nu * diffusion
            assert_entry(
                J.lo[j - 1, m - 1], J.hi[j - 1, m - 1], bound,
                [t[j - 1][m - 1] for t in values], f"J[{j}, {m}]", sym,
            )


class TestJacobianMatchesColumnAssembly:
    """assemble_jacobian encloses the 40-digit Jacobian and is no wider
    than its a priori bound (the test names are those of the bitwise tests
    these replace, so their IDs stay)."""

    def test_random_problems_bit_for_bit(self):
        rng = random.Random(47)
        for _ in range(40):
            c, cfg = random_problem(rng)
            check_jacobian(c, cfg, Exact(cfg))

    @pytest.mark.parametrize(
        "coupling, crec, modes",
        [
            (0.0, 0.7, {2: -0.4, 5: 0.3}),  # no interaction at all
            (0.9, 0.0, {1: 0.5, 7: -0.2}),  # no stretching
            (0.9, 0.4, {}),  # empty profile: the linear symbol alone
            (1.3, 0.6, {3: 0.25, 12: -1.5}),  # a mode at exactly N
            (0.8, 0.5, {4: 0.0, 6: 0.75}),  # an exactly zero coefficient
            (1.0, 0.0, {2: 1e-300, 5: -3e-295}),  # below the error-free band
            (1.0, 1.0, {3: 1e300, 9: -2e290}),  # products that overflow
        ],
    )
    def test_edge_cases_bit_for_bit(self, coupling, crec, modes):
        cfg = cfg_for(coupling, nu=0.003, N=12, coupling_rec=crec)
        check_jacobian(vec(modes, 12), cfg, Exact(cfg))


# -- adversarial inputs -------------------------------------------------------------
#
# Each case is a profile and a basis; every enclosure of Q, G and J passes
# both oracles, and unreached entries stay exactly [0, 0].


def _wide(d, rel):
    return CoefficientVector(
        tuple((j, make_interval(x, abs(x) * rel)) for j, x in d.items()), 0
    )


ADVERSARIAL = {
    # exact slab entries 0.1 / 2^p and exact weights 2 c_k whose rounded
    # products cancel across source modes, J[4, 1] = 0.2 c_3 + 0.1 c_4 near
    # -3e-11; their low bits differ, so do their rounding errors
    "cancellation": (0.1, 0.0, vec({3: 0.7853981633974483, 4: -1.5707963271, 6: 0.7})),
    # products of a 1e-160 coupling and 1e-160 coefficients fall below 1e-308
    "subnormal": (1e-160, 1e-3, vec({2: 3e-160, 5: -7e-161, 8: 1.1e-159})),
    # c_k c_l and the weights overflow
    "overflow": (1.0, 1.0, vec({3: 1e300, 9: -2e290})),
    # coefficient intervals with a radius of a tenth of their size
    "wide": (0.9, 0.4, _wide({2: 0.5, 5: -0.25, 9: 0.125}, 0.1)),
    # a recovery coupling of 1000: weights up to 1e6 times the coefficients
    "coupling_rec_1000": (0.7, 1000.0, vec({1: -0.3, 4: 0.6, 7: 0.45})),
}


def check_adversarial(coupling, crec, c, ops=operator):
    """Q, G and J of one adversarial case on N = 10, under the reference
    basis and under wide_model, whose two exact tensors both must lie in
    every enclosure; every J entry no term reaches stays [0, 0]."""
    N = 10
    c = CoefficientVector(c.entries, N)
    for wide in (False, True):
        cfg = cfg_for(coupling, nu=0.003, N=N, coupling_rec=crec)
        exacts = [Exact(cfg)]
        if wide:
            cfg = dataclasses.replace(cfg, model=wide_model(cfg.model))
            exacts.append(Exact(cfg, factor=mpmath.mpf(0.5)))
        vel = velocity(c, cfg)
        for exact in exacts:
            for u, v in ((c, c), (vel, c)):
                check_quadratic(u, v, cfg, exact, ops.apply_quadratic)
            check_G(c, cfg, exact, ops.apply_G)
            check_jacobian(c, cfg, exact, ops.assemble_jacobian)
        J = ops.assemble_jacobian(c, cfg)
        for j in range(1, N + 1):
            for m in range(1, N + 1):
                reached = j == m or any(
                    cfg.model.interaction(k, m, j).hi != 0.0 and ck.mag() != 0.0
                    for k, ck in c.items()
                )
                if not reached:
                    assert (J.lo[j - 1, m - 1], J.hi[j - 1, m - 1]) == (0.0, 0.0), (j, m)


class TestAdversarialContainment:
    @pytest.mark.parametrize("case", sorted(ADVERSARIAL))
    def test_case_passes_the_oracles(self, case):
        check_adversarial(*ADVERSARIAL[case])


def mutant_operator(monkeypatch, old, new):
    """spikecert.operator with the one occurrence of ``old`` replaced by ``new``."""
    return mutant_module(monkeypatch, operator, old, new)


def mutant_enclosure(monkeypatch, old, new):
    """spikecert.operator finishing its sums with a mutant of
    matrix._mid_rad_enclosure (building the real IntervalMatrix)."""
    mutant = mutant_module(monkeypatch, matrix, old, new)
    mutant.IntervalMatrix = IntervalMatrix
    monkeypatch.setattr(operator, "_mid_rad_enclosure", mutant._mid_rad_enclosure)
    return operator


class TestJacobianOracleCatchesMutants:
    @pytest.mark.parametrize(
        "old, new",
        [
            ("(K + (K[0, src]", "(K * 0.0 + (K[0, src]"),  # drops 2 A_c K
            ("(K[0, src] + ONE)", "ONE"),  # drops 2 A_{Kc}
            # the weight of the column mode, not the source
            (
                "(_coefficients(c)[0, :, None] * 2.0)",
                "(IntervalMatrix.from_scalars([[c.get(m) for m in modes]]) * 2.0)",
            ),
        ],
        ids=["no-A_c-K", "no-A_Kc", "k-cols-swapped"],
    )
    def test_mutant_fails_the_oracle(self, monkeypatch, old, new):
        mutant = mutant_operator(monkeypatch, old, new)
        cfg = cfg_for(0.9, nu=0.003, N=12, coupling_rec=0.4)
        c = vec({2: 0.5, 5: -0.25, 9: 0.125}, 12)
        check_jacobian(c, cfg, Exact(cfg))  # the real assembly passes
        with pytest.raises(AssertionError):
            check_jacobian(c, cfg, Exact(cfg), assemble=mutant.assemble_jacobian)


class TestMidpointRadiusCatchesMutants:
    """Each mutant of the sum or of its finish fails an adversarial case."""

    @pytest.mark.parametrize(
        "mutate, old, new",
        [
            (mutant_enclosure, "r = _gamma_factor(n) * scale", "r = 0.0 * scale"),
            (mutant_operator, "np.multiply(Ca, wr, out=rad)", "np.multiply(Ca, 0.0 * wr, out=rad)"),
            (mutant_operator, "np.multiply(Cr, wa, out=Cr)", "np.multiply(Cr, 0.0 * wa, out=Cr)"),
            (mutant_enclosure, "r += n * 1e-300", "r += np.maximum(n, 1) * 1e-300"),
            (mutant_enclosure, "r = _gamma_factor(n) * scale", "r = 2.0 * _gamma_factor(n) * scale"),
            (
                mutant_enclosure,
                "_np_down(mid - r, steps=2), _np_up(mid + r, steps=2)",
                "_np_down(mid - r, steps=3), _np_up(mid + r, steps=3)",
            ),
        ],
        ids=[
            "no-gamma-scale",
            "no-Cm-Wr",
            "no-Cr-Wa",
            "underflow-unreached",
            "doubled-gamma",
            "extra-nudge",
        ],
    )
    def test_mutant_fails_an_adversarial_case(self, monkeypatch, mutate, old, new):
        mutant = mutate(monkeypatch, old, new)
        failures = 0
        for case in sorted(ADVERSARIAL):
            try:
                check_adversarial(*ADVERSARIAL[case], ops=mutant)
            except AssertionError:
                failures += 1
        assert failures, "the mutant passes every adversarial case"


class TestQuadraticMatchesScalarLoop:
    """apply_quadratic encloses the 40-digit Q(u, v) and is no wider than
    its a priori bound (names kept from the bitwise tests)."""

    def test_random_sparse_profiles_bit_for_bit(self):
        rng = random.Random(2026)
        for _ in range(40):
            c, cfg = random_problem(rng)
            entries = list(c.entries)
            if entries and rng.random() < 0.3:  # an exactly zero coefficient
                k, _ = entries[rng.randrange(len(entries))]
                entries = [(j, iv(0.0) if j == k else x) for j, x in entries]
            c = CoefficientVector(tuple(entries), cfg.truncation_N)
            vel = velocity(c, cfg)
            for u, v in ((c, c), (vel, c), (c, vel)):
                check_quadratic(u, v, cfg, Exact(cfg))

    @pytest.mark.parametrize(
        "coupling, modes",
        [
            (0.0, {2: -0.4, 5: 0.3}),  # coupling 0: no mode is reached
            (1.3, {3: 0.25, 12: -1.5}),  # a mode at exactly N
            (0.8, {4: 0.0, 6: 0.75}),  # an exactly zero coefficient
            (1.0, {2: 1e-300, 5: -3e-295}),  # below the error-free band
            (1.0, {3: 1e300, 9: -2e290}),  # products that overflow
            (0.7, {}),
        ],
    )
    def test_edge_cases_bit_for_bit(self, coupling, modes):
        cfg = cfg_for(coupling, N=12, coupling_rec=0.5)
        c = vec(modes, 12)
        for u, v in ((c, c), (velocity(c, cfg), c)):
            check_quadratic(u, v, cfg, Exact(cfg))


class TestOperatorReadsOnlyTheBasis:
    """The operator takes its nonzeros from the basis, not from a band rule
    of its own: with a basis that reaches every mode j <= k+l, both the
    quadratic form and the Jacobian pass the oracles built on that basis
    (names kept from the bitwise tests)."""

    def test_quadratic_form_bit_for_bit(self):
        rng = random.Random(11)
        for _ in range(25):
            c, cfg = random_problem(rng, max_N=12)
            exact = Exact(cfg, off_band=True)
            cfg = dataclasses.replace(cfg, model=off_band_model(cfg.model))
            vel = velocity(c, cfg)
            for u, v in ((c, c), (vel, c), (c, vel)):
                check_quadratic(u, v, cfg, exact)

    def test_jacobian_bit_for_bit(self):
        rng = random.Random(12)
        for _ in range(15):
            c, cfg = random_problem(rng, max_N=12)
            exact = Exact(cfg, off_band=True)
            cfg = dataclasses.replace(cfg, model=off_band_model(cfg.model))
            check_jacobian(c, cfg, exact)

    def test_reaches_modes_below_the_band(self):
        # modes 9 and 2 reach j = 1..6 through this basis, all below |k-l| = 7
        cfg = cfg_for(1.0, N=10)
        cfg = dataclasses.replace(cfg, model=off_band_model(cfg.model))
        q = apply_quadratic(vec({9: 1.0}, 10), vec({2: 1.0}, 10), cfg)
        assert q.support == tuple(range(1, 12))
        J = assemble_jacobian(vec({9: 1.0}, 10), cfg)
        assert (J.lo[0, 1], J.hi[0, 1]) != (0.0, 0.0)


def unbounded_model(model, at):
    """The reference basis with C_{klj} = [-inf, C.hi] at each triple of
    ``at`` and at its twin (l, k, j)."""
    twins = set(at) | {(l, k, j) for k, l, j in at}

    def interaction(k, l, j):
        x = model.interaction(k, l, j)
        return IntervalScalar(-math.inf, x.hi) if (k, l, j) in twins else x

    return with_interaction(model, interaction)


class TestUnboundedSlabEntries:
    """A slab entry with an infinite endpoint (served with rad = inf) makes
    the entries it reaches the whole line; times a weight [0, 0] it reaches
    nothing."""

    def cfg(self):
        cfg = cfg_for(1.0, N=8)
        return dataclasses.replace(cfg, model=unbounded_model(cfg.model, {(2, 3, 5)}))

    @staticmethod
    def whole(lo, hi):
        return lo == -math.inf and hi == math.inf

    def test_jacobian_and_G(self):
        cfg = self.cfg()
        c = vec({2: 0.5, 3: -0.25, 6: 0.1}, 8)
        J = assemble_jacobian(c, cfg)
        # J[j-1, m-1]: C_{2,3,5} reaches column 3 through c_2, C_{3,2,5}
        # column 2 through c_3
        for i in range(8):
            for m in range(8):
                assert self.whole(J.lo[i, m], J.hi[i, m]) == ((i, m) in {(4, 2), (4, 1)}), (i, m)
        G = apply_G(c, cfg)
        for j, x in G.items():
            assert self.whole(x.lo, x.hi) == (j == 5), j

    def test_a_zero_weight_reaches_nothing(self):
        cfg = self.cfg()
        u = vec({2: 1.0}, 8)
        for v3, reached in ((0.0, False), (1.0, True)):
            q = apply_quadratic(u, vec({3: v3, 4: 1.0}, 8), cfg)
            assert self.whole(q.get(5).lo, q.get(5).hi) == reached
            assert not any(self.whole(x.lo, x.hi) for j, x in q.items() if j != 5)

    def test_an_overflowing_weight_radius_beside_a_zero_weight(self):
        # u_2 just below 1 keeps the weight u_2 v_4 at [-MAX, MAX], finite
        # endpoints whose radius rounds up to inf: times an entry [0, 0] it
        # leaves NaN, the whole line, at every j, with or without a zero
        # weight in the same row
        cfg = cfg_for(1.0, N=8)
        u = vec({2: math.nextafter(1.0, 0.0)}, 8)
        wide = IntervalScalar(-sys.float_info.max, sys.float_info.max)
        for v in ({4: wide}, {3: iv(0.0), 4: wide}):
            q = apply_quadratic(u, CoefficientVector(tuple(v.items()), 8), cfg)
            assert [j for j, x in q.items() if self.whole(x.lo, x.hi)] == list(range(1, 17))


def pairwise_sum(xs):
    """The scalar twin of operator._halving on one column: rounds that add
    entries 2i and 2i+1 and carry an odd last entry over."""
    while len(xs) > 1:
        xs = [xs[i] + xs[i + 1] for i in range(0, len(xs) - 1, 2)] + xs[len(xs) - len(xs) % 2 :]
    return xs[0]


def halving_rows(rng, m, width=12):
    """An m x ``width`` array whose columns mix magnitudes from 1e-300 to
    1e300, near ties that round differently in other orders, -0.0 and
    +-inf; a column holding both infinities sums to NaN."""
    x = np.empty((m, width))
    for col in range(width):
        e = rng.randint(-300, 297)
        for i in range(m):
            u = rng.random()
            if u < 0.05:
                x[i, col] = -0.0
            elif u < 0.08:
                x[i, col] = rng.choice([math.inf, -math.inf])
            elif u < 0.3:
                x[i, col] = rng.uniform(-1.0, 1.0) * 10.0 ** rng.randint(-300, 300)
            else:
                x[i, col] = rng.uniform(-1.0, 1.0) * 10.0 ** (e + rng.randint(0, 3))
    return x


def check_halving(halving):
    # the scalar sums are formed first: halving sums x in place
    rng = random.Random(11)
    for _ in range(20):
        for m in range(1, 18):
            x = halving_rows(rng, m)
            want = [pairwise_sum(x[:, col].tolist()) for col in range(x.shape[1])]
            with np.errstate(invalid="ignore", over="ignore"):
                got = halving(x)
            assert [float(g).hex() for g in got] == [w.hex() for w in want], m


class TestHalving:
    """_halving adds the rows of an array pairwise, the order every G row's
    radius and depth bound assume, bit for bit: the golden logs sum five
    columns, a single pairing shape."""

    def test_matches_the_scalar_pairwise_sum(self):
        check_halving(operator._halving)

    def test_special_values_reach_the_result(self):
        x = np.array([[-0.0, math.inf, 1e308], [-0.0, -math.inf, 1e308], [-0.0, 1.0, -1e308]])
        with np.errstate(invalid="ignore", over="ignore"):
            got = operator._halving(x)
        # -0.0 + -0.0 stays -0.0; inf - inf is NaN; 1e308 + 1e308 overflows
        # before -1e308 comes in
        assert math.copysign(1.0, got[0]) == -1.0 and got[0] == 0.0
        assert math.isnan(got[1])
        assert got[2] == math.inf

    def test_a_left_to_right_sum_is_caught(self, monkeypatch):
        old = "    m, s = x.shape[0], 1"
        mutant = mutant_operator(monkeypatch, old, "    x = np.add.reduce(x, axis=0)[None]\n" + old)
        with pytest.raises(AssertionError):
            check_halving(mutant._halving)


def test_jacobian_endpoints_are_c_contiguous():
    # the sums run over J's transpose; certify_inverse's products read J
    # in row-major order
    c = vec({1: 1.0, 14: 0.3, 43: -0.1, 85: 0.05, 128: 0.01}, 128)
    J = assemble_jacobian(c, cfg_for(1.0, N=128))
    assert J.shape == (128, 128)
    assert J.lo.flags.c_contiguous and J.hi.flags.c_contiguous


class TestApplyGMatchesVectorJoin:
    """apply_G encloses the 40-digit G(c) and is no wider than its a priori
    bound plus the linear part (names kept from the bitwise tests)."""

    def test_random_profiles_bit_for_bit(self):
        for seed in (47, 2026):
            rng = random.Random(seed)
            for _ in range(40):
                c, cfg = random_problem(rng)
                check_G(c, cfg, Exact(cfg))

    @pytest.mark.parametrize(
        "coupling, crec, modes",
        [
            (0.0, 0.7, {2: -0.4, 5: 0.3}),  # linear part alone
            (0.9, 0.0, {1: 0.5, 7: -0.2}),  # no stretching
            (0.9, 0.4, {}),  # empty profile
            (1.3, 0.6, {3: 0.25, 12: -1.5}),  # a mode at exactly N
            (0.8, 0.5, {4: 0.0, 6: 0.75}),  # an exactly zero coefficient
            (1.0, 1.0, {2: 1e-300, 5: -3e-295}),  # below the error-free band
            (1.0, 1.0, {3: 1e300, 9: -2e290}),  # parts that overflow
        ],
    )
    def test_edge_cases_bit_for_bit(self, coupling, crec, modes):
        cfg = cfg_for(coupling, nu=0.003, N=12, coupling_rec=crec)
        check_G(vec(modes, 12), cfg, Exact(cfg))

    def test_bundled_certificate_bit_for_bit(self, bundled_certificate_path):
        cert = load_certificate(bundled_certificate_path)
        cfg = OperatorConfig(model=reference_model(1.0), nu=cert.nu, truncation_N=450)
        check_G(cert.coefficients, cfg, Exact(cfg))
        assert len(apply_G(cert.coefficients, cfg)) > len(cert.coefficients)

    def test_only_nonzero_entries_are_returned(self):
        # coupling 0 and an exactly zero coefficient: every mode G does not
        # reach, and the zero one, is left out, as CoefficientVector leaves
        # out exact zeros
        out = apply_G(vec({4: 0.0, 6: 0.75}, 12), cfg_for(0.0, N=12))
        assert out.support == (6,)


class TestJacobian:
    def test_linearization_at_zero_is_diagonal(self):
        N = 6
        J = assemble_jacobian(CoefficientVector(), cfg_for(0.0, N=N))
        for j in range(1, N + 1):
            d = J.entry(j - 1, j - 1)
            expect = 1 + j / 2 + 0.005 * j * j
            assert d.contains(expect)
        offdiag = J.mag().copy()
        np.fill_diagonal(offdiag, 0.0)
        assert (offdiag == 0.0).all()

    def test_sparsity_pattern(self):
        # single mode at j=1 couples only neighbors: |m-1| <= j <= m+1
        N = 8
        J = assemble_jacobian(vec({1: 1.0}), cfg_for(1.0, N=N))
        for j in range(1, N + 1):
            for m in range(1, N + 1):
                if j == m or abs(j - m) <= 1:
                    continue
                e = J.entry(j - 1, m - 1)
                assert (e.lo, e.hi) == (0.0, 0.0), (j, m)

    def test_matches_finite_differences(self):
        rng = random.Random(41)
        for _ in range(8):
            N = rng.randint(3, 12)
            coupling = rng.uniform(0.0, 1.0)
            crec = rng.uniform(0.0, 1.0)
            nu = rng.uniform(1e-3, 0.05)
            cfg = cfg_for(coupling, nu=nu, N=N, coupling_rec=crec)
            c = {
                j: rng.uniform(-0.5, 0.5)
                for j in rng.sample(range(1, N + 1), rng.randint(1, N))
            }
            J = assemble_jacobian(vec(c), cfg)
            h = 1e-6

            def g_mid(x):
                v = CoefficientVector(
                    tuple((j, iv(xj)) for j, xj in x.items() if xj != 0.0), N
                )
                out = apply_G(v, cfg)
                return np.array([out.get(j).mid for j in range(1, N + 1)])

            for m in rng.sample(range(1, N + 1), min(4, N)):
                xp = dict(c)
                xm = dict(c)
                xp[m] = xp.get(m, 0.0) + h
                xm[m] = xm.get(m, 0.0) - h
                fd = (g_mid(xp) - g_mid(xm)) / (2 * h)
                for j in range(1, N + 1):
                    e = J.entry(j - 1, m - 1)
                    scale = max(abs(fd[j - 1]), e.mag(), 1.0)
                    assert abs(e.mid - fd[j - 1]) <= 1e-6 * scale

    def test_assembly_memory_stays_bounded(self, tmp_path):
        # N = 450: the midpoint, radius, scale and count arrays of the one
        # N x N interaction sum, and one slab's terms at a time
        path = tmp_path / "five.json"
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli_main(["gen-profile", "--modes", "5", "--seed", "1", "--out", str(path)]) == 0
        cert = load_certificate(path)
        cfg = OperatorConfig(model=reference_model(1.0), nu=cert.nu, truncation_N=450)
        tracemalloc.start()
        try:
            assemble_jacobian(cert.coefficients, cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 20e6, f"traced peak {peak / 1e6:.1f} MB"

    def test_rejects_oversized_profile(self):
        with pytest.raises(ValueError):
            assemble_jacobian(vec({11: 1.0}), cfg_for(1.0, N=10))


class TestConfig:
    def test_bad_truncation(self):
        m = reference_model(1.0)
        with pytest.raises(ValueError):
            OperatorConfig(model=m, nu=iv(0.005), truncation_N=0)
