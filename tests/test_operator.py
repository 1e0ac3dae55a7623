import dataclasses
import random

import mpmath
import numpy as np
import pytest

from spikecert.basis import reference_model
from spikecert.interval import IntervalMatrix, IntervalScalar, make_interval
from spikecert.operator import (
    OperatorConfig,
    apply_G,
    apply_linear,
    apply_quadratic,
    assemble_jacobian,
    recover_velocity,
)
from spikecert.spaces import CoefficientVector, load_certificate

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
    def test_zero_maps_to_zero(self):
        out = apply_linear(CoefficientVector(), cfg_for(1.0))
        assert len(out) == 0

    def test_mode_one_symbol(self):
        out = apply_linear(vec({1: 1.0}), cfg_for(0.0))
        r = out.get(1)
        assert r.contains(1.505)  # 1 + 1/2 + 0.005
        assert r.width < 1e-15

    def test_mode_two_symbol(self):
        out = apply_linear(vec({2: 1.0}), cfg_for(0.0))
        r = out.get(2)
        assert r.contains(2.02)  # 1 + 1 + 0.005*4
        assert r.width < 1e-15

    def test_rejects_modes_above_truncation(self):
        with pytest.raises(ValueError):
            apply_linear(vec({11: 1.0}), cfg_for(0.0, N=10))


class TestRecovery:
    def test_zero(self):
        out = recover_velocity(CoefficientVector(), cfg_for(1.0))
        assert len(out) == 0

    def test_unit_kernel_power(self):
        out = recover_velocity(vec({4: 1.0}), cfg_for(1.0))
        assert out.get(4).contains(128.0)

    def test_capped_kernel_bound_propagation(self):
        out = recover_velocity(vec({1: 2.0}), cfg_for(1.0, coupling_rec=200.0))
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
            q1 = apply_quadratic(vec(u), vec(v), c).scaled(a)
            q2 = apply_quadratic(vec(w), vec(v), c).scaled(b)
            rhs = q1 + q2
            for j in set(lhs.support) | set(rhs.support):
                lj, rj = lhs.get(j), rhs.get(j)
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


# -- column-by-column reference assembly ----------------------------------------

_ONE = IntervalScalar(1.0, 1.0)


def column_jacobian(c, cfg, quadratic=apply_quadratic):
    """The Jacobian one column at a time from scalar quadratic-form calls:
    column m is Q(e_m, c) + Q(c, e_m) + 2[Q(K e_m, c) + Q(K c, e_m)] plus the
    linear symbol at row m, rows cut at N."""
    N = cfg.truncation_N
    lo = np.zeros((N, N))
    hi = np.zeros((N, N))
    vel_c = recover_velocity(c, cfg)
    for m in range(1, N + 1):
        em = CoefficientVector(((m, _ONE),), N)
        vel_em = recover_velocity(em, cfg)
        col = quadratic(em, c, cfg) + quadratic(c, em, cfg)
        col = col + (quadratic(vel_em, c, cfg) + quadratic(vel_c, em, cfg)).scaled(2.0)
        sym = _ONE + cfg.model.drift_eig(m) + cfg.nu * cfg.model.diffusion_eig(m)
        col = col + CoefficientVector(((m, sym),), 2 * N)
        for j, val in col.items():
            if j > N:
                break
            lo[j - 1, m - 1] = val.lo
            hi[j - 1, m - 1] = val.hi
    return lo, hi


def same_bits(a, b):
    return np.array_equal(
        np.asarray(a, dtype=np.float64).view(np.uint64),
        np.asarray(b, dtype=np.float64).view(np.uint64),
    )


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


class TestJacobianMatchesColumnAssembly:
    def test_random_problems_bit_for_bit(self):
        rng = random.Random(47)
        for _ in range(40):
            c, cfg = random_problem(rng)
            lo, hi = column_jacobian(c, cfg)
            J = assemble_jacobian(c, cfg)
            assert same_bits(J.lo, lo) and same_bits(J.hi, hi), (c, cfg)

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
        N = 12
        cfg = cfg_for(coupling, nu=0.003, N=N, coupling_rec=crec)
        c = vec(modes, N)
        lo, hi = column_jacobian(c, cfg)
        J = assemble_jacobian(c, cfg)
        assert same_bits(J.lo, lo) and same_bits(J.hi, hi)


# -- the scalar quadratic form -----------------------------------------------


def scalar_apply_quadratic(u, v, cfg):
    """Q(u, v) by the scalar triple loop over every output mode j <= 2N,
    summing each mode's terms in (k, l) order; the bitwise reference for
    apply_quadratic."""
    n2 = 2 * cfg.truncation_N
    acc = {}
    for k, uk in u.items():
        if uk.mag() == 0.0 and uk.lo == uk.hi:
            continue
        for l, vl in v.items():
            prod = uk * vl
            for j in range(1, n2 + 1):
                ckl = cfg.model.interaction(k, l, j)
                if ckl.lo == 0.0 == ckl.hi:
                    continue
                term = ckl * prod
                acc[j] = acc[j] + term if j in acc else term
    return CoefficientVector(tuple(acc.items()), n2)


def same_vector(a, b):
    return a.max_mode == b.max_mode and [
        (j, float(x.lo).hex(), float(x.hi).hex()) for j, x in a.items()
    ] == [(j, float(x.lo).hex(), float(x.hi).hex()) for j, x in b.items()]


class TestQuadraticMatchesScalarLoop:
    def test_random_sparse_profiles_bit_for_bit(self):
        rng = random.Random(2026)
        for _ in range(40):
            c, cfg = random_problem(rng)
            entries = list(c.entries)
            if entries and rng.random() < 0.3:  # an exactly zero coefficient
                k, _ = entries[rng.randrange(len(entries))]
                entries = [(j, iv(0.0) if j == k else x) for j, x in entries]
            c = CoefficientVector(tuple(entries), cfg.truncation_N)
            vel = recover_velocity(c, cfg)
            for u, v in ((c, c), (vel, c), (c, vel)):
                assert same_vector(apply_quadratic(u, v, cfg), scalar_apply_quadratic(u, v, cfg))

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
        for u, v in ((c, c), (recover_velocity(c, cfg), c)):
            assert same_vector(apply_quadratic(u, v, cfg), scalar_apply_quadratic(u, v, cfg))


def off_band_model(model):
    """A basis whose nonzeros are not the triangle band: C_{klj} = cpl /
    (1 + k + l - j) for every 1 <= j <= k+l, symmetric and zero above k+l,
    with cpl the reference model's coupling and its block built entry by
    entry from that scalar."""
    cpl = model.interaction_bound

    def interaction(k, l, j):
        return IntervalScalar(0.0, 0.0) if j > k + l else cpl / float(1 + k + l - j)

    def interaction_block(k, ls, n):
        return IntervalMatrix.from_scalars(
            [[interaction(k, l, j) for l in ls] for j in range(1, n + 1)]
        )

    return dataclasses.replace(
        model, interaction=interaction, interaction_block=interaction_block
    )


class TestOperatorReadsOnlyTheBasis:
    """The operator takes its nonzeros from the basis, not from a band rule
    of its own: with a basis that reaches every mode j <= k+l, both the
    quadratic form and the Jacobian match scalar loops over every j <= 2N."""

    def test_quadratic_form_bit_for_bit(self):
        rng = random.Random(11)
        for _ in range(25):
            c, cfg = random_problem(rng, max_N=12)
            cfg = dataclasses.replace(cfg, model=off_band_model(cfg.model))
            vel = recover_velocity(c, cfg)
            for u, v in ((c, c), (vel, c), (c, vel)):
                assert same_vector(apply_quadratic(u, v, cfg), scalar_apply_quadratic(u, v, cfg))

    def test_jacobian_bit_for_bit(self):
        rng = random.Random(12)
        for _ in range(15):
            c, cfg = random_problem(rng, max_N=12)
            cfg = dataclasses.replace(cfg, model=off_band_model(cfg.model))
            lo, hi = column_jacobian(c, cfg, quadratic=scalar_apply_quadratic)
            J = assemble_jacobian(c, cfg)
            assert same_bits(J.lo, lo) and same_bits(J.hi, hi), (c, cfg)

    def test_reaches_modes_below_the_band(self):
        # modes 9 and 2 reach j = 1..6 through this basis, all below |k-l| = 7
        cfg = cfg_for(1.0, N=10)
        cfg = dataclasses.replace(cfg, model=off_band_model(cfg.model))
        q = apply_quadratic(vec({9: 1.0}, 10), vec({2: 1.0}, 10), cfg)
        assert q.support == tuple(range(1, 12))
        J = assemble_jacobian(vec({9: 1.0}, 10), cfg)
        assert (J.lo[0, 1], J.hi[0, 1]) != (0.0, 0.0)


def joined_apply_G(c, cfg):
    """G(c) with the three parts joined by CoefficientVector addition, as
    apply_G did before its row join; the bitwise reference for it."""
    out = (
        apply_linear(c, cfg)
        + apply_quadratic(c, c, cfg)
        + apply_quadratic(recover_velocity(c, cfg), c, cfg).scaled(2.0)
    )
    return CoefficientVector(out.entries, 2 * cfg.truncation_N)


class TestApplyGMatchesVectorJoin:
    def test_random_profiles_bit_for_bit(self):
        for seed in (47, 2026):
            rng = random.Random(seed)
            for _ in range(40):
                c, cfg = random_problem(rng)
                assert same_vector(apply_G(c, cfg), joined_apply_G(c, cfg)), (c, cfg)

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
        c = vec(modes, 12)
        assert same_vector(apply_G(c, cfg), joined_apply_G(c, cfg))

    def test_bundled_certificate_bit_for_bit(self, bundled_certificate_path):
        cert = load_certificate(bundled_certificate_path)
        cfg = OperatorConfig(model=reference_model(1.0), nu=cert.nu, truncation_N=450)
        out = apply_G(cert.coefficients, cfg)
        assert same_vector(out, joined_apply_G(cert.coefficients, cfg))
        assert len(out) > len(cert.coefficients)


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

    def test_rejects_oversized_profile(self):
        with pytest.raises(ValueError):
            assemble_jacobian(vec({11: 1.0}), cfg_for(1.0, N=10))


class TestConfig:
    def test_bad_truncation(self):
        m = reference_model(1.0)
        with pytest.raises(ValueError):
            OperatorConfig(model=m, nu=iv(0.005), truncation_N=0)
