import contextlib
import dataclasses
import io
import random
import tracemalloc

import mpmath
import numpy as np
import pytest

from spikecert import residual
from spikecert.basis import reference_model
from spikecert.cli import main as cli_main
from spikecert.interval import IntervalError, IntervalOverflowError, IntervalScalar, sqrt_iv
from spikecert.matrix import IntervalMatrix, row_sum
from spikecert.operator import OperatorConfig, apply_G
from spikecert.residual import certify_residual, weight_sq_row
from spikecert.spaces import (
    PROFILE_SPACE,
    CoefficientVector,
    ProfileCertificate,
    load_certificate,
)

from oracles import make_interval, weight_sq

mpmath.mp.dps = 40

from test_operator import brute_G  # noqa: E402  (shared oracle)


def iv(x):
    return IntervalScalar(float(x), float(x))


def mk_cert(coeffs, nu=0.005, sigma=0.05):
    return ProfileCertificate(coefficients=coeffs, nu=iv(nu), sigma=sigma)


def mk_cfg(coupling, nu=0.005, N=10, coupling_rec=None):
    return OperatorConfig(
        model=reference_model(coupling, coupling_rec=coupling_rec),
        nu=iv(nu),
        truncation_N=N,
    )


def mp_space_norm(modes: dict, space) -> mpmath.mpf:
    total = mpmath.mpf(0)
    for j, x in modes.items():
        w = (1 + mpmath.mpf(j) ** 2) ** mpmath.mpf(space.s) * mpmath.exp(
            2 * mpmath.mpf(space.tau) * j
        )
        total += w * x * x
    return mpmath.sqrt(total)


class TestCertifyResidual:
    def test_zero_profile_is_exactly_zero(self):
        rep = certify_residual(mk_cert(CoefficientVector()), mk_cfg(1.0))
        assert (rep.delta.lo, rep.delta.hi) == (0.0, 0.0)
        assert (rep.delta_fin.lo, rep.delta_fin.hi) == (0.0, 0.0)
        assert (rep.delta_tail.lo, rep.delta_tail.hi) == (0.0, 0.0)

    def test_single_mode_decoupled(self):
        c = CoefficientVector(((1, iv(1.0)),))
        rep = certify_residual(mk_cert(c), mk_cfg(0.0))
        # 1.505 * 8 e^{0.08} to high precision
        assert rep.delta.contains(13.042776294806500)
        assert rep.delta.width / rep.delta.lo < 1e-13
        assert (rep.delta_tail.lo, rep.delta_tail.hi) == (0.0, 0.0)

    def test_mode_above_truncation_rejected(self):
        c = CoefficientVector(((11, iv(1.0)),))
        with pytest.raises(ValueError):
            certify_residual(mk_cert(c), mk_cfg(0.0, N=10))

    def test_report_recombines(self):
        rng = random.Random(51)
        for _ in range(10):
            N = rng.randint(3, 10)
            c = CoefficientVector(
                tuple(
                    (j, iv(rng.uniform(-0.5, 0.5)))
                    for j in rng.sample(range(1, N + 1), rng.randint(1, N))
                )
            )
            rep = certify_residual(mk_cert(c), mk_cfg(0.8, N=N))
            recomposed = sqrt_iv(
                rep.delta_fin * rep.delta_fin + rep.delta_tail * rep.delta_tail
            )
            assert rep.delta.hi >= recomposed.hi

    def test_soundness_against_oracle(self):
        rng = random.Random(52)
        tails = 0
        for _ in range(20):
            N = rng.randint(4, 12)
            coupling = rng.uniform(0.0, 1.0)
            crec = rng.uniform(0.0, 1.0)
            nu = rng.uniform(1e-3, 0.05)
            modes = {
                j: rng.uniform(-0.5, 0.5)
                for j in rng.sample(range(1, N + 1), rng.randint(1, min(5, N)))
            }
            c = CoefficientVector(tuple((j, iv(x)) for j, x in modes.items()))
            rep = certify_residual(
                mk_cert(c, nu=nu), mk_cfg(coupling, nu=nu, N=N, coupling_rec=crec)
            )
            G = brute_G(modes, coupling, crec, nu, N)
            oracle = mp_space_norm(G, PROFILE_SPACE)
            assert mpmath.mpf(rep.delta.hi) >= oracle
            # and not absurdly loose
            assert mpmath.mpf(rep.delta.lo) <= oracle
            # each block on its own: modes j <= N, then the spillover N < j <= 2N
            fin = mp_space_norm({j: x for j, x in G.items() if j <= N}, PROFILE_SPACE)
            tail = mp_space_norm(
                {j: x for j, x in G.items() if N < j <= 2 * N}, PROFILE_SPACE
            )
            assert mpmath.mpf(rep.delta_fin.lo) <= fin <= mpmath.mpf(rep.delta_fin.hi)
            assert mpmath.mpf(rep.delta_tail.lo) <= tail <= mpmath.mpf(rep.delta_tail.hi)
            tails += tail > 0
        assert tails >= 10  # the spillover block is exercised, not just zero

    def test_monotone_in_radius(self):
        base = CoefficientVector(
            ((1, make_interval(0.3, 1e-12)), (3, make_interval(-0.2, 1e-12)))
        )
        wide = CoefficientVector(
            ((1, make_interval(0.3, 1e-6)), (3, make_interval(-0.2, 1e-6)))
        )
        cfg = mk_cfg(1.0, N=6)
        d1 = certify_residual(mk_cert(base), cfg).delta
        d2 = certify_residual(mk_cert(wide), cfg).delta
        assert d2.hi >= d1.hi

def scalar_residual(cert, cfg, space):
    """The weighted sums of certify_residual as the scalar loop it replaced,
    descending in j; the bitwise reference for the elementwise terms."""
    residual = apply_G(cert.coefficients, cfg)
    sq_fin = IntervalScalar(0.0, 0.0)
    sq_tail = IntervalScalar(0.0, 0.0)
    for j, rj in sorted(residual.items(), reverse=True):
        a = abs(rj)
        term = weight_sq(j, space) * a * a
        if j <= cfg.truncation_N:
            sq_fin = sq_fin + term
        else:
            sq_tail = sq_tail + term
    delta_fin = sqrt_iv(sq_fin)
    delta_tail = sqrt_iv(sq_tail)
    delta = sqrt_iv(delta_fin * delta_fin + delta_tail * delta_tail)
    return delta_fin, delta_tail, delta


def bits(x):
    return float(x.lo).hex(), float(x.hi).hex()


def assert_matches_scalar_residual(cert, cfg, space=PROFILE_SPACE):
    rep = certify_residual(cert, cfg)
    delta_fin, delta_tail, delta = scalar_residual(cert, cfg, space)
    assert bits(rep.delta_fin) == bits(delta_fin)
    assert bits(rep.delta_tail) == bits(delta_tail)
    assert bits(rep.delta) == bits(delta)


class TestResidualMatchesScalarLoop:
    # the one space certify_residual weights by
    @pytest.mark.parametrize("space", [PROFILE_SPACE])
    def test_bundled_certificate(self, bundled_certificate_path, space):
        cert = load_certificate(bundled_certificate_path)
        assert_matches_scalar_residual(cert, mk_cfg(1.0, nu=0.005, N=450), space)

    def test_random_profiles(self):
        rng = random.Random(53)
        for _ in range(20):
            N = rng.randint(1, 30)
            modes = rng.sample(range(1, N + 1), rng.randint(0, min(6, N)))
            c = CoefficientVector(
                tuple(
                    (j, make_interval(rng.uniform(-1.0, 1.0), rng.choice([0.0, 1e-4])))
                    for j in modes
                )
            )
            cfg = mk_cfg(rng.choice([0.0, 0.6]), N=N, coupling_rec=rng.choice([0.0, 0.3]))
            assert_matches_scalar_residual(mk_cert(c), cfg)


def listed_residual(cert, cfg):
    """certify_residual by way of the mode list: apply_G's vector, sorted
    descending, back into a row; the bitwise reference for reading G's row."""
    desc = sorted(apply_G(cert.coefficients, cfg).items(), reverse=True)
    a = abs(IntervalMatrix.from_scalars([[rj for _, rj in desc]]))
    terms = weight_sq_row(np.array([j for j, _ in desc], dtype=np.int64)) * a * a
    n_tail = sum(1 for j, _ in desc if j > cfg.truncation_N)
    delta_fin = sqrt_iv(row_sum(terms[:, n_tail:]))
    delta_tail = sqrt_iv(row_sum(terms[:, :n_tail]))
    delta = sqrt_iv(delta_fin * delta_fin + delta_tail * delta_tail)
    return delta_fin, delta_tail, delta


def assert_matches_listed_residual(cert, cfg):
    rep = certify_residual(cert, cfg)
    delta_fin, delta_tail, delta = listed_residual(cert, cfg)
    assert bits(rep.delta_fin) == bits(delta_fin)
    assert bits(rep.delta_tail) == bits(delta_tail)
    assert bits(rep.delta) == bits(delta)


class TestResidualReadsTheRowOfG:
    def test_random_sparse_profiles(self):
        rng = random.Random(54)
        for N in (1, 2, 5, 17, 40, 96):
            for _ in range(4):
                modes = rng.sample(range(1, N + 1), rng.randint(1, min(6, N)))
                c = CoefficientVector(
                    tuple((j, make_interval(rng.uniform(-1.0, 1.0), 1e-6)) for j in modes), N
                )
                cfg = mk_cfg(rng.uniform(0.1, 1.5), N=N, coupling_rec=rng.uniform(0.0, 0.5))
                assert_matches_listed_residual(mk_cert(c), cfg)

    @pytest.mark.parametrize(
        "coupling, crec, modes",
        [
            (0.9, 0.4, {}),  # the empty profile
            (0.8, 0.5, {4: 0.0, 6: 0.75}),  # an exactly zero coefficient
            (0.0, 0.7, {2: -0.4, 5: 0.3}),  # coupling 0: no spillover
            (0.0, 0.0, {1: 1.0, 12: -0.5}),
            (1.3, 0.6, {3: 0.25, 12: -1.5}),  # a mode at exactly N
            (1.0, 1.0, {2: 1e-300, 5: -3e-295}),  # spillover underflows to [0, 5e-324]
        ],
    )
    def test_edge_cases(self, coupling, crec, modes):
        c = CoefficientVector(tuple((j, iv(x)) for j, x in modes.items()), 12)
        assert_matches_listed_residual(mk_cert(c), mk_cfg(coupling, N=12, coupling_rec=crec))

    def test_bundled_certificate(self, bundled_certificate_path):
        cert = load_certificate(bundled_certificate_path)
        assert_matches_listed_residual(cert, mk_cfg(1.0, nu=0.005, N=450))

    def test_no_scalar_interaction_callback(self, bundled_certificate_path):
        # the residual reads whole interaction rows; a per-entry callback
        # that comes back fails here
        def refuse(k, l, j):
            raise AssertionError(f"scalar interaction({k}, {l}, {j}) called")

        cert = load_certificate(bundled_certificate_path)
        cfg = mk_cfg(1.0, nu=0.005, N=450)
        guarded = dataclasses.replace(
            cfg, model=dataclasses.replace(cfg.model, interaction=refuse)
        )
        rep = certify_residual(cert, guarded)
        assert bits(rep.delta) == bits(certify_residual(cert, cfg).delta)


class TestWeightTable:
    """weight_sq_row reads X's squared weights from a table formed once per
    process.  Queried in any order, each entry has the bits of the scalar
    chain oracles.weight_sq; a mode above the table takes the chain on its
    own row."""

    def test_table_is_the_scalar_chain(self):
        top = residual._WEIGHT_MODES
        expect = {j: bits(weight_sq(j, PROFILE_SPACE)) for j in range(1, top + 1)}
        rng = random.Random(57)
        descending = [[j] for j in range(top, 0, -1)]
        # ascending, each mode asked again after an earlier one
        revisiting = [[q] for j in range(1, top + 1, 3) for q in (j, j // 3 + 1)]
        batches = [[rng.randint(1, top) for _ in range(rng.randint(0, 9))] for _ in range(400)]
        for order in (descending, revisiting, batches):
            for js in order:
                w = weight_sq_row(np.array(js, dtype=np.intp))
                assert w.shape == (1, len(js))
                for i, j in enumerate(js):
                    assert bits(w.entry(0, i)) == expect[j], j

    def test_modes_below_one_take_the_chain(self):
        # the table starts at mode 1: mode 0 keeps an enclosure of its own
        # weight 1, not an entry from the table's far end, and a negative
        # mode is refused by the chain's power of a negative interval
        weight_sq_row(np.array([5, 9]))
        w = weight_sq_row(np.array([0, 3]))
        assert w.entry(0, 0).lo <= 1.0 <= w.entry(0, 0).hi < 1.0 + 1e-15
        assert bits(w.entry(0, 1)) == bits(weight_sq(3, PROFILE_SPACE))
        with pytest.raises(IntervalError, match="negative"):
            weight_sq_row(np.array([3, -2]))

    def test_modes_above_the_table_take_the_chain(self):
        top = residual._WEIGHT_MODES
        js = [top + 1, 4436, 7, top]
        w = weight_sq_row(np.array(js))
        for i, j in enumerate(js):
            assert bits(w.entry(0, i)) == bits(weight_sq(j, PROFILE_SPACE)), j
        # e^{0.16 j} leaves the double range from j = 4437 on: the error names
        # the first such mode of the row, as the scalar chain names its mode
        for js in ([5000, 4437, 3], [4437, 5000]):
            with pytest.raises(IntervalOverflowError) as row:
                weight_sq_row(np.array(js))
            with pytest.raises(IntervalOverflowError) as scalar:
                weight_sq(js[0], PROFILE_SPACE)
            assert str(row.value) == str(scalar.value)


def test_dense_profile_residual_stays_small(tmp_path):
    # every mode up to 96 carries a coefficient: the interaction sum runs
    # over 96 source modes, one 256 x 96 slab at a time, and its
    # temporaries must stay bounded
    path = tmp_path / "dense.json"
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli_main(["gen-profile", "--modes", "96", "--seed", "1", "--out", str(path)])
    assert code == 0
    cert = load_certificate(path)
    cfg = OperatorConfig(model=reference_model(1.0), nu=cert.nu, truncation_N=128)
    tracemalloc.start()
    try:
        delta = certify_residual(cert, cfg).delta
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16e6, f"traced peak {peak / 1e6:.1f} MB"
    assert (delta.lo.hex(), delta.hi.hex()) == ("0x1.cf46237b937f9p+71", "0x1.cf46237b938ebp+71")
    # the enclosure that adding one row per support pair gave: the interaction
    # sum meets it and is no wider
    lo, hi = float.fromhex("0x1.cf46237b937d2p+71"), float.fromhex("0x1.cf46237b93917p+71")
    assert delta.lo <= hi and lo <= delta.hi
    assert delta.hi - delta.lo <= hi - lo
