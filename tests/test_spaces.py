import json
import math
import random

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spikecert.errors import CertificateError
from spikecert.interval import IntervalScalar
from spikecert.spaces import (
    PROFILE_SPACE,
    SOURCE_SPACE,
    CoefficientVector,
    ProfileCertificate,
    load_certificate,
    save_certificate,
)

from oracles import make_interval, norm, scaled, weight_sq

mpmath.mp.dps = 50


def iv(x):
    return IntervalScalar(x, x)


def mp_weight_sq(j, space):
    return (1 + mpmath.mpf(j) ** 2) ** mpmath.mpf(space.s) * mpmath.exp(
        2 * mpmath.mpf(space.tau) * j
    )


class TestWeights:
    def test_profile_space_at_one(self):
        w = weight_sq(1, PROFILE_SPACE)
        assert w.contains(75.104695743475855)  # 64 e^{0.16}
        assert w.width / w.lo < 1e-14

    def test_source_space_at_one(self):
        w = weight_sq(1, SOURCE_SPACE)
        assert w.contains(150.51011088908796)  # 128 e^{0.162}
        assert w.width / w.lo < 1e-14

    def test_rejects_nonpositive_index(self):
        with pytest.raises(ValueError):
            weight_sq(0, PROFILE_SPACE)
        with pytest.raises(ValueError):
            weight_sq(-3, PROFILE_SPACE)

    def test_strictly_increasing(self):
        prev = weight_sq(1, PROFILE_SPACE)
        for j in range(2, 200):
            cur = weight_sq(j, PROFILE_SPACE)
            assert cur.lo > prev.hi
            prev = cur

    def test_space_ratio_against_oracle(self):
        # w_Y^2 / w_X^2 = (1+j^2) e^{0.002 j}
        for j in list(range(1, 30)) + [100, 250, 500, 777, 1000]:
            r = weight_sq(j, SOURCE_SPACE) / weight_sq(j, PROFILE_SPACE)
            truth = (1 + mpmath.mpf(j) ** 2) * mpmath.exp(mpmath.mpf("0.002") * j)
            assert mpmath.mpf(r.lo) <= truth <= mpmath.mpf(r.hi)
            assert abs(float(truth) - r.mid) / float(truth) < 1e-12

    def test_oracle_containment_sampled(self):
        for j in (1, 7, 42, 300, 450, 1200):
            for space in (PROFILE_SPACE, SOURCE_SPACE):
                w = weight_sq(j, space)
                truth = mp_weight_sq(j, space)
                assert mpmath.mpf(w.lo) <= truth <= mpmath.mpf(w.hi)

    def test_space_validation(self):
        # what the residual weight and the convolution bound assume of the
        # two fixed spaces: the integer power s_X = 6, the prefactor 2^{s_X/2}
        # = 2^3, the per-mode power (s_Y - s_X)/2 = 1/2 and the buffer
        # tau_Y > tau_X
        assert PROFILE_SPACE.s == 6
        assert SOURCE_SPACE.s == 7
        assert SOURCE_SPACE.tau > PROFILE_SPACE.tau


class TestNorm:
    def test_single_mode(self):
        c = CoefficientVector(((1, iv(1.0)),))
        n = norm(c, PROFILE_SPACE)
        assert n.contains(8.6662965413996684)  # 8 e^{0.08}
        assert n.width / n.lo < 1e-13

    def test_empty_vector_is_zero(self):
        n = norm(CoefficientVector(), PROFILE_SPACE)
        assert (n.lo, n.hi) == (0.0, 0.0)

    def test_zero_coefficient_is_inert(self):
        c1 = CoefficientVector(((1, iv(1.0)),))
        c2 = CoefficientVector(((1, iv(1.0)), (2, iv(0.0))))
        n1 = norm(c1, PROFILE_SPACE)
        n2 = norm(c2, PROFILE_SPACE)
        assert (n1.lo, n1.hi) == (n2.lo, n2.hi)

    def test_homogeneity_exact_for_power_of_two(self):
        c = CoefficientVector(((1, iv(0.7)), (4, iv(-0.3)), (9, iv(0.05))))
        base = norm(c, PROFILE_SPACE)
        times_four = norm(scaled(c, 4.0), PROFILE_SPACE)
        assert times_four.hi == 4.0 * base.hi
        assert times_four.lo == 4.0 * base.lo

    @given(st.floats(min_value=1e-3, max_value=1e3))
    @settings(max_examples=100, deadline=None)
    def test_homogeneity_within_rounding(self, lam):
        c = CoefficientVector(((1, iv(0.7)), (4, iv(-0.3)), (9, iv(0.05))))
        a = norm(scaled(c, lam), PROFILE_SPACE).hi
        b = lam * norm(c, PROFILE_SPACE).hi
        assert abs(a - b) <= 8 * math.ulp(max(a, b))

    def test_monotone_in_space(self):
        rng = random.Random(5)
        for _ in range(50):
            entries = tuple(
                (j, iv(rng.uniform(-1, 1) * math.exp(-0.1 * j)))
                for j in sorted(rng.sample(range(1, 200), rng.randint(1, 12)))
            )
            c = CoefficientVector(entries)
            assert norm(c, SOURCE_SPACE).hi >= norm(c, PROFILE_SPACE).lo
            # strict on nonzero vectors since every weight is larger
            if any(e.mag() > 0 for _, e in entries):
                assert norm(c, SOURCE_SPACE).hi > norm(c, PROFILE_SPACE).hi * 0.999


class TestCoefficientVector:
    def test_duplicate_rejected(self):
        with pytest.raises(CertificateError):
            CoefficientVector(((1, iv(1.0)), (1, iv(2.0))))

    def test_bad_index_rejected(self):
        with pytest.raises(CertificateError):
            CoefficientVector(((0, iv(1.0)),))

    def test_absent_is_zero(self):
        c = CoefficientVector(((2, iv(1.0)),))
        z = c.get(7)
        assert (z.lo, z.hi) == (0.0, 0.0)

    def test_max_mode_default(self):
        c = CoefficientVector(((2, iv(1.0)), (17, iv(1.0))))
        assert c.max_mode == 17
        with pytest.raises(CertificateError):
            CoefficientVector(((17, iv(1.0)),), max_mode=5)


class TestCertificateIO:
    def test_bundled_certificate_loads(self, bundled_certificate_path):
        cert = load_certificate(bundled_certificate_path)
        assert cert.coefficients.support == (1, 50, 150, 300, 450)
        assert cert.sigma == 0.05
        assert cert.tau_audited == 0.08
        j1 = cert.coefficients.get(1)
        assert j1.lo < 5.0 < j1.hi
        assert j1.hi - j1.lo <= 2.0 * math.ulp(5.0)
        assert cert.nu.contains(0.005)
        assert cert.constant("delta").contains(8.421739e-12)
        assert cert.constant("M").contains(482.6)
        assert cert.constant("K").contains(1.1e4)

    def test_round_trip_identity(self, bundled_certificate_path, tmp_path):
        cert = load_certificate(bundled_certificate_path)
        p1 = tmp_path / "a.json"
        p2 = tmp_path / "b.json"
        save_certificate(cert, p1)
        cert2 = load_certificate(p1)
        save_certificate(cert2, p2)
        cert3 = load_certificate(p2)
        for (j2, c2), (j3, c3) in zip(cert2.coefficients.items(), cert3.coefficients.items()):
            assert j2 == j3
            assert (c2.lo, c2.hi) == (c3.lo, c3.hi)
        assert (cert2.nu.lo, cert2.nu.hi) == (cert3.nu.lo, cert3.nu.hi)
        for name in cert2.constants:
            a, b = cert2.constants[name], cert3.constants[name]
            assert (a.lo, a.hi) == (b.lo, b.hi)

    def test_empty_modes_is_zero_profile(self, tmp_path):
        p = tmp_path / "empty.json"
        p.write_text(
            json.dumps(
                {
                    "format_version": "1.0",
                    "nu": {"mid": "0.005", "rad": "0"},
                    "sigma": "0.05",
                    "tau": "0.08",
                    "modes": [],
                }
            )
        )
        cert = load_certificate(p)
        assert len(cert.coefficients) == 0
        n = norm(cert.coefficients, PROFILE_SPACE)
        assert (n.lo, n.hi) == (0.0, 0.0)

    def _doc(self, **overrides):
        doc = {
            "format_version": "1.0",
            "nu": {"mid": "0.005", "rad": "0"},
            "sigma": "0.05",
            "tau": "0.08",
            "modes": [{"j": 1, "mid": "1.5", "rad": "1e-30"}],
        }
        doc.update(overrides)
        return doc

    def _expect_error(self, tmp_path, doc, needle):
        p = tmp_path / "bad.json"
        p.write_text(json.dumps(doc))
        with pytest.raises(CertificateError) as exc:
            load_certificate(p)
        assert needle in str(exc.value)

    def test_negative_radius_names_field(self, tmp_path):
        self._expect_error(
            tmp_path,
            self._doc(modes=[{"j": 1, "mid": "1.5", "rad": "-1e-3"}]),
            "modes[0]",
        )

    def test_duplicate_mode_names_field(self, tmp_path):
        self._expect_error(
            tmp_path,
            self._doc(
                modes=[
                    {"j": 1, "mid": "1.5", "rad": "0"},
                    {"j": 1, "mid": "2.5", "rad": "0"},
                ]
            ),
            "modes[1].j",
        )

    @pytest.mark.parametrize("sign, side", [("", "above"), ("-", "below")])
    def test_mid_just_beyond_double_range_names_field(self, tmp_path, sign, side):
        # rounds to nearest onto +-MAX, but its enclosure would need +-inf
        mid = sign + "1.7976931348623158e308"
        op = "+" if side == "above" else "-"
        modes = [{"j": 1, "mid": "1.5", "rad": "0"}, {"j": 2, "mid": mid, "rad": "0"}]
        p = tmp_path / "bad.json"
        p.write_text(json.dumps(self._doc(modes=modes)))
        with pytest.raises(CertificateError) as exc:
            load_certificate(p)
        # the certificate's own strings, not the 309-digit enclosure endpoint
        assert str(exc.value) == f"modes[1]: decimal {mid} {op} 0 {side} double range"

    @pytest.mark.parametrize("field", ["sigma", "tau"])
    @pytest.mark.parametrize("value", ["1e999", "-1e999"])
    def test_rate_beyond_double_range_names_field(self, tmp_path, field, value):
        p = tmp_path / "bad.json"
        p.write_text(json.dumps(self._doc(**{field: value})))
        with pytest.raises(CertificateError) as exc:
            load_certificate(p)
        assert str(exc.value) == f"{field}: decimal {value} beyond double range"

    def test_bad_version_rejected(self, tmp_path):
        self._expect_error(tmp_path, self._doc(format_version="0.9"), "format_version")

    def test_missing_nu_rejected(self, tmp_path):
        doc = self._doc()
        del doc["nu"]
        self._expect_error(tmp_path, doc, "nu")

    def test_unknown_constant_rejected(self, tmp_path):
        self._expect_error(
            tmp_path,
            self._doc(constants={"bogus": {"mid": "1", "rad": "0"}}),
            "bogus",
        )

    def test_negative_constant_rejected(self, tmp_path):
        self._expect_error(
            tmp_path,
            self._doc(constants={"delta": {"mid": "-1e-12", "rad": "0"}}),
            "delta",
        )

    def test_garbage_json_rejected(self, tmp_path):
        p = tmp_path / "junk.json"
        p.write_text("{ not json")
        with pytest.raises(CertificateError):
            load_certificate(p)

    def test_fractional_mode_index_rejected(self, tmp_path):
        self._expect_error(
            tmp_path,
            self._doc(modes=[{"j": 1.5, "mid": "1.0", "rad": "0"}]),
            "modes[0].j",
        )

    def test_certificate_without_constants(self, tmp_path):
        p = tmp_path / "nc.json"
        p.write_text(json.dumps(self._doc()))
        cert = load_certificate(p)
        assert cert.constants is None
        assert cert.constant("delta") is None

    def test_direct_constructor_validation(self):
        with pytest.raises(CertificateError):
            ProfileCertificate(
                coefficients=CoefficientVector(),
                nu=iv(0.005),
                sigma=-1.0,
                tau_audited=0.08,
            )
        with pytest.raises(CertificateError):
            ProfileCertificate(
                coefficients=CoefficientVector(),
                nu=iv(0.005),
                sigma=0.05,
                tau_audited=0.08,
                constants={"delta": make_interval(-1.0, 0.5)},
            )
