import itertools
import math

import pytest

from spikecert.basis import BasisModel, reference_model
from spikecert.interval import IntervalScalar, pow_seven_halves
from spikecert.matrix import IntervalMatrix
from spikecert.operator import OperatorConfig, apply_G
from spikecert.spaces import CoefficientVector


def entry(row):
    """The one entry of a 1 x 1 row."""
    assert row.shape == (1, 1)
    return row.entry(0, 0)


def assert_block_matches(m, k, ls, n):
    """interaction_block(k, ls, n) has the bits of scalar interaction in
    every entry: [j-1, i] = C_{k, ls[i], j}."""
    block = m.interaction_block(k, ls, n)
    assert block.shape == (n, len(ls))
    for (i, l), j in itertools.product(enumerate(ls), range(1, n + 1)):
        e = m.interaction(k, l, j)
        got = (float(block.lo[j - 1, i]).hex(), float(block.hi[j - 1, i]).hex())
        assert got == (e.lo.hex(), e.hi.hex()), (k, l, j)


class TestReferenceModel:
    def test_decoupled_model_is_linear(self):
        m = reference_model(0.0)
        for k, l, j in ((1, 1, 2), (3, 4, 5), (10, 10, 20)):
            c = m.interaction(k, l, j)
            assert (c.lo, c.hi) == (0.0, 0.0)
        assert (entry(m.kernel_row([5])).lo, entry(m.kernel_row([5])).hi) == (0.0, 0.0)

    def test_unit_coupling_diagonal(self):
        m = reference_model(1.0)
        c = m.interaction(1, 1, 2)
        assert (c.lo, c.hi) == (1.0, 1.0)

    def test_selection_rule_zero(self):
        m = reference_model(1.0)
        c = m.interaction(1, 1, 5)
        assert (c.lo, c.hi) == (0.0, 0.0)
        c2 = m.interaction(4, 9, 2)  # j below |k-l| = 5
        assert (c2.lo, c2.hi) == (0.0, 0.0)

    def test_offdiagonal_falloff(self):
        m = reference_model(1.0)
        c = m.interaction(3, 4, 5)  # |j - k - l| = 2
        assert c.contains(1.0 / 3.0)
        assert c.width < 1e-15

    def test_eigenvalues(self):
        m = reference_model(1.0)
        lam = entry(m.diffusion_row([7]))
        assert (lam.lo, lam.hi) == (49.0, 49.0)
        d = entry(m.drift_row([7]))
        assert (d.lo, d.hi) == (3.5, 3.5)

    def test_eigenvalue_growth(self):
        m = reference_model(1.0)
        prev = entry(m.diffusion_row([1])).hi
        for j in range(2, 10_001):
            cur = entry(m.diffusion_row([j])).lo
            assert cur > prev
            prev = cur

    def test_symmetry_exhaustive(self):
        m = reference_model(0.37)
        for k, l, j in itertools.product(range(1, 31), repeat=3):
            a = m.interaction(k, l, j)
            b = m.interaction(l, k, j)
            assert (a.lo, a.hi) == (b.lo, b.hi)

    @pytest.mark.parametrize("coupling", [0.0, 0.37, 1.0, 2.9])
    def test_interaction_matrix_matches_interaction(self, coupling):
        # the interaction matrix of source mode k, all modes up to N: the
        # square block the Jacobian assembly reads
        m = reference_model(coupling)
        for N, k in ((1, 1), (6, 1), (6, 6), (9, 4), (9, 20), (17, 11)):
            assert_block_matches(m, k, range(1, N + 1), N)

    @pytest.mark.parametrize("coupling", [0.0, 0.37, 1.0, 2.9])
    @pytest.mark.parametrize(
        "k, l, n",
        [
            (1, 1, 1),  # the band 1..2 cut to its first mode
            (9, 4, 3),  # n below |k-l|: nothing on the band
            (9, 4, 5),  # n at |k-l|: one mode
            (6, 6, 7),  # n below k+l: a cut band
            (7, 11, 18),  # n at k+l
            (7, 11, 40),  # n above k+l
            (30, 2, 64),
            (450, 449, 900),  # the bundled certificate's largest pair at N = 450
        ],
    )
    def test_interaction_row_matches_interaction(self, coupling, k, l, n):
        # the interaction row C_{kl.} of one pair: a one-column block, as
        # the quadratic form reads them side by side
        assert_block_matches(reference_model(coupling), k, [l], n)

    @pytest.mark.parametrize("coupling", [0.0, 0.37, 1.0, 2.9])
    def test_interaction_block_columns_in_any_order(self, coupling):
        m = reference_model(coupling)
        assert_block_matches(m, 5, [9, 2, 9, 30, 1], 20)
        assert_block_matches(m, 12, [40, 3, 12], 100)
        assert m.interaction_block(3, [], 7).shape == (7, 0)

    @pytest.mark.parametrize("coupling", [0.37, 1.0, 2.9])
    def test_shared_quotient_table_is_the_scalar_quotient(self, coupling):
        # the table grows in pieces through interaction and interaction_block,
        # square or one column at a time, interleaved; every entry has the
        # bits of cpl / (1 + |j - k - l|) whichever call formed it
        m = reference_model(coupling)
        cpl = IntervalScalar(coupling, coupling)

        def want(k, l, j):
            if not abs(k - l) <= j <= k + l:
                return ("0x0.0p+0", "0x0.0p+0")
            q = cpl / float(1 + abs(j - k - l))
            return q.lo.hex(), q.hi.hex()

        for k, l, grow in (
            (1, 1, None),
            (3, 8, "column"),
            (40, 2, None),
            (12, 9, "square"),
            (30, 35, "column"),
            (2, 70, "square"),
            (60, 61, None),
            (80, 75, "column"),
        ):
            n = 2 * (k + l)
            if grow == "square":
                C = m.interaction_block(k, range(1, n + 1), n)
                for j, mm in ((j, mm) for j in range(1, n + 1) for mm in (1, l, n)):
                    got = (float(C.lo[j - 1, mm - 1]).hex(), float(C.hi[j - 1, mm - 1]).hex())
                    assert got == want(k, mm, j), (k, mm, j)
            if grow == "column":
                col = m.interaction_block(k, [l], n)
                for j in range(1, n + 1):
                    got = (float(col.lo[j - 1, 0]).hex(), float(col.hi[j - 1, 0]).hex())
                    assert got == want(k, l, j), (k, l, j)
            for j in range(max(1, abs(k - l)), k + l + 1):
                e = m.interaction(k, l, j)
                assert (e.lo.hex(), e.hi.hex()) == want(k, l, j), (k, l, j)

    def test_interaction_matrix_index_validation(self):
        m = reference_model(1.0)
        with pytest.raises(ValueError):
            m.interaction_block(0, range(1, 6), 5)
        with pytest.raises(ValueError):
            m.interaction_block(3, range(1, 1), 0)

    @pytest.mark.parametrize("k, l, n", [(0, 1, 5), (1, -2, 5), (2, 3, 0), (True, 1, 5), (1, 1, 2.0)])
    def test_interaction_row_index_validation(self, k, l, n):
        with pytest.raises(ValueError, match="mode index must be a positive integer"):
            reference_model(1.0).interaction_block(k, [l], n)

    @pytest.mark.parametrize(
        "ls, n",
        [
            ([1, 0], 5),  # a bad entry after a good one
            ([2, True], 5),
            ([2.0], 5),
            ([4, -1, 2], 5),
            ([1], -4),  # n
            ([1], True),
        ],
    )
    def test_interaction_block_index_validation(self, ls, n):
        with pytest.raises(ValueError, match="mode index must be a positive integer"):
            reference_model(1.0).interaction_block(3, ls, n)

    def test_selection_rule_random(self):
        import random

        rng = random.Random(9)
        m = reference_model(1.0)
        checked = 0
        while checked < 500:
            k = rng.randint(1, 60)
            l = rng.randint(1, 60)
            j = rng.randint(1, 200)
            if abs(k - l) <= j <= k + l:
                continue
            c = m.interaction(k, l, j)
            assert (c.lo, c.hi) == (0.0, 0.0)
            checked += 1

    def test_interaction_bound_is_uniform(self):
        m = reference_model(0.42)
        for k, l in itertools.product(range(1, 20), repeat=2):
            for j in range(max(1, abs(k - l)), k + l + 1):
                assert m.interaction(k, l, j).mag() <= m.interaction_bound.hi

    def test_coupling_validation(self):
        with pytest.raises(ValueError):
            reference_model(-1.0)
        with pytest.raises(ValueError):
            reference_model(1.0, coupling_rec=-2.0)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_coupling_is_refused(self, bad):
        with pytest.raises(ValueError, match="coupling must be finite"):
            reference_model(bad)
        with pytest.raises(ValueError, match="coupling_rec must be finite"):
            reference_model(1.0, coupling_rec=bad)

    def test_index_validation(self):
        m = reference_model(1.0)
        with pytest.raises(ValueError):
            m.diffusion_row([0])
        with pytest.raises(ValueError):
            m.interaction(1, -1, 2)
        # the block checks its columns at once, yet names the first bad one
        for bad in (0, -3, True, 2.0):
            with pytest.raises(ValueError, match=f"positive integer, got {bad!r}$"):
                m.interaction_block(3, [*range(1, 128), bad], 5)
            with pytest.raises(ValueError, match=f"got {bad!r}$"):
                m.interaction_block(3, [bad, *range(1, 127), -7], 5)

    def test_coupling_rec_defaults_to_coupling(self):
        m = reference_model(2.0)
        assert entry(m.kernel_row([4])).contains(2.0 * 128.0)  # 4^{7/2} = 2^7
        m2 = reference_model(2.0, coupling_rec=0.5)
        assert entry(m2.kernel_row([4])).contains(0.5 * 128.0)


class TestRows:
    """The rows serve the modes of any list, in its order, each entry with
    the bits of the scalar closed form."""

    MODES = [7, 1, 450, 7, 2048, 3, 129]

    @pytest.mark.parametrize("coupling_rec", [0.0, 0.37, 2.9])
    def test_rows_are_the_scalar_closed_forms(self, coupling_rec):
        m = reference_model(1.0, coupling_rec=coupling_rec)
        crec = IntervalScalar(coupling_rec, coupling_rec)
        want = {
            "diffusion_row": lambda j: IntervalScalar(float(j) * float(j), float(j) * float(j)),
            "drift_row": lambda j: IntervalScalar(0.5 * j, 0.5 * j),
            "kernel_row": lambda j: crec * pow_seven_halves(j),
        }
        for name, scalar in want.items():
            row = getattr(m, name)(self.MODES)
            assert row.shape == (1, len(self.MODES))
            for i, j in enumerate(self.MODES):
                got, e = row.entry(0, i), scalar(j)
                assert (got.lo.hex(), got.hi.hex()) == (e.lo.hex(), e.hi.hex()), (name, j)

    @pytest.mark.parametrize("name", ["diffusion_row", "drift_row", "kernel_row"])
    def test_rows_take_ranges_and_empty_lists(self, name):
        m = reference_model(1.0)
        row = getattr(m, name)
        assert row([]).shape == (1, 0)
        full, picked = row(range(1, 65)), row([64, 1])
        assert (picked.lo[0].tolist(), picked.hi[0].tolist()) == (
            [full.lo[0, 63], full.lo[0, 0]],
            [full.hi[0, 63], full.hi[0, 0]],
        )

    @pytest.mark.parametrize("name", ["diffusion_row", "drift_row", "kernel_row"])
    @pytest.mark.parametrize("bad", [0, -3, True, 2.0])
    def test_rows_name_the_first_bad_mode(self, name, bad):
        row = getattr(reference_model(1.0), name)
        with pytest.raises(ValueError, match=f"positive integer, got {bad!r}$"):
            row([*range(1, 40), bad, -7])


class TestRecoveryKernelBound:
    def test_unit_coupling_power(self):
        m = reference_model(1.0)
        b = entry(m.kernel_row([4]))
        assert b.contains(128.0)  # 4^{7/2} = 2^7
        assert b.width < 1e-10

    def test_rejects_zero_index(self):
        m = reference_model(1.0)
        with pytest.raises(ValueError):
            m.kernel_row([0])

    @pytest.mark.parametrize("coupling_rec", [0.0, 0.37, 1.0, 2.9])
    def test_table_is_the_scalar_chain(self, coupling_rec):
        # K_rec(k) comes from a table grown on demand; every entry keeps the
        # bits of crec * k**3.5 in scalar arithmetic, whatever the order of
        # the queries that grew it
        crec = IntervalScalar(coupling_rec, coupling_rec)
        ks = range(1, 2051)
        expect = {k: crec * pow_seven_halves(k) for k in ks}
        descending = list(reversed(ks))
        # ascending, each k asked again after an earlier one, across the growth steps
        growing = [q for k in ks for q in (k, k // 2 + 1, k)]
        for order in (descending * 2, growing):
            m = reference_model(1.0, coupling_rec=coupling_rec)
            for k in order:
                got = entry(m.kernel_row([k]))
                assert (got.lo.hex(), got.hi.hex()) == (expect[k].lo.hex(), expect[k].hi.hex()), k

    @pytest.mark.parametrize("coupling_rec", [0.0, 1.0])
    @pytest.mark.parametrize("bad", [0, -3, True, 2.0])
    def test_index_validation(self, coupling_rec, bad):
        m = reference_model(1.0, coupling_rec=coupling_rec)
        m.kernel_row([4])
        with pytest.raises(ValueError, match="positive integer"):
            m.kernel_row([bad])

    def test_growth_rate(self):
        m = reference_model(1.0, coupling_rec=0.5)
        for k in (1, 2, 10, 37):
            b = entry(m.kernel_row([k]))
            expect = 0.5 * float(k) ** 3.5
            assert b.lo <= expect <= b.hi * (1 + 1e-12)

    def test_custom_model_drives_recovery(self):
        half = IntervalScalar(0.5, 0.5)

        def kern(modes):
            return IntervalMatrix.from_scalars([[pow_seven_halves(k) * half for k in modes]])

        m = reference_model(1.0)
        custom = BasisModel(
            diffusion_row=m.diffusion_row,
            drift_row=m.drift_row,
            interaction=m.interaction,
            interaction_block=m.interaction_block,
            interaction_bound=m.interaction_bound,
            kernel_row=kern,
        )
        cfg = OperatorConfig(model=custom, nu=IntervalScalar(0.005, 0.005), truncation_N=10)
        out = apply_G(CoefficientVector(((9, IntervalScalar(1.0, 1.0)),)), cfg)
        # G_18 = C_{9,9,18} (1 + 2 K_rec(9)) with C_{9,9,18} = 1 and K_rec(9) = 9^3.5 / 2
        assert out.get(18).contains(1.0 + 9.0**3.5)
