import itertools
import math

import numpy as np
import pytest

from spikecert import basis
from spikecert.basis import BasisModel, reference_model
from spikecert.interval import IntervalScalar, pow_seven_halves
from spikecert.matrix import IntervalMatrix
from spikecert.operator import OperatorConfig, apply_G
from spikecert.spaces import CoefficientVector

from oracles import split_block


def entry(row):
    """The one entry of a 1 x 1 row."""
    assert row.shape == (1, 1)
    return row.entry(0, 0)


def assert_slab_is(got, want, k, ls):
    """The (mid, rad) slab ``got`` has the bits of ``want`` in every entry,
    -0.0 told from +0.0; a mismatch names its (k, l, j)."""
    for name, g, w in zip(("mid", "rad"), got, want):
        assert g.shape == w.shape, name
        bad = np.argwhere(g.view(np.int64) != w.view(np.int64))
        assert bad.size == 0, (name, k, list(ls)[bad[0][0]], int(bad[0][1]) + 1)


def assert_block_matches(m, k, ls, n):
    """interaction_block(k, ls, n) has the bits of the split scalar
    interaction in every entry: [i, j-1] = C_{k, ls[i], j}."""
    assert_slab_is(m.interaction_block(k, ls, n), split_block(m.interaction, k, ls, n), k, ls)


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
        # the interaction row C_{kl.} of one pair: a one-row block, as
        # the quadratic form reads them stacked
        assert_block_matches(reference_model(coupling), k, [l], n)

    @pytest.mark.parametrize("coupling", [0.0, 0.37, 1.0, 2.9])
    def test_interaction_block_columns_in_any_order(self, coupling):
        m = reference_model(coupling)
        assert_block_matches(m, 5, [9, 2, 9, 30, 1], 20)
        assert_block_matches(m, 12, [40, 3, 12], 100)
        assert [a.shape for a in m.interaction_block(3, [], 7)] == [(0, 7), (0, 7)]

    @pytest.mark.parametrize("coupling", [0.37, 1.0, 2.9])
    def test_shared_quotient_table_is_the_scalar_quotient(self, coupling):
        # interaction_block reads the coupling's shared table, square or one
        # column at a time; every entry is the split of, and every scalar
        # interaction has the bits of, cpl / (1 + |j - k - l|)
        m = reference_model(coupling)
        cpl = IntervalScalar(coupling, coupling)

        def want(k, l, j):
            if not abs(k - l) <= j <= k + l:
                return IntervalScalar(0.0, 0.0)
            return cpl / float(1 + abs(j - k - l))

        for k, l, slab in (
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
            if slab is not None:
                ls = range(1, n + 1) if slab == "square" else [l]
                assert_slab_is(m.interaction_block(k, ls, n), split_block(want, k, ls, n), k, ls)
            for j in range(max(1, abs(k - l)), k + l + 1):
                e, w = m.interaction(k, l, j), want(k, l, j)
                assert (e.lo.hex(), e.hi.hex()) == (w.lo.hex(), w.hi.hex()), (k, l, j)

    @pytest.mark.parametrize("first", [-0.0, 0.0])
    def test_signed_zero_couplings_share_one_table(self, first):
        # -0.0 and +0.0 hash and compare equal, so both models read the table
        # the first one formed: both give +0.0 quotients, bit for bit,
        # whichever sign formed it; each model's bound keeps its own sign
        basis._split_table.cache_clear()
        couplings = (first, -first)
        models = [reference_model(x) for x in couplings]
        blocks = [m.interaction_block(5, [9, 2, 30], 40) for m in models]
        assert basis._split_table.cache_info().currsize == 1
        assert basis._quotient_table(first, 40)[0] is basis._quotient_table(-first, 40)[0]
        for x in (*blocks[0], *blocks[1]):
            assert x.tobytes() == np.zeros((3, 40)).tobytes()
        for m, x in zip(models, couplings):
            b = m.interaction_bound
            assert (b.lo.hex(), b.hi.hex()) == (x.hex(), x.hex())

    def test_two_models_with_one_coupling_read_one_table(self, monkeypatch):
        # each audit builds a fresh model; both read the same split arrays
        read = []

        def recording(coupling, need):
            read.append(quotient_table(coupling, need))
            return read[-1]

        quotient_table = basis._quotient_table
        monkeypatch.setattr(basis, "_quotient_table", recording)
        first, second = reference_model(0.73), reference_model(0.73)
        assert first is not second
        for m in (first, second):
            m.interaction_block(5, [9, 2, 30], 40)
        assert len(read) == 2
        assert read[0][0] is read[1][0] and read[0][1] is read[1][1]

    def test_shared_split_table_is_read_only(self):
        # the split table is read-only and ends in its zero slot; the slabs
        # read from it are fresh arrays the operator may overwrite
        mid, rad = basis._quotient_table(0.73, 40)
        assert (mid.size, rad.size) == (65, 65)  # 64 quotients and the slot
        assert (mid[-1], rad[-1]) == (0.0, 0.0)
        for a in (mid, rad):
            assert not a.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                a[0] = 1.0
        for a in reference_model(0.73).interaction_block(5, [9, 2, 30], 40):
            assert a.flags.writeable and not np.shares_memory(a, mid) and not np.shares_memory(a, rad)

    @pytest.mark.parametrize(
        "k, ls, n",
        [
            (6, range(1, 17), 16),  # cols 1..N
            (7, [2, 40, 13, 13, 1, 29], 50),  # scattered, unsorted, repeated
            (9, [4, 12, 9], 11),  # n below k + l
            (60, [3, 1, 7], 64),  # k above every col
        ],
    )
    @pytest.mark.parametrize("coupling", [0.0, -0.0, 0.37])
    def test_split_slab_is_the_split_scalar(self, coupling, k, ls, n):
        assert_block_matches(reference_model(coupling), k, ls, n)

    def test_two_couplings_interleaved(self):
        # slabs of two couplings asked in turn, each time a larger table than
        # before, keep the bits of their own scalar interaction
        models = [reference_model(0.37), reference_model(2.9)]
        for step in range(1, 7):
            for m in models:
                k = 3 * step * step
                assert_block_matches(m, k, [1, k, 2 * k + 1], 3 * k + 1)

    def test_scalar_interaction_forms_no_table(self):
        # d = 5999 lies past every quotient table formed so far; the scalar
        # oracle forms its quotient on its own, and the slab that forms the
        # table agrees with it bit for bit
        m = reference_model(1.0)
        before = basis._split_table.cache_info()
        m.interaction(3000, 3000, 1)
        assert basis._split_table.cache_info() == before
        assert_block_matches(m, 3000, [3000], 1)

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
        # K_rec(k) = crec * k^{7/2} reads k^{7/2} from a table every model
        # shares; in any query order every entry keeps the bits of
        # crec * k**3.5 in scalar arithmetic
        crec = IntervalScalar(coupling_rec, coupling_rec)
        ks = range(1, 2051)
        expect = {k: crec * pow_seven_halves(k) for k in ks}
        descending = list(reversed(ks))
        # ascending, each k asked again after an earlier one
        revisiting = [q for k in ks for q in (k, k // 2 + 1, k)]
        m = reference_model(1.0, coupling_rec=coupling_rec)
        for order in (descending * 2, revisiting):
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
