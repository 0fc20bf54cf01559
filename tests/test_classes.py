from collections import Counter
from collections.abc import Mapping
from math import comb

import pytest
from hypothesis import given, strategies as st

from bbwkoszul.bbw import Bundle, CohomologyProfile, Grassmannian, bbw_cohomology
from bbwkoszul.classes import (
    EquivariantClass,
    det_shift,
    named_class,
    wedge_class,
)
from bbwkoszul import koszul
from bbwkoszul.koszul import verify_claimed_decompositions
from bbwkoszul.oracles import gl2_tensor, schur_product_decomposition

GR27 = Grassmannian(2, 7)
P6 = Grassmannian.projective_space(7)


def cls(ctx, lam, mu):
    return EquivariantClass.irreducible(ctx, lam, mu)


class TestNamedClasses:
    def test_tangent(self):
        assert named_class(GR27, "tangent") == cls(GR27, (1, 0, 0, 0, 0), (0, -1))

    def test_twist_on_projective_space(self):
        assert named_class(P6, "O(3)") == cls(P6, (0,) * 6, (-3,))
        assert named_class(P6, "O(-3)") == cls(P6, (0,) * 6, (3,))

    def test_sym_cube_dual(self):
        assert named_class(GR27, "sym_cube_dual") == cls(GR27, (0,) * 5, (0, -3))

    def test_unknown_name(self):
        with pytest.raises(ValueError):
            named_class(GR27, "spinor")

    def test_twist_needs_projective_space(self):
        with pytest.raises(ValueError):
            named_class(GR27, "O(1)")

    def test_ranks(self):
        assert named_class(GR27, "tangent").rank() == 10
        assert named_class(GR27, "sym_cube").rank() == 4
        assert named_class(P6, "O(3)").rank() == 1

    def test_any_subbundle_rank(self):
        gr37 = Grassmannian(3, 7)
        tangent, sym3, sym3_dual = (
            named_class(gr37, name) for name in ("tangent", "sym_cube", "sym_cube_dual")
        )
        assert [c.rank() for c in (tangent, sym3, sym3_dual)] == [12, 10, 10]
        assert tangent.cohomology().degrees() == [0]
        assert tangent.cohomology().dimension(0) == 48  # traceless 7x7 matrices
        assert sym3_dual.cohomology().degrees() == [0]
        assert sym3_dual.cohomology().dimension(0) == 84  # cubic forms in 7 variables
        assert sym3.cohomology().is_empty


class TestTensor:
    def test_tangent_times_sym_cube(self):
        out = named_class(GR27, "tangent").tensor(named_class(GR27, "sym_cube"))
        assert out == EquivariantClass(
            GR27,
            {
                Bundle((1, 0, 0, 0, 0), (3, -1)): 1,
                Bundle((1, 0, 0, 0, 0), (2, 0)): 1,
            },
        )

    def test_sym_cube_pairing(self):
        out = named_class(GR27, "sym_cube").tensor(named_class(GR27, "sym_cube_dual"))
        expected = EquivariantClass(
            GR27,
            {Bundle((0,) * 5, (3 - k, -3 + k)): 1 for k in range(4)},
        )
        assert out == expected

    def test_trivial_factor(self):
        tangent = named_class(GR27, "tangent")
        assert tangent.tensor(EquivariantClass.trivial(GR27)) == tangent

    def test_rank_multiplicativity(self):
        names = ["S", "Q", "tangent", "sym_cube", "sym_cube_dual", "trivial"]
        for ctx in (GR27, Grassmannian(1, 6)):
            for a in names:
                for b in names:
                    ca, cb = named_class(ctx, a), named_class(ctx, b)
                    assert ca.tensor(cb).rank() == ca.rank() * cb.rank()

    @given(st.data())
    def test_random_irreducibles(self, data):
        k = data.draw(st.sampled_from((1, 2, 3)))
        ctx = Grassmannian(k, k + data.draw(st.integers(1, 3)))

        def weight(length, bound=3):
            entries = data.draw(
                st.lists(st.integers(-bound, bound), min_size=length, max_size=length)
            )
            return tuple(sorted(entries, reverse=True))

        a_lam, a_mu = weight(ctx.quotient_rank), weight(k)
        b_lam, b_mu = weight(ctx.quotient_rank), weight(k)
        a, b = cls(ctx, a_lam, a_mu), cls(ctx, b_lam, b_mu)
        assert a.tensor(b).rank() == a.rank() * b.rank()
        t = data.draw(st.integers(-3, 3))
        det_power = cls(ctx, (t,) * ctx.quotient_rank, (t,) * k)
        assert a.tensor(det_power) == det_power.tensor(a) == a.shifted(t)
        zero_q = (0,) * ctx.quotient_rank
        if k == 2:
            s_a, s_b = a_mu, b_mu
            expected = gl2_tensor(a_mu, b_mu)
        else:
            # second route: shift each weight onto a partition, multiply
            # monomial expansions, drop constituents longer than k, unshift
            s_a, s_b = weight(k, bound=2), weight(k, bound=2)
            ta, tb = -s_a[-1], -s_b[-1]
            brute = schur_product_decomposition([x + ta for x in s_a], [x + tb for x in s_b])
            expected = {
                tuple(x - ta - tb for x in nu + (0,) * (k - len(nu))): m
                for nu, m in brute.items()
                if len(nu) <= k
            }
        s_product = cls(ctx, zero_q, s_a).tensor(cls(ctx, zero_q, s_b))
        assert s_product == EquivariantClass(
            ctx, {Bundle(zero_q, mu): m for mu, m in expected.items()}
        )

    def test_context_mismatch(self):
        with pytest.raises(ValueError):
            named_class(GR27, "tangent").tensor(named_class(P6, "tangent"))

    def test_cohomology_additive(self):
        a = named_class(GR27, "tangent")
        b = named_class(GR27, "sym_cube_dual")
        total = (a + b + b).cohomology()
        parts = (a.cohomology(), b.cohomology(), b.cohomology())
        degrees = sorted({q for part in parts for q in part.degrees()})
        assert total.degrees() == degrees
        for q in degrees:
            assert total.weights(q) == sum((part.weights(q) for part in parts), Counter())
        assert (a + b).euler_characteristic() == (
            a.euler_characteristic() + b.euler_characteristic()
        )


class TestWedge:
    def test_square(self):
        out = wedge_class(named_class(GR27, "sym_cube"), 2)
        assert out == EquivariantClass(
            GR27,
            {Bundle((0,) * 5, (5, 1)): 1, Bundle((0,) * 5, (3, 3)): 1},
        )

    def test_top_power(self):
        out = wedge_class(named_class(GR27, "sym_cube"), 4)
        assert out == cls(GR27, (0,) * 5, (6, 6))

    def test_zeroth_power(self):
        assert wedge_class(named_class(GR27, "sym_cube"), 0) == EquivariantClass.trivial(GR27)

    def test_above_rank(self):
        assert wedge_class(named_class(GR27, "sym_cube"), 5).is_empty

    def test_subbundle_rank_three(self):
        gr37 = Grassmannian(3, 7)
        sym3 = named_class(gr37, "sym_cube")
        assert [wedge_class(sym3, j).rank() for j in range(11)] == [comb(10, j) for j in range(11)]
        assert wedge_class(sym3, 11).is_empty

    def test_line_context(self):
        sym3 = named_class(P6, "sym_cube")
        assert wedge_class(sym3, 1) == sym3
        assert wedge_class(sym3, 2).is_empty

    def test_rejects_sums_and_q_weights(self):
        with pytest.raises(ValueError):
            wedge_class(named_class(GR27, "tangent"), 2)
        both = named_class(GR27, "sym_cube") + named_class(GR27, "sym_cube_dual")
        with pytest.raises(ValueError):
            wedge_class(both, 2)


class TestClassCohomology:
    def test_wedge_square_times_tangent(self):
        out = (
            wedge_class(named_class(GR27, "sym_cube"), 2)
            .tensor(named_class(GR27, "tangent"))
            .cohomology()
        )
        assert out.degrees() == [4]
        assert out.weights(4) == {(1, 1, 1, 1, 1, 1, 0): 1}
        assert out.dimension(4) == 7

    def test_pairing_cohomology(self):
        out = (
            named_class(GR27, "sym_cube")
            .tensor(named_class(GR27, "sym_cube_dual"))
            .cohomology()
        )
        assert out.degrees() == [0]
        assert out.weights(0) == {(0,) * 7: 1}
        assert out.dimension(0) == 1

    def test_empty_class(self):
        assert EquivariantClass.empty(GR27).cohomology().is_empty


BAD_BUNDLES = {
    "short-quotient": ((0,) * 4, (0, 0)),
    "long-subbundle": ((0,) * 5, (0, 0, 0)),
    "rising-quotient": ((0, 1, 0, 0, 0), (0, 0)),
    "rising-subbundle": ((0,) * 5, (-1, 2)),
}


class TestBoundaryChecks:
    @pytest.mark.parametrize("lam, mu", BAD_BUNDLES.values(), ids=BAD_BUNDLES)
    def test_public_constructors_reject(self, lam, mu):
        with pytest.raises(ValueError):
            EquivariantClass(GR27, {Bundle(lam, mu): 1})
        with pytest.raises(ValueError):
            EquivariantClass.irreducible(GR27, lam, mu)
        with pytest.raises(ValueError):
            bbw_cohomology(GR27, Bundle(lam, mu))
        with pytest.raises(ValueError):
            CohomologyProfile(GR27.n, {0: {lam + mu: 1}})

    @given(st.data())
    def test_engine_results_pass_the_checks(self, data):
        # products, twists, sums, exterior powers and their cohomology are
        # built without a second check; rebuilding them through the
        # checked constructors must accept them and change nothing
        k = data.draw(st.sampled_from((1, 2, 3)))
        ctx = Grassmannian(k, k + data.draw(st.integers(1, 3)))

        def weight(length):
            entries = data.draw(st.lists(st.integers(-3, 3), min_size=length, max_size=length))
            return tuple(sorted(entries, reverse=True))

        a = cls(ctx, weight(ctx.quotient_rank), weight(k))
        b = cls(ctx, weight(ctx.quotient_rank), weight(k))
        power = wedge_class(cls(ctx, (0,) * ctx.quotient_rank, weight(k)), data.draw(st.integers(0, 4)))
        for built in (a.tensor(b), a.shifted(data.draw(st.integers(-3, 3))), a + b + a, power):
            assert built == EquivariantClass(ctx, built.summands())
            profile = built.cohomology()
            assert profile == CohomologyProfile(
                ctx.n, {q: profile.weights(q) for q in profile.degrees()}
            )


class PairMapping(Mapping):
    """A read-only mapping over (key, value) pairs whose keys need not be hashable."""

    def __init__(self, pairs):
        self._pairs = list(pairs)

    def __getitem__(self, key):
        for k, v in self._pairs:
            if k == key:
                return v
        raise KeyError(key)

    def __iter__(self):
        return (k for k, _ in self._pairs)

    def __len__(self):
        return len(self._pairs)


class TestKeyNormalization:
    def test_list_parts_equal_tuple_parts(self):
        lam, mu = [1, 0, 0, 0, 0], [3, -1]
        from_lists = EquivariantClass(GR27, PairMapping([(Bundle(lam, mu), 2)]))
        from_tuples = EquivariantClass(GR27, {Bundle(tuple(lam), tuple(mu)): 2})
        assert from_lists == from_tuples
        assert hash(from_lists) == hash(from_tuples)
        assert [type(part) for b in from_lists.summands() for part in b] == [tuple, tuple]

    def test_list_and_tuple_keys_merge(self):
        lam, mu = [1, 0, 0, 0, 0], [3, -1]
        merged = EquivariantClass(
            GR27, PairMapping([(Bundle(lam, mu), 1), (Bundle(tuple(lam), tuple(mu)), 2)])
        )
        assert merged.summands() == {Bundle(tuple(lam), tuple(mu)): 3}

    def test_tuple_keys_are_still_validated(self):
        with pytest.raises(ValueError):
            EquivariantClass(GR27, {Bundle((0,) * 5, (0, 3)): 1})
        with pytest.raises(ValueError):
            EquivariantClass(GR27, {Bundle((0,) * 6, (3, 0)): 1})


class TestDetShift:
    def test_shift_by_one(self):
        a = cls(GR27, (1, 0, 0, 0, 0), (3, -1))
        b = cls(GR27, (2, 1, 1, 1, 1), (4, 0))
        assert det_shift(a, b) == 1

    def test_reflexive(self):
        a = named_class(GR27, "tangent")
        assert det_shift(a, a) == 0

    def test_distinct_shapes(self):
        assert det_shift(
            named_class(GR27, "sym_cube"), named_class(GR27, "sym_cube_dual")
        ) is None

    def test_empty_classes(self):
        assert det_shift(EquivariantClass.empty(GR27), EquivariantClass.empty(GR27)) == 0
        assert det_shift(EquivariantClass.empty(GR27), named_class(GR27, "S")) is None

    @given(st.data())
    def test_forced_twist(self, data):
        k = data.draw(st.integers(1, 3))
        ctx = Grassmannian(k, k + data.draw(st.integers(1, 4)))

        def bundle():
            def weight(length):
                entries = data.draw(st.lists(st.integers(-3, 3), min_size=length, max_size=length))
                return tuple(sorted(entries, reverse=True))

            return Bundle(weight(ctx.quotient_rank), weight(k))

        summands = {bundle(): data.draw(st.integers(1, 3)) for _ in range(data.draw(st.integers(1, 4)))}
        a = EquivariantClass(ctx, summands)
        t = data.draw(st.integers(-5, 5))
        b = a.shifted(t)
        assert det_shift(a, b) == t
        assert det_shift(b, a) == -t
        # the twist is read off the least bundle, not the first one inserted
        reordered = EquivariantClass(ctx, dict(reversed(b.summands().items())))
        assert det_shift(a, reordered) == t

        # each perturbation below changes the total multiplicity or the
        # least (or greatest) bundle in a way no uniform twist can
        moved = b.summands()
        x = data.draw(st.sampled_from(sorted(moved)))
        moved[x] += data.draw(st.sampled_from([-1, 1]))
        assert det_shift(a, EquivariantClass(ctx, moved)) is None
        assert det_shift(a, b + EquivariantClass(ctx, {bundle(): 1})) is None
        if len(summands) > 1:
            # twisting the greatest bundle up keeps the least one, so a twist
            # taking a onto the result would have to be t, which moves nothing
            top = max(b.summands())
            twisted = b.summands()
            twisted[top.shifted(data.draw(st.integers(1, 3)))] = twisted.pop(top)
            assert det_shift(a, EquivariantClass(ctx, twisted)) is None

        other = EquivariantClass(ctx, {bundle(): 1, bundle(): 2})
        there, back = det_shift(a, other), det_shift(other, a)
        assert (there is None) == (back is None)
        if there is not None:
            assert back == -there


class TestClaimedDecompositions:
    def test_all_lines_at_small_d(self):
        for d in (3, 4, 5, 6):
            comparisons = verify_claimed_decompositions(d)
            assert len(comparisons) == 8
            assert all(c.matches for c in comparisons)

    def test_top_tangent_line_at_d5(self):
        by_id = {c.line_id: c for c in verify_claimed_decompositions(5)}
        line = by_id["wedge4_tangent"]
        assert line.computed == cls(GR27, (1, 0, 0, 0, 0), (6, 5))
        assert line.shift == 0

    def test_shift_values_at_d5(self):
        shifts = {c.line_id: c.shift for c in verify_claimed_decompositions(5)}
        assert shifts == {
            "wedge1_tangent": 1,
            "wedge2_tangent": 0,
            "wedge3_tangent": 0,
            "wedge4_tangent": 0,
            "wedge1_sym3dual": 3,
            "wedge2_sym3dual": 3,
            "wedge3_sym3dual": 0,
            "wedge4_sym3dual": 0,
        }

    def test_full_range(self):
        for d in range(3, 31):
            assert all(c.matches for c in verify_claimed_decompositions(d))

    def test_rejects_small_d(self):
        with pytest.raises(ValueError):
            verify_claimed_decompositions(2)

    @pytest.mark.parametrize("where", ["subbundle", "quotient"])
    def test_claimed_lines_are_validated(self, monkeypatch, where):
        # a non-dominant subbundle weight, or a quotient weight of length d + 1
        lines = koszul._claimed_lines

        def broken(d):
            out = lines(d)
            level, factor, q_weight, s_weights = out[-1]
            if where == "subbundle":
                out[-1] = (level, factor, q_weight, s_weights + [(0, 3)])
            else:
                out[-1] = (level, factor, q_weight + (0,), s_weights)
            return out

        monkeypatch.setattr(koszul, "_claimed_lines", broken)
        with pytest.raises(ValueError):
            verify_claimed_decompositions(6)
