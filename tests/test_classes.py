import random
from collections import Counter
from collections.abc import Mapping
from fractions import Fraction
from math import comb

import pytest
from hypothesis import given, strategies as st

from bbwkoszul import bbw, checks, classes
from bbwkoszul.bbw import Bundle, CohomologyProfile, Grassmannian, bbw_cohomology
from bbwkoszul.classes import (
    EquivariantClass,
    det_shift,
    named_class,
    wedge_class,
)
from bbwkoszul import koszul
from bbwkoszul.checks import UsageError, run_checks
from bbwkoszul.oracles import gl2_tensor, random_bundle, schur_product_decomposition

GR27 = Grassmannian(2, 7)
P6 = Grassmannian.projective_space(7)
NAMES = ("S", "Q", "tangent", "sym_cube", "sym_cube_dual", "trivial")


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
        assert tangent.tensor(named_class(GR27, "trivial")) == tangent

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
        assert wedge_class(named_class(GR27, "sym_cube"), 0) == named_class(GR27, "trivial")

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

    def test_rejects_a_negative_power(self):
        # the class calls the cached core, which does not check the power
        with pytest.raises(ValueError, match="negative exterior power"):
            wedge_class(named_class(GR27, "sym_cube"), -1)

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
        assert EquivariantClass(GR27).cohomology().is_empty

    def test_profile_is_kept(self):
        sym3, tangent = named_class(GR27, "sym_cube"), named_class(GR27, "tangent")
        built = [
            tangent,
            sym3.tensor(tangent),
            wedge_class(sym3, 2).tensor(named_class(GR27, "sym_cube_dual")),
            sym3 + tangent,
            tangent.shifted(-2),
            EquivariantClass(GR27),
        ]
        for c in built:
            assert c.cohomology() is c.cohomology()
            assert c.cohomology() == EquivariantClass(GR27, c.summands()).cohomology()


class TestTrustedSummands:
    """Class cohomology and rank() skip the bundle check; they must agree with
    the public, validating functions summand by summand. ``named_class``
    skips it too; its classes must pass the public check."""

    @given(st.data())
    def test_reducible_classes_match_the_public_functions(self, data):
        k = data.draw(st.integers(1, 3))
        ctx = Grassmannian(k, data.draw(st.integers(k + 1, 40)))
        rng = random.Random(data.draw(st.integers(0, 2**32)))
        a, b = (EquivariantClass(ctx, {random_bundle(ctx, rng, 4): 1}) for _ in range(2))
        zero_q = (0,) * ctx.quotient_rank
        s_only = EquivariantClass(ctx, {Bundle(zero_q, random_bundle(ctx, rng, 2).mu_s): 1})
        factor = named_class(ctx, data.draw(st.sampled_from(("S", "Q", "tangent", "sym_cube"))))
        power = wedge_class(s_only, data.draw(st.integers(0, 3)))
        built = a.tensor(factor) + b + power.tensor(a) + b
        groups: dict[int, Counter] = {}
        for bundle, m in built.summands().items():
            profile = bbw_cohomology(ctx, bundle)
            for q in profile.degrees():
                for w, c in profile.weights(q).items():
                    groups.setdefault(q, Counter())[w] += m * c
        assert built.cohomology() == CohomologyProfile(ctx.n, groups)
        assert built.rank() == sum(
            m * EquivariantClass(ctx, {bundle: 1}).rank() for bundle, m in built.summands().items()
        )

    def test_analysis_validates_no_bundle(self, monkeypatch):
        # every bundle of a Koszul analysis comes from its coefficient, checked
        # when it was built, and the resolution factor, a named class
        ctx = Grassmannian(2, 9)
        named_class(ctx, "sym_cube")  # the resolution factor build_page reads
        coefficient = EquivariantClass(ctx, named_class(ctx, "sym_cube_dual").summands())
        checked = []
        original = bbw.validate_bundle

        def counting(ctx_, bundle):
            checked.append(bundle)
            return original(ctx_, bundle)

        monkeypatch.setattr(bbw, "validate_bundle", counting)
        monkeypatch.setattr(classes, "validate_bundle", counting)
        koszul.koszul_analysis.cache_clear()  # an equal coefficient may be cached
        analysis = koszul.koszul_analysis(ctx, coefficient)
        koszul.koszul_analysis.cache_clear()
        assert analysis.page.columns and checked == []

    @given(st.data())
    def test_named_classes_pass_the_public_check(self, data):
        k = data.draw(st.integers(1, 3))
        ctx = Grassmannian(k, data.draw(st.integers(k + 1, 12)))
        twists = tuple(f"O({m})" for m in range(-5, 6)) if k == 1 else ()
        for name in NAMES + twists:
            named = named_class(ctx, name)
            assert EquivariantClass(ctx, named.summands()) == named

    def test_named_classes_validate_no_bundle(self, monkeypatch):
        checked = []
        original = bbw.validate_bundle

        def counting(ctx_, bundle):
            checked.append(bundle)
            return original(ctx_, bundle)

        monkeypatch.setattr(bbw, "validate_bundle", counting)
        monkeypatch.setattr(classes, "validate_bundle", counting)
        named_class.cache_clear()  # a cached class would make no call either
        ctx = Grassmannian(2, 9)
        built = [named_class(ctx, name) for name in NAMES]
        assert named_class.cache_info().misses == len(NAMES)
        assert all(c.rank() > 0 for c in built) and checked == []


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

    @pytest.mark.parametrize(
        "lam, mu",
        [
            ((0.5, 0, 0, 0, 0), (0, 0)),
            ((1, 1, 1, 1, 1), (Fraction(1, 2), 0)),
            ((1.0, 0, 0, 0, 0), (0, 0)),
        ],
        ids=["float-quotient", "fraction-subbundle", "integral-float"],
    )
    def test_non_integer_entries_rejected(self, lam, mu):
        # each factor is dominant of the right length: only the entry type is wrong
        bundle = Bundle(lam, mu)
        for build in (
            lambda: bbw.validate_bundle(GR27, bundle),
            lambda: bbw_cohomology(GR27, bundle),
            lambda: EquivariantClass(GR27, {bundle: 1}).rank(),
            lambda: EquivariantClass(GR27, {bundle: 1}),
            lambda: CohomologyProfile(GR27.n, {0: {lam + mu: 1}}),
        ):
            with pytest.raises(ValueError):
                build()

    @pytest.mark.parametrize(
        "m", [1.5, 2.0, Fraction(3, 2)], ids=["float", "integral-float", "fraction"]
    )
    def test_non_integer_multiplicities_rejected(self, m):
        with pytest.raises(ValueError):
            EquivariantClass(GR27, {Bundle((1, 0, 0, 0, 0), (0, -1)): m})
        with pytest.raises(ValueError):
            CohomologyProfile(GR27.n, {0: {(0,) * GR27.n: m}})

    @pytest.mark.parametrize(
        "t", [0.5, 1.0, Fraction(1, 2)], ids=["float", "integral-float", "fraction"]
    )
    def test_non_integer_twists_rejected(self, t):
        with pytest.raises(ValueError):
            named_class(GR27, "tangent").shifted(t)

    @pytest.mark.parametrize("j", [1.5, 2.0], ids=["float", "integral-float"])
    def test_non_integer_powers_rejected(self, j):
        with pytest.raises(ValueError, match="not an integer"):
            wedge_class(named_class(GR27, "S"), j)

    @pytest.mark.parametrize(
        "summands",
        [
            # a non-dominant quotient tuple shared by every summand
            [((0, 1, 0, 0, 0), (0, 0)), ((0, 1, 0, 0, 0), (1, 0))],
            # a wrong-length quotient tuple shared by every summand
            [((0,) * 4, (0, 0)), ((0,) * 4, (1, 0))],
            # a bad subbundle part after its quotient tuple has passed
            [((0,) * 5, (0, 0)), ((0,) * 5, (0, 3))],
            [((0,) * 5, (0, 0)), ((0,) * 5, (0, 0, 0))],
            # a valid shared quotient, then another, invalid quotient object
            [((0,) * 5, (0, 0)), ((0,) * 5, (1, 0)), ((0, 0, 1, 0, 0), (2, 0))],
        ],
        ids=["rising-shared", "short-shared", "rising-subbundle", "long-subbundle", "new-quotient"],
    )
    def test_shared_quotient_still_rejected(self, summands):
        # summands whose quotient parts are one object, as in a displayed line
        shared = {}
        parts = {}
        for lam, mu in summands:
            lam = shared.setdefault(lam, tuple(list(lam)))
            parts[Bundle(lam, mu)] = 1
        objects = [b.lam_q for b in parts]
        assert objects[1] is objects[0]
        with pytest.raises(ValueError):
            EquivariantClass(GR27, parts)

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


class TestHash:
    @given(st.data())
    def test_hash_is_the_hash_of_the_summands(self, data):
        k = data.draw(st.integers(1, 3))
        ctx = Grassmannian(k, data.draw(st.integers(k + 1, 8)))
        rng = data.draw(st.randoms(use_true_random=False))
        summands = {
            random_bundle(ctx, rng, 2): data.draw(st.integers(1, 3))
            for _ in range(data.draw(st.integers(1, 3)))
        }
        built = EquivariantClass(ctx, summands)
        other = EquivariantClass(ctx, {random_bundle(ctx, rng, 1): 1})
        t = data.draw(st.integers(-3, 3))
        pairs = [
            (built, EquivariantClass._trusted(ctx, dict(summands))),
            (built + other, other + built),
            (built.tensor(other), other.tensor(built)),
            (built.shifted(t), EquivariantClass(ctx, built.shifted(t).summands())),
        ]
        for first, second in pairs:
            assert first == second
            expected = hash((first.ctx, frozenset(first.summands().items())))
            assert hash(first) == hash(second) == expected


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
        assert det_shift(EquivariantClass(GR27), EquivariantClass(GR27)) == 0
        assert det_shift(EquivariantClass(GR27), named_class(GR27, "S")) is None

    def test_one_subbundle_part_off_under_a_shared_quotient_part(self):
        q, q1 = (1, 0, 0, 0, 0), (2, 1, 1, 1, 1)
        a_parts = [(Bundle(q, (3, -1)), 1), (Bundle(q, (2, 0)), 1)]
        b_parts = [(Bundle(q1, (4, 0)), 1), (Bundle(q1, (3, 2)), 1)]  # (2, 0) twisted is (3, 1)
        # in either insertion order, so that the off part is not always first
        for order in (1, -1):
            a = EquivariantClass(GR27, dict(a_parts[::order]))
            b = EquivariantClass(GR27, dict(b_parts[::order]))
            assert det_shift(a, b) is None
            assert det_shift(a, a.shifted(1)) == 1

    def test_two_quotient_parts_both_twisted(self):
        q, r = (1, 0, 0, 0, 0), (0, 0, 0, 0, -2)
        a = EquivariantClass(GR27, {Bundle(q, (0, -1)): 1, Bundle(r, (3, -1)): 2})
        b = EquivariantClass(
            GR27, {Bundle((3, 2, 2, 2, 2), (2, 1)): 1, Bundle((2, 2, 2, 2, 0), (5, 1)): 2}
        )
        assert det_shift(a, b) == 2
        assert det_shift(b, a) == -2

    def test_one_multiplicity_differs(self):
        q, q1 = (1, 0, 0, 0, 0), (0, -1, -1, -1, -1)
        a = EquivariantClass(GR27, {Bundle(q, (0, -1)): 1, Bundle(q, (3, -1)): 2})
        b = EquivariantClass(GR27, {Bundle(q1, (-1, -2)): 1, Bundle(q1, (2, -2)): 1})
        assert det_shift(a, b) is None
        assert det_shift(b, a) is None

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


def twist_reference(a, b):
    """det_shift by trial: every twist that maps one least-quotient entry onto another."""
    if a.is_empty and b.is_empty:
        return 0
    candidates = {y.lam_q[0] - x.lam_q[0] for x in a.summands() for y in b.summands()}
    found = [t for t in sorted(candidates) if a.shifted(t) == b]
    return found[0] if found else None


class TestDetShiftAlternatingQuotients:
    @given(st.data())
    def test_agrees_with_trial_twists(self, data):
        # summands alternate between two quotient objects, equal or not, so
        # the reuse of the previous twisted quotient part meets both cases
        k = data.draw(st.integers(1, 3))
        ctx = Grassmannian(k, k + data.draw(st.integers(1, 4)))

        def weight(length):
            entries = data.draw(st.lists(st.integers(-3, 3), min_size=length, max_size=length))
            return tuple(sorted(entries, reverse=True))

        def alternating(quotients):
            summands = {}
            for i in range(data.draw(st.integers(1, 6))):
                bundle = Bundle(quotients[i % 2], weight(k))
                summands[bundle] = summands.get(bundle, 0) + data.draw(st.integers(1, 2))
            return EquivariantClass(ctx, summands)

        q1 = weight(ctx.quotient_rank)
        q2 = tuple(list(q1)) if data.draw(st.booleans()) else weight(ctx.quotient_rank)
        a = alternating((q1, q2))
        t = data.draw(st.integers(-4, 4))
        shifted = a.shifted(t)
        moved = shifted.summands()
        x = data.draw(st.sampled_from(sorted(moved)))
        moved[Bundle(x.lam_q, weight(k))] = moved.pop(x)
        others = [
            shifted,
            EquivariantClass(ctx, moved),
            alternating((weight(ctx.quotient_rank), weight(ctx.quotient_rank))),
            EquivariantClass(ctx),
        ]
        assert det_shift(a, shifted) == t
        for b in others:
            assert det_shift(a, b) == twist_reference(a, b)
            assert det_shift(b, a) == twist_reference(b, a)


def decomposition_lines(d_min, d_max):
    """{d: the computed lines of the decompositions row at d}, each row passing."""
    report = run_checks(d_min, d_max, ["decompositions"])
    assert all(r.status == "pass" for r in report.results)
    return {r.d: r.computed["lines"] for r in report.results}


class TestClaimedDecompositions:
    # the displayed lines are data in expected.json; the decompositions
    # row compares each with its Koszul term up to a determinant twist

    def test_all_lines_at_small_d(self):
        for lines in decomposition_lines(3, 6).values():
            assert len(lines) == 8
            assert all(line["matches"] for line in lines)

    def test_top_tangent_line_at_d5(self):
        computed, _ = checks._factor_pages(GR27)["tangent", 4]
        assert computed == cls(GR27, (1, 0, 0, 0, 0), (6, 5))
        shifts = {line["line"]: line["det_shift"] for line in decomposition_lines(5, 5)[5]}
        assert shifts["wedge4_tangent"] == 0

    def test_shift_values_at_d5(self):
        shifts = {line["line"]: line["det_shift"] for line in decomposition_lines(5, 5)[5]}
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
        by_d = decomposition_lines(3, 30)
        assert sorted(by_d) == list(range(3, 31))
        for lines in by_d.values():
            assert len(lines) == 8 and all(line["matches"] for line in lines)

    def test_rejects_small_d(self):
        with pytest.raises(UsageError):
            run_checks(2, 2, ["decompositions"])

    def test_warm_pass_validates_no_bundle(self, monkeypatch):
        # the lines are validated once, when expected.json is loaded
        run_checks(5, 54, ["decompositions"])
        checked = []
        original = bbw.validate_bundle

        def counting(ctx_, bundle):
            checked.append(bundle)
            return original(ctx_, bundle)

        monkeypatch.setattr(bbw, "validate_bundle", counting)
        monkeypatch.setattr(classes, "validate_bundle", counting)
        monkeypatch.setattr(checks, "validate_bundle", counting)
        run_checks(5, 54, ["decompositions"])
        assert checked == []
