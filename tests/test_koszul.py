import random
from collections import Counter
from math import comb

import pytest
from hypothesis import given, strategies as st

from bbwkoszul import koszul
from bbwkoszul.bbw import Bundle, Grassmannian
from bbwkoszul.checks import AXIOMS, run_checks
from bbwkoszul.classes import EquivariantClass, named_class
from bbwkoszul.koszul import (
    IDEAL_SHEAF,
    RESTRICTION,
    DegreeVerdict,
    DimValue,
    analyze,
    build_page,
    deformation_numbers,
    euler_consistency,
    koszul_analysis,
    restricted_cohomology,
)
from bbwkoszul.oracles import random_bundle


def plane(d):
    return Grassmannian(2, d + 2)


def line(d):
    return Grassmannian.projective_space(d + 2)


class TestBuildPage:
    def test_tangent_page_vanishes_for_large_d(self):
        ctx = plane(9)
        page = build_page(ctx, IDEAL_SHEAF, named_class(ctx, "tangent"))
        assert page.nonzero_entries() == []

    def test_normal_page_at_d5(self):
        ctx = plane(5)
        page = build_page(ctx, IDEAL_SHEAF, named_class(ctx, "sym_cube_dual"))
        assert page.nonzero_entries() == [(-2, 5, 7), (0, 0, 1)]

    def test_twist_restriction_page_on_p6(self):
        ctx = line(5)
        page = build_page(ctx, RESTRICTION, named_class(ctx, "O(3)"))
        assert page.nonzero_entries() == [(-1, 0, 1), (0, 0, 84)]

    def test_column_ranges(self):
        ctx = plane(5)
        ideal = build_page(ctx, IDEAL_SHEAF, named_class(ctx, "tangent"))
        restriction = build_page(ctx, RESTRICTION, named_class(ctx, "tangent"))
        assert sorted(ideal.columns) == [-3, -2, -1, 0]
        assert sorted(restriction.columns) == [-4, -3, -2, -1, 0]
        assert ideal.wedge_level(0) == 1
        assert restriction.wedge_level(0) == 0

    def test_variants_agree_up_to_shift(self):
        # ideal entry at column p equals restriction entry at column p-1
        for d in range(3, 13):
            for ctx, name in (
                (plane(d), "tangent"),
                (plane(d), "sym_cube_dual"),
                (line(d), "tangent"),
                (line(d), "O(3)"),
            ):
                coefficient = named_class(ctx, name)
                ideal = build_page(ctx, IDEAL_SHEAF, coefficient)
                restriction = build_page(ctx, RESTRICTION, coefficient)
                for p in ideal.columns:
                    assert ideal.columns[p] == restriction.columns[p - 1]

    def test_bad_variant(self):
        ctx = plane(5)
        with pytest.raises(ValueError):
            build_page(ctx, "e2", named_class(ctx, "tangent"))

    def test_subbundle_rank_three(self):
        # the Koszul terms on Gr(3, 7): the exterior powers 1..10 of the
        # rank-10 cubic power of S, tensored with the rank-12 tangent class
        ctx = Grassmannian(3, 7)
        page = build_page(ctx, IDEAL_SHEAF, named_class(ctx, "tangent"))
        assert sorted(page.terms) == list(range(-9, 1))
        for p, term in page.terms.items():
            assert term.rank() == 12 * comb(10, page.wedge_level(p))


class TestAnalyze:
    def test_normal_side_determined_at_d6(self):
        ctx = plane(6)
        verdicts = analyze(build_page(ctx, IDEAL_SHEAF, named_class(ctx, "sym_cube_dual")))
        # a degree without a verdict has no entry, so its abutment is 0
        assert list(verdicts) == [0]
        assert verdicts[0].determined and verdicts[0].dimension == 1

    def test_normal_side_determined_at_d5(self):
        ctx = plane(5)
        verdicts = analyze(build_page(ctx, IDEAL_SHEAF, named_class(ctx, "sym_cube_dual")))
        assert list(verdicts) == [0, 3]
        assert verdicts[0].determined and verdicts[0].dimension == 1
        assert verdicts[3].determined and verdicts[3].dimension == 7

    def test_tangent_side_determined_at_d5(self):
        ctx = plane(5)
        verdicts = analyze(build_page(ctx, IDEAL_SHEAF, named_class(ctx, "tangent")))
        assert not verdicts.keys() & {0, 1, 2}

    def test_empty_degrees_have_zero_upper_bound(self):
        ctx = plane(7)
        page = build_page(ctx, IDEAL_SHEAF, named_class(ctx, "tangent"))
        # every degree of this page is empty, so none gets a verdict
        assert page.nonzero_entries() == []
        assert analyze(page) == {}

    @given(st.data())
    def test_random_coefficients_match_a_dense_scan(self, data):
        n = data.draw(st.integers(5, 8))

        def weight(size):
            entries = st.lists(st.integers(-4, 4), min_size=size, max_size=size)
            return entries.map(lambda w: tuple(sorted(w, reverse=True)))

        ctx = Grassmannian(2, n)
        coefficient = EquivariantClass.irreducible(
            ctx, data.draw(weight(n - 2)), data.draw(weight(2))
        )
        page = build_page(ctx, IDEAL_SHEAF, coefficient)
        verdicts = analyze(page)
        assert verdicts == dense_verdicts(page)
        assert sum(v.upper_bound for v in verdicts.values()) == sum(
            dim for _, _, dim in page.nonzero_entries()
        )

    def test_blocked_page_matches_a_dense_scan(self):
        # both columns hold H^0 of O, so the r = 1 differential may hit it
        ctx = line(2)
        coefficient = named_class(ctx, "trivial") + named_class(ctx, "O(3)")
        page = build_page(ctx, RESTRICTION, coefficient)
        verdicts = analyze(page)
        assert not verdicts[0].determined
        assert verdicts == dense_verdicts(page)


def dense_verdicts(page):
    """Reference for analyze: visit every (total degree m, column p) slot.

    A degree whose slots are all empty has upper bound 0 and no verdict.
    """

    def entry_dimension(p, q):
        return page.columns[p].dimension(q) if p in page.columns else 0

    def entry_constituents(p, q):
        return frozenset(page.columns[p].weights(q)) if p in page.columns else frozenset()

    def entry_blocking(p, q):
        # every slot a later differential could join to (p, q), compared
        # by the frozen constituent sets of the two entries
        mine = entry_constituents(p, q)
        return tuple(
            ((p, q), (pp, qq), r)
            for r in range(1, -page.p_min + 1)
            for pp, qq in ((p - r, q + r - 1), (p + r, q - r + 1))
            if mine & entry_constituents(pp, qq)
        )

    out = {}
    top = page.ctx.dimension
    for m in range(page.p_min, top + 1):
        contributing = [
            (p, m - p)
            for p in sorted(page.columns)
            if 0 <= m - p <= top and entry_dimension(p, m - p)
        ]
        upper = sum(entry_dimension(p, q) for p, q in contributing)
        if not upper:
            continue
        blocking = tuple(pair for p, q in contributing for pair in entry_blocking(p, q))
        out[m] = DegreeVerdict(m, not blocking, None if blocking else upper, upper, blocking)
    return out


class TestRestricted:
    def test_tangent_restriction_at_d5(self):
        ctx = plane(5)
        restricted = restricted_cohomology(ctx, named_class(ctx, "tangent"))
        assert restricted[0].exact == 48
        assert restricted[1].exact == 0

    def test_normal_restriction_at_d5(self):
        ctx = plane(5)
        restricted = restricted_cohomology(ctx, named_class(ctx, "sym_cube_dual"))
        assert restricted[0].exact == 84 - 1

    def test_cubic_side_tangent_restriction(self):
        ctx = line(3)
        restricted = restricted_cohomology(ctx, named_class(ctx, "tangent"))
        assert restricted[0].exact == 24
        assert restricted[1].exact == 0

    def test_low_d_tangent_restriction_is_determined(self):
        # at d=3 the two surviving entries are isolated, so the nonzero
        # first cohomology of the restricted tangent bundle is exact
        ctx = plane(3)
        restricted = restricted_cohomology(ctx, named_class(ctx, "tangent"))
        assert restricted[0].exact == 24
        assert restricted[1].exact == 60

    def test_ideal_cohomology_values(self):
        ctx = line(4)
        ideal = koszul_analysis(ctx, named_class(ctx, "O(3)")).ideal
        assert ideal[0].exact == 1
        assert all(ideal[m].exact == 0 for m in range(1, 6))


class TestDeformationNumbers:
    def test_fano_side_at_d5(self):
        numbers = deformation_numbers(5, "fano")
        assert numbers.h0_normal == 83
        assert numbers.h0_ambient_tangent_restricted == 48
        assert numbers.h1_tangent == 35
        assert numbers.axioms_used == ("H0_tangent_fano_zero",)

    def test_cubic_side_at_d3(self):
        numbers = deformation_numbers(3, "cubic")
        assert numbers.h0_normal == 34
        assert numbers.h0_ambient_tangent_restricted == 24
        assert numbers.h1_tangent == 10
        assert numbers.axioms_used == ("H0_tangent_cubic_zero",)

    def test_cubic_side_at_d4(self):
        assert deformation_numbers(4, "cubic").h1_tangent == 20

    def test_preconditions(self):
        with pytest.raises(ValueError):
            deformation_numbers(4, "fano")
        with pytest.raises(ValueError):
            deformation_numbers(2, "cubic")
        for d in (5, 7):
            with pytest.raises(ValueError):
                deformation_numbers(d, "quartic")

    def test_sides_agree(self):
        for d in (5, 6, 7):
            assert (
                deformation_numbers(d, "cubic").h1_tangent
                == deformation_numbers(d, "fano").h1_tangent
                == comb(d + 2, 3)
            )

    def test_large_d_guard(self):
        # dense Weyl products and degree loops made d = 1000 take minutes
        for side in ("cubic", "fano"):
            assert deformation_numbers(1000, side).h1_tangent == comb(1002, 3)
        ctx = plane(1000)
        analysis = koszul_analysis(ctx, named_class(ctx, "tangent"))
        assert len(analysis.ideal) == len(analysis.restricted) == ctx.dimension + 1
        # the tangent page is empty for d >= 6, so no degree gets a verdict
        assert dict(analysis.verdicts) == {}


class TestEulerConsistency:
    def test_standard_pages(self):
        ctx6 = plane(6)
        assert euler_consistency(ctx6, named_class(ctx6, "sym_cube_dual"))
        ctx5 = plane(5)
        assert euler_consistency(ctx5, named_class(ctx5, "tangent"))

    def test_cubic_side(self):
        ctx = line(3)
        assert euler_consistency(ctx, named_class(ctx, "O(3)"))
        assert euler_consistency(ctx, named_class(ctx, "tangent"))

    def test_empty_class(self):
        ctx = plane(5)
        assert euler_consistency(ctx, EquivariantClass(ctx))

    def test_low_d(self):
        ctx = plane(3)
        assert euler_consistency(ctx, named_class(ctx, "tangent"))
        assert euler_consistency(ctx, named_class(ctx, "sym_cube_dual"))

    def test_restriction_page_is_the_ideal_page_shifted_past_the_coefficient(self):
        # column 0 of the restriction page is F itself and column p - 1 is
        # column p of the ideal-sheaf page, so chi(restriction page) =
        # chi(F) - chi(ideal page) holds by construction: that half of
        # euler_consistency checks no cohomology
        coefficients = [
            (ctx, named_class(ctx, name))
            for d in range(3, 9)
            for ctx in (plane(d), line(d))
            for name in ("tangent", "sym_cube_dual", "trivial")
        ]
        rng = random.Random(3)
        for n in range(5, 9):
            ctx = Grassmannian(2, n)
            for _ in range(10):
                coefficients.append((ctx, EquivariantClass(ctx, {random_bundle(ctx, rng, 4): 1})))
        assert len(coefficients) == 76
        for ctx, coefficient in coefficients:
            ideal = build_page(ctx, IDEAL_SHEAF, coefficient)
            restriction = build_page(ctx, RESTRICTION, coefficient)
            shifted = {p - 1: column for p, column in ideal.columns.items()}
            assert dict(restriction.columns) == {0: coefficient.cohomology(), **shifted}
            assert restriction.euler_characteristic() == (
                coefficient.euler_characteristic() - ideal.euler_characteristic()
            )

    def test_page_euler_characteristic_is_an_int(self):
        # a float sign would round once the dimensions pass 2**53
        for d in (5, 12):
            ctx = plane(d)
            for variant in (IDEAL_SHEAF, RESTRICTION):
                page = build_page(ctx, variant, named_class(ctx, "sym_cube_dual"))
                assert type(page.euler_characteristic()) is int


class TestMemo:
    def test_each_key_built_once_per_report(self, monkeypatch):
        # d = 5, 6 with the three deformation checks touch 4 keys per d
        built = []
        original = koszul.build_page

        def counting(ctx, variant, coefficient):
            built.append((ctx, variant, coefficient))
            return original(ctx, variant, coefficient)

        koszul_analysis.cache_clear()
        monkeypatch.setattr(koszul, "build_page", counting)
        run_checks(5, 6, ["prop-cubic", "prop-fano", "theorem-moduli"])
        assert len(built) == 8

    def test_views_return_copies(self):
        ctx = plane(5)
        coefficient = named_class(ctx, "tangent")
        restricted_cohomology(ctx, coefficient).clear()
        assert restricted_cohomology(ctx, coefficient)[0].exact == 48

    def test_cached_page_columns_are_read_only(self):
        ctx = plane(5)
        page = koszul_analysis(ctx, named_class(ctx, "sym_cube_dual")).page
        for mapping in (page.terms, page.columns):
            with pytest.raises(TypeError):
                mapping[0] = None
            with pytest.raises(TypeError):
                del mapping[0]
        again = koszul_analysis(ctx, named_class(ctx, "sym_cube_dual")).page
        assert again.nonzero_entries() == [(-2, 5, 7), (0, 0, 1)]

    def test_vanishing_table_reads_the_memoised_pages(self, monkeypatch):
        # lemma-cohomology and decompositions share prop-fano's pages and build
        # no tensor of their own; the runs visit the same keys in a different order
        pages, tensors = [], []
        original_page, original_tensor = koszul.build_page, EquivariantClass.tensor

        def counting_page(*args):
            pages.append(args)
            return original_page(*args)

        def counting_tensor(self, other):
            tensors.append((self, other))
            return original_tensor(self, other)

        monkeypatch.setattr(koszul, "build_page", counting_page)
        monkeypatch.setattr(EquivariantClass, "tensor", counting_tensor)
        counts = []
        for check_ids in (
            ["prop-fano"],
            ["prop-fano", "lemma-cohomology"],
            ["prop-fano", "lemma-cohomology", "decompositions"],
        ):
            koszul_analysis.cache_clear()
            pages.clear()
            tensors.clear()
            run_checks(6, 7, check_ids)
            counts.append((Counter(pages), Counter(tensors)))
        assert counts[1] == counts[0]
        assert counts[2] == counts[0]

    def test_equal_classes_hash_equal(self):
        ctx = plane(5)
        a, b = Bundle((1, 0, 0, 0, 0), (0, -1)), Bundle((0,) * 5, (0, -3))
        first = EquivariantClass(ctx, {a: 1, b: 2})
        second = EquivariantClass(ctx, {b: 2, a: 1})
        assert first == second
        assert hash(first) == hash(second)


class TestVanishingTable:
    def test_only_survivor_is_the_pairing_section(self):
        for d in range(6, 13):
            ctx = plane(d)
            tangent_page = build_page(ctx, IDEAL_SHEAF, named_class(ctx, "tangent"))
            assert tangent_page.nonzero_entries() == []
            normal_page = build_page(ctx, IDEAL_SHEAF, named_class(ctx, "sym_cube_dual"))
            assert normal_page.nonzero_entries() == [(0, 0, 1)]


def test_dim_value():
    assert DimValue.of(5).exact == 5
    assert DimValue(0, 3).exact is None
    with pytest.raises(ValueError):
        DimValue(4, 2)


def test_axiom_registry():
    assert set(AXIOMS) == {
        "H0_tangent_fano_zero",
        "KAN_vanishing",
        "H0_tangent_cubic_zero",
        "Hq_tangent_cubic_zero",
    }
    for axiom in AXIOMS.values():
        assert axiom.statement and axiom.source
        assert "assumed" in axiom.source


def test_the_isolation_rule_has_one_home(monkeypatch):
    # Made conservative (any two nonzero groups may join), the one predicate
    # turns every value the rule pinned into a range: on the page and in
    # the comparison maps alike, so neither use has a copy of its own.
    normal = {d: (plane(d), named_class(plane(d), "sym_cube_dual")) for d in (3, 4)}
    ctx = Grassmannian(2, 4)
    mixed = EquivariantClass.irreducible(ctx, (2, -1), (1, -1))
    koszul_analysis.cache_clear()
    before = koszul_analysis(ctx, mixed)
    assert before.restricted[:2] == (DimValue.of(360), DimValue.of(36))
    assert koszul_analysis(*normal[3]).restricted[0] == DimValue.of(109)
    monkeypatch.setattr(koszul, "_may_join", lambda a, b: bool(a) and bool(b))
    koszul_analysis.cache_clear()
    try:
        assert koszul_analysis(*normal[3]).restricted[0] == DimValue(34, 109)
        assert koszul_analysis(*normal[4]).restricted[1:3] == (DimValue(0, 36), DimValue(0, 56))
        # the three entries of this page, all in total degree 1, meet no
        # other slot, so only the comparison map H^1(I(x)F) -> H^1(F) can
        # feel the change
        after = koszul_analysis(ctx, mixed)
        assert after.verdicts == before.verdicts
        assert after.restricted[:2] == (DimValue(324, 360), DimValue(0, 36))
    finally:
        koszul_analysis.cache_clear()


@pytest.mark.xfail(
    strict=True,
    reason="ROADMAP item 1: the isolation rule lets entries with disjoint isotypic "
    "supports survive, but the differentials contract with a cubic that is not "
    "GL(V)-invariant",
)
def test_isolation_rule_witness():
    # H^m of (ideal sheaf of Z) tensor F vanishes for m < 0, and both page
    # variants must give the same Euler characteristic
    ctx = Grassmannian(2, 5)
    coefficient = EquivariantClass.irreducible(ctx, (4, 0, 0), (-3, -4))
    verdicts = koszul_analysis(ctx, coefficient).verdicts
    assert not [m for m, v in verdicts.items() if m < 0 and v.determined and v.dimension]
    assert euler_consistency(ctx, coefficient)
