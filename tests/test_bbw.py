import random

import pytest
from hypothesis import given, strategies as st

from bbwkoszul.bbw import (
    Bundle,
    CohomologyProfile,
    Grassmannian,
    bbw_cohomology,
    canonical_bundle,
    validate_bundle,
)
from bbwkoszul import classes
from bbwkoszul.classes import serre_check
from bbwkoszul.oracles import random_bundle
from bbwkoszul.weights import dominant_sort

GR27 = Grassmannian(2, 7)


def test_context_validation():
    with pytest.raises(ValueError):
        Grassmannian(0, 5)
    with pytest.raises(ValueError):
        Grassmannian(5, 5)
    assert Grassmannian.projective_space(5) == Grassmannian(1, 5)
    assert GR27.quotient_rank == 5
    assert GR27.dimension == 10


class TestSingleBundles:
    def test_cubic_dual_power(self):
        prof = bbw_cohomology(GR27, Bundle((0,) * 5, (0, -3)))
        assert prof.degrees() == [0]
        assert prof.dimension(0) == 84
        assert prof.weights(0) == {(0, 0, 0, 0, 0, 0, -3): 1}

    def test_tangent_bundle(self):
        prof = bbw_cohomology(GR27, Bundle((1, 0, 0, 0, 0), (0, -1)))
        assert prof.degrees() == [0]
        assert prof.dimension(0) == 48
        assert prof.weights(0) == {(1, 0, 0, 0, 0, 0, -1): 1}

    def test_subbundle_is_acyclic(self):
        assert bbw_cohomology(GR27, Bundle((0,) * 5, (1, 0))).is_empty

    def test_high_symmetric_power(self):
        prof = bbw_cohomology(GR27, Bundle((0,) * 5, (6, 0)))
        assert prof.degrees() == [5]
        assert prof.weights(5) == {(1, 1, 1, 1, 1, 1, 0): 1}
        assert prof.dimension(5) == 7

    def test_twisted_tangent_on_projective_space(self):
        ctx = Grassmannian.projective_space(5)
        assert bbw_cohomology(ctx, Bundle((1, 0, 0, 0), (2,))).is_empty

    def test_validation(self):
        with pytest.raises(ValueError):
            bbw_cohomology(GR27, Bundle((1, 0), (0, 0)))
        with pytest.raises(ValueError):
            bbw_cohomology(GR27, Bundle((0, 1, 0, 0, 0), (0, 0)))
        with pytest.raises(ValueError):
            bbw_cohomology(GR27, Bundle((0,) * 5, (0, 0, 0)))
        with pytest.raises(ValueError):
            bbw_cohomology(GR27, Bundle((0,) * 5, (-1, 2)))


def sorted_route(ctx, bundle):
    """BBW by sorting all n entries of the staircase-shifted concatenation."""
    staircase = tuple(range(ctx.n, 0, -1))
    outcome = dominant_sort(map(sum, zip(bundle.lam_q + bundle.mu_s, staircase)))
    if outcome is None:
        return CohomologyProfile(ctx.n)
    degree, arranged = outcome
    return CohomologyProfile(
        ctx.n, {degree: {tuple(x - r for x, r in zip(arranged, staircase)): 1}}
    )


@st.composite
def bundles_on_grassmannians(draw):
    # entries in a narrow band, so that collisions and ties are common
    k = draw(st.integers(1, 4))
    ctx = Grassmannian(k, k + draw(st.integers(1, 6)))
    entries = st.integers(-4, 4)

    def dominant(length):
        drawn = draw(st.lists(entries, min_size=length, max_size=length))
        return tuple(sorted(drawn, reverse=True))

    return ctx, Bundle(dominant(ctx.quotient_rank), dominant(k))


class TestPlacement:
    @given(bundles_on_grassmannians())
    def test_matches_the_full_sort(self, case):
        ctx, bundle = case
        assert bbw_cohomology(ctx, bundle) == sorted_route(ctx, bundle)

    def test_large_grassmannian(self):
        # Gr(2, 252): the shifted quotient part is 262..138 and 127..3, so
        # subbundle entries land above it, in its gap, below it or on it
        ctx = Grassmannian(2, 252)
        lam = (10,) * 125 + (0,) * 125
        expected = {
            (400, 300): [500],
            (300, 130): [375],
            (133, 130): [250],
            (133, -50): [125],
            (-10, -20): [0],
            (100, 0): [],
            (300, 160): [],
        }
        for mu, degrees in expected.items():
            bundle = Bundle(lam, mu)
            profile = bbw_cohomology(ctx, bundle)
            assert profile.degrees() == degrees, mu
            assert profile == sorted_route(ctx, bundle), mu

    def test_large_projective_space(self):
        # Gr(1, 203): the shifted quotient part is 213..113 and 102..2
        ctx = Grassmannian(1, 203)
        lam = (10,) * 101 + (0,) * 101
        expected = {
            (250,): [202],  # above it: the whole part is raised by 1
            (111,): [101],  # top of the gap
            (102,): [101],  # bottom of the gap
            (0,): [0],  # below it: the weight is lam_q then mu_s
            (149,): [],  # on 150, inside the upper run
            (112,): [],  # on 113, the upper run's last entry
            (101,): [],  # on 102, the lower run's first entry
            (1,): [],  # on 2, the last entry
        }
        for mu, degrees in expected.items():
            bundle = Bundle(lam, mu)
            profile = bbw_cohomology(ctx, bundle)
            assert profile.degrees() == degrees, mu
            assert profile == sorted_route(ctx, bundle), mu
        assert bbw_cohomology(ctx, Bundle(lam, (111,))).weights(101) == {
            (10,) * 101 + (10,) + (1,) * 101: 1
        }

    def test_large_grassmannian_rank_three(self):
        # Gr(3, 203): the shifted quotient part is 213..114 and 103..4, and
        # the shifted subbundle entries are mu + (3, 2, 1)
        ctx = Grassmannian(3, 203)
        lam = (10,) * 100 + (0,) * 100
        expected = {
            (297, 108, 1): [300],  # above it, in the gap, below it
            (400, 300, 250): [600],  # all above
            (110, 107, 104): [300],  # all in the gap
            (297, 250, -5): [400],  # two above, one below
            (108, 0, -1): [100],  # one in the gap, two below
            (0, 0, -3): [0],  # all below
            (297, 108, 3): [],  # the last one on 4, the last entry
            (297, 112, 1): [],  # the middle one on 114, the upper run's last
            (297, 101, 1): [],  # the middle one on 103, the lower run's first
            (147, 108, 1): [],  # the first one on 150
        }
        for mu, degrees in expected.items():
            bundle = Bundle(lam, mu)
            profile = bbw_cohomology(ctx, bundle)
            assert profile.degrees() == degrees, mu
            assert profile == sorted_route(ctx, bundle), mu
        assert bbw_cohomology(ctx, Bundle(lam, (297, 108, 1))).weights(300) == {
            (97,) + (11,) * 100 + (8,) + (2,) * 100 + (1,): 1
        }
        # two entries in one cut: segment 1 is empty, segment 2 is not
        assert bbw_cohomology(ctx, Bundle(lam, (110, 107, -5))).weights(200) == {
            (10,) * 100 + (10, 7) + (2,) * 100 + (-5,): 1
        }

    def test_every_segment_raised(self):
        # four runs 233..184, 173..124, 113..64 and 53..4 with one subbundle
        # entry in each of the three gaps, so segment i = 0..3 of lam_q is
        # nonempty and raised by i
        ctx = Grassmannian(3, 203)
        lam = (30,) * 50 + (20,) * 50 + (10,) * 50 + (0,) * 50
        bundle = Bundle(lam, (177, 118, 59))
        profile = bbw_cohomology(ctx, bundle)
        assert profile.weights(300) == {
            (30,) * 50 + (27,) + (21,) * 50 + (18,) + (12,) * 50 + (9,) + (3,) * 50: 1
        }
        assert profile == sorted_route(ctx, bundle)


class TestStructuralSweeps:
    def test_structure_sheaf(self):
        for ctx in (GR27, Grassmannian(1, 4), Grassmannian(2, 9)):
            prof = bbw_cohomology(
                ctx, Bundle((0,) * ctx.quotient_rank, (0,) * ctx.k)
            )
            assert prof.degrees() == [0]
            assert prof.dimension(0) == 1

    def test_subbundle_acyclic_everywhere(self):
        for n in range(3, 13):
            for k in (1, 2):
                if k >= n:
                    continue
                ctx = Grassmannian(k, n)
                mu = (1,) + (0,) * (k - 1)
                assert bbw_cohomology(ctx, Bundle((0,) * (n - k), mu)).is_empty

    def test_dual_subbundle_sections(self):
        for n in range(3, 13):
            for k in (1, 2):
                if k >= n:
                    continue
                ctx = Grassmannian(k, n)
                mu = (0,) * (k - 1) + (-1,)
                prof = bbw_cohomology(ctx, Bundle((0,) * (n - k), mu))
                assert prof.degrees() == [0]
                assert prof.dimension(0) == n

    def test_at_most_one_degree(self):
        rng = random.Random(7)
        for _ in range(300):
            ctx = rng.choice([GR27, Grassmannian(2, 8), Grassmannian(1, 6)])
            prof = bbw_cohomology(ctx, random_bundle(ctx, rng))
            assert len(prof.degrees()) <= 1

    def test_determinant_twist_covariance(self):
        rng = random.Random(11)
        for _ in range(100):
            ctx = rng.choice([GR27, Grassmannian(1, 6)])
            b = random_bundle(ctx, rng)
            base = bbw_cohomology(ctx, b)
            for t in (-2, 1, 3):
                twisted = bbw_cohomology(ctx, b.shifted(t))
                assert twisted.degrees() == base.degrees()
                for q in base.degrees():
                    assert twisted.dimension(q) == base.dimension(q)
                    shifted_weights = {
                        tuple(x + t for x in w): m for w, m in base.weights(q).items()
                    }
                    assert twisted.weights(q) == shifted_weights


class TestDuals:
    def test_cubic_power(self):
        assert Bundle((0,) * 5, (3, 0)).dual() == Bundle((0,) * 5, (0, -3))

    def test_tangent_to_cotangent(self):
        assert Bundle((1, 0, 0, 0, 0), (0, -1)).dual() == Bundle(
            (0, 0, 0, 0, -1), (1, 0)
        )

    def test_trivial(self):
        assert Bundle((0,) * 5, (0, 0)).dual() == Bundle((0,) * 5, (0, 0))

    def test_involution(self):
        rng = random.Random(3)
        for _ in range(50):
            b = random_bundle(GR27, rng)
            assert b.dual().dual() == b


class TestCanonical:
    def test_plane_grassmannian(self):
        assert canonical_bundle(GR27) == Bundle((-2,) * 5, (5, 5))

    def test_projective_space(self):
        for n in (2, 5, 9):
            ctx = Grassmannian.projective_space(n)
            assert canonical_bundle(ctx) == Bundle((-1,) * (n - 1), (n - 1,))


class TestSerre:
    def test_cubic_dual_power(self):
        assert serre_check(GR27, Bundle((0,) * 5, (0, -3)))

    def test_trivial_bundle(self):
        assert serre_check(GR27, Bundle((0,) * 5, (0, 0)))

    def test_projective_twist(self):
        ctx = Grassmannian.projective_space(5)
        # h0(O(3)) = 35 on one side, h4 of O(-8) on the other
        assert bbw_cohomology(ctx, Bundle((0,) * 4, (-3,))).dimension(0) == 35
        assert serre_check(ctx, Bundle((0,) * 4, (-3,)))

    def test_degree_outside_range_fails(self, monkeypatch):
        # lift every group above dim Z: both sides still agree on degrees
        # 0..dim (all zero there), but the mirrored ones land below 0. The
        # bundle's side is the public bbw_cohomology and the partner's side
        # is its class cohomology, which calls the placement, so lift both
        # (a profile on one side, a (degree, weight) placement on the other)
        top = GR27.dimension
        lifted_calls = []
        cohomology, place = classes.bbw_cohomology, classes._place

        def lifted_cohomology(ctx, bundle):
            lifted_calls.append("bbw_cohomology")
            profile = cohomology(ctx, bundle)
            return CohomologyProfile(
                ctx.n, {q + top + 1: profile.weights(q) for q in profile.degrees()}
            )

        def lifted_place(ctx, bundle):
            lifted_calls.append("_place")
            placed = place(ctx, bundle)
            return None if placed is None else (placed[0] + top + 1, placed[1])

        monkeypatch.setattr(classes, "bbw_cohomology", lifted_cohomology)
        monkeypatch.setattr(classes, "_place", lifted_place)
        assert not serre_check(GR27, Bundle((0,) * 5, (0, -3)))
        assert sorted(lifted_calls) == ["_place", "bbw_cohomology"]

    def test_randomized(self):
        rng = random.Random(5)
        for ctx in (GR27, Grassmannian(2, 8), Grassmannian(1, 6)):
            for _ in range(40):
                assert serre_check(ctx, random_bundle(ctx, rng))


@st.composite
def bundle_parts(draw):
    """Gr(k, n) with k <= 3 and n <= 300, and two factors that may be too long
    or too short, weakly decreasing or with one adjacent pair swapped."""
    k = draw(st.integers(1, 3))
    ctx = Grassmannian(k, draw(st.integers(k + 1, 300)))

    def part(length):
        size = max(0, length + draw(st.sampled_from((0, 0, 0, -1, 1))))
        w = sorted(draw(st.lists(st.integers(-50, 50), min_size=size, max_size=size)), reverse=True)
        if size >= 2 and draw(st.booleans()):
            i = draw(st.sampled_from((0, (size - 1) // 2, size - 2)))
            w[i], w[i + 1] = w[i + 1], w[i]
        return w

    return ctx, part(ctx.quotient_rank), part(k)


class TestValidateBundle:
    @given(bundle_parts())
    def test_raises_exactly_on_a_bad_factor(self, case):
        ctx, lam, mu = case
        fits = len(lam) == ctx.quotient_rank and len(mu) == ctx.k
        dominant = all(a >= b for a, b in zip(lam, lam[1:])) and all(
            a >= b for a, b in zip(mu, mu[1:])
        )
        for bundle in (Bundle(tuple(lam), tuple(mu)), Bundle(lam, mu)):
            if fits and dominant:
                validate_bundle(ctx, bundle)
            else:
                with pytest.raises(ValueError):
                    validate_bundle(ctx, bundle)


class TestProfiles:
    def test_merge_and_scale(self):
        # two degrees, with multiplicities, in one profile
        prof = CohomologyProfile(7, {0: {(0,) * 7: 2}, 1: {(1,) + (0,) * 6: 3}})
        assert prof.degrees() == [0, 1]
        assert prof.dimension(0) == 2
        assert prof.dimension(1) == 21
        assert prof.euler_characteristic() == 2 - 21

    def test_rejects_malformed_weights(self):
        with pytest.raises(ValueError):
            CohomologyProfile(7, {0: {(0, 1): 1}})  # wrong length
        with pytest.raises(ValueError):
            CohomologyProfile(2, {0: {(0, 1): 1}})  # not dominant

    @pytest.mark.parametrize(
        "n, groups",
        [
            (1, {0.5: {(0,): 1}}),
            (1, {"a": {(0,): 1}}),
            (1, {-2: {(0,): 1}}),
            (3.0, {0: {(0, 0, 0): 1}}),
            (-1, {}),
        ],
        ids=["half-degree", "string-degree", "negative-degree", "float-n", "negative-n"],
    )
    def test_rejects_a_degree_or_n_that_is_not_a_non_negative_int(self, n, groups):
        # a degree of 0.5 made the Euler characteristic a complex number
        with pytest.raises(ValueError, match="not a non-negative integer"):
            CohomologyProfile(n, groups)

    def test_equality_and_empty(self):
        assert CohomologyProfile(7) == CohomologyProfile(7, {0: {}})
        assert CohomologyProfile(7).is_empty
        assert CohomologyProfile(7) != CohomologyProfile(8)

    def test_rank(self):
        def rank(bundle):
            return classes.EquivariantClass(GR27, {bundle: 1}).rank()

        assert rank(Bundle((0,) * 5, (3, 0))) == 4
        assert rank(Bundle((1, 0, 0, 0, 0), (0, -1))) == 10
