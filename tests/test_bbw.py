import random

import pytest

from bbwkoszul.bbw import (
    Bundle,
    CohomologyProfile,
    Grassmannian,
    bbw_cohomology,
    bundle_rank,
    canonical_bundle,
    rho,
)
from bbwkoszul.classes import serre_check
from bbwkoszul.oracles import random_bundle

GR27 = Grassmannian(2, 7)


def test_rho():
    assert rho(4) == (4, 3, 2, 1)
    assert rho(1) == (1,)
    assert rho(7) == (7, 6, 5, 4, 3, 2, 1)


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

    def test_randomized(self):
        rng = random.Random(5)
        for ctx in (GR27, Grassmannian(2, 8), Grassmannian(1, 6)):
            for _ in range(40):
                assert serre_check(ctx, random_bundle(ctx, rng))


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

    def test_equality_and_empty(self):
        assert CohomologyProfile(7) == CohomologyProfile(7, {0: {}})
        assert CohomologyProfile(7).is_empty
        assert CohomologyProfile(7) != CohomologyProfile(8)

    def test_rank(self):
        assert bundle_rank(GR27, Bundle((0,) * 5, (3, 0))) == 4
        assert bundle_rank(GR27, Bundle((1, 0, 0, 0, 0), (0, -1))) == 10
