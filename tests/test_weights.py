import re
from collections import Counter
from itertools import combinations, combinations_with_replacement, permutations, product
from math import comb
from operator import add

import pytest
from hypothesis import example, given, strategies as st

from bbwkoszul import oracles, weights
from bbwkoszul.bbw import Bundle, CohomologyProfile, Grassmannian, validate_bundle
from bbwkoszul.oracles import (
    kostka_number,
    schur_product_decomposition,
    ssyt_contents,
    wedge_power_gl2,
)
from bbwkoszul.weights import (
    as_partition,
    count_ssyt,
    dominant_sort,
    is_dominant,
    littlewood_richardson,
    partitions_of,
    tensor_weights,
    wedge_weights,
    weight_multiplicities,
    weyl_dimension,
)


def brute_force_sort(weight):
    """Try every permutation; return (inversions of the sorting one, sorted)."""
    w = tuple(weight)
    if len(set(w)) != len(w):
        return None
    for perm in permutations(range(len(w))):
        arranged = tuple(w[i] for i in perm)
        if all(arranged[i] > arranged[i + 1] for i in range(len(w) - 1)):
            inv = sum(
                1
                for i in range(len(perm))
                for j in range(i + 1, len(perm))
                if perm[i] > perm[j]
            )
            return inv, arranged
    raise AssertionError("unreachable")


def pairwise_sort(weight):
    """Reference for long weights: count the inversions pair by pair."""
    w = tuple(weight)
    if len(set(w)) != len(w):
        return None
    inv = sum(1 for i in range(len(w)) for j in range(i + 1, len(w)) if w[i] < w[j])
    return inv, tuple(sorted(w, reverse=True))


def dense_weyl_product(w):
    """Reference for weyl_dimension: every pair i < j of the Weyl formula."""
    num = den = 1
    for i in range(len(w)):
        for j in range(i + 1, len(w)):
            num *= w[i] - w[j] + j - i
            den *= j - i
    q, r = divmod(num, den)
    assert r == 0
    return q


# dominant weights made of a few long runs, negative values included
run_weights = st.lists(
    st.tuples(st.integers(-8, 8), st.integers(1, 10)), min_size=1, max_size=4
).map(lambda runs: tuple(v for v, length in sorted(runs, reverse=True) for _ in range(length)))

# distinct entries, up to 200 of them; appending the first entry again collides
long_weights = st.integers(0, 200).flatmap(
    lambda n: st.lists(st.integers(-300, 300), min_size=n, max_size=n, unique=True)
)

distinct_weights = st.lists(st.integers(-9, 9), min_size=1, max_size=6).filter(
    lambda v: len(set(v)) == len(v)
)


@st.composite
def partition_strategy(draw, max_n=8, max_parts=5):
    n = draw(st.integers(min_value=0, max_value=max_n))
    if n == 0:
        return ()
    k = draw(st.integers(min_value=1, max_value=min(n, max_parts)))
    bins = draw(st.lists(st.integers(0, k - 1), min_size=n, max_size=n))
    counts = Counter(bins)
    return tuple(sorted(counts.values(), reverse=True))


class TestDominantSort:
    def test_seven_entry_example(self):
        assert dominant_sort((7, 6, 5, 4, 3, 8, 1)) == (5, (8, 7, 6, 5, 4, 3, 1))

    def test_repeated_entry_is_singular(self):
        assert dominant_sort((3, 3)) is None

    def test_already_sorted(self):
        assert dominant_sort((5, 2)) == (0, (5, 2))

    @given(distinct_weights)
    def test_matches_brute_force(self, entries):
        assert dominant_sort(entries) == brute_force_sort(entries)

    @given(distinct_weights)
    def test_result_shape(self, entries):
        inv, arranged = dominant_sort(entries)
        n = len(entries)
        assert sorted(arranged) == sorted(entries)
        assert all(arranged[i] > arranged[i + 1] for i in range(n - 1))
        assert 0 <= inv <= n * (n - 1) // 2

    @given(st.lists(st.integers(-9, 9), min_size=2, max_size=6))
    def test_singular_iff_collision(self, entries):
        outcome = dominant_sort(entries)
        assert (outcome is None) == (len(set(entries)) != len(entries))

    @given(st.one_of(long_weights, long_weights.map(lambda v: v + v[:1])))
    def test_long_weights_match_pairwise_count(self, entries):
        assert dominant_sort(entries) == pairwise_sort(entries)

    def test_long_staircase(self):
        # a dominant weight plus the staircase, as Borel-Weil-Bott sorts it
        n = 200
        shifted = [x + n - i for i, x in enumerate((5,) + (0,) * (n - 2) + (-3,))]
        assert dominant_sort(shifted) == (0, tuple(shifted))
        assert dominant_sort(shifted[::-1]) == (n * (n - 1) // 2, tuple(shifted))
        assert dominant_sort(shifted[:-1] + [shifted[1]]) is None


class TestWeylDimension:
    def test_cubic_dual_space(self):
        assert weyl_dimension((0, 0, 0, 0, 0, 0, -3)) == comb(9, 3) == 84

    def test_traceless_endomorphisms(self):
        assert weyl_dimension((1, 0, 0, 0, 0, 0, -1)) == 7**2 - 1 == 48

    def test_sixth_exterior_power(self):
        assert weyl_dimension((1, 1, 1, 1, 1, 1, 0)) == 7

    @pytest.mark.parametrize("n", [1, 2, 5, 9])
    def test_trivial_weight(self, n):
        assert weyl_dimension((0,) * n) == 1

    def test_rejects_non_dominant(self):
        with pytest.raises(ValueError):
            weyl_dimension((0, 1))

    def test_rejects_non_dominant_whether_or_not_its_sort_is_cached(self):
        # the dominance test sits inside the cached product, which stores
        # no exception: a rejected weight leaves no entry behind
        bad, dominant = (7, 3, 11, -2), (11, 7, 3, -2)
        weights._weyl_product.cache_clear()
        for _ in range(2):
            size = weights._weyl_product.cache_info().currsize
            with pytest.raises(ValueError, match="not dominant"):
                weyl_dimension(bad)
            assert weights._weyl_product.cache_info().currsize == size
            assert weyl_dimension(dominant) == dense_weyl_product(dominant)

    def test_rejects_a_float_entry_whether_or_not_its_integer_twin_is_cached(self):
        # (2.0, 0.0) hashes like (2, 0), so only a test before the cache
        # keeps the float weight from reading or storing the integer's entry
        for integer_first in (False, True):
            weights._weyl_product.cache_clear()
            if integer_first:
                assert weyl_dimension((2, 0)) == 3
            with pytest.raises(ValueError, match="non-integer"):
                weyl_dimension((2.0, 0.0))
            assert weyl_dimension((2, 0)) == 3

    @pytest.mark.parametrize("weight", [("a", 0), (None, 0)], ids=["str-entry", "none-entry"])
    def test_rejects_a_non_numeric_entry_before_the_cache(self, weight):
        # the sum of the entries raises TypeError; the check turns it into
        # the ValueError of a float entry
        before = weights._weyl_product.cache_info()
        with pytest.raises(ValueError, match="non-integer"):
            weyl_dimension(weight)
        assert weights._weyl_product.cache_info() == before

    @given(run_weights)
    # m = min(delta, length of the later run) = 1 after an earlier run of
    # several entries, whose factors telescope into two falling factorials:
    # delta = 1 between two long runs, and a last run of one entry
    @example((3,) * 6 + (2,) * 7)
    @example((5,) * 4 + (4,) * 5 + (-2,) * 3)
    @example((4,) * 8 + (0,))
    @example((2,) * 5 + (1,) * 4 + (-3,))
    def test_matches_dense_product(self, weight):
        assert weyl_dimension(weight) == dense_weyl_product(weight)

    def test_closed_forms_at_n_1000(self):
        n = 1000
        assert weyl_dimension((3,) + (0,) * (n - 1)) == comb(n + 2, 3)
        for k in (1, 2, 7, 500, n):
            assert weyl_dimension((1,) * k + (0,) * (n - k)) == comb(n, k)
        assert weyl_dimension((1,) + (0,) * (n - 2) + (-1,)) == n**2 - 1

    @given(partition_strategy(), st.integers(-4, 4))
    def test_determinant_twist_invariance(self, shape, t):
        n = max(len(shape), 1) + 2
        padded = shape + (0,) * (n - len(shape))
        twisted = tuple(x + t for x in padded)
        assert weyl_dimension(padded) == weyl_dimension(twisted)


class TestCountSsyt:
    def test_hook_with_three_letters(self):
        assert count_ssyt((2, 1), 3) == 8

    def test_exterior_square(self):
        assert count_ssyt((1, 1), 3) == 3

    def test_cubics_in_two_variables(self):
        assert count_ssyt((3,), 2) == 4

    def test_too_many_rows(self):
        assert count_ssyt((1, 1, 1), 2) == 0

    def test_agrees_with_weyl_small(self):
        for size in range(6):
            for shape in partitions_of(size):
                for n in range(1, 5):
                    padded = shape + (0,) * (n - len(shape))
                    expected = weyl_dimension(padded) if len(shape) <= n else 0
                    assert count_ssyt(shape, n) == expected

    def test_contents_are_kostka_numbers(self):
        # the oracle's tableau enumeration against its strip-peeling
        # kostka_number
        for size in range(7):
            for shape in partitions_of(size):
                for n in range(1, 5):
                    contents = Counter(ssyt_contents(shape, n))
                    for mu in product(range(size + 1), repeat=n):
                        if sum(mu) == size:
                            assert contents[mu] == kostka_number(shape, mu), (shape, mu)


class TestWeightMultiplicities:
    def test_agree_with_tableau_enumeration(self):
        # the oracle lists one content per tableau; the engine lists each
        # weight once with a Kostka number and never sees a tableau
        for size in range(8):
            for shape in partitions_of(size):
                for n in range(7):
                    listed = list(weight_multiplicities(shape, n))
                    assert len(listed) == len({w for w, _ in listed})
                    assert dict(listed) == Counter(ssyt_contents(shape, n)), (shape, n)
                    padded = shape + (0,) * (n - len(shape))
                    expected = weyl_dimension(padded) if len(shape) <= n else 0
                    assert count_ssyt(shape, n) == expected, (shape, n)

    def test_large_n_product(self):
        # a factor of 250 weights against one of dimension about 10**37:
        # the work follows the distinct weights, and the Kostka keys do not
        # depend on n
        n = 250
        vector = (1,) + (0,) * (n - 1)
        wide = (5,) + (0,) * (n - 2) + (-5,)
        weights._kostka.cache_clear()
        weights._tensor_product.cache_clear()
        product = tensor_weights(vector, wide)
        keys = weights._kostka.cache_info().currsize
        assert len(product) == 3
        assert sum(m * weyl_dimension(w) for w, m in product.items()) == n * weyl_dimension(wide)
        weights._kostka.cache_clear()
        tensor_weights(vector[: n // 2], wide[: n // 2 - 1] + (-5,))
        assert weights._kostka.cache_info().currsize == keys


def dual(w):
    return tuple(-x for x in reversed(w))


@st.composite
def weight_pair_strategy(draw, max_n=4, bound=4):
    n = draw(st.integers(1, max_n))
    entries = st.lists(st.integers(-bound, bound), min_size=n, max_size=n)
    return tuple(tuple(sorted(draw(entries), reverse=True)) for _ in range(2))


class TestTensorWeights:
    def test_dual_vector_on_many_letters(self):
        # the covector's partition has 329 rows; its dual's has one box
        n = 330
        covector = (0,) * (n - 1) + (-1,)
        adjoint = (1,) + (0,) * (n - 2) + (-1,)
        product = tensor_weights(covector, adjoint)
        assert product == Counter(
            {
                covector: 1,
                (1,) + (0,) * (n - 3) + (-1, -1): 1,
                (1,) + (0,) * (n - 2) + (-2,): 1,
            }
        )
        assert sum(m * weyl_dimension(w) for w, m in product.items()) == n * (n * n - 1)

    def test_weights_come_from_the_factor_with_fewest_boxes(self, monkeypatch):
        # Sym^2 V (x) wedge^10 V at n = 20: the exterior power has the
        # smaller spread, but Sym^2 V has 2 boxes against 10
        n = 20
        sym2 = (2,) + (0,) * (n - 1)
        wedge10 = (1,) * 10 + (0,) * 10
        listed = []

        def spy(shape, n):
            listed.append(tuple(shape))
            return weight_multiplicities(shape, n)

        monkeypatch.setattr(weights, "weight_multiplicities", spy)
        weights._tensor_product.cache_clear()  # products are cached on their factors
        product = tensor_weights(wedge10, sym2)
        assert listed == [sym2]
        assert product == Counter({(3,) + (1,) * 9 + (0,) * 10: 1, (2,) + (1,) * 10 + (0,) * 9: 1})

    def test_rejects_a_float_entry_whether_or_not_its_integer_twin_is_cached(self):
        # (2.0, 0.0) hashes like (2, 0), so only a test before the cache
        # keeps the float factor from reading or storing the integer's entry
        for integer_first in (False, True):
            weights._tensor_product.cache_clear()
            if integer_first:
                tensor_weights((2, 0), (1, 0))
            with pytest.raises(ValueError, match="non-integer"):
                tensor_weights((2.0, 0.0), (1, 0))
            product = tensor_weights((2, 0), (1, 0))
            # (3.0, 0.0) == (3, 0), so the types are compared as well
            assert [tuple(map(type, w)) for w in product] == [(int, int)] * 2
            assert product == {(3, 0): 1, (2, 1): 1}

    @pytest.mark.parametrize(
        "a, b, named",
        [
            ((3, 1, 2, 0), (5, 0, 0, 0), "(3, 1, 2, 0)"),
            ((3, 1, 2, 0), (1, 0, 0, 0), "(3, 1, 2, 0)"),
            ((1, 2), (5, 0), "(1, 2)"),
        ],
        ids=["sym5", "vector", "rank-two"],
    )
    def test_rejects_a_non_dominant_factor_before_the_cache(self, a, b, named):
        # the factor is named, not a weight derived from it, and no entry is
        # stored for either order of the factors
        weights._tensor_product.cache_clear()
        for pair in ((a, b), (b, a)):
            with pytest.raises(ValueError, match=rf"not dominant: {re.escape(named)}$"):
                tensor_weights(*pair)
        assert weights._tensor_product.cache_info().currsize == 0

    @given(weight_pair_strategy())
    def test_duality(self, pair):
        a, b = pair
        product = tensor_weights(a, b)
        assert product == Counter({dual(w): m for w, m in tensor_weights(dual(a), dual(b)).items()})
        assert sum(m * weyl_dimension(w) for w, m in product.items()) == (
            weyl_dimension(a) * weyl_dimension(b)
        )


def elementary_expansion(monomials, top):
    """Coefficients of t^0..t^top in the product of (1 + t x^e) over the monomials x^e."""
    powers = [Counter({(0,) * len(next(iter(monomials))): 1})] + [Counter() for _ in range(top)]
    for exponent, count in monomials.items():
        for _ in range(count):
            for i in range(top, 0, -1):
                for mono, c in powers[i - 1].items():
                    powers[i][tuple(map(add, mono, exponent))] += c
    return powers


def alternant(exponent):
    """The polynomial sum over permutations s of sign(s) x^(s(exponent))."""
    out = Counter()
    for order in permutations(range(len(exponent))):
        inversions = sum(1 for i, k in combinations(order, 2) if i > k)
        out[tuple(exponent[i] for i in order)] += (-1) ** inversions
    return out


def times(f, g):
    out = Counter()
    for e, c in f.items():
        for h, d in g.items():
            out[tuple(map(add, e, h))] += c * d
    return {e: c for e, c in out.items() if c}


class TestWedgeWeights:
    def test_rank_two_reference(self):
        for top in range(-4, 7):
            for bottom in range(-4, top + 1):
                for j in range(top - bottom + 3):
                    assert wedge_weights((top, bottom), j) == wedge_power_gl2((top, bottom), j)

    def test_against_tableau_monomials(self):
        # e_j of the monomials of s_lambda, listed from tableaux, against the
        # decomposition. Times the Vandermonde a_rho, each Schur polynomial
        # s_mu becomes the alternant a_(mu + rho) (Jacobi's bialternant
        # formula), so both sides are plain polynomial arithmetic: no
        # straightening, and no tableau of the large shapes. A weight w whose
        # last entry is not 0 is the partition w - w[-1] twisted by
        # det^w[-1], which shifts every weight of the j-th power by j * w[-1].
        padded = [
            shape + (0,) * (n - len(shape))
            for size in range(4)
            for shape in partitions_of(size)
            for n in range(max(len(shape), 1), 5)
        ]
        twisted = [(3, 0, 0, 0), (2, 1, 0), (1, 1, 0, 0), (2, 0, -1), (3, -1), (0, 0, -3), (2, 2, 2)]
        cases = 0
        for w in padded + twisted:
            n, low = len(w), w[-1]
            staircase = tuple(range(n - 1, -1, -1))
            vandermonde = alternant(staircase)
            monomials = oracles._schur_monomials(as_partition(x - low for x in w), n)
            dim = sum(monomials.values())
            powers = elementary_expansion(monomials, dim + 1)
            for j in range(dim + 2):
                alternants = Counter()
                for mu, m in wedge_weights(w, j).items():
                    untwisted = tuple(x - j * low + r for x, r in zip(mu, staircase))
                    for e, c in alternant(untwisted).items():
                        alternants[e] += m * c
                nonzero = {e: c for e, c in alternants.items() if c}
                assert times(powers[j], vandermonde) == nonzero, (w, j)
                cases += 1
        assert cases == 241

    def test_top_powers_by_duality(self):
        # wedge^j V = (wedge^(dim-j) V)* (x) det V, with det V = wedge^dim V a
        # single constant weight. wedge_weights lists every power directly,
        # so the duality is an independent check of the top half.
        for w in ((3, 0, 0, 0), (2, 1, 0), (1, 1, 0, 0), (2, 0, -1), (3, -1), (0, 0, -3), (2, 2, 2)):
            n, dim = len(w), weyl_dimension(w)
            (top, mult), = wedge_weights(w, dim).items()
            assert mult == 1 and len(set(top)) == 1, w
            for j in range(dim + 1):
                dual = {
                    tuple(t - x for t, x in zip(top, reversed(mu))): m
                    for mu, m in wedge_weights(w, dim - j).items()
                }
                assert wedge_weights(w, j) == dual, (w, j)
            assert wedge_weights(w, dim + 1) == {}

    def test_negative_entries_and_duals(self):
        # the dual of the cubic power in rank 3, and powers of the determinant
        assert wedge_weights((0, 0, -3), 2) == {(0, -3, -3): 1, (0, -1, -5): 1}
        assert wedge_weights((3, 0, 0), 2) == {(3, 3, 0): 1, (5, 1, 0): 1}
        assert wedge_weights((2, 2, 2), 1) == {(2, 2, 2): 1}
        assert wedge_weights((2, 2, 2), 2) == {}

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            wedge_weights((3, 0), -1)
        with pytest.raises(ValueError):
            wedge_weights((0, 3), 1)
        for power in (1.5, "1", None):
            with pytest.raises(ValueError, match="not an integer"):
                wedge_weights((3, 0), power)

    @pytest.mark.parametrize(
        "w, j", [((2.0, 0.0), 1), ((2, 0), 1.0)], ids=["float-entry", "float-power"]
    )
    def test_rejects_a_float_whether_or_not_its_integer_twin_is_cached(self, w, j):
        # (2.0, 0.0) and 1.0 hash like (2, 0) and 1, so only a test before
        # the cache keeps the float key from reading or storing the integer's
        for integer_first in (False, True):
            weights._wedge_product.cache_clear()
            if integer_first:
                wedge_weights((2, 0), 1)
            with pytest.raises(ValueError, match="not an integer|non-integer"):
                wedge_weights(w, j)
            power = wedge_weights((2, 0), 1)
            assert [tuple(map(type, mu)) for mu in power] == [(int, int)]
            assert power == {(2, 0): 1}


class TestLittlewoodRichardson:
    def test_pieri_one_box(self):
        assert littlewood_richardson((2, 1), (1,)) == Counter(
            {(3, 1): 1, (2, 2): 1, (2, 1, 1): 1}
        )

    def test_pieri_one_row(self):
        assert littlewood_richardson((2,), (2,)) == Counter(
            {(4,): 1, (3, 1): 1, (2, 2): 1}
        )

    def test_hook_squared(self):
        assert littlewood_richardson((2, 1), (2, 1)) == Counter(
            {
                (4, 2): 1,
                (4, 1, 1): 1,
                (3, 3): 1,
                (3, 2, 1): 2,
                (3, 1, 1, 1): 1,
                (2, 2, 2): 1,
                (2, 2, 1, 1): 1,
            }
        )

    def test_empty_factor(self):
        assert littlewood_richardson((), (3, 1)) == Counter({(3, 1): 1})
        assert littlewood_richardson((3, 1), ()) == Counter({(3, 1): 1})

    @given(partition_strategy(max_n=5), partition_strategy(max_n=5))
    def test_commutative(self, a, b):
        assert littlewood_richardson(a, b) == littlewood_richardson(b, a)

    @given(partition_strategy(max_n=5), partition_strategy(max_n=5))
    def test_dimension_multiplicativity(self, a, b):
        product = littlewood_richardson(a, b)
        for n in range(3, 7):

            def dim(p):
                if len(p) > n:
                    return 0
                return weyl_dimension(p + (0,) * (n - len(p)))

            assert sum(c * dim(nu) for nu, c in product.items()) == dim(a) * dim(b)

    def test_rejects_a_float_entry(self):
        # the padded partitions go to the cached product without the
        # wrapper, so as_partition makes the float check
        with pytest.raises(ValueError, match="non-integer"):
            littlewood_richardson((2.0,), (1,))

    def test_against_polynomial_products_small(self):
        shapes = [p for size in range(5) for p in partitions_of(size)]
        for a in shapes:
            for b in shapes:
                assert littlewood_richardson(a, b) == schur_product_decomposition(a, b)


def test_gl0_is_answered_before_any_cache():
    # the empty weight is the one-dimensional trivial representation of
    # GL(0); the cached cores read w[-1], so the wrappers answer it first
    for cache in (weights._weyl_product, weights._tensor_product, weights._wedge_product):
        cache.cache_clear()
    assert weyl_dimension(()) == 1
    assert tensor_weights((), ()) == {(): 1}
    assert [wedge_weights((), j) for j in range(4)] == [{(): 1}, {(): 1}, {}, {}]
    assert weights._tensor_product.cache_info().currsize == 0
    assert weights._wedge_product.cache_info().currsize == 0
    # the product of Schur functors pads both partitions to one part
    assert littlewood_richardson((), ()) == Counter({(): 1})
    with pytest.raises(TypeError):
        tensor_weights((), ())[()] = 2
    with pytest.raises(TypeError):
        wedge_weights((), 2)[()] = 1
    with pytest.raises(ValueError, match="negative exterior power"):
        wedge_weights((), -1)
    with pytest.raises(ValueError, match="not an integer"):
        wedge_weights((), 1.0)
    with pytest.raises(ValueError, match="different lengths"):
        tensor_weights((), (0,))


def test_oracle_caches_are_bounded():
    # a long-lived process that runs the oracle row must not grow without limit
    assert oracles._schur_monomials.cache_info().maxsize == oracles.SCHUR_MONOMIALS_CACHE_SIZE
    assert oracles.kostka_number.cache_info().maxsize == oracles.KOSTKA_CACHE_SIZE


def test_partition_counts():
    assert sum(1 for _ in partitions_of(6)) == 11
    assert list(partitions_of(0)) == [()]
    assert list(partitions_of(3, max_parts=2)) == [(3,), (2, 1)]
    assert list(partitions_of(-1)) == []


def test_partitions_come_in_decreasing_lexicographic_order():
    # the peel of oracles.schur_product_decomposition relies on this order
    for n in range(11):
        brute = sorted(
            (
                parts[::-1]
                for r in range(n + 1)
                for parts in combinations_with_replacement(range(1, n + 1), r)
                if sum(parts) == n
            ),
            reverse=True,
        )
        assert list(partitions_of(n)) == brute, n
        for max_parts in range(n + 2):
            assert list(partitions_of(n, max_parts)) == [
                p for p in brute if len(p) <= max_parts
            ], (n, max_parts)


@pytest.mark.parametrize(
    "walk, message",
    [
        (lambda: list(weight_multiplicities((1,), -1)), "negative number of letters"),
        (lambda: list(weight_multiplicities((2, 1), -1)), "negative number of letters"),
        (lambda: list(partitions_of(3, -1)), "negative number of letters"),
        (lambda: count_ssyt((1,), -1), "negative number of letters"),
        (lambda: count_ssyt((2.0,), 2), "non-integer"),
        (lambda: list(weight_multiplicities((2.0,), 2)), "non-integer"),
        (lambda: list(weight_multiplicities((1,), 2.0)), "letters 2.0 is not an integer"),
        (lambda: list(partitions_of(3, 2.0)), "letters 2.0 is not an integer"),
        (lambda: list(partitions_of(2.0)), "2.0 is not an integer"),
    ],
    ids=[
        "weights-(1)",
        "weights-(2,1)",
        "partitions",
        "count-ssyt",
        "count-ssyt-float-shape",
        "weights-float-shape",
        "weights-float-letters",
        "partitions-float-parts",
        "partitions-float-n",
    ],
)
def test_negative_number_of_letters_is_rejected(walk, message):
    # a float letter count or shape is a ValueError, not a TypeError from range
    with pytest.raises(ValueError, match=message):
        walk()


@pytest.mark.parametrize(
    "entry",
    [
        as_partition,
        lambda w: tensor_weights(w, (0, 0)),
        lambda w: wedge_weights(w, 1),
        lambda w: validate_bundle(Grassmannian(2, 4), Bundle((0, 0), w)),
        lambda w: CohomologyProfile(2, {0: {w: 1}}),
    ],
    ids=["as-partition", "tensor", "wedge", "bundle", "profile"],
)
@pytest.mark.parametrize(
    "weight",
    [(2.0, 1), (0, 1), ("a", 0), (None, 0)],
    ids=["float-entry", "non-dominant", "str-entry", "none-entry"],
)
def test_every_entry_point_runs_the_one_weight_check(entry, weight):
    # the same ValueError as the shared check's, raised before any cache is read
    with pytest.raises(ValueError) as shared:
        weights._checked_weight(weight)
    caches = (weights._weyl_product, weights._kostka, weights._tensor_product, weights._wedge_product)
    before = [cache.cache_info() for cache in caches]
    with pytest.raises(ValueError) as raised:
        entry(weight)
    assert str(raised.value) == str(shared.value)
    assert [cache.cache_info() for cache in caches] == before


def test_as_partition_strips_long_zero_tail():
    assert as_partition((3, 1) + (0,) * 1000) == (3, 1)
    assert as_partition((0,) * 1000) == ()
    with pytest.raises(ValueError):
        as_partition((1,) + (0,) * 1000 + (-1,))


def test_is_dominant():
    assert is_dominant((3, 1, 0, -2))
    assert not is_dominant((1, 2))


def pairwise_dominant(w):
    return all(w[i] >= w[i + 1] for i in range(len(w) - 1))


@st.composite
def swapped_once(draw, entries):
    """A weakly decreasing list with one adjacent pair swapped at its start, middle or end."""
    w = sorted(draw(st.lists(entries, min_size=2, max_size=300)), reverse=True)
    i = draw(st.sampled_from((0, (len(w) - 1) // 2, len(w) - 2)))
    w[i], w[i + 1] = w[i + 1], w[i]
    return w


dominance_entries = st.integers(-50, 50)
dominance_inputs = st.one_of(
    st.lists(dominance_entries, max_size=300),
    st.lists(dominance_entries, max_size=300).map(lambda v: sorted(v, reverse=True)),
    swapped_once(dominance_entries),
)


@given(dominance_inputs)
def test_is_dominant_matches_the_pairwise_definition(w):
    expected = pairwise_dominant(w)
    assert is_dominant(w) is expected
    assert is_dominant(tuple(w)) is expected
    assert is_dominant(iter(w)) is expected
