"""Independent cross-check implementations and property suites.

Nothing here is used by the computation paths. Each function re-derives a
quantity along a second route (monomial expansions, explicit tableau
counts, randomized duality sweeps) so the test suite and the `oracles`
check can compare the two routes. Keeping both routes alive is the point;
do not "simplify" one into the other. The rank-2 character calculus
(Clebsch-Gordan products, exterior and symmetric powers by character
peeling) lives here too: it is the reference the rank-2 results of
``weights`` are compared against. Its characters are read-only mappings,
built once per weight in a bounded cache, and ``gl2_character`` is the
only builder: every power, product, peel and combination reads its
characters through that one public name, so a mutant patched over it
still reaches every reader.
"""

from __future__ import annotations

import random
from collections import Counter
from collections.abc import Iterable, Iterator, Mapping
from functools import lru_cache
from itertools import combinations, combinations_with_replacement, product
from operator import ge, sub
from types import MappingProxyType

from .bbw import Bundle, Grassmannian
from .weights import (
    Weight,
    as_partition,
    count_ssyt,
    partitions_of,
    weyl_dimension,
    littlewood_richardson,
)


# Entries after the default report: 71 Schur expansions (the 44 the
# products read and the sub-expansions the branching rule builds them
# from) and 411 Kostka numbers; after lr_suite(6): 239 and 5 695. The
# bounds hold either working set, so a warm pass still hits, and keep a
# long-lived process from growing without limit.
SCHUR_MONOMIALS_CACHE_SIZE = 256
KOSTKA_CACHE_SIZE = 16384
# (total, nvars) keys of the partition lists: 28 for lr_suite(4), the
# default report's, and 66 for lr_suite(6).
PARTITION_LIST_CACHE_SIZE = 128
# Distinct rank-2 weights whose character one default report reads: 229.
GL2_CHARACTER_CACHE_SIZE = 256


def _rows(length: int, floor: tuple[int, ...], n: int) -> Iterator[tuple[int, ...]]:
    """Weakly increasing rows of entries in 1..n with row[c] >= floor[c]."""
    rows = combinations_with_replacement(range(1, n + 1), length)
    return (row for row in rows if all(map(ge, row, floor)))


def ssyt_contents(shape: Iterable[int], n: int) -> Iterator[tuple[int, ...]]:
    """Content vectors of all semistandard tableaux of ``shape`` with entries 1..n.

    The content vector records how many times each of 1..n appears; one
    vector is yielded per tableau, so duplicates count multiplicity. This
    is the tableau route: the engine's ``weights.weight_multiplicities``
    counts the same weights by Kostka numbers, and ``_schur_monomials``
    builds them by branching; neither lists a tableau, and the tests
    compare both with this reference. Both peel horizontal strips listed
    by one product over the interlacing ranges; this route fills the
    tableau row by row instead, each row a weakly increasing choice of
    letters above the row before, so it shares no walk with them.
    """
    p = as_partition(shape)
    if len(p) > n:
        return
    if not p:
        yield (0,) * n
        return
    content = [0] * n

    def fill(r: int, above: tuple[int, ...]) -> Iterator[tuple[int, ...]]:
        floor = tuple(v + 1 for v in above[: p[r]])
        for row in _rows(p[r], floor, n):
            for v in row:
                content[v - 1] += 1
            if r + 1 == len(p):
                yield tuple(content)
            else:
                yield from fill(r + 1, row)
            for v in row:
                content[v - 1] -= 1

    yield from fill(0, (0,) * p[0])


def _interlacing(shape: Weight) -> Iterator[Weight]:
    """The eta with shape_(i+1) <= eta_i <= shape_i, zeros cut: shape/eta is a strip.

    Every horizontal strip of ``shape``, of any size, leaves one of these.
    """
    ranges = [range(low, high + 1) for high, low in zip(shape, shape[1:] + (0,))]
    # eta is a partition, so its zeros are the trailing ones
    return (eta[: len(eta) - eta.count(0)] for eta in product(*ranges))


def _branching_expansion():
    # The recursion calls the cached function through this closure, not
    # through the module attribute, so a patch over ``_schur_monomials``
    # cannot store its own values as the sub-expansions of the real one.
    @lru_cache(maxsize=SCHUR_MONOMIALS_CACHE_SIZE)
    def _schur_monomials(shape: Weight, nvars: int) -> dict[tuple[int, ...], int]:
        """Monomial expansion of a Schur polynomial: exponent vector -> coefficient.

        ``shape`` is a partition. Expands by the branching rule
        s_lambda(x_1..x_n) = sum over eta of s_eta(x_1..x_(n-1)) x_n^(|lambda|-|eta|),
        over the partitions eta that interlace lambda (lambda_(i+1) <= eta_i
        <= lambda_i), each sub-expansion read from this cache. No tableau is
        listed; ``ssyt_contents`` is the tableau reference the tests compare
        this with.
        """
        if len(shape) > nvars:
            return {}
        if not shape:
            return {(0,) * nvars: 1}
        size = sum(shape)
        out: dict[tuple[int, ...], int] = {}
        for eta in _interlacing(shape):
            below = _schur_monomials(eta, nvars - 1)
            last = (size - sum(eta),)
            for mono, c in below.items():
                key = mono + last
                out[key] = out.get(key, 0) + c
        return out

    return _schur_monomials


_schur_monomials = _branching_expansion()


@lru_cache(maxsize=KOSTKA_CACHE_SIZE)
def kostka_number(shape: Weight, content: Weight) -> int:
    """Count semistandard tableaux of ``shape`` with exactly ``content``.

    Peels the cells holding the largest value (a horizontal strip along
    the boundary) and recurses; no Littlewood-Richardson logic involved.
    The strips are the partitions ``_interlacing`` lists with the right
    number of cells.
    """
    shape = as_partition(shape)
    content = tuple(content)
    if sum(shape) != sum(content):
        return 0
    if not shape:
        return 1
    if not content:
        return 0
    size = sum(shape) - content[-1]
    return sum(kostka_number(eta, content[:-1]) for eta in _interlacing(shape) if sum(eta) == size)


@lru_cache(maxsize=PARTITION_LIST_CACHE_SIZE)
def _partition_list(total: int, nvars: int) -> tuple[Weight, ...]:
    """The partitions of ``total`` into at most ``nvars`` parts, in decreasing lex order."""
    return tuple(partitions_of(total, max_parts=nvars))


def schur_product_decomposition(a, b) -> Counter[Weight]:
    """Brute-force Littlewood-Richardson: multiply monomial expansions, peel greedily.

    The product's coefficients are only needed on dominant exponents c. A
    monomial u of the smaller factor divides x^c only if u is zero past
    len(c), so that factor's monomials are grouped by support length once
    per call, and each c visits only the groups that fit. The peel then
    subtracts Kostka rows, always from the lexicographically largest
    surviving partition nu. ``partitions_of`` lists in decreasing lex
    order, and K(nu, mu) = 0 unless mu <= nu in dominance, hence in lex
    order, so nu's row touches only the slice after nu's index, and one
    walk down the list meets every nu in peel order. Every coefficient and
    every peeled weight is a partition of the total size, so one list of
    them serves both steps.
    """
    pa, pb = as_partition(a), as_partition(b)
    if not pa:
        return Counter({pb: 1})
    if not pb:
        return Counter({pa: 1})
    nvars = len(pa) + len(pb)
    ma = _schur_monomials(pa, nvars)
    mb = _schur_monomials(pb, nvars)
    small, big = (ma, mb) if len(ma) <= len(mb) else (mb, ma)
    # by_support[s]: the monomials of the smaller factor that are zero past s
    by_support: list[list[tuple[tuple[int, ...], int]]] = [[] for _ in range(nvars + 1)]
    for u, cu in small.items():
        support = nvars
        while not u[support - 1]:
            support -= 1
        by_support[support].append((u, cu))
    total = sum(pa) + sum(pb)
    partitions = _partition_list(total, nvars)
    coeffs: list[int] = []
    for cpart in partitions:
        cpad = cpart + (0,) * (nvars - len(cpart))
        acc = 0
        for group in by_support[: len(cpart) + 1]:
            for u, cu in group:
                # a leftover with a negative entry is no exponent vector: get -> 0
                acc += cu * big.get(tuple(map(sub, cpad, u)), 0)
        coeffs.append(acc)
    out: Counter[Weight] = Counter()
    for i, nu in enumerate(partitions):
        mult = coeffs[i]
        if not mult:
            continue
        if mult < 0:
            raise ArithmeticError(f"greedy peel failed at {nu}")
        out[nu] = mult
        for j in range(i + 1, len(partitions)):
            k = kostka_number(nu, partitions[j])
            if k:
                coeffs[j] -= mult * k
    return out


# ---------------------------------------------------------------------------
# rank-2 character calculus
#
# A Laurent character is a mapping from exponent pairs (a, b) to positive
# integer multiplicities; the irreducible of highest weight (w1, w2) has
# the w1-w2+1 monomials x^(w1-j) y^(w2+j). Exterior and symmetric powers
# are expanded monomial by monomial and peeled greedily back into
# irreducibles; products follow Clebsch-Gordan in closed form. The
# engine takes these powers and products from ``weights`` instead.

ExponentPair = tuple[int, int]
LaurentCharacter = Mapping[ExponentPair, int]


class NotDecomposableError(ValueError):
    """A character that is not a non-negative sum of irreducible rank-2 characters."""


def _check_gl2(weight: Iterable[int]) -> ExponentPair:
    w = tuple(weight)
    if len(w) != 2 or w[0] < w[1]:
        raise ValueError(f"need a dominant length-2 weight, got {w}")
    return w  # type: ignore[return-value]


@lru_cache(maxsize=GL2_CHARACTER_CACHE_SIZE)
def _gl2_character(pair: ExponentPair) -> LaurentCharacter:
    a, b = pair
    return MappingProxyType({(a - j, b + j): 1 for j in range(a - b + 1)})


def gl2_character(weight: Iterable[int]) -> LaurentCharacter:
    """Character of the rank-2 irreducible with the given highest weight.

    The value is read-only and cached on the checked weight, so callers
    share it.
    """
    return _gl2_character(_check_gl2(weight))


def _subset_character(subsets: Iterable[tuple[ExponentPair, ...]]) -> LaurentCharacter:
    """The character whose monomials are the products of the given monomial subsets."""
    # plain-dict accumulation: Counter.__missing__ is a Python call per new key
    out: dict[ExponentPair, int] = {}
    for subset in subsets:
        x = y = 0
        for mx, my in subset:
            x += mx
            y += my
        out[(x, y)] = out.get((x, y), 0) + 1
    return out


def elementary_character(weight: Iterable[int], k: int) -> LaurentCharacter:
    """Character of the k-th exterior power, straight from monomial k-subsets."""
    return _subset_character(combinations(gl2_character(weight), k))


def homogeneous_character(weight: Iterable[int], k: int) -> LaurentCharacter:
    """Character of the k-th symmetric power, from monomial k-multisets."""
    return _subset_character(combinations_with_replacement(gl2_character(weight), k))


def character_of_combination(parts: Mapping[Weight, int]) -> LaurentCharacter:
    out: dict[ExponentPair, int] = {}
    for w, m in parts.items():
        for mono in gl2_character(w):
            out[mono] = out.get(mono, 0) + m
    return out


def character_product(c1: LaurentCharacter, c2: LaurentCharacter) -> LaurentCharacter:
    out: dict[ExponentPair, int] = {}
    for (x1, y1), m1 in c1.items():
        for (x2, y2), m2 in c2.items():
            key = (x1 + x2, y1 + y2)
            out[key] = out.get(key, 0) + m1 * m2
    return {k: v for k, v in out.items() if v}


def decompose_gl2_character(char: LaurentCharacter) -> Counter[Weight]:
    """Peel a character into irreducibles, always from the lex-largest exponent.

    The leading monomial of an irreducible character is its highest weight,
    so the peel is canonical. Raises NotDecomposableError if a peel step
    meets a negative multiplicity or a non-dominant leading exponent.
    """
    work = {k: v for k, v in char.items() if v}
    out: Counter[Weight] = Counter()
    while work:
        top = max(work)
        mult = work[top]
        if mult < 0 or top[0] < top[1]:
            raise NotDecomposableError(f"cannot peel leading term {top} x{mult}")
        out[top] += mult
        for mono in gl2_character(top):
            v = work.get(mono, 0) - mult
            if v:
                work[mono] = v
            else:
                work.pop(mono, None)
    return out


def gl2_tensor(a: Iterable[int], b: Iterable[int]) -> Counter[Weight]:
    """Clebsch-Gordan decomposition of a tensor product of rank-2 irreducibles.

    The summands are (a1+b1-k, a2+b2+k) for 0 <= k <= min(a1-a2, b1-b2),
    each with multiplicity one. The class calculus multiplies subbundle
    factors with ``weights.tensor_weights`` instead; this closed form is
    the reference its rank-2 products are tested against.
    """
    wa, wb = _check_gl2(a), _check_gl2(b)
    top = min(wa[0] - wa[1], wb[0] - wb[1])
    return Counter({(wa[0] + wb[0] - k, wa[1] + wb[1] + k): 1 for k in range(top + 1)})


def wedge_power_gl2(weight: Iterable[int], k: int) -> Counter[Weight]:
    """k-th exterior power of a rank-2 irreducible, as a sum of irreducibles.

    Peels the elementary character. Empty for k above the dimension;
    total dimension is binomial(w1-w2+1, k).
    """
    return decompose_gl2_character(elementary_character(weight, k))


def sym_power_gl2(weight: Iterable[int], k: int) -> Counter[Weight]:
    """k-th symmetric power of a rank-2 irreducible, peeled from the homogeneous character."""
    return decompose_gl2_character(homogeneous_character(weight, k))


# ---------------------------------------------------------------------------
# property suites


def ssyt_weyl_suite(max_size: int, max_n: int) -> dict:
    """Tableau counts from Kostka numbers against the dimension product formula."""
    cases = 0
    failures = []
    for size in range(max_size + 1):
        for shape in partitions_of(size):
            for n in range(1, max_n + 1):
                counted = count_ssyt(shape, n)
                if len(shape) > n:
                    expected = 0
                else:
                    expected = weyl_dimension(shape + (0,) * (n - len(shape)), n)
                cases += 1
                if counted != expected:
                    failures.append({"shape": list(shape), "n": n})
    return {"cases": cases, "failures": failures}


def lr_suite(max_size: int) -> dict:
    """Straightened (Brauer-Klimyk) products against brute-force polynomial products."""
    shapes = [p for size in range(max_size + 1) for p in partitions_of(size)]
    cases = 0
    failures = []
    for i, a in enumerate(shapes):
        for b in shapes[i:]:
            straightened = littlewood_richardson(a, b)
            try:
                brute = schur_product_decomposition(a, b)
            except ArithmeticError:
                brute = Counter()  # a failed peel: no product of partitions is empty
            cases += 1
            if straightened != brute or straightened != littlewood_richardson(b, a):
                failures.append({"a": list(a), "b": list(b)})
    return {"cases": cases, "failures": failures}


def gl2_suite(max_diff: int) -> dict:
    """Clebsch-Gordan and plethysm identities against raw character arithmetic."""
    def peeled(power, w: Weight, k: int) -> Counter[Weight]:
        try:
            return power(w, k)
        except NotDecomposableError:
            return Counter()  # a failed peel: no power here is empty

    cases = 0
    failures = []
    shifts = (-3, 0, 3)
    characters = {
        (d + t, t): gl2_character((d + t, t)) for d in range(max_diff + 1) for t in shifts
    }
    for da in range(max_diff + 1):
        for db in range(max_diff + 1):
            for ta in shifts:
                for tb in shifts:
                    a, b = (da + ta, ta), (db + tb, tb)
                    product = gl2_tensor(a, b)
                    cases += 1
                    lhs = character_product(characters[a], characters[b])
                    rhs = character_of_combination(product)
                    dims = sum((w[0] - w[1] + 1) * m for w, m in product.items())
                    if lhs != rhs or dims != (da + 1) * (db + 1):
                        failures.append({"a": list(a), "b": list(b)})
    for d in range(max_diff + 1):
        for t in (-2, 0, 2):
            w = (d + t, t)
            wedge_dims = 0
            for k in range(d + 2):
                parts = peeled(wedge_power_gl2, w, k)
                cases += 1
                if character_of_combination(parts) != elementary_character(w, k):
                    failures.append({"w": list(w), "wedge": k})
                wedge_dims += sum((x[0] - x[1] + 1) * m for x, m in parts.items())
            cases += 1
            if wedge_dims != 2 ** (d + 1):
                failures.append({"w": list(w), "wedge_total": wedge_dims})
            for k in range(4):
                parts = peeled(sym_power_gl2, w, k)
                cases += 1
                if character_of_combination(parts) != homogeneous_character(w, k):
                    failures.append({"w": list(w), "sym": k})
    return {"cases": cases, "failures": failures}


def random_bundle(ctx: Grassmannian, rng: random.Random, bound: int = 9) -> Bundle:
    lam = sorted([rng.randint(-bound, bound) for _ in range(ctx.quotient_rank)], reverse=True)
    mu = sorted([rng.randint(-bound, bound) for _ in range(ctx.k)], reverse=True)
    return Bundle(tuple(lam), tuple(mu))


def serre_suite(per_context: int) -> dict:
    """Serre-duality dimension symmetry over randomized bundles."""
    from .classes import serre_check

    contexts = [Grassmannian(2, 7), Grassmannian(2, 8), Grassmannian(1, 6)]
    rng = random.Random(214341)
    cases = 0
    failures = []
    for ctx in contexts:
        for _ in range(per_context):
            b = random_bundle(ctx, rng)
            cases += 1
            if not serre_check(ctx, b):
                failures.append({"ctx": [ctx.k, ctx.n], "bundle": [list(b.lam_q), list(b.mu_s)]})
    return {"cases": cases, "failures": failures}


def euler_suite(d_values) -> dict:
    """Euler consistency of the standard Koszul pages over a range of d."""
    from .classes import named_class
    from .koszul import euler_consistency

    cases = 0
    failures = []
    for d in d_values:
        plane_ctx = Grassmannian(2, d + 2)
        line_ctx = Grassmannian.projective_space(d + 2)
        coefficients = [
            (plane_ctx, "tangent"),
            (plane_ctx, "sym_cube_dual"),
            (line_ctx, "tangent"),
            (line_ctx, "O(3)"),
        ]
        for ctx, name in coefficients:
            cases += 1
            if not euler_consistency(ctx, named_class(ctx, name)):
                failures.append({"d": d, "ctx": [ctx.k, ctx.n], "coefficient": name})
    return {"cases": cases, "failures": failures}
