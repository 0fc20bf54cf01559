"""Exact weight combinatorics for general linear groups.

Weights are plain integer tuples, highest entry first. A dominant weight
is weakly decreasing; a partition is a dominant weight without negative
entries (trailing zeros are insignificant and stripped on normalization).
Everything here is exact integer arithmetic: dimensions come from an
integer product formula or from Kostka numbers, never from floating
point.

``dominant_sort`` is the straightening rule of products. ``_straighten``
applies it to a character given by its weights (Weyl's rule), and both
products of irreducibles go through it: ``tensor_weights`` feeds it one
factor plus each weight of the other (Brauer-Klimyk), and
``wedge_weights`` feeds it the sums of the j-subsets of the weights of
one irreducible. Borel-Weil-Bott needs no full sort: ``bbw`` places the
k subbundle entries into the quotient part, which the staircase already
leaves in order. Both products check their arguments and then read a
cached core, and the cached values are read-only mappings that callers
share. ``weight_multiplicities`` lists the weights of a factor, each
distinct weight once: the rearrangements of every dominant weight mu
below the highest one, with the Kostka number of mu as multiplicity.
``_dominated`` is the one walk over the dominance order: it lists those
mu, and ``partitions_of(n)`` is the walk below the one-row shape (n). A
Kostka number peels horizontal strips, listed by one product over the
ranges of the partitions that interlace the shape. No tableau is listed;
the tableau enumeration lives in ``oracles`` as the second route.
"""

from __future__ import annotations

import operator
from bisect import bisect_left
from collections import Counter
from collections.abc import Iterable, Iterator, Mapping
from functools import lru_cache
from itertools import accumulate, combinations, groupby, product
from math import factorial, perm
from types import MappingProxyType

Weight = tuple[int, ...]

# Distinct weights measured per run: 382 for the default report (d = 3..12),
# 466 for d = 3..40 and 155 for a 50-d paper sweep. Kostka keys measured
# per run: 125 for the default report, 124 for lr_suite(6) and 497 for
# ssyt_weyl_suite(8, 6). Exterior-power keys measured per run: 7 for the
# default report (powers 0..4 of the cubic power of a rank-2 subbundle,
# 0..1 of a line subbundle) and 6 for a 50-d paper sweep (power 1 of the
# line subbundle only). Tensor-product keys (a, b) measured
# per run: 521 for the default report, 166 for a 50-d paper sweep, 16 for
# one theorem-moduli d and 303 for serre_suite(60). The bounds keep a
# long-lived process from growing without limit.
WEYL_CACHE_SIZE = 1024
KOSTKA_CACHE_SIZE = 1024
WEDGE_CACHE_SIZE = 256
TENSOR_CACHE_SIZE = 1024


def is_dominant(weight: Iterable[int]) -> bool:
    """Whether the entries are weakly decreasing.

    One sort decides it: a weakly decreasing list is a single run for the
    sort, so the check is linear and runs in C, not a Python-level
    comparison of every adjacent pair.
    """
    w = list(weight)
    return w == sorted(w, reverse=True)


def as_partition(shape: Iterable[int]) -> Weight:
    """Normalize to a partition tuple, stripping trailing zeros.

    Raises ValueError when the input is not weakly decreasing or has a
    negative part.
    """
    p = tuple(shape)
    if not is_dominant(p):
        raise ValueError(f"not weakly decreasing: {p}")
    if p and p[-1] < 0:
        raise ValueError(f"negative part: {p}")
    return p[: len(p) - p.count(0)]


def dominant_sort(weight: Iterable[int]) -> tuple[int, Weight] | None:
    """Rearrange a weight into strictly decreasing order, tracking the sort length.

    Returns None when two entries coincide (the singular case). Otherwise
    returns ``(inversions, sorted_weight)`` where ``inversions`` counts the
    pairs i < j with weight[i] < weight[j]; this equals the length of the
    unique permutation that sorts the weight.
    """
    ascending: list[int] = []
    inversions = 0
    # Walk from the last entry, so that a weight already near decreasing
    # order (a dominant weight plus the staircase) inserts at the end.
    for x in reversed(tuple(weight)):
        at = bisect_left(ascending, x)
        if at < len(ascending) and ascending[at] == x:
            return None
        inversions += len(ascending) - at  # the later entries larger than x
        ascending.insert(at, x)
    return inversions, tuple(reversed(ascending))


@lru_cache(maxsize=WEYL_CACHE_SIZE)
def _weyl_product(w: Weight) -> int:
    """The Weyl dimension formula, prod over i < j of (w_i - w_j + j - i) / (j - i).

    A non-dominant ``w`` raises ValueError. ``lru_cache`` stores no
    exception, so the test runs once per distinct dominant weight and on
    every call with a non-dominant one. A pair inside a run of equal entries
    contributes 1. Take a run A before a run B of length L, with
    delta = value(A) - value(B) > 0, and one i in A, and put s for the
    first index of B minus i. The factors over j in B telescope:

        prod_{t=s}^{s+L-1} (t + delta) / t
            = (s+L+delta-1)! (s-1)! / ((s+L-1)! (s+delta-1)!)
            = perm(s+L+delta-1, m) / perm(s+m-1, m),   m = min(delta, L),

    a ratio of two falling factorials of m terms each, because the middle
    expression is symmetric in L and delta. When m = 1 each factor is
    (s + L + delta - 1) / s, so the product over the entries of A, whose s
    run through consecutive integers up to the gap g = first index of B
    minus first index of A, telescopes as well, into
    perm(g + L + delta - 1, len(A)) / perm(g, len(A)). The work follows the
    number of (run, later run) pairs with m = 1 and of (entry, later run)
    pairs with m > 1, not the number of entry pairs.
    """
    if not is_dominant(w):
        raise ValueError(f"weight not dominant: {w}")
    runs = []
    start = 0
    for value, group in groupby(w):
        length = sum(1 for _ in group)
        runs.append((value, start, length))
        start += length
    num = 1
    den = 1
    for a, (value_a, start_a, length_a) in enumerate(runs):
        for value_b, start_b, length_b in runs[a + 1 :]:
            delta = value_a - value_b
            m = min(delta, length_b)
            gap = start_b - start_a
            if m == 1:
                num *= perm(gap + length_b + delta - 1, length_a)
                den *= perm(gap, length_a)
                continue
            for s in range(gap - length_a + 1, gap + 1):
                num *= perm(s + length_b + delta - 1, m)
                den *= perm(s + m - 1, m)
    q, r = divmod(num, den)
    if r:
        raise ArithmeticError(f"Weyl product not integral for {w}")
    return q


def weyl_dimension(weight: Iterable[int], n: int | None = None) -> int:
    """Dimension of the GL(n) irreducible with highest weight ``weight``.

    The weight must be dominant of length exactly n (n defaults to the
    length), with integer entries. Adding a constant to every entry does
    not change the result.
    """
    w = tuple(weight)
    if n is None:
        n = len(w)
    if len(w) != n:
        raise ValueError(f"weight {w} does not have length {n}")
    # a float entry hashes like the integer, so the cache would mix them
    if type(sum(w)) is not int:
        raise ValueError(f"weight {w} has a non-integer entry")
    return _weyl_product(w)


def partitions_of(n: int, max_parts: int | None = None) -> Iterator[Weight]:
    """The partitions of n, in decreasing lex order: the weights below the one-row shape (n)."""
    if n < 0:
        return iter(())
    return _dominated((n,), n if max_parts is None else max_parts)


def _strip_shrinks(shape: Weight, size: int) -> Iterator[Weight]:
    """The eta of |shape| - size cells with shape_(i+1) <= eta_i <= shape_i: the strips."""
    target = sum(shape) - size
    ranges = [range(low, high + 1) for high, low in zip(shape, shape[1:] + (0,))]
    return (eta[: len(eta) - eta.count(0)] for eta in product(*ranges) if sum(eta) == target)


@lru_cache(maxsize=KOSTKA_CACHE_SIZE)
def _kostka(shape: Weight, mu: Weight) -> int:
    """The Kostka number: semistandard tableaux of ``shape`` with content ``mu``.

    Both arguments are partitions. The cells holding the largest letter
    form a horizontal strip of mu[-1] cells; peel it and recurse on the
    rest; ``_strip_shrinks`` lists the strips by one product over the
    interlacing ranges. A Kostka number does not change when the content
    is permuted, so one partition stands for every arrangement, in any
    number of letters: the key does not depend on n.
    """
    if not mu:
        return 0 if shape else 1
    if len(shape) > len(mu):
        return 0  # a column longer than the number of letters
    rest = mu[:-1]
    return sum(_kostka(eta, rest) for eta in _strip_shrinks(shape, mu[-1]))


def _dominated(shape: Weight, n: int) -> Iterator[Weight]:
    """Partitions mu of |shape| with at most n parts and mu <= shape in dominance order.

    These are the dominant weights of the GL(n) irreducible of ``shape``:
    mu_1 + ... + mu_i never exceeds shape_1 + ... + shape_i. They come in
    decreasing lexicographic order. A negative n raises ValueError.
    """
    if n < 0:
        raise ValueError(f"negative number of letters: {n}")
    bounds = list(accumulate(shape))
    total = bounds[-1] if bounds else 0
    mu: list[int] = []

    def rec(done: int, cap: int) -> Iterator[Weight]:
        remaining = total - done
        if remaining == 0:
            yield tuple(mu)
            return
        i = len(mu)
        if i == n:
            return
        top = min(cap, remaining, (bounds[i] if i < len(bounds) else total) - done)
        # this part and the n - i - 1 after it, none larger, hold what remains
        bottom = -(-remaining // (n - i))
        for part in range(top, bottom - 1, -1):
            mu.append(part)
            yield from rec(done + part, part)
            mu.pop()

    yield from rec(0, total)


def _arrangements(mu: Weight, n: int) -> Iterator[Weight]:
    """The distinct rearrangements of ``mu`` padded with zeros to n entries."""
    runs = [(value, sum(1 for _ in group)) for value, group in groupby(mu)]
    weight = [0] * n

    def place(r: int, free: list[int]) -> Iterator[Weight]:
        value, count = runs[r]
        last = r + 1 == len(runs)
        for chosen in combinations(free, count):
            for i in chosen:
                weight[i] = value
            if last:
                yield tuple(weight)
            else:
                yield from place(r + 1, [i for i in free if i not in chosen])
            for i in chosen:
                weight[i] = 0

    if runs:
        yield from place(0, list(range(n)))
    else:
        yield tuple(weight)


def _orbit_size(mu: Weight, n: int) -> int:
    """The number of distinct rearrangements of ``mu`` padded with zeros to n entries."""
    size = perm(n, len(mu))
    for _, group in groupby(mu):
        size //= factorial(sum(1 for _ in group))
    return size


def weight_multiplicities(shape: Iterable[int], n: int) -> Iterator[tuple[Weight, int]]:
    """Each weight of the GL(n) irreducible of partition ``shape``, once, with its multiplicity.

    The multiplicity of a weight is the Kostka number of ``shape`` and the
    dominant weight mu it rearranges: the number of semistandard tableaux
    with that content. Yields nothing when ``shape`` has more than n parts.
    """
    p = as_partition(shape)
    for mu in _dominated(p, n):
        multiplicity = _kostka(p, mu)
        for weight in _arrangements(mu, n):
            yield weight, multiplicity


def count_ssyt(shape: Iterable[int], n: int) -> int:
    """Count semistandard Young tableaux of ``shape`` with entries in 1..n.

    Sums the Kostka number of each dominant weight mu times the number of
    its rearrangements, without listing a tableau or a weight. For a
    partition with at most n parts this is the dimension, so it checks
    ``weyl_dimension`` and the multiplicities ``tensor_weights`` reads.
    """
    p = as_partition(shape)
    return sum(_kostka(p, mu) * _orbit_size(mu, n) for mu in _dominated(p, n))


def _straighten(base: Weight, weights: Iterable[tuple[Weight, int]]) -> Counter[Weight]:
    """Weyl's rule: straighten each weight nu, shifted by ``base``, into an irreducible.

    Returns the sum over ``weights`` of m * (-1)^inversions times the
    highest weight ``dominant_sort(base + nu + rho) - rho``; a collision
    contributes nothing. When ``base`` is constant and the weights are
    those of a W-invariant character, this decomposes the character into
    irreducibles. When ``base`` is a dominant weight and the weights are
    those of a second irreducible, it decomposes the tensor product
    (Brauer-Klimyk).
    Raises ArithmeticError if a net multiplicity comes out negative.
    """
    staircase = range(len(base), 0, -1)
    shifted = [x + r for x, r in zip(base, staircase)]
    out: Counter[Weight] = Counter()
    for nu, multiplicity in weights:
        straightened = dominant_sort(map(operator.add, shifted, nu))
        if straightened is not None:
            inversions, w = straightened
            out[tuple(map(operator.sub, w, staircase))] += (
                -multiplicity if inversions % 2 else multiplicity
            )
    if any(m < 0 for m in out.values()):
        raise ArithmeticError(f"negative multiplicity straightening onto {base}")
    return +out


def _dual(w: Weight) -> Weight:
    """The highest weight of the dual representation."""
    return tuple(-x for x in reversed(w))


def _boxes(w: Weight) -> tuple[int, int]:
    """The boxes of the partition of w, w - w[-1], and of its dual's, w[0] - reversed(w).

    The boxes bound the depth and the work of listing the weights, so a
    factor like the dual of the vector representation, whose partition
    has n - 1 boxes, is listed through its dual of one box.
    """
    n, total = len(w), sum(w)
    return total - n * w[-1], n * w[0] - total


def tensor_weights(a: Iterable[int], b: Iterable[int]) -> Mapping[Weight, int]:
    """Decompose the tensor product of two GL(n) irreducibles (Brauer-Klimyk).

    ``a`` and ``b`` are dominant weights of the same length n with integer
    entries, which may be negative; for n = 0 the product is ``{(): 1}``.
    The product is ``_straighten`` of one factor plus each weight of the
    other, counted with multiplicity. The weights come from the partition
    with the fewest boxes among those of a, b and their duals, ties going to
    the factor with the smaller spread ``w[0] - w[-1]``: the boxes bound the
    number of weights, so Sym^2 V (x) wedge^(n/2) V lists the n(n+1)/2
    weights of Sym^2 V, not the C(n, n/2) of the exterior power.
    ``weight_multiplicities`` gives each distinct weight once, so a weight
    costs one sort however many tableaux share it. When that partition is a
    dual's, the duals are multiplied and the result dualized. A factor of
    spread 0 is a power of the determinant and only shifts the other.
    Returns a read-only mapping from each highest weight to its
    multiplicity, cached on (a, b).
    """
    a, b = tuple(a), tuple(b)
    if len(a) != len(b):
        raise ValueError(f"weights of different lengths: {a}, {b}")
    # a float entry hashes like the integer, so the cache would mix them
    if type(sum(a) + sum(b)) is not int:
        raise ValueError(f"weights {a}, {b} have a non-integer entry")
    for w in (a, b):
        if not is_dominant(w):
            raise ValueError(f"weight not dominant: {w}")
    if not a:
        # GL(0): the product of two trivial one-dimensional representations
        return MappingProxyType(Counter({(): 1}))
    return _tensor_product(a, b)


@lru_cache(maxsize=TENSOR_CACHE_SIZE)
def _tensor_product(a: Weight, b: Weight) -> Mapping[Weight, int]:
    """``tensor_weights`` on two dominant tuples of one length."""
    boxes_a, boxes_b = _boxes(a), _boxes(b)
    # list b: fewest boxes of a factor or its dual, then the smaller spread,
    # which a factor and its dual share
    if (min(boxes_a), a[0] - a[-1]) < (min(boxes_b), b[0] - b[-1]):
        a, b, boxes_b = b, a, boxes_a
    low = b[-1]
    if b[0] == low:
        return MappingProxyType(Counter({tuple(x + low for x in a): 1}))
    if boxes_b[1] < boxes_b[0]:  # the dual's partition is the smaller
        dual = _tensor_product(_dual(a), _dual(b))
        return MappingProxyType(Counter({_dual(w): m for w, m in dual.items()}))
    return MappingProxyType(
        _straighten(tuple(x + low for x in a), weight_multiplicities([x - low for x in b], len(b)))
    )


def wedge_weights(w: Iterable[int], j: int) -> Mapping[Weight, int]:
    """The j-th exterior power of the GL(n) irreducible of dominant weight ``w``.

    Sums the weights of every j-subset of a weight basis, listed with
    multiplicity from ``weight_multiplicities``, and hands the character
    to ``_straighten``. Empty for j above the dimension, so for n = 0 it
    is ``{(): 1}`` for j <= 1 and empty above. ``w`` has n
    integer entries and j is a non-negative int; the result is cached on
    (w, j): a read-only mapping from each highest weight to its
    multiplicity.
    """
    w = tuple(w)
    # a float entry or power hashes like the integer, so the cache would mix them
    if type(sum(w)) is not int:
        raise ValueError(f"weight {w} has a non-integer entry")
    if not isinstance(j, int):
        raise ValueError(f"exterior power {j!r} is not an integer")
    if j < 0:
        raise ValueError("negative exterior power")
    if not is_dominant(w):
        raise ValueError(f"weight not dominant: {w}")
    if not w:
        # GL(0): the one-dimensional trivial representation
        return MappingProxyType(Counter({(): 1} if j <= 1 else {}))
    return _wedge_product(w, j)


@lru_cache(maxsize=WEDGE_CACHE_SIZE)
def _wedge_product(w: Weight, j: int) -> Mapping[Weight, int]:
    """``wedge_weights`` on a dominant integer tuple and a non-negative int."""
    n, low = len(w), w[-1]
    basis = [nu for nu, m in weight_multiplicities([x - low for x in w], n) for _ in range(m)]
    if j > len(basis):
        return MappingProxyType(Counter())
    # sums[i]: the weights of the i-subsets of the basis seen so far
    sums = [Counter({(0,) * n: 1})] + [Counter() for _ in range(j)]
    for nu in basis:
        for i in range(j, 0, -1):
            for mu, count in sums[i - 1].items():
                sums[i][tuple(map(operator.add, mu, nu))] += count
    return MappingProxyType(_straighten((j * low,) * n, sums[j].items()))


def littlewood_richardson(a: Iterable[int], b: Iterable[int]) -> Counter[Weight]:
    """Littlewood-Richardson multiplicities of the product of two Schur functors.

    Pads both partitions to len(a) + len(b) parts, where the GL(n) product
    no longer loses constituents, multiplies them with ``_tensor_product``
    and strips the zeros again. ``as_partition`` has checked the order, so
    only the integer test of ``tensor_weights`` is repeated. The padding
    multiplies the rearrangements of each weight, not its Kostka number,
    which is computed once per dominant weight. The product's weights are
    dominant and non-negative by construction, so their zeros are the
    trailing ones and are cut off without validating each weight again.
    Returns a Counter mapping each partition ``nu`` to its multiplicity.
    """
    pa, pb = as_partition(a), as_partition(b)
    if type(sum(pa) + sum(pb)) is not int:
        raise ValueError(f"partitions {pa}, {pb} have a non-integer entry")
    n = max(len(pa) + len(pb), 1)
    tensored = _tensor_product(pa + (0,) * (n - len(pa)), pb + (0,) * (n - len(pb)))
    return Counter({nu[: n - nu.count(0)]: m for nu, m in tensored.items()})
