"""Exact weight combinatorics for general linear groups.

Weights are plain integer tuples, highest entry first. A dominant weight
is weakly decreasing; a partition is a dominant weight without negative
entries (trailing zeros are insignificant and stripped on normalization).
Everything here is exact integer arithmetic: dimensions come from an
integer product formula or from explicit tableau enumeration, never from
floating point.
"""

from __future__ import annotations

import itertools
from collections import Counter
from collections.abc import Iterable, Iterator
from functools import lru_cache

Weight = tuple[int, ...]


def is_dominant(weight: Iterable[int]) -> bool:
    w = tuple(weight)
    return all(w[i] >= w[i + 1] for i in range(len(w) - 1))


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
    while p and p[-1] == 0:
        p = p[:-1]
    return p


def dominant_sort(weight: Iterable[int]) -> tuple[int, Weight] | None:
    """Rearrange a weight into strictly decreasing order, tracking the sort length.

    Returns None when two entries coincide (the singular case). Otherwise
    returns ``(inversions, sorted_weight)`` where ``inversions`` counts the
    pairs i < j with weight[i] < weight[j]; this equals the length of the
    unique permutation that sorts the weight.
    """
    w = tuple(weight)
    if len(set(w)) != len(w):
        return None
    inversions = 0
    for i, wi in enumerate(w):
        for wj in w[i + 1 :]:
            if wi < wj:
                inversions += 1
    return inversions, tuple(sorted(w, reverse=True))


@lru_cache(maxsize=None)
def _weyl_product(w: Weight) -> int:
    n = len(w)
    num = 1
    den = 1
    for i in range(n):
        for j in range(i + 1, n):
            num *= w[i] - w[j] + j - i
            den *= j - i
    q, r = divmod(num, den)
    if r:
        raise ArithmeticError(f"Weyl product not integral for {w}")
    return q


def weyl_dimension(weight: Iterable[int], n: int | None = None) -> int:
    """Dimension of the GL(n) irreducible with highest weight ``weight``.

    The weight must be dominant of length exactly n (n defaults to the
    length). Adding a constant to every entry does not change the result.
    """
    w = tuple(weight)
    if n is None:
        n = len(w)
    if len(w) != n:
        raise ValueError(f"weight {w} does not have length {n}")
    if not is_dominant(w):
        raise ValueError(f"weight not dominant: {w}")
    return _weyl_product(w)


def partitions_of(n: int, max_parts: int | None = None) -> Iterator[Weight]:
    """Yield the partitions of n as tuples, largest part first."""
    if n < 0:
        return

    def rec(remaining: int, cap: int, slots: int) -> Iterator[Weight]:
        if remaining == 0:
            yield ()
            return
        if slots == 0:
            return
        for first in range(min(cap, remaining), 0, -1):
            for rest in rec(remaining - first, first, slots - 1):
                yield (first,) + rest

    yield from rec(n, n, max_parts if max_parts is not None else n)


def _rows(length: int, floor: tuple[int, ...], n: int) -> Iterator[tuple[int, ...]]:
    # weakly increasing rows with row[c] >= floor[c] and entries <= n
    row = [0] * length

    def rec(c: int, lo: int) -> Iterator[tuple[int, ...]]:
        for v in range(max(lo, floor[c]), n + 1):
            row[c] = v
            if c + 1 == length:
                yield tuple(row)
            else:
                yield from rec(c + 1, v)

    if length == 0:
        yield ()
    else:
        yield from rec(0, 1)


def ssyt_contents(shape: Iterable[int], n: int) -> Iterator[tuple[int, ...]]:
    """Content vectors of all semistandard tableaux of ``shape`` with entries 1..n.

    The content vector records how many times each of 1..n appears; one
    vector is yielded per tableau, so duplicates count multiplicity.
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


def count_ssyt(shape: Iterable[int], n: int) -> int:
    """Count semistandard Young tableaux of ``shape`` with entries in 1..n.

    Independent dimension oracle: for a partition with at most n parts this
    agrees with ``weyl_dimension`` of the zero-padded weight.
    """
    return sum(1 for _ in ssyt_contents(shape, n))


def littlewood_richardson(a: Iterable[int], b: Iterable[int]) -> Counter[Weight]:
    """Littlewood-Richardson multiplicities of the product of two Schur functors.

    Enumerates the classical fillings: the shape grows from ``a`` by
    horizontal strips of sizes b[0], b[1], ... while the reverse reading
    word stays lattice. Returns a Counter mapping each partition ``nu`` to
    its multiplicity.
    """
    pa, pb = as_partition(a), as_partition(b)
    out: Counter[Weight] = Counter()
    if not pb:
        out[pa] += 1
        return out
    if not pa:
        out[pb] += 1
        return out

    def place(label: int, shape: Weight, prev_cum: tuple[int, ...] | None) -> None:
        if label == len(pb):
            out[shape] += 1
            return
        size = pb[label]
        nrows = len(shape) + 1

        def choose(r: int, remaining: int, adds: list[int]) -> None:
            if remaining == 0:
                adds_full = adds + [0] * (nrows - len(adds))
                grown = [
                    (shape[i] if i < len(shape) else 0) + adds_full[i]
                    for i in range(nrows)
                ]
                while grown and grown[-1] == 0:
                    grown.pop()
                cum = tuple(itertools.accumulate(adds_full))
                place(label + 1, tuple(grown), cum)
                return
            if r == nrows:
                return
            current = shape[r] if r < len(shape) else 0
            if r == 0:
                cap = remaining
            else:
                # horizontal strip: new boxes sit under boxes of the old shape
                above_old = shape[r - 1] if r - 1 < len(shape) else 0
                cap = min(remaining, max(0, above_old - current))
            if prev_cum is not None:
                # lattice: labels placed so far through row r must not
                # outnumber the previous label through row r-1
                if r == 0:
                    allowed = 0
                else:
                    allowed = prev_cum[min(r - 1, len(prev_cum) - 1)]
                cap = min(cap, max(0, allowed - sum(adds)))
            for m in range(cap, -1, -1):
                adds.append(m)
                choose(r + 1, remaining - m, adds)
                adds.pop()

        choose(0, size, [])

    place(0, pa, None)
    return out
