"""Rank-2 character calculus: Clebsch-Gordan products and small plethysms.

A Laurent character is a dict from exponent pairs (a, b) to positive
integer multiplicities; the irreducible of highest weight (w1, w2) has
the w1-w2+1 monomials x^(w1-j) y^(w2+j). Exterior and symmetric powers
are expanded monomial by monomial and peeled greedily back into
irreducibles, so every identity here is certified by exact bookkeeping.

This module is a reference only: no engine module imports it. The engine
takes tensor and exterior powers from ``weights``, and the oracles and
the tests compare those against the closed forms here.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Iterable
from itertools import combinations, combinations_with_replacement

from .weights import Weight

ExponentPair = tuple[int, int]
LaurentCharacter = dict[ExponentPair, int]


class NotDecomposableError(ValueError):
    """A character that is not a non-negative sum of irreducible rank-2 characters."""


def _check_gl2(weight: Iterable[int]) -> tuple[int, int]:
    w = tuple(weight)
    if len(w) != 2 or w[0] < w[1]:
        raise ValueError(f"need a dominant length-2 weight, got {w}")
    return w  # type: ignore[return-value]


def gl2_character(weight: Iterable[int]) -> LaurentCharacter:
    """Character of the rank-2 irreducible with the given highest weight."""
    a, b = _check_gl2(weight)
    return {(a - j, b + j): 1 for j in range(a - b + 1)}


def character_product(c1: LaurentCharacter, c2: LaurentCharacter) -> LaurentCharacter:
    # plain-dict accumulation: Counter.__missing__ is a Python call per new key
    out: LaurentCharacter = {}
    for (x1, y1), m1 in c1.items():
        for (x2, y2), m2 in c2.items():
            key = (x1 + x2, y1 + y2)
            out[key] = out.get(key, 0) + m1 * m2
    return {k: v for k, v in out.items() if v}


def _subset_sums(subsets: Iterable[tuple[ExponentPair, ...]]) -> LaurentCharacter:
    """The character whose monomials are the products of the given monomial subsets."""
    char: LaurentCharacter = {}
    for subset in subsets:
        x = y = 0
        for mx, my in subset:
            x += mx
            y += my
        char[(x, y)] = char.get((x, y), 0) + 1
    return char


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

    Expands the elementary symmetric polynomial of the character monomials
    and decomposes. Empty for k above the dimension; total dimension is
    binomial(w1-w2+1, k).
    """
    w = _check_gl2(weight)
    if k < 0:
        raise ValueError("negative exterior power")
    return decompose_gl2_character(_subset_sums(combinations(sorted(gl2_character(w)), k)))


def sym_power_gl2(weight: Iterable[int], k: int) -> Counter[Weight]:
    """k-th symmetric power of a rank-2 irreducible, via k-multisets of monomials."""
    w = _check_gl2(weight)
    if k < 0:
        raise ValueError("negative symmetric power")
    return decompose_gl2_character(
        _subset_sums(combinations_with_replacement(sorted(gl2_character(w)), k))
    )
