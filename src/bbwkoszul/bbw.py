"""Cohomology of irreducible homogeneous bundles on a Grassmannian.

A bundle is a pair of dominant weights, one on the rank n-k quotient
bundle Q and one on the rank k tautological subbundle S. Its cohomology
follows from one additive mutation: concatenate the two weights (quotient
weight first), add the staircase (n, n-1, ..., 1), and try to sort the
result strictly decreasingly. A repeated entry kills every cohomology
group. Otherwise exactly one group survives, in the degree given by the
number of inversions removed by the sort, and its GL(V) highest weight is
the sorted sequence minus the staircase. Both shifted parts are already
strictly decreasing, so ``_place`` places only the k subbundle
entries, each by bisection on j -> lam_q[j] + n - j. No shifted list is
built: the GL(V) weight is assembled from slices of lam_q and the placed
entries. ``weights.dominant_sort`` stays the straightening rule of
products.

Values are checked where they enter, by one validator.
``validate_bundle`` checks a bundle in full: both lengths here, then
integer entries and dominance of each factor through the one weight
check, ``weights._checked_weight``. It runs in the public constructor of
``classes.EquivariantClass`` and in ``bbw_cohomology``, and nowhere else.
``bbw_cohomology`` wraps in a profile what the private placement
``_place`` returns on a validated bundle: ``(degree, weight)``, or None
on a collision. Class cohomology and ``EquivariantClass.rank`` trust
their summands, which fit the class's context, so they call ``_place``
and ``weyl_dimension`` directly. A
``CohomologyProfile`` built by hand validates its n, its degrees, its
weights (through the same weight check) and its multiplicities; the
profiles the engine builds itself skip that check.

The full GL(V)-equivariant weight is always tracked; the determinant of V
is never trivialized here. Comparisons against determinant-twisted
presentations happen one level up, in the class calculus.
"""

from __future__ import annotations

from collections import Counter
from itertools import repeat
from operator import add, neg
from typing import NamedTuple

from .weights import Weight, _checked_weight, weyl_dimension


class _GrassmannianFields(NamedTuple):
    k: int
    n: int


class Grassmannian(_GrassmannianFields):
    """Gr(k, n): k-dimensional subspaces of an n-dimensional space V."""

    __slots__ = ()

    def __new__(cls, k: int, n: int) -> "Grassmannian":
        if not (isinstance(k, int) and isinstance(n, int) and 1 <= k < n):
            raise ValueError(f"need integers 1 <= k < n, got k={k!r}, n={n!r}")
        return super().__new__(cls, k, n)

    @classmethod
    def _make(cls, iterable) -> "Grassmannian":
        # _replace builds through _make; validate there too
        return cls(*iterable)

    @property
    def quotient_rank(self) -> int:
        return self.n - self.k

    @property
    def dimension(self) -> int:
        return self.k * (self.n - self.k)

    @classmethod
    def projective_space(cls, n: int) -> "Grassmannian":
        """Lines in an n-dimensional space, i.e. projective (n-1)-space."""
        return cls(1, n)


class Bundle(NamedTuple):
    """Irreducible homogeneous bundle: a Schur weight on Q and one on S."""

    lam_q: Weight
    mu_s: Weight

    def dual(self) -> "Bundle":
        """Negate and reverse each factor; an involution."""
        return Bundle(
            tuple(map(neg, reversed(self.lam_q))), tuple(map(neg, reversed(self.mu_s)))
        )

    def shifted(self, t: int) -> "Bundle":
        """Twist by the t-th power of the determinants of both factors."""
        return Bundle(
            tuple(map(add, self.lam_q, repeat(t))), tuple(map(add, self.mu_s, repeat(t)))
        )


def validate_bundle(ctx: Grassmannian, bundle: Bundle) -> None:
    """The one bundle check: both factors fit ``ctx`` and pass the one weight check."""
    lam, mu = bundle
    if len(lam) != ctx.n - ctx.k or len(mu) != ctx.k:
        raise ValueError(f"{bundle} does not fit Gr({ctx.k},{ctx.n})")
    _checked_weight(lam)
    _checked_weight(mu)


class CohomologyProfile:
    """Map from cohomological degree to a multiset of GL(V) highest weights.

    Only nonzero groups are stored. Dimensions are derived, never stored:
    each weight contributes its Weyl dimension times its multiplicity.
    n and every degree must be non-negative integers, every weight a
    dominant weight of GL(n) with integer entries, and every multiplicity
    a non-negative integer.

    A class keeps the profile of its cohomology, so one profile may be
    handed to many callers. No code mutates a profile once it is built:
    ``weights`` returns a copy, and the Koszul layer only reads
    ``_groups``. A new reader must keep it that way.
    """

    __slots__ = ("n", "_groups")

    def __init__(self, n: int, groups: dict[int, dict[Weight, int]] | None = None):
        if not isinstance(n, int) or n < 0:
            raise ValueError(f"n = {n!r} is not a non-negative integer")
        self.n = n
        store: dict[int, dict[Weight, int]] = {}
        for q, ws in (groups or {}).items():
            if not isinstance(q, int) or q < 0:
                raise ValueError(f"degree {q!r} is not a non-negative integer")
            c: dict[Weight, int] = {}
            for w, m in ws.items():
                w = _checked_weight(w)
                if len(w) != n:
                    raise ValueError(f"{w} is not a weight of GL({n})")
                if not isinstance(m, int) or m < 0:
                    raise ValueError(f"multiplicity {m!r} is not a non-negative integer")
                if m:
                    c[w] = c.get(w, 0) + m
            if c:
                store[q] = c
        self._groups = store

    @classmethod
    def _trusted(cls, n: int, groups: dict[int, dict[Weight, int]]) -> "CohomologyProfile":
        """A profile the engine built: dominant weights, positive multiplicities, no empty group."""
        profile = object.__new__(cls)
        profile.n = n
        profile._groups = groups
        return profile

    @property
    def is_empty(self) -> bool:
        return not self._groups

    def degrees(self) -> list[int]:
        return sorted(self._groups)

    def weights(self, q: int) -> Counter[Weight]:
        return Counter(self._groups.get(q, {}))

    def dimension(self, q: int) -> int:
        return sum(
            m * weyl_dimension(w) for w, m in self._groups.get(q, {}).items()
        )

    def euler_characteristic(self) -> int:
        return sum((-1) ** q * self.dimension(q) for q in self._groups)

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, CohomologyProfile)
            and self.n == other.n
            and self._groups == other._groups
        )

    def __repr__(self) -> str:
        if self.is_empty:
            return f"CohomologyProfile(n={self.n}, empty)"
        parts = ", ".join(
            f"H^{q}: dim {self.dimension(q)}" for q in self.degrees()
        )
        return f"CohomologyProfile(n={self.n}, {parts})"


def bbw_cohomology(ctx: Grassmannian, bundle: Bundle) -> CohomologyProfile:
    """All cohomology of one irreducible bundle: empty, or a single group.

    Raises ValueError for a bundle that does not fit ``ctx`` or has a
    non-dominant factor. The placement itself is ``_place``.
    """
    validate_bundle(ctx, bundle)
    placed = _place(ctx, bundle)
    groups = {} if placed is None else {placed[0]: {placed[1]: 1}}
    return CohomologyProfile._trusted(ctx.n, groups)


def _place(ctx: Grassmannian, bundle: Bundle) -> tuple[int, Weight] | None:
    """The ``(degree, GL(V) weight)`` of the one group of a bundle known to fit ``ctx``, or None.

    The quotient part j -> lam_q[j] + n - j of the shifted weight is
    strictly decreasing, and so is the subbundle part i -> mu_s[i] + k - i.
    So each subbundle entry, largest first, is bisected on that function
    of j, from where the previous entry landed; no shifted list is built.
    Equality is a collision. An entry that lands before quotient entry j
    (j = m = n - k: below all of them) passes the m - j entries after it,
    which is its share of the degree, and its GL(V) entry is
    mu_s[i] - (m - j). A quotient entry with i subbundle entries placed
    before it moves i places to the right, so the GL(V) weight is lam_q
    cut at the landing points, segment i raised by i, with the placed
    entries in the cuts. Segment 0 is a plain slice.
    """
    n, k = ctx.n, ctx.k
    m = n - k
    lam, mu = bundle
    out: list[int] = []
    degree = start = 0
    for i, x in enumerate(mu):
        # first j >= start with lam[j] + n - j <= x + k - i
        target = x + k - i - n
        lo, hi = start, m
        while lo < hi:
            mid = (lo + hi) >> 1
            if lam[mid] - mid > target:
                lo = mid + 1
            else:
                hi = mid
        if lo < m and lam[lo] - lo == target:
            return None
        degree += m - lo
        out.extend(map(add, lam[start:lo], repeat(i)) if i else lam[:lo])
        out.append(x - m + lo)
        start = lo
    out.extend(map(add, lam[start:], repeat(k)))
    return degree, tuple(out)


def canonical_bundle(ctx: Grassmannian) -> Bundle:
    """Determinant of the cotangent bundle Hom(Q, S)."""
    return Bundle((-ctx.k,) * ctx.quotient_rank, (ctx.quotient_rank,) * ctx.k)
