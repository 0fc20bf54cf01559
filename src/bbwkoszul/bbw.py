"""Cohomology of irreducible homogeneous bundles on a Grassmannian.

A bundle is a pair of dominant weights, one on the rank n-k quotient
bundle Q and one on the rank k tautological subbundle S. Its cohomology
follows from one additive mutation: concatenate the two weights (quotient
weight first), add the staircase (n, n-1, ..., 1), and try to sort the
result strictly decreasingly. A repeated entry kills every cohomology
group. Otherwise exactly one group survives, in the degree given by the
number of inversions removed by the sort, and its GL(V) highest weight is
the sorted sequence minus the staircase.

The full GL(V)-equivariant weight is always tracked; the determinant of V
is never trivialized here. Comparisons against determinant-twisted
presentations happen one level up, in the class calculus.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Iterator
from typing import NamedTuple

from .weights import Weight, dominant_sort, is_dominant, weyl_dimension


class _GrassmannianFields(NamedTuple):
    k: int
    n: int


class Grassmannian(_GrassmannianFields):
    """Gr(k, n): k-dimensional subspaces of an n-dimensional space V."""

    __slots__ = ()

    def __new__(cls, k: int, n: int) -> "Grassmannian":
        if not 1 <= k < n:
            raise ValueError(f"need 1 <= k < n, got k={k}, n={n}")
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
            tuple(-x for x in reversed(self.lam_q)),
            tuple(-x for x in reversed(self.mu_s)),
        )

    def shifted(self, t: int) -> "Bundle":
        """Twist by the t-th power of the determinants of both factors."""
        return Bundle(
            tuple(x + t for x in self.lam_q),
            tuple(x + t for x in self.mu_s),
        )


def validate_bundle(ctx: Grassmannian, bundle: Bundle) -> None:
    if len(bundle.lam_q) != ctx.quotient_rank or len(bundle.mu_s) != ctx.k:
        raise ValueError(f"{bundle} does not fit Gr({ctx.k},{ctx.n})")
    if not (is_dominant(bundle.lam_q) and is_dominant(bundle.mu_s)):
        raise ValueError(f"{bundle} has a non-dominant factor")


def bundle_rank(ctx: Grassmannian, bundle: Bundle) -> int:
    validate_bundle(ctx, bundle)
    return weyl_dimension(bundle.lam_q, ctx.quotient_rank) * weyl_dimension(
        bundle.mu_s, ctx.k
    )


def rho(n: int) -> Weight:
    """The staircase (n, n-1, ..., 1)."""
    if n < 1:
        raise ValueError("need n >= 1")
    return tuple(range(n, 0, -1))


class CohomologyProfile:
    """Map from cohomological degree to a multiset of GL(V) highest weights.

    Only nonzero groups are stored. Dimensions are derived, never stored:
    each weight contributes its Weyl dimension times its multiplicity.
    Every weight must be a dominant weight of GL(n).
    """

    __slots__ = ("n", "_groups")

    def __init__(self, n: int, groups: dict[int, dict[Weight, int]] | None = None):
        self.n = n
        store: dict[int, dict[Weight, int]] = {}
        for q, ws in (groups or {}).items():
            c: dict[Weight, int] = {}
            for w, m in ws.items():
                w = tuple(w)
                if len(w) != n or not is_dominant(w):
                    raise ValueError(f"{w} is not a dominant weight of GL({n})")
                if m < 0:
                    raise ValueError("negative multiplicity")
                if m:
                    c[w] = c.get(w, 0) + m
            if c:
                store[q] = c
        self._groups = store

    @property
    def is_empty(self) -> bool:
        return not self._groups

    def degrees(self) -> list[int]:
        return sorted(self._groups)

    def entries(self) -> Iterator[tuple[int, Weight, int]]:
        """Each (degree, weight, multiplicity) of the profile, read in place, not copied."""
        for q, group in self._groups.items():
            for w, m in group.items():
                yield q, w, m

    def weights(self, q: int) -> Counter[Weight]:
        return Counter(self._groups.get(q, {}))

    def constituents(self, q: int) -> frozenset[Weight]:
        return frozenset(self._groups.get(q, ()))

    def dimension(self, q: int) -> int:
        return sum(
            m * weyl_dimension(w, self.n) for w, m in self._groups.get(q, {}).items()
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
    """All cohomology of one irreducible bundle: empty, or a single group."""
    validate_bundle(ctx, bundle)
    nu = bundle.lam_q + bundle.mu_s
    staircase = rho(ctx.n)
    outcome = dominant_sort(tuple(x + r for x, r in zip(nu, staircase)))
    if outcome is None:
        return CohomologyProfile(ctx.n)
    degree, sorted_weight = outcome
    glweight = tuple(x - r for x, r in zip(sorted_weight, staircase))
    return CohomologyProfile(ctx.n, {degree: {glweight: 1}})


def canonical_bundle(ctx: Grassmannian) -> Bundle:
    """Determinant of the cotangent bundle Hom(Q, S)."""
    return Bundle((-ctx.k,) * ctx.quotient_rank, (ctx.quotient_rank,) * ctx.k)
