"""Formal direct sums of irreducible homogeneous bundles and their calculus.

Tensor products decompose the quotient factors and the subbundle factors
with ``weights.tensor_weights``, and exterior powers the subbundle factor
with ``weights.wedge_weights``: both straighten by the signed sort
``weights.dominant_sort`` and take GL(r) weights with negative entries as
they are.
Cohomology of a class is the multiplicity-weighted union over its
summands, gathered into one profile, and each summand's group comes from
``bbw.bbw_cohomology``, which places the k subbundle entries.

A class built by hand (``EquivariantClass(...)``, ``irreducible``)
validates every bundle. The classes the engine builds from valid ones
(``tensor``, ``shifted``, ``wedge_class``, ``+``) and the profiles of
their cohomology are trusted and not checked again, and ``named_class``
builds each (context, name) once, in a bounded cache.

Displayed decompositions in the source material trivialize det V; the
engine never does. ``det_shift`` is the single point where classes are
compared up to a uniform determinant twist.
"""

from __future__ import annotations

import re
from collections.abc import Mapping
from functools import lru_cache

from .bbw import (
    Bundle,
    CohomologyProfile,
    Grassmannian,
    bbw_cohomology,
    bundle_rank,
    canonical_bundle,
    validate_bundle,
)
from .weights import Weight, tensor_weights, wedge_weights


class EquivariantClass:
    """Non-negative integer combination of irreducible homogeneous bundles."""

    __slots__ = ("ctx", "_summands")

    def __init__(self, ctx: Grassmannian, summands: Mapping[Bundle, int] | None = None):
        self.ctx = ctx
        store: dict[Bundle, int] = {}
        for b, m in (summands or {}).items():
            if m < 0:
                raise ValueError("negative multiplicity")
            if m:
                if type(b) is Bundle and type(b.lam_q) is tuple and type(b.mu_s) is tuple:
                    bundle = b  # already normalized: no rebuild, still validated
                else:
                    bundle = Bundle(tuple(b.lam_q), tuple(b.mu_s))
                validate_bundle(ctx, bundle)
                store[bundle] = store.get(bundle, 0) + m
        self._summands = store

    @classmethod
    def _trusted(cls, ctx: Grassmannian, summands: dict[Bundle, int]) -> "EquivariantClass":
        """A class the engine built: bundles that fit ``ctx``, positive multiplicities."""
        built = object.__new__(cls)
        built.ctx = ctx
        built._summands = summands
        return built

    @classmethod
    def irreducible(cls, ctx: Grassmannian, lam_q, mu_s) -> "EquivariantClass":
        return cls(ctx, {Bundle(tuple(lam_q), tuple(mu_s)): 1})

    @classmethod
    def trivial(cls, ctx: Grassmannian) -> "EquivariantClass":
        return cls.irreducible(ctx, (0,) * ctx.quotient_rank, (0,) * ctx.k)

    @classmethod
    def empty(cls, ctx: Grassmannian) -> "EquivariantClass":
        return cls(ctx)

    def summands(self) -> dict[Bundle, int]:
        return dict(self._summands)

    @property
    def is_empty(self) -> bool:
        return not self._summands

    def rank(self) -> int:
        return sum(m * bundle_rank(self.ctx, b) for b, m in self._summands.items())

    def __add__(self, other: "EquivariantClass") -> "EquivariantClass":
        self._check_ctx(other)
        total = dict(self._summands)
        for b, m in other._summands.items():
            total[b] = total.get(b, 0) + m
        return EquivariantClass._trusted(self.ctx, total)

    def shifted(self, t: int) -> "EquivariantClass":
        return EquivariantClass._trusted(
            self.ctx, {b.shifted(t): m for b, m in self._summands.items()}
        )

    def tensor(self, other: "EquivariantClass") -> "EquivariantClass":
        self._check_ctx(other)
        # plain-dict accumulation: Counter.__missing__ is a Python call per new key
        total: dict[Bundle, int] = {}
        get = total.get
        for b1, m1 in self._summands.items():
            for b2, m2 in other._summands.items():
                m12 = m1 * m2
                for b, m in _tensor_bundles(b1, b2).items():
                    total[b] = get(b, 0) + m12 * m
        return EquivariantClass._trusted(self.ctx, total)

    def cohomology(self) -> CohomologyProfile:
        groups: dict[int, dict[Weight, int]] = {}
        for b, m in self._summands.items():
            for q, w, c in bbw_cohomology(self.ctx, b).entries():
                group = groups.setdefault(q, {})
                group[w] = group.get(w, 0) + m * c
        return CohomologyProfile._trusted(self.ctx.n, groups)

    def euler_characteristic(self) -> int:
        return self.cohomology().euler_characteristic()

    def _check_ctx(self, other: "EquivariantClass") -> None:
        if self.ctx != other.ctx:
            raise ValueError(f"context mismatch: {self.ctx} vs {other.ctx}")

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, EquivariantClass)
            and self.ctx == other.ctx
            and self._summands == other._summands
        )

    def __hash__(self) -> int:
        return hash((self.ctx, frozenset(self._summands.items())))

    def __repr__(self) -> str:
        if self.is_empty:
            return f"EquivariantClass({self.ctx}, 0)"
        body = " + ".join(
            (f"{m}*" if m > 1 else "") + f"Q{b.lam_q}·S{b.mu_s}"
            for b, m in sorted(self._summands.items())
        )
        return f"EquivariantClass({self.ctx}, {body})"


def _tensor_bundles(b1: Bundle, b2: Bundle) -> dict[Bundle, int]:
    # distinct (lam, mu) pairs are distinct bundles, so nothing accumulates
    s_part = tensor_weights(b1.mu_s, b2.mu_s).items()
    return {
        Bundle(lam, mu): cq * cs
        for lam, cq in tensor_weights(b1.lam_q, b2.lam_q).items()
        for mu, cs in s_part
    }


# (ctx, name) keys measured per run: 74 for the default report and 350 for
# a 50-d paper sweep, which uses its 7 keys of one d only while that d runs.
NAMED_CACHE_SIZE = 128

_TWIST_RE = re.compile(r"O\((-?\d+)\)")

_NAMED = {
    "S": "tautological subbundle",
    "Q": "quotient bundle",
    "tangent": "tangent bundle Hom(S, Q)",
    "sym_cube": "third symmetric power of S",
    "sym_cube_dual": "third symmetric power of the dual of S",
    "trivial": "structure sheaf",
}


@lru_cache(maxsize=NAMED_CACHE_SIZE)
def named_class(ctx: Grassmannian, name: str) -> EquivariantClass:
    """Constructors for the standard bundles, by name.

    Accepted names: "S", "Q", "tangent", "sym_cube", "sym_cube_dual",
    "trivial", and "O(m)" on a projective-space context (k = 1). Classes
    are immutable, so each (ctx, name) is built once, in a bounded cache.
    """
    zero_q = (0,) * ctx.quotient_rank
    zero_s = (0,) * ctx.k
    if name == "S":
        return EquivariantClass.irreducible(ctx, zero_q, (1,) + zero_s[1:])
    if name == "Q":
        return EquivariantClass.irreducible(ctx, (1,) + zero_q[1:], zero_s)
    if name == "tangent":
        # Q tensor dual of S
        return EquivariantClass.irreducible(ctx, (1,) + zero_q[1:], zero_s[1:] + (-1,))
    if name == "sym_cube":
        return EquivariantClass.irreducible(ctx, zero_q, (3,) + zero_s[1:])
    if name == "sym_cube_dual":
        return EquivariantClass.irreducible(ctx, zero_q, zero_s[1:] + (-3,))
    if name == "trivial":
        return EquivariantClass.trivial(ctx)
    m = _TWIST_RE.fullmatch(name)
    if m:
        if ctx.k != 1:
            raise ValueError("twists O(m) only live on projective-space contexts")
        return EquivariantClass.irreducible(ctx, zero_q, (-int(m.group(1)),))
    raise ValueError(f"unknown class name {name!r}; known: {sorted(_NAMED)} or O(m)")


def wedge_class(cls_: EquivariantClass, j: int) -> EquivariantClass:
    """Exterior power of a single S-only irreducible summand, for any subbundle rank.

    ``weights.wedge_weights`` decomposes the power of the subbundle
    factor; powers above the rank of the summand come out empty. On
    Gr(3, n) this builds every Koszul term, but the degeneration verdicts
    of those pages still rest on the isolation rule, which is unsound
    (ROADMAP item 1 has a Gr(3, 7) witness), so no check or report field
    makes a claim about them.
    """
    items = list(cls_._summands.items())
    if len(items) != 1 or items[0][1] != 1:
        raise ValueError("exterior powers only for a single irreducible summand")
    bundle = items[0][0]
    if any(bundle.lam_q):
        raise ValueError("exterior powers only for S-only classes")
    parts = wedge_weights(bundle.mu_s, j)
    return EquivariantClass._trusted(
        cls_.ctx, {Bundle(bundle.lam_q, mu): m for mu, m in parts.items()}
    )


def det_shift(a: EquivariantClass, b: EquivariantClass) -> int | None:
    """The uniform determinant twist taking one class onto the other, if any.

    Returns the integer t with a.shifted(t) == b, or None when no such
    twist exists. Twisting adds t to every entry of every bundle, so it
    keeps the lexicographic order of bundles, and the least bundle of
    a.shifted(t) is the least bundle of a, twisted. So the only twist
    that can work is t = min(b).lam_q[0] - min(a).lam_q[0], and one
    comparison decides.
    """
    a._check_ctx(b)
    if a.is_empty and b.is_empty:
        return 0
    if a.is_empty or b.is_empty:
        return None
    t = min(b._summands).lam_q[0] - min(a._summands).lam_q[0]
    return t if a.shifted(t) == b else None


def serre_check(ctx: Grassmannian, bundle: Bundle) -> bool:
    """Serre-duality dimension symmetry for one irreducible bundle.

    Checks that H^q of the bundle and H^(dim - q) of (dual tensor
    canonical) have equal total dimensions in every degree. Both sides
    are compared over their nonzero degrees, so a group in a degree
    outside 0..dim fails the check.
    """
    direct = bbw_cohomology(ctx, bundle)  # validates the bundle, so its dual fits too
    partner = EquivariantClass._trusted(ctx, {bundle.dual(): 1}).tensor(
        EquivariantClass._trusted(ctx, {canonical_bundle(ctx): 1})
    )
    mirrored = partner.cohomology()
    top = ctx.dimension
    return {q: direct.dimension(q) for q in direct.degrees()} == {
        top - q: mirrored.dimension(q) for q in mirrored.degrees()
    }
