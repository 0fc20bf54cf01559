"""Formal direct sums of irreducible homogeneous bundles and their calculus.

Tensor products decompose the quotient factors and the subbundle factors
with ``weights._tensor_product``, and exterior powers the subbundle
factor with ``weights._wedge_product``: the cached cores behind
``weights.tensor_weights`` and ``weights.wedge_weights`` without those
wrappers' checks on outside input (a validated bundle has dominant
integer factors of the context's ranks). Both straighten by the signed
sort ``weights.dominant_sort`` and take GL(r) weights with negative
entries as they are.
Cohomology of a class is the multiplicity-weighted union over its
summands, folded into one profile from each summand's ``(degree,
weight)``, or None, that ``bbw._place`` returns.

A bundle is checked by one validator, ``bbw.validate_bundle``, in full
and only where it enters from outside the engine: in the public
constructor (``EquivariantClass(...)``, ``irreducible``), in
``bbw.bbw_cohomology`` and in ``bbw.bundle_rank``. The classes the
engine builds itself are trusted and not checked: ``named_class``, whose
bundles fit every valid context by construction, and the classes built
from valid ones (``tensor``, ``shifted``, ``wedge_class``, ``+``), with
the profiles of their cohomology. ``cohomology()`` hands each summand to
the placement ``bbw._place`` and ``rank()`` multiplies two
``weyl_dimension``s, neither of which validates the bundle.
``named_class`` builds each (context, name) once, in a bounded cache. A
class is immutable and keeps the profile of its first
``cohomology()`` call, so a test that patches the BBW layer
(``bbw._place``) must clear ``named_class``'s cache as well as
``koszul_analysis``'s.

Displayed decompositions in the source material trivialize det V; the
engine never does. ``det_shift`` is the single point where classes are
compared up to a uniform determinant twist; it builds no shifted class
and twists each distinct quotient part once.
"""

from __future__ import annotations

import re
from collections.abc import Mapping
from functools import lru_cache
from itertools import repeat
from operator import add

from .bbw import (
    Bundle,
    CohomologyProfile,
    Grassmannian,
    _place,
    bbw_cohomology,
    canonical_bundle,
    validate_bundle,
)
from .weights import Weight, _tensor_product, _wedge_product, weyl_dimension


class EquivariantClass:
    """Non-negative integer combination of irreducible homogeneous bundles.

    Invariant: every summand fits ``ctx``, that is both factors have the
    context's ranks, integer entries and are dominant, and every
    multiplicity is a positive integer. The one validator,
    ``bbw.validate_bundle``, runs where a bundle enters from outside: in
    the public constructor on every bundle it is given, and in
    ``bbw.bbw_cohomology`` and ``bbw.bundle_rank``. The trusted builders
    run none: ``named_class`` builds only dominant factors of the
    context's ranks, for every name and every valid context; ``tensor``,
    ``shifted``, ``+``, ``wedge_class`` and the partner in
    ``serre_check`` (the dual of a bundle that
    ``bbw_cohomology`` has just validated, and the canonical bundle)
    build only from classes that hold the invariant, and the weights that
    ``_tensor_product`` and ``_wedge_product`` return are dominant of the
    same length; twisting by an integer, which ``shifted`` checks, keeps
    a weight dominant. ``cohomology()`` and ``rank()`` rely on it and
    check no summand again.
    """

    __slots__ = ("ctx", "_summands", "_profile")

    def __init__(self, ctx: Grassmannian, summands: Mapping[Bundle, int] | None = None):
        self.ctx = ctx
        store: dict[Bundle, int] = {}
        for b, m in (summands or {}).items():
            if not isinstance(m, int) or m < 0:
                raise ValueError(f"multiplicity {m!r} is not a non-negative integer")
            if m:
                if type(b) is Bundle and type(b.lam_q) is tuple and type(b.mu_s) is tuple:
                    bundle = b  # already normalized: no rebuild, still validated
                else:
                    bundle = Bundle(tuple(b.lam_q), tuple(b.mu_s))
                validate_bundle(ctx, bundle)
                store[bundle] = store.get(bundle, 0) + m
        self._summands = store
        self._profile = None

    @classmethod
    def _trusted(cls, ctx: Grassmannian, summands: dict[Bundle, int]) -> "EquivariantClass":
        """A class the engine built: bundles that fit ``ctx``, positive multiplicities."""
        built = object.__new__(cls)
        built.ctx = ctx
        built._summands = summands
        built._profile = None
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
        q, k = self.ctx.quotient_rank, self.ctx.k
        return sum(
            m * weyl_dimension(b.lam_q, q) * weyl_dimension(b.mu_s, k)
            for b, m in self._summands.items()
        )

    def __add__(self, other: "EquivariantClass") -> "EquivariantClass":
        self._check_ctx(other)
        total = dict(self._summands)
        for b, m in other._summands.items():
            total[b] = total.get(b, 0) + m
        return EquivariantClass._trusted(self.ctx, total)

    def shifted(self, t: int) -> "EquivariantClass":
        # the twist comes from outside; an integer one keeps every summand valid
        if not isinstance(t, int):
            raise ValueError(f"twist {t!r} is not an integer")
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
        """The profile of the class, computed on the first call and shared after it."""
        if self._profile is not None:
            return self._profile
        groups: dict[int, dict[Weight, int]] = {}
        for b, m in self._summands.items():
            # every summand fits the context (see the class docstring), so
            # it goes to the placement unchecked
            placed = _place(self.ctx, b)
            if placed is not None:
                degree, w = placed
                group = groups.setdefault(degree, {})
                group[w] = group.get(w, 0) + m
        self._profile = CohomologyProfile._trusted(self.ctx.n, groups)
        return self._profile

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
    s_part = _tensor_product(b1.mu_s, b2.mu_s).items()
    return {
        Bundle(lam, mu): cq * cs
        for lam, cq in _tensor_product(b1.lam_q, b2.lam_q).items()
        for mu, cs in s_part
    }


# (ctx, name) keys measured per run: 74 for the default report and 350 for
# a 50-d paper sweep, which uses its 7 keys of one d only while that d runs.
NAMED_CACHE_SIZE = 128

_TWIST_RE = re.compile(r"O\((-?\d+)\)")


@lru_cache(maxsize=NAMED_CACHE_SIZE)
def named_class(ctx: Grassmannian, name: str) -> EquivariantClass:
    """Constructors for the standard bundles, by name.

    Accepted names: "S", "Q", "tangent", "sym_cube", "sym_cube_dual",
    "trivial", and "O(m)" on a projective-space context (k = 1). Classes
    are immutable, so each (ctx, name) is built once, in a bounded cache.
    """
    zero_q = (0,) * ctx.quotient_rank
    zero_s = (0,) * ctx.k
    one_q = (1,) + zero_q[1:]
    named = {
        "S": (zero_q, (1,) + zero_s[1:]),
        "Q": (one_q, zero_s),
        "tangent": (one_q, zero_s[1:] + (-1,)),  # Q tensor dual of S
        "sym_cube": (zero_q, (3,) + zero_s[1:]),
        "sym_cube_dual": (zero_q, zero_s[1:] + (-3,)),
        "trivial": (zero_q, zero_s),
    }
    parts = named.get(name)
    if parts is None:
        m = _TWIST_RE.fullmatch(name)
        if not m:
            raise ValueError(f"unknown class name {name!r}; known: {sorted(named)} or O(m)")
        if ctx.k != 1:
            raise ValueError("twists O(m) only live on projective-space contexts")
        parts = (zero_q, (-int(m.group(1)),))
    # every part is dominant of the context's ranks, so no check is needed
    return EquivariantClass._trusted(ctx, {Bundle(*parts): 1})


def wedge_class(cls_: EquivariantClass, j: int) -> EquivariantClass:
    """Exterior power of a single S-only irreducible summand, for any subbundle rank.

    ``weights._wedge_product`` decomposes the power of the subbundle
    factor; powers above the rank of the summand come out empty. On
    Gr(3, n) this builds every Koszul term, but the degeneration verdicts
    of those pages still rest on the isolation rule, which is unsound
    (ROADMAP item 1 has a Gr(3, 7) witness), so no check or report field
    makes a claim about them.
    """
    # the power comes from outside, like the twist of ``shifted``
    if not isinstance(j, int):
        raise ValueError(f"exterior power {j!r} is not an integer")
    if j < 0:
        raise ValueError("negative exterior power")
    items = list(cls_._summands.items())
    if len(items) != 1 or items[0][1] != 1:
        raise ValueError("exterior powers only for a single irreducible summand")
    bundle = items[0][0]
    if any(bundle.lam_q):
        raise ValueError("exterior powers only for S-only classes")
    parts = _wedge_product(bundle.mu_s, j)
    return EquivariantClass._trusted(
        cls_.ctx, {Bundle(bundle.lam_q, mu): m for mu, m in parts.items()}
    )


def det_shift(a: EquivariantClass, b: EquivariantClass) -> int | None:
    """The uniform determinant twist taking one class onto the other, if any.

    Returns the integer t with a.shifted(t) == b, or None when no such
    twist exists. Twisting adds t to every entry of every bundle, so it
    keeps the lexicographic order of bundles, and the least bundle of
    a.shifted(t) is the least bundle of a, twisted. So the only twist
    that can work is t = min(b).lam_q[0] - min(a).lam_q[0]. One pass
    over the summands of a then decides, without building a.shifted(t):
    the summands of a Koszul term, or of a claimed line, share one
    quotient part, so each distinct quotient part is twisted once.
    """
    a._check_ctx(b)
    if a.is_empty and b.is_empty:
        return 0
    if a.is_empty or b.is_empty:
        return None
    t = min(b._summands).lam_q[0] - min(a._summands).lam_q[0]
    # twisting is injective, so a.shifted(t) == b when both have as many
    # summands and each twisted summand of a has its multiplicity in b
    if len(a._summands) != len(b._summands):
        return None
    target = b._summands
    twisted_q: dict[Weight, Weight] = {}
    for bundle, m in a._summands.items():
        lam = bundle.lam_q
        lam_t = twisted_q.get(lam)
        if lam_t is None:
            lam_t = twisted_q[lam] = tuple(map(add, lam, repeat(t)))
        # a Bundle is a NamedTuple: the plain pair hashes and compares like it
        if target.get((lam_t, tuple(map(add, bundle.mu_s, repeat(t))))) != m:
            return None
    return t


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
