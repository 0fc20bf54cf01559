"""Koszul hypercohomology pages and exact-sequence bookkeeping.

The cubic symmetric power of the dual subbundle has a distinguished
section whose zero locus Z (the lines on a cubic hypersurface) is cut out
regularly; the exterior powers of the dual of that bundle resolve the
ideal sheaf of Z and, one step longer, its structure sheaf. Tensoring the
resolution with a coefficient class F and taking cohomology gives a first
page E1 whose columns this module computes exactly. The page keeps the
tensored terms too, and ``factor_pages`` hands those of the tangent and
normal-class pages to the ``decompositions`` check of ``checks``, which
compares the displayed decompositions with them.

Degeneration is decided by the engine's current heuristic, the isolation
rule, which the one predicate ``_may_join`` states. An entry is taken to
survive to the abutment when it is differential-isolated: every slot a
differential could connect it to, on any later page, is either empty or
shares no GL(V)-irreducible constituent with it. A total degree whose
entries are all isolated gets an exact dimension; anything else is
reported as a range. The comparison maps of the restriction sequence go
through the same predicate.

This module holds no claim of the paper. The displayed decompositions
and the four axioms the report consumes (``H0_tangent_cubic_zero``,
``Hq_tangent_cubic_zero``, ``H0_tangent_fano_zero`` and
``KAN_vanishing``: vanishing facts taken from outside, not computed) are
data in data/expected.json, validated once when ``checks`` loads it.
``deformation_numbers`` names the axiom it consumes, and every report row
assembled with an axiom's help lists it.
"""

from __future__ import annotations

from collections.abc import Mapping
from functools import lru_cache
from types import MappingProxyType
from typing import NamedTuple

from .bbw import CohomologyProfile, Grassmannian
from .classes import EquivariantClass, named_class, wedge_class
from .weights import Weight

IDEAL_SHEAF = "ideal-sheaf"
RESTRICTION = "restriction"


class UnderdeterminedError(RuntimeError):
    """A requested number depends on a spectral-sequence verdict that is only a range."""


def _wedge_level(variant: str, p: int) -> int:
    """The exterior power of the resolution that sits in column p of a page."""
    return 1 - p if variant == IDEAL_SHEAF else -p


class KoszulPage(NamedTuple):
    """First page of one Koszul hypercohomology spectral sequence.

    ``terms[p]`` is the p-th resolution term tensored with the coefficient
    class and ``columns[p]`` its full cohomology profile; the (p, q) entry
    is the degree-q slice of the column. Ideal-sheaf pages use exterior
    powers 1..r of the cubic symmetric power of S (p = 1-level),
    restriction pages 0..r (p = -level). A page is identified by its key
    (ctx, variant, coefficient); equality and hashing ignore the terms and
    columns, which the key determines.
    """

    ctx: Grassmannian
    variant: str
    coefficient: EquivariantClass
    terms: Mapping[int, EquivariantClass]
    columns: Mapping[int, CohomologyProfile]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, KoszulPage):
            return NotImplemented
        return self[:3] == other[:3]

    def __ne__(self, other: object) -> bool:
        if not isinstance(other, KoszulPage):
            return NotImplemented
        return self[:3] != other[:3]

    def __hash__(self) -> int:
        return hash(self[:3])

    @property
    def p_min(self) -> int:
        return min(self.columns)

    def wedge_level(self, p: int) -> int:
        return _wedge_level(self.variant, p)

    def nonzero_entries(self) -> list[tuple[int, int, int]]:
        """All (p, q, dimension) with a nonzero entry, sorted."""
        out = []
        for p in sorted(self.columns):
            for q in self.columns[p].degrees():
                out.append((p, q, self.columns[p].dimension(q)))
        return out

    def euler_characteristic(self) -> int:
        return sum(
            (-1 if p % 2 else 1) * col.euler_characteristic()
            for p, col in self.columns.items()
        )


def build_page(
    ctx: Grassmannian, variant: str, coefficient: EquivariantClass
) -> KoszulPage:
    """Compute every entry of the first page for the given coefficient class."""
    if variant not in (IDEAL_SHEAF, RESTRICTION):
        raise ValueError(f"unknown page variant {variant!r}")
    if coefficient.ctx != ctx:
        raise ValueError("coefficient class lives on a different context")
    sym3 = named_class(ctx, "sym_cube")
    resolution_rank = sym3.rank()
    if variant == IDEAL_SHEAF:
        ps = range(-resolution_rank + 1, 1)
    else:
        ps = range(-resolution_rank, 1)
    terms = {p: wedge_class(sym3, _wedge_level(variant, p)).tensor(coefficient) for p in ps}
    columns = {p: term.cohomology() for p, term in terms.items()}
    return KoszulPage(
        ctx, variant, coefficient, MappingProxyType(terms), MappingProxyType(columns)
    )


BlockingPair = tuple[tuple[int, int], tuple[int, int], int]


class DegreeVerdict(NamedTuple):
    """What the page pins down about the abutment in one total degree."""

    total_degree: int
    determined: bool
    dimension: int | None
    upper_bound: int
    blocking: tuple[BlockingPair, ...] = ()

    def to_dict(self) -> dict:
        out: dict = {
            "total_degree": self.total_degree,
            "determined": self.determined,
            "upper_bound": self.upper_bound,
        }
        if self.determined:
            out["dimension"] = self.dimension
        else:
            out["blocking"] = [list(map(list, pair[:2])) + [pair[2]] for pair in self.blocking]
        return out


def _may_join(
    source: Mapping[Weight, int] | None, target: Mapping[Weight, int] | None
) -> bool:
    """The isolation rule: whether a map between two groups of GL(V)-weights may be nonzero.

    Each argument maps highest weights to multiplicities, None or empty for
    a zero group. The rule takes a map to vanish unless both sides are
    nonzero and share an irreducible constituent. It decides both the page
    differentials (``_entry_blocking``) and the comparison maps of the
    restriction sequence (``koszul_analysis``, from each page entry of the
    degree to the ambient group). It is unsound outside the
    paper's rows: the differentials contract with the fixed cubic f, which
    is not GL(V)-invariant, so disjoint isotypic supports do not force them
    to vanish (ROADMAP item 1, whose fix replaces this predicate; the
    witness is tests/test_koszul.py::test_isolation_rule_witness).
    """
    return bool(source) and bool(target) and not source.keys().isdisjoint(target)


def _entry_blocking(
    groups: Mapping[tuple[int, int], Mapping[Weight, int]], p_min: int, p: int, q: int
) -> tuple[BlockingPair, ...]:
    """The later differentials into or out of the nonzero entry (p, q) that may be nonzero."""
    mine = groups[p, q]
    return tuple(
        ((p, q), (pp, qq), r)
        for r in range(1, -p_min + 1)
        for pp, qq in ((p - r, q + r - 1), (p + r, q - r + 1))
        if _may_join(mine, groups.get((pp, qq)))
    )


def analyze(page: KoszulPage) -> dict[int, DegreeVerdict]:
    """Per-total-degree verdicts about the abutment of the page.

    Only a total degree with a nonzero entry gets a verdict, in increasing
    order; the abutment vanishes in every other degree. A degree is
    determined exactly when every contributing entry is
    differential-isolated (``_may_join`` admits no partner); its
    dimension is then the plain sum of the entry dimensions. The constituents of every entry are read from one
    {(p, q): group} map of the page.
    """
    groups = {
        (p, q): group for p, col in page.columns.items() for q, group in col._groups.items()
    }
    p_min = page.p_min
    by_degree: dict[int, list[tuple[int, int, int]]] = {}
    for p, q, dim in page.nonzero_entries():
        by_degree.setdefault(p + q, []).append((p, q, dim))
    verdicts: dict[int, DegreeVerdict] = {}
    for m, entries in sorted(by_degree.items()):
        upper = sum(dim for _, _, dim in entries)
        blocking = [pair for p, q, _ in entries for pair in _entry_blocking(groups, p_min, p, q)]
        if blocking:
            verdicts[m] = DegreeVerdict(m, False, None, upper, tuple(blocking))
        else:
            verdicts[m] = DegreeVerdict(m, True, upper, upper)
    return verdicts


class _DimValueFields(NamedTuple):
    lower: int
    upper: int


class DimValue(_DimValueFields):
    """An exactly known or merely bracketed non-negative dimension."""

    __slots__ = ()

    def __new__(cls, lower: int, upper: int) -> "DimValue":
        if not (isinstance(lower, int) and isinstance(upper, int) and 0 <= lower <= upper):
            raise ValueError(f"need integers 0 <= lower <= upper, got [{lower!r}, {upper!r}]")
        return super().__new__(cls, lower, upper)

    @classmethod
    def _make(cls, iterable) -> "DimValue":
        # _replace builds through _make; validate there too
        return cls(*iterable)

    @property
    def exact(self) -> int | None:
        return self.lower if self.lower == self.upper else None

    @classmethod
    def of(cls, value: int) -> "DimValue":
        return cls(value, value)


# A context fixes d, and the checks of one d share four keys. run_checks
# visits d-major, so four entries catch every reuse; more only hold memory.
ANALYSIS_CACHE_SIZE = 4


class KoszulAnalysis(NamedTuple):
    """What the ideal-sheaf page of one coefficient class F pins down.

    ``ideal[m]`` is the cohomology of (ideal sheaf of Z) tensor F in
    degree m and ``restricted[m]`` that of F restricted to Z, for
    0 <= m <= dim.
    """

    page: KoszulPage
    verdicts: Mapping[int, DegreeVerdict]
    ideal: tuple[DimValue, ...]
    restricted: tuple[DimValue, ...]


@lru_cache(maxsize=ANALYSIS_CACHE_SIZE)
def koszul_analysis(ctx: Grassmannian, coefficient: EquivariantClass) -> KoszulAnalysis:
    """Build and analyze the ideal-sheaf page, then assemble the restriction.

    The restriction uses the three-term exactness of 0 -> I(x)F -> F -> F|Z -> 0:

        h^m(F|Z) = (h^m(F) - rank a_m) + (h^(m+1)(I(x)F) - rank a_(m+1)),

    where a_m is the comparison map H^m(I(x)F) -> H^m(F). The rank is
    pinned when it is forced: a_0 is injective and a zero side forces
    rank 0. The isolation rule ``_may_join`` also takes rank 0 when no
    page entry of total degree m shares a constituent with H^m(F).
    Anything else keeps the value a range.
    """
    page = build_page(ctx, IDEAL_SHEAF, coefficient)
    verdicts = analyze(page)
    ambient = coefficient.cohomology()
    top = ctx.dimension

    # Only degrees where the page or the ambient is nonzero do any work;
    # every other value is zero, and so is every rank into or out of it.
    zero = DimValue.of(0)
    ambient_dim = {m: ambient.dimension(m) for m in ambient.degrees()}
    live = set(ambient_dim)
    ideal = [zero] * (top + 2)
    for m, v in verdicts.items():
        if 0 <= m <= top:
            ideal[m] = DimValue.of(v.dimension) if v.determined else DimValue(0, v.upper_bound)
            live.update((m - 1, m))

    def rank_bounds(a: DimValue, degree: int) -> DimValue:
        b_dim = ambient_dim.get(degree, 0)
        if a.upper == 0 or b_dim == 0:
            return zero
        if degree == 0:
            return a  # global sections of a subsheaf inject
        # H^m(I(x)F) is built from the page entries of total degree m
        target = ambient._groups.get(degree)
        entries = (col._groups.get(degree - p) for p, col in page.columns.items())
        if not any(_may_join(entry, target) for entry in entries):
            return zero
        return DimValue(0, min(a.upper, b_dim))

    restricted = [zero] * (top + 1)
    for m in sorted(live - {-1}):
        a_here, a_next = ideal[m], ideal[m + 1]
        r_here, r_next = rank_bounds(a_here, m), rank_bounds(a_next, m + 1)
        b_here = ambient_dim.get(m, 0)
        lower = (b_here - r_here.upper) + max(0, a_next.lower - r_next.upper)
        upper = (b_here - r_here.lower) + (a_next.upper - r_next.lower)
        restricted[m] = DimValue(max(0, lower), max(0, upper))
    return KoszulAnalysis(
        page, MappingProxyType(verdicts), tuple(ideal[: top + 1]), tuple(restricted)
    )


def ideal_sheaf_cohomology(
    ctx: Grassmannian, coefficient: EquivariantClass
) -> dict[int, DimValue]:
    """Cohomology of (ideal sheaf of Z) tensor F, per degree, from the page verdicts."""
    return dict(enumerate(koszul_analysis(ctx, coefficient).ideal))


def restricted_cohomology(
    ctx: Grassmannian, coefficient: EquivariantClass
) -> dict[int, DimValue]:
    """Cohomology of F restricted to the zero locus Z, per degree (see koszul_analysis)."""
    return dict(enumerate(koszul_analysis(ctx, coefficient).restricted))


class DeformationNumbers(NamedTuple):
    """First-order deformation bookkeeping for one side of the correspondence.

    ``h1_tangent`` is assembled as h0_normal minus h0 of the restricted
    ambient tangent sheaf; the assembly is valid because the consumed
    axiom kills global tangent fields of Z and the computed H^1 of the
    restricted ambient tangent sheaf is zero.
    """

    d: int
    side: str
    h0_normal: int
    h0_ambient_tangent_restricted: int
    h1_tangent: int
    axioms_used: tuple[str, ...]


def deformation_numbers(d: int, side: str) -> DeformationNumbers:
    """Number of first-order deformations, for the hypersurface or its line scheme.

    side "cubic" works on projective space with normal class O(3) and
    needs d >= 3; side "fano" works on the Grassmannian of 2-planes with
    the dual cubic power of S as normal class and needs d >= 5. Raises
    UnderdeterminedError when a needed verdict is only a range.
    """
    side = side.lower()
    if side == "cubic":
        if d < 3:
            raise ValueError("cubic side needs d >= 3")
        ctx = Grassmannian.projective_space(d + 2)
        axiom = "H0_tangent_cubic_zero"
    elif side == "fano":
        if d < 5:
            raise ValueError("fano side needs d >= 5")
        ctx = Grassmannian(2, d + 2)
        axiom = "H0_tangent_fano_zero"
    else:
        raise ValueError(f"unknown side {side!r}")

    tangent = named_class(ctx, "tangent")
    normal = named_class(ctx, "sym_cube_dual")
    restricted_tangent = koszul_analysis(ctx, tangent).restricted
    restricted_normal = koszul_analysis(ctx, normal).restricted
    h0_tangent = restricted_tangent[0].exact
    h1_tangent_ambient = restricted_tangent[1].exact
    h0_normal = restricted_normal[0].exact
    if h0_tangent is None or h1_tangent_ambient is None or h0_normal is None:
        raise UnderdeterminedError(
            f"restricted cohomology not pinned down at d={d}, side={side}"
        )
    if h1_tangent_ambient != 0:
        raise UnderdeterminedError(
            "H^1 of the restricted ambient tangent sheaf does not vanish; "
            "the connecting map is not forced surjective"
        )
    return DeformationNumbers(
        d=d,
        side=side,
        h0_normal=h0_normal,
        h0_ambient_tangent_restricted=h0_tangent,
        h1_tangent=h0_normal - h0_tangent,
        axioms_used=(axiom,),
    )


def euler_consistency(ctx: Grassmannian, coefficient: EquivariantClass) -> bool:
    """Alternating-sum cross-check between the two page variants.

    The Euler characteristic of the restriction page must equal the
    alternating sum of the restricted dimensions (when those are all
    exact, which routes through the ideal-sheaf page and the ambient
    cohomology instead) and, unconditionally, the ambient Euler
    characteristic minus that of the ideal-sheaf page.
    """
    chi_page = build_page(ctx, RESTRICTION, coefficient).euler_characteristic()
    analysis = koszul_analysis(ctx, coefficient)
    if all(v.exact is not None for v in analysis.restricted):
        chi_restricted = sum((-1) ** m * v.exact for m, v in enumerate(analysis.restricted))
        if chi_restricted != chi_page:
            return False
    return chi_page == (
        coefficient.euler_characteristic() - analysis.page.euler_characteristic()
    )


def factor_pages(
    ctx: Grassmannian,
) -> dict[tuple[str, int], tuple[EquivariantClass, CohomologyProfile]]:
    """The terms and columns of the memoised ideal-sheaf pages of the two factors.

    The factors are the tangent bundle and the dual cubic power, labelled
    "tangent" and "sym3dual" as in the displayed decompositions. Keyed by
    (label, wedge level), in that order and with levels increasing; the
    value is the Koszul term of that level and its cohomology, the classes
    and groups of the vanishing table.
    """
    out = {}
    for label, name in (("tangent", "tangent"), ("sym3dual", "sym_cube_dual")):
        page = koszul_analysis(ctx, named_class(ctx, name)).page
        for p in sorted(page.columns, key=page.wedge_level):
            out[label, page.wedge_level(p)] = page.terms[p], page.columns[p]
    return out
