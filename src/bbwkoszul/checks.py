"""Named claim checks over a range of d, with machine-readable results.

Each check recomputes one package of claimed values from scratch and
compares against the frozen expectations bundled in data/expected.json,
which also holds the displayed decompositions and the axioms the report
consumes. The file is validated once, when this module loads it.
A mismatch between a correct computation and a claimed placement is a
finding, not an engine failure: it gets the dedicated status
"paper-discrepancy" (and a nonzero exit only under the strict flag).
"""

from __future__ import annotations

import json
from collections import Counter
from functools import lru_cache
from importlib import resources
from math import comb
from typing import Callable, NamedTuple

from ._version import __version__
from .bbw import Bundle, Grassmannian, validate_bundle
from .classes import EquivariantClass, det_shift, named_class, wedge_class
from .koszul import (
    DimValue,
    deformation_numbers,
    euler_consistency,
    factor_pages,
    ideal_sheaf_cohomology,
    koszul_analysis,
    restricted_cohomology,
)
from .weights import Weight, wedge_weights

PASS = "pass"
FAIL = "fail"
UNDETERMINED = "undetermined"
DISCREPANCY = "paper-discrepancy"
SKIPPED = "skipped"


class UsageError(ValueError):
    """Bad check ids or an invalid d range."""


FORMULAS: dict[str, Callable[[int], int]] = {
    "binom(d+2,3)": lambda d: comb(d + 2, 3),
    "binom(d+4,3)": lambda d: comb(d + 4, 3),
    "binom(d+4,3)-1": lambda d: comb(d + 4, 3) - 1,
    "(d+2)^2-1": lambda d: (d + 2) ** 2 - 1,
}


class Axiom(NamedTuple):
    """An externally established vanishing consumed by the bookkeeping."""

    name: str
    statement: str
    source: str

    def to_dict(self) -> dict:
        return self._asdict()


# (wedge level, factor label, quotient head, quotient fill, subbundle weights with multiplicity)
_Line = tuple[int, str, Weight, int, tuple[tuple[Weight, int], ...]]


def _claimed_line(line: dict) -> _Line:
    head, fill = tuple(line["quotient"]["head"]), line["quotient"]["fill"]
    if len(head) > 1:
        raise ValueError(f"claimed line {line}: a quotient head has at most one entry")
    level, factor = line["level"], line["factor"]
    # factor_pages has these factors on every Gr(2, d + 2), with wedge levels 1..4
    if factor not in ("tangent", "sym3dual") or not (isinstance(level, int) and 1 <= level <= 4):
        raise ValueError(f"claimed line {line}: no Koszul term of that factor and level")
    subbundle = Counter(tuple(mu) for mu in line["subbundle"])
    for mu in subbundle:  # at d = 3, which covers every d (see _load_expected)
        validate_bundle(Grassmannian(2, 5), Bundle(head + (fill,) * (3 - len(head)), mu))
    return level, factor, head, fill, tuple(subbundle.items())


def _resolve_value(row: dict) -> tuple[object, Callable[[int], int] | None]:
    """A row's value as (constant, None) or (None, its formula in d)."""
    value = row["value"]
    if row["check"] == "plethysm-eq4" and isinstance(value, list):
        for mu in value:  # subbundle weights under the trivial quotient weight
            validate_bundle(Grassmannian(2, 5), Bundle((0, 0, 0), tuple(mu)))
        return value, None
    if row["check"] != "plethysm-eq4" and isinstance(value, str):
        if value in FORMULAS:
            return None, FORMULAS[value]
        if value.isascii() and value.isdigit():
            return int(value), None
    raise ValueError(f"expected-values row {row}: not a formula, an integer or weights")


def _load_expected(
    document: dict,
) -> tuple[dict[str, tuple[tuple, str]], tuple[_Line, ...], dict[str, Axiom]]:
    """The plans, the claimed lines and the axioms of a parsed expected.json.

    A check's plan is its rows by field, as (field, constant, formula in
    d), and their joined provenance. A row value must be a ``FORMULAS``
    token, decimal digits or, in plethysm-eq4 only, a list of weights; a
    check not in ``CATALOG`` or a repeated (check, field) is rejected.
    Each claimed line is validated here, once for every d >= 3. Its
    quotient weight is a head of at most one entry, so weakly decreasing,
    padded by the fill to length d: the same entries at every d. A head
    not smaller than the fill then gives a dominant integral weight of
    length d for every d >= 3, exactly when it does at d = 3. So the one
    bundle validator, run on Gr(2, 5), covers every context Gr(2, d + 2),
    and the decompositions check builds each d's claimed classes
    unchecked. A line's factor and wedge level must name a term of
    ``factor_pages``. The plethysm rows list subbundle weights under the
    trivial quotient weight, a head of none and a fill of 0, so they get
    the same check and the plethysm check builds its targets unchecked
    too. A document of any other schema is rejected.
    """
    if document.get("schema") != "expected-values@2":
        raise ValueError(f"unknown expected-values schema {document.get('schema')!r}")
    catalog = {c.check_id for c in CATALOG}
    by_check: dict[str, dict[str, dict]] = {}
    for row in document["rows"]:
        fields = by_check.setdefault(row["check"], {})
        if row["check"] not in catalog or row["field"] in fields:
            raise ValueError(f"expected-values row {row}: unknown check or repeated field")
        fields[row["field"]] = row
    plans = {}
    for check, fields in by_check.items():
        rows = sorted(fields.items())
        plans[check] = (
            tuple((field, *_resolve_value(row)) for field, row in rows),
            "; ".join(f"{field} = {row['value']} ({row['provenance']})" for field, row in rows),
        )
    lines = tuple(map(_claimed_line, document["claimed_lines"]))
    axioms = {row["name"]: Axiom(**row) for row in document["axioms"]}
    return plans, lines, axioms


def _evaluate(rows: tuple, d: int | None) -> dict:
    """A plan's rows at d, as {field: value}."""
    return {field: value if formula is None else formula(d) for field, value, formula in rows}


def expected_value(check: str, field: str, d: int):
    return _evaluate(_PLANS[check][0], d)[field]


def _dv(value: DimValue):
    return value.exact if value.exact is not None else {"lower": value.lower, "upper": value.upper}


def _plane(d: int) -> Grassmannian:
    return Grassmannian(2, d + 2)


# ---------------------------------------------------------------------------
# runners, bound to their catalog entries as CheckDef.run: each is called with
# d (None when d-independent) and exp, the check's rows of expected.json
# evaluated at d as {field: value}, and returns
# (status, computed, expected, notes, axiom_names)
#
# The runners that cross-check against the oracles import them when they
# run, so a report without those rows does not load bbwkoszul.oracles.


def _run_example_universal(d: int, exp: dict):
    ctx = _plane(d)
    dual = named_class(ctx, "sym_cube_dual").cohomology()
    tangent = named_class(ctx, "tangent").cohomology()
    dual_weight = (0,) * (d + 1) + (-3,)
    tan_weight = (1,) + (0,) * d + (-1,)
    computed = {
        "sym_cube_dual": {"degrees": dual.degrees(), "h0": dual.dimension(0)},
        "tangent": {"degrees": tangent.degrees(), "h0": tangent.dimension(0)},
    }
    ok = (
        dual.degrees() == [0]
        and dual.dimension(0) == exp["h0_sym_cube_dual"]
        and dual.weights(0) == Counter({dual_weight: 1})
        and tangent.degrees() == [0]
        and tangent.dimension(0) == exp["h0_tangent"]
        and tangent.weights(0) == Counter({tan_weight: 1})
    )
    return (PASS if ok else FAIL), computed, {"sole_degree": 0, **exp}, "", ()


def _run_lemma_s(d: int, exp: dict):
    prof = named_class(_plane(d), "sym_cube_dual").cohomology()
    computed = {"degrees": prof.degrees(), "h0": prof.dimension(0)}
    ok = prof.degrees() == [0] and prof.dimension(0) == exp["h0_sym_cube_dual"]
    return (PASS if ok else FAIL), computed, exp, "", ()


# (level, weights) keys of the plethysm identity: one per exterior power
# the plethysm-eq4 check compares, and one per power the d = 5
# lemma-cohomology cross-check reads off wedge_weights, which may list the
# same weights in another order: at most six per run, whatever the d range.
PLETHYSM_CACHE_SIZE = 8


@lru_cache(maxsize=PLETHYSM_CACHE_SIZE)
def _plethysm_character_ok(level: int, weights: tuple[Weight, ...]) -> bool:
    """Whether the weights, with multiplicity, carry the character of wedge^level Sym^3 C^2.

    The identity does not depend on d, so each (level, weights) is compared once.
    """
    from .oracles import character_of_combination, elementary_character

    return character_of_combination(Counter(weights)) == elementary_character((3, 0), level)


def _run_plethysm(d: int, exp: dict):
    ctx = _plane(d)
    sym3 = named_class(ctx, "sym_cube")
    zero_q = (0,) * ctx.quotient_rank
    computed: dict = {}
    ok = True
    for level in (2, 3, 4):
        expected_weights = [tuple(w) for w in exp[f"wedge{level}"]]
        # each weight counted as often as it is listed; _load_expected
        # validated the weights for every d
        target = EquivariantClass._trusted(
            ctx, dict(Counter(Bundle(zero_q, mu) for mu in expected_weights))
        )
        power = wedge_class(sym3, level)
        char_ok = _plethysm_character_ok(level, tuple(expected_weights))
        computed[f"wedge{level}"] = sorted(list(b.mu_s) for b in power.summands())
        ok = ok and power == target and char_ok
    expected = {field: sorted(weights) for field, weights in exp.items()}
    return (PASS if ok else FAIL), computed, expected, "", ()


def _run_decompositions(d: int, exp: dict):
    """Each displayed decomposition against its Koszul term, up to a determinant twist.

    The left-hand side is the term of that wedge level on the memoised
    ideal-sheaf page of the factor; the right-hand side is the claimed
    line at d, valid because ``_load_expected`` validated it for every d.
    """
    ctx = _plane(d)
    factors = factor_pages(ctx)
    lines = []
    for level, factor, head, fill, subbundle in _CLAIMED_LINES:
        lam = head + (fill,) * (d - len(head))
        claimed = EquivariantClass._trusted(ctx, {Bundle(lam, mu): m for mu, m in subbundle})
        shift = det_shift(factors[factor, level][0], claimed)
        lines.append(
            {"line": f"wedge{level}_{factor}", "matches": shift is not None, "det_shift": shift}
        )
    computed = {"lines": lines, "lines_matching": sum(line["matches"] for line in lines)}
    ok = computed["lines_matching"] == exp["lines_matching"] == len(lines)
    return (PASS if ok else FAIL), computed, exp, "", ()


def _lemma_profiles(d: int):
    """Koszul-term cohomologies, read off the memoised ideal-sheaf pages.

    Returns the context, {(factor label, level): profile} from
    ``factor_pages`` and the pairing, which is level 1 of the normal side.
    """
    ctx = _plane(d)
    profiles = {key: column for key, (_, column) in factor_pages(ctx).items()}
    pairing = profiles.pop(("sym3dual", 1))
    return ctx, profiles, pairing


def _run_lemma_cohomology(d: int, exp: dict):
    ctx, profiles, pairing = _lemma_profiles(d)
    hits = {key: prof for key, prof in profiles.items() if not prof.is_empty}
    nonzero = {
        f"wedge{level}_{label}": {str(q): prof.dimension(q) for q in prof.degrees()}
        for (label, level), prof in hits.items()
    }
    pairing_ok = (
        pairing.degrees() == [0]
        and pairing.dimension(0) == exp["h0_pairing"]
        and pairing.weights(0) == Counter({(0,) * (d + 2): 1})
    )
    computed = {"nonzero": nonzero, "h0_pairing": pairing.dimension(0)}
    if d >= 6:
        expected = {"nonzero": {}, "h0_pairing": exp["h0_pairing"]}
        ok = not nonzero and pairing_ok
        return (PASS if ok else FAIL), computed, expected, "", ()

    # d = 5: exactly two surviving groups, dimension 7 each
    expected = {
        "extra_groups": exp["extra_groups_d5"],
        "group_dimension": exp["group_dimension_d5"],
        **{
            f"{side}_side": {key: exp[f"{side}_side_{key}_d5"] for key in ("wedge", "degree")}
            for side in ("tangent", "normal")
        },
        "h0_pairing": exp["h0_pairing"],
    }
    tangent, normal = expected["tangent_side"], expected["normal_side"]
    group = expected["group_dimension"]
    tangent_levels = [level for label, level in hits if label == "tangent"]
    normal_levels = [level for label, level in hits if label == "sym3dual"]
    structure_ok = (
        pairing_ok
        and len(nonzero) == expected["extra_groups"]
        and tangent_levels == [tangent["wedge"]]
        and nonzero[f"wedge{tangent['wedge']}_tangent"] == {str(tangent["degree"]): group}
        and len(normal_levels) == 1
        and nonzero[f"wedge{normal_levels[0]}_sym3dual"] == {str(normal["degree"]): group}
    )
    if not structure_ok:
        return FAIL, computed, expected, "", ()
    level_found = normal_levels[0]
    computed["normal_side_wedge_level"] = level_found
    if level_found == normal["wedge"]:
        return PASS, computed, expected, "", ()
    # the placement differs from the claim; make sure the engine's own
    # cross-checks hold before reporting it as a finding
    cross_ok = all(
        _plethysm_character_ok(lvl, tuple(Counter(wedge_weights((3, 0), lvl)).elements()))
        for lvl in (2, 3, 4)
    ) and euler_consistency(ctx, named_class(ctx, "sym_cube_dual"))
    if not cross_ok:
        return FAIL, computed, expected, "internal cross-checks failed", ()
    notes = (
        f"the degree-5 group sits on exterior power {level_found}, "
        f"claimed placement is level {normal['wedge']}; "
        "dimension, degree and all internal cross-checks agree"
    )
    return DISCREPANCY, computed, expected, notes, ()


def _proposition(d: int, side: str, label: str, ideal_degrees: int):
    """The package both propositions share, on the ambient space of one side.

    The normal class is the dual cubic power of S on both sides (on
    projective space, the class of O(3)); ``label`` names it in the keys.
    Returns the context, the computed values and the axioms consumed by
    the deformation count.
    """
    ctx = Grassmannian.projective_space(d + 2) if side == "cubic" else _plane(d)
    normal = named_class(ctx, "sym_cube_dual")
    ideal = ideal_sheaf_cohomology(ctx, normal)
    restricted_normal = restricted_cohomology(ctx, normal)
    restricted_tangent = restricted_cohomology(ctx, named_class(ctx, "tangent"))
    numbers = deformation_numbers(d, side)
    computed = {f"h{q}_ideal_{label}": _dv(ideal[q]) for q in range(ideal_degrees)}
    computed[f"restricted_h0_{label}"] = _dv(restricted_normal[0])
    computed["restricted_h0_tangent"] = _dv(restricted_tangent[0])
    computed["restricted_h1_tangent"] = _dv(restricted_tangent[1])
    computed["h1_tangent"] = numbers.h1_tangent
    return ctx, computed, numbers.axioms_used


def _run_prop_cubic(d: int, exp: dict):
    ctx, computed, axioms = _proposition(d, "cubic", "twist", ideal_degrees=2)
    twisted_tangent = named_class(ctx, "tangent").tensor(named_class(ctx, "O(-3)"))
    computed["twisted_tangent_acyclic"] = twisted_tangent.cohomology().is_empty
    expected = {**exp, "twisted_tangent_acyclic": True}
    status = PASS if computed == expected else FAIL
    return status, computed, expected, "", axioms + ("Hq_tangent_cubic_zero",)


def _run_prop_fano(d: int, exp: dict):
    _, computed, axioms = _proposition(d, "fano", "normal", ideal_degrees=3)
    status = PASS if computed == exp else FAIL
    return status, computed, exp, "", axioms + ("KAN_vanishing",)


def _run_theorem_moduli(d: int, exp: dict):
    cubic = deformation_numbers(d, "cubic")
    fano = deformation_numbers(d, "fano")
    computed = {"h1_cubic": cubic.h1_tangent, "h1_fano": fano.h1_tangent}
    ok = cubic.h1_tangent == fano.h1_tangent == exp["h1_tangent"]
    axioms = cubic.axioms_used + fano.axioms_used
    return (PASS if ok else FAIL), computed, exp, "", axioms


def _run_remark_d34(d: int, _exp: dict):
    ctx = _plane(d)
    computed = {}
    for name in ("tangent", "sym_cube_dual"):
        analysis = koszul_analysis(ctx, named_class(ctx, name))
        computed[name] = {
            "nonzero_entries": [list(entry) for entry in analysis.page.nonzero_entries()],
            "ideal_verdicts": {str(m): v.to_dict() for m, v in analysis.verdicts.items()},
            "restricted": {
                str(m): _dv(value)
                for m, value in enumerate(analysis.restricted)
                if value.upper
            },
        }
    notes = "informational: first-page evidence only, no claimed value asserted"
    return PASS, computed, None, notes, ()


def _run_oracles(_d: None, _exp: dict):
    from .oracles import euler_suite, gl2_suite, lr_suite, serre_suite, ssyt_weyl_suite

    suites = {
        "ssyt_vs_weyl": ssyt_weyl_suite(6, 5),
        "lr_tableaux_vs_products": lr_suite(4),
        "gl2_characters": gl2_suite(6),
        "serre_symmetry": serre_suite(per_context=60),
        "euler_consistency": euler_suite(range(5, 9)),
    }
    computed = {
        name: {"cases": r["cases"], "failures": r["failures"][:5]}
        for name, r in suites.items()
    }
    ok = all(not r["failures"] for r in suites.values())
    return (PASS if ok else FAIL), computed, {"failures": 0}, "", ()


# ---------------------------------------------------------------------------
# catalog


class CheckDef(NamedTuple):
    check_id: str
    description: str
    claim: str
    run: Callable[..., tuple]
    min_d: int = 3
    only_d: tuple[int, ...] | None = None
    informational: bool = False
    d_independent: bool = False

    @property
    def applicability(self) -> str:
        if self.d_independent:
            return "any"
        if self.only_d:
            return "d in {" + ", ".join(map(str, self.only_d)) + "}"
        return f"d >= {self.min_d}"

    def applies(self, d: int) -> bool:
        if self.only_d is not None:
            return d in self.only_d
        return d >= self.min_d


CATALOG: tuple[CheckDef, ...] = (
    CheckDef(
        "example-universal",
        "Cohomology of the dual cubic power of S and of the tangent bundle on the ambient Grassmannian.",
        "claim: each has a single group, in degree 0, of dimensions binom(d+4,3) and (d+2)^2-1",
        _run_example_universal,
    ),
    CheckDef(
        "lemma-s",
        "Dimension identity for evaluating cubic forms along 2-planes.",
        "claim: h0 of the dual cubic power equals the number of cubic monomials in d+2 variables",
        _run_lemma_s,
    ),
    CheckDef(
        "plethysm-eq4",
        "Closed-form exterior powers of the cubic power of a rank-2 bundle, with a character-oracle cross-check.",
        "claim: wedge2 = (5,1)+(3,3), wedge3 = (6,3), wedge4 = (6,6)",
        _run_plethysm,
    ),
    CheckDef(
        "decompositions",
        "The eight tensor decompositions feeding the vanishing table, compared up to determinant twist.",
        "claim: all eight displayed right-hand sides are correct modulo det V",
        _run_decompositions,
    ),
    CheckDef(
        "lemma-cohomology",
        "Acyclicity table for the Koszul-term classes; at d=5, the two exceptional groups and the wedge-level protocol.",
        "claim: everything acyclic for d >= 6; at d = 5 exactly two 7-dimensional groups, in degrees 4 and 5",
        _run_lemma_cohomology,
        min_d=5,
    ),
    CheckDef(
        "prop-cubic",
        "Hypersurface-side package: twisted ideal sections, tangent restriction isomorphism, deformation count.",
        "claim: h0(I(3)) = 1, h1 = 0; tangent fields restrict isomorphically; h1 of the tangent sheaf is binom(d+2,3)",
        _run_prop_cubic,
    ),
    CheckDef(
        "prop-fano",
        "Line-scheme-side package: normal-class sections drop by one, tangent restriction isomorphism, deformation count.",
        "claim: restriction of normal-class sections is onto with a 1-dimensional kernel; h1 of the tangent sheaf is binom(d+2,3)",
        _run_prop_fano,
        min_d=5,
    ),
    CheckDef(
        "theorem-moduli",
        "The two first-order deformation counts agree.",
        "claim: h1 of both tangent sheaves equals binom(d+2,3)",
        _run_theorem_moduli,
        min_d=5,
    ),
    CheckDef(
        "remark-d34",
        "First pages and verdicts at d = 3, 4; entries may interact, nothing is asserted.",
        "informational: low-d behavior differs; evidence only",
        _run_remark_d34,
        only_d=(3, 4),
        informational=True,
    ),
    CheckDef(
        "oracles",
        "Dual-route property suites: tableau counts vs product formula, LR vs polynomial products, rank-2 characters, Serre symmetry, Euler consistency.",
        "derived: every suite must come back clean",
        _run_oracles,
        d_independent=True,
    ),
)

_PLANS, _CLAIMED_LINES, AXIOMS = _load_expected(
    json.loads(resources.files("bbwkoszul").joinpath("data/expected.json").read_text())
)
# a check with no rows in expected.json
_NO_ROWS = ((), "derived: dual-route property suites")


class CheckResult(NamedTuple):
    check: str
    d: int | None
    status: str
    computed: object
    expected: object
    provenance: str
    axioms: tuple[dict, ...]
    notes: str

    def to_dict(self) -> dict:
        # shallow: the computed and expected values are not copied
        return self._asdict()


class Report(NamedTuple):
    version: str
    d_min: int
    d_max: int
    checks: tuple[str, ...]
    results: tuple[CheckResult, ...]

    @property
    def summary(self) -> dict[str, int]:
        # keys in report order; every status but DISCREPANCY is its own key
        tally = dict.fromkeys((PASS, FAIL, UNDETERMINED, "discrepancy", SKIPPED), 0)
        for r in self.results:
            tally["discrepancy" if r.status == DISCREPANCY else r.status] += 1
        return tally

    def exit_code(self, strict_paper: bool = False) -> int:
        summary = self.summary
        if summary["fail"]:
            return 1
        if strict_paper and summary["discrepancy"]:
            return 3
        return 0

    def to_dict(self, timestamp: str | None = None) -> dict:
        params = {
            "d_min": self.d_min,
            "d_max": self.d_max,
            "checks": list(self.checks),
            # checks run one at a time; the field stays in the report schema
            "jobs": 1,
        }
        if timestamp is not None:
            params["timestamp"] = timestamp
        return {
            "version": self.version,
            "params": params,
            "results": [r.to_dict() for r in self.results],
            "summary": self.summary,
        }


def list_checks() -> list[dict]:
    """Static catalog: id, one-line description, claim anchor, applicability."""
    return [
        {
            "id": c.check_id,
            "description": c.description,
            "claim": c.claim,
            "applicability": c.applicability,
            "informational": c.informational,
        }
        for c in CATALOG
    ]


def _resolve(check_ids) -> tuple[CheckDef, ...]:
    if isinstance(check_ids, str):
        raise UsageError(f"expected a collection of check ids, got the string {check_ids!r}")
    # read once: an iterator gives the same checks as its list
    ids = list(check_ids or ())
    if not ids:
        return CATALOG
    by_id = {c.check_id: c for c in CATALOG}
    # the type test first: an unhashable id cannot be looked up
    unknown = [c for c in ids if not (isinstance(c, str) and c in by_id)]
    if unknown:
        raise UsageError(f"unknown check ids: {', '.join(sorted(map(repr, unknown)))}")
    wanted = set(ids)
    return tuple(c for c in CATALOG if c.check_id in wanted)


def _execute(cdef: CheckDef, d: int | None, plan: tuple) -> CheckResult:
    rows, provenance = plan
    if d is not None and not cdef.applies(d):
        outcome = (SKIPPED, None, None, f"skipped: applies for {cdef.applicability}", ())
    else:
        outcome = cdef.run(d, _evaluate(rows, d))
    status, computed, expected, notes, axiom_names = outcome
    # a fresh dict per row, so that no two rows share a mutable dict
    axioms = tuple(AXIOMS[name].to_dict() for name in dict.fromkeys(axiom_names))
    return CheckResult(
        check=cdef.check_id,
        d=d,
        status=status,
        computed=computed,
        expected=expected,
        provenance=provenance,
        axioms=axioms,
        notes=notes,
    )


def run_checks(d_min: int = 3, d_max: int = 12, check_ids=None) -> Report:
    """Run the selected checks over d_min..d_max and assemble a report.

    Checks whose hypotheses exclude a d produce a skipped row for it; the
    d-independent oracle suites produce a single row with d = null.
    """
    if not (isinstance(d_min, int) and isinstance(d_max, int) and 3 <= d_min <= d_max):
        raise UsageError(f"need integers 3 <= d_min <= d_max, got {d_min!r}..{d_max!r}")
    defs = _resolve(check_ids)
    # d-major, so that the checks of one d reuse its Koszul analyses while
    # they are still memoised; the results are sorted below
    tasks: list[tuple[CheckDef, int | None]] = [
        (cdef, None) for cdef in defs if cdef.d_independent
    ]
    for d in range(d_min, d_max + 1):
        tasks.extend((cdef, d) for cdef in defs if not cdef.d_independent)
    results = [_execute(cdef, d, _PLANS.get(cdef.check_id, _NO_ROWS)) for cdef, d in tasks]
    order = {c.check_id: i for i, c in enumerate(CATALOG)}
    results.sort(key=lambda r: (order[r.check], r.d if r.d is not None else -1))
    return Report(
        version=__version__,
        d_min=d_min,
        d_max=d_max,
        checks=tuple(c.check_id for c in defs),
        results=tuple(results),
    )
