"""Named claim checks over a range of d, with machine-readable results.

Each check recomputes one package of claimed values from scratch and
compares against the frozen expectations bundled in data/expected.json.
A mismatch between a correct computation and a claimed placement is a
finding, not an engine failure: it gets the dedicated status
"paper-discrepancy" (and a nonzero exit only under the strict flag).
"""

from __future__ import annotations

import json
from collections import Counter
from dataclasses import dataclass
from importlib import resources
from math import comb
from typing import Callable

from ._version import __version__
from .bbw import Bundle, Grassmannian
from .classes import EquivariantClass, named_class, wedge_class
from .gl2 import wedge_power_gl2
from .koszul import (
    AXIOMS,
    DimValue,
    deformation_numbers,
    euler_consistency,
    factor_pages,
    ideal_sheaf_cohomology,
    koszul_analysis,
    restricted_cohomology,
    verify_claimed_decompositions,
)
from .oracles import (
    character_of_combination,
    elementary_character,
    euler_suite,
    gl2_suite,
    lr_suite,
    serre_suite,
    ssyt_weyl_suite,
)

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


def _load_expected() -> dict[tuple[str, str], dict]:
    text = resources.files("bbwkoszul").joinpath("data/expected.json").read_text()
    data = json.loads(text)
    return {(row["check"], row["field"]): row for row in data["rows"]}


_EXPECTED = _load_expected()


def expected_value(check: str, field: str, d: int):
    row = _EXPECTED[(check, field)]
    value = row["value"]
    if isinstance(value, str):
        if value in FORMULAS:
            return FORMULAS[value](d)
        return int(value)
    return value


def _provenance(check: str) -> str:
    rows = [row for (c, _), row in sorted(_EXPECTED.items()) if c == check]
    if not rows:
        return "derived: dual-route property suites"
    return "; ".join(
        f"{row['field']} = {row['value']} ({row['provenance']})" for row in rows
    )


def _dv(value: DimValue):
    return value.exact if value.exact is not None else {"lower": value.lower, "upper": value.upper}


def _plane(d: int) -> Grassmannian:
    return Grassmannian(2, d + 2)


def _line(d: int) -> Grassmannian:
    return Grassmannian.projective_space(d + 2)


# ---------------------------------------------------------------------------
# runners, bound to their catalog entries as CheckDef.run: each is called with d
# (with nothing when d-independent) and returns
# (status, computed, expected, notes, axiom_names)


def _run_example_universal(d: int):
    ctx = _plane(d)
    dual = named_class(ctx, "sym_cube_dual").cohomology()
    tangent = named_class(ctx, "tangent").cohomology()
    exp_dual = expected_value("example-universal", "h0_sym_cube_dual", d)
    exp_tan = expected_value("example-universal", "h0_tangent", d)
    dual_weight = (0,) * (d + 1) + (-3,)
    tan_weight = (1,) + (0,) * d + (-1,)
    computed = {
        "sym_cube_dual": {"degrees": dual.degrees(), "h0": dual.dimension(0)},
        "tangent": {"degrees": tangent.degrees(), "h0": tangent.dimension(0)},
    }
    ok = (
        dual.degrees() == [0]
        and dual.dimension(0) == exp_dual
        and dual.weights(0) == Counter({dual_weight: 1})
        and tangent.degrees() == [0]
        and tangent.dimension(0) == exp_tan
        and tangent.weights(0) == Counter({tan_weight: 1})
    )
    expected = {"sole_degree": 0, "h0_sym_cube_dual": exp_dual, "h0_tangent": exp_tan}
    return (PASS if ok else FAIL), computed, expected, "", ()


def _run_lemma_s(d: int):
    ctx = _plane(d)
    prof = named_class(ctx, "sym_cube_dual").cohomology()
    exp = expected_value("lemma-s", "h0_sym_cube_dual", d)
    computed = {"degrees": prof.degrees(), "h0": prof.dimension(0)}
    ok = prof.degrees() == [0] and prof.dimension(0) == exp
    return (PASS if ok else FAIL), computed, {"h0_sym_cube_dual": exp}, "", ()


def _run_plethysm(d: int):
    ctx = _plane(d)
    sym3 = named_class(ctx, "sym_cube")
    zero_q = (0,) * ctx.quotient_rank
    computed: dict = {}
    expected: dict = {}
    ok = True
    for level in (2, 3, 4):
        expected_weights = [tuple(w) for w in expected_value("plethysm-eq4", f"wedge{level}", d)]
        target = EquivariantClass(ctx, {Bundle(zero_q, mu): 1 for mu in expected_weights})
        power = wedge_class(sym3, level)
        char_ok = character_of_combination(
            Counter(expected_weights)
        ) == elementary_character((3, 0), level)
        computed[f"wedge{level}"] = sorted(list(b.mu_s) for b in power.summands())
        expected[f"wedge{level}"] = sorted(map(list, expected_weights))
        ok = ok and power == target and char_ok
    return (PASS if ok else FAIL), computed, expected, "", ()


def _run_decompositions(d: int):
    comparisons = verify_claimed_decompositions(d)
    computed = {
        "lines": [
            {"line": c.line_id, "matches": c.matches, "det_shift": c.shift}
            for c in comparisons
        ],
        "lines_matching": sum(c.matches for c in comparisons),
    }
    exp = expected_value("decompositions", "lines_matching", d)
    ok = computed["lines_matching"] == exp == len(comparisons)
    return (PASS if ok else FAIL), computed, {"lines_matching": exp}, "", ()


def _lemma_profiles(d: int):
    """Koszul-term cohomologies, read off the memoised ideal-sheaf pages.

    Column p of the page of F is the cohomology of the wedge_level(p)-th
    exterior power of the cubic power of S tensored with F. Returns the
    context, {(factor label, level): profile} and the pairing, which is
    level 1 of the normal side.
    """
    ctx = _plane(d)
    profiles = {}
    for label, page in factor_pages(ctx).items():
        for p in sorted(page.columns, key=page.wedge_level):
            profiles[label, page.wedge_level(p)] = page.columns[p]
    pairing = profiles.pop(("sym3dual", 1))
    return ctx, profiles, pairing


def _run_lemma_cohomology(d: int):
    ctx, profiles, pairing = _lemma_profiles(d)
    hits = {key: prof for key, prof in profiles.items() if not prof.is_empty}
    nonzero = {
        f"wedge{level}_{label}": {str(q): prof.dimension(q) for q in prof.degrees()}
        for (label, level), prof in hits.items()
    }
    exp_pairing = expected_value("lemma-cohomology", "h0_pairing", d)
    pairing_ok = (
        pairing.degrees() == [0]
        and pairing.dimension(0) == exp_pairing
        and pairing.weights(0) == Counter({(0,) * (d + 2): 1})
    )
    computed = {"nonzero": nonzero, "h0_pairing": pairing.dimension(0)}
    if d >= 6:
        expected = {"nonzero": {}, "h0_pairing": exp_pairing}
        ok = not nonzero and pairing_ok
        return (PASS if ok else FAIL), computed, expected, "", ()

    # d = 5: exactly two surviving groups, dimension 7 each
    exp = {
        "extra_groups": expected_value("lemma-cohomology", "extra_groups_d5", d),
        "group_dimension": expected_value("lemma-cohomology", "group_dimension_d5", d),
        "tangent_side": {
            "wedge": expected_value("lemma-cohomology", "tangent_side_wedge_d5", d),
            "degree": expected_value("lemma-cohomology", "tangent_side_degree_d5", d),
        },
        "normal_side": {
            "wedge": expected_value("lemma-cohomology", "normal_side_wedge_d5", d),
            "degree": expected_value("lemma-cohomology", "normal_side_degree_d5", d),
        },
        "h0_pairing": exp_pairing,
    }
    tangent_levels = [level for label, level in hits if label == "tangent"]
    normal_levels = [level for label, level in hits if label == "sym3dual"]
    structure_ok = (
        pairing_ok
        and len(nonzero) == exp["extra_groups"]
        and tangent_levels == [2]
        and nonzero.get("wedge2_tangent") == {"4": 7}
        and len(normal_levels) == 1
        and nonzero[f"wedge{normal_levels[0]}_sym3dual"] == {"5": exp["group_dimension"]}
    )
    if not structure_ok:
        return FAIL, computed, exp, "", ()
    level_found = normal_levels[0]
    computed["normal_side_wedge_level"] = level_found
    if level_found == exp["normal_side"]["wedge"]:
        return PASS, computed, exp, "", ()
    # the placement differs from the claim; make sure the engine's own
    # cross-checks hold before reporting it as a finding
    cross_ok = all(
        character_of_combination(wedge_power_gl2((3, 0), lvl))
        == elementary_character((3, 0), lvl)
        for lvl in (2, 3, 4)
    ) and euler_consistency(ctx, named_class(ctx, "sym_cube_dual"))
    if not cross_ok:
        return FAIL, computed, exp, "internal cross-checks failed", ()
    notes = (
        f"the degree-5 group sits on exterior power {level_found}, "
        f"claimed placement is level {exp['normal_side']['wedge']}; "
        "dimension, degree and all internal cross-checks agree"
    )
    return DISCREPANCY, computed, exp, notes, ()


def _run_prop_cubic(d: int):
    ctx = _line(d)
    twist = named_class(ctx, "O(3)")
    ideal = ideal_sheaf_cohomology(ctx, twist)
    restricted_twist = restricted_cohomology(ctx, twist)
    tangent = named_class(ctx, "tangent")
    twisted_tangent = tangent.tensor(named_class(ctx, "O(-3)")).cohomology()
    restricted_tangent = restricted_cohomology(ctx, tangent)
    numbers = deformation_numbers(d, "cubic")
    computed = {
        "h0_ideal_twist": _dv(ideal[0]),
        "h1_ideal_twist": _dv(ideal[1]),
        "restricted_h0_twist": _dv(restricted_twist[0]),
        "twisted_tangent_acyclic": twisted_tangent.is_empty,
        "restricted_h0_tangent": _dv(restricted_tangent[0]),
        "restricted_h1_tangent": _dv(restricted_tangent[1]),
        "h1_tangent": numbers.h1_tangent,
    }
    expected = {
        field: expected_value("prop-cubic", field, d)
        for field in (
            "h0_ideal_twist",
            "h1_ideal_twist",
            "restricted_h0_twist",
            "restricted_h0_tangent",
            "restricted_h1_tangent",
            "h1_tangent",
        )
    }
    expected["twisted_tangent_acyclic"] = True
    ok = all(computed[k] == expected[k] for k in expected)
    axioms = tuple(numbers.axioms_used) + ("Hq_tangent_cubic_zero",)
    return (PASS if ok else FAIL), computed, expected, "", axioms


def _run_prop_fano(d: int):
    ctx = _plane(d)
    normal = named_class(ctx, "sym_cube_dual")
    ideal = ideal_sheaf_cohomology(ctx, normal)
    restricted_normal = restricted_cohomology(ctx, normal)
    tangent = named_class(ctx, "tangent")
    restricted_tangent = restricted_cohomology(ctx, tangent)
    numbers = deformation_numbers(d, "fano")
    computed = {
        "h0_ideal_normal": _dv(ideal[0]),
        "h1_ideal_normal": _dv(ideal[1]),
        "h2_ideal_normal": _dv(ideal[2]),
        "restricted_h0_normal": _dv(restricted_normal[0]),
        "restricted_h0_tangent": _dv(restricted_tangent[0]),
        "restricted_h1_tangent": _dv(restricted_tangent[1]),
        "h1_tangent": numbers.h1_tangent,
    }
    expected = {
        field: expected_value("prop-fano", field, d)
        for field in computed
    }
    ok = all(computed[k] == expected[k] for k in expected)
    axioms = tuple(numbers.axioms_used) + ("KAN_vanishing",)
    return (PASS if ok else FAIL), computed, expected, "", axioms


def _run_theorem_moduli(d: int):
    cubic = deformation_numbers(d, "cubic")
    fano = deformation_numbers(d, "fano")
    exp = expected_value("theorem-moduli", "h1_tangent", d)
    computed = {"h1_cubic": cubic.h1_tangent, "h1_fano": fano.h1_tangent}
    ok = cubic.h1_tangent == fano.h1_tangent == exp
    axioms = tuple(cubic.axioms_used) + tuple(fano.axioms_used)
    return (PASS if ok else FAIL), computed, {"h1_tangent": exp}, "", axioms


def _run_remark_d34(d: int):
    ctx = _plane(d)
    computed = {}
    for name in ("tangent", "sym_cube_dual"):
        analysis = koszul_analysis(ctx, named_class(ctx, name))
        computed[name] = {
            "nonzero_entries": [list(entry) for entry in analysis.page.nonzero_entries()],
            "ideal_verdicts": {
                str(m): v.to_dict()
                for m, v in sorted(analysis.verdicts.items())
                if v.upper_bound or not v.determined
            },
            "restricted": {
                str(m): _dv(value)
                for m, value in enumerate(analysis.restricted)
                if value.upper
            },
        }
    notes = "informational: first-page evidence only, no claimed value asserted"
    return PASS, computed, None, notes, ()


def _run_oracles(_d=None):
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


@dataclass(frozen=True)
class CheckDef:
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
        if self.d_independent:
            return True
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

@dataclass(frozen=True)
class CheckResult:
    check: str
    d: int | None
    status: str
    computed: object
    expected: object
    provenance: str
    axioms: tuple[dict, ...]
    notes: str

    def to_dict(self) -> dict:
        return {
            "check": self.check,
            "d": self.d,
            "status": self.status,
            "computed": self.computed,
            "expected": self.expected,
            "provenance": self.provenance,
            "axioms": list(self.axioms),
            "notes": self.notes,
        }


@dataclass(frozen=True)
class Report:
    version: str
    d_min: int
    d_max: int
    checks: tuple[str, ...]
    results: tuple[CheckResult, ...]

    @property
    def summary(self) -> dict[str, int]:
        tally = {"pass": 0, "fail": 0, "undetermined": 0, "discrepancy": 0, "skipped": 0}
        key = {PASS: "pass", FAIL: "fail", UNDETERMINED: "undetermined",
               DISCREPANCY: "discrepancy", SKIPPED: "skipped"}
        for r in self.results:
            tally[key[r.status]] += 1
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
    if not check_ids:
        return CATALOG
    by_id = {c.check_id: c for c in CATALOG}
    unknown = [c for c in check_ids if c not in by_id]
    if unknown:
        raise UsageError(f"unknown check ids: {', '.join(sorted(unknown))}")
    wanted = set(check_ids)
    return tuple(c for c in CATALOG if c.check_id in wanted)


def _execute(cdef: CheckDef, d: int | None) -> CheckResult:
    if d is not None and not cdef.applies(d):
        return CheckResult(
            check=cdef.check_id,
            d=d,
            status=SKIPPED,
            computed=None,
            expected=None,
            provenance=_provenance(cdef.check_id),
            axioms=(),
            notes=f"skipped: applies for {cdef.applicability}",
        )
    status, computed, expected, notes, axiom_names = (
        cdef.run() if d is None else cdef.run(d)
    )
    axioms = tuple(AXIOMS[name].to_dict() for name in dict.fromkeys(axiom_names))
    return CheckResult(
        check=cdef.check_id,
        d=d,
        status=status,
        computed=computed,
        expected=expected,
        provenance=_provenance(cdef.check_id),
        axioms=axioms,
        notes=notes,
    )


def run_checks(d_min: int = 3, d_max: int = 12, check_ids=None) -> Report:
    """Run the selected checks over d_min..d_max and assemble a report.

    Checks whose hypotheses exclude a d produce a skipped row for it; the
    d-independent oracle suites produce a single row with d = null.
    """
    if not 3 <= d_min <= d_max:
        raise UsageError(f"need 3 <= d_min <= d_max, got {d_min}..{d_max}")
    defs = _resolve(check_ids)
    # d-major, so that the checks of one d reuse its Koszul analyses while
    # they are still memoised; the results are sorted below
    tasks: list[tuple[CheckDef, int | None]] = [
        (cdef, None) for cdef in defs if cdef.d_independent
    ]
    for d in range(d_min, d_max + 1):
        tasks.extend((cdef, d) for cdef in defs if not cdef.d_independent)
    results = [_execute(cdef, d) for cdef, d in tasks]
    order = {c.check_id: i for i, c in enumerate(CATALOG)}
    results.sort(key=lambda r: (order[r.check], r.d if r.d is not None else -1))
    return Report(
        version=__version__,
        d_min=d_min,
        d_max=d_max,
        checks=tuple(c.check_id for c in defs),
        results=tuple(results),
    )
