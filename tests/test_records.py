"""Every record of the package is an immutable NamedTuple.

The two records with an invariant validate it however they are built,
and a Koszul page is identified by its key alone.
"""

import pickle
from functools import cache
from types import MappingProxyType

import pytest

from bbwkoszul import (
    AXIOMS,
    IDEAL_SHEAF,
    RESTRICTION,
    DimValue,
    Grassmannian,
    build_page,
    deformation_numbers,
    koszul_analysis,
    named_class,
    run_checks,
)
from bbwkoszul.checks import CATALOG


@cache
def records() -> dict[str, tuple]:
    """One instance of each record type, from real computations at d = 5."""
    ctx = Grassmannian(2, 7)
    analysis = koszul_analysis(ctx, named_class(ctx, "tangent"))
    report = run_checks(5, 5, ["theorem-moduli"])
    return {
        "Grassmannian": ctx,
        "KoszulPage": analysis.page,
        "DegreeVerdict": analysis.verdicts[3],  # h^3 = 7, the page's one nonzero degree
        "DimValue": analysis.ideal[0],
        "KoszulAnalysis": analysis,
        "Axiom": AXIOMS["KAN_vanishing"],
        "DeformationNumbers": deformation_numbers(5, "fano"),
        "CheckDef": CATALOG[0],
        "CheckResult": report.results[0],
        "Report": report,
    }


RECORD_NAMES = (
    "Grassmannian", "KoszulPage", "DegreeVerdict", "DimValue", "KoszulAnalysis", "Axiom",
    "DeformationNumbers", "CheckDef", "CheckResult", "Report",
)


@pytest.mark.parametrize("name", RECORD_NAMES)
def test_record_is_an_immutable_named_tuple(name):
    record = records()[name]
    assert type(record).__name__ == name
    assert isinstance(record, tuple) and record._fields
    with pytest.raises(AttributeError):
        setattr(record, record._fields[0], None)
    with pytest.raises(AttributeError):
        record.extra = 1  # no instance dict


@pytest.mark.parametrize(
    "build",
    [
        lambda: Grassmannian(2, 2),
        lambda: Grassmannian(0, 3),
        lambda: Grassmannian(2, 5)._replace(n=2),
        lambda: DimValue(3, 2),
        lambda: DimValue(-1, 0),
        lambda: DimValue.of(4)._replace(upper=3),
        lambda: Grassmannian(2, 5.0),
        lambda: Grassmannian(2.0, 5),
        lambda: Grassmannian(2, 5.5),
        lambda: DimValue(1.5, 2),
    ],
    ids=[
        "gr-k-eq-n", "gr-k-zero", "gr-replace", "dim-reversed", "dim-negative", "dim-replace",
        "gr-float-n", "gr-float-k", "gr-fractional-n", "dim-fractional",
    ],
)
def test_invariants_are_validated(build):
    with pytest.raises(ValueError):
        build()


def test_grassmannian_pickles():
    ctx = Grassmannian(2, 9)
    back = pickle.loads(pickle.dumps(ctx))
    assert back == ctx and type(back) is Grassmannian
    assert back.dimension == 14


def test_check_result_to_dict_is_shallow_in_field_order():
    row = run_checks(5, 5, ["theorem-moduli"]).results[0]
    out = row.to_dict()
    assert list(out) == [
        "check", "d", "status", "computed", "expected", "provenance", "axioms", "notes"
    ]
    assert out["computed"] is row.computed


def test_koszul_page_equality_uses_its_key():
    ctx = Grassmannian(2, 7)
    coefficient = named_class(ctx, "tangent")
    page = build_page(ctx, IDEAL_SHEAF, coefficient)
    again = build_page(ctx, IDEAL_SHEAF, coefficient)
    assert page is not again
    assert page == again and hash(page) == hash(again)
    bare = page._replace(terms=MappingProxyType({}), columns=MappingProxyType({}))
    assert bare == page and not bare != page and hash(bare) == hash(page)
    other = build_page(ctx, RESTRICTION, coefficient)
    assert other != page and not other == page
    assert len({page, again, bare, other}) == 2
