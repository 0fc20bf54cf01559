import json
from importlib import resources

import pytest

from bbwkoszul import bbw, checks, classes
from bbwkoszul.checks import (
    CATALOG,
    CheckResult,
    Report,
    UsageError,
    expected_value,
    list_checks,
    run_checks,
)


def expected_document() -> dict:
    """A fresh parse of the bundled expected.json, for a test to break."""
    return json.loads(resources.files("bbwkoszul").joinpath("data/expected.json").read_text())


def _set_row(check, field, value):
    def breaks(document):
        for row in document["rows"]:
            if (row["check"], row["field"]) == (check, field):
                row["value"] = value

    return breaks


def plan_with_row(check, field, value):
    """The plan of ``check`` loaded from a fresh document in which one row holds ``value``."""
    document = expected_document()
    _set_row(check, field, value)(document)
    return checks._load_expected(document)[0][check]


def perturbed_rows(d):
    """Each (check, field) row of expected.json with a value that is wrong at d."""
    rows = sorted(expected_document()["rows"], key=lambda row: (row["check"], row["field"]))
    for row in rows:
        check, field, value = row["check"], row["field"], row["value"]
        if isinstance(value, list):
            yield check, field, value + [[0, 0]]
        else:
            yield check, field, str(expected_value(check, field, d) + 1)


def only(report, check_id, d):
    rows = [r for r in report.results if r.check == check_id and r.d == d]
    assert len(rows) == 1
    return rows[0]


class TestRunChecks:
    def test_theorem_moduli_at_d5(self):
        report = run_checks(5, 5, ["theorem-moduli"])
        row = only(report, "theorem-moduli", 5)
        assert row.status == "pass"
        assert row.computed == {"h1_cubic": 35, "h1_fano": 35}
        assert row.expected == {"h1_tangent": 35}
        axiom_names = [a["name"] for a in row.axioms]
        assert "H0_tangent_cubic_zero" in axiom_names
        assert "H0_tangent_fano_zero" in axiom_names
        # axioms are listed verbatim from the registry
        for axiom in row.axioms:
            assert axiom == checks.AXIOMS[axiom["name"]].to_dict()

    def test_vanishing_table_rows_pass(self):
        report = run_checks(6, 12, ["lemma-cohomology"])
        assert all(r.status == "pass" for r in report.results)
        assert len(report.results) == 7

    def test_prop_cubic_at_d3(self):
        report = run_checks(3, 3, ["prop-cubic"])
        row = only(report, "prop-cubic", 3)
        assert row.status == "pass"
        assert row.computed["h1_tangent"] == 10
        assert row.computed["twisted_tangent_acyclic"] is True

    def test_discrepancy_protocol_at_d5(self):
        report = run_checks(5, 5, ["lemma-cohomology"])
        row = only(report, "lemma-cohomology", 5)
        assert row.status == "paper-discrepancy"
        assert row.computed["normal_side_wedge_level"] == 3
        assert row.expected["normal_side"]["wedge"] == 2
        assert "exterior power 3" in row.notes
        assert report.exit_code() == 0
        assert report.exit_code(strict_paper=True) == 3

    @pytest.mark.parametrize(
        "check, field, wrong",
        [
            # the d = 5 placements of lemma-cohomology, under their first ids
            pytest.param("lemma-cohomology", field, wrong, id=f"{field}-{wrong}")
            for field, wrong in (
                ("tangent_side_wedge_d5", "3"),
                ("tangent_side_degree_d5", "3"),
                ("normal_side_degree_d5", "4"),
            )
        ]
        + [
            pytest.param(check, field, wrong, id=f"{check}-{field}")
            for check, field, wrong in perturbed_rows(5)
        ],
    )
    def test_d5_structure_follows_expected_values(self, monkeypatch, check, field, wrong):
        # every row of expected.json is read: a wrong value fails the row,
        # except on the disputed placement, where 2 + 1 is the computed level
        monkeypatch.setitem(checks._PLANS, check, plan_with_row(check, field, wrong))
        status = only(run_checks(5, 5, [check]), check, 5).status
        assert status == ("pass" if field == "normal_side_wedge_d5" else "fail")

    def test_skipped_rows(self):
        report = run_checks(3, 4, ["prop-fano"])
        assert [r.status for r in report.results] == ["skipped", "skipped"]
        assert all("d >= 5" in r.notes for r in report.results)
        assert report.exit_code() == 0

    def test_remark_rows_informational(self):
        report = run_checks(3, 4, ["remark-d34"])
        assert all(r.status == "pass" for r in report.results)
        assert all("informational" in r.notes for r in report.results)
        d3 = only(report, "remark-d34", 3)
        assert d3.computed["tangent"]["restricted"]["1"] == 60

    def test_oracles_single_row(self):
        report = run_checks(3, 12, ["oracles"])
        assert len(report.results) == 1
        row = report.results[0]
        assert row.d is None
        assert row.status == "pass"
        assert all(not suite["failures"] for suite in row.computed.values())

    def test_summary_matches_rows(self):
        report = run_checks(4, 6)
        summary = report.summary
        assert sum(summary.values()) == len(report.results)
        assert summary["fail"] == 0
        by_status = {}
        for r in report.results:
            key = "discrepancy" if r.status == "paper-discrepancy" else r.status
            by_status[key] = by_status.get(key, 0) + 1
        for key, count in summary.items():
            assert by_status.get(key, 0) == count

    def test_deterministic(self):
        a = run_checks(5, 6, ["prop-fano", "decompositions"])
        b = run_checks(5, 6, ["prop-fano", "decompositions"])
        assert a.to_dict() == b.to_dict()

    def test_usage_errors(self):
        with pytest.raises(UsageError):
            run_checks(2, 5)
        with pytest.raises(UsageError):
            run_checks(5, 4)
        with pytest.raises(UsageError):
            run_checks(3, 5, ["no-such-check"])

    def test_bare_string_of_check_ids_is_a_usage_error(self):
        with pytest.raises(UsageError, match="a collection of check ids"):
            run_checks(5, 5, "lemma-s")

    @pytest.mark.parametrize(
        "check_ids, named",
        [([1], "1"), ([None], "None"), (b"ab", "97, 98"), ([["x"]], r"\['x'\]")],
        ids=["int", "None", "bytes", "list"],
    )
    def test_an_id_that_is_not_a_string_is_a_usage_error(self, check_ids, named):
        with pytest.raises(UsageError, match=f"unknown check ids: {named}$"):
            run_checks(5, 5, check_ids)

    @pytest.mark.parametrize("ids", [["lemma-s"], ["lemma-s", "prop-fano"], []])
    def test_an_iterator_of_ids_gives_the_report_of_its_list(self, ids):
        report = run_checks(5, 5, iter(ids))
        assert report.to_dict() == run_checks(5, 5, list(ids)).to_dict()
        assert report.checks and report.results

    @pytest.mark.parametrize("d_min, d_max", [(5.0, 6.0), (5, 6.0), (5.5, 7)])
    def test_non_integer_range_is_a_usage_error(self, d_min, d_max):
        with pytest.raises(UsageError):
            run_checks(d_min, d_max, ["lemma-s"])


class TestCatalog:
    def test_ten_entries(self):
        entries = list_checks()
        assert len(entries) == 10
        assert [e["id"] for e in entries] == [c.check_id for c in CATALOG]
        assert entries[0]["id"] == "example-universal"

    def test_fano_entry_mentions_kernel(self):
        entry = next(e for e in list_checks() if e["id"] == "prop-fano")
        assert "kernel" in entry["claim"]

    def test_remark_flagged_informational(self):
        entry = next(e for e in list_checks() if e["id"] == "remark-d34")
        assert entry["informational"]


class TestExpectedValues:
    def test_formula_evaluation(self):
        assert expected_value("theorem-moduli", "h1_tangent", 5) == 35
        assert expected_value("theorem-moduli", "h1_tangent", 10) == 220
        assert expected_value("prop-fano", "restricted_h0_normal", 5) == 83
        assert expected_value("example-universal", "h0_tangent", 3) == 24

    def test_literal_values(self):
        assert expected_value("plethysm-eq4", "wedge3", 7) == [[6, 3]]
        assert expected_value("lemma-cohomology", "h0_pairing", 9) == 1

    def test_runners_receive_every_row_at_every_d(self, monkeypatch):
        # run_checks resolves each check's rows once; every runner must
        # still see exactly the values expected_value gives at its d
        received = {}

        def capture(check):
            def run(d, exp):
                received[check, d] = exp
                return "pass", None, None, "", ()

            return run

        catalog = tuple(
            c._replace(run=capture(c.check_id), min_d=3, only_d=None) for c in CATALOG
        )
        monkeypatch.setattr(checks, "CATALOG", catalog)
        run_checks(3, 12)
        fields = {}
        for row in expected_document()["rows"]:
            fields.setdefault(row["check"], []).append(row["field"])
        for c in CATALOG:
            ds = [None] if c.d_independent else range(3, 13)
            for d in ds:
                assert received.pop((c.check_id, d)) == {
                    field: expected_value(c.check_id, field, d)
                    for field in fields.get(c.check_id, ())
                }
        assert not received


def _set_line(index, **changes):
    def breaks(document):
        line = document["claimed_lines"][index]
        for key, value in changes.items():
            (line["quotient"] if key in ("head", "fill") else line)[key] = value

    return breaks


def _add_row(**changes):
    def breaks(document):
        document["rows"].append({**document["rows"][0], **changes})

    return breaks


BAD_DOCUMENTS = {
    # (1, 2^(d-1)) on the tangent side of level 1: not dominant at any d
    "head-below-fill": _set_line(0, head=[1], fill=2),
    "non-integer-fill": _set_line(4, fill=1.5),
    "non-integer-subbundle-entry": _set_line(7, subbundle=[[6, 2.5]]),
    "non-dominant-subbundle": _set_line(7, subbundle=[[6, 3], [0, 3]]),
    "subbundle-of-length-3": _set_line(3, subbundle=[[6, 5, 0]]),
    "head-of-two-entries": _set_line(1, head=[1, 1]),
    "level-above-the-page": _set_line(3, level=5),
    "non-integer-level": _set_line(2, level=3.0),
    "unknown-factor": _set_line(4, factor="cotangent"),
    "unknown-schema": lambda document: document.update(schema="expected-values@1"),
    "non-dominant-plethysm-weight": _set_row("plethysm-eq4", "wedge3", [[3, 6]]),
    "non-integer-plethysm-weight": _set_row("plethysm-eq4", "wedge2", [[5, 1], [3, 3.5]]),
    "plethysm-weight-of-length-3": _set_row("plethysm-eq4", "wedge4", [[6, 6, 0]]),
    "formula-token-with-a-space": _set_row("theorem-moduli", "h1_tangent", "binom(d+2, 3)"),
    "integer-spelled-out": _set_row("decompositions", "lines_matching", "eight"),
    "non-integer-value": _set_row("lemma-cohomology", "h0_pairing", 1.5),
    "null-value": _set_row("prop-cubic", "h1_ideal_twist", None),
    "json-integer-value": _set_row("prop-fano", "h0_ideal_normal", 1),
    "weights-outside-plethysm": _set_row("lemma-s", "h0_sym_cube_dual", [[6, 3]]),
    "repeated-row": _add_row(),
    "unknown-check-id": _add_row(check="theorem-modul"),
}


class TestExpectedDocument:
    def test_bundled_document_is_what_the_checks_read(self):
        assert checks._load_expected(expected_document()) == (
            checks._PLANS,
            checks._CLAIMED_LINES,
            checks.AXIOMS,
        )
        assert len(checks._CLAIMED_LINES) == 8

    @pytest.mark.parametrize("breaks", BAD_DOCUMENTS.values(), ids=BAD_DOCUMENTS)
    def test_bad_documents_rejected_at_load(self, breaks):
        document = expected_document()
        breaks(document)
        with pytest.raises(ValueError):
            checks._load_expected(document)


def test_exit_code_on_failure():
    base = run_checks(6, 6, ["lemma-s"])
    failing = CheckResult(
        check="lemma-s",
        d=6,
        status="fail",
        computed={"h0": 0},
        expected={"h0": 120},
        provenance="",
        axioms=(),
        notes="",
    )
    report = Report(
        version=base.version,
        d_min=6,
        d_max=6,
        checks=("lemma-s",),
        results=(failing,),
    )
    assert report.exit_code() == 1
    assert report.summary["fail"] == 1


class TestPlethysmIdentity:
    def expected_at(self, d):
        fields = ("wedge2", "wedge3", "wedge4")
        return {field: expected_value("plethysm-eq4", field, d) for field in fields}

    def test_wrong_wedge3_fails_after_a_passing_call(self):
        exp = self.expected_at(6)
        assert checks._run_plethysm(6, exp)[0] == checks.PASS
        # (6, 3) twice: both the class comparison, which counts each listed
        # weight, and the character of the weights with multiplicity fail
        doubled = dict(exp, wedge3=[[6, 3], [6, 3]])
        assert checks._run_plethysm(6, doubled)[0] == checks.FAIL
        assert checks._run_plethysm(7, doubled)[0] == checks.FAIL
        assert checks._run_plethysm(6, dict(exp, wedge3=[[5, 4]]))[0] == checks.FAIL
        assert checks._run_plethysm(7, exp)[0] == checks.PASS

    def test_class_comparison_counts_repeated_weights(self, monkeypatch):
        # with the character identity forced true, only the class comparison
        # can see that (6, 3) is listed twice
        monkeypatch.setattr(checks, "_plethysm_character_ok", lambda level, weights: True)
        exp = self.expected_at(6)
        assert checks._run_plethysm(6, exp)[0] == checks.PASS
        doubled = dict(exp, wedge3=[[6, 3], [6, 3]])
        assert checks._run_plethysm(6, doubled)[0] == checks.FAIL
        assert checks._run_plethysm(7, doubled)[0] == checks.FAIL

    def test_warm_pass_validates_no_bundle(self, monkeypatch):
        # the target weights are validated once, when expected.json is loaded
        run_checks(5, 54, ["plethysm-eq4"])
        checked = []
        original = bbw.validate_bundle

        def counting(ctx, bundle):
            checked.append(bundle)
            return original(ctx, bundle)

        monkeypatch.setattr(bbw, "validate_bundle", counting)
        monkeypatch.setattr(classes, "validate_bundle", counting)
        monkeypatch.setattr(checks, "validate_bundle", counting)
        run_checks(5, 54, ["plethysm-eq4"])
        assert checked == []

    def test_character_identity_is_keyed_on_level_and_weights(self):
        assert checks._plethysm_character_ok(3, ((6, 3),))
        assert not checks._plethysm_character_ok(3, ((6, 3), (6, 3)))
        assert not checks._plethysm_character_ok(4, ((6, 3),))
        assert checks._plethysm_character_ok(2, ((5, 1), (3, 3)))
