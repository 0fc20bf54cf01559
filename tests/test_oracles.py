"""The oracle suites still catch errors in the route they re-derive.

Each mutant corrupts one input of a suite's second route; the suite must
then report failed cases rather than pass or raise.
"""

from bbwkoszul import oracles


def _drop_lowest(monomials):
    # a character with more than one monomial loses its lex-smallest one
    out = dict(monomials)
    if len(out) > 1:
        del out[min(out)]
    return out


def test_lr_suite_reports_a_dropped_schur_monomial(monkeypatch):
    assert oracles.lr_suite(3)["failures"] == []
    original = oracles._schur_monomials
    monkeypatch.setattr(
        oracles, "_schur_monomials", lambda shape, nvars: _drop_lowest(original(shape, nvars))
    )
    report = oracles.lr_suite(3)
    assert report["cases"] == 28
    assert report["failures"]


def test_gl2_suite_reports_a_corrupt_cached_character(monkeypatch):
    clean = oracles.gl2_suite(3)
    assert clean["failures"] == []
    original = oracles.gl2_character
    monkeypatch.setattr(oracles, "gl2_character", lambda weight: _drop_lowest(original(weight)))
    report = oracles.gl2_suite(3)
    # every character and every peel reads the one builder; the products
    # read the characters the suite built once, and no case is lost
    assert report["cases"] == clean["cases"]
    assert any("a" in failure for failure in report["failures"])

