"""The oracle routes agree with their references and still catch errors.

The brute-force LR route expands Schur polynomials by branching; the
tableau listing ``ssyt_contents`` is the reference it is compared with.
Each mutant corrupts one input of a suite's second route; the suite must
then report failed cases rather than pass or raise.
"""

from collections import Counter

import pytest

from bbwkoszul import oracles, weights
from bbwkoszul.weights import partitions_of


def _interlacing_of_size(shape, size):
    return [eta for eta in oracles._interlacing(shape) if sum(eta) == size]


@pytest.mark.parametrize(
    "strips",
    [
        lambda shape, s: list(weights._strip_shrinks(shape, s)),
        lambda shape, s: _interlacing_of_size(shape, sum(shape) - s),
    ],
    ids=["weights", "oracles"],
)
def test_strip_walks_list_the_interlacing_partitions(strips):
    # shape/eta is a horizontal strip of s cells exactly when eta has
    # |shape| - s cells and shape_(i+1) <= eta_i <= shape_i; the reference
    # tests that definition on every partition of that size
    for size in range(9):
        for shape in partitions_of(size):
            floors = shape[1:] + (0,)
            for s in range(size + 1):
                expected = {
                    eta
                    for eta in partitions_of(size - s, max_parts=len(shape))
                    if all(
                        low <= part <= high
                        for high, low, part in zip(
                            shape, floors, eta + (0,) * (len(shape) - len(eta))
                        )
                    )
                }
                listed = strips(shape, s)
                assert len(listed) == len(set(listed)), (shape, s)
                assert set(listed) == expected, (shape, s)


def test_engine_and_oracle_kostka_numbers_agree():
    for size in range(8):
        shapes = list(partitions_of(size))
        for shape in shapes:
            for mu in shapes:
                assert weights._kostka(shape, mu) == oracles.kostka_number(shape, mu), (shape, mu)


def test_branching_expansions_match_the_tableau_contents():
    # n below the number of rows included: no tableau, no monomial
    for size in range(7):
        for shape in partitions_of(size):
            for n in range(8):
                expected = Counter(oracles.ssyt_contents(shape, n))
                assert oracles._schur_monomials(shape, n) == expected, (shape, n)


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
    # the suites above left lr_suite(3)'s expansions cached, but none
    # expands in 13 letters, so this one is built under the patch
    original((2, 1), 13)
    monkeypatch.undo()
    # an expansion reaches its sub-expansions through the real cache, so
    # the patch left no corrupt entry behind for a later reader
    assert original((2, 1), 13) == Counter(oracles.ssyt_contents((2, 1), 13))
    assert oracles.lr_suite(3)["failures"] == []


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

