"""Tests of the benchmark itself: the tracer and the correctness gate.

    python3 -m pytest -q perfbench/selftest.py

The file name keeps these tests out of the package's own test run: they
start `verify` processes and pin call counts of the current code.
"""

from __future__ import annotations

import hashlib
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402

# digest of src/bbwkoszul/**/*.py when the benchmark was defined; the
# call counts below describe that code and no other
SEED_SOURCE_SHA256 = "627dbce1038e5b00ffb01b90850e48cf22d2519cfbdfe176e6dc2c4e1ae35f36"
SEED_BUILD_PAGE_CALLS = 181
SEED_BUILD_PAGE_KEYS = 56


def _source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((run.SRC / "bbwkoszul").rglob("*.py")):
        h.update(path.relative_to(run.SRC).as_posix().encode())
        h.update(path.read_bytes())
    return h.hexdigest()


@pytest.fixture(scope="module")
def traced_default(tmp_path_factory):
    """Two traced runs of the default report, each in a fresh process."""
    inv = run.Invocation.of()
    return [
        run.run_traced(inv, True, None, str(tmp_path_factory.mktemp(f"trace{i}")))
        for i in range(2)
    ]


def test_traced_default_report_matches_golden(traced_default):
    for record, code, out in traced_default:
        assert record is not None and not record["untraced"]
        assert hashlib.sha256(out).hexdigest() == run.GOLDEN_SHA256
        assert run.output_ok("default-report", run.Invocation.of(), code, out)


def test_traced_call_counts_repeat(traced_default):
    calls = [
        {name: layer["calls"] for name, layer in record["layers"].items()}
        for record, _, _ in traced_default
    ]
    assert calls[0] == calls[1]
    assert [r["build_page_keys"] for r, _, _ in traced_default] == [
        traced_default[0][0]["build_page_keys"]
    ] * 2
    if _source_digest() != SEED_SOURCE_SHA256:
        pytest.skip("sources differ from the ones the seed counts describe")
    assert calls[0]["koszul.build_page"] == SEED_BUILD_PAGE_CALLS
    assert traced_default[0][0]["build_page_keys"] == SEED_BUILD_PAGE_KEYS


@pytest.mark.parametrize(
    "workload, inv, good, bad",
    [
        ("default-report", run.Invocation.of(), b'"d": 7', b'"d": 8'),
        # binom(7, 3) = 35 at d = 5
        ("moduli-large-d", run.Invocation.of(5, 6, ("theorem-moduli",)),
         b'"h1_fano": 35', b'"h1_fano": 36'),
    ],
)
def test_corrupted_output_counts_as_failure(workload, inv, good, bad):
    def corrupting(inv):
        seconds, code, out, peak_kb = run.run_cold(inv)
        assert good in out
        return seconds, code, out.replace(good, bad, 1), peak_kb

    clean = run.Tally()
    run.cold_pass(workload, (inv,), clean, run.Scaler())
    assert (clean.attempted, clean.failed) == (1, 0)

    tally = run.Tally()
    run.cold_pass(workload, (inv,), tally, run.Scaler(), runner=corrupting)
    assert (tally.attempted, tally.failed) == (1, 1)


def test_tail_percentile_keeps_ten_samples_beyond():
    assert run.tail([float(i) for i in range(1, 13)]) == (100, 12.0)
    assert run.tail([float(i) for i in range(1, 21)]) == (50, 10.0)
    assert run.tail([float(i) for i in range(1, 101)]) == (90, 90.0)
