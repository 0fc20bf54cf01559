import hashlib
import json
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import bbwkoszul
from bbwkoszul import checks
from bbwkoszul.cli import main

# sha256 of the default report; every change must leave it byte-identical
GOLDEN_SHA256 = "2910a0b388725e2d8ab5a0a98b1dba47e6a9a89d9b6952cf164a211ef8e5bd46"
GOLDEN_ARGV = ("--format", "json", "--no-timestamp")


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_list_checks(capsys):
    code, out, _ = run_cli(capsys, "list-checks")
    assert code == 0
    for check_id in ("example-universal", "prop-fano", "oracles", "remark-d34"):
        assert check_id in out


def test_clean_range_exits_zero(capsys):
    code, out, _ = run_cli(
        capsys, "--d-min", "6", "--d-max", "6", "--check", "theorem-moduli"
    )
    assert code == 0
    assert "pass" in out


def test_discrepancy_exits_zero_by_default(capsys):
    code, out, _ = run_cli(
        capsys, "--d-min", "5", "--d-max", "5", "--check", "lemma-cohomology"
    )
    assert code == 0
    assert "paper-discrepancy" in out


def test_strict_paper_exit_code(capsys):
    code, _, _ = run_cli(
        capsys,
        "--d-min", "5", "--d-max", "5",
        "--check", "lemma-cohomology",
        "--strict-paper",
    )
    assert code == 3


def test_usage_error_bad_range(capsys):
    code, _, err = run_cli(capsys, "--d-min", "2", "--d-max", "5", "--check", "lemma-s")
    assert code == 2
    assert "usage error" in err


def test_usage_error_unknown_check(capsys):
    code, _, err = run_cli(capsys, "--check", "no-such-check")
    assert code == 2
    assert "unknown check ids" in err


def test_usage_error_bad_flag(capsys):
    for argv in (("--frobnicate",), ("--jobs", "2")):
        code, _, _ = run_cli(capsys, *argv)
        assert code == 2


def test_json_report_reproducible(capsys):
    argv = (
        "--d-min", "5", "--d-max", "6",
        "--check", "prop-fano",
        "--format", "json",
        "--no-timestamp",
    )
    code1, out1, _ = run_cli(capsys, *argv)
    code2, out2, _ = run_cli(capsys, *argv)
    assert code1 == code2 == 0
    assert out1 == out2
    payload = json.loads(out1)
    assert set(payload) == {"version", "params", "results", "summary"}
    assert "timestamp" not in payload["params"]
    assert set(payload["summary"]) == {"pass", "fail", "undetermined", "discrepancy", "skipped"}
    row = payload["results"][0]
    assert set(row) == {"check", "d", "status", "computed", "expected", "provenance", "axioms", "notes"}


def test_json_timestamp_present_by_default(capsys):
    code, out, _ = run_cli(
        capsys, "--d-min", "6", "--d-max", "6", "--check", "lemma-s", "--format", "json"
    )
    assert code == 0
    assert "timestamp" in json.loads(out)["params"]


def test_failure_exit_code(capsys, monkeypatch):
    def broken_runner(d, exp):
        return "fail", {"h0": -1}, {"h0": 0}, "forced failure", ()

    catalog = tuple(
        replace(c, run=broken_runner) if c.check_id == "lemma-s" else c
        for c in checks.CATALOG
    )
    monkeypatch.setattr(checks, "CATALOG", catalog)
    code, out, _ = run_cli(capsys, "--d-min", "6", "--d-max", "6", "--check", "lemma-s")
    assert code == 1
    assert "fail" in out


def test_default_report_matches_golden_digest(capsys):
    code, out, _ = run_cli(capsys, *GOLDEN_ARGV)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == GOLDEN_SHA256


def test_default_report_digest_without_asserts():
    # -O strips assert statements; the report must not depend on them
    src = str(Path(bbwkoszul.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    proc = subprocess.run(
        [sys.executable, "-O", "-m", "bbwkoszul.cli", *GOLDEN_ARGV],
        capture_output=True,
        env={**os.environ, "PYTHONPATH": path},
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr.decode()
    assert hashlib.sha256(proc.stdout).hexdigest() == GOLDEN_SHA256
