import ast
import hashlib
import io
import json
import os
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

import bbwkoszul
from bbwkoszul import checks, cli
from bbwkoszul.cli import main

# sha256 of the default report; every change must leave it byte-identical
GOLDEN_SHA256 = "2910a0b388725e2d8ab5a0a98b1dba47e6a9a89d9b6952cf164a211ef8e5bd46"
GOLDEN_ARGV = ("--format", "json", "--no-timestamp")
# sha256 of the default text report, as written before it went out in batches
GOLDEN_TEXT_SHA256 = "6adfbeb65b105a7dfb16edb49ef11e6764702f5bfdf0863faeacf196a54e671e"
# sha256 of the `list-checks` output
LIST_CHECKS_SHA256 = "fb990ca6a6dd7da23c6871026bbdebba26e7f234b65156ccae2d2920400e578c"

# 50 consecutive d over every d-dependent check but remark-d34: a 455 KB
# report of about 41 500 encoder tokens
SWEEP_CHECKS = (
    "example-universal", "lemma-s", "plethysm-eq4", "decompositions",
    "lemma-cohomology", "prop-cubic", "prop-fano", "theorem-moduli",
)
SWEEP_ARGV = (
    "--d-min", "6", "--d-max", "55",
    *(arg for check in SWEEP_CHECKS for arg in ("--check", check)),
    *GOLDEN_ARGV,
)
SWEEP_SHA256 = "d7d7e67cac5cde5592b1a3c21b47843ef041ab9a2e929f484fef4958cd47b960"


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_list_checks(capsys):
    code, out, _ = run_cli(capsys, "list-checks")
    assert code == 0
    for check_id in ("example-universal", "prop-fano", "oracles", "remark-d34"):
        assert check_id in out
    assert hashlib.sha256(out.encode()).hexdigest() == LIST_CHECKS_SHA256


def test_project_version_is_the_reported_version():
    # the report prints __version__ and installed metadata carries the
    # pyproject version; a regex, since Python 3.10 has no tomllib
    pyproject = (Path(__file__).resolve().parents[1] / "pyproject.toml").read_text()
    project = re.search(r"^\[project\]$(.*?)^\[", pyproject, re.M | re.S).group(1)
    assert re.findall(r'^version = "([^"]*)"$', project, re.M) == [bbwkoszul.__version__]


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
        c._replace(run=broken_runner) if c.check_id == "lemma-s" else c
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


def test_golden_digest_has_one_value_wherever_it_is_pinned():
    # the benchmark gate and the installed-package CI step pin the same
    # digest, so a re-pin must change all three places together
    root = Path(__file__).resolve().parents[1]
    bench = [
        node.value.value
        for node in ast.parse((root / "perfbench" / "run.py").read_text()).body
        if isinstance(node, ast.Assign)
        and [getattr(target, "id", None) for target in node.targets] == ["GOLDEN_SHA256"]
    ]
    workflow = (root / ".github" / "workflows" / "tests.yml").read_text()
    step = workflow.split("- name: Installed package smoke test", 1)[1].split("- name:", 1)[0]
    assert bench == [GOLDEN_SHA256]
    assert re.findall(r"\b[0-9a-f]{64}\b", step) == [GOLDEN_SHA256]


# the default range stops at GL(14); these reach GL(62) and GL(302), where
# a placement or straightening error would leave the golden digest alone
WIDE_REPORTS = {
    "d5-60": (
        ("--d-min", "5", "--d-max", "60", *GOLDEN_ARGV),
        "73b3cc17e73d710c708220d3a4137884d2c44c706d9773aba4bb7f09f94a8156",
    ),
    "moduli-d300": (
        ("--check", "theorem-moduli", "--d-min", "300", "--d-max", "300", *GOLDEN_ARGV),
        "f1e9284c9a0972aac91e560544a32dc4c4280fd1fada55a92e27a2a15a7c3dd0",
    ),
}


@pytest.mark.parametrize("argv, digest", WIDE_REPORTS.values(), ids=WIDE_REPORTS)
def test_wide_report_digest(capsys, argv, digest):
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def _child_env() -> dict[str, str]:
    src = str(Path(bbwkoszul.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    return {**os.environ, "PYTHONPATH": path}


def test_default_report_digest_without_asserts():
    # -O strips assert statements; the report must not depend on them
    proc = subprocess.run(
        [sys.executable, "-O", "-m", "bbwkoszul.cli", *GOLDEN_ARGV],
        capture_output=True,
        env=_child_env(),
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr.decode()
    assert hashlib.sha256(proc.stdout).hexdigest() == GOLDEN_SHA256


class CountingStdout(io.StringIO):
    def __init__(self):
        super().__init__()
        self.writes = 0

    def write(self, text):
        self.writes += 1
        return super().write(text)


def test_json_writes_bounded_by_report_size(monkeypatch):
    # json.dump would write once per encoder token, about 41 500 times
    out = CountingStdout()
    monkeypatch.setattr(sys, "stdout", out)
    assert main(list(SWEEP_ARGV)) == 0
    text = out.getvalue()
    assert hashlib.sha256(text.encode()).hexdigest() == SWEEP_SHA256
    assert out.writes <= len(text) // 4096 + 2


def test_piped_unbuffered_child_writes_same_bytes():
    # each write reaches the pipe at once here; the batches must join up
    payload = checks.run_checks().to_dict(timestamp=None)
    assert sum(1 for _ in cli._json_batches(payload)) > 2
    proc = subprocess.run(
        [sys.executable, "-m", "bbwkoszul.cli", *GOLDEN_ARGV],
        capture_output=True,
        env={**_child_env(), "PYTHONUNBUFFERED": "1"},
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr.decode()
    assert proc.stdout.decode() == json.dumps(payload, indent=2, sort_keys=True) + "\n"
    assert hashlib.sha256(proc.stdout).hexdigest() == GOLDEN_SHA256


def test_json_batches_stream_in_bounded_memory():
    # a writer that built the whole 455 KB report, or all of its pieces,
    # before the first write would hold many times this bound
    payload = checks.run_checks(6, 55, SWEEP_CHECKS).to_dict(timestamp=None)
    batches = 0
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        for batch in cli._json_batches(payload):
            batches += 1
            del batch
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert batches > 20
    assert peak <= 64 * 1024


def test_closed_stdout_exits_141_without_traceback():
    # like `verify ... | head -2`: the reader leaves after 100 bytes of a
    # report several times the size of a pipe buffer
    with subprocess.Popen(
        [sys.executable, "-m", "bbwkoszul.cli", "--d-min", "6", "--d-max", "40", *GOLDEN_ARGV],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=_child_env(),
    ) as proc:
        assert len(proc.stdout.read(100)) == 100
        proc.stdout.close()
        _, err = proc.communicate(timeout=120)
    assert proc.returncode == cli.EXIT_STDOUT_CLOSED
    assert b"Traceback" not in err, err.decode()


@pytest.mark.parametrize("unbuffered", ["", "1"], ids=["buffered", "unbuffered"])
def test_closed_stdout_text_report_exits_141(unbuffered):
    # the text report of d = 3..200 is 133 KB, twice a pipe buffer; a single
    # write that the reader abandons part-way returns a short count, which
    # unbuffered stdout drops without an error, so only later writes fail
    with subprocess.Popen(
        [sys.executable, "-m", "bbwkoszul.cli", "--d-min", "3", "--d-max", "200"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env={**_child_env(), "PYTHONUNBUFFERED": unbuffered},
    ) as proc:
        assert len(proc.stdout.read(100)) == 100
        proc.stdout.close()
        _, err = proc.communicate(timeout=120)
    assert proc.returncode == cli.EXIT_STDOUT_CLOSED
    assert b"Traceback" not in err, err.decode()


def test_default_text_report_digest_in_bounded_writes(monkeypatch):
    out = CountingStdout()
    monkeypatch.setattr(sys, "stdout", out)
    assert main([]) == 0
    text = out.getvalue()
    assert hashlib.sha256(text.encode()).hexdigest() == GOLDEN_TEXT_SHA256
    assert out.writes == -(-text.count("\n") // cli.TEXT_LINES_PER_WRITE)


# prints the modules a fresh interpreter newly loads for `import
# bbwkoszul.cli`, then those loaded once a theorem-moduli row has run
NEW_MODULES_SCRIPT = """
import sys
bare = set(sys.modules)
import bbwkoszul.cli
print(" ".join(sorted(set(sys.modules) - bare)))
bbwkoszul.cli.run_checks(5, 5, ("theorem-moduli",))
print(" ".join(sorted(set(sys.modules) - bare)))
"""


def test_cold_import_loads_only_what_verify_uses():
    # every cold `verify` pays for its imports: records are NamedTuples
    # (dataclasses pulls in inspect), datetime and the oracles are
    # imported by the code paths that use them, and the package root
    # re-exports no reference code
    proc = subprocess.run(
        [sys.executable, "-c", NEW_MODULES_SCRIPT],
        capture_output=True,
        env=_child_env(),
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr.decode()
    on_import, after_moduli = (set(line.split()) for line in proc.stdout.decode().splitlines())
    assert "bbwkoszul.cli" in on_import
    assert not on_import & {
        "dataclasses", "inspect", "datetime", "bbwkoszul.oracles", "bbwkoszul.gl2"
    }
    assert not after_moduli & {"bbwkoszul.oracles", "bbwkoszul.gl2"}
