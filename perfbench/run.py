"""Benchmark of the `verify` command, end to end and per layer.

    python3 perfbench/run.py --workload default-report --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 40

One client drives `verify` in a closed loop: the next invocation starts
only after the previous one exits, and `--jobs` stays at its default of 1.
With `--trace 0` a run repeats rounds of three measurements until
`--seconds` are used:

* set-up: a fresh interpreter that imports `bbwkoszul.cli` (which loads
  the bundled expectations);
* a cold pass: every invocation of the workload in a fresh process;
* a warm pass: `run_checks` in this process with the same arguments (one
  untimed pass before the first round fills the caches).

With `--trace 1` it alternates untraced and traced passes of
`perfbench/tracer.py`, one fresh process per invocation, and reports the
per-layer counts and self times of the traced passes.

A run pins itself and every child to the core where a calibration loop
runs fastest, and reports each time scaled to a reference speed by that
loop, timed next to the sample (see perfbench/README.md).

Every output is gated: the default report must hash to the golden
digest, and every other report must have no failed or undetermined row
and h1 = binom(d+2, 3) on both sides of each theorem-moduli row. The last
line of standard output is one JSON object: correct, attempted, failed and
metrics. A record with the environment and every sample goes to
`perfbench/out/`.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import math
import os
import platform
import random
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT = BENCH_DIR / "out"
TRACER = BENCH_DIR / "tracer.py"

# sha256 of `verify --format json --no-timestamp` over the default 3..12
GOLDEN_SHA256 = "2910a0b388725e2d8ab5a0a98b1dba47e6a9a89d9b6952cf164a211ef8e5bd46"
# every d-dependent check except the informational remark-d34
SWEEP_CHECKS = (
    "example-universal",
    "lemma-s",
    "plethysm-eq4",
    "decompositions",
    "lemma-cohomology",
    "prop-cubic",
    "prop-fano",
    "theorem-moduli",
)
WORKLOADS = ("default-report", "paper-sweep", "moduli-large-d")

MIN_ROUNDS = 3  # per run, even when one round outlasts --seconds
TAIL_PERCENTILES = (99, 95, 90, 75, 50)
TAIL_BEYOND = 10  # samples that must lie above a reported tail percentile
INVOCATION_TIMEOUT_S = 170
SETUP_CMD = [sys.executable, "-c", "import bbwkoszul.cli"]
# calibrate() at the reference speed; timings are reported at that speed
CAL_REFERENCE_S = 0.012


@dataclass(frozen=True)
class Invocation:
    """One `verify` command line and the `run_checks` call it makes."""

    argv: tuple[str, ...]
    d_min: int = 3
    d_max: int = 12
    checks: tuple[str, ...] | None = None

    @classmethod
    def of(cls, d_min: int | None = None, d_max: int | None = None, checks=()) -> "Invocation":
        argv = ["--format", "json", "--no-timestamp"]
        if d_min is not None:
            argv += ["--d-min", str(d_min), "--d-max", str(d_max)]
        for check in checks:
            argv += ["--check", check]
        return cls(tuple(argv), d_min or 3, d_max or 12, tuple(checks) or None)


def make_workload(name: str, seed: int) -> tuple[Invocation, ...]:
    """The invocations of one pass. The seed picks d; the cost barely moves.

    Seeds move the paper-sweep window by at most three and each large d by
    at most two, so runs with different seeds measure different inputs of
    nearly equal cost.
    """
    rng = random.Random(seed)
    if name == "default-report":
        # the golden digest pins the default range, so the seed is unused
        return (Invocation.of(),)
    if name == "paper-sweep":
        start = 5 + rng.randrange(4)
        return (Invocation.of(start, start + 49, SWEEP_CHECKS),)
    if name == "moduli-large-d":
        ds = (150 + rng.randrange(3), 199 + rng.randrange(3), 248 + rng.randrange(3))
        return tuple(Invocation.of(d, d, ("theorem-moduli",)) for d in ds)
    raise ValueError(f"unknown workload {name!r}")


def output_ok(workload: str, inv: Invocation, code: int, out: bytes) -> bool:
    """The correctness gate applied to every invocation's exit code and report."""
    if code != 0:
        return False
    if workload == "default-report":
        return hashlib.sha256(out).hexdigest() == GOLDEN_SHA256
    try:
        report = json.loads(out)
        summary = report["summary"]
        if summary["fail"] or summary["undetermined"]:
            return False
        moduli = {
            row["d"]: row["computed"]
            for row in report["results"]
            if row["check"] == "theorem-moduli" and row["status"] != "skipped"
        }
        for d in range(max(5, inv.d_min), inv.d_max + 1):
            expected = math.comb(d + 2, 3)
            if not moduli[d]["h1_cubic"] == moduli[d]["h1_fano"] == expected:
                return False
    except (ValueError, KeyError, TypeError):
        return False
    return True


def rows_run(out: bytes) -> int:
    """Report rows that did work (status other than skipped)."""
    try:
        return sum(row["status"] != "skipped" for row in json.loads(out)["results"])
    except (ValueError, KeyError, TypeError):
        return 0


@dataclass
class Tally:
    """Invocations attempted and failed, cold, warm and traced alike."""

    attempted: int = 0
    failed: int = 0
    failures: list[str] = field(default_factory=list)

    def add(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.failures.append(what)


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


# `python -m bbwkoszul.cli` as runpy runs it, then the process's own peak
# resident set on stderr. VmHWM is read because ru_maxrss of a child also
# counts the parent's pages it shared between fork and exec.
COLD_LAUNCHER = """
import runpy, sys
sys.argv[0] = "verify"
try:
    runpy.run_module("bbwkoszul.cli", run_name="__main__", alter_sys=True)
finally:
    with open("/proc/self/status") as status:
        hwm = next(line.split()[1] for line in status if line.startswith("VmHWM:"))
    sys.stderr.write(f"\\nVmHWM_kB {hwm}\\n")
"""


def run_cold(inv: Invocation) -> tuple[float, int, bytes, int]:
    """One `verify` invocation in a fresh interpreter: wall s, exit code, stdout, peak kB."""
    start = time.perf_counter()
    try:
        proc = subprocess.run(
            [sys.executable, "-c", COLD_LAUNCHER, *inv.argv],
            env=child_env(),
            capture_output=True,
            timeout=INVOCATION_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        return time.perf_counter() - start, -1, b"", 0
    seconds = time.perf_counter() - start
    last = proc.stderr.rsplit(b"\n", 2)[-2:]
    peak_kb = int(last[0].split()[1]) if last and last[0].startswith(b"VmHWM_kB ") else 0
    return seconds, proc.returncode, proc.stdout, peak_kb


def _calibration_loop() -> None:
    counts: dict[tuple[int, int], int] = {}
    for i in range(40000):
        key = (i % 97, i % 13)
        counts[key] = counts.get(key, 0) + 1
    product = 1
    for i in range(1, 1500):
        product *= i * 12345 + 1
    sorted(counts.items())


def calibrate() -> float:
    """Seconds a fixed pure-Python loop of about 20 ms takes at this moment.

    Long enough that the cache and scheduler transients right after a
    child process exits are a small part of it. The garbage collector is
    off meanwhile: its cost grows with this process's heap, which is no
    measure of the machine.
    """
    gc.disable()
    try:
        start = time.perf_counter()
        _calibration_loop()
        return time.perf_counter() - start
    finally:
        gc.enable()


def pin_to_fastest_core() -> int:
    """Pin this process, and so its children, to the core where calibrate() runs fastest.

    The cores of a shared machine run at different speeds that change over
    minutes. One core for everything keeps a run on one speed, and lets
    calibrate() measure the core the timed invocations run on.
    """
    best = (math.inf, -1)
    for core in sorted(os.sched_getaffinity(0)):
        os.sched_setaffinity(0, {core})
        best = min(best, (min(calibrate() for _ in range(3)), core))
    os.sched_setaffinity(0, {best[1]})
    return best[1]


class Scaler:
    """Converts seconds just measured into seconds at the reference speed.

    The CPU speed of a shared machine drifts by up to a third over tens of
    seconds, and every timing drifts with it. ``calibrate()`` runs before
    the first sample and after each one; a sample is scaled by
    CAL_REFERENCE_S over the mean of the calibrations on either side of
    it. A change to the program moves the scaled time as much as the raw
    one, while the machine's drift cancels.
    """

    def __init__(self) -> None:
        self._before = calibrate()

    def scale(self, seconds: float) -> float:
        after = calibrate()
        factor = 2 * CAL_REFERENCE_S / (self._before + after)
        self._before = after
        return seconds * factor


def cold_pass(workload, invocations, tally, scaler, runner=run_cold):
    """Every invocation in a fresh process: raw s, scaled s, outputs and peak kB."""
    raw = scaled = 0.0
    outputs = []
    peak_kb = 0
    for inv in invocations:
        seconds, code, out, inv_peak_kb = runner(inv)
        tally.add(output_ok(workload, inv, code, out), f"cold {' '.join(inv.argv)}")
        raw += seconds
        scaled += scaler.scale(seconds)
        outputs.append(out)
        peak_kb = max(peak_kb, inv_peak_kb)
    return raw, scaled, outputs, peak_kb


def render(report) -> bytes:
    """The bytes `verify --format json` prints for a report."""
    return (json.dumps(report.to_dict(timestamp=None), indent=2, sort_keys=True) + "\n").encode()


def warm_pass(workload, invocations, tally, scaler) -> tuple[float, float]:
    """`run_checks` in this process with each invocation's arguments: raw s and scaled s."""
    from bbwkoszul.checks import run_checks

    raw = scaled = 0.0
    reports = []
    for inv in invocations:
        start = time.perf_counter()
        report = run_checks(d_min=inv.d_min, d_max=inv.d_max, check_ids=inv.checks)
        seconds = time.perf_counter() - start
        raw += seconds
        scaled += scaler.scale(seconds)
        reports.append(report)
    for inv, report in zip(invocations, reports):
        ok = output_ok(workload, inv, report.exit_code(), render(report))
        tally.add(ok, f"warm {' '.join(inv.argv)}")
    return raw, scaled


def setup_probe(tally, scaler) -> tuple[float, float]:
    """Interpreter start plus `import bbwkoszul.cli`, which loads expected.json."""
    start = time.perf_counter()
    proc = subprocess.run(SETUP_CMD, env=child_env(), capture_output=True)
    seconds = time.perf_counter() - start
    tally.add(proc.returncode == 0, "setup import")
    return seconds, scaler.scale(seconds)


def tail(samples: list[float]) -> tuple[int, float]:
    """The highest listed percentile with TAIL_BEYOND samples above it.

    With too few samples for any of them, the maximum (percentile 100).
    """
    ordered = sorted(samples)
    n = len(ordered)
    for pct in TAIL_PERCENTILES:
        rank = math.ceil(pct * n / 100)
        if n - rank >= TAIL_BEYOND:
            return pct, ordered[rank - 1]
    return 100, ordered[-1]


def run_end_to_end(workload: str, invocations, seconds: float) -> tuple[Tally, dict, dict]:
    """Rounds of one set-up probe, one cold pass and one warm pass until ``seconds`` pass.

    Interleaving the three makes each see the same mix of the machine's
    fast and slow spells. Before the first round, one untimed import writes
    the bytecode cache and one untimed warm pass fills the caches.
    """
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    tally = Tally()
    subprocess.run(SETUP_CMD, env=child_env(), capture_output=True)
    warm_pass(workload, invocations, tally, Scaler())
    scaler = Scaler()
    setup: list[tuple[float, float]] = []
    cold: list[tuple[float, float]] = []
    warm: list[tuple[float, float]] = []
    outputs: list[bytes] = []
    peak_kb = 0
    until = time.perf_counter() + seconds
    last_round = 0.0
    while len(cold) < MIN_ROUNDS or time.perf_counter() + last_round < until:
        round_start = time.perf_counter()
        setup.append(setup_probe(tally, scaler))
        raw, scaled, outs, pass_peak_kb = cold_pass(workload, invocations, tally, scaler)
        cold.append((raw, scaled))
        outputs = outputs or outs
        peak_kb = max(peak_kb, pass_peak_kb)
        warm.append(warm_pass(workload, invocations, tally, scaler))
        last_round = time.perf_counter() - round_start
    scaled_cold = [s for _, s in cold]
    wall = statistics.median(scaled_cold)
    tail_pct, tail_value = tail(scaled_cold)
    rows = sum(rows_run(out) for out in outputs)
    metrics = {
        "setup_s": (statistics.median(s for _, s in setup), "s"),
        "wall_s": (wall, "s"),
        "warm_wall_s": (statistics.median(s for _, s in warm), "s"),
        "rows_per_s": (rows / wall, "1/s"),
        "peak_rss_mb": (peak_kb / 1024, "MB"),
    }
    samples = {
        "setup_s": setup,
        "cold_pass_s": cold,
        "warm_pass_s": warm,
        "raw_median_s": {
            "setup": statistics.median(r for r, _ in setup),
            "cold": statistics.median(r for r, _ in cold),
            "warm": statistics.median(r for r, _ in warm),
        },
        "wall_s_tail": {"percentile": tail_pct, "samples": len(cold), "value_s": tail_value},
        "rows_per_pass": rows,
    }
    return tally, metrics, samples


# per-layer metrics reported from the traced passes, by span name
CALL_METRICS = (
    "weights.weyl_dimension",
    "weights.dominant_sort",
    "weights.littlewood_richardson",
    "gl2.wedge_power_gl2",
    "gl2.gl2_tensor",
    "bbw.bbw_cohomology",
    "bbw.profile_dimension",
    "classes.tensor",
    "classes.cohomology",
    "classes.wedge_class",
    "koszul.build_page",
    "koszul.analyze",
    "koszul.restricted_cohomology",
    "koszul.deformation_numbers",
)
SELF_METRICS = (
    "weights.weyl_dimension",
    "weights.dominant_sort",
    "weights.littlewood_richardson",
    "weights.count_ssyt",
    "gl2.wedge_power_gl2",
    "gl2.gl2_tensor",
    "bbw.bbw_cohomology",
    "bbw.profile_dimension",
    "classes.tensor",
    "classes.cohomology",
    "koszul.build_page",
    "koszul.analyze",
    "koszul.restricted_cohomology",
    "koszul.deformation_numbers",
    "checks.runner",
    "oracles.suite",
    "cli.render",
)


def run_traced(inv: Invocation, trace: bool, spans: Path | None, workdir: str):
    """One tracer invocation in a fresh process: (record, exit code, stdout)."""
    record_path = os.path.join(workdir, "record.json")
    cmd = [sys.executable, str(TRACER), "--out", record_path]
    if trace:
        cmd.append("--trace")
        if spans is not None:
            cmd += ["--spans", str(spans)]
    cmd += ["--", *inv.argv]
    try:
        proc = subprocess.run(cmd, env=child_env(), capture_output=True, timeout=INVOCATION_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return None, -1, b""
    if proc.returncode != 0:
        return None, proc.returncode, proc.stdout
    with open(record_path) as fh:
        record = json.load(fh)
    return record, record["exit_code"], proc.stdout


def combine(records: list[dict]) -> dict:
    """Sum the records of one pass's invocations."""
    layers = {
        name: {
            "calls": sum(r["layers"][name]["calls"] for r in records),
            "self_s": sum(r["layers"][name]["self_s"] for r in records),
        }
        for name in records[0]["layers"]
    }
    return {
        "elapsed_s": sum(r["elapsed_s"] for r in records),
        "layers": layers,
        "hits": sum(r["weyl_cache"]["hits"] for r in records),
        "misses": sum(r["weyl_cache"]["misses"] for r in records),
        "build_page_keys": sum(r["build_page_keys"] for r in records),
        "acyclic": sum(r["acyclic"] for r in records),
        "untraced": sorted({name for r in records for name in r["untraced"]}),
    }


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def run_per_layer(workload: str, invocations, seconds: float, seed: int):
    """Alternate untraced and traced passes; per-layer metrics from the traced ones."""
    tally = Tally()
    until = time.perf_counter() + seconds
    untraced: list[float] = []
    traced: list[dict] = []
    rows = 0
    pairs = 0
    with tempfile.TemporaryDirectory(dir=OUT) as workdir:
        while pairs < 2 or time.perf_counter() < until:
            pairs += 1
            for trace in (False, True):
                records = []
                for i, inv in enumerate(invocations):
                    spans = OUT / f"{workload}-seed{seed}-inv{i}.spans.tsv.gz" if not traced else None
                    record, code, out = run_traced(inv, trace, spans, workdir)
                    ok = record is not None and output_ok(workload, inv, code, out)
                    tally.add(ok, f"{'traced' if trace else 'untraced'} {' '.join(inv.argv)}")
                    if record is not None:
                        records.append(record)
                    if trace and not traced:
                        rows += rows_run(out)
                if len(records) < len(invocations):
                    continue
                if trace:
                    traced.append(combine(records))
                else:
                    untraced.append(sum(r["elapsed_s"] for r in records))
    if len(traced) < 2 or not untraced:
        return tally, {}, {"repeatable_calls": False}
    calls = [{name: v["calls"] for name, v in p["layers"].items()} for p in traced]
    repeatable = all(c == calls[0] for c in calls)
    first = traced[0]
    layers = first["layers"]
    metrics: dict[str, tuple[float, str]] = {}
    for name in CALL_METRICS:
        metrics[f"{name}.calls"] = (layers[name]["calls"], "count")
    for name in SELF_METRICS:
        value = statistics.median(p["layers"][name]["self_s"] for p in traced)
        metrics[f"{name}.self_s"] = (value, "s")
    metrics["weights.weyl_cache.hit_ratio"] = (
        _ratio(first["hits"], first["hits"] + first["misses"]), "ratio")
    metrics["bbw.bbw_cohomology.acyclic_ratio"] = (
        _ratio(first["acyclic"], layers["bbw.bbw_cohomology"]["calls"]), "ratio")
    metrics["koszul.build_page.unique_ratio"] = (
        _ratio(first["build_page_keys"], layers["koszul.build_page"]["calls"]), "ratio")
    metrics["checks.rows"] = (rows, "count")
    metrics["trace.overhead_ratio"] = (
        statistics.median(p["elapsed_s"] for p in traced) / statistics.median(untraced), "ratio")
    samples = {
        "traced_pass_s": [p["elapsed_s"] for p in traced],
        "untraced_pass_s": untraced,
        "build_page_keys": first["build_page_keys"],
        "repeatable_calls": repeatable,
        "untraced_targets": first["untraced"],
    }
    return tally, metrics, samples


def environment(workload: str, seed: int, invocations, seconds: int, trace: int) -> dict:
    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "d_values": sorted({d for inv in invocations for d in range(inv.d_min, inv.d_max + 1)}),
        "argv": [list(inv.argv) for inv in invocations],
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": os.cpu_count(),
        "platform": platform.platform(),
    }


def run_one(workload: str, seed: int, seconds: int, trace: int) -> dict:
    invocations = make_workload(workload, seed)
    env = environment(workload, seed, invocations, seconds, trace)
    env["core"] = pin_to_fastest_core()
    if trace:
        tally, metrics, samples = run_per_layer(workload, invocations, seconds, seed)
        correct = tally.failed == 0 and samples.get("repeatable_calls", False)
    else:
        tally, metrics, samples = run_end_to_end(workload, invocations, seconds)
        correct = tally.failed == 0
    fail_ratio = _ratio(tally.failed, tally.attempted)
    record = {
        "environment": env,
        "fail_ratio": fail_ratio,
        "failures": tally.failures,
        "samples": samples,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    with open(OUT / f"{workload}-seed{seed}-trace{trace}.json", "w") as fh:
        json.dump(record, fh, indent=1)

    print(f"# {workload}  seed {seed}  python {env['python']}  nproc {env['nproc']}")
    ds = env["d_values"]
    shown = f"{ds[0]}..{ds[-1]}" if ds == list(range(ds[0], ds[-1] + 1)) else ", ".join(map(str, ds))
    print(f"# d values {shown}")
    if not trace:
        tail = samples["wall_s_tail"]
        print(f"# {tail['samples']} rounds of a set-up, a cold pass and a warm pass; "
              f"cold p{tail['percentile']} of {tail['samples']} passes: {tail['value_s']:.6g} s")
        raw = samples["raw_median_s"]
        print(f"# unscaled medians: setup {raw['setup']:.4g} s, cold {raw['cold']:.4g} s, "
              f"warm {raw['warm']:.4g} s")
    else:
        print(f"# {len(samples.get('traced_pass_s', []))} traced and "
              f"{len(samples.get('untraced_pass_s', []))} untraced passes; "
              f"call counts repeat: {samples.get('repeatable_calls')}")
    for name, (value, unit) in metrics.items():
        print(f"{name:<40} {value:>14.6g} {unit}")
    print(f"fail_ratio {tally.failed}/{tally.attempted} = {fail_ratio:.4g}")
    for failure in tally.failures[:5]:
        print(f"# failed: {failure}")
    return {
        "correct": correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": record["metrics"],
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="Benchmark of the verify command.")
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=40)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "bbwkoszul" / "cli.py").is_file():
        print(f"error: no bbwkoszul sources under {SRC}", file=sys.stderr)
        return 2
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    OUT.mkdir(exist_ok=True)
    if args.workload != "all":
        result = run_one(args.workload, args.seed, args.seconds, args.trace)
        print(json.dumps(result))
        return 0
    # one process per workload, so that peak_rss_mb and the warm caches
    # of one workload do not leak into the next
    results = {}
    for workload in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True,
        )
        print(proc.stdout, end="")
        if proc.returncode != 0:
            return proc.returncode
        results[workload] = json.loads(proc.stdout.splitlines()[-1])
    print(json.dumps(results))
    return 0

if __name__ == "__main__":
    raise SystemExit(main())
