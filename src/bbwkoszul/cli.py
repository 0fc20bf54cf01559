"""Command-line front end.

Usage:
    verify [--d-min N] [--d-max N] [--check ID]... [--format json|text]
           [--strict-paper] [--no-timestamp]
    verify list-checks

Exit codes: 0 success, 1 at least one failed check, 2 usage error,
3 (only under --strict-paper) at least one paper-discrepancy.
"""

from __future__ import annotations

import argparse
import json
import sys

from .checks import UsageError, list_checks, run_checks


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="verify",
        description="Recompute and verify the cohomological claims over a range of d.",
    )
    parser.add_argument("--d-min", type=int, default=3, help="smallest d (default 3)")
    parser.add_argument("--d-max", type=int, default=12, help="largest d (default 12)")
    parser.add_argument(
        "--check",
        action="append",
        dest="checks",
        metavar="ID",
        help="run only this check (repeatable; see `verify list-checks`)",
    )
    parser.add_argument("--format", choices=("json", "text"), default="text")
    parser.add_argument(
        "--strict-paper",
        action="store_true",
        help="exit 3 when a computed value disagrees with a claimed placement",
    )
    parser.add_argument(
        "--no-timestamp",
        action="store_true",
        help="omit the timestamp for byte-reproducible reports",
    )
    return parser


def _render_text(report, out) -> None:
    print(f"verification report (engine {report.version})", file=out)
    print(
        f"d range {report.d_min}..{report.d_max}; checks: {', '.join(report.checks)}",
        file=out,
    )
    width = max(len(r.check) for r in report.results)
    for r in report.results:
        d = "-" if r.d is None else str(r.d)
        detail = ""
        if r.status == "pass" and isinstance(r.computed, dict):
            bits = [
                f"{k}={v}"
                for k, v in sorted(r.computed.items())
                if isinstance(v, (int, bool))
            ]
            detail = " ".join(bits[:4])
        elif r.notes:
            detail = r.notes
        print(f"  {r.check:<{width}}  d={d:<3} {r.status:<18} {detail}", file=out)
    summary = report.summary
    print(
        "summary: "
        + " ".join(f"{k}={v}" for k, v in summary.items()),
        file=out,
    )
    axioms = {}
    for r in report.results:
        for a in r.axioms:
            axioms[a["name"]] = a
    if axioms:
        print("axioms consumed:", file=out)
        for name in sorted(axioms):
            a = axioms[name]
            print(f"  {name}: {a['statement']} [{a['source']}]", file=out)


def _render_list(out) -> None:
    for entry in list_checks():
        flag = " (informational)" if entry["informational"] else ""
        print(f"{entry['id']}{flag}  [{entry['applicability']}]", file=out)
        print(f"    {entry['description']}", file=out)
        print(f"    {entry['claim']}", file=out)


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if argv and argv[0] == "list-checks":
        if len(argv) > 1:
            print("list-checks takes no arguments", file=sys.stderr)
            return 2
        _render_list(sys.stdout)
        return 0
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors and 0 on --help
        return int(exc.code or 0)
    try:
        report = run_checks(d_min=args.d_min, d_max=args.d_max, check_ids=args.checks)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    if args.format == "json":
        timestamp = None
        if not args.no_timestamp:
            # imported here: only a timestamped report pays for datetime
            from datetime import datetime, timezone

            timestamp = datetime.now(timezone.utc).isoformat(timespec="seconds")
        json.dump(report.to_dict(timestamp=timestamp), sys.stdout, indent=2, sort_keys=True)
        print()
    else:
        _render_text(report, sys.stdout)
    return report.exit_code(strict_paper=args.strict_paper)


if __name__ == "__main__":
    raise SystemExit(main())
