"""Command-line front end.

Usage:
    verify [--d-min N] [--d-max N] [--check ID]... [--format json|text]
           [--strict-paper] [--no-timestamp]
    verify list-checks

Exit codes: 0 success, 1 at least one failed check, 2 usage error,
3 (only under --strict-paper) at least one paper-discrepancy, 141 stdout
closed before the report was written (the shell's code for SIGPIPE).

A report goes to stdout in bounded writes, one per batch of JSON writer
pieces or of text lines: never one per piece, and never one for a whole
report, which unbuffered stdout could lose part of without an error.

The JSON report is exactly ``json.dumps(payload, indent=2, sort_keys=True)``
plus a newline. The standard library writes indented output with its
pure-Python encoder, which resumes one generator per nesting level for
every token; the writer here appends each key or scalar to a list once and
encodes strings with the C function the standard library uses.

``console_main()`` is the process entry: the ``verify`` script and
``python -m bbwkoszul.cli`` run it. It returns ``main()``'s exit code after
``gc.freeze()``, so that the collector's passes at interpreter shutdown skip
every object the run left. ``main()`` itself never freezes: tests and
library callers run it in long-lived processes, where a frozen object,
and every cycle it holds, would never be collected.
"""

from __future__ import annotations

import argparse
import gc
import os
import sys
from collections.abc import Iterable, Iterator
from itertools import islice
from json.encoder import encode_basestring_ascii

from .checks import UsageError, list_checks, run_checks

# Counts the JSON writer's pieces: a bracket, or a key with its separator
# and, when the value is a string or an int, the value. A batch ends at
# the first result-row boundary after this many pieces, at about 5.7 KB
# on average and 9 KB at most: 80 writes for the 455 KB paper sweep. The
# pieces of a batch live until they are joined, so larger batches raise
# peak memory (256 pieces: 58 KB traced, against 43 KB) and save no time.
JSON_TOKENS_PER_WRITE = 160
# Text lines run to about 75 characters, so a batch is about 5 KB. A
# batch that the reader abandons part-way is cut short without an error on
# unbuffered stdout; the next batch then meets the closed pipe.
TEXT_LINES_PER_WRITE = 64
EXIT_STDOUT_CLOSED = 141  # 128 + SIGPIPE, as a shell reports a piped writer


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


def _batches(pieces: Iterator[str], size: int) -> Iterator[str]:
    while batch := "".join(islice(pieces, size)):
        yield batch


def _encode(o, out: list[str], newline: str, keys: dict[str, str]) -> None:
    """Append the indented JSON of o to out.

    newline is a line break followed by the indent of o's own line; keys
    maps each dict key met so far to its encoding with the ": " after it.
    A report holds only str keys, and no float (its arithmetic is exact):
    anything else raises TypeError rather than writes other bytes.
    """
    if isinstance(o, dict):
        if not o:
            out.append("{}")
            return
        inner = newline + "  "
        sep = "{" + inner
        for key in sorted(o):
            k = keys.get(key)
            if k is None:
                if not isinstance(key, str):
                    raise TypeError(f"a report key must be a str, not {type(key).__name__}")
                k = keys[key] = encode_basestring_ascii(key) + ": "
            value = o[key]
            # the two commonest scalars join their key's piece
            if type(value) is str:
                out.append(sep + k + encode_basestring_ascii(value))
            elif type(value) is int:
                out.append(sep + k + int.__repr__(value))
            else:
                out.append(sep + k)
                _encode(value, out, inner, keys)
            sep = "," + inner
        out.append(newline + "}")
    elif isinstance(o, (list, tuple)):
        if not o:
            out.append("[]")
            return
        inner = newline + "  "
        sep = "[" + inner
        for value in o:
            if type(value) is str:
                out.append(sep + encode_basestring_ascii(value))
            elif type(value) is int:
                out.append(sep + int.__repr__(value))
            else:
                out.append(sep)
                _encode(value, out, inner, keys)
            sep = "," + inner
        out.append(newline + "]")
    elif isinstance(o, str):
        out.append(encode_basestring_ascii(o))
    elif o is None:
        out.append("null")
    elif o is True:
        out.append("true")
    elif o is False:
        out.append("false")
    elif isinstance(o, int):
        out.append(int.__repr__(o))
    else:
        raise TypeError(f"a report holds no value of type {type(o).__name__}")


def _json_batches(payload) -> Iterator[str]:
    """``json.dumps(payload, indent=2, sort_keys=True) + "\\n"``, in batches.

    The rows are the items of each list that a dict payload holds at its
    top, such as the report's results. A batch is yielded at the first
    row boundary after JSON_TOKENS_PER_WRITE pieces, so no more than a
    batch and a row of the output are held at once.
    """
    out: list[str] = []
    keys: dict[str, str] = {}
    if isinstance(payload, dict) and payload:
        sep = "{\n  "
        for key in sorted(payload):
            if not isinstance(key, str):
                raise TypeError(f"a report key must be a str, not {type(key).__name__}")
            value = payload[key]
            out.append(sep + encode_basestring_ascii(key) + ": ")
            if isinstance(value, (list, tuple)) and value:
                row_sep = "[\n    "
                for row in value:
                    out.append(row_sep)
                    _encode(row, out, "\n    ", keys)
                    row_sep = ",\n    "
                    if len(out) >= JSON_TOKENS_PER_WRITE:
                        yield "".join(out)
                        out.clear()
                out.append("\n  ]")
            else:
                _encode(value, out, "\n  ", keys)
            sep = ",\n  "
        out.append("\n}")
    else:
        _encode(payload, out, "\n", keys)
    out.append("\n")
    yield "".join(out)


def _text_lines(report) -> list[str]:
    lines = [
        f"verification report (engine {report.version})",
        f"d range {report.d_min}..{report.d_max}; checks: {', '.join(report.checks)}",
    ]
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
        lines.append(f"  {r.check:<{width}}  d={d:<3} {r.status:<18} {detail}")
    lines.append("summary: " + " ".join(f"{k}={v}" for k, v in report.summary.items()))
    axioms = {}
    for r in report.results:
        for a in r.axioms:
            axioms[a["name"]] = a
    if axioms:
        lines.append("axioms consumed:")
        for name in sorted(axioms):
            a = axioms[name]
            lines.append(f"  {name}: {a['statement']} [{a['source']}]")
    return lines


def _render_list() -> str:
    lines = []
    for entry in list_checks():
        flag = " (informational)" if entry["informational"] else ""
        lines.append(f"{entry['id']}{flag}  [{entry['applicability']}]")
        lines.append(f"    {entry['description']}")
        lines.append(f"    {entry['claim']}")
    return "\n".join(lines) + "\n"


def _write(pieces: Iterable[str]) -> bool:
    """Write each piece to stdout; False when the reader has closed it."""
    try:
        for piece in pieces:
            sys.stdout.write(piece)
        sys.stdout.flush()
    except BrokenPipeError:
        # the SIGPIPE recipe of the Python docs: point stdout at devnull
        # so that the flush at exit does not raise again
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return False
    return True


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if argv and argv[0] == "list-checks":
        if len(argv) > 1:
            print("list-checks takes no arguments", file=sys.stderr)
            return 2
        return 0 if _write((_render_list(),)) else EXIT_STDOUT_CLOSED
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
        pieces = _json_batches(report.to_dict(timestamp=timestamp))
    else:
        pieces = _batches((line + "\n" for line in _text_lines(report)), TEXT_LINES_PER_WRITE)
    if not _write(pieces):
        return EXIT_STDOUT_CLOSED
    return report.exit_code(strict_paper=args.strict_paper)


def console_main() -> int:
    """main() for a process that exits as soon as it returns."""
    code = main()
    # only the exit follows, which frees the whole process at once
    gc.freeze()
    return code


if __name__ == "__main__":
    raise SystemExit(console_main())
