"""Span recorder for the public functions of each bbwkoszul layer.

The recorder wraps the functions named in LAYER_FUNCTIONS at run time and
rebinds every module and class attribute of the package that refers to
the original object (``checks.build_page`` as well as
``koszul.build_page``), so no file of the package changes. Each call
records one span: id, parent span id, name, start and end. Spans stay in
memory; ``summary()`` turns them into per-name call counts and self times
once the run is over.

Run as a script it executes one ``verify`` invocation in this process and
writes a JSON record (exit code, time inside ``cli.main``, Weyl cache
statistics and, when traced, the per-layer summary) to ``--out``:

    PYTHONPATH=src python3 perfbench/tracer.py --out rec.json [--trace [--spans s.tsv.gz]] -- --d-min 5 --d-max 9

The report ``verify`` prints goes to standard output unchanged, so the
caller can gate it exactly as it gates an untraced invocation.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import gzip
import importlib
import inspect
import io
import itertools
import json
import sys
import time

# span name -> (module, attribute path) of the wrapped callable. Several
# callables may share one span name; their spans are then summed.
LAYER_FUNCTIONS: dict[str, tuple[tuple[str, str], ...]] = {
    "weights.weyl_dimension": (("bbwkoszul.weights", "weyl_dimension"),),
    "weights.dominant_sort": (("bbwkoszul.weights", "dominant_sort"),),
    "weights.littlewood_richardson": (("bbwkoszul.weights", "littlewood_richardson"),),
    "weights.count_ssyt": (("bbwkoszul.weights", "count_ssyt"),),
    "gl2.wedge_power_gl2": (("bbwkoszul.gl2", "wedge_power_gl2"),),
    "gl2.gl2_tensor": (("bbwkoszul.gl2", "gl2_tensor"),),
    "bbw.bbw_cohomology": (("bbwkoszul.bbw", "bbw_cohomology"),),
    "bbw.profile_dimension": (("bbwkoszul.bbw", "CohomologyProfile.dimension"),),
    "classes.tensor": (("bbwkoszul.classes", "EquivariantClass.tensor"),),
    "classes.cohomology": (("bbwkoszul.classes", "EquivariantClass.cohomology"),),
    "classes.wedge_class": (("bbwkoszul.classes", "wedge_class"),),
    "koszul.build_page": (("bbwkoszul.koszul", "build_page"),),
    "koszul.analyze": (("bbwkoszul.koszul", "analyze"),),
    "koszul.restricted_cohomology": (("bbwkoszul.koszul", "restricted_cohomology"),),
    "koszul.deformation_numbers": (("bbwkoszul.koszul", "deformation_numbers"),),
    # the check layer's own work: the runner of each row plus the loop
    # that schedules and sorts them
    "checks.runner": (
        ("bbwkoszul.checks", "run_checks"),
        ("bbwkoszul.checks", "_execute"),
    ),
    "oracles.suite": tuple(
        ("bbwkoszul.oracles", name)
        for name in ("ssyt_weyl_suite", "lr_suite", "gl2_suite", "serre_suite", "euler_suite")
    ),
    # the command itself: argument parsing and rendering of the report;
    # run_checks is a child span, so the self time is the rendering cost
    "cli.render": (("bbwkoszul.cli", "main"),),
}


class Recorder:
    """Holds the spans of one process and the per-call observations."""

    def __init__(self) -> None:
        self.spans: list[tuple[int, int, str, float, float]] = []
        self.page_keys: set = set()
        self.acyclic = 0
        self.missing: list[str] = []
        self._stack = [0]
        self._ids = itertools.count(1)

    def wrap(self, name: str, fn, note=None):
        stack, spans, ids, clock = self._stack, self.spans, self._ids, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = next(ids)
            parent = stack[-1]
            stack.append(sid)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans.append((sid, parent, name, start, end))
            if note is not None:
                note(args, kwargs, result)
            return result

        return traced

    def _note_page(self, args, kwargs, _result) -> None:
        from bbwkoszul import koszul

        bound = inspect.signature(koszul.build_page).bind(*args, **kwargs).arguments
        coefficient = tuple(sorted(bound["coefficient"].summands().items()))
        self.page_keys.add((bound["ctx"], bound["variant"], coefficient))

    def _note_bbw(self, _args, _kwargs, result) -> None:
        if result.is_empty:
            self.acyclic += 1

    def install(self) -> None:
        """Wrap every target and rebind each package reference to it."""
        notes = {"koszul.build_page": self._note_page, "bbw.bbw_cohomology": self._note_bbw}
        replacements: dict[int, object] = {}
        for name, targets in LAYER_FUNCTIONS.items():
            for module_name, path in targets:
                owner = importlib.import_module(module_name)
                *outer, attr = path.split(".")
                for part in outer:
                    owner = getattr(owner, part, None)
                original = None if owner is None else vars(owner).get(attr)
                if original is None:
                    self.missing.append(f"{module_name}.{path}")
                    continue
                replacements[id(original)] = self.wrap(name, original, notes.get(name))
        for module_name, module in list(sys.modules.items()):
            if module_name != "bbwkoszul" and not module_name.startswith("bbwkoszul."):
                continue
            namespaces = [module] + [
                value for value in vars(module).values()
                if isinstance(value, type) and value.__module__ == module_name
            ]
            for namespace in namespaces:
                for attr, value in list(vars(namespace).items()):
                    wrapped = replacements.get(id(value))
                    if wrapped is not None:
                        setattr(namespace, attr, wrapped)

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: number of calls and self time in seconds.

        A span's self time is its duration minus the durations of its
        direct children; calls nest, so the children never overlap.
        """
        child_time: dict[int, float] = {}
        for _sid, parent, _name, start, end in self.spans:
            child_time[parent] = child_time.get(parent, 0.0) + (end - start)
        out: dict[str, dict[str, float]] = {
            name: {"calls": 0, "self_s": 0.0} for name in LAYER_FUNCTIONS
        }
        for sid, _parent, name, start, end in self.spans:
            entry = out[name]
            entry["calls"] += 1
            entry["self_s"] += (end - start) - child_time.get(sid, 0.0)
        return out


def run_verify(argv: list[str], recorder: Recorder | None) -> tuple[dict, str]:
    """Run one `verify` invocation in this process, traced when a recorder is given."""
    from bbwkoszul import cli, weights

    if recorder is not None:
        recorder.install()
    buffer = io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(buffer):
        code = cli.main(argv)
    elapsed = time.perf_counter() - start
    info = weights._weyl_product.cache_info()
    record = {
        "exit_code": code,
        "elapsed_s": elapsed,
        "weyl_cache": {"hits": info.hits, "misses": info.misses},
    }
    if recorder is not None:
        record.update(
            layers=recorder.summary(),
            build_page_keys=len(recorder.page_keys),
            acyclic=recorder.acyclic,
            untraced=recorder.missing,
        )
    return record, buffer.getvalue()


def write_spans(path: str, spans) -> None:
    """One tab-separated line per span: id, parent id, name, start, end."""
    with gzip.open(path, "wt") as fh:
        fh.write("id\tparent\tname\tstart\tend\n")
        for sid, parent, name, start, end in spans:
            fh.write(f"{sid}\t{parent}\t{name}\t{start:.9f}\t{end:.9f}\n")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", required=True, help="where to write the JSON record")
    parser.add_argument("--trace", action="store_true", help="record spans")
    parser.add_argument("--spans", help="with --trace, also write every span to this .tsv.gz")
    parser.add_argument("argv", nargs=argparse.REMAINDER, help="arguments for verify, after --")
    args = parser.parse_args()
    argv = args.argv[1:] if args.argv[:1] == ["--"] else args.argv
    recorder = Recorder() if args.trace else None
    record, output = run_verify(argv, recorder)
    with open(args.out, "w") as fh:
        json.dump(record, fh)
    if recorder is not None and args.spans:
        write_spans(args.spans, recorder.spans)
    sys.stdout.write(output)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
