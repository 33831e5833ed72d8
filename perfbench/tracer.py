"""Per-layer spans for the char2paley benchmark, recorded from outside the package.

`Tracer.install` wraps every function that one char2paley module imports
from another, at the importing module's binding, so `cli.build_graph`
and `structure.build_graph` both record a `construct.build_graph` span.
Per-element helpers stay unwrapped.  The first, table-building call of
each `FieldCtx._ensure_tables` records a `gf2k.tables` span; later calls
on that field reach the method unwrapped.  A span is
`[name, start, end, parent index or -1, invocation]`, kept in memory.

Run as a script, it executes CLI invocations in this one process with
the wrappers installed and writes the spans and exit codes as JSON:

    PYTHONPATH=src python3 perfbench/tracer.py SPANS.json '[["certify", "--k", "4"]]'
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import json
import os
import sys
import time

PACKAGE = "char2paley"
MODULES = ("gf2k", "mobius", "construct", "analyze", "structure", "formats", "cli")
PER_ELEMENT = frozenset({"vertex_index", "point_of_index", "point_label", "apply"})


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.invocation = 0
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def wrap(self, name: str, fn):
        """`fn` recording one span named `name` per call."""
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, clock(), None, stack[-1] if stack else -1, self.invocation]
            stack.append(len(spans))
            spans.append(span)
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()

        return traced

    def _patch(self, owner, attr: str, value) -> None:
        self._saved.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def install(self) -> None:
        for short in MODULES:
            mod = importlib.import_module(f"{PACKAGE}.{short}")
            for attr, obj in list(vars(mod).items()):
                if (inspect.isfunction(obj) and attr not in PER_ELEMENT
                        and obj.__module__ != mod.__name__
                        and obj.__module__.startswith(PACKAGE + ".")):
                    layer = obj.__module__.rpartition(".")[2]
                    self._patch(mod, attr, self.wrap(f"{layer}.{obj.__name__}", obj))
        field_ctx = importlib.import_module(f"{PACKAGE}.gf2k").FieldCtx
        if hasattr(field_ctx, "_ensure_tables"):
            self._patch(field_ctx, "__init__", self._tables_init(field_ctx.__init__))

    def _tables_init(self, init):
        wrap = self.wrap

        @functools.wraps(init)
        def __init__(ctx, *args, **kwargs):
            init(ctx, *args, **kwargs)

            def first_build():
                del ctx._ensure_tables  # later calls reach the class method
                return type(ctx)._ensure_tables(ctx)

            ctx._ensure_tables = wrap("gf2k.tables", first_build)

        return __init__

    def restore(self) -> None:
        while self._saved:
            owner, attr, value = self._saved.pop()
            setattr(owner, attr, value)


def self_times(spans) -> list[float]:
    """Each span's duration minus the durations of its direct children."""
    own = [end - start for _, start, end, _, _ in spans]
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            own[parent] -= end - start
    return own


def layer_totals(spans, invocation: int | None = None) -> dict[str, tuple[float, int]]:
    """Span name -> (summed self time, call count), over one invocation or all."""
    totals: dict[str, tuple[float, int]] = {}
    for span, own in zip(spans, self_times(spans)):
        if invocation is not None and span[4] != invocation:
            continue
        s, c = totals.get(span[0], (0.0, 0))
        totals[span[0]] = (s + own, c + 1)
    return totals


def attribution_error(spans) -> str | None:
    """Why self times fail to partition each invocation's wall time, or None."""
    own = self_times(spans)
    walls: dict[int, float] = {}
    summed: dict[int, float] = {}
    for (name, start, end, parent, inv), s in zip(spans, own):
        if end is None or s < -1e-6:
            return f"span {name} has self time {s} (unclosed or overlapping children)"
        if parent < 0:
            walls[inv] = walls.get(inv, 0.0) + end - start
        summed[inv] = summed.get(inv, 0.0) + s
    for inv, wall in walls.items():
        if abs(summed[inv] - wall) > 1e-6 * max(1.0, wall):
            return f"invocation {inv}: self times sum to {summed[inv]}, wall is {wall}"
    return None


def run_traced(invocations) -> tuple[list[int], list[list]]:
    """Run each argv through cli.main in this process; (exit codes, spans)."""
    cli = importlib.import_module(f"{PACKAGE}.cli")
    tracer = Tracer()
    tracer.install()
    exits = []
    try:
        with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
            for i, argv in enumerate(invocations):
                tracer.invocation = i
                try:
                    exits.append(tracer.wrap(f"cli.{argv[0]}", cli.main)(list(argv)))
                except SystemExit as exc:
                    exits.append(exc.code if isinstance(exc.code, int) else 2)
    finally:
        tracer.restore()
    return exits, tracer.spans


def main() -> int:
    out_path, invocations = sys.argv[1], json.loads(sys.argv[2])
    exits, spans = run_traced(invocations)
    package_file = importlib.import_module(PACKAGE).__file__
    with open(out_path, "w") as fh:
        json.dump({"package_file": package_file, "exits": exits, "spans": spans}, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
