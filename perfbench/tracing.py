"""Outside-in tracing of ``commensura``: spans and counters recorded by
wrappers that the benchmark installs on the package's functions.

The package itself carries no instrumentation.  ``Tracer.install`` replaces
every module binding of each traced function (``verify_tiling`` is bound in
``engine``, ``cli`` and inside ``tilings`` itself, where
``to_measure_tiling`` calls it); a binding left unwrapped would silently
undercount, so the counts are checked against exact figures in the
benchmark's tests.  ``scalars`` gets counters only, since it is called
about a million times per Heawood ``analyze``.
"""

from __future__ import annotations

import functools
import sys
from collections import Counter
from time import perf_counter

# module -> traced callables; "Class.method" names a method
SPANNED = {
    "graph": ("dijkstra", "girth", "point_diameter_check", "cycles_of", "bars_of",
              "segments_of", "parse_graph"),
    "chords": ("chords_of_loop", "chords_of_subgraph", "chord_budgets"),
    "tilings": ("verify_tiling", "to_measure_tiling", "annulus_tiling", "product_tiling",
                "psi_transform"),
    "dehn": ("parse_measure_tiling", "verify_measure_tiling", "dehn_test", "dehn_plus_test",
             "functional_identity", "solve_functional"),
    "engine": ("analyze", "check_hypotheses", "analyze_cycle", "analyze_cycle_pair",
               "analyze_bar", "Analysis.as_report"),
    "cli": ("main",),
}
COUNTED = {"scalars": ("SymbolTable.compare", "SymbolTable.sign", "compare_area",
                       "SymbolTable.enclosure")}


# distinct-input keys, for the share of calls that did new work: each
# returns (key, object the key names); the objects stay referenced until the
# operation ends, so their ids are not reused within it
def _tiling_key(args, kwargs):
    return id(args[0]), args[0]


def _dijkstra_key(args, kwargs):
    graph, source = args[0], args[1]
    skip = args[2] if len(args) > 2 else kwargs.get("skip_edge")
    return (id(graph), source, skip), graph


DISTINCT_KEYS = {"tilings.verify_tiling": _tiling_key, "graph.dijkstra": _dijkstra_key}


def _package_modules(package: str) -> list:
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == package or name.startswith(package + "."))]


class Tracer:
    """Spans (name, start, end, parent, op) kept in memory, plus counters."""

    def __init__(self, package: str = "commensura"):
        self.package = package
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.distinct: Counter = Counter()
        self.op = 0
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._seen: dict[str, dict] = {}
        self._restore: list[tuple] = []

    # -- recording ----------------------------------------------------------

    def _span(self, name: str, fn):
        spans, stack = self.spans, self._stack
        key_of = DISTINCT_KEYS.get(name)
        seen = self._seen.setdefault(name, {})

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if key_of is not None:
                key, ref = key_of(args, kwargs)
                seen[key] = ref
            idx = len(spans)
            spans.append([name, perf_counter(), 0.0, stack[-1] if stack else -1, self.op])
            stack.append(idx)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[idx][2] = perf_counter()

        return wrapper

    def _counter(self, name: str, fn):
        counts = self.counts
        if name == "scalars.enclosure":
            @functools.wraps(fn)
            def wrapper(table, idx, bits):
                counts["scalars.enclosure.calls_64" if bits <= 64
                       else "scalars.enclosure.calls_above_64"] += 1
                return fn(table, idx, bits)
        else:
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                counts["scalars.compare.calls"] += 1
                return fn(*args, **kwargs)
        return wrapper

    def end_op(self) -> None:
        """Close one operation: fold its distinct inputs into the totals."""
        for name, seen in self._seen.items():
            self.distinct[name] += len(seen)
            seen.clear()
        self.op += 1

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        """Wrap every traced callable at each of its bindings: a method at
        its class, a function in every package module that imported it."""
        modules = _package_modules(self.package)
        by_name = {m.__name__: m for m in modules}
        for table, wrap in ((SPANNED, self._span), (COUNTED, self._counter)):
            for short, names in table.items():
                module = by_name.get(f"{self.package}.{short}")
                for qual in names:
                    owner_name, _, attr = qual.rpartition(".")
                    owner = getattr(module, owner_name, None) if owner_name else module
                    fn = None if owner is None else vars(owner).get(attr)
                    if fn is None:
                        self.missing.append(f"{short}.{qual}")
                        continue
                    wrapper = wrap(f"{short}.{attr}", fn)
                    bindings = [(owner, attr)] if owner_name else [
                        (m, key) for m in modules for key, value in vars(m).items() if value is fn
                    ]
                    for target, key in bindings:
                        setattr(target, key, wrapper)
                        self._restore.append((target, key, fn))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    # -- summaries ----------------------------------------------------------

    def layer_totals(self) -> dict:
        """Per span name: calls, busy seconds (outermost calls only) and
        self seconds (duration minus direct children)."""
        calls: Counter = Counter()
        busy: Counter = Counter()
        self_s: Counter = Counter()
        spans = self.spans
        for name, start, end, parent, _ in spans:
            duration = end - start
            calls[name] += 1
            self_s[name] += duration
            if parent >= 0:
                self_s[spans[parent][0]] -= duration
            ancestor = parent
            while ancestor >= 0 and spans[ancestor][0] != name:
                ancestor = spans[ancestor][3]
            if ancestor < 0:
                busy[name] += duration
        return {"calls": calls, "busy_s": busy, "self_s": self_s}

    def analyze_remainder(self) -> float:
        """Time inside ``engine.analyze`` outside its stage spans (audit,
        cycles, pairs, bars and the cycle and bar enumerations): the segment
        stage, whose own ``segments_of`` span counts as part of it."""
        spans = self.spans
        analyze = {i for i, span in enumerate(spans) if span[0] == "engine.analyze"}
        total = sum(spans[i][2] - spans[i][1] for i in analyze)
        return total - sum(end - start for name, start, end, parent, _ in spans
                           if parent in analyze and name != "graph.segments_of")
