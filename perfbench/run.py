"""Benchmark of ``commensura``, end to end and layer by layer.

Run from the repository root::

    python3 perfbench/run.py --workload heawood-analyze --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 0

``--workload all`` runs every workload in turn, each in its own process.
A single workload sets up five times (fresh import of the package, seeded
input generation, warm-up) and reports the median as ``setup_s``; it then
runs operations in a closed loop until ``--seconds`` have passed, at least
one, checking every output.  With ``--trace 0`` it reports the end-to-end
metrics; with ``--trace 1`` it runs half the time untraced and half with
the outside-in tracer of ``tracing.py`` installed, and reports per-layer
metrics per traced operation.

The last stdout line is ``{"correct", "attempted", "failed", "metrics"}``.
The line before it holds the machine and software facts and the figures
that are not metrics (fail ratio, tail time, samples).  The same record is
written to ``.bench_results/``; a traced run writes its spans there too.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import traceback
import types
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
HERE = Path(__file__).resolve().parent
RESULTS = ROOT / ".bench_results"
PACKAGE = "commensura"
SETUP_REPEATS = 5

sys.path.insert(0, str(HERE))
from tracing import Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

# (metric, unit); every span metric is per traced operation
SPAN_METRICS = (
    ("tilings.verify_tiling", ("calls", "busy_s", "distinct_ratio")),
    ("tilings.to_measure_tiling", ("calls", "self_s")),
    ("tilings.annulus_tiling", ("busy_s",)),
    ("tilings.product_tiling", ("busy_s",)),
    ("tilings.psi_transform", ("busy_s",)),
    ("graph.dijkstra", ("calls", "busy_s", "distinct_ratio")),
    ("graph.point_diameter_check", ("busy_s",)),
    ("graph.girth", ("busy_s",)),
    ("graph.cycles_of", ("calls", "busy_s")),
    ("graph.bars_of", ("calls", "busy_s")),
    ("graph.segments_of", ("calls", "busy_s")),
    ("graph.parse_graph", ("busy_s",)),
    ("chords.chords_of_loop", ("calls", "self_s")),
    ("chords.chords_of_subgraph", ("self_s",)),
    ("chords.chord_budgets", ("busy_s",)),
    ("engine.check_hypotheses", ("calls", "busy_s")),
    ("engine.analyze_cycle", ("calls", "busy_s")),
    ("engine.analyze_cycle_pair", ("calls", "busy_s")),
    ("engine.analyze_bar", ("calls", "busy_s")),
    ("engine.as_report", ("busy_s",)),
    ("dehn.parse_measure_tiling", ("busy_s",)),
    ("dehn.functional_identity", ("busy_s",)),
    ("dehn.dehn_plus_test", ("busy_s",)),
    ("dehn.dehn_test", ("calls", "busy_s")),
    ("dehn.verify_measure_tiling", ("calls", "busy_s")),
    ("dehn.solve_functional", ("calls",)),
    ("cli.main", ("self_s",)),
)
COUNTER_METRICS = ("scalars.compare.calls", "scalars.enclosure.calls_64",
                   "scalars.enclosure.calls_above_64")
UNITS = {"calls": "count", "busy_s": "s", "self_s": "s", "distinct_ratio": "ratio"}


def per_layer_names() -> list[tuple[str, str]]:
    names = [(f"{layer}.{kind}", UNITS[kind]) for layer, kinds in SPAN_METRICS for kind in kinds]
    names += [("engine.segments.busy_s", "s")]
    names += [(name, "count") for name in COUNTER_METRICS]
    names += [("share.bars", "ratio"), ("share.grid_verification", "ratio"),
              ("share.dijkstra", "ratio"), ("trace.op_p50_s", "s"), ("trace.overhead_s", "s")]
    return names


# ---------------------------------------------------------------------------
# set-up
# ---------------------------------------------------------------------------


def fresh_import() -> types.SimpleNamespace:
    """Import the package from ``src/`` from scratch, dropping any earlier
    copy, so that each set-up pays the import again."""
    for name in [n for n in sys.modules if n == PACKAGE or n.startswith(PACKAGE + ".")]:
        del sys.modules[name]
    package = importlib.import_module(PACKAGE)
    if Path(package.__file__).resolve().parent != SRC / PACKAGE:
        raise ImportError(f"{PACKAGE} imported from {package.__file__}, not from {SRC}")
    return types.SimpleNamespace(
        **{name: importlib.import_module(f"{PACKAGE}.{name}") for name in ("cli", "generators", "dehn", "_rat")}
    )


def set_up(workload: str, seed: int, expected: dict):
    """Set up ``SETUP_REPEATS`` times; return the last workload and the
    median set-up time."""
    times = []
    for _ in range(SETUP_REPEATS):
        start = perf_counter()
        cm = fresh_import()
        wl = WORKLOADS[workload](cm, seed, expected)
        wl.warm_up()
        times.append(perf_counter() - start)
    return cm, wl, statistics.median(times)


# ---------------------------------------------------------------------------
# the timed loop
# ---------------------------------------------------------------------------


def measure(wl, seconds: float, tracer: Tracer | None = None):
    """Closed loop: operations until ``seconds`` have passed, at least one.
    Returns the operation times and, per failed operation, its reason."""
    times: list[float] = []
    failures: list[str] = []
    start = perf_counter()
    while not times or perf_counter() - start < seconds:
        gc.collect()
        t0 = perf_counter()
        try:
            result = wl.operation()
            error = None
        except Exception:  # a raising operation is a failed one
            error = traceback.format_exc(limit=3)
        times.append(perf_counter() - t0)
        if tracer is not None:
            tracer.end_op()
        errors = [error] if error else wl.check(result)
        if errors:
            failures.append("; ".join(errors))
    return times, failures


def tail(times: list[float]) -> dict | None:
    """The highest percentile with at least ten samples beyond it."""
    if len(times) < 11:
        return None
    ordered = sorted(times)
    return {"value": ordered[-11], "percentile": round(100 * (len(times) - 10) / len(times), 2),
            "samples": len(times)}


def end_to_end(wl, times, failures, setup_s) -> dict:
    done = len(times) - len(failures)
    return {
        "setup_s": (setup_s, "s"),
        "op_p50_s": (statistics.median(times), "s"),
        "verdicts_per_s": (wl.verdicts_per_op * done / sum(times), "1/s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


def per_layer(tracer: Tracer, ops: int, untraced: list, traced: list) -> dict:
    totals = tracer.layer_totals()
    values = {}
    for layer, kinds in SPAN_METRICS:
        for kind in kinds:
            if kind == "distinct_ratio":
                calls = totals["calls"][layer]
                value = tracer.distinct[layer] / calls if calls else 0.0
            else:
                value = totals[kind][layer] / ops
            values[f"{layer}.{kind}"] = value
    values["engine.segments.busy_s"] = tracer.analyze_remainder() / ops
    for name in COUNTER_METRICS:
        values[name] = tracer.counts[name] / ops
    op_time = sum(traced) / ops
    grid = values["tilings.verify_tiling.busy_s"] + values["tilings.to_measure_tiling.self_s"]
    values["share.bars"] = values["engine.analyze_bar.busy_s"] / op_time
    values["share.grid_verification"] = grid / op_time
    values["share.dijkstra"] = values["graph.dijkstra.busy_s"] / op_time
    values["trace.op_p50_s"] = statistics.median(traced)
    values["trace.overhead_s"] = statistics.median(traced) - statistics.median(untraced)
    return {name: (values[name], unit) for name, unit in per_layer_names()}


# ---------------------------------------------------------------------------
# facts and output
# ---------------------------------------------------------------------------


def _git_commit() -> str | None:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    path = ROOT / ".git" / ref[5:]
    if path.is_file():
        return path.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return None


def facts(cm) -> dict:
    source = hashlib.sha256()
    for path in sorted((SRC / PACKAGE).glob("*.py")):
        source.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "machine": platform.machine(),
        "rational_backend": "gmpy2" if cm._rat.HAVE_GMPY2 else "fractions.Fraction",
        "commit": _git_commit(),
        "source_sha256": source.hexdigest(),
    }


def run_one(args) -> int:
    expected = json.loads((HERE / "expected.json").read_text())
    cm, wl, setup_s = set_up(args.workload, args.seed, expected)
    tracer = None
    if args.trace:
        untraced, failures = measure(wl, args.seconds / 2)
        tracer = Tracer(PACKAGE)
        tracer.install()
        try:
            times, traced_failures = measure(wl, args.seconds / 2, tracer)
        finally:
            tracer.uninstall()
        failures += traced_failures
        metrics = per_layer(tracer, len(times), untraced, times)
        times = untraced + times
    else:
        times, failures = measure(wl, args.seconds)
        metrics = end_to_end(wl, times, failures, setup_s)

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "facts": facts(cm),
        "setup_s": setup_s,
        "fail_ratio": len(failures) / len(times),
        "op_tail_s": tail(times),
        "op_samples_s": times,
        "failures": failures[:5],
        "untraced_bindings": tracer.missing if tracer else [],
    }
    for name, (value, unit) in metrics.items():
        print(f"{args.workload} {name} {value:.6g} {unit}")
    result = {
        "correct": not failures,
        "attempted": len(times),
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    RESULTS.mkdir(exist_ok=True)
    stem = f"BENCH_{args.workload}_{args.seed}{'_trace' if args.trace else ''}"
    (RESULTS / f"{stem}.json").write_text(json.dumps({**record, **result}, indent=1) + "\n")
    if tracer is not None:
        with open(RESULTS / f"{stem}_spans.jsonl", "w", encoding="utf-8") as fh:
            for name, start, end, parent, op in tracer.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "op": op}) + "\n")
    for failure in failures[:5]:
        print(f"failed operation: {failure}", file=sys.stderr)
    print(json.dumps(record))
    print(json.dumps(result))
    return 0


def run_all(args) -> int:
    """Every workload in turn, each in its own process, one at a time."""
    status = 0
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
        lines = done.stdout.splitlines()
        print("\n".join(lines[:-2]))
        if done.returncode != 0 or not lines or not json.loads(lines[-1])["correct"]:
            print(f"{name}: failed (exit code {done.returncode})", file=sys.stderr)
            status = 1
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not (SRC / PACKAGE / "__init__.py").is_file():
        print(f"error: no {PACKAGE} sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
