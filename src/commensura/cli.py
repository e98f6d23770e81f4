"""Command line front end.

Exit codes: 0 when the requested check passes or the output is a clean
verdict, 1 for usage and input-format problems, 2 when a standing
hypothesis fails its audit, 3 when exact data contradicts itself (a
tiling defect, a separating functional, an unreachable decomposition),
4 when an enumeration cap or the precision budget runs out.

``--format machine`` prints one JSON document with sorted keys; repeated
runs on the same input are byte-identical.
"""

from __future__ import annotations

import argparse
import sys
from json.encoder import encode_basestring_ascii
from typing import Optional

from ._rat import Rat
from .chords import chords_of_loop, chords_of_subgraph, loop_from_cycle
from .dehn import (
    CommensurableVerdict,
    QRCommensurable,
    dehn_plus_test,
    dehn_test,
    parse_measure_tiling,
    verify_measure_tiling,
)
from .engine import analyze, check_hypotheses, decompose_segment
from .errors import (
    AuditFailure,
    DisconnectedGraph,
    EnumerationCapExceeded,
    GraphFormatError,
    HypothesisViolation,
    InternalInconsistency,
    NonpositiveLength,
    PrecisionExhausted,
)
from .generators import generate
from .graph import (
    DEFAULT_CYCLE_CAP,
    MetricGraph,
    Subgraph,
    cycles_of,
    parse_graph,
    segments_of,
)
from .scalars import MAX_PRECISION_BITS, MIN_PRECISION_BITS, format_scalar, parse_scalar
from .tilings import (
    annulus_tiling,
    product_tiling,
    serialize_tiling,
    tiling_payload,
    torus_form,
    verify_tiling,
)

# plotted values are floats: digits past about 17 significant figures are noise
MAX_PLOT_DIGITS = 17


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would exit 2, which we reserve
        raise UsageError(message)


def _global_flags(p, defaults: bool) -> None:
    # registered on the main parser with real defaults and on every
    # subparser with SUPPRESS, so the flags work on either side of the
    # subcommand without the subparser default clobbering a parsed value
    s = argparse.SUPPRESS
    p.add_argument("--precision-bits", type=int, metavar="N",
                   default=256 if defaults else s)
    p.add_argument("--cycle-cap", type=int, metavar="N",
                   default=DEFAULT_CYCLE_CAP if defaults else s)
    p.add_argument("--format", choices=("human", "machine"),
                   default="human" if defaults else s)
    p.add_argument("--export-plot", metavar="PATH",
                   default=None if defaults else s)
    p.add_argument("--plot-digits", type=int, metavar="N",
                   default=6 if defaults else s)


def _build_parser() -> _Parser:
    p = _Parser(prog="commensura", description=__doc__, add_help=True)
    _global_flags(p, defaults=True)
    common = _Parser(add_help=False)
    _global_flags(common, defaults=False)
    sub = p.add_subparsers(dest="command", required=True)

    def graph_cmd(name, help_text):
        q = sub.add_parser(name, help=help_text, parents=[common])
        q.add_argument("graph", help="graph file, or - for stdin")
        return q

    q = graph_cmd("check", "audit the standing hypotheses")
    q.add_argument("--subgraph", default=None)

    q = graph_cmd("analyze", "audit, then certify every cycle, pair, bar and segment")
    q.add_argument("--subgraph", default=None)

    q = graph_cmd("chords", "list the chords of one embedded cycle")
    q.add_argument("--loop", required=True, metavar="E1,E2,...")

    q = graph_cmd("tile", "build and verify a square tiling")
    q.add_argument("--loop", default=None, metavar="E1,E2,...")
    q.add_argument("--pair", nargs=2, default=None, metavar=("E1,E2,...", "F1,F2,..."))

    q = sub.add_parser(
        "dehn", help="verify a measure tiling and decide its sides", parents=[common]
    )
    q.add_argument("tiling", help="measure tiling file, or - for stdin")
    q.add_argument("--q", dest="q_lit", default=None, metavar="LIT")
    q.add_argument("--r", dest="r_lit", default=None, metavar="LIT")
    q.add_argument("--total", default=None, metavar="RAT", help="side total over r")
    q.add_argument("--designated", default=None, metavar="I,J,...")

    q = graph_cmd("decompose", "write a segment over cycles and bars")
    q.add_argument("--segment", required=True, metavar="E1,E2,...")

    q = sub.add_parser("gen", help="emit a named graph", parents=[common])
    q.add_argument("name")
    q.add_argument("params", nargs="*", metavar="key=value")
    return p


# ---------------------------------------------------------------------------
# shared plumbing
# ---------------------------------------------------------------------------


def _read(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _load_graph(args) -> MetricGraph:
    return parse_graph(_read(args.graph), precision_bits=args.precision_bits)


def _pick_subgraph(graph: MetricGraph, name: Optional[str]) -> tuple[Subgraph, str]:
    if name is None:
        return graph.whole(), "whole"
    if name not in graph.subgraph_decls:
        raise UsageError(f"no subgraph named {name!r} in the input")
    return graph.subgraph(name), name


def _edge_spec(graph: MetricGraph, spec: str) -> list[str]:
    """A declared subgraph name, or a comma-separated edge id list."""
    if spec in graph.subgraph_decls:
        return list(graph.subgraph_decls[spec])
    ids = [s for s in (t.strip() for t in spec.split(",")) if s]
    missing = [e for e in ids if e not in graph.edge_by_id]
    if missing:
        raise UsageError(f"unknown edges in spec: {', '.join(missing)}")
    return ids


def _scalar_arg(table, flag: str, literal: str):
    try:
        return parse_scalar(table, literal)
    except (ValueError, KeyError) as exc:
        raise UsageError(
            f"{flag} must be a scalar literal, got {literal!r} ({exc.args[0]})"
        ) from None


def _find_cycle(graph: MetricGraph, spec: str, cap: int):
    ids = _edge_spec(graph, spec)
    sub = Subgraph(graph, tuple(ids))
    want = frozenset(ids)
    for c in cycles_of(sub, cap):
        if c.edge_ids == want:
            return c
    raise UsageError(f"edges {spec} do not form one embedded cycle")


def _machine_text(payload: dict) -> str:
    """The machine report: the text ``json.dumps(payload, sort_keys=True,
    indent=2)`` writes, plus a final newline, built in one recursive pass
    into one list.  Strings take json's default ASCII escapes; the payload
    holds only str-keyed dicts, lists, tuples, str, int, bool and None, and
    any other value or key is a TypeError."""
    out: list[str] = []
    put = out.append
    # depth -> (newline and indent of its items, separator between them,
    # newline and indent of the closing bracket), shared by every container
    layouts: list[tuple[str, str, str]] = []

    def layout(depth: int) -> tuple[str, str, str]:
        while len(layouts) <= depth:
            inner = "\n" + "  " * (len(layouts) + 1)
            layouts.append((inner, "," + inner, inner[:-2]))
        return layouts[depth]

    def write(value, depth: int) -> None:
        if isinstance(value, str):
            put(encode_basestring_ascii(value))
        elif isinstance(value, dict):
            if not value:
                put("{}")
                return
            lead, sep, close = layout(depth)
            put("{")
            for key in sorted(value):
                if not isinstance(key, str):
                    raise TypeError(f"machine report keys must be str, got {type(key).__name__}")
                put(lead)
                put(encode_basestring_ascii(key))
                put(": ")
                write(value[key], depth + 1)
                lead = sep
            put(close)
            put("}")
        elif isinstance(value, (list, tuple)):
            if not value:
                put("[]")
                return
            lead, sep, close = layout(depth)
            put("[")
            for item in value:
                put(lead)
                write(item, depth + 1)
                lead = sep
            put(close)
            put("]")
        elif value is None:
            put("null")
        elif value is True:
            put("true")
        elif value is False:
            put("false")
        elif isinstance(value, int):
            put(int.__repr__(value))
        else:
            raise TypeError(f"cannot write {type(value).__name__} in a machine report")

    write(payload, 0)
    put("\n")
    return "".join(out)


def _emit(args, payload: dict, human) -> None:
    """Write payload in machine format, else the text human() returns;
    human is called only when that text is written."""
    if args.format == "machine":
        sys.stdout.write(_machine_text(payload))
    else:
        text = human()
        sys.stdout.write(text if text.endswith("\n") else text + "\n")


def _plot_value(table, scalar, digits: int) -> str:
    return f"{float(table.approx(scalar)):.{digits}f}"


def _plot_rows(table, context: str, tiling, digits: int) -> list[str]:
    rows = []
    for piece in tiling.pieces:
        cx, cy = piece.center
        hu, hv = piece.halves
        rows.append(
            "\t".join(
                (
                    context,
                    piece.label,
                    piece.shape,
                    _plot_value(table, cx, digits),
                    _plot_value(table, cy, digits),
                    _plot_value(table, hu, digits),
                    _plot_value(table, hv, digits),
                )
            )
        )
    return rows


def _write_plot(args, table, tilings: list) -> None:
    if args.export_plot is None:
        return
    if not tilings:
        raise UsageError("this command produced no tiling to export")
    rows = ["context\tlabel\tkind\tcenter_x\tcenter_y\thalf_u\thalf_v"]
    for context, tiling in tilings:
        rows += _plot_rows(table, context, tiling, args.plot_digits)
    with open(args.export_plot, "w", encoding="utf-8") as fh:
        fh.write("\n".join(rows) + "\n")


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def _cmd_check(args) -> int:
    graph = _load_graph(args)
    sub, name = _pick_subgraph(graph, args.subgraph)
    audit = check_hypotheses(graph, sub)
    payload = {"kind": "audit", "subgraph": name, "audit": audit.as_report()}
    lines = [f"subgraph: {name}", f"audit: {'ok' if audit.ok else 'violated'}"]
    rep = payload["audit"]
    lines.append(
        f"  girth {rep['girth']['value']} (needs at least 2*PI):"
        f" {'ok' if rep['girth']['ok'] else 'violated'}"
    )
    diam = rep["point_diameter"]
    lines.append(
        f"  point diameter {diam['max_distance']} (allowed {diam['bound']}):"
        f" {'ok' if diam['ok'] else 'violated'}"
    )
    if diam["witness"]:
        pts = ", ".join(f"{w['edge']}@{w['offset']}" for w in diam["witness"])
        lines.append(f"    witness points: {pts}")
    md = rep["min_degree"]
    lines.append(f"  min degree {md['value']}: {'ok' if md['ok'] else 'violated'}")
    _emit(args, payload, lambda: "\n".join(lines))
    return 0 if audit.ok else 2


def _human_analysis(report: dict) -> str:
    lines = [f"subgraph: {report['subgraph']}"]
    lines.append(f"audit: {'ok' if report['audit']['ok'] else 'violated'}")
    if not report["conformant"]:
        failure = report["failure"]
        lines.append(f"not conformant: {failure['kind']}")
        lines.append(f"  {failure['detail']}")
        hint = failure.get("incommensurable_cycle")
        if hint:
            lines.append(
                f"  incommensurable cycle {','.join(hint['edges'])}"
                f" of length {hint['length']}"
            )
        return "\n".join(lines)
    cov = report["coverage"]
    lines.append(
        "conformant: yes"
        f" (cycles {cov['cycles']}, pairs {cov['pairs']},"
        f" bars {cov['bars']}, segments {cov['segments']}; complete)"
    )
    for c in report["cycles"]:
        lines.append(
            f"cycle {','.join(c['edges'])}: length {c['length']}"
            f" = {c['pi_ratio']} * PI, {len(c['chords'])} chords, tiling {c['tiling']}"
        )
    for p in report["pairs"]:
        lines.append(
            f"pair {','.join(p['cycle1'])} | {','.join(p['cycle2'])}:"
            f" lifts {p['lift_counts'][0]}x{p['lift_counts'][1]},"
            f" base {p['dehn']['base']}"
        )
    for b in report["bars"]:
        lines.append(
            f"bar {','.join(b['bar_edges'])}: length {b['bar_length']}"
            f" = {b['pi_ratio']} * PI, a = {b['a']}, tiling {b['tiling']}"
        )
    for s in report["segments"]:
        terms = " ".join(
            f"{t['coefficient']}*{t['kind']}({','.join(t['edges'])})"
            for t in s["decomposition"]
        )
        lines.append(
            f"segment {','.join(s['edges'])}: length {s['length']}"
            f" = {s['pi_ratio']} * PI, decomposition {terms}"
        )
    return "\n".join(lines)


def _cmd_analyze(args) -> int:
    graph = _load_graph(args)
    sub, name = _pick_subgraph(graph, args.subgraph)
    result = analyze(graph, sub, subgraph_name=name, cycle_cap=args.cycle_cap)
    report = result.as_report()
    _emit(args, report, lambda: _human_analysis(report))
    tilings = [(f"cycle[{i}]", c.tiling) for i, c in enumerate(result.cycles)]
    tilings += [(f"pair[{i}].product", p.product) for i, p in enumerate(result.pairs)]
    tilings += [(f"pair[{i}].axis", p.axis) for i, p in enumerate(result.pairs)]
    tilings += [(f"bar[{i}]", b.tiling) for i, b in enumerate(result.bars)]
    _write_plot(args, graph.table, tilings)
    if result.conformant:
        return 0
    return 2 if result.failure["kind"] == "hypothesis-violation" else 3


def _cmd_chords(args) -> int:
    graph = _load_graph(args)
    cycle = _find_cycle(graph, args.loop, args.cycle_cap)
    loop = loop_from_cycle(graph, cycle)
    chords = chords_of_loop(loop)
    payload = {
        "kind": "chords",
        "loop": [g[0].id for g in cycle.steps],
        "length": format_scalar(cycle.length),
        "chords": [ch.as_report() for ch in chords],
    }
    lines = [f"loop {','.join(payload['loop'])} of length {payload['length']}"]
    for c in payload["chords"]:
        lines.append(
            f"  {c['source']}@{c['source_position']} -> {c['target']}@{c['target_position']}"
            f": distance {c['distance']}, side {c['side']}"
        )
    if not chords:
        lines.append("  no chords")
    _emit(args, payload, lambda: "\n".join(lines))
    return 0


def _cmd_tile(args) -> int:
    graph = _load_graph(args)
    if (args.loop is None) == (args.pair is None):
        raise UsageError("tile needs exactly one of --loop or --pair")
    if args.loop is not None:
        cycle = _find_cycle(graph, args.loop, args.cycle_cap)
        loop = loop_from_cycle(graph, cycle)
        chords = chords_of_loop(loop)
        try:
            tiling = annulus_tiling(loop, chords)
        except ValueError as exc:
            raise UsageError(
                f"loop {args.loop} of length {format_scalar(loop.length)}: {exc}"
            ) from None
        report = verify_tiling(tiling)
        chain = [("annulus", tiling, report)]
        payload = tiling_payload(tiling, report)
    else:
        c1 = _find_cycle(graph, args.pair[0], args.cycle_cap)
        c2 = _find_cycle(graph, args.pair[1], args.cycle_cap)
        if not c1.vertices.isdisjoint(c2.vertices):
            raise UsageError("the two cycles are not disjoint")
        union = Subgraph(graph, tuple(sorted(c1.edge_ids | c2.edge_ids)))
        product = product_tiling(graph, c1, c2, chords_of_subgraph(graph, union))
        report = verify_tiling(product, args.cycle_cap)
        chain = [("product", product, report)]
        if report.ok:
            chain.append(("axis", *torus_form(report)))
        payload = {"kind": "tiling-chain", "axis": None}
        payload.update((name, tiling_payload(t, r)) for name, t, r in chain)
    _emit(args, payload, lambda: "\n".join(serialize_tiling(t, r) for _, t, r in chain))
    _write_plot(args, graph.table, [(name, t) for name, t, _ in chain])
    return 0 if report.ok else 3


def _cmd_dehn(args) -> int:
    tiling = parse_measure_tiling(_read(args.tiling), precision_bits=args.precision_bits)
    table = tiling.table
    plus = args.q_lit is not None or args.total is not None or args.designated is not None
    # two audited rectangles are legitimate in the two-parameter variant
    skip = frozenset({0, 1}) if plus else frozenset()
    verdict = verify_measure_tiling(tiling, skip_square=skip)
    lines = [f"verify: {verdict.status}"]
    payload = {"kind": "dehn", "verify": verdict.as_report()}
    ok = verdict.ok

    if plus:
        if args.q_lit is None or args.r_lit is None or args.total is None:
            raise UsageError("the two-parameter audit needs --q, --r and --total")
        q = _scalar_arg(table, "--q", args.q_lit)
        r = _scalar_arg(table, "--r", args.r_lit)
        try:
            a = Rat(args.total)
        except (ValueError, ZeroDivisionError):
            raise UsageError(f"--total must be a rational, got {args.total!r}") from None
        try:
            designated = tuple(
                int(s) for s in (t.strip() for t in (args.designated or "").split(",")) if s
            )
        except ValueError:
            raise UsageError(
                f"--designated must list integer piece indices, got {args.designated!r}"
            ) from None
        try:
            result = dehn_plus_test(tiling, q=q, r=r, a=a, designated=designated)
        except AuditFailure as exc:
            payload["dehn_plus"] = {"verdict": "audit-failure", "clause": exc.clause, "detail": str(exc)}
            _emit(args, payload, lambda: "\n".join(lines + [f"audit failure: {exc}"]))
            return 3
        payload["dehn_plus"] = result.as_report()
        if isinstance(result, QRCommensurable):
            lines.append(f"q = {result.ratio} * r")
            _emit(args, payload, lambda: "\n".join(lines))
            return 0 if ok else 3
        lines.append("q and r are incommensurable; separating functional found")
        lines.append(f"  violated axiom: {result.violated.status}")
        _emit(args, payload, lambda: "\n".join(lines))
        return 3

    result = dehn_test(tiling)
    payload["dehn"] = result.as_report()
    if isinstance(result, CommensurableVerdict):
        lines.append(f"all side measures are rational multiples of {format_scalar(result.base)}")
        lines.append(f"  x ratios: {', '.join(str(r) for r in result.x_ratios)}")
        lines.append(f"  y ratios: {', '.join(str(r) for r in result.y_ratios)}")
        _emit(args, payload, lambda: "\n".join(lines))
        return 0 if ok else 3
    lines.append("sides are incommensurable; separating functional found")
    lines.append(f"  f(width) * f(height) = {result.lhs}, yet every piece contributes a square")
    lines.append(f"  violated axiom: {result.violated.status}")
    _emit(args, payload, lambda: "\n".join(lines))
    return 3


def _cmd_decompose(args) -> int:
    graph = _load_graph(args)
    sub = graph.whole()
    want = frozenset(_edge_spec(graph, args.segment))
    segments = segments_of(sub)
    match = next((s for s in segments if s.edge_ids == want), None)
    if match is None:
        known = "; ".join(",".join(sorted(s.edge_ids)) for s in segments)
        raise UsageError(f"no segment with edges {args.segment} (segments: {known})")
    result = decompose_segment(sub, match, cap=args.cycle_cap)
    payload = {"kind": "decomposition", **result.as_report()}

    def human() -> str:
        terms = " + ".join(
            f"({t.coefficient}) * {t.kind}({','.join(t.edges)})" for t in result.terms
        )
        return (
            f"segment {','.join(sorted(match.edge_ids))} of length"
            f" {format_scalar(match.length)}\n  = {terms}\n  re-expansion verified"
        )

    _emit(args, payload, human)
    return 0


def _cmd_gen(args) -> int:
    params = {}
    for raw in args.params:
        if "=" not in raw:
            raise UsageError(f"parameters are key=value, got {raw!r}")
        key, value = raw.split("=", 1)
        params[key.strip()] = value.strip()
    try:
        text = generate(args.name, precision_bits=args.precision_bits, **params)
    except (ValueError, TypeError) as exc:
        raise UsageError(str(exc)) from exc
    sys.stdout.write(text)
    return 0


_HANDLERS = {
    "check": _cmd_check,
    "analyze": _cmd_analyze,
    "chords": _cmd_chords,
    "tile": _cmd_tile,
    "dehn": _cmd_dehn,
    "decompose": _cmd_decompose,
    "gen": _cmd_gen,
}


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if not MIN_PRECISION_BITS <= args.precision_bits <= MAX_PRECISION_BITS:
            raise UsageError(
                f"--precision-bits must lie in {MIN_PRECISION_BITS}..{MAX_PRECISION_BITS}"
            )
        if not 0 <= args.plot_digits <= MAX_PLOT_DIGITS:
            raise UsageError(f"--plot-digits must lie in 0..{MAX_PLOT_DIGITS}")
        if args.cycle_cap < 0:
            raise UsageError("--cycle-cap must not be negative")
        if args.export_plot is not None and args.command not in ("tile", "analyze"):
            raise UsageError("--export-plot only applies to tile and analyze")
        return _HANDLERS[args.command](args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (
        GraphFormatError, NonpositiveLength, DisconnectedGraph, OSError, UnicodeDecodeError
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except HypothesisViolation as exc:
        print(f"hypothesis violation: {exc}", file=sys.stderr)
        return 2
    except InternalInconsistency as exc:
        print(f"internal inconsistency: {exc}", file=sys.stderr)
        return 3
    except (EnumerationCapExceeded, PrecisionExhausted) as exc:
        print(f"resource limit: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
