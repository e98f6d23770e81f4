"""Full-graph analysis: audits, per-object certificates, and reports.

The flow is audit first, then certify.  ``check_hypotheses`` decides the
three standing assumptions (shortest cycle at least 2*PI, every point pair
within PI, minimum degree two on the studied subgraph) with exact
witnesses.  Once they hold, every cycle, disjoint cycle pair, bar and
segment gets an independent certificate; any defect found after a clean
audit is a contradiction, reported as InternalInconsistency together with
the audit it contradicts, never as a silent skip.

All collections are canonically ordered, so reports are reproducible
byte for byte.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from ._rat import Rat
from .chords import (
    ImmersedLoop,
    bar_loop,
    chord_budgets,
    chords_of_loop,
    cross_chords,
    loop_from_cycle,
)
from .dehn import (
    CommensurableVerdict,
    DehnPlusCertificate,
    MeasureTiling,
    QRCommensurable,
    dehn_plus_test,
    dehn_test,
)
from .errors import (
    AuditFailure,
    EnumerationCapExceeded,
    InternalInconsistency,
    PrecisionExhausted,
)
from .graph import (
    DEFAULT_CYCLE_CAP,
    BarTriple,
    Cycle,
    DiameterResult,
    MetricGraph,
    PointOnGraph,
    SegmentPath,
    Subgraph,
    bars_of,
    cycles_of,
    disjoint_pairs,
    girth,
    point_diameter_check,
    segments_of,
)
from .linalg import solve
from .scalars import (
    Area,
    Comparison,
    Scalar,
    compare_area,
    format_area,
    format_scalar,
    pi_ratio,
    sum_terms,
)
from .tilings import (
    GeometricTiling,
    TilingReport,
    annulus_tiling,
    product_tiling,
    to_measure_tiling,
    torus_form,
    verify_tiling,
)


def _point_report(p: PointOnGraph) -> dict:
    return {"edge": p.edge_id, "offset": format_scalar(p.offset)}


# ---------------------------------------------------------------------------
# hypothesis audit
# ---------------------------------------------------------------------------


@dataclass
class HypothesisAudit:
    girth_value: Optional[Scalar]
    girth_ok: bool
    girth_witness: tuple
    diameter: DiameterResult
    diameter_bound: Scalar
    min_degree: int
    min_degree_vertex: Optional[str]
    min_degree_ok: bool

    @property
    def ok(self) -> bool:
        return self.girth_ok and self.diameter.ok and self.min_degree_ok

    def first_defect(self) -> Optional[str]:
        if not self.girth_ok:
            return (
                f"shortest cycle has length {format_scalar(self.girth_value)} < 2*PI"
                f" (edges {', '.join(self.girth_witness)})"
            )
        if not self.diameter.ok:
            return f"two points lie at distance {format_scalar(self.diameter.max_distance)} > PI"
        if not self.min_degree_ok:
            return f"vertex {self.min_degree_vertex} has degree {self.min_degree} < 2 in the subgraph"
        return None

    def as_report(self) -> dict:
        diam = {
            "ok": self.diameter.ok,
            "bound": format_scalar(self.diameter_bound),
            "max_distance": None
            if self.diameter.max_distance is None
            else format_scalar(self.diameter.max_distance),
            "witness": None
            if self.diameter.witness is None
            else [_point_report(p) for p in self.diameter.witness],
        }
        return {
            "ok": self.ok,
            "girth": {
                "ok": self.girth_ok,
                "value": None if self.girth_value is None else format_scalar(self.girth_value),
                "witness": list(self.girth_witness),
            },
            "point_diameter": diam,
            "min_degree": {
                "ok": self.min_degree_ok,
                "value": self.min_degree,
                "vertex": self.min_degree_vertex,
            },
        }


def check_hypotheses(graph: MetricGraph, sub: Subgraph) -> HypothesisAudit:
    """Decide all three standing assumptions with exact witnesses."""
    table = graph.table
    two_pi = table.pi(Rat(2))
    g = girth(graph)
    if g.value is None:
        girth_ok = True  # no cycles at all
    else:
        cmp = table.require(table.compare(g.value, two_pi), "girth comparison")
        girth_ok = cmp is not Comparison.LESS
    diam = point_diameter_check(graph, sub, table.pi())
    mind, arg = sub.min_degree()
    return HypothesisAudit(
        girth_value=g.value,
        girth_ok=girth_ok,
        girth_witness=g.witness_edges,
        diameter=diam,
        diameter_bound=table.pi(),
        min_degree=mind,
        min_degree_vertex=arg,
        min_degree_ok=mind >= 2,
    )


# ---------------------------------------------------------------------------
# single cycles
# ---------------------------------------------------------------------------


@dataclass
class AreaCheck:
    """Lower bound on chord squares clear of one marked position."""

    vertex: str
    position: Scalar
    total: Area
    bound: Area
    ok: bool


@dataclass
class CycleAnalysis:
    cycle: Cycle
    loop: ImmersedLoop
    ratio: Rat  # length / PI
    chords: tuple
    tiling: GeometricTiling
    tiling_report: TilingReport
    area_checks: tuple
    budgets: tuple  # (visit, total, bound, ok) rows

    def as_report(self) -> dict:
        return {
            "edges": [g[0].id for g in self.cycle.steps],
            "length": format_scalar(self.cycle.length),
            "pi_ratio": str(self.ratio),
            "chords": [ch.as_report() for ch in self.chords],
            "tiling": self.tiling_report.status,
            "avoidance_bounds": [
                {
                    "vertex": c.vertex,
                    "position": format_scalar(c.position),
                    "clear_area": format_area(c.total),
                    "required": format_area(c.bound),
                    "ok": c.ok,
                }
                for c in self.area_checks
            ],
            "start_budgets": [
                {
                    "vertex": vis.vertex,
                    "position": format_scalar(vis.position),
                    "total": format_scalar(total),
                    "bound": format_scalar(bound),
                    "ok": ok,
                }
                for (vis, total, bound, ok) in self.budgets
            ],
        }


def _shape_key(kind: str, loop: ImmersedLoop, chords, *lengths) -> tuple:
    """What the shape facts of a loop depend on, with no vertex names: its
    step lengths, which visits branch, each chord's visit indices and side,
    and the object lengths the facts read besides."""
    return (
        kind,
        loop.lengths,
        tuple(vis.index for vis in loop.branch_visits()),
        tuple((ch.s.index, ch.t.index, ch.z) for ch in chords),
        *lengths,
    )


@dataclass
class _Shape:
    """Every fact derived from a loop's shape, kept in ``graph.shapes`` for
    the loops of equal shape.  An error, resource limits included, stores
    no shape.  The facts stop where the analysis raises: a cycle's areas
    stay empty after a failed tiling, and its budgets after a failed area
    check."""

    tiling: GeometricTiling
    report: TilingReport  # verify_tiling's verdict, kept without its grid
    measure: Optional[MeasureTiling] = None  # a bar's, once its tiling is ok
    dehn_plus: dict = field(default_factory=dict)  # a bar's (q, r, a, designated) -> verdict
    areas: tuple = ()  # a cycle's (clear area, required area, ok) per visit
    budgets: tuple = ()  # a cycle's (z total, bound, ok) per branch visit


def _cycle_shape(graph: MetricGraph, cycle: Cycle, loop: ImmersedLoop, chords) -> _Shape:
    table = graph.table
    tiling = annulus_tiling(loop, chords)
    shape = _Shape(tiling, verify_tiling(tiling).without_grid())
    if not shape.report.ok:
        return shape
    bound = table.pi(Rat(2)) * (cycle.length - table.pi(Rat(2)))
    # the squares clear of a visit are all squares but those at its chords
    no_area = Area(table, {})
    incident: dict = {vis.index: [] for vis in loop.visits}
    areas = []
    for ch in chords:
        area = ch.square_area()
        areas.append(area)
        incident[ch.s.index].append(area)
        incident[ch.t.index].append(area)
    every = sum_terms(areas, no_area)
    rows = []
    for vis in loop.visits:
        total = every - sum_terms(incident[vis.index], no_area)
        cmp = table.require(compare_area(total, bound), "avoidance bound")
        rows.append((total, bound, cmp is not Comparison.LESS))
    shape.areas = tuple(rows)
    if all(ok for _, _, ok in rows):
        shape.budgets = tuple(row[1:] for row in chord_budgets(loop, chords))
    return shape


def analyze_cycle(graph: MetricGraph, cycle: Cycle) -> CycleAnalysis:
    """Certify one embedded cycle: ratio, chords, tiling, area bounds.

    The tiling, area and budget facts are computed once per cycle shape;
    the records that name vertices, and the checks on them, are per cycle.
    """
    ratio = pi_ratio(cycle.length)
    if ratio is None:
        raise InternalInconsistency(
            f"cycle length {format_scalar(cycle.length)} is not a rational multiple of PI"
        )
    loop = loop_from_cycle(graph, cycle)
    chords = chords_of_loop(loop)
    for ch in chords:
        if ch.ratio is None:
            raise InternalInconsistency(
                f"chord {ch.s.vertex}-{ch.t.vertex} has length {format_scalar(ch.distance)},"
                " not a rational multiple of PI"
            )
    key = _shape_key("cycle", loop, chords, cycle.length)
    shape = graph.shapes.get(key)
    if shape is None:
        shape = graph.shapes[key] = _cycle_shape(graph, cycle, loop, chords)
    report = shape.report
    if not report.ok:
        raise InternalInconsistency(
            f"annulus tiling of cycle {sorted(cycle.edge_ids)} failed: {report.status}"
        )
    checks = [AreaCheck(vis.vertex, vis.position, *row) for vis, row in zip(loop.visits, shape.areas)]
    bad = [c for c in checks if not c.ok]
    if bad:
        raise InternalInconsistency(
            f"chords avoiding {bad[0].vertex} cover only {format_area(bad[0].total)}"
            f" of the required {format_area(bad[0].bound)}"
        )
    budgets = tuple((vis, *row) for vis, row in zip(loop.branch_visits(), shape.budgets))
    over = [row for row in budgets if not row[3]]
    if over:
        raise InternalInconsistency(
            f"chord squares anchored at {over[0][0].vertex} exceed the packing bound"
        )
    return CycleAnalysis(
        cycle=cycle,
        loop=loop,
        ratio=ratio,
        chords=tuple(chords),
        tiling=shape.tiling,
        tiling_report=report,
        area_checks=tuple(checks),
        budgets=budgets,
    )


# ---------------------------------------------------------------------------
# disjoint cycle pairs
# ---------------------------------------------------------------------------


@dataclass
class PairAnalysis:
    cycle1: Cycle
    cycle2: Cycle
    chords: tuple  # cross chords, first endpoint on cycle1
    product: GeometricTiling
    product_report: TilingReport
    axis: GeometricTiling
    axis_report: TilingReport
    lift_counts: tuple
    measure: MeasureTiling
    verdict: CommensurableVerdict

    def as_report(self) -> dict:
        return {
            "cycle1": [g[0].id for g in self.cycle1.steps],
            "cycle2": [g[0].id for g in self.cycle2.steps],
            "chords": [  # the chord ends, without their positions
                {k: v for k, v in ch.as_report().items() if not k.endswith("_position")}
                for ch in self.chords
            ],
            "product_tiling": self.product_report.status,
            "lift_counts": list(self.lift_counts),
            "axis_tiling": self.axis_report.status,
            "dehn": self.verdict.as_report(),
        }


def analyze_cycle_pair(
    graph: MetricGraph, cycle1: Cycle, cycle2: Cycle, cap: int = DEFAULT_CYCLE_CAP
) -> PairAnalysis:
    """Certify a disjoint cycle pair through the torus route; cap bounds
    the translates of its torus form."""
    if not cycle1.vertices.isdisjoint(cycle2.vertices):
        raise ValueError("cycles share vertices; only disjoint pairs have a product claim")
    cross = cross_chords(loop_from_cycle(graph, cycle1), loop_from_cycle(graph, cycle2))
    for ch in cross:
        if ch.ratio is None:
            raise InternalInconsistency(
                f"cross chord {ch.s.vertex}-{ch.t.vertex} has length {format_scalar(ch.distance)},"
                " not a rational multiple of PI"
            )
    product = product_tiling(graph, cycle1, cycle2, cross)
    product_report = verify_tiling(product, cap)
    if not product_report.ok:
        raise InternalInconsistency(
            f"product tiling of the pair failed: {product_report.status}"
        )
    axis, axis_report = torus_form(product_report)
    measure = to_measure_tiling(axis, axis_report)
    verdict = dehn_test(measure)
    if not isinstance(verdict, CommensurableVerdict):
        raise InternalInconsistency(
            "torus square tiling admits a separating functional;"
            " the side measures cannot all be commensurable"
        )
    return PairAnalysis(
        cycle1=cycle1,
        cycle2=cycle2,
        chords=tuple(cross),
        product=product,
        product_report=product_report.without_grid(),
        axis=axis,
        axis_report=axis_report.without_grid(),
        lift_counts=axis.region.lift_counts,
        measure=measure,
        verdict=verdict,
    )


# ---------------------------------------------------------------------------
# bars
# ---------------------------------------------------------------------------


@dataclass
class BarAnalysis:
    bar: BarTriple
    loop: ImmersedLoop
    a: Rat  # (l1 + l2) / PI
    ratio: Rat  # bar length / PI
    chords: tuple  # a chord's ratio is None when it is off the PI lattice
    designated: tuple  # measure piece indices fed to the two-parameter audit
    designated_cross: int
    tiling: GeometricTiling
    tiling_report: TilingReport
    measure: MeasureTiling
    verdict: QRCommensurable

    def as_report(self) -> dict:
        commensurable = sum(1 for ch in self.chords if ch.ratio is not None)
        return {
            "bar_edges": [g[0].id for g in self.bar.steps],
            "endpoints": list(self.bar.endpoints),
            "bar_length": format_scalar(self.bar.length),
            "pi_ratio": str(self.ratio),
            "cycle1": [g[0].id for g in self.bar.cycle1.steps],
            "cycle2": [g[0].id for g in self.bar.cycle2.steps],
            "a": str(self.a),
            "loop_length": format_scalar(self.loop.length),
            "chord_count": len(self.chords),
            "commensurable_chords": commensurable,
            "incommensurable_chords": len(self.chords) - commensurable,
            "designated": list(self.designated),
            "designated_cross": self.designated_cross,
            "tiling": self.tiling_report.status,
            "dehn_plus": self.verdict.as_report(),
        }


def analyze_bar(graph: MetricGraph, bar: BarTriple) -> BarAnalysis:
    """Certify a bar between two disjoint cycles via its doubled loop."""
    table = graph.table
    a = pi_ratio(bar.cycle1.length + bar.cycle2.length)
    if a is None:
        raise InternalInconsistency(
            "combined cycle length is not a rational multiple of PI"
        )
    loop = bar_loop(graph, bar)
    chords = chords_of_loop(loop)
    key = _shape_key("bar", loop, chords, bar.cycle1.length, bar.length)
    shape = graph.shapes.get(key)
    if shape is None:
        tiling = annulus_tiling(loop, chords, bar)
        report = verify_tiling(tiling)
        measure = to_measure_tiling(tiling, report) if report.ok else None
        shape = graph.shapes[key] = _Shape(tiling, report.without_grid(), measure)
    report = shape.report
    if not report.ok:
        raise InternalInconsistency(
            f"annulus tiling of the bar loop failed: {report.status}"
        )
    u, v = bar.endpoints
    designated = []
    cross = 0
    for i, ch in enumerate(chords):
        if ch.ratio is None or ch.s.vertex in (u, v) or ch.t.vertex in (u, v):
            continue
        designated.append(2 + i)  # the two rectangles come first in the tiling
        on1 = ch.s.vertex in bar.cycle1.vertices and ch.t.vertex in bar.cycle2.vertices
        on2 = ch.s.vertex in bar.cycle2.vertices and ch.t.vertex in bar.cycle1.vertices
        if on1 or on2:
            cross += 1
    q, r, designated = bar.length, table.pi(), tuple(designated)
    key = (q, r, a, designated)
    verdict = shape.dehn_plus.get(key)
    if verdict is None:
        try:
            verdict = dehn_plus_test(shape.measure, q=q, r=r, a=a, designated=designated)
        except AuditFailure as exc:
            raise InternalInconsistency(f"bar audit failed: {exc}") from exc
        shape.dehn_plus[key] = verdict
    if isinstance(verdict, DehnPlusCertificate):
        raise InternalInconsistency(
            "bar measure tiling admits a two-parameter separating functional;"
            " the bar length cannot be off the PI lattice"
        )
    direct = pi_ratio(bar.length)
    if direct != verdict.ratio:
        raise InternalInconsistency(
            f"certificate ratio {verdict.ratio} disagrees with the direct ratio {direct}"
        )
    return BarAnalysis(
        bar=bar,
        loop=loop,
        a=a,
        ratio=verdict.ratio,
        chords=tuple(chords),
        designated=designated,
        designated_cross=cross,
        tiling=shape.tiling,
        tiling_report=report,
        measure=shape.measure,
        verdict=verdict,
    )


# ---------------------------------------------------------------------------
# segment decomposition
# ---------------------------------------------------------------------------


@dataclass
class DecompositionTerm:
    kind: str  # "cycle" | "bar"
    edges: tuple  # edge ids in walk order
    coefficient: Rat
    source: object  # the Cycle or BarTriple

    def as_report(self) -> dict:
        return {
            "kind": self.kind,
            "edges": list(self.edges),
            "coefficient": str(self.coefficient),
        }


@dataclass
class SegmentAnalysis:
    segment: SegmentPath
    ratio: Optional[Rat]  # None when the length is off the PI lattice
    terms: tuple
    verified: bool

    def as_report(self) -> dict:
        return {
            "edges": [g[0].id for g in self.segment.steps],
            "endpoints": list(self.segment.endpoints),
            "length": format_scalar(self.segment.length),
            "pi_ratio": None if self.ratio is None else str(self.ratio),
            "decomposition": [t.as_report() for t in self.terms],
            "verified": self.verified,
        }


def _edge_vector(edge_index: dict, ids) -> list:
    v = [0] * len(edge_index)
    for eid in ids:
        v[edge_index[eid]] = 1
    return v


def _decompose_many(
    sub: Subgraph, segments: list, cycles: list, bars: list
) -> list:
    edge_ids = sorted(sub.edge_set)
    edge_index = {eid: i for i, eid in enumerate(edge_ids)}
    # bar paths first: the minimal-support solutions the walk calculus
    # produces are differences of bars, with cycles as the fallback
    columns = []
    labels = []
    for b in bars:
        columns.append(_edge_vector(edge_index, (g[0].id for g in b.steps)))
        labels.append(("bar", tuple(g[0].id for g in b.steps), b))
    for c in cycles:
        columns.append(_edge_vector(edge_index, c.edge_ids))
        labels.append(("cycle", tuple(g[0].id for g in c.steps), c))
    targets = [_edge_vector(edge_index, (g[0].id for g in s.steps)) for s in segments]
    solutions = solve(columns, targets)
    out = []
    for seg, target, sol in zip(segments, targets, solutions):
        if sol is None:
            raise InternalInconsistency(
                f"segment {sorted(seg.edge_ids)} is not a rational combination"
                " of cycles and bars"
            )
        terms = []
        check = [Rat(0)] * len(edge_ids)
        for coeff, (kind, edges, src), col in zip(sol, labels, columns):
            if not coeff:
                continue
            terms.append(DecompositionTerm(kind, edges, coeff, src))
            for i, entry in enumerate(col):
                check[i] += coeff * entry
        verified = check == target
        if not verified:
            raise InternalInconsistency("decomposition re-expansion mismatch")
        out.append((seg, tuple(terms), verified))
    return out


def decompose_segment(
    sub: Subgraph, segment: SegmentPath, cap: int = DEFAULT_CYCLE_CAP
) -> SegmentAnalysis:
    """Write one segment as an exact rational combination of cycles and bars.

    Pure edge-space algebra; the length ratio rides along informationally
    and stays None off the PI lattice.
    """
    cycles = cycles_of(sub, cap)
    bars = bars_of(sub, disjoint_pairs(cycles), cap=cap)
    (seg, terms, verified), = _decompose_many(sub, [segment], cycles, bars)
    return SegmentAnalysis(
        segment=seg, ratio=pi_ratio(segment.length), terms=terms, verified=verified
    )


# ---------------------------------------------------------------------------
# whole-subgraph analysis
# ---------------------------------------------------------------------------


@dataclass
class Analysis:
    graph: MetricGraph
    sub: Subgraph
    subgraph_name: str
    audit: HypothesisAudit
    conformant: bool
    failure: Optional[dict]
    cycles: tuple
    pairs: tuple
    bars: tuple
    segments: tuple
    cycle_cap: int

    def as_report(self, records=list) -> dict:
        """The analysis report.  Each record array is ``records`` applied to
        a generator of record dicts: a list by default, while the CLI's
        machine writer passes ``iter`` and holds one record at a time."""
        return {
            "kind": "analysis",
            "subgraph": self.subgraph_name,
            "precision_bits": self.graph.table.precision_bits,
            "cycle_cap": self.cycle_cap,
            "audit": self.audit.as_report(),
            "conformant": self.conformant,
            "failure": self.failure,
            "coverage": {
                "cycles": len(self.cycles),
                "pairs": len(self.pairs),
                "bars": len(self.bars),
                "segments": len(self.segments),
                "complete": self.failure is None,
            },
            "cycles": records(c.as_report() for c in self.cycles),
            "pairs": records(p.as_report() for p in self.pairs),
            "bars": records(b.as_report() for b in self.bars),
            "segments": records(s.as_report() for s in self.segments),
        }


def _incommensurable_cycle_hint(sub: Subgraph, cap: int) -> Optional[dict]:
    # a cycle length is a sum of edge lengths, so with every edge on the
    # PI lattice no cycle is off it and there is nothing to enumerate
    if all(pi_ratio(e.length) is not None for e in sub.edges()):
        return None
    try:
        for c in cycles_of(sub, cap):
            if pi_ratio(c.length) is None:
                return {
                    "edges": [g[0].id for g in c.steps],
                    "length": format_scalar(c.length),
                }
    except EnumerationCapExceeded:
        return None
    return None


def _name_stage(exc: Exception, stage: str, subject: Optional[str]) -> None:
    """Add the stage, and the object it was working on, to a resource
    limit's message; it stays the same error with the same exit code."""
    where = f"stage {stage}" if subject is None else f"stage {stage}, subject {subject}"
    exc.args = (f"{exc} ({where})",)


def analyze(
    graph: MetricGraph,
    sub: Optional[Subgraph] = None,
    subgraph_name: str = "whole",
    cycle_cap: int = DEFAULT_CYCLE_CAP,
) -> Analysis:
    """Audit the hypotheses, then certify every cycle, disjoint pair, bar
    and segment of the subgraph.

    A failed audit short-circuits to a non-conformant report; when some
    cycle length then sits off the PI lattice it is quoted as the
    contrapositive witness.  A defect found after a clean audit comes back
    as an internal-inconsistency report that repeats the audit under
    ``re_audit``; the audit is deterministic, so running it again could
    only reproduce it.
    """
    if sub is None:
        sub = graph.whole()
    try:
        audit = check_hypotheses(graph, sub)
    except (EnumerationCapExceeded, PrecisionExhausted) as exc:
        _name_stage(exc, "audit", None)
        raise
    empty = dict(cycles=(), pairs=(), bars=(), segments=())
    if not audit.ok:
        failure = {
            "kind": "hypothesis-violation",
            "detail": audit.first_defect(),
            "incommensurable_cycle": _incommensurable_cycle_hint(sub, cycle_cap),
        }
        return Analysis(
            graph, sub, subgraph_name, audit, False, failure, cycle_cap=cycle_cap, **empty
        )

    stage = "cycles"
    subject: Optional[str] = None
    try:
        cycles = cycles_of(sub, cycle_cap)
        cycle_out = []
        for c in cycles:
            subject = ", ".join(sorted(c.edge_ids))
            cycle_out.append(analyze_cycle(graph, c))

        stage, subject = "pairs", None
        pairs = disjoint_pairs(cycles)
        pair_out = []
        for c1, c2 in pairs:
            subject = "; ".join(", ".join(sorted(c.edge_ids)) for c in (c1, c2))
            pair_out.append(analyze_cycle_pair(graph, c1, c2, cycle_cap))

        stage, subject = "bars", None
        bars = bars_of(sub, pairs, cap=cycle_cap)
        bar_out = []
        for b in bars:
            subject = ", ".join(sorted(b.edge_ids))
            bar_out.append(analyze_bar(graph, b))

        stage, subject = "segments", None
        segments = segments_of(sub)
        seg_out = []
        for seg, terms, verified in _decompose_many(sub, segments, cycles, bars):
            subject = ", ".join(sorted(seg.edge_ids))
            ratio = pi_ratio(seg.length)
            if ratio is None:
                raise InternalInconsistency(
                    f"segment length {format_scalar(seg.length)} is not a rational multiple of PI"
                )
            seg_out.append(SegmentAnalysis(seg, ratio, terms, verified))
    except (EnumerationCapExceeded, PrecisionExhausted) as exc:
        _name_stage(exc, stage, subject)
        raise
    except InternalInconsistency as exc:
        failure = {
            "kind": "internal-inconsistency",
            "stage": stage,
            "subject": subject,
            "detail": str(exc),
            "re_audit": audit.as_report(),
        }
        return Analysis(
            graph, sub, subgraph_name, audit, False, failure, cycle_cap=cycle_cap, **empty
        )

    return Analysis(
        graph=graph,
        sub=sub,
        subgraph_name=subgraph_name,
        audit=audit,
        conformant=True,
        failure=None,
        cycles=tuple(cycle_out),
        pairs=tuple(pair_out),
        bars=tuple(bar_out),
        segments=tuple(seg_out),
        cycle_cap=cycle_cap,
    )
