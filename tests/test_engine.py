import dataclasses
import gc
import json
import types
from unittest import mock

import networkx as nx
import pytest

from commensura._rat import Rat
import commensura.engine as engine_mod
from commensura.engine import (
    analyze,
    analyze_bar,
    analyze_cycle,
    analyze_cycle_pair,
    check_hypotheses,
    decompose_segment,
)
from commensura import generators
from commensura import scalars as scalars_mod
from commensura import chords as chords_mod
from commensura.chords import bar_loop, chords_of_loop, cross_chords, loop_from_cycle
from commensura.errors import (
    EnumerationCapExceeded,
    InternalInconsistency,
    NonpositiveLength,
    PrecisionExhausted,
)
from commensura.linalg import solve
from commensura.generators import (
    GaloisField,
    build,
    circle_graph,
    generate,
    perturb_graph,
)
from commensura.graph import (
    BarTriple,
    Cycle,
    MetricGraph,
    Subgraph,
    bars_of,
    cycles_of,
    disjoint_pairs,
    parse_graph,
    segments_of,
)
from commensura.scalars import Area, Comparison, SymbolTable, format_scalar, pi_ratio, sum_terms
from commensura.tilings import _Grid, annulus_tiling, verify_tiling

from test_chords import k44 as k44_graph


def pi_times(table, num, den=1):
    return table.pi(Rat(num, den))


def area(table, num, den=1):
    return (table.pi() * table.pi()).scale(Rat(num, den))


# ---------------------------------------------------------------------------
# generators
# ---------------------------------------------------------------------------


def test_field_laws_all_supported_orders():
    for q in (2, 3, 4, 5, 7, 8, 9, 11, 16, 25, 27):
        f = GaloisField(q)
        for a in range(1, q):
            assert f.mul(a, f.inv(a)) == 1
        for a in range(q):
            for b in range(q):
                assert f.add(a, b) == f.add(b, a)
                assert f.mul(a, b) == f.mul(b, a)
        # distributivity on a fixed mesh keeps this quadratic, not cubic
        for a in (1, 2, q - 1):
            for b in range(q):
                for c in (0, 1, q - 1):
                    assert f.mul(a, f.add(b, c)) == f.add(f.mul(a, b), f.mul(a, c))


def test_field_rejects_orders_without_a_polynomial():
    for q in (1, 6, 10, 12, 49):
        with pytest.raises(ValueError):
            GaloisField(q)


def test_circle_generator_splits_length_evenly():
    g = circle_graph(6, "2*PI")
    assert len(g.vertices) == 6 and len(g.edges) == 6
    third = pi_times(g.table, 1, 3)
    assert all(e.length == third for e in g.edges)


def test_incidence_plane_counts():
    for q, n in ((2, 7), (3, 13), (4, 21)):
        g = build("incidence_pg", q=q)
        assert len(g.vertices) == 2 * n
        assert len(g.edges) == n * (q + 1)
        assert {g.degree(v) for v in g.vertices} == {q + 1}


def test_heawood_matches_textbook_cycle_census():
    g = build("heawood")
    assert (len(g.vertices), len(g.edges)) == (14, 21)
    mine = {}
    for c in cycles_of(g.whole()):
        mine[len(c.steps)] = mine.get(len(c.steps), 0) + 1

    oracle_graph = nx.Graph((e.u, e.v) for e in g.edges)
    oracle = {}
    for c in nx.simple_cycles(oracle_graph):
        oracle[len(c)] = oracle.get(len(c), 0) + 1
    assert mine == oracle == {6: 28, 8: 21, 10: 84, 12: 56, 14: 24}


def test_generated_text_round_trips():
    for name, params in (
        ("circle", {"edges": 5, "length": "2*PI"}),
        ("theta", {}),
        ("dumbbell", {}),
        ("heawood", {}),
    ):
        text = generate(name, **params)
        again = parse_graph(text)
        assert text == generate_text_of(again)


def generate_text_of(g):
    from commensura.graph import serialize_graph

    return serialize_graph(g)


def test_perturb_adds_to_one_edge_only():
    base = build("heawood")
    g = perturb_graph(base, "e0", "1")
    assert g.edge_by_id["e0"].length == pi_times(g.table, 1, 3) + g.table.rational(1)
    assert g.edge_by_id["e1"].length == pi_times(g.table, 1, 3)
    with pytest.raises(ValueError):
        perturb_graph(base, "nope", "1")
    with pytest.raises(NonpositiveLength):
        perturb_graph(base, "e0", "-2")


@pytest.mark.parametrize(
    "name, params, edges",
    [
        ("circle", {"edges": 100_001}, 100_001),
        ("theta", {"strands": 100_001}, 100_001),
        ("incidence_pg", {"q": 47}, (47 * 47 + 47 + 1) * 48),
    ],
)
def test_generators_refuse_oversized_graphs_before_building(monkeypatch, name, params, edges):
    def add_vertex(self, v):
        raise AssertionError("a vertex was added before the size check")

    monkeypatch.setattr(MetricGraph, "add_vertex", add_vertex)
    with pytest.raises(ValueError, match=f"{edges} edges"):
        build(name, **params)


def test_generator_limit_is_inclusive(monkeypatch):
    monkeypatch.setattr(generators, "MAX_EDGES", 5)
    assert len(build("theta", strands=5).edges) == 5
    with pytest.raises(ValueError):
        build("theta", strands=6)


def test_build_rejects_unknown_generator():
    with pytest.raises(ValueError):
        build("moebius")
    with pytest.raises(ValueError):
        build("perturb", base="heawood", edge="e0")  # delta missing


# ---------------------------------------------------------------------------
# hypothesis audit
# ---------------------------------------------------------------------------


def test_audit_accepts_heawood():
    g = build("heawood")
    audit = check_hypotheses(g, g.whole())
    assert audit.ok
    assert audit.girth_value == pi_times(g.table, 2)
    assert len(audit.girth_witness) == 6
    assert audit.diameter.max_distance == g.table.pi()
    assert audit.min_degree == 3 and audit.min_degree_ok


def test_audit_rejects_long_circle_with_exact_witness():
    g = build("circle", edges=6, length="2*PI+1")
    audit = check_hypotheses(g, g.whole())
    assert audit.girth_ok  # 2*PI + 1 is still above 2*PI
    assert not audit.diameter.ok
    assert audit.diameter.max_distance == g.table.pi() + g.table.rational(Rat(1, 2))
    assert audit.diameter.witness is not None
    assert not audit.ok


def test_audit_rejects_unit_theta_on_girth():
    g = build("theta")
    audit = check_hypotheses(g, g.whole())
    assert not audit.girth_ok
    assert audit.girth_value == g.table.rational(2)
    assert len(audit.girth_witness) == 2
    assert "2*PI" in audit.first_defect()


def test_audit_rejects_dumbbell_on_diameter():
    g = build("dumbbell")
    audit = check_hypotheses(g, g.whole())
    assert audit.girth_ok
    assert not audit.diameter.ok


def test_audit_flags_low_degree_vertex():
    table = SymbolTable()
    g = MetricGraph(table)
    for v in ("a", "b", "c"):
        g.add_vertex(v)
    g.add_edge("loop", "a", "a", pi_times(table, 2))
    g.add_edge("t1", "a", "b", table.rational(Rat(1, 4)))
    g.add_edge("t2", "b", "c", table.rational(Rat(1, 4)))
    g.validate()
    audit = check_hypotheses(g, g.whole())
    assert not audit.min_degree_ok
    assert audit.min_degree == 1 and audit.min_degree_vertex == "c"
    # the tail also stretches the diameter, which outranks degree in the summary
    assert audit.first_defect() is not None

    from commensura.engine import HypothesisAudit
    from commensura.graph import DiameterResult

    only_degree = HypothesisAudit(
        girth_value=audit.girth_value,
        girth_ok=True,
        girth_witness=audit.girth_witness,
        diameter=DiameterResult(True, None, None),
        diameter_bound=audit.diameter_bound,
        min_degree=1,
        min_degree_vertex="c",
        min_degree_ok=False,
    )
    assert "degree 1" in only_degree.first_defect()


# ---------------------------------------------------------------------------
# full heawood analysis, shared across the detailed assertions
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def heawood():
    return build("heawood")


@pytest.fixture(scope="module")
def heawood_analysis(heawood):
    return analyze(heawood)


def test_heawood_is_conformant(heawood_analysis):
    a = heawood_analysis
    assert a.conformant and a.failure is None
    assert (len(a.cycles), len(a.pairs), len(a.bars), len(a.segments)) == (213, 42, 336, 21)


def test_heawood_cycle_ratios_all_sixths_or_more(heawood_analysis):
    census = {}
    for c in heawood_analysis.cycles:
        census[str(c.ratio)] = census.get(str(c.ratio), 0) + 1
        assert c.ratio * 3 >= 6  # k*PI/3 with k at least 6
        assert c.tiling_report.ok
    assert census == {"2": 28, "8/3": 21, "10/3": 84, "4": 56, "14/3": 24}


def test_heawood_hamiltonian_cycle_chords(heawood, heawood_analysis):
    table = heawood.table
    ham = next(c for c in heawood_analysis.cycles if c.ratio == Rat(14, 3))
    assert len(ham.chords) == 14
    assert {ch.ratio for ch in ham.chords} == {Rat(1, 3)}
    assert all(ch.z == pi_times(table, 2, 3) for ch in ham.chords)
    # squares cover the annulus exactly
    assert ham.tiling_report.tiled_area == area(table, 112, 9)
    assert ham.tiling_report.region_area == area(table, 112, 9)
    # with one vertex avoided, twelve directed squares remain
    for check in ham.area_checks:
        assert check.ok
        assert check.total == area(table, 96, 9)
        assert check.bound == area(table, 48, 9)
    # per-start packing: one square each, far under the slack
    for vis, total, bound, ok in ham.budgets:
        assert ok
        assert total == pi_times(table, 2, 3)
        assert bound == pi_times(table, 4, 3)


def test_heawood_octagon_tiles_exactly(heawood, heawood_analysis):
    table = heawood.table
    oct8 = next(c for c in heawood_analysis.cycles if c.ratio == Rat(8, 3))
    assert len(oct8.chords) == 8
    assert {ch.ratio for ch in oct8.chords} == {Rat(2, 3)}
    assert oct8.tiling_report.tiled_area == area(table, 16, 9)
    assert oct8.tiling_report.region_area == area(table, 16, 9)


def test_heawood_hexagon_is_degenerate(heawood, heawood_analysis):
    table = heawood.table
    hexagon = next(c for c in heawood_analysis.cycles if c.ratio == Rat(2))
    assert hexagon.chords == ()
    zero = table.zero() * table.zero()
    for check in hexagon.area_checks:
        assert check.ok and check.total == zero and check.bound == zero


def test_heawood_pairs_all_commensurable(heawood, heawood_analysis):
    table = heawood.table
    for p in heawood_analysis.pairs:
        assert p.product_report.ok and p.axis_report.ok
        assert tuple(int(n) for n in p.lift_counts) == (1, 1)
        assert len(p.chords) == 6
        assert {ch.ratio for ch in p.chords} <= {Rat(1, 3), Rat(2, 3)}
        assert p.verdict.base == table.pi()
        assert sum(p.verdict.x_ratios, Rat(0)) == Rat(2)
        assert sum(p.verdict.y_ratios, Rat(0)) == Rat(2)


def test_heawood_bars_all_one_third(heawood, heawood_analysis):
    table = heawood.table
    for b in heawood_analysis.bars:
        assert b.a == Rat(4)
        assert b.ratio == Rat(1, 3) * len(b.bar.steps)
        assert b.tiling_report.ok
        assert b.designated_cross >= 1
        assert all(i >= 2 for i in b.designated)
    one_edge = next(b for b in heawood_analysis.bars if len(b.bar.steps) == 1)
    assert one_edge.loop.length == pi_times(table, 14, 3)
    assert one_edge.tiling_report.region_area == area(table, 112, 9)


def test_heawood_segments_are_single_edges(heawood_analysis):
    for s in heawood_analysis.segments:
        assert len(s.segment.steps) == 1
        assert s.ratio == Rat(1, 3)
        assert s.verified
        assert s.terms  # nonempty decomposition


def test_heawood_report_is_json_and_deterministic(heawood_analysis):
    text = json.dumps(heawood_analysis.as_report(), sort_keys=True)
    assert json.loads(text)["conformant"] is True


# ---------------------------------------------------------------------------
# single-object analyses, error paths included
# ---------------------------------------------------------------------------


def test_analyze_cycle_rejects_off_lattice_length():
    g = build("circle", edges=6, length="2*PI+1")
    (c,) = cycles_of(g.whole())
    with pytest.raises(InternalInconsistency, match="rational multiple"):
        analyze_cycle(g, c)


def test_analyze_cycle_surfaces_gap_when_chords_cannot_exist():
    # length 4*PI circle: rational ratio, empty chord set, annulus too wide
    g = build("circle", edges=6, length="4*PI")
    (c,) = cycles_of(g.whole())
    with pytest.raises(InternalInconsistency, match="gap"):
        analyze_cycle(g, c)


def test_analyze_pair_requires_disjoint_cycles():
    g = build("theta", strands=3, length="PI")
    cycles = cycles_of(g.whole())
    with pytest.raises(ValueError, match="disjoint"):
        analyze_cycle_pair(g, cycles[0], cycles[1])


def test_analyze_pair_surfaces_uncoverable_product():
    g = build("dumbbell")  # 2*PI loops, short bar, no ambient shortcuts
    cycles = cycles_of(g.whole())
    loops = [c for c in cycles if len(c.steps) == 1]
    with pytest.raises(InternalInconsistency, match="product"):
        analyze_cycle_pair(g, loops[0], loops[1])


def test_analyze_bar_surfaces_unspliceable_loop():
    g = build("dumbbell")
    (bar,) = bars_of(g.whole())
    with pytest.raises(InternalInconsistency, match="gap"):
        analyze_bar(g, bar)


def _cycle_from_vertex_seq(g, oracle_graph, seq):
    steps, ids = [], []
    total = g.table.zero()
    for x, y in zip(seq, seq[1:] + seq[:1]):
        eid = oracle_graph[x][y]["eid"]
        e = g.edge_by_id[eid]
        steps.append((e, 0 if e.u == x else 1))
        ids.append(eid)
        total = total + e.length
    return Cycle(tuple(steps), frozenset(ids), total)


def test_analyze_bar_off_square_total():
    """Hexagon and octagon joined in the 13-point plane: a = 14/3."""
    g = build("incidence_pg", q=3)
    oracle_graph = nx.Graph()
    for e in g.edges:
        oracle_graph.add_edge(e.u, e.v, eid=e.id)
    sixes, eights = [], []
    for c in nx.simple_cycles(oracle_graph, length_bound=8):
        (sixes if len(c) == 6 else eights).append(c)
    chosen = None
    for s in sixes:
        for o in eights:
            if set(s) & set(o):
                continue
            link = [(u, v) for u in s for v in o if oracle_graph.has_edge(u, v)]
            if link:
                chosen = (s, o, link[0])
                break
        if chosen:
            break
    assert chosen, "the 13-point plane should contain a joined disjoint 6-8 pair"
    s, o, (u, v) = chosen
    c1 = _cycle_from_vertex_seq(g, oracle_graph, s)
    c2 = _cycle_from_vertex_seq(g, oracle_graph, o)
    eid = oracle_graph[u][v]["eid"]
    e = g.edge_by_id[eid]
    bar = BarTriple(
        steps=((e, 0 if e.u == u else 1),),
        edge_ids=frozenset({eid}),
        length=e.length,
        cycle1=c1,
        cycle2=c2,
    )
    result = analyze_bar(g, bar)
    assert result.a == Rat(14, 3)
    assert result.ratio == Rat(1, 3)
    assert result.tiling_report.ok
    assert result.designated_cross >= 1


# ---------------------------------------------------------------------------
# segment decomposition
# ---------------------------------------------------------------------------


def test_theta_pi_full_analysis_and_decomposition():
    g = build("theta", strands=3, length="PI")
    a = analyze(g)
    assert a.conformant
    assert (len(a.cycles), len(a.pairs), len(a.bars), len(a.segments)) == (3, 0, 0, 3)
    assert all(c.ratio == Rat(2) for c in a.cycles)
    assert all(c.chords == () for c in a.cycles)
    first = a.segments[0]
    assert first.ratio == Rat(1)
    assert [(t.kind, t.edges, t.coefficient) for t in first.terms] == [
        ("cycle", ("s0", "s1"), Rat(1, 2)),
        ("cycle", ("s0", "s2"), Rat(1, 2)),
        ("cycle", ("s1", "s2"), Rat(-1, 2)),
    ]


def pseudoleaf():
    """Loop, two parallel strands, a stem, and a far loop."""
    table = SymbolTable()
    g = MetricGraph(table)
    for v in ("u", "v", "w"):
        g.add_vertex(v)
    g.add_edge("lu", "u", "u", table.rational(1))
    g.add_edge("p1", "u", "v", table.rational(1))
    g.add_edge("p2", "u", "v", table.rational(1))
    g.add_edge("wv", "v", "w", table.rational(1))
    g.add_edge("lw", "w", "w", table.rational(1))
    g.validate()
    return g


def test_pseudoleaf_strand_is_a_difference_of_two_bars():
    g = pseudoleaf()
    sub = g.whole()
    segs = segments_of(sub)
    strand = next(s for s in segs if s.edge_ids == frozenset({"p1"}))
    result = decompose_segment(sub, strand)
    assert result.ratio is None  # unit lengths live off the PI lattice
    assert result.verified
    assert [(t.kind, t.edges, t.coefficient) for t in result.terms] == [
        ("bar", ("p1", "wv"), Rat(1)),
        ("bar", ("wv",), Rat(-1)),
    ]


def test_pseudoleaf_stem_is_a_single_bar():
    g = pseudoleaf()
    sub = g.whole()
    stem = next(s for s in segments_of(sub) if s.edge_ids == frozenset({"wv"}))
    result = decompose_segment(sub, stem)
    assert [(t.kind, t.edges, t.coefficient) for t in result.terms] == [
        ("bar", ("wv",), Rat(1))
    ]


def test_dumbbell_bar_decomposes_as_itself():
    g = build("dumbbell")
    sub = g.whole()
    (seg,) = segments_of(sub)
    result = decompose_segment(sub, seg)
    assert [(t.kind, t.edges, t.coefficient) for t in result.terms] == [
        ("bar", ("bar",), Rat(1))
    ]


def test_decompose_segment_enumerates_the_cycles_once():
    g = build("dumbbell")
    sub = g.whole()
    (seg,) = segments_of(sub)
    cycles_of = mock.Mock(wraps=engine_mod.cycles_of)
    with mock.patch.object(engine_mod, "cycles_of", cycles_of):
        with mock.patch("commensura.graph.cycles_of", cycles_of):
            decompose_segment(sub, seg)
    assert cycles_of.call_count == 1


def test_solver_reports_unreachable_targets():
    cols = [[Rat(1), Rat(0)], [Rat(2), Rat(0)]]
    sols = solve(cols, [[Rat(0), Rat(1)], [Rat(3), Rat(0)]])
    assert sols[0] is None
    assert sols[1] == [Rat(3), Rat(0)]  # leftmost pivot carries the weight


# ---------------------------------------------------------------------------
# analyze orchestration
# ---------------------------------------------------------------------------


def test_analyze_reports_hypothesis_violation_with_contrapositive():
    g = build("circle", edges=6, length="2*PI+1")
    a = analyze(g)
    assert not a.conformant
    assert a.failure["kind"] == "hypothesis-violation"
    assert "distance" in a.failure["detail"]
    hint = a.failure["incommensurable_cycle"]
    assert hint is not None and hint["length"] == "2*PI + 1"
    assert a.cycles == () and a.segments == ()


def test_hint_needs_no_cycles_when_every_edge_is_on_the_lattice(monkeypatch):
    import commensura.engine as engine_mod

    def no_enumeration(*args, **kwargs):
        raise AssertionError("cycles enumerated although every edge is a PI multiple")

    g = build("circle", edges=5, length="1/3*PI")
    monkeypatch.setattr(engine_mod, "cycles_of", no_enumeration)
    a = analyze(g)
    assert a.failure["kind"] == "hypothesis-violation"
    assert a.failure["incommensurable_cycle"] is None


def test_hint_finds_a_mixed_cycle_whose_fundamental_cycles_are_on_the_lattice():
    # with tree {s0}, both fundamental cycles (s0 with s1, s0 with s2) have
    # length PI, yet the cycle through s1 and s2 is off the lattice
    g = parse_graph(
        "vertex a\nvertex b\nedge s0 a b 1\nedge s1 a b PI - 1\nedge s2 a b PI - 1\n"
    )
    a = analyze(g)
    assert a.failure["kind"] == "hypothesis-violation"
    assert a.failure["incommensurable_cycle"] == {"edges": ["s1", "s2"], "length": "2*PI - 2"}


def test_analyze_perturbed_heawood_fails_diameter_exactly(heawood):
    g = perturb_graph(heawood, "e0", "1")
    a = analyze(g)
    assert not a.conformant
    assert a.failure["kind"] == "hypothesis-violation"
    assert a.audit.girth_ok
    assert not a.audit.diameter.ok
    assert a.audit.diameter.max_distance == g.table.pi() + g.table.rational(Rat(1, 2))
    far, near = a.audit.diameter.witness
    assert far.edge_id == "e0"
    assert far.offset == pi_times(g.table, 1, 3) + g.table.rational(Rat(1, 2))
    # every hexagon through the stretched edge is now off the lattice,
    # which is exactly the contrapositive evidence the report quotes
    hint = a.failure["incommensurable_cycle"]
    assert hint["length"] == "2*PI + 1"
    assert "e0" in hint["edges"] and len(hint["edges"]) == 6


def _direct_area_totals(result):
    """The squares clear of each visit, summed afresh from the chord list."""
    table = result.cycle.length.table
    return [
        sum_terms(
            (ch.square_area() for ch in result.chords if vis.index not in (ch.s.index, ch.t.index)),
            Area(table, {}),
        )
        for vis in result.loop.visits
    ]


def test_area_totals_match_direct_sums(heawood_analysis):
    results = list(heawood_analysis.cycles)
    k44 = analyze(k44_graph())
    assert k44.conformant
    results += k44.cycles
    # no one-edge perturbation of Heawood passes the audit (longer breaks
    # the diameter bound, shorter the girth), so take every cycle that
    # analyze_cycle still certifies there
    for delta in ("1/6*PI", "2/3*PI"):
        g = build("perturb", base="heawood", edge="e0", delta=delta)
        for c in cycles_of(g.whole()):
            try:
                results.append(analyze_cycle(g, c))
            except InternalInconsistency:
                continue
    assert sum(1 for r in results if r.chords) > 300
    for r in results:
        direct = _direct_area_totals(r)
        assert [c.total for c in r.area_checks] == direct
        assert [c.vertex for c in r.area_checks] == [v.vertex for v in r.loop.visits]


def test_heawood_analyze_tests_each_vertex_pair_once_and_each_square_once():
    """Work-count guard: the chord test runs at most once per ordered
    vertex pair, and each cycle chord's square area is built once per
    cycle shape (2,184 times when every cycle built its own)."""
    real_geodesic = chords_mod._geodesic_between
    real_compare = SymbolTable.compare
    inside = []
    from_geodesic = 0

    def geodesic(*args):
        inside.append(True)
        try:
            return real_geodesic(*args)
        finally:
            inside.pop()

    def compare(self, *args, **kwargs):
        nonlocal from_geodesic
        from_geodesic += bool(inside)
        return real_compare(self, *args, **kwargs)

    square_area = chords_mod.Chord.square_area
    with mock.patch.object(chords_mod, "_geodesic_between", geodesic), mock.patch.object(
        SymbolTable, "compare", compare
    ), mock.patch.object(chords_mod.Chord, "square_area", autospec=True, side_effect=square_area) as sq:
        a = analyze(build("heawood"))
    assert a.conformant
    assert 0 < from_geodesic <= 14 * 13
    shapes = {engine_mod._shape_key("cycle", c.loop, c.chords, c.cycle.length): c for c in a.cycles}
    assert sq.call_count == sum(len(c.chords) for c in shapes.values()) == 148


def test_heawood_analyze_decides_few_pi_ratios():
    """Work-count guard: each chord carries the PI ratio decided once per
    vertex pair, so one Heawood analyze and its report decide few ratios
    (over 12,000 when every chord record and engine check decided its own)."""
    counted = mock.Mock(wraps=pi_ratio)
    with mock.patch.object(chords_mod, "pi_ratio", counted), mock.patch.object(
        engine_mod, "pi_ratio", counted
    ):
        a = analyze(build("heawood"))
        a.as_report()
    assert a.conformant
    assert 0 < counted.call_count <= 1100


def test_resource_limits_name_stage_and_subject(monkeypatch):
    import commensura.engine as engine_mod

    g = build("theta", strands=3, length="PI")

    def undecided(graph, cycle):
        raise PrecisionExhausted("chord length test undecidable")

    monkeypatch.setattr(engine_mod, "analyze_cycle", undecided)
    with pytest.raises(PrecisionExhausted) as info:
        analyze(g)
    assert str(info.value) == "chord length test undecidable (stage cycles, subject s0, s1)"

    with pytest.raises(EnumerationCapExceeded) as info:
        analyze(g, cycle_cap=2)
    assert info.value.cap == 2
    assert str(info.value) == "enumeration exceeded cap of 2 (stage cycles)"


def test_analyze_on_declared_subgraph(heawood, heawood_analysis):
    oct8 = next(c for c in heawood_analysis.cycles if c.ratio == Rat(8, 3))
    sub = Subgraph(heawood, tuple(sorted(oct8.cycle.edge_ids)))
    a = analyze(heawood, sub, subgraph_name="oct")
    assert a.conformant
    assert (len(a.cycles), len(a.pairs), len(a.bars), len(a.segments)) == (1, 0, 0, 0)
    assert a.as_report()["subgraph"] == "oct"


def test_analyze_catches_fabricated_defect_and_reaudits(heawood, heawood_analysis, monkeypatch):
    import commensura.engine as engine_mod

    oct8 = next(c for c in heawood_analysis.cycles if c.ratio == Rat(8, 3))
    sub = Subgraph(heawood, tuple(sorted(oct8.cycle.edge_ids)))
    real = engine_mod.chords_of_loop
    monkeypatch.setattr(engine_mod, "chords_of_loop", lambda loop: real(loop)[:-1])
    a = analyze(heawood, sub, subgraph_name="oct")
    assert not a.conformant
    assert a.failure["kind"] == "internal-inconsistency"
    assert a.failure["stage"] == "cycles"
    assert "gap" in a.failure["detail"]
    assert a.failure["re_audit"]["ok"] is True  # the graph itself is fine


def _grids_reachable(root) -> int:
    """Count tiling grids reachable from root through data references."""
    seen, stack, found = set(), [root], 0
    while stack:
        obj = stack.pop()
        if id(obj) in seen or isinstance(obj, (type, types.ModuleType, types.FunctionType)):
            continue
        seen.add(id(obj))
        found += isinstance(obj, _Grid)
        stack.extend(gc.get_referents(obj))
    return found


def test_analysis_keeps_no_tiling_grid(heawood, heawood_analysis):
    a = analyze(build("theta", strands=3, length="PI"))
    assert a.cycles and _grids_reachable(a) == 0
    assert _grids_reachable(heawood_analysis) == 0  # pairs and bars too
    # the facts shared between loops of one shape keep none either
    assert a.graph.shapes and _grids_reachable(a.graph.shapes) == 0
    assert heawood.shapes and _grids_reachable(heawood.shapes) == 0
    # the walk does find the grid an ok report carries
    assert _grids_reachable(verify_tiling(a.cycles[0].tiling)) == 1


def test_reports_are_byte_identical_across_runs():
    first = json.dumps(analyze(build("theta", strands=3, length="PI")).as_report(), sort_keys=True)
    second = json.dumps(analyze(build("theta", strands=3, length="PI")).as_report(), sort_keys=True)
    assert first == second


# ---------------------------------------------------------------------------
# shape facts shared between loops, against objects analysed alone
# ---------------------------------------------------------------------------

# a theta whose first strand is split off its middle by a decimal symbol:
# every cycle is on the PI lattice, while the split point is not
MIXED_THETA = """\
symbol h 2.5 err 1/100
vertex u
vertex v
vertex m
edge a0 u m 1/2*PI + 1/10*h
edge a1 m v 1/2*PI - 1/10*h
edge s1 u v PI
edge s2 u v PI
"""


def _mixed_k44(a_last: bool = False) -> str:
    """K4,4 at PI/2 with the edge u1-x1 split by a vertex a at PI/4 +
    h/10.  Declared first, a starts every loop through it, so those loops
    put their chords at mixed-basis positions; declared last, its loops
    have 13 shapes over 4 distinct tilings."""
    verts = [f"vertex {p}{i}" for p in "ux" for i in range(1, 5)]
    verts = verts + ["vertex a"] if a_last else ["vertex a"] + verts
    lines = ["symbol h 2.5 err 1/100"] + verts
    for i in range(1, 5):
        for j in range(1, 5):
            if (i, j) == (1, 1):
                lines += ["edge e0 u1 a 1/4*PI + 1/10*h", "edge f0 a x1 1/4*PI - 1/10*h"]
            else:
                lines.append(f"edge e{4 * i + j - 5} u{i} x{j} 1/2*PI")
    return "\n".join(lines) + "\n"


CHORD_RATIO_GRAPHS = {
    "heawood": generate("heawood"),
    "perturbed": generate("perturb", base="heawood", edge="e0", delta="1/6*PI"),
    "theta-mixed": "vertex u\nvertex v\nedge s0 u v 1\nedge s1 u v PI - 1\nedge s2 u v PI - 1\n",
    "k44-split": _mixed_k44(),
}


@pytest.mark.parametrize("name", sorted(CHORD_RATIO_GRAPHS))
def test_chord_ratio_is_the_direct_pi_ratio(name):
    """Differential: the ratio each chord carries from the per-pair memo
    equals pi_ratio of its distance, on every cycle loop, bar loop and
    disjoint cycle pair, in both orders."""
    g = parse_graph(CHORD_RATIO_GRAPHS[name])
    sub = g.whole()
    cycles = cycles_of(sub)
    pairs = disjoint_pairs(cycles)
    bars = bars_of(sub, pairs)
    loops = [loop_from_cycle(g, c) for c in cycles] + [bar_loop(g, b) for b in bars]
    queries = [lambda lp=lp: chords_of_loop(lp) for lp in loops]
    queries += [
        lambda p=p, q=q: cross_chords(loop_from_cycle(g, p), loop_from_cycle(g, q))
        for c1, c2 in pairs
        for p, q in ((c1, c2), (c2, c1))
    ]
    seen = 0
    for query in queries:
        try:
            chords = query()
        except InternalInconsistency:
            continue  # a tied geodesic below PI: no chord records to compare
        for ch in chords:
            assert ch.ratio == pi_ratio(ch.distance)
            seen += 1
    assert seen > 0


def _object_reports(text, fresh_each):
    """Every cycle and bar of a freshly parsed graph, analysed one at a
    time; with fresh_each, the graph's shape facts and loop walks are
    dropped before each object, so every one is certified from scratch."""
    g = parse_graph(text)
    cycles = cycles_of(g.whole())
    out = []
    bars = bars_of(g.whole(), disjoint_pairs(cycles))
    for analyze_one, objects in ((analyze_cycle, cycles), (analyze_bar, bars)):
        for obj in objects:
            if fresh_each:
                for memo in (g.shapes, g.walks):
                    memo.clear()
            out.append(analyze_one(g, obj).as_report())
    return out, g


def test_heawood_shared_certificates_match_single_object_analysis(heawood_analysis):
    a = heawood_analysis
    shared = [c.as_report() for c in a.cycles] + [b.as_report() for b in a.bars]
    alone, _ = _object_reports(generate("heawood"), fresh_each=True)
    assert shared == alone


@pytest.mark.parametrize("text", [MIXED_THETA, _mixed_k44()], ids=["theta", "k44"])
def test_mixed_basis_shared_certificates_match_single_object_analysis(text):
    shared, g = _object_reports(text, fresh_each=False)
    alone, _ = _object_reports(text, fresh_each=True)
    assert shared == alone
    # some shapes were shared
    assert len(g.shapes) < len(shared)
    if text == MIXED_THETA:
        a = analyze(parse_graph(text))
        assert a.conformant and [c.as_report() for c in a.cycles] == shared
    else:
        tilings = [shape.tiling for shape in g.shapes.values()]
        assert any(len(x.num) > 1 for t in tilings for p in t.pieces for x in p.center)


def test_split_k44_verifies_each_shape_once():
    """Work-count guard: with vertex a declared last, the split K4,4
    verifies each of its 13 annulus shapes once, although they share 4
    distinct tilings, and each of its 18 pair products once."""
    verified = mock.Mock(wraps=engine_mod.verify_tiling)
    g = parse_graph(_mixed_k44(a_last=True))
    with mock.patch.object(engine_mod, "verify_tiling", verified):
        a = analyze(g)
    assert a.conformant
    assert len(g.shapes) == 13 and len({s.tiling for s in g.shapes.values()}) == 4
    assert verified.call_count == len(g.shapes) + len(a.pairs) == 31


def test_heawood_certifies_each_distinct_tiling_once():
    """Work-count guard: one verification per annulus shape, each with its
    own tiling here (and one per pair, whose products are not shared), and
    one Dehn-plus test per distinct input."""
    verified = []
    dehn_inputs = []
    real_verify, real_dehn = engine_mod.verify_tiling, engine_mod.dehn_plus_test

    def verify(t, *args):
        verified.append(t)
        return real_verify(t, *args)

    def dehn_plus(measure, **kw):
        dehn_inputs.append((id(measure), kw["q"], kw["r"], kw["a"], kw["designated"]))
        return real_dehn(measure, **kw)

    with mock.patch.object(engine_mod, "verify_tiling", verify), mock.patch.object(
        engine_mod, "dehn_plus_test", dehn_plus
    ):
        a = analyze(build("heawood"))
    assert a.conformant
    annulus = {r.tiling for r in a.cycles + a.bars}
    verified_annulus = [t for t in verified if t in annulus]
    assert len(verified_annulus) == len(set(verified_annulus)) == len(annulus) == 21
    assert len(verified) == len(annulus) + len(a.pairs) == 63
    keys = {(b.tiling, b.bar.length, b.a, b.designated) for b in a.bars}
    assert len(dehn_inputs) == len(set(dehn_inputs)) == len(keys) == 8


@pytest.fixture
def heawood_bar():
    """A fresh Heawood graph, with no shape facts, its first bar, and the
    same bar analysed on a copy."""
    g, copy = build("heawood"), build("heawood")
    first_bar = [bars_of(h.whole(), disjoint_pairs(cycles_of(h.whole())))[0] for h in (g, copy)]
    return g, first_bar[0], analyze_bar(copy, first_bar[1])


def test_bar_verdicts_are_keyed_by_every_dehn_input(heawood_bar):
    g, bar, alone = heawood_bar
    first = analyze_bar(g, bar)
    assert first.as_report() == alone.as_report()
    (shape,) = g.shapes.values()
    key = (bar.length, g.table.pi(), first.a, first.designated)
    assert list(shape.dehn_plus) == [key] and shape.dehn_plus[key] is first.verdict
    assert analyze_bar(g, bar).verdict is first.verdict


def test_resource_limits_are_not_stored():
    g = build("theta", strands=3, length="PI")
    cycle = cycles_of(g.whole())[0]
    real = engine_mod.verify_tiling

    def undecided(t, *args):
        raise PrecisionExhausted("grid order undecidable")

    with mock.patch.object(engine_mod, "verify_tiling", undecided):
        with pytest.raises(PrecisionExhausted):
            analyze_cycle(g, cycle)
    assert g.shapes == {}
    # a limit met after the tiling is verified stores nothing either
    calls = []
    with mock.patch.object(engine_mod, "verify_tiling", lambda t, *a: calls.append(t) or real(t, *a)):
        with mock.patch.object(engine_mod, "compare_area", lambda *args: Comparison.INDETERMINATE):
            with pytest.raises(PrecisionExhausted):
                analyze_cycle(g, cycle)
        assert len(calls) == 1 and g.shapes == {}
        calls.clear()
        assert analyze_cycle(g, cycle).tiling_report.ok
        analyze_cycle(g, cycle)
    assert len(calls) == 1 and len(g.shapes) == 1


def test_graph_change_drops_shapes_and_walks():
    g = build("theta", strands=3, length="PI")
    analyze(g)
    assert g.shapes and g.walks
    g.add_vertex("w")
    assert g.shapes == g.walks == {}
    analyze_cycle(g, cycles_of(g.whole())[0])
    assert g.shapes and g.walks
    g.add_edge("s3", "u", "w", g.table.pi())
    assert g.shapes == g.walks == {}


# ---------------------------------------------------------------------------
# facts shared between loops of one shape
# ---------------------------------------------------------------------------


def _octagon(g):
    """An 8-cycle of the Heawood graph g, with its loop and chords."""
    cycle = next(c for c in cycles_of(g.whole()) if len(c.steps) == 8)
    loop = loop_from_cycle(g, cycle)
    return cycle, loop, chords_of_loop(loop)


def _shape_variants(loop, chords):
    """(loop, chords) pairs that each differ from the given one in a single
    part of a shape: one step length, one branch index, one chord side, or
    one chord visit index."""
    table = loop.graph.table
    visits = loop.branch_visits()
    longer = types.SimpleNamespace(
        lengths=loop.lengths[:-1] + (loop.lengths[-1] + table.rational(1),),
        branch_visits=loop.branch_visits,
    )
    moved = visits[0]._replace(index=visits[0].index + len(loop.visits))
    branched = types.SimpleNamespace(lengths=loop.lengths, branch_visits=lambda: [moved] + visits[1:])
    first = chords[0]
    wider = [dataclasses.replace(first, z=first.z + table.pi(Rat(1, 12)))] + chords[1:]
    other = next(v for v in loop.visits if v.index not in (first.s.index, first.t.index))
    shifted = [dataclasses.replace(first, t=other)] + chords[1:]
    return [(longer, chords), (branched, chords), (loop, wider), (loop, shifted)]


def test_shape_key_tells_every_part_apart():
    g = build("heawood")
    cycle, loop, chords = _octagon(g)
    base = engine_mod._shape_key("cycle", loop, chords, cycle.length)
    keys = [engine_mod._shape_key("cycle", lp, ch, cycle.length) for lp, ch in _shape_variants(loop, chords)]
    keys.append(engine_mod._shape_key("cycle", loop, chords, cycle.length + g.table.rational(1)))
    bar = bars_of(g.whole())[0]
    bar_loop_ = bar_loop(g, bar)
    bar_chords = chords_of_loop(bar_loop_)
    lengths = (bar.cycle1.length, bar.length)
    bar_base = engine_mod._shape_key("bar", bar_loop_, bar_chords, *lengths)
    one = g.table.rational(1)
    keys += [
        engine_mod._shape_key("bar", bar_loop_, bar_chords, lengths[0] + one, lengths[1]),
        engine_mod._shape_key("bar", bar_loop_, bar_chords, lengths[0], lengths[1] + one),
    ]
    keys += [engine_mod._shape_key("bar", lp, ch, *lengths) for lp, ch in _shape_variants(bar_loop_, bar_chords)]
    memo = {base: "cycle", bar_base: "bar"}
    for i, key in enumerate(keys):
        assert memo.setdefault(key, i) == i  # a new entry for every variant
    assert len(memo) == len(keys) + 2


def test_a_changed_chord_gets_its_own_shape():
    """Through analyze_cycle: a chord list that differs in one side or one
    visit index is certified afresh, and fails, while the stored shape of
    the true chords stays as it was."""
    g = build("heawood")
    cycle, loop, chords = _octagon(g)
    first = analyze_cycle(g, cycle)
    (stored,) = g.shapes.values()
    for _, changed in _shape_variants(loop, chords)[2:]:
        with mock.patch.object(engine_mod, "chords_of_loop", lambda lp, ch=changed: ch):
            with pytest.raises(InternalInconsistency, match="annulus tiling"):
                analyze_cycle(g, cycle)
    assert len(g.shapes) == 3 and stored in g.shapes.values()
    assert analyze_cycle(g, cycle).tiling is first.tiling


def test_equal_shapes_from_other_loops_share_the_stored_facts():
    g = build("heawood")
    octagons = [c for c in cycles_of(g.whole()) if len(c.steps) == 8]
    results = [analyze_cycle(g, c) for c in octagons]
    assert len(octagons) > len(g.shapes)
    by_shape = {}
    for r in results:
        key = engine_mod._shape_key("cycle", r.loop, r.chords, r.cycle.length)
        by_shape.setdefault(key, []).append(r)
    assert len(by_shape) == len(g.shapes)
    r1, r2 = next(group for group in by_shape.values() if len(group) > 1)[:2]
    assert r1.cycle != r2.cycle
    assert r1.tiling is r2.tiling and r1.tiling_report is r2.tiling_report
    # the loops share positions; the records naming vertices are their own
    assert all(v1.position is v2.position for v1, v2 in zip(r1.loop.visits, r2.loop.visits))
    assert [c.vertex for c in r1.area_checks] != [c.vertex for c in r2.area_checks]
    assert [c.total for c in r1.area_checks] == [c.total for c in r2.area_checks]
    assert [row[0].vertex for row in r2.budgets] == [v.vertex for v in r2.loop.branch_visits()]


def test_shape_messages_name_each_object():
    """A shape whose check fails raises, for every cycle of that shape,
    with that cycle's own names."""
    g = build("heawood")
    octagons = [c for c in cycles_of(g.whole()) if len(c.steps) == 8]
    real = engine_mod.chords_of_loop
    messages = []
    with mock.patch.object(engine_mod, "chords_of_loop", lambda lp: real(lp)[:-2]):
        for c in octagons[:6]:
            with pytest.raises(InternalInconsistency) as info:
                analyze_cycle(g, c)
            messages.append((str(info.value), sorted(c.edge_ids)))
    assert len(g.shapes) < len(messages)
    for text, edges in messages:
        assert text.startswith(f"annulus tiling of cycle {edges} failed")


def test_heawood_analyze_builds_each_shape_once():
    """Work-count guard: 549 loops, 21 shapes (13 cycle, 8 bar), one
    annulus tiling and one shape entry each."""
    counted = mock.Mock(wraps=annulus_tiling)
    cycle_shapes = mock.Mock(wraps=engine_mod._cycle_shape)
    g = build("heawood")
    with mock.patch.object(engine_mod, "annulus_tiling", counted), mock.patch.object(
        engine_mod, "_cycle_shape", cycle_shapes
    ):
        a = analyze(g)
    assert a.conformant and len(a.cycles) + len(a.bars) == 549
    assert counted.call_count == len(g.shapes) == 21
    assert cycle_shapes.call_count == 13


def test_heawood_analyze_formats_each_scalar_once():
    """Work-count guard: analyze and its report write each Scalar and Area
    text once per instance (18,927 and 4,368 times when every use wrote
    its own)."""
    scalar_text = mock.Mock(wraps=scalars_mod._scalar_text)
    area_text = mock.Mock(wraps=scalars_mod._area_text)
    with mock.patch.object(scalars_mod, "_scalar_text", scalar_text), mock.patch.object(
        scalars_mod, "_area_text", area_text
    ):
        a = analyze(build("heawood"))
        a.as_report()
    assert 0 < scalar_text.call_count <= 1200
    assert 0 < area_text.call_count <= 200


def test_heawood_analyze_scans_cycle_pairs_once():
    """Work-count guard: the cycle list is scanned for disjoint pairs once
    for the pair and bar stages together, and the distances take the 14
    memoised trees plus the girth's one skip-edge search per edge."""
    from commensura import graph as graph_mod

    runs = mock.Mock(wraps=graph_mod.dijkstra)
    scans = mock.Mock(wraps=graph_mod.disjoint_pairs)
    with mock.patch.object(graph_mod, "dijkstra", runs), mock.patch.object(
        graph_mod, "disjoint_pairs", scans
    ), mock.patch.object(engine_mod, "disjoint_pairs", scans):
        a = analyze(build("heawood"))
    assert a.conformant and len(a.pairs) == 42
    assert runs.call_count == 14 + 21
    assert [len(call.args[0]) for call in scans.call_args_list] == [213]


def test_chords_of_loop_fetches_one_tree_per_branch_visit():
    """Work-count guard: each start visit's tree, and its memo of chord
    tests, is fetched once, on a cold graph as on a warm one (58,674 tree
    fetches for Heawood's 549 loops when every visit pair fetched its
    own)."""
    g = build("heawood")
    sub = g.whole()
    cycles = cycles_of(sub)
    bars = bars_of(sub, disjoint_pairs(cycles))
    loops = [loop_from_cycle(g, c) for c in cycles] + [bar_loop(g, b) for b in bars]
    fetch = MetricGraph.tree
    for _ in range(2):
        with mock.patch.object(MetricGraph, "tree", autospec=True, side_effect=fetch) as tree:
            for loop in loops:
                before = tree.call_count
                chords_of_loop(loop)
                assert tree.call_count - before == len(loop.branch_visits())


def test_heawood_edges_share_one_length_and_fresh_lengths_report_the_same():
    """parse_graph keeps one Scalar per distinct edge length; a graph whose
    every edge has its own equal instance analyzes to the same report."""
    text = generate("heawood")
    parsed = parse_graph(text)
    assert len(parsed.edges) == 21 and len({id(e.length) for e in parsed.edges}) == 1
    fresh = MetricGraph(SymbolTable())
    for v in parsed.vertices:
        fresh.add_vertex(v)
    for e in parsed.edges:
        fresh.add_edge(e.id, e.u, e.v, fresh.table.pi(Rat(1, 3)))
    assert len({id(e.length) for e in fresh.edges}) == 21
    assert analyze(fresh).as_report() == analyze(parsed).as_report()
