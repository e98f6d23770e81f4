"""Metric graph behaviour: parsing, exact shortest paths, girth, the
point-diameter maximiser, and cycle/segment/bar enumeration.

Cycle enumeration is checked against an independent oracle: a subset of
edges is an embedded cycle iff it is connected and 2-regular (loops counted
twice).  That check shares no code with the DFS under test.
"""

import heapq
import itertools
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import commensura.graph as graph_mod
from commensura._rat import Rat
from commensura.errors import (
    DisconnectedGraph,
    EnumerationCapExceeded,
    GraphFormatError,
    HypothesisViolation,
    NonpositiveLength,
    PrecisionExhausted,
)
from commensura.generators import build as generate_graph
from commensura.graph import (
    MetricGraph,
    PointOnGraph,
    Subgraph,
    bars_of,
    cycles_of,
    dijkstra,
    disjoint_pairs,
    girth,
    parse_graph,
    point_diameter_check,
    point_distance,
    segments_of,
    serialize_graph,
    shortest_path,
)
from commensura.scalars import Comparison, Scalar, SymbolTable, format_scalar, pi_ratio


def build(edge_list, subgraphs=None):
    """edge_list: (id, u, v, coeff_map) with coeff_map {0: rat, 1: rat}."""
    table = SymbolTable()
    g = MetricGraph(table)
    verts = []
    for _, u, v, _ in edge_list:
        for w in (u, v):
            if w not in verts:
                verts.append(w)
    for w in verts:
        g.add_vertex(w)
    for eid, u, v, coeffs in edge_list:
        s = table.zero()
        for idx, val in coeffs.items():
            s = s + Scalar(table, {idx: Rat(val)})
        g.add_edge(eid, u, v, s)
    for name, eids in (subgraphs or {}).items():
        g.declare_subgraph(name, eids)
    g.validate()
    return g


def circle(n, unit_coeffs):
    edges = []
    for i in range(n):
        edges.append((f"e{i}", f"v{i}", f"v{(i + 1) % n}", unit_coeffs))
    return build(edges)


def brute_cycles(g):
    """Oracle: connected 2-regular edge subsets."""
    out = set()
    edges = g.edges
    for mask in range(1, 1 << len(edges)):
        chosen = [e for i, e in enumerate(edges) if mask >> i & 1]
        deg = {}
        for e in chosen:
            deg[e.u] = deg.get(e.u, 0) + 1
            deg[e.v] = deg.get(e.v, 0) + 1
        if any(d != 2 for d in deg.values()):
            continue
        adj = {}
        for e in chosen:
            adj.setdefault(e.u, set()).add(e.v)
            adj.setdefault(e.v, set()).add(e.u)
        start = next(iter(deg))
        seen = {start}
        stack = [start]
        while stack:
            x = stack.pop()
            for y in adj[x]:
                if y not in seen:
                    seen.add(y)
                    stack.append(y)
        if seen == set(deg):
            out.add(frozenset(e.id for e in chosen))
    return out


def assert_closed_walk(g, cyc):
    from commensura.graph import germ_source, germ_target

    for a, b in zip(cyc.steps, cyc.steps[1:]):
        assert germ_target(a) == germ_source(b)
    assert germ_target(cyc.steps[-1]) == germ_source(cyc.steps[0])
    total = g.table.zero()
    for step in cyc.steps:
        total = total + step[0].length
    assert total == cyc.length


# ---------------------------------------------------------------------------
# text format
# ---------------------------------------------------------------------------

SAMPLE = """\
# a two-symbol sample
symbol tau pi
symbol mu 2.71828 err 1/100000

vertex a
vertex b
vertex c
edge p a b 1/2*PI
edge q b c 1/3*PI + 2
edge r c a mu      # measured length
edge s a b 2*tau
subgraph core p q s
"""


def test_parse_basic_shape():
    g = parse_graph(SAMPLE)
    assert g.vertices == ["a", "b", "c"]
    assert [e.id for e in g.edges] == ["p", "q", "r", "s"]
    assert g.subgraph_decls["core"] == ("p", "q", "s")
    q = g.edge_by_id["q"]
    assert format_scalar(q.length) == "1/3*PI + 2"
    sub = g.subgraph("core")
    assert sub.vertices == ("a", "b", "c")
    assert sub.degree("a") == 2


@pytest.mark.parametrize("bits, used", [(None, 256), (0, 64), (64, 64), (100, 100)])
def test_parse_keeps_an_explicit_precision_budget(bits, used):
    assert parse_graph(SAMPLE, precision_bits=bits).table.precision_bits == used


def test_serialize_round_trip():
    g1 = parse_graph(SAMPLE)
    text = serialize_graph(g1)
    g2 = parse_graph(text)
    assert serialize_graph(g2) == text
    for e1, e2 in zip(g1.edges, g2.edges):
        assert (e1.id, e1.u, e1.v) == (e2.id, e2.u, e2.v)
        assert format_scalar(e1.length) == format_scalar(e2.length)


def test_decimal_symbol_round_trip_is_exact():
    text = "symbol w 0.125 err 1/1000\nvertex a\nvertex b\nedge e a b 3*w\n"
    g = parse_graph(text)
    out = serialize_graph(g)
    assert "symbol w 0.125 err 1/1000" in out
    g2 = parse_graph(out)
    sym = g2.table.user_symbols()[0]
    assert sym.value == Rat(1, 8)


@pytest.mark.parametrize(
    "text,fragment",
    [
        ("vertex a\nspam a\n", "line 2"),
        ("vertex a\nvertex a\n", "duplicate vertex"),
        ("vertex a\nedge e a b 1\n", "unknown vertex"),
        ("vertex a\nvertex b\nedge e a b\n", "line 3"),
        ("symbol m pi\nsymbol m pi\nvertex a\n", "duplicate symbol"),
        ("vertex a\nvertex b\nedge e a b 1\nsubgraph s zz\n", "unknown edge"),
        ("vertex a\nvertex b\nedge e a b 1 +\n", "line 3"),
    ],
)
def test_parse_errors_carry_line_numbers(text, fragment):
    with pytest.raises(GraphFormatError) as err:
        parse_graph(text)
    assert fragment in str(err.value)


def test_zero_length_edge_rejected():
    with pytest.raises(NonpositiveLength):
        parse_graph("vertex a\nvertex b\nedge e a b 0\n")
    with pytest.raises(NonpositiveLength):
        parse_graph("vertex a\nvertex b\nedge e a b 1 - 1\n")


def test_disconnected_graph_rejected():
    text = "vertex a\nvertex b\nvertex c\nvertex d\nedge e a b 1\nedge f c d 1\n"
    with pytest.raises(DisconnectedGraph):
        parse_graph(text)


# ---------------------------------------------------------------------------
# shortest paths
# ---------------------------------------------------------------------------


def test_shortest_path_on_even_circle():
    g = circle(6, {0: 1})
    r = shortest_path(g, "v0", "v2")
    assert r.distance == g.table.rational(2)
    assert r.edge_ids == ["e0", "e1"]
    assert r.unique
    r = shortest_path(g, "v0", "v3")
    assert r.distance == g.table.rational(3)
    assert not r.unique  # clockwise and counterclockwise tie


def test_shortest_path_prefers_parallel_edge():
    g = build([("fast", "a", "b", {0: 1}), ("slow", "a", "b", {0: 2})])
    r = shortest_path(g, "a", "b")
    assert r.distance == g.table.rational(1)
    assert r.edge_ids == ["fast"]
    assert r.unique

    g2 = build([("x", "a", "b", {0: 1}), ("y", "a", "b", {0: 1})])
    assert not shortest_path(g2, "a", "b").unique


def test_shortest_path_ignores_loops():
    g = build([("l", "a", "a", {0: 1}), ("e", "a", "b", {0: 5})])
    r = shortest_path(g, "a", "b")
    assert r.distance == g.table.rational(5)
    assert r.unique


def test_chord_breaks_tie():
    g = build(
        [
            ("e0", "v0", "v1", {0: 1}),
            ("e1", "v1", "v2", {0: 1}),
            ("e2", "v2", "v3", {0: 1}),
            ("e3", "v3", "v0", {0: 1}),
            ("d", "v0", "v2", {0: 1}),
        ]
    )
    r = shortest_path(g, "v0", "v2")
    assert r.distance == g.table.rational(1)
    assert r.edge_ids == ["d"]
    assert r.unique


# ---------------------------------------------------------------------------
# girth
# ---------------------------------------------------------------------------


def test_girth_of_circle_is_total_length():
    g = circle(6, {1: Fraction(1, 3), 0: Fraction(1, 6)})  # total 2*PI + 1
    res = girth(g)
    assert res.value == g.table.pi(2) + g.table.rational(1)
    assert set(res.witness_edges) == {f"e{i}" for i in range(6)}


def test_girth_picks_loop_over_long_cycle():
    g = build(
        [
            ("l", "a", "a", {0: 2}),
            ("e0", "a", "b", {0: 3}),
            ("e1", "b", "a", {0: 3}),
        ]
    )
    res = girth(g)
    assert res.value == g.table.rational(2)
    assert res.witness_edges == ("l",)


def test_girth_parallel_pair():
    g = build(
        [
            ("x", "a", "b", {0: 1}),
            ("y", "a", "b", {0: 2}),
            ("z", "a", "b", {0: 4}),
        ]
    )
    res = girth(g)
    assert res.value == g.table.rational(3)
    assert set(res.witness_edges) == {"x", "y"}


def test_girth_acyclic_is_none():
    g = build([("e", "a", "b", {0: 1}), ("f", "b", "c", {0: 1})])
    assert girth(g).value is None


# ---------------------------------------------------------------------------
# point diameter
# ---------------------------------------------------------------------------


def test_point_diameter_single_edge():
    g = build([("e", "a", "b", {0: 2})])
    res = point_diameter_check(g, g.whole(), g.table.rational(2))
    assert res.ok
    assert res.max_distance == g.table.rational(2)
    res = point_diameter_check(g, g.whole(), g.table.rational(1))
    assert not res.ok
    x, y = res.witness
    assert point_distance(g, x, y) == res.max_distance


def test_point_diameter_loop_antipodes():
    g = build([("l", "a", "a", {0: 4})])
    res = point_diameter_check(g, g.whole(), g.table.rational(2))
    assert res.ok
    assert res.max_distance == g.table.rational(2)
    res = point_diameter_check(g, g.whole(), g.table.rational(1))
    assert not res.ok
    assert point_distance(g, *res.witness) == g.table.rational(2)


def test_point_diameter_circle_exceeding_pi():
    # total length 2*PI + 1: the two farthest points sit at distance PI + 1/2
    g = circle(6, {1: Fraction(1, 3), 0: Fraction(1, 6)})
    bound = g.table.pi()
    res = point_diameter_check(g, g.whole(), bound)
    expected = g.table.pi() + g.table.rational(Fraction(1, 2))
    assert not res.ok
    assert res.max_distance == expected
    x, y = res.witness
    assert point_distance(g, x, y) == expected
    # with the bound at the true diameter the check passes
    res2 = point_diameter_check(g, g.whole(), expected)
    assert res2.ok


def test_point_diameter_theta_graph():
    g = build(
        [
            ("e1", "u", "v", {1: 1}),
            ("e2", "u", "v", {1: 1}),
            ("e3", "u", "v", {1: 1}),
        ]
    )
    res = point_diameter_check(g, g.whole(), g.table.pi())
    assert res.ok
    assert res.max_distance == g.table.pi()


def test_point_diameter_of_subgraph_uses_ambient_shortcuts():
    # long edge far apart, but a short ambient bypass keeps points close
    g = build(
        [
            ("long", "a", "b", {0: 10}),
            ("short", "a", "b", {0: 2}),
        ],
        subgraphs={"s": ["long"]},
    )
    res = point_diameter_check(g, g.subgraph("s"), g.table.rational(6))
    assert res.ok
    assert res.max_distance == g.table.rational(6)


def test_point_distance_same_edge_wrap():
    g = circle(3, {0: 2})  # triangle, side 2
    x = PointOnGraph.make(g, "e0", g.table.rational(Fraction(1, 2)))
    y = PointOnGraph.make(g, "e0", g.table.rational(Fraction(3, 2)))
    assert point_distance(g, x, y) == g.table.rational(1)
    # across edges: forward 3/2 + 1 = 5/2 beats the wrap 1/2 + 2 + 1
    z = PointOnGraph.make(g, "e1", g.table.rational(1))
    assert point_distance(g, x, z) == g.table.rational(Fraction(5, 2))


# The audit skips an edge pair whose opposite corner routes sum to at most
# twice the running maximum.  The reference evaluates every pair, with the
# bound patched to skip nothing; the maximising pair does not depend on the
# audit bound, so the reference runs at bound 0, where the witness is always
# reported, and the pruned check runs at PI (the audit) and at 0.

MIXED_THETA = """\
symbol h 2.5 err 1/100
vertex u
vertex v
edge e0 u v 1/2*PI + h
edge e1 u v PI
edge e2 u v h + 1
"""

DIFFERENTIAL_GRAPHS = {
    "heawood": lambda: generate_graph("heawood"),
    "pg3": lambda: generate_graph("incidence_pg", q="3"),
    **{
        f"heawood-e{k}+1": (lambda k=k: generate_graph("perturb", base="heawood", edge=f"e{k}", delta="1"))
        for k in range(21)
    },
    "heawood-e0-1/10": lambda: generate_graph("perturb", base="heawood", edge="e0", delta="-1/10"),
    "unit-theta": lambda: generate_graph("theta"),
    "dumbbell": lambda: generate_graph("dumbbell"),
    "mixed-theta": lambda: parse_graph(MIXED_THETA),
}


def _diameter_facts(res):
    witness = None if res.witness is None else tuple((p.edge_id, p.offset) for p in res.witness)
    return res.ok, res.max_distance, witness


@pytest.mark.parametrize("name", sorted(DIFFERENTIAL_GRAPHS))
def test_diameter_prune_matches_full_enumeration(name, monkeypatch):
    g = DIFFERENTIAL_GRAPHS[name]()
    table = g.table
    pruned_pi = point_diameter_check(g, g.whole(), table.pi())
    pruned_zero = point_diameter_check(g, g.whole(), table.zero())
    monkeypatch.setattr(graph_mod, "_pair_bounded", lambda *args: False)
    full = point_diameter_check(g, g.whole(), table.zero())
    _, max_distance, witness = _diameter_facts(full)
    assert witness is not None
    ok = table.compare(max_distance, table.pi()) is not Comparison.GREATER
    assert _diameter_facts(pruned_pi) == (ok, max_distance, None if ok else witness)
    assert _diameter_facts(pruned_zero) == _diameter_facts(full)


def test_heawood_diameter_comparison_count():
    """Work-count guard: one Heawood audit makes 237 exact comparisons (410
    when every pair's route lines were intersected)."""
    g = generate_graph("heawood")
    for v in g.vertices:
        g.tree(v)
    compare = mock.Mock(wraps=g.table.compare)
    with mock.patch.object(g.table, "compare", compare):
        assert point_diameter_check(g, g.whole(), g.table.pi()).ok
    assert compare.call_count == 237


def test_diameter_prune_keeps_a_pair_on_an_undecided_bound():
    table = SymbolTable()
    table.declare_decimal_symbol("h", Rat(5, 2), Rat(1))
    h = table.symbol("h")
    assert table.compare(h, table.rational(Rat(5, 2))) is Comparison.INDETERMINATE
    assert not graph_mod._pair_bounded(table, (h,), table.rational(Rat(5, 2)))
    assert graph_mod._pair_bounded(table, (h, table.rational(2)), table.rational(Rat(5, 2)))


# The line enumeration that the closed form replaced, kept as a reference:
# every distance between points of two edges is the minimum of linear route
# functions in the two offsets, so the maximum lies where two constraint
# lines meet; every such point in the edge rectangle is evaluated exactly.


class _RefRoute:
    """value(alpha, beta) = base + ca*alpha + cb*beta with ca, cb in {-1,0,1}."""

    def __init__(self, base, ca, cb):
        self.base, self.ca, self.cb = base, ca, cb

    def at(self, alpha, beta):
        val = self.base
        if self.ca:
            val = val + alpha if self.ca > 0 else val - alpha
        if self.cb:
            val = val + beta if self.cb > 0 else val - beta
        return val


class _RefLine:
    """c0 + ca*alpha + cb*beta = 0 with small integer gradients."""

    def __init__(self, c0, ca, cb):
        self.c0, self.ca, self.cb = c0, ca, cb


def _ref_gradient_difference(cx, x, cy, y):
    if cy < 0:
        return x.scale(cx) + y.scale(-cy)
    return x.scale(cx) - y.scale(cy)


def _ref_intersect(l1, l2):
    det = l1.ca * l2.cb - l1.cb * l2.ca
    if det == 0:
        return None
    alpha = _ref_gradient_difference(l1.cb, l2.c0, l2.cb, l1.c0)
    beta = _ref_gradient_difference(l2.ca, l1.c0, l1.ca, l2.c0)
    if det != 1:
        inv = Rat(1, det)
        alpha, beta = alpha.scale(inv), beta.scale(inv)
    return alpha, beta


def _ref_min_over_routes(routes, alpha, beta, table):
    best = routes[0].at(alpha, beta)
    for r in routes[1:]:
        val = r.at(alpha, beta)
        if graph_mod._strict_cmp(table, val, best) is Comparison.LESS:
            best = val
    return best


def ref_point_diameter_check(graph, sub, bound):
    """The audit by enumeration of route-line intersections, with the same
    pair bound and the same first-maximiser rule."""
    table = graph.table
    strict = graph_mod._strict_cmp
    zero = table.zero()
    edges = sub.edges()
    if not edges:
        return graph_mod.DiameterResult(True, None, None)
    trees = {w: graph.tree(w) for e in edges for w in (e.u, e.v)}
    best = twice_best = best_pair = None
    for i, e in enumerate(edges):
        for f in edges[i:]:
            a, b = e.length, f.length
            uu, uv = trees[e.u].dist[f.u], trees[e.u].dist[f.v]
            vu, vv = trees[e.v].dist[f.u], trees[e.v].dist[f.v]
            if best is not None:
                ab = a + b
                if graph_mod._pair_bounded(table, (uu + vv + ab, uv + vu + ab), twice_best):
                    continue
            routes = [
                _RefRoute(uu, 1, 1),
                _RefRoute(uv + b, 1, -1),
                _RefRoute(vu + a, -1, 1),
                _RefRoute(vv + a + b, -1, -1),
            ]
            boundary = [
                _RefLine(zero, 1, 0),
                _RefLine(zero - a, 1, 0),
                _RefLine(zero, 0, 1),
                _RefLine(zero - b, 0, 1),
            ]
            if e is f:
                domains = [
                    (routes + [_RefRoute(zero, 1, -1)], boundary + [_RefLine(zero, 1, -1)], (1, -1)),
                    (routes + [_RefRoute(zero, -1, 1)], boundary + [_RefLine(zero, 1, -1)], (-1, 1)),
                ]
            else:
                domains = [(routes, boundary, None)]
            for dom_routes, dom_boundary, half in domains:
                lines = list(dom_boundary)
                for rp, rq in itertools.combinations(dom_routes, 2):
                    ca, cb = rp.ca - rq.ca, rp.cb - rq.cb
                    if ca or cb:
                        lines.append(_RefLine(rp.base - rq.base, ca, cb))
                seen = set()
                for l1, l2 in itertools.combinations(lines, 2):
                    pt = _ref_intersect(l1, l2)
                    if pt is None:
                        continue
                    alpha, beta = pt
                    key = (alpha.key(), beta.key())
                    if key in seen:
                        continue
                    seen.add(key)
                    if strict(table, alpha, zero) is Comparison.LESS:
                        continue
                    if strict(table, alpha, a) is Comparison.GREATER:
                        continue
                    if strict(table, beta, zero) is Comparison.LESS:
                        continue
                    if strict(table, beta, b) is Comparison.GREATER:
                        continue
                    if half is not None:
                        d = alpha.scale(half[0]) + beta.scale(half[1])
                        if strict(table, d, zero) is Comparison.LESS:
                            continue
                    val = _ref_min_over_routes(dom_routes, alpha, beta, table)
                    if best is None or strict(table, val, best) is Comparison.GREATER:
                        best, twice_best = val, val.scale(2)
                        best_pair = (PointOnGraph(e.id, alpha), PointOnGraph(f.id, beta))
    ok = strict(table, best, bound) is not Comparison.GREATER
    return graph_mod.DiameterResult(ok, best, None if ok else best_pair)


def _diameter_outcome(check, g, sub, bound):
    try:
        return _diameter_facts(check(g, sub, bound))
    except PrecisionExhausted as exc:
        return ("raises", str(exc))


def assert_diameter_matches_the_reference(g, sub, bound):
    """Where the enumeration decides, the closed form gives the same
    verdict, maximum and witness; where it raises, the closed form raises
    the same error or decides, with its witness pair (reported at bound 0)
    exactly the maximum apart."""
    ref = _diameter_outcome(ref_point_diameter_check, g, sub, bound)
    new = _diameter_outcome(point_diameter_check, g, sub, bound)
    if ref[0] != "raises":
        assert new == ref
    elif new != ref:
        res = point_diameter_check(g, sub, g.table.zero())
        assert res.max_distance == new[1]
        assert point_distance(g, *res.witness) == res.max_distance


@pytest.mark.parametrize("name", sorted(DIFFERENTIAL_GRAPHS))
def test_diameter_matches_the_line_enumeration(name):
    g = DIFFERENTIAL_GRAPHS[name]()
    for bound in (g.table.zero(), g.table.pi()):
        assert_diameter_matches_the_reference(g, g.whole(), bound)


def test_off_lattice_cycles_break_the_point_diameter():
    """The paper's lemma: in a graph of girth 2*PI, an embedded cycle whose
    length is not a rational multiple of PI has two points more than PI
    apart."""
    g = generate_graph("perturb", base="heawood", edge="e0", delta="1")
    table = g.table
    pi = table.pi()
    assert girth(g).value == table.pi(2)
    off_lattice = [c for c in cycles_of(g.whole()) if pi_ratio(c.length) is None]
    assert len(off_lattice) == 104
    for c in off_lattice:
        res = point_diameter_check(g, Subgraph(g, tuple(sorted(c.edge_ids))), pi)
        assert not res.ok
        assert table.compare(res.max_distance, pi) is Comparison.GREATER
        x, y = res.witness
        assert {x.edge_id, y.edge_id} <= c.edge_ids
        assert point_distance(g, x, y) == res.max_distance


# ---------------------------------------------------------------------------
# cycles
# ---------------------------------------------------------------------------


def test_cycles_match_oracle_on_k4():
    edges = []
    verts = ["a", "b", "c", "d"]
    k = 0
    for i in range(4):
        for j in range(i + 1, 4):
            edges.append((f"e{k}", verts[i], verts[j], {0: 1}))
            k += 1
    g = build(edges)
    cycles = cycles_of(g.whole())
    assert {c.edge_ids for c in cycles} == brute_cycles(g)
    assert len(cycles) == 7  # 4 triangles + 3 squares
    for c in cycles:
        assert_closed_walk(g, c)


def test_cycles_match_oracle_with_loops_and_parallels():
    g = build(
        [
            ("lu", "u", "u", {0: 2}),
            ("p1", "u", "v", {0: 1}),
            ("p2", "u", "v", {0: 1}),
            ("wv", "w", "v", {0: 1}),
            ("lw", "w", "w", {0: 3}),
        ]
    )
    cycles = cycles_of(g.whole())
    assert {c.edge_ids for c in cycles} == brute_cycles(g)
    assert len(cycles) == 3
    lengths = sorted(format_scalar(c.length) for c in cycles)
    assert lengths == ["2", "2", "3"]
    for c in cycles:
        assert_closed_walk(g, c)


def test_cycles_canonical_and_deterministic():
    g = circle(4, {0: 1})
    (c,) = cycles_of(g.whole())
    assert c.vertex_seq[0] == "v0"
    first, last = c.steps[0][0].id, c.steps[-1][0].id
    assert first < last
    assert cycles_of(g.whole()) == cycles_of(g.whole())


def test_cycles_cap():
    edges = []
    verts = [f"v{i}" for i in range(5)]
    k = 0
    for i in range(5):
        for j in range(i + 1, 5):
            edges.append((f"e{k}", verts[i], verts[j], {0: 1}))
            k += 1
    g = build(edges)
    assert len(cycles_of(g.whole())) == 37
    with pytest.raises(EnumerationCapExceeded):
        cycles_of(g.whole(), cap=10)


def test_cycles_of_subgraph_only():
    g = build(
        [
            ("e0", "a", "b", {0: 1}),
            ("e1", "b", "c", {0: 1}),
            ("e2", "c", "a", {0: 1}),
            ("x", "a", "b", {0: 1}),
        ],
        subgraphs={"tri": ["e0", "e1", "e2"]},
    )
    cycles = cycles_of(g.subgraph("tri"))
    assert len(cycles) == 1
    assert cycles[0].edge_ids == frozenset({"e0", "e1", "e2"})


# ---------------------------------------------------------------------------
# segments
# ---------------------------------------------------------------------------


def test_segments_of_theta():
    g = build(
        [
            ("e1", "u", "v", {0: 1}),
            ("e2", "u", "m", {0: 1}),
            ("e2b", "m", "v", {0: 1}),
            ("e3", "u", "v", {0: 1}),
        ]
    )
    segs = segments_of(g.whole())
    assert len(segs) == 3
    assert {s.edge_ids for s in segs} == {
        frozenset({"e1"}),
        frozenset({"e2", "e2b"}),
        frozenset({"e3"}),
    }
    two = next(s for s in segs if len(s.steps) == 2)
    assert two.endpoints == ("u", "v")
    assert two.length == g.table.rational(2)


def test_segments_skip_cycles_and_orient_canonically():
    # branch vertex with a pendant loop chain: b - m - w with loop at w
    g = build(
        [
            ("lb", "b", "b", {0: 5}),
            ("bm", "b", "m", {0: 1}),
            ("mw", "m", "w", {0: 1}),
            ("lw", "w", "w", {0: 7}),
        ]
    )
    segs = segments_of(g.whole())
    assert len(segs) == 1
    (s,) = segs
    assert s.edge_ids == frozenset({"bm", "mw"})
    assert s.endpoints == ("b", "w")


def test_segments_raise_on_degree_one():
    g = build([("e", "a", "b", {0: 1}), ("f", "b", "c", {0: 1}), ("g", "c", "a", {0: 1}), ("t", "a", "x", {0: 1})])
    with pytest.raises(HypothesisViolation):
        segments_of(g.whole())


def test_segments_empty_for_plain_cycle():
    g = circle(5, {0: 1})
    assert segments_of(g.whole()) == []


# ---------------------------------------------------------------------------
# bars
# ---------------------------------------------------------------------------


def dumbbell():
    return build(
        [
            ("la", "a", "a", {0: 3}),
            ("ab", "a", "b", {0: 1}),
            ("lb", "b", "b", {0: 3}),
        ]
    )


def test_bars_of_dumbbell():
    g = dumbbell()
    bars = bars_of(g.whole())
    assert len(bars) == 1
    (bar,) = bars
    assert bar.edge_ids == frozenset({"ab"})
    assert bar.endpoints == ("a", "b")
    assert {bar.cycle1.edge_ids, bar.cycle2.edge_ids} == {
        frozenset({"la"}),
        frozenset({"lb"}),
    }
    assert bar.length == g.table.rational(1)


def test_bars_of_pseudoleaf():
    g = build(
        [
            ("lu", "u", "u", {0: 2}),
            ("p1", "u", "v", {0: 1}),
            ("p2", "u", "v", {0: 1}),
            ("wv", "w", "v", {0: 1}),
            ("lw", "w", "w", {0: 3}),
        ]
    )
    bars = bars_of(g.whole())
    keyed = {(b.cycle1.edge_ids, b.cycle2.edge_ids, b.edge_ids) for b in bars}
    assert keyed == {
        (frozenset({"lu"}), frozenset({"lw"}), frozenset({"p1", "wv"})),
        (frozenset({"lu"}), frozenset({"lw"}), frozenset({"p2", "wv"})),
        (frozenset({"lw"}), frozenset({"p1", "p2"}), frozenset({"wv"})),
    }


def test_bars_need_disjoint_cycles():
    g = build(
        [
            ("e1", "u", "v", {0: 1}),
            ("e2", "u", "v", {0: 1}),
            ("e3", "u", "v", {0: 1}),
        ]
    )
    assert bars_of(g.whole()) == []


def test_bar_interior_avoids_both_cycles():
    # path from triangle 1 to triangle 2 through a vertex of triangle 1 is
    # not a bar; only the clean middle path qualifies
    g = build(
        [
            ("a1", "a", "b", {0: 1}),
            ("a2", "b", "c", {0: 1}),
            ("a3", "c", "a", {0: 1}),
            ("m1", "c", "m", {0: 1}),
            ("m2", "m", "d", {0: 1}),
            ("b1", "d", "e", {0: 1}),
            ("b2", "e", "f", {0: 1}),
            ("b3", "f", "d", {0: 1}),
        ]
    )
    bars = bars_of(g.whole())
    assert len(bars) == 1
    assert bars[0].edge_ids == frozenset({"m1", "m2"})
    assert bars[0].endpoints == ("c", "d")


# ---------------------------------------------------------------------------
# metric properties (randomized)
# ---------------------------------------------------------------------------


@st.composite
def random_graph(draw):
    n = draw(st.integers(min_value=2, max_value=5))
    verts = [f"v{i}" for i in range(n)]
    edges = []
    # spanning chain keeps it connected
    for i in range(n - 1):
        w = draw(st.integers(min_value=1, max_value=12))
        edges.append((f"c{i}", verts[i], verts[i + 1], {0: Fraction(w, 3)}))
    extra = draw(st.integers(min_value=0, max_value=4))
    for k in range(extra):
        i = draw(st.integers(min_value=0, max_value=n - 1))
        j = draw(st.integers(min_value=0, max_value=n - 1))
        w = draw(st.integers(min_value=1, max_value=12))
        edges.append((f"x{k}", verts[i], verts[j], {0: Fraction(w, 2)}))
    return edges


@given(random_graph())
@settings(max_examples=60, deadline=None)
def test_distance_is_a_metric(edge_list):
    g = build(edge_list)
    trees = {v: dijkstra(g, v) for v in g.vertices}
    for u in g.vertices:
        assert trees[u].dist[u].is_zero()
        for v in g.vertices:
            assert trees[u].dist[v] == trees[v].dist[u]
            for w in g.vertices:
                lhs = trees[u].dist[w]
                rhs = trees[u].dist[v] + trees[v].dist[w]
                assert g.table.compare(lhs, rhs) in (
                    Comparison.LESS,
                    Comparison.EQUAL,
                )


@given(random_graph())
@settings(max_examples=60, deadline=None)
def test_tree_oracle_matches_fresh_dijkstra(edge_list):
    g = build(edge_list)
    # queries that share the memoised trees must leave them untouched
    for u in g.vertices:
        for v in g.vertices:
            shortest_path(g, u, v)
    point_diameter_check(g, g.whole(), g.table.pi())
    for v in g.vertices:
        tree = g.tree(v)
        assert g.tree(v) is tree
        fresh = dijkstra(g, v)
        assert tree.dist == fresh.dist
        assert tree.pred == fresh.pred
        assert tree.counts == fresh.counts
    assert [g.vertex_order(v) for v in g.vertices] == list(range(len(g.vertices)))


def ref_dijkstra(graph, source, skip_edge=None):
    """The shortest-path search with its path-count pass over every reached
    vertex sorted by (exact distance, vertex order): an independent
    reference for dijkstra's settle-order pass."""
    table = graph.table
    key = graph_mod._Key
    dist = {source: table.zero()}
    done = set()
    heap = [(key(table.zero()), 0, source)]
    counter = itertools.count(1)
    while heap:
        _, _, x = heapq.heappop(heap)
        if x in done:
            continue
        done.add(x)
        for g in graph.germs_at(x):
            e = g[0]
            if e.id == skip_edge or e.is_loop():
                continue
            y = graph_mod.germ_target(g)
            cand = dist[x] + e.length
            if y not in dist:
                dist[y] = cand
                heapq.heappush(heap, (key(cand), next(counter), y))
            elif y not in done:
                cmp = table.compare(cand, dist[y])
                if cmp is Comparison.INDETERMINATE:
                    raise PrecisionExhausted("shortest-path relaxation undecidable")
                if cmp is Comparison.LESS:
                    dist[y] = cand
                    heapq.heappush(heap, (key(cand), next(counter), y))
    order = sorted(dist, key=lambda v: (key(dist[v]), graph.vertex_order(v)))
    counts = {source: 1}
    pred = {}
    for v in order:
        if v == source:
            continue
        total = 0
        best = None
        for g in graph.germs_at(v):
            e = g[0]
            if e.id == skip_edge or e.is_loop():
                continue
            w = graph_mod.germ_target(g)
            if w in dist and dist[w] + e.length == dist[v]:
                total = min(2, total + counts.get(w, 0))
                if best is None:
                    best = graph_mod.reverse_germ(g)
        counts[v] = total
        if best is not None:
            pred[v] = best
    return graph_mod.SourceTree(source, dist, pred, counts)


def _search_outcome(search, *args):
    """dist (as exact keys), pred and counts of one search, or the type and
    message of what it raised."""
    try:
        tree = search(*args)
    except PrecisionExhausted as exc:
        return ("raises", type(exc), str(exc))
    return {v: d.key() for v, d in tree.dist.items()}, tree.pred, tree.counts


@st.composite
def symbol_graph_text(draw, min_vertices=2):
    """Graph files of ``min_vertices`` to 7 vertices with loops and parallel
    edges, whose lengths are rational, multiples of PI, or a decimal symbol
    that never refines (so some orders cannot be decided)."""
    n = draw(st.integers(min_value=min_vertices, max_value=7))
    verts = [f"v{i}" for i in range(n)]
    forms = ["{k}/4", "{k}/6*PI", "{k}/4*h", "{k}/4 + {k}/6*PI", "1 + {k}/8*h"]

    def length():
        form = draw(st.sampled_from(forms))
        return form.format(k=draw(st.integers(min_value=1, max_value=8)))

    lines = ["symbol h 1 err 1/100"] + [f"vertex {v}" for v in verts]
    lines += [f"edge c{i} {verts[i]} {verts[i + 1]} {length()}" for i in range(n - 1)]
    for k in range(draw(st.integers(min_value=0 if n > 1 else 1, max_value=5))):
        i = draw(st.integers(min_value=0, max_value=n - 1))
        j = draw(st.integers(min_value=0, max_value=n - 1))
        lines.append(f"edge x{k} {verts[i]} {verts[j]} {length()}")
    return "\n".join(lines) + "\n"


@given(symbol_graph_text())
@settings(max_examples=150, deadline=None)
def test_settle_order_path_counts_match_the_sorted_pass(text):
    """Differential: from every source, with and without each skipped edge,
    dijkstra's distances, predecessors and path counts, or the error it
    raises, are those of the sorted reference pass."""
    g = parse_graph(text)
    for source in g.vertices:
        for skip in [None] + [e.id for e in g.edges]:
            new = _search_outcome(dijkstra, g, source, skip)
            assert new == _search_outcome(ref_dijkstra, g, source, skip)


def assert_every_pair_matches_the_reference(g):
    """The differential on the whole graph at bounds 0 and PI, and at bound
    0, where the witness is always reported, on each edge and edge pair;
    the distances still run through the whole graph."""
    zero = g.table.zero()
    for bound in (zero, g.table.pi()):
        assert_diameter_matches_the_reference(g, g.whole(), bound)
    for pair in itertools.combinations_with_replacement([e.id for e in g.edges], 2):
        assert_diameter_matches_the_reference(g, Subgraph(g, pair), zero)


@given(symbol_graph_text(min_vertices=1))
@settings(max_examples=80, deadline=None)
def test_diameter_matches_the_line_enumeration_on_multigraphs(text):
    # at the first rung alone an undecidable comparison costs one enclosure
    assert_every_pair_matches_the_reference(parse_graph(text, precision_bits=64))


def test_heawood_dijkstra_comparison_count():
    """Work-count guard: one Heawood search makes 43 exact comparisons (56
    when the path-count pass sorted the reached vertices)."""
    g = generate_graph("heawood")
    compare = mock.Mock(wraps=g.table.compare)
    with mock.patch.object(g.table, "compare", compare):
        dijkstra(g, "p0")
    assert compare.call_count == 43


def test_graph_changes_clear_the_tree_memo():
    g = build([("a", "x", "y", {0: 4})])
    table = g.table
    first = g.tree("x")
    assert g.tree("x") is first
    g.add_edge("b", "x", "y", table.rational(1))
    second = g.tree("x")
    assert second is not first
    assert second.dist["y"] == table.rational(1)
    assert shortest_path(g, "x", "y").edge_ids == ["b"]
    g.add_vertex("z")
    assert g.tree("x") is not second
    g.add_edge("c", "y", "z", table.rational(2))
    assert g.tree("x").dist["z"] == table.rational(3)


@given(random_graph(), st.integers(min_value=1, max_value=7))
@settings(max_examples=40, deadline=None)
def test_rescaling_scales_distances_and_girth(edge_list, num):
    factor = Fraction(num, 2)
    g1 = build(edge_list)
    scaled = [(eid, u, v, {k: Fraction(val) * factor for k, val in c.items()}) for eid, u, v, c in edge_list]
    g2 = build(scaled)
    t1 = dijkstra(g1, g1.vertices[0])
    t2 = dijkstra(g2, g2.vertices[0])
    for v in g1.vertices:
        assert t1.dist[v].scale(Rat(factor)).key() == t2.dist[v].key()
    g1g, g2g = girth(g1), girth(g2)
    if g1g.value is None:
        assert g2g.value is None
    else:
        assert g1g.value.scale(Rat(factor)).key() == g2g.value.key()


# ---------------------------------------------------------------------------
# points
# ---------------------------------------------------------------------------


def test_point_normalization_and_vertex_detection():
    g = build([("e", "a", "b", {0: 4})])
    p = PointOnGraph.make(g, "e", g.table.rational(1), forward=False)
    assert p.offset == g.table.rational(3)
    assert PointOnGraph.make(g, "e", g.table.zero()).as_vertex(g) == "a"
    assert PointOnGraph.make(g, "e", g.table.rational(4)).as_vertex(g) == "b"
    assert PointOnGraph.make(g, "e", g.table.rational(2)).as_vertex(g) is None


# ---------------------------------------------------------------------------
# differentials: the straightforward enumerations
# ---------------------------------------------------------------------------
#
# The references below re-sort a vertex's germs on every stack pop, test
# disjointness by building the vertex intersection, and rotate and orient
# each found cycle from scratch.  The package must give the same objects in
# the same order.


def _germ_key(g):
    return (g[0].id, g[1])


def ref_cycles_of(sub):
    from commensura.graph import Cycle, germ_source, germ_target, reverse_germ, sum_terms

    graph = sub.graph

    def canonical(germs):
        verts = [germ_source(g) for g in germs]
        start = min(range(len(verts)), key=lambda i: graph.vertex_order(verts[i]))
        fwd = germs[start:] + germs[:start]
        if len(germs) > 1:
            rev_all = [reverse_germ(g) for g in reversed(germs)]
            rverts = [germ_source(g) for g in rev_all]
            rstart = min(range(len(rverts)), key=lambda i: graph.vertex_order(rverts[i]))
            rev = rev_all[rstart:] + rev_all[:rstart]
            if rev[0][0].id < fwd[0][0].id:
                fwd = rev
        total = sum_terms((g[0].length for g in fwd), graph.table.zero())
        return Cycle(tuple(fwd), frozenset(g[0].id for g in fwd), total)

    found = {}
    order = {v: graph.vertex_order(v) for v in sub.vertices}
    for root in sorted(sub.vertices, key=lambda v: order[v]):
        stack = [(root, [], set(), {root})]
        while stack:
            x, path, used, visited = stack.pop()
            for g in sorted(sub.germs_at(x), key=_germ_key):
                if g[0].id in used:
                    continue
                y = germ_target(g)
                if y == root:
                    key = frozenset(used) | {g[0].id}
                    if key not in found:
                        found[key] = canonical(path + [g])
                elif y not in visited and order[y] > order[root]:
                    stack.append((y, path + [g], used | {g[0].id}, visited | {y}))
    return sorted(found.values(), key=lambda c: c.sort_key())


def ref_disjoint_pairs(cycles):
    return [
        (c1, c2)
        for i, c1 in enumerate(cycles)
        for c2 in cycles[i + 1:]
        if not c1.vertices & c2.vertices
    ]


def ref_bars_of(sub, cycles):
    from commensura.graph import BarTriple, germ_target, sum_terms

    graph = sub.graph
    bars = []
    for c1, c2 in ref_disjoint_pairs(cycles):
        banned_edges = c1.edge_ids | c2.edge_ids
        banned_verts = c1.vertices | c2.vertices
        for u in sorted(c1.vertices, key=graph.vertex_order):
            stack = [(u, [], {u})]
            while stack:
                x, path, visited = stack.pop()
                for g in sorted(sub.germs_at(x), key=_germ_key):
                    e = g[0]
                    if e.id in banned_edges or any(s[0].id == e.id for s in path):
                        continue
                    y = germ_target(g)
                    if y in c2.vertices:
                        steps = path + [g]
                        total = sum_terms((s[0].length for s in steps), graph.table.zero())
                        bars.append(BarTriple(tuple(steps), frozenset(s[0].id for s in steps), total, c1, c2))
                    elif y not in banned_verts and y not in visited:
                        stack.append((y, path + [g], visited | {y}))
    bars.sort(key=lambda b: b.sort_key())
    return bars


def ref_segments_of(sub):
    from commensura.graph import SegmentPath, germ_source, germ_target, reverse_germ, sum_terms

    graph = sub.graph
    mind, arg = sub.min_degree()
    if mind < 2:
        raise HypothesisViolation(f"vertex {arg} has degree {mind} < 2 in the subgraph")
    branch = {v for v in sub.vertices if sub.degree(v) >= 3}
    found = {}
    for b in sorted(branch, key=graph.vertex_order):
        for g0 in sorted(sub.germs_at(b), key=_germ_key):
            steps, cur, arrived = [g0], germ_target(g0), g0
            while cur not in branch:
                arrived = [g for g in sub.germs_at(cur) if g != reverse_germ(arrived)][0]
                steps.append(arrived)
                cur = germ_target(arrived)
            key = frozenset(g[0].id for g in steps)
            if cur == b or key in found:
                continue
            if graph.vertex_order(germ_source(steps[0])) > graph.vertex_order(cur):
                steps = [reverse_germ(g) for g in reversed(steps)]
            total = sum_terms((g[0].length for g in steps), graph.table.zero())
            found[key] = SegmentPath(tuple(steps), key, total)
    return sorted(found.values(), key=lambda s: s.sort_key())


def _facts(items):
    """Every field the reports read, in order: steps with edge ids and
    ends, edge-id sets and exact lengths."""
    return [
        ([(g[0].id, g[1]) for g in x.steps], x.edge_ids, x.length.key())
        for x in items
    ]


def _outcome(fn, *args):
    try:
        return fn(*args)
    except HypothesisViolation as exc:
        return ("raises", str(exc))


def assert_enumerations_match(g):
    sub = g.whole()
    cycles = cycles_of(sub)
    ref_cycles = ref_cycles_of(sub)
    assert cycles == ref_cycles and _facts(cycles) == _facts(ref_cycles)
    pairs = disjoint_pairs(cycles)
    assert pairs == ref_disjoint_pairs(ref_cycles)
    bars = bars_of(sub)
    ref_bars = ref_bars_of(sub, ref_cycles)
    assert bars == ref_bars and _facts(bars) == _facts(ref_bars)
    assert bars_of(sub, pairs) == bars
    assert [(b.cycle1, b.cycle2) for b in bars] == [(b.cycle1, b.cycle2) for b in ref_bars]
    segments = _outcome(segments_of, sub)
    ref_segments = _outcome(ref_segments_of, sub)
    assert segments == ref_segments
    if isinstance(segments, list):
        assert _facts(segments) == _facts(ref_segments)


def _two_thetas():
    mixed = "vertex u\nvertex v\nedge s0 u v 1\nedge s1 u v PI - 1\nedge s2 u v PI - 1\n"
    return {"theta": generate_graph("theta", length="PI"), "theta-mixed": parse_graph(mixed)}


def _k44():
    lines = [f"vertex {p}{i}" for p in "ux" for i in range(1, 5)]
    lines += [f"edge e{4 * i + j} u{i + 1} x{j + 1} 1/2*PI" for i in range(4) for j in range(4)]
    return parse_graph("\n".join(lines) + "\n")


ENUMERATION_GRAPHS = {
    "heawood": lambda: generate_graph("heawood"),
    "k44": _k44,
    "theta": lambda: _two_thetas()["theta"],
    "theta-mixed": lambda: _two_thetas()["theta-mixed"],
    "dumbbell": lambda: generate_graph("dumbbell"),
    "heawood-perturbed": lambda: generate_graph("perturb", base="heawood", edge="e0", delta="1"),
}


@pytest.mark.parametrize("name", sorted(ENUMERATION_GRAPHS))
def test_enumerations_match_the_references(name):
    assert_enumerations_match(ENUMERATION_GRAPHS[name]())


@st.composite
def lattice_graph(draw):
    """Small connected multigraphs with loops and parallel edges allowed,
    their lengths on the PI lattice or mixing 1 and PI."""
    n = draw(st.integers(min_value=1, max_value=6))
    mixed = draw(st.booleans())
    verts = [f"v{i}" for i in range(n)]

    def length():
        coeffs = {1: Fraction(draw(st.integers(min_value=1, max_value=12)), 6)}
        if mixed and draw(st.booleans()):
            # as low as PI/6 - 1/2, still positive
            coeffs[0] = Fraction(draw(st.integers(min_value=-2, max_value=6)), 4)
        return coeffs

    edges = [(f"c{i}", verts[i], verts[i + 1], length()) for i in range(n - 1)]
    for k in range(draw(st.integers(min_value=0 if n > 1 else 1, max_value=6))):
        i = draw(st.integers(min_value=0, max_value=n - 1))
        j = draw(st.integers(min_value=0, max_value=n - 1))
        edges.append((f"x{k}", verts[i], verts[j], length()))
    return edges


@given(lattice_graph())
@settings(max_examples=80, deadline=None)
def test_enumerations_match_the_references_on_multigraphs(edge_list):
    assert_enumerations_match(build(edge_list))


@given(lattice_graph())
@settings(max_examples=40, deadline=None)
def test_diameter_matches_the_line_enumeration_on_lattice_multigraphs(edge_list):
    assert_every_pair_matches_the_reference(build(edge_list))
