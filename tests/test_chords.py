"""Chord extraction against a brute-force oracle.

The oracle enumerates every simple edge path between two vertices by DFS,
takes the exact minimum, counts minimisers, and applies the escape rules
directly.  It shares nothing with the Dijkstra-based implementation.
"""

import random
from fractions import Fraction
from functools import lru_cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from commensura.chords import (
    ImmersedLoop,
    bar_loop,
    chord_budgets,
    chords_of_loop,
    chords_of_subgraph,
    loop_from_cycle,
)
from commensura.errors import InternalInconsistency
from commensura.generators import generate
from commensura.graph import Subgraph, bars_of, cycles_of, girth, parse_graph
from commensura.scalars import Comparison, Scalar
from commensura.tilings import annulus_tiling

from test_graph import build, circle


# ---------------------------------------------------------------------------
# oracle
# ---------------------------------------------------------------------------


def all_simple_paths(g, x, y):
    """Every germ path from x to y with distinct edges and vertices."""
    out = []

    def extend(cur, steps, used_edges, visited):
        if cur == y and steps:
            out.append(list(steps))
            return
        for germ in g.germs_at(cur):
            e = germ[0]
            w = e.v if germ[1] == 0 else e.u
            if e.id in used_edges or w in visited:
                continue
            extend(w, steps + [germ], used_edges | {e.id}, visited | {w})

    extend(x, [], set(), {x})
    return out


def oracle_geodesics(g, x, y):
    """(min length, list of minimising paths) over all simple paths."""
    table = g.table
    paths = all_simple_paths(g, x, y)
    assert paths
    best = None
    winners = []
    for p in paths:
        total = table.zero()
        for germ in p:
            total = total + germ[0].length
        if best is None:
            best, winners = total, [p]
            continue
        cmp = table.compare(total, best)
        if cmp is Comparison.LESS:
            best, winners = total, [p]
        elif cmp is Comparison.EQUAL:
            winners.append(p)
    return best, winners


def oracle_loop_chords(g, loop):
    """Re-derive the directed chord set of a loop from first principles."""
    from commensura.graph import reverse_germ

    table = g.table
    pi = table.pi()
    starts = [v for v in loop.visits if g.degree(v.vertex) >= 3]
    found = []
    for a in starts:
        for b in starts:
            if a.vertex == b.vertex:
                continue
            d0, winners = oracle_geodesics(g, a.vertex, b.vertex)
            if table.compare(d0, pi) is not Comparison.LESS:
                continue
            assert len(winners) == 1
            path = winners[0]
            if path[0] in a.germs or reverse_germ(path[-1]) in b.germs:
                continue
            found.append((a.index, b.index, d0.key()))
    return sorted(found)


# ---------------------------------------------------------------------------
# fixtures
# ---------------------------------------------------------------------------


def octagon_with_shortcuts():
    """8-cycle of edge length pi/3 plus two-edge antipodal shortcuts."""
    edges = []
    for i in range(8):
        edges.append((f"e{i}", f"v{i}", f"v{(i + 1) % 8}", {1: Fraction(1, 3)}))
    for i in range(4):
        edges.append((f"s{i}a", f"v{i}", f"c{i}", {1: Fraction(1, 3)}))
        edges.append((f"s{i}b", f"c{i}", f"v{i + 4}", {1: Fraction(1, 3)}))
    return build(edges, subgraphs={"ring": [f"e{i}" for i in range(8)]})


def k44():
    """Complete bipartite graph on 4+4 vertices, every edge pi/2."""
    edges = []
    k = 0
    for i in range(1, 5):
        for j in range(1, 5):
            edges.append((f"e{k}", f"u{i}", f"x{j}", {1: Fraction(1, 2)}))
            k += 1
    cyc1 = [e[0] for e in edges if e[1] in ("u1", "u2") and e[2] in ("x1", "x2")]
    cyc2 = [e[0] for e in edges if e[1] in ("u3", "u4") and e[2] in ("x3", "x4")]
    return build(edges, subgraphs={"c1": cyc1, "c2": cyc2, "both": cyc1 + cyc2})


# ---------------------------------------------------------------------------
# loop mechanics
# ---------------------------------------------------------------------------


def test_loop_positions_and_length():
    g = circle(4, {0: 2})
    (cyc,) = cycles_of(g.whole())
    loop = loop_from_cycle(g, cyc)
    assert loop.length == g.table.rational(8)
    positions = [v.position for v in loop.visits]
    assert positions == [g.table.rational(2 * i) for i in range(4)]
    assert loop.branch_visits() == []  # all degree 2


def test_bar_loop_visits_endpoints_twice():
    g = build(
        [
            ("la", "a", "a", {0: 3}),
            ("ab", "a", "b", {0: 1}),
            ("lb", "b", "b", {0: 3}),
        ]
    )
    (bar,) = bars_of(g.whole())
    loop = bar_loop(g, bar)
    assert loop.length == g.table.rational(8)
    seq = [(v.vertex, v.position) for v in loop.visits]
    assert seq == [
        ("a", g.table.zero()),
        ("a", g.table.rational(3)),
        ("b", g.table.rational(4)),
        ("b", g.table.rational(7)),
    ]
    a0, a1 = loop.visits[0], loop.visits[1]
    assert set(a0.germs) != set(a1.germs)


def test_loop_rejects_broken_walk():
    g = build([("e", "a", "b", {0: 1}), ("f", "b", "c", {0: 1}), ("h", "c", "a", {0: 1})])
    e = g.edge_by_id["e"]
    f = g.edge_by_id["f"]
    with pytest.raises(InternalInconsistency):
        ImmersedLoop(g, [(e, 0), (f, 1)])  # f traversed the wrong way


# ---------------------------------------------------------------------------
# chords of cycles
# ---------------------------------------------------------------------------


def test_plain_circle_has_no_chords():
    g = circle(6, {1: Fraction(1, 3)})
    (cyc,) = cycles_of(g.whole())
    assert chords_of_loop(loop_from_cycle(g, cyc)) == []


def test_octagon_chords_match_oracle_and_expectations():
    g = octagon_with_shortcuts()
    ring = g.subgraph("ring")
    cyc = next(c for c in cycles_of(g.whole()) if c.edge_ids == ring.edge_set)
    loop = loop_from_cycle(g, cyc)
    chords = chords_of_loop(loop)

    got = sorted((c.s.index, c.t.index, c.distance.key()) for c in chords)
    assert got == oracle_loop_chords(g, loop)

    # the four antipodal pairs, both directions each, distance 2*pi/3
    assert len(chords) == 8
    expected_d = g.table.pi(Fraction(2, 3))
    expected_z = g.table.pi(Fraction(1, 3))
    for c in chords:
        assert c.distance == expected_d
        assert c.z == expected_z
        assert c.square_area() == (expected_z * expected_z).scale(2)
        # geodesic runs through a shortcut vertex, not around the ring
        mid = c.geodesic[0]
        assert mid[0].id.startswith("s")
    starts = sorted((c.s.vertex, c.t.vertex) for c in chords)
    assert starts == sorted(
        [(f"v{i}", f"v{(i + 4) % 8}") for i in range(8)]
    )


def test_exact_pi_separation_is_not_a_chord():
    g = octagon_with_shortcuts()
    # v0 and v3 sit at exact distance pi (two routes even); neither route
    # may produce a chord, and no inconsistency may be raised
    ring = g.subgraph("ring")
    cyc = next(c for c in cycles_of(g.whole()) if c.edge_ids == ring.edge_set)
    chords = chords_of_loop(loop_from_cycle(g, cyc))
    for c in chords:
        assert (c.s.vertex, c.t.vertex) not in (("v0", "v3"), ("v3", "v0"))


def test_geodesic_along_the_loop_is_rejected():
    # neighbouring branch visits: the geodesic is the loop edge itself
    g = octagon_with_shortcuts()
    ring = g.subgraph("ring")
    cyc = next(c for c in cycles_of(g.whole()) if c.edge_ids == ring.edge_set)
    chords = chords_of_loop(loop_from_cycle(g, cyc))
    for c in chords:
        gap = abs(c.s.index - c.t.index)
        assert gap == 4  # only antipodal visits survive the escape rule


def test_nonunique_short_geodesic_is_inconsistent():
    g = build(
        [
            ("p1", "a", "b", {0: 1}),
            ("p2", "a", "b", {0: 1}),
            ("sa", "a", "s", {0: 1}),
            ("tb", "b", "t", {0: 1}),
            ("st", "s", "t", {0: 1}),
        ]
    )
    cyc = next(c for c in cycles_of(g.whole()) if c.edge_ids == frozenset({"p1", "p2"}))
    with pytest.raises(InternalInconsistency):
        chords_of_loop(loop_from_cycle(g, cyc))


def test_nonunique_short_geodesic_raises_on_every_query():
    graph = parse_graph(generate("theta"))  # three unit strands: u-v geodesics tie
    cyc = cycles_of(graph.whole())[0]
    for _ in range(3):
        with pytest.raises(InternalInconsistency, match="two geodesics"):
            chords_of_loop(loop_from_cycle(graph, cyc))
        with pytest.raises(InternalInconsistency, match="two geodesics"):
            chords_of_subgraph(graph, Subgraph(graph, tuple(cyc.edge_ids)))


# ---------------------------------------------------------------------------
# the chord-test memo on shortest-path trees
# ---------------------------------------------------------------------------

MEMO_GRAPHS = {
    "heawood": generate("heawood"),
    "perturbed": generate("perturb", base="heawood", edge="e0", delta="1/10"),
    "theta": generate("theta"),
    "theta-mixed": "vertex u\nvertex v\nedge s0 u v 1\nedge s1 u v PI - 1\nedge s2 u v PI - 1\n",
}


@lru_cache(maxsize=None)
def _query_pool(name):
    """Every cycle loop, bar loop, cycle subgraph and disjoint-pair
    subgraph of a graph, as edge ids that any parse of it can rebuild."""
    g = parse_graph(MEMO_GRAPHS[name])
    sub = g.whole()
    cycles = cycles_of(sub)
    loops = [loop_from_cycle(g, c) for c in cycles]
    loops += [bar_loop(g, b) for b in bars_of(sub, cycles)]
    pool = [("loop", tuple((e.id, end) for e, end in lp.steps)) for lp in loops]
    pool += [("sub", tuple(sorted(c.edge_ids))) for c in cycles]
    pool += [
        ("sub", tuple(sorted(c1.edge_ids | c2.edge_ids)))
        for i, c1 in enumerate(cycles)
        for c2 in cycles[i + 1:]
        if not c1.vertices & c2.vertices
    ]
    pool.append(("sub", tuple(e.id for e in g.edges)))
    return pool


def _chord_answer(graph, query):
    kind, data = query
    try:
        if kind == "loop":
            loop = ImmersedLoop(graph, [(graph.edge_by_id[eid], end) for eid, end in data])
            chords = chords_of_loop(loop)
            return [
                (c.s.index, c.t.index, c.as_report(), [(g[0].id, g[1]) for g in c.geodesic])
                for c in chords
            ]
        chords = chords_of_subgraph(graph, Subgraph(graph, data))
        return [(c.as_report(), [(g[0].id, g[1]) for g in c.geodesic]) for c in chords]
    except InternalInconsistency as exc:
        return ("raises", str(exc))


@settings(max_examples=12, deadline=None)
@given(name=st.sampled_from(sorted(MEMO_GRAPHS)), seed=st.integers(0, 2**32 - 1))
def test_chord_memo_matches_a_fresh_graph_per_query(name, seed):
    rng = random.Random(seed)
    pool = _query_pool(name)
    queries = rng.sample(pool, min(len(pool), 8))
    queries += rng.choices(queries, k=3)  # repeats read the memo
    text = MEMO_GRAPHS[name]
    shared = parse_graph(text)
    for query in queries:
        assert _chord_answer(shared, query) == _chord_answer(parse_graph(text), query)


def test_add_edge_drops_the_chord_memo():
    # a ring of six pi/3 edges: opposite vertices sit exactly pi apart
    g = circle(6, {1: Fraction(1, 3)})
    ring = tuple(e.id for e in g.edges)
    assert chords_of_subgraph(g, Subgraph(g, ring)) == []
    old = g.tree("v0")
    assert old.short  # the answers were kept on the tree
    g.add_vertex("c")
    g.add_edge("s1", "v0", "c", g.table.pi(Fraction(1, 4)))
    assert not g.tree("v0").short
    g.add_edge("s2", "c", "v3", g.table.pi(Fraction(1, 4)))
    assert g.tree("v0") is not old and not g.tree("v0").short
    chords = chords_of_subgraph(g, Subgraph(g, ring))
    assert {(c.x, c.y) for c in chords} == {("v0", "v3"), ("v3", "v0")}
    assert all(c.distance == g.table.pi(Fraction(1, 2)) for c in chords)


# ---------------------------------------------------------------------------
# chords of bar loops
# ---------------------------------------------------------------------------


def test_dumbbell_bar_loop_has_no_chords():
    g = build(
        [
            ("la", "a", "a", {0: 3}),
            ("ab", "a", "b", {0: 1}),
            ("lb", "b", "b", {0: 3}),
        ]
    )
    (bar,) = bars_of(g.whole())
    assert chords_of_loop(bar_loop(g, bar)) == []


def test_ambient_shortcut_gives_four_bar_chords():
    g = build(
        [
            ("la", "a", "a", {0: 3}),
            ("ab", "a", "b", {0: 1}),
            ("lb", "b", "b", {0: 3}),
            ("sc", "a", "b", {0: Fraction(1, 2)}),
        ],
        subgraphs={"bell": ["la", "ab", "lb"]},
    )
    bars = bars_of(g.subgraph("bell"))
    bar = next(b for b in bars if b.edge_ids == frozenset({"ab"}))
    loop = bar_loop(g, bar)
    chords = chords_of_loop(loop)
    # both a-visits pair with both b-visits through the ambient shortcut
    assert len(chords) == 8
    half = g.table.rational(Fraction(1, 2))
    for c in chords:
        assert c.distance == half
        assert c.z == g.table.pi() - half
        assert c.geodesic[0][0].id == "sc"
    pairs = sorted((c.s.index, c.t.index) for c in chords)
    assert pairs == [(0, 2), (0, 3), (1, 2), (1, 3), (2, 0), (2, 1), (3, 0), (3, 1)]


# ---------------------------------------------------------------------------
# subgraph chords
# ---------------------------------------------------------------------------


def test_k44_cross_chords():
    g = k44()
    both = g.subgraph("both")
    chords = chords_of_subgraph(g, both)
    assert len(chords) == 16
    c1_verts = set(g.subgraph("c1").vertices)
    c2_verts = set(g.subgraph("c2").vertices)
    for c in chords:
        assert c.distance == g.table.pi(Fraction(1, 2))
        assert c.z == g.table.pi(Fraction(1, 2))
        assert len(c.geodesic) == 1
        endpoints = {c.x, c.y}
        assert len(endpoints & c1_verts) == 1
        assert len(endpoints & c2_verts) == 1


def test_subgraph_chords_respect_edge_escape():
    # a triangle with one extra parallel edge: the short alternative stays
    # outside the subgraph, so it counts; the subgraph's own edges never do
    g = build(
        [
            ("t1", "a", "b", {1: Fraction(1, 3)}),
            ("t2", "b", "c", {1: Fraction(1, 3)}),
            ("t3", "c", "a", {1: Fraction(1, 3)}),
            ("d", "a", "b", {1: Fraction(1, 4)}),
        ],
        subgraphs={"tri": ["t1", "t2", "t3"]},
    )
    chords = chords_of_subgraph(g, g.subgraph("tri"))
    assert len(chords) == 2
    assert {(c.x, c.y) for c in chords} == {("a", "b"), ("b", "a")}
    for c in chords:
        assert c.distance == g.table.pi(Fraction(1, 4))
        assert c.geodesic[0][0].id == "d"


def test_subgraph_chord_oracle_octagon():
    g = octagon_with_shortcuts()
    ring = g.subgraph("ring")
    chords = chords_of_subgraph(g, ring)
    assert sorted((c.x, c.y) for c in chords) == sorted(
        [(f"v{i}", f"v{(i + 4) % 8}") for i in range(8)]
    )


# ---------------------------------------------------------------------------
# packing budget
# ---------------------------------------------------------------------------


def test_chord_budget_tight_on_octagon():
    g = octagon_with_shortcuts()
    ring = g.subgraph("ring")
    cyc = next(c for c in cycles_of(g.whole()) if c.edge_ids == ring.edge_set)
    loop = loop_from_cycle(g, cyc)
    chords = chords_of_loop(loop)
    rows = chord_budgets(loop, chords)
    assert len(rows) == 8
    for vis, total, bound, ok in rows:
        # one chord per visit with z = pi/3, and l/2 - pi = pi/3 exactly
        assert total == g.table.pi(Fraction(1, 3))
        assert bound == g.table.pi(Fraction(1, 3))
        assert ok


# ---------------------------------------------------------------------------
# spliced rectangles
# ---------------------------------------------------------------------------


def test_embedded_cycle_has_no_spliced_rectangles():
    g = circle(6, {1: Fraction(1, 3)})
    (cyc,) = cycles_of(g.whole())
    assert annulus_tiling(loop_from_cycle(g, cyc), []).pieces == ()


def dumbbell_pi_loops(bar_len, loops=(2, 2)):
    return build(
        [
            ("la", "a", "a", {1: loops[0]}),
            ("ab", "a", "b", {1: bar_len}),
            ("lb", "b", "b", {1: loops[1]}),
        ]
    )


def test_bar_spliced_rectangles_from_pass_positions():
    # unequal cycles, so the first pass start is pinned to the first cycle
    g = dumbbell_pi_loops(Fraction(1, 3), loops=(2, 3))
    (bar,) = bars_of(g.whole())
    loop = bar_loop(g, bar)
    table = g.table
    pi = table.pi()
    b = table.pi(Fraction(1, 3))
    assert (bar.cycle1.length, bar.length, bar.cycle2.length) == (table.pi(2), b, table.pi(3))
    assert loop.length == table.pi(Fraction(17, 3))

    first, second = annulus_tiling(loop, [], bar).pieces[:2]
    assert (first.label, second.label) == ("spliced0", "spliced1")
    # the walk crosses the bar during [s1, s1 + b] and again, backwards,
    # during [s2 - b, s2]; the centre is (s1 + b/2, s2 - b/2)
    s1, s2 = table.pi(2), loop.length
    assert first.center == (table.pi(Fraction(13, 6)), table.pi(Fraction(11, 2)))
    # the mirror swaps coordinates
    assert second.center == first.center[::-1]
    for rect in (first, second):
        assert rect.halves == (pi, b + pi)
        assert rect.shape == "rectangle"
        assert rect.area() == (pi * (b + pi)).scale(2)
    # the corners of the crossing locus are the corners of the first box
    cu, cv = first.center[0] + first.center[1], first.center[0] - first.center[1]
    for x, y in ((s1 - pi, s2), (s1, s2 + pi), (s1 + b + pi, s2 - b), (s1 + b, s2 - b - pi)):
        du, dv = x + y - cu, x - y - cv
        assert {du, -du} == {pi, -pi}
        assert {dv, -dv} == {b + pi, -(b + pi)}


def test_bar_rectangles_validate_lengths():
    g = dumbbell_pi_loops(Fraction(1, 3))
    (bar,) = bars_of(g.whole())
    cycle = next(iter(cycles_of(g.whole())))
    with pytest.raises(ValueError):
        annulus_tiling(loop_from_cycle(g, cycle), [], bar)
