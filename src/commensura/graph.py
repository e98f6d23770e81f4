"""Finite connected metric multigraphs with exact Scalar edge lengths.

Loops and parallel edges are allowed everywhere.  Directions never exist on
edges themselves; directed behaviour is expressed through germs, pairs
``(edge, end)`` naming the departure end of an edge (a loop contributes two
germs at its vertex).

All decisions (orderings in Dijkstra, girth minimisation, the point-diameter
maximisation) go through the certified comparisons of the scalars module; an
undecidable comparison surfaces as PrecisionExhausted instead of a wrong
answer.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from functools import cached_property
from typing import Optional, Sequence

from ._rat import Rat
from .errors import (
    DisconnectedGraph,
    EnumerationCapExceeded,
    GraphFormatError,
    HypothesisViolation,
    NonpositiveLength,
    PrecisionExhausted,
)
from .scalars import Comparison, Scalar, SymbolTable, format_scalar, parse_scalar, sum_terms

DEFAULT_CYCLE_CAP = 10**6


class Edge:
    __slots__ = ("id", "u", "v", "length")

    def __init__(self, eid: str, u: str, v: str, length: Scalar):
        self.id = eid
        self.u = u
        self.v = v
        self.length = length

    def other(self, vertex: str) -> str:
        return self.v if vertex == self.u else self.u

    def is_loop(self) -> bool:
        return self.u == self.v

    def __repr__(self) -> str:
        return f"Edge({self.id}: {self.u}-{self.v}, {format_scalar(self.length)})"


# A germ is (edge, end) with end 0 when departing from edge.u and 1 from
# edge.v; germs are the unit of "direction" everywhere below.
Germ = tuple


def germ_source(g: Germ) -> str:
    e, end = g
    return e.u if end == 0 else e.v


def germ_target(g: Germ) -> str:
    e, end = g
    return e.v if end == 0 else e.u


def reverse_germ(g: Germ) -> Germ:
    return (g[0], 1 - g[1])


class MetricGraph:
    def __init__(self, table: SymbolTable):
        self.table = table
        self.vertices: list[str] = []
        self._order: dict[str, int] = {}  # vertex -> position in self.vertices
        self.edges: list[Edge] = []
        self.edge_by_id: dict[str, Edge] = {}
        self.subgraph_decls: dict[str, tuple[str, ...]] = {}
        self._germs: dict[str, list[Germ]] = {}
        self._trees: dict[str, SourceTree] = {}  # memo of tree(); cleared on change
        # cleared with _trees: the loop positions per step-length sequence
        # (chords.ImmersedLoop), and the engine's facts per loop shape
        self.walks: dict = {}
        self.shapes: dict = {}

    # -- construction -------------------------------------------------------

    def add_vertex(self, name: str) -> None:
        if name in self._order:
            raise GraphFormatError(f"duplicate vertex: {name}")
        self._order[name] = len(self.vertices)
        self.vertices.append(name)
        self._germs[name] = []
        self._changed()

    def add_edge(self, eid: str, u: str, v: str, length: Scalar) -> Edge:
        if eid in self.edge_by_id:
            raise GraphFormatError(f"duplicate edge: {eid}")
        for w in (u, v):
            if w not in self._order:
                raise GraphFormatError(f"edge {eid} references unknown vertex {w}")
        sign = self.table.sign(length)
        if sign is Comparison.INDETERMINATE:
            raise PrecisionExhausted(f"cannot certify positivity of edge {eid}")
        if sign is not Comparison.GREATER:
            raise NonpositiveLength(f"edge {eid} has nonpositive length")
        edge = Edge(eid, u, v, length)
        self.edges.append(edge)
        self.edge_by_id[eid] = edge
        self._germs[u].append((edge, 0))
        self._germs[v].append((edge, 1))
        self._changed()
        return edge

    def _changed(self) -> None:
        """Drop every memo that depends on the graph's vertices and edges."""
        for memo in (self._trees, self.walks, self.shapes):
            memo.clear()

    def declare_subgraph(self, name: str, edge_ids: Sequence[str]) -> None:
        if name in self.subgraph_decls:
            raise GraphFormatError(f"duplicate subgraph: {name}")
        for eid in edge_ids:
            if eid not in self.edge_by_id:
                raise GraphFormatError(f"subgraph {name} references unknown edge {eid}")
        self.subgraph_decls[name] = tuple(edge_ids)

    def validate(self) -> None:
        if not self.vertices:
            raise GraphFormatError("graph has no vertices")
        seen = {self.vertices[0]}
        stack = [self.vertices[0]]
        while stack:
            x = stack.pop()
            for g in self._germs[x]:
                y = germ_target(g)
                if y not in seen:
                    seen.add(y)
                    stack.append(y)
        if len(seen) != len(self.vertices):
            missing = sorted(self._order.keys() - seen)
            raise DisconnectedGraph(f"unreachable vertices: {', '.join(missing)}")

    # -- views ---------------------------------------------------------------

    def germs_at(self, vertex: str) -> list[Germ]:
        return self._germs[vertex]

    def degree(self, vertex: str) -> int:
        return len(self._germs[vertex])

    def whole(self) -> "Subgraph":
        return Subgraph(self, tuple(e.id for e in self.edges))

    def subgraph(self, name: str) -> "Subgraph":
        if name not in self.subgraph_decls:
            raise KeyError(f"no subgraph named {name}")
        return Subgraph(self, self.subgraph_decls[name])

    def vertex_order(self, name: str) -> int:
        return self._order[name]

    def tree(self, source: str) -> "SourceTree":
        """Shortest-path tree from source in the whole graph, computed once
        and shared until the graph next changes; callers must not mutate it."""
        tree = self._trees.get(source)
        if tree is None:
            tree = self._trees[source] = dijkstra(self, source)
        return tree


class Subgraph:
    """An edge-id subset of a MetricGraph with the induced vertex set."""

    def __init__(self, graph: MetricGraph, edge_ids: Sequence[str]):
        self.graph = graph
        self.edge_ids = tuple(dict.fromkeys(edge_ids))
        self.edge_set = frozenset(self.edge_ids)
        verts = []
        for eid in self.edge_ids:
            e = graph.edge_by_id[eid]
            for w in (e.u, e.v):
                if w not in verts:
                    verts.append(w)
        self.vertices = tuple(sorted(verts, key=graph.vertex_order))

    def edges(self) -> list[Edge]:
        return [self.graph.edge_by_id[eid] for eid in self.edge_ids]

    def germs_at(self, vertex: str) -> list[Germ]:
        return [g for g in self.graph.germs_at(vertex) if g[0].id in self.edge_set]

    def degree(self, vertex: str) -> int:
        return len(self.germs_at(vertex))

    def min_degree(self) -> tuple[int, Optional[str]]:
        best, arg = None, None
        for v in self.vertices:
            d = self.degree(v)
            if best is None or d < best:
                best, arg = d, v
        return (best if best is not None else 0), arg


@dataclass(frozen=True)
class PointOnGraph:
    """A point on an edge: offset along the edge from its u end."""

    edge_id: str
    offset: Scalar

    @staticmethod
    def make(graph: MetricGraph, edge_id: str, offset: Scalar, forward: bool = True) -> "PointOnGraph":
        """The point at ``offset`` from the u end, or from the v end when
        ``forward`` is False."""
        edge = graph.edge_by_id[edge_id]
        if not forward:
            offset = edge.length - offset
        return PointOnGraph(edge_id, offset)

    def as_vertex(self, graph: MetricGraph) -> Optional[str]:
        edge = graph.edge_by_id[self.edge_id]
        if self.offset.is_zero():
            return edge.u
        if self.offset == edge.length:
            return edge.v
        return None


# ---------------------------------------------------------------------------
# shortest paths
# ---------------------------------------------------------------------------


class _Key:
    """Heap ordering adapter; raises when the order is not certified."""

    __slots__ = ("scalar",)

    def __init__(self, scalar: Scalar):
        self.scalar = scalar

    def __lt__(self, other: "_Key") -> bool:
        cmp = self.scalar.table.compare(self.scalar, other.scalar)
        if cmp is Comparison.INDETERMINATE:
            raise PrecisionExhausted("tie in shortest-path ordering undecidable")
        return cmp is Comparison.LESS


@dataclass
class SourceTree:
    """Single-source result: exact distances plus path multiplicity info."""

    source: str
    dist: dict
    pred: dict  # vertex -> canonical predecessor germ (arrival germ)
    counts: dict  # vertex -> number of shortest paths, saturated at 2
    # target vertex -> the chord test's answer, filled by
    # chords._geodesic_between on first query and dropped with the tree
    short: dict = field(default_factory=dict, compare=False, repr=False)

    def path_to(self, v: str) -> list[Germ]:
        """The canonical shortest path as a germ sequence from the source."""
        germs: list[Germ] = []
        while v != self.source:
            g = self.pred[v]
            germs.append(g)
            v = germ_source(g)
        germs.reverse()
        return germs


def dijkstra(graph: MetricGraph, source: str, skip_edge: str | None = None) -> SourceTree:
    import heapq

    table = graph.table
    dist: dict[str, Scalar] = {source: table.zero()}
    done: dict[str, None] = {}  # settled vertices, in settle order
    heap: list[tuple[_Key, int, str]] = [(_Key(table.zero()), 0, source)]
    counter = itertools.count(1)
    while heap:
        key, _, x = heapq.heappop(heap)
        if x in done:
            continue
        done[x] = None
        for g in graph.germs_at(x):
            e = g[0]
            if e.id == skip_edge or e.is_loop():
                continue
            y = germ_target(g)
            cand = dist[x] + e.length
            if y not in dist:
                dist[y] = cand
                heapq.heappush(heap, (_Key(cand), next(counter), y))
            elif y not in done:
                cmp = table.compare(cand, dist[y])
                if cmp is Comparison.INDETERMINATE:
                    raise PrecisionExhausted("shortest-path relaxation undecidable")
                if cmp is Comparison.LESS:
                    dist[y] = cand
                    heapq.heappush(heap, (_Key(cand), next(counter), y))
    # shortest-path DAG: multiplicities (saturated at 2) and canonical preds.
    # Lengths are positive, so every predecessor of v is strictly nearer and
    # was settled before v: settle order needs no further comparison.
    counts: dict[str, int] = {source: 1}
    pred: dict[str, Germ] = {}
    for v in done:
        if v == source:
            continue
        total = 0
        best_germ = None
        for g in graph.germs_at(v):
            e = g[0]
            if e.id == skip_edge or e.is_loop():
                continue
            w = germ_target(g)  # germ departs v toward w; arrival germ is reverse
            if w in dist and dist[w] + e.length == dist[v]:
                total = min(2, total + counts.get(w, 0))
                if best_germ is None:
                    best_germ = reverse_germ(g)
        counts[v] = total
        if best_germ is not None:
            pred[v] = best_germ
    return SourceTree(source, dist, pred, counts)


@dataclass
class PathResult:
    distance: Scalar
    germs: list[Germ]
    unique: bool

    @property
    def edge_ids(self) -> list[str]:
        return [g[0].id for g in self.germs]


def shortest_path(graph: MetricGraph, u: str, v: str) -> PathResult:
    """Exact distance, one canonical shortest path, and a uniqueness flag."""
    for w in (u, v):
        if w not in graph._order:
            raise KeyError(f"unknown vertex {w}")
    tree = graph.tree(u)
    if v not in tree.dist:
        raise DisconnectedGraph(f"{v} unreachable from {u}")
    return PathResult(tree.dist[v], tree.path_to(v), tree.counts[v] == 1)


# ---------------------------------------------------------------------------
# girth
# ---------------------------------------------------------------------------


@dataclass
class GirthResult:
    value: Optional[Scalar]  # None when the graph is acyclic
    witness_edges: tuple[str, ...]


def girth(graph: MetricGraph) -> GirthResult:
    """Minimum cycle length: loops, plus len(e) + dist without e.

    Parallel-pair cycles fall out of the second family because the distance
    in G - e may run through the parallel edge.
    """
    table = graph.table
    best: Optional[Scalar] = None
    witness: tuple[str, ...] = ()

    def consider(value: Scalar, edges: tuple[str, ...]) -> None:
        nonlocal best, witness
        if best is None:
            best, witness = value, edges
            return
        cmp = table.compare(value, best)
        if cmp is Comparison.INDETERMINATE:
            raise PrecisionExhausted("girth comparison undecidable")
        if cmp is Comparison.LESS:
            best, witness = value, edges

    for e in graph.edges:
        if e.is_loop():
            consider(e.length, (e.id,))
    for e in graph.edges:
        if e.is_loop():
            continue
        tree = dijkstra(graph, e.u, skip_edge=e.id)
        if e.v in tree.dist:
            path = tree.path_to(e.v)
            consider(e.length + tree.dist[e.v], (e.id,) + tuple(g[0].id for g in path))
    return GirthResult(best, witness)


# ---------------------------------------------------------------------------
# point diameter
# ---------------------------------------------------------------------------
#
# For edges e != f, let uu, uv, vu, vv be the distances from e's ends to f's
# ends and a, b their lengths.  The point at alpha on e lies at the tents
# D_u = min(uu + alpha, vu + a - alpha) and D_v = min(uv + alpha, vv + a - alpha)
# from f's ends.  The triangle inequality gives |D_u - D_v| <= b, so the
# farthest point of f lies at (D_u + D_v + b)/2, and D_u + D_v is flat at
# min(uu + vv, uv + vu) + a between the two tent peaks.  The pair's maximum is
# half of min(uu + vv, uv + vu) + a + b, reached on the segment joining the
# peak points.  On one edge the farthest pair halves the shortest cycle
# through the edge: (a + d(e.u, e.v))/2.

_HALF = Rat(1, 2)


def _strict_cmp(table: SymbolTable, a: Scalar, b: Scalar) -> Comparison:
    cmp = table.compare(a, b)
    if cmp is Comparison.INDETERMINATE:
        raise PrecisionExhausted("point-diameter comparison undecidable")
    return cmp


def _pair_bounded(table: SymbolTable, route_sums: tuple, twice_best: Scalar) -> bool:
    """Whether an edge pair cannot beat the running maximum ``best``.

    Opposite corner routes of a pair add up to a constant (``route_sums``),
    and the pair's maximum is half the smaller sum; a pair with a sum of at
    most ``2*best`` can never strictly exceed ``best``.  An undecided
    comparison keeps the pair, so the bound raises nothing by itself."""
    return any(
        table.compare(s, twice_best) in (Comparison.LESS, Comparison.EQUAL) for s in route_sums
    )


def _farthest_pair(e: Edge, f: Edge, corners: tuple, twice: Scalar, u_first: bool) -> tuple:
    """One maximising pair of points of e and f.

    Of the segment of maximisers this is the end on alpha = 0, else on
    alpha = a, else on beta = 0, else on beta = b, else the end where the uu
    and uv routes tie: the point the line-by-line enumeration this replaced
    met first, so reports keep their witnesses.  ``u_first`` says that the
    peak of D_u comes first along e."""
    a, b = e.length, f.length
    if e is f:
        return PointOnGraph(e.id, a), PointOnGraph(f.id, a - twice.scale(_HALF))
    uu, uv, vu, vv = corners
    peak_u, peak_v = (vu + a - uu).scale(_HALF), (vv + a - uv).scale(_HALF)
    # the end at the first peak lies where the uu and uv routes tie, the
    # other where the vu and vv routes tie
    ties = (uv - uu + b).scale(_HALF), (vv - vu + b).scale(_HALF)
    first, second = (peak_u, peak_v) if u_first else (peak_v, peak_u)
    ends = ((first, ties[0]), (second, ties[1]))
    zero = a.table.zero()
    sides = ((0, zero), (0, a), (1, zero), (1, b))
    alpha, beta = next((p for axis, side in sides for p in ends if p[axis] == side), ends[0])
    return PointOnGraph(e.id, alpha), PointOnGraph(f.id, beta)


@dataclass
class DiameterResult:
    ok: bool
    max_distance: Optional[Scalar]
    witness: Optional[tuple[PointOnGraph, PointOnGraph]]


def point_diameter_check(graph: MetricGraph, sub: Subgraph, bound: Scalar) -> DiameterResult:
    """Exact max distance between points of the subgraph, measured in graph."""
    table = graph.table
    edges = sub.edges()
    if not edges:
        return DiameterResult(True, None, None)
    trees = {w: graph.tree(w) for e in edges for w in (e.u, e.v)}

    best: Optional[Scalar] = None
    twice_best: Optional[Scalar] = None
    best_pair = None

    for i, e in enumerate(edges):
        for f in edges[i:]:
            a, b = e.length, f.length
            # corner routes: leave e through one end, enter f through one end
            uu, uv = trees[e.u].dist[f.u], trees[e.u].dist[f.v]
            vu, vv = trees[e.v].dist[f.u], trees[e.v].dist[f.v]
            ab = a + b
            sums = (uu + vv + ab, uv + vu + ab)
            if best is not None and _pair_bounded(table, sums, twice_best):
                continue
            if e is f:
                twice, u_first = a + uv, False
            else:
                u_first = _strict_cmp(table, sums[0], sums[1]) is Comparison.GREATER
                twice = sums[1] if u_first else sums[0]
            value = twice.scale(_HALF)
            if best is None or _strict_cmp(table, value, best) is Comparison.GREATER:
                best, twice_best = value, twice
                best_pair = _farthest_pair(e, f, (uu, uv, vu, vv), twice, u_first)

    assert best is not None
    ok = _strict_cmp(table, best, bound) is not Comparison.GREATER
    return DiameterResult(ok, best, None if ok else best_pair)


def point_distance(graph: MetricGraph, x: PointOnGraph, y: PointOnGraph) -> Scalar:
    """Exact distance between two edge points (routes through endpoints,
    plus the direct route when both lie on the same edge)."""
    table = graph.table
    e = graph.edge_by_id[x.edge_id]
    f = graph.edge_by_id[y.edge_id]
    alpha, beta = x.offset, y.offset
    candidates = []
    for ia in (0, 1):
        for ib in (0, 1):
            ea = e.u if ia == 0 else e.v
            eb = f.u if ib == 0 else f.v
            base = shortest_path(graph, ea, eb).distance
            da = alpha if ia == 0 else e.length - alpha
            db = beta if ib == 0 else f.length - beta
            candidates.append(base + da + db)
    if e is f:
        diff = alpha - beta
        if table.sign(diff) is Comparison.LESS:
            diff = beta - alpha
        candidates.append(diff)
    best = candidates[0]
    for c in candidates[1:]:
        if _strict_cmp(table, c, best) is Comparison.LESS:
            best = c
    return best


# ---------------------------------------------------------------------------
# cycles, segments, bars
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Cycle:
    """An embedded cycle as a canonical germ walk (closed, vertices distinct)."""

    steps: tuple  # tuple of germs
    edge_ids: frozenset
    length: Scalar

    # computed once per cycle: the disjoint-pair scan reads them per pair;
    # the cache lives outside the fields, so equality and hashing ignore it
    @cached_property
    def vertex_seq(self) -> tuple[str, ...]:
        return tuple(germ_source(g) for g in self.steps)

    @cached_property
    def vertices(self) -> frozenset:
        return frozenset(self.vertex_seq)

    def sort_key(self) -> tuple:
        return (len(self.steps), tuple(sorted(self.edge_ids)))


def _canonical_cycle(graph: MetricGraph, germs: list[Germ]) -> Cycle:
    # the walk starts at the cycle's smallest vertex; pick the direction
    # whose first edge id is the smaller of the two at that vertex
    if len(germs) > 1 and germs[-1][0].id < germs[0][0].id:
        germs = [reverse_germ(g) for g in reversed(germs)]
    total = sum_terms((g[0].length for g in germs), graph.table.zero())
    return Cycle(tuple(germs), frozenset(g[0].id for g in germs), total)


def _sorted_germs(sub: Subgraph) -> dict:
    """Each subgraph vertex's germs there, by edge id and end: the order
    in which the enumerations below take them."""
    return {v: sorted(sub.germs_at(v), key=lambda g: (g[0].id, g[1])) for v in sub.vertices}


def cycles_of(sub: Subgraph, cap: int = DEFAULT_CYCLE_CAP) -> list[Cycle]:
    """All embedded cycles of the subgraph, canonically ordered."""
    graph = sub.graph
    found: dict[frozenset, Cycle] = {}
    order = {v: graph.vertex_order(v) for v in sub.vertices}
    germs = _sorted_germs(sub)
    # each root's walks stay on later vertices, so they start at their
    # cycle's smallest vertex
    for root in sub.vertices:
        stack: list[tuple[str, list, set, set]] = [(root, [], set(), {root})]
        while stack:
            x, path, used, visited = stack.pop()
            for g in germs[x]:
                e = g[0]
                if e.id in used:
                    continue
                y = germ_target(g)
                if y == root:
                    key = frozenset(used) | {e.id}
                    if key not in found:
                        found[key] = _canonical_cycle(graph, path + [g])
                        if len(found) > cap:
                            raise EnumerationCapExceeded(cap)
                elif y not in visited and order[y] > order[root]:
                    stack.append((y, path + [g], used | {e.id}, visited | {y}))
    return sorted(found.values(), key=Cycle.sort_key)


def disjoint_pairs(cycles: Sequence[Cycle]) -> list[tuple[Cycle, Cycle]]:
    """Every vertex-disjoint pair (cycles[i], cycles[j]) with i < j, in
    the order of i, then j: the one disjointness rule."""
    out = []
    for i, c1 in enumerate(cycles):
        clear = c1.vertices.isdisjoint
        out.extend((c1, c2) for c2 in cycles[i + 1:] if clear(c2.vertices))
    return out


@dataclass(frozen=True)
class SegmentPath:
    """A maximal embedded path whose interior has degree 2 in the subgraph
    and whose two distinct endpoints have degree >= 3 there."""

    steps: tuple  # germs, oriented from the smaller endpoint
    edge_ids: frozenset
    length: Scalar

    @property
    def endpoints(self) -> tuple[str, str]:
        return (germ_source(self.steps[0]), germ_target(self.steps[-1]))

    def sort_key(self) -> tuple:
        return (len(self.steps), tuple(sorted(self.edge_ids)))


def segments_of(sub: Subgraph) -> list[SegmentPath]:
    graph = sub.graph
    mind, arg = sub.min_degree()
    if mind < 2:
        raise HypothesisViolation(f"vertex {arg} has degree {mind} < 2 in the subgraph")
    branch = {v for v in sub.vertices if sub.degree(v) >= 3}
    germs = _sorted_germs(sub)
    found: dict[frozenset, SegmentPath] = {}
    for b in sorted(branch, key=graph.vertex_order):
        for g0 in germs[b]:
            steps = [g0]
            cur = germ_target(g0)
            arrived = g0
            while cur not in branch:
                nxt = [g for g in sub.germs_at(cur) if g != reverse_germ(arrived)]
                # degree-2 interior vertex: exactly one way onward
                arrived = nxt[0]
                steps.append(arrived)
                cur = germ_target(arrived)
            if cur == b:
                continue  # closed back to the start: that is a cycle, not a segment
            key = frozenset(g[0].id for g in steps)
            if key in found:
                continue
            if graph.vertex_order(germ_source(steps[0])) > graph.vertex_order(cur):
                steps = [reverse_germ(g) for g in reversed(steps)]
            total = sum_terms((g[0].length for g in steps), graph.table.zero())
            found[key] = SegmentPath(tuple(steps), key, total)
    return sorted(found.values(), key=SegmentPath.sort_key)


@dataclass(frozen=True)
class BarTriple:
    """An embedded path joining two disjoint cycles, meeting them only at
    its endpoints (interior vertices and all path edges stay clear)."""

    steps: tuple  # germs from the cycle1 endpoint to the cycle2 endpoint
    edge_ids: frozenset
    length: Scalar
    cycle1: Cycle
    cycle2: Cycle

    @property
    def endpoints(self) -> tuple[str, str]:
        return (germ_source(self.steps[0]), germ_target(self.steps[-1]))

    def sort_key(self) -> tuple:
        return (
            self.cycle1.sort_key(),
            self.cycle2.sort_key(),
            len(self.steps),
            tuple(sorted(self.edge_ids)),
        )


def bars_of(
    sub: Subgraph,
    pairs: Optional[list[tuple[Cycle, Cycle]]] = None,
    cap: int = DEFAULT_CYCLE_CAP,
) -> list[BarTriple]:
    """Every bar of each disjoint cycle pair; ``pairs`` defaults to the
    disjoint pairs of the subgraph's cycles."""
    graph = sub.graph
    if pairs is None:
        pairs = disjoint_pairs(cycles_of(sub, cap=cap))
    germs = _sorted_germs(sub)
    zero = graph.table.zero()
    bars: list[BarTriple] = []
    for c1, c2 in pairs:
        banned_edges = c1.edge_ids | c2.edge_ids
        banned_verts = c1.vertices | c2.vertices
        targets = c2.vertices
        for u in sorted(c1.vertices, key=graph.vertex_order):
            stack: list[tuple[str, list, set]] = [(u, [], {u})]
            while stack:
                x, path, visited = stack.pop()
                # an edge of the path leads back into visited, so it needs
                # no test of its own
                for g in germs[x]:
                    e = g[0]
                    if e.id in banned_edges:
                        continue
                    y = germ_target(g)
                    if y in targets:
                        steps = path + [g]
                        bars.append(
                            BarTriple(
                                tuple(steps),
                                frozenset(s[0].id for s in steps),
                                sum_terms((s[0].length for s in steps), zero),
                                c1,
                                c2,
                            )
                        )
                        if len(bars) > cap:
                            raise EnumerationCapExceeded(cap)
                    elif y not in banned_verts and y not in visited:
                        stack.append((y, path + [g], visited | {y}))
    bars.sort(key=BarTriple.sort_key)
    return bars


# ---------------------------------------------------------------------------
# text format
# ---------------------------------------------------------------------------
#
#   # comment
#   symbol NAME pi
#   symbol NAME <decimal> err <rational>
#   vertex NAME
#   edge NAME V1 V2 <scalar-literal>
#   subgraph NAME E1 E2 ...


def parse_graph(text: str, precision_bits: int | None = None) -> MetricGraph:
    from .scalars import DEFAULT_PRECISION_BITS

    table = SymbolTable(DEFAULT_PRECISION_BITS if precision_bits is None else precision_bits)
    graph = MetricGraph(table)
    lengths: dict[Scalar, Scalar] = {}  # one instance per distinct edge length
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        kind = parts[0]
        try:
            if kind == "symbol":
                table.declare_line(parts)
            elif kind == "vertex":
                if len(parts) != 2:
                    raise ValueError("expected 'vertex NAME'")
                graph.add_vertex(parts[1])
            elif kind == "edge":
                if len(parts) < 5:
                    raise ValueError("expected 'edge NAME V1 V2 <scalar>'")
                length = parse_scalar(table, line.split(None, 4)[4])
                graph.add_edge(parts[1], parts[2], parts[3], lengths.setdefault(length, length))
            elif kind == "subgraph":
                if len(parts) < 3:
                    raise ValueError("expected 'subgraph NAME E1 ...'")
                graph.declare_subgraph(parts[1], parts[2:])
            else:
                raise ValueError(f"unknown directive {kind!r}")
        except GraphFormatError as exc:
            raise GraphFormatError(str(exc), lineno) from None
        except (ValueError, KeyError) as exc:
            raise GraphFormatError(str(exc), lineno) from None
    graph.validate()
    return graph


def serialize_graph(graph: MetricGraph) -> str:
    lines = graph.table.symbol_lines()
    for v in graph.vertices:
        lines.append(f"vertex {v}")
    for e in graph.edges:
        lines.append(f"edge {e.id} {e.u} {e.v} {format_scalar(e.length)}")
    for name, eids in graph.subgraph_decls.items():
        lines.append(f"subgraph {name} {' '.join(eids)}")
    return "\n".join(lines) + "\n"
