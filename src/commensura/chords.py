"""Chords of immersed loops and of subgraphs.

A chord of a closed walk joins two of its branch-vertex visits by a short
geodesic (length strictly between 0 and pi) that escapes the walk at both
ends: its first germ differs from the two germs the walk uses at the start
visit, and symmetrically at the end visit.  Visits, not vertices, carry the
germ data, so a walk that passes through a vertex twice (a bar loop does)
gets an independent escape test per pass.

Under the girth hypothesis (every cycle at least 2*pi long) a geodesic
shorter than pi is automatically unique; a tie at that length means the
caller's hypotheses were not actually established and is reported as an
internal inconsistency rather than silently picking one path.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ._rat import Rat
from .errors import InternalInconsistency
from .graph import (
    BarTriple,
    Cycle,
    MetricGraph,
    Subgraph,
    germ_source,
    germ_target,
    reverse_germ,
)
from .scalars import Area, Comparison, Scalar, format_scalar, pi_ratio, sum_terms


@dataclass(frozen=True)
class Visit:
    """One pass of a closed walk through a vertex."""

    index: int
    vertex: str
    position: Scalar  # arc length from the walk's start point
    germs: tuple  # the outgoing germ and the reversed incoming germ


class ImmersedLoop:
    """A closed germ walk with arc-length positions at every visit.

    The positions and the total length depend on the step lengths alone, so
    they are walked once per graph for each sequence of step lengths
    (``graph.walks``), and loops with the same sequence share them.
    """

    def __init__(self, graph: MetricGraph, steps):
        steps = tuple(steps)
        if not steps:
            raise ValueError("empty loop")
        for a, b in zip(steps, steps[1:] + steps[:1]):
            if germ_target(a) != germ_source(b):
                raise InternalInconsistency("loop steps do not close up")
        self.graph = graph
        self.steps = steps
        self.lengths = lengths = tuple(g[0].length for g in steps)
        walk = graph.walks.get(lengths)
        if walk is None:
            positions = []
            pos = graph.table.zero()
            for step in lengths:
                positions.append(pos)
                pos = pos + step
            walk = graph.walks[lengths] = (tuple(positions), pos)
        positions, self.length = walk
        self.visits = [
            Visit(i, germ_source(g), positions[i], (g, reverse_germ(steps[i - 1])))
            for i, g in enumerate(steps)
        ]

    def branch_visits(self) -> list[Visit]:
        return [v for v in self.visits if self.graph.degree(v.vertex) >= 3]


def loop_from_cycle(graph: MetricGraph, cycle: Cycle) -> ImmersedLoop:
    return ImmersedLoop(graph, cycle.steps)


def _rotate_to(steps, vertex: str):
    for i, g in enumerate(steps):
        if germ_source(g) == vertex:
            return list(steps[i:] + steps[:i])
    raise ValueError(f"vertex {vertex} not on the walk")


def bar_loop(graph: MetricGraph, bar: BarTriple) -> ImmersedLoop:
    """First cycle, the bar, second cycle, then the bar backwards.

    The bar endpoints are visited twice each, with distinct germ pairs.
    """
    u, v = bar.endpoints
    steps = _rotate_to(bar.cycle1.steps, u)
    steps += list(bar.steps)
    steps += _rotate_to(bar.cycle2.steps, v)
    steps += [reverse_germ(g) for g in reversed(bar.steps)]
    return ImmersedLoop(graph, steps)


@dataclass(frozen=True)
class Chord:
    """Directed: each qualifying visit pair yields this record and its
    mirror with the geodesic reversed."""

    s: Visit
    t: Visit
    distance: Scalar  # geodesic length, in (0, pi)
    ratio: Optional[Rat]  # distance / PI, None off the PI lattice
    z: Scalar  # pi minus the distance
    geodesic: tuple  # germ sequence from s.vertex to t.vertex

    def square_area(self) -> Area:
        return (self.z * self.z).scale(2)

    def as_report(self) -> dict:
        return {
            "source": self.s.vertex,
            "source_position": format_scalar(self.s.position),
            "target": self.t.vertex,
            "target_position": format_scalar(self.t.position),
            "distance": format_scalar(self.distance),
            "pi_ratio": None if self.ratio is None else str(self.ratio),
            "side": format_scalar(self.z),
        }


def _geodesic_between(graph: MetricGraph, x: str, y: str):
    """Distance test against pi plus the canonical geodesic: None when the
    separation is not strictly below pi, else (distance, its PI ratio,
    geodesic, pi - distance).  The answer is kept on x's shortest-path
    tree, so each vertex pair is tested, and its ratio decided, once per
    graph; a tie below pi is never kept and raises on every query."""
    tree = graph.tree(x)
    if y in tree.short:
        return tree.short[y]
    table = graph.table
    pi = table.pi()
    d0 = tree.dist[y]
    cmp = table.require(table.compare(d0, pi), "chord length test undecidable")
    if cmp is not Comparison.LESS:
        hit = None
    elif tree.counts[y] != 1:
        raise InternalInconsistency(
            f"two geodesics of length below pi join {x} and {y}; "
            "the girth hypothesis cannot actually hold"
        )
    else:
        hit = (d0, pi_ratio(d0), tuple(tree.path_to(y)), pi - d0)
    tree.short[y] = hit
    return hit


def chords_of_loop(loop: ImmersedLoop) -> list[Chord]:
    graph = loop.graph
    starts = loop.branch_visits()
    for vis in starts:  # every tree first: an undecidable one raises before any test
        graph.tree(vis.vertex)
    out: list[Chord] = []
    for i, a in enumerate(starts):
        for b in starts[i + 1:]:
            if a.vertex == b.vertex:
                continue  # distance zero, never a chord
            hit = _geodesic_between(graph, a.vertex, b.vertex)
            if hit is None:
                continue
            d0, ratio, path, z = hit
            if path[0] in a.germs:
                continue
            if reverse_germ(path[-1]) in b.germs:
                continue
            # the escape test is symmetric, so the mirror qualifies too
            back = tuple(reverse_germ(g) for g in reversed(path))
            out.append(Chord(a, b, d0, ratio, z, path))
            out.append(Chord(b, a, d0, ratio, z, back))
    out.sort(key=lambda ch: (ch.s.index, ch.t.index))
    return out


@dataclass(frozen=True)
class SubgraphChord:
    """Directed, like Chord, but anchored at vertices of a subgraph."""

    x: str
    y: str
    distance: Scalar
    ratio: Optional[Rat]
    z: Scalar
    geodesic: tuple

    def square_area(self) -> Area:
        return (self.z * self.z).scale(2)

    def as_report(self) -> dict:
        return {
            "source": self.x,
            "target": self.y,
            "distance": format_scalar(self.distance),
            "pi_ratio": None if self.ratio is None else str(self.ratio),
            "side": format_scalar(self.z),
        }


def chords_of_subgraph(graph: MetricGraph, sub: Subgraph) -> list[SubgraphChord]:
    """Short geodesics between subgraph vertices leaving the subgraph at
    both ends (first and last geodesic edge outside it)."""
    verts = list(sub.vertices)
    for v in verts:  # every tree first, as in chords_of_loop
        graph.tree(v)
    out: list[SubgraphChord] = []
    for i, x in enumerate(verts):
        for y in verts[i + 1:]:
            hit = _geodesic_between(graph, x, y)
            if hit is None:
                continue
            d0, ratio, path, z = hit
            if path[0][0].id in sub.edge_set:
                continue
            if path[-1][0].id in sub.edge_set:
                continue
            back = tuple(reverse_germ(g) for g in reversed(path))
            out.append(SubgraphChord(x, y, d0, ratio, z, path))
            out.append(SubgraphChord(y, x, d0, ratio, z, back))
    order = {v: i for i, v in enumerate(verts)}
    out.sort(key=lambda ch: (order[ch.x], order[ch.y]))
    return out


def chord_budgets(loop: ImmersedLoop, chords: list[Chord]):
    """Per-visit totals of z against the slack l/2 - pi.

    Squares anchored at one visit tile a strip of width l - 2*pi without
    overlap, which caps the per-visit z sum; exceeding the cap means the
    caller's hypotheses or the chord set are inconsistent.
    """
    table = loop.graph.table
    bound = loop.length.scale(Rat(1, 2)) - table.pi()
    rows = []
    for vis in loop.branch_visits():
        # mirrors carry the other endpoint
        total = sum_terms((ch.z for ch in chords if ch.s.index == vis.index), table.zero())
        cmp = table.require(table.compare(total, bound), "chord budget undecidable")
        rows.append((vis, total, bound, cmp is not Comparison.GREATER))
    return rows
