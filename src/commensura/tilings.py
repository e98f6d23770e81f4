"""Diamond square tilings of loop squares and cycle products, verified
exactly, plus the axis-aligned torus form they convert to.

Every piece here is a rotated box: in the coordinates u = x + y and
v = x - y it becomes axis-aligned, so coverage checking reduces to exact
interval bookkeeping over the common refinement grid of all box edges.
When every grid coordinate of a tiling is a rational multiple of one
positive base b, the grid runs on the integer multiples of b/D for a
common denominator D; mixed-basis data keeps Scalar coordinates, ordered
by the sign ladder.
The rotated coordinate lattice has index two in the plain one; running
the check on a doubled torus (both periods twice the loop length, every
piece contributing two translates) accounts for that exactly.  A product
tiling is checked on its torus form only, where the shear already
accounts for it.

Verification decides coverage first and then confirms the area identity;
a tiling that covers cleanly but sums to the wrong area indicates a bug
in the construction, not bad input, and raises InternalInconsistency.

This module also owns the tiling report formats, text and JSON.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import cmp_to_key
from itertools import chain
from math import lcm
from typing import Optional

from ._rat import Rat
from .dehn import MeasureTiling
from .errors import EnumerationCapExceeded, InternalInconsistency
from .graph import DEFAULT_CYCLE_CAP, BarTriple, Cycle, MetricGraph, germ_source
from .scalars import (
    Area,
    Comparison,
    Scalar,
    SymbolTable,
    commensurable,
    format_area,
    format_compact,
    format_scalar,
    rational_line,
    sum_terms,
)


# ---------------------------------------------------------------------------
# regions and pieces
# ---------------------------------------------------------------------------


# Each region names its kind and lists its (name, value) fields, values
# being Scalars or a lift-count pair; both report encoders read only these.


@dataclass(frozen=True)
class AnnulusRegion:
    """Pairs of loop points at circle distance at least pi.

    In (x, y) coordinates on the loop torus this is the band
    v = x - y mod l in [pi, l - pi]; it is empty exactly when l = 2*pi.
    """

    kind = "annulus"
    length: Scalar

    def __post_init__(self):
        table = self.length.table
        two_pi = table.pi(2)
        cmp = table.require(
            table.compare(self.length, two_pi), "region width undecidable"
        )
        if cmp is Comparison.LESS:
            raise ValueError("loop shorter than 2*pi has no annulus region")

    @property
    def table(self) -> SymbolTable:
        return self.length.table

    def fields(self) -> tuple:
        return (("length", self.length),)

    def area(self) -> Area:
        return self.length * (self.length - self.table.pi(2))


@dataclass(frozen=True)
class ProductRegion:
    """Full product of two cycle circles."""

    kind = "product"
    length1: Scalar
    length2: Scalar

    @property
    def table(self) -> SymbolTable:
        return self.length1.table

    def fields(self) -> tuple:
        return (("length1", self.length1), ("length2", self.length2))

    def area(self) -> Area:
        return self.length1 * self.length2


@dataclass(frozen=True)
class TorusRegion:
    """Square torus with both periods equal; lift_counts records how many
    copies of the original cycles one period holds."""

    kind = "torus"
    length: Scalar
    lift_counts: tuple

    @property
    def table(self) -> SymbolTable:
        return self.length.table

    def fields(self) -> tuple:
        return (("length", self.length), ("lifts", self.lift_counts))

    def area(self) -> Area:
        return self.length * self.length


@dataclass(frozen=True)
class DiamondPiece:
    """Box rotated 45 degrees: half_sum bounds |(x+y) - (cx+cy)| and
    half_diff bounds |(x-y) - (cx-cy)|.  Equal halves make it the square
    of side half*sqrt(2) used for chords."""

    label: str
    center: tuple  # (Scalar, Scalar)
    half_sum: Scalar
    half_diff: Scalar

    @property
    def shape(self) -> str:
        return "square" if self.half_sum == self.half_diff else "rectangle"

    @property
    def halves(self) -> tuple:
        return (self.half_sum, self.half_diff)

    def area(self) -> Area:
        return (self.half_sum * self.half_diff).scale(2)


@dataclass(frozen=True)
class AxisPiece:
    """Plain axis-aligned box on the torus."""

    label: str
    center: tuple
    half_x: Scalar
    half_y: Scalar

    @property
    def shape(self) -> str:
        return "axis-square" if self.half_x == self.half_y else "axis-rectangle"

    @property
    def halves(self) -> tuple:
        return (self.half_x, self.half_y)

    def area(self) -> Area:
        return (self.half_x * self.half_y).scale(4)


@dataclass(frozen=True)
class GeometricTiling:
    table: SymbolTable
    region: object
    pieces: tuple


# ---------------------------------------------------------------------------
# constructions
# ---------------------------------------------------------------------------


def annulus_tiling(loop, chords, bar: Optional[BarTriple] = None) -> GeometricTiling:
    """The bar's two rectangles first, then one square per directed chord.

    A bar loop (chords.bar_loop) crosses itself on its bar: the walk runs
    over the bar during [l1, l1 + b] and back over it during [l - b, l],
    where l1 is the first cycle's length, b the bar's and l the loop's.
    The point pairs mapping to one bar point form the diagonal rectangle
    centred at (l1 + b/2, l - b/2) with halves (PI, b + PI), plus its
    mirror.  An embedded cycle (bar None) has none.

    Construction only; run verify_tiling to certify coverage.  The
    rectangle-first order is what the two-rectangle audit downstream
    expects.
    """
    table = loop.graph.table
    region = AnnulusRegion(loop.length)
    pieces = []
    if bar is not None:
        b = bar.length
        if loop.length != bar.cycle1.length + bar.cycle2.length + b.scale(2):
            raise ValueError("bar lengths do not add up to the loop length")
        pi = table.pi()
        half_b = b.scale(Rat(1, 2))
        center = (bar.cycle1.length + half_b, loop.length - half_b)
        for k, c in enumerate((center, center[::-1])):
            pieces.append(DiamondPiece(f"spliced{k}", c, pi, b + pi))
    for k, ch in enumerate(chords):
        pieces.append(
            DiamondPiece(f"chord{k}", (ch.s.position, ch.t.position), ch.z, ch.z)
        )
    return GeometricTiling(table, region, tuple(pieces))


def _cycle_positions(graph: MetricGraph, cycle: Cycle) -> dict:
    out = {}
    pos = graph.table.zero()
    for g in cycle.steps:
        v = germ_source(g)
        if v in out:
            raise ValueError("cycle visits a vertex twice; positions are ambiguous")
        out[v] = pos
        pos = pos + g[0].length
    return out


def product_tiling(
    graph: MetricGraph, cycle1: Cycle, cycle2: Cycle, chords
) -> GeometricTiling:
    """One square per chord running from the first cycle to the second.

    Chord records pointing the other way (or within one cycle) are
    dropped, so the full directed output of the chord scan can be passed
    straight in.
    """
    pos1 = _cycle_positions(graph, cycle1)
    pos2 = _cycle_positions(graph, cycle2)
    if set(pos1) & set(pos2):
        raise ValueError("cycles are not disjoint")
    table = graph.table
    pieces = []
    k = 0
    for ch in chords:
        if ch.x in pos1 and ch.y in pos2:
            pieces.append(
                DiamondPiece(f"chord{k}", (pos1[ch.x], pos2[ch.y]), ch.z, ch.z)
            )
            k += 1
    region = ProductRegion(cycle1.length, cycle2.length)
    return GeometricTiling(table, region, tuple(pieces))


def _lift_counts(region: ProductRegion):
    ratio = commensurable(region.length1, region.length2)
    if ratio is None:
        return None
    return ratio.numerator, ratio.denominator


def psi_transform(t: GeometricTiling, cap: int = DEFAULT_CYCLE_CAP) -> GeometricTiling:
    """Rewrite a product tiling as axis-aligned boxes on a square torus.

    Both cycles are unrolled to a common circumference (n1 copies of one,
    n2 of the other), where the shear (x, y) -> ((x+y)/2, (x-y)/2)
    identifies each diamond box with two axis-aligned boxes of half its
    half-widths; a diamond square becomes two squares.  The torus holds
    2*n1*n2 translates per piece; more than cap in all raise
    EnumerationCapExceeded before the first is built.
    """
    if not isinstance(t.region, ProductRegion):
        raise ValueError("only product tilings admit the axis transform")
    table = t.table
    counts = _lift_counts(t.region)
    if counts is None:
        raise InternalInconsistency(
            "cycle lengths are incommensurable; no common torus exists"
        )
    n1, n2 = counts
    if 2 * n1 * n2 * len(t.pieces) > cap:
        raise EnumerationCapExceeded(cap)
    l1, l2 = t.region.length1, t.region.length2
    big = l1.scale(n1)
    half_period = big.scale(Rat(1, 2))
    pieces = []
    for p in t.pieces:
        hu, hv = (h.scale(Rat(1, 2)) for h in p.halves)
        for i in range(n1):
            for j in range(n2):
                cx = p.center[0] + l1.scale(i)
                cy = p.center[1] + l2.scale(j)
                u = (cx + cy).scale(Rat(1, 2))
                v = (cx - cy).scale(Rat(1, 2))
                for tag, d in (("a", table.zero()), ("b", half_period)):
                    pieces.append(AxisPiece(f"{p.label}[{i},{j}]{tag}", (u + d, v + d), hu, hv))
    return GeometricTiling(table, TorusRegion(big, (n1, n2)), tuple(pieces))


# ---------------------------------------------------------------------------
# exact grid verification
# ---------------------------------------------------------------------------


def _wrap(table: SymbolTable, value: Scalar, period: Scalar) -> Scalar:
    """The representative of value modulo period in [0, period).

    Whole periods are added or subtracted one at a time, each step decided
    exactly, so the walk takes one step per period of distance between
    value and the fundamental interval.  The coordinates built here lie
    near that interval, so the walk is short; a hand-built piece placed far
    outside the torus still reduces exactly, in more steps.
    """
    zero = table.zero()
    while table.require(table.compare(value, zero), "modular reduction undecidable") is Comparison.LESS:
        value = value + period
    while table.require(table.compare(value, period), "modular reduction undecidable") is not Comparison.LESS:
        value = value - period
    return value


# Grid coordinates come in two kinds with one interface: the wrap of a run
# into the fundamental interval, the extent test, the sorted break set, and
# the Scalar a coordinate stands for.  _build_grid holds the one copy of the
# counting code and takes whichever kind the tiling's data admits.


class _ScalarLine:
    """Coordinates kept as Scalars; each order decision climbs the ladder.
    This serves mixed-basis data, where violations live."""

    def __init__(self, table: SymbolTable):
        self.table = table
        self.zero = table.zero()

    def coord(self, value: Scalar) -> Scalar:
        return value

    def scalar(self, coord: Scalar) -> Scalar:
        return coord

    def exceeds(self, extent: Scalar, period: Scalar) -> bool:
        cmp = self.table.compare(extent, period)
        return self.table.require(cmp, "piece larger than the torus") is Comparison.GREATER

    def runs(self, lo: Scalar, extent: Scalar, period: Scalar) -> list:
        """Wrap [lo, lo+extent] into the fundamental interval [0, period];
        the extent is at most one period."""
        table = self.table
        lo = _wrap(table, lo, period)
        hi = lo + extent
        if table.require(table.compare(hi, period), "wrap test undecidable") is Comparison.GREATER:
            return [(lo, period), (self.zero, hi - period)]
        return [(lo, hi)]

    def sorted(self, values) -> list:
        table = self.table
        uniq = {}
        for v in values:
            uniq.setdefault(v.key(), v)
        vals = list(uniq.values())

        def cmp(a, b):
            c = table.require(table.compare(a, b), "breakpoint order undecidable")
            if c is Comparison.LESS:
                return -1
            if c is Comparison.GREATER:
                return 1
            raise InternalInconsistency("distinct scalar forms compare equal")

        vals.sort(key=cmp_to_key(cmp))
        return vals


class _IntLine:
    """Coordinates on the line Q*unit, unit > 0 a primitive integer vector,
    as integer multiples of unit/den.

    Since unit is positive, n -> (n/den)*unit preserves order, so the wrap,
    the extent test and the break order are decided on the integers, and
    each break maps back to exactly the Scalar it stands for.
    """

    zero = 0

    def __init__(self, unit: Scalar, den: int):
        self.unit = unit
        self.key = next(iter(unit.num))  # a symbol in unit's support
        self.step = unit.num[self.key]
        self.den = den

    @classmethod
    def of(cls, base: Scalar, values) -> Optional["_IntLine"]:
        """The line through base when base > 0 is certified and every value
        is a rational multiple of base (scalars.rational_line)."""
        if base.table.sign(base) is not Comparison.GREATER:
            return None
        line = rational_line(chain((base,), values))
        if line is None:
            return None
        unit, ratios = line
        if ratios[0][0] < 0:  # base is a positive multiple of unit
            unit = -unit
        return cls(unit, lcm(*(q for _, q in ratios)))

    def coord(self, value: Scalar) -> int:
        # value.num is an integer multiple of unit.num
        n = value.num.get(self.key)
        return 0 if n is None else n // self.step * (self.den // value.den)

    def scalar(self, coord: int) -> Scalar:
        return self.unit.scale(coord, self.den)

    def exceeds(self, extent: int, period: int) -> bool:
        return extent > period

    def runs(self, lo: int, extent: int, period: int) -> list:
        lo %= period
        hi = lo + extent
        if hi > period:
            return [(lo, period), (0, hi - period)]
        return [(lo, hi)]

    def sorted(self, values) -> list:
        return sorted(set(values))


@dataclass
class _Grid:
    tiling: GeometricTiling  # the tiling the grid was built from
    u_breaks: list
    v_breaks: list
    boxes: list  # (piece_index, u_runs, v_runs) with runs as index pairs
    counts: list  # coverage per cell, counts[j][k]
    in_region: list  # per v-cell
    strips: list  # region strips along v, as (lo, hi) v-cell index pairs


def _piece_box(piece, coord):
    """Grid-coordinate box (u_lo, u_extent, v_lo, v_extent) of a piece,
    in the coordinates coord maps Scalars to."""
    cu, cv = (coord(x) for x in piece.center)
    if isinstance(piece, DiamondPiece):
        cu, cv = cu + cv, cu - cv
    hu, hv = (coord(h) for h in piece.halves)
    return (cu - hu, 2 * hu, cv - hv, 2 * hv)


def _layout(t: GeometricTiling):
    """Periods, per-piece translate offsets in grid coordinates, region
    strips along v, and the map from grid points back to loop points."""
    table = t.table
    zero = table.zero()
    pi = table.pi()
    region = t.region
    if isinstance(region, AnnulusRegion):
        l = region.length
        period = l.scale(2)
        offsets = [(zero, zero), (l, l)]
        strips = [(pi, l - pi), (l + pi, period - pi)]

        def back(u, v):
            x = (u + v).scale(Rat(1, 2))
            y = (u - v).scale(Rat(1, 2))
            return (_wrap(table, x, l), _wrap(table, y, l))

        return (period, period), offsets, strips, back
    if isinstance(region, TorusRegion):
        period = region.length
        strips = [(zero, period)]

        def back(u, v):
            return (_wrap(table, u, period), _wrap(table, v, period))

        return (period, period), [(zero, zero)], strips, back
    raise ValueError(f"unknown region {region!r}")


def _line_of(t: GeometricTiling, periods, offsets, strips):
    """The integer line when every grid coordinate (periods, offsets,
    strips, piece centres and halves) lies on Q*b for the first period b,
    else the Scalar line."""
    values = chain(
        periods,
        chain.from_iterable(offsets),
        chain.from_iterable(strips),
        chain.from_iterable(p.center + p.halves for p in t.pieces),
    )
    return _IntLine.of(periods[0], values) or _ScalarLine(t.table)


def _build_grid(t: GeometricTiling):
    periods, offsets, strips, back = _layout(t)
    line = _line_of(t, periods, offsets, strips)
    c = line.coord
    period_u, period_v = c(periods[0]), c(periods[1])
    offsets = [(c(du), c(dv)) for du, dv in offsets]
    strips = [(c(a), c(b)) for a, b in strips]

    raw = []
    for index, piece in enumerate(t.pieces):
        u_lo, u_ext, v_lo, v_ext = _piece_box(piece, c)
        if line.exceeds(u_ext, period_u) or line.exceeds(v_ext, period_v):
            raise InternalInconsistency("piece extent exceeds the torus period")
        for du, dv in offsets:
            u_runs = line.runs(u_lo + du, u_ext, period_u)
            v_runs = line.runs(v_lo + dv, v_ext, period_v)
            raw.append((index, u_runs, v_runs))

    u_values = [line.zero, period_u]
    v_values = [line.zero, period_v]
    for _, u_runs, v_runs in raw:
        for a, b in u_runs:
            u_values += [a, b]
        for a, b in v_runs:
            v_values += [a, b]
    for a, b in strips:
        v_values += [a, b]
    u_sorted = line.sorted(u_values)
    v_sorted = line.sorted(v_values)
    u_index = {x: i for i, x in enumerate(u_sorted)}
    v_index = {x: i for i, x in enumerate(v_sorted)}

    nu, nv = len(u_sorted) - 1, len(v_sorted) - 1
    diff = [[0] * (nv + 1) for _ in range(nu + 1)]
    boxes = []
    for index, u_runs, v_runs in raw:
        u_idx = [(u_index[a], u_index[b]) for a, b in u_runs]
        v_idx = [(v_index[a], v_index[b]) for a, b in v_runs]
        boxes.append((index, u_idx, v_idx))
        for ua, ub in u_idx:
            for va, vb in v_idx:
                diff[ua][va] += 1
                diff[ua][vb] -= 1
                diff[ub][va] -= 1
                diff[ub][vb] += 1

    counts = [[0] * nv for _ in range(nu)]
    for j in range(nu):
        for k in range(nv):
            up = counts[j - 1][k] if j else 0
            left = counts[j][k - 1] if k else 0
            corner = counts[j - 1][k - 1] if j and k else 0
            counts[j][k] = diff[j][k] + up + left - corner

    strips = [(v_index[a], v_index[b]) for a, b in strips]
    in_region = [any(a <= k < b for a, b in strips) for k in range(nv)]

    u_breaks = [line.scalar(x) for x in u_sorted]
    v_breaks = [line.scalar(x) for x in v_sorted]
    return _Grid(t, u_breaks, v_breaks, boxes, counts, in_region, strips), back


@dataclass(frozen=True)
class TilingReport:
    """Verdict of verify_tiling.

    An ok report also carries the grid the verification scanned (for a
    product tiling, its torus form's), so that to_measure_tiling can reuse
    it.  Grids are large, so a report kept beyond that use should be
    stored through without_grid().
    """

    status: str  # ok | gap | overlap | protrusion | area-mismatch
    witness: Optional[tuple]
    pieces: tuple
    tiled_area: Area
    region_area: Area
    grid: Optional[_Grid] = field(default=None, repr=False, compare=False)

    @property
    def ok(self) -> bool:
        return self.status == "ok"

    def without_grid(self) -> "TilingReport":
        return replace(self, grid=None)


def _covering_pieces(grid: _Grid, j: int, k: int):
    found = []
    for index, u_idx, v_idx in grid.boxes:
        if any(a <= j < b for a, b in u_idx) and any(a <= k < b for a, b in v_idx):
            found.append(index)
    return found


def _scan(t: GeometricTiling):
    """(status, witness, pieces, grid) for the first defect of t's grid in
    scan order, or for none."""
    grid, back = _build_grid(t)
    half = Rat(1, 2)
    for j in range(len(grid.u_breaks) - 1):
        for k in range(len(grid.v_breaks) - 1):
            c = grid.counts[j][k]
            inside = grid.in_region[k]
            if (inside and c == 1) or (not inside and c == 0):
                continue
            u_mid = (grid.u_breaks[j] + grid.u_breaks[j + 1]).scale(half)
            v_mid = (grid.v_breaks[k] + grid.v_breaks[k + 1]).scale(half)
            witness = back(u_mid, v_mid)
            if not inside:
                return "protrusion", witness, (_covering_pieces(grid, j, k)[0],), grid
            if c == 0:
                return "gap", witness, (), grid
            return "overlap", witness, tuple(_covering_pieces(grid, j, k)[:2]), grid
    return "ok", None, (), grid


def verify_tiling(t: GeometricTiling, cap: int = DEFAULT_CYCLE_CAP) -> TilingReport:
    """Exact coverage of the region with multiplicity one, plus the area
    identity.  First defect in grid scan order wins.

    A product tiling is decided on its torus form (psi_transform), whose
    grid is the product's own grid at half scale, and the verdict is
    pulled back: torus piece i is a translate of product piece
    i // (2*n1*n2), and torus point (U, V) is product point
    (U + V mod l1, U - V mod l2).  An ok product report carries the torus
    grid; torus_form recovers the torus tiling and its verdict from it.
    cap bounds the torus translates (psi_transform).
    """
    table = t.table
    region = t.region
    tiled = sum_terms((p.area() for p in t.pieces), Area(table, {}))
    region_area = region.area()
    if not isinstance(region, ProductRegion):
        status, witness, pieces, grid = _scan(t)
    elif _lift_counts(region) is None:
        # no common refinement exists; the area identity is the only
        # exact statement left, and matching areas prove nothing
        if tiled == region_area:
            raise InternalInconsistency(
                "incommensurable product admits no coverage certificate"
            )
        return TilingReport("area-mismatch", None, (), tiled, region_area)
    else:
        status, witness, pieces, grid = _scan(psi_transform(t, cap))
        n1, n2 = grid.tiling.region.lift_counts
        pieces = tuple(i // (2 * n1 * n2) for i in pieces)
        if witness is not None:
            u, v = witness
            witness = (
                _wrap(table, u + v, region.length1),
                _wrap(table, u - v, region.length2),
            )

    if status != "ok":
        return TilingReport(status, witness, pieces, tiled, region_area)
    if tiled != region_area:
        raise InternalInconsistency(
            "region covered exactly once yet piece areas disagree with it"
        )
    return TilingReport("ok", None, (), tiled, region_area, grid)


def torus_form(report: TilingReport) -> tuple:
    """(torus tiling, its verdict) for an ok product report: the tiling the
    report's grid was scanned on, with the grid attached to its verdict.
    Covered exactly once, the torus is tiled by exactly its own area."""
    grid = report.grid
    area = grid.tiling.region.area()
    return grid.tiling, TilingReport("ok", None, (), area, area, grid)


# ---------------------------------------------------------------------------
# bridge to measure tilings
# ---------------------------------------------------------------------------


def to_measure_tiling(t: GeometricTiling, report: TilingReport) -> MeasureTiling:
    """Re-express a verified tiling as a measure-space rectangle tiling.

    report is the one verify_tiling returned for t, grid included, so the
    grid is built once.  A product tiling has no measure form of its own:
    pass its torus form (torus_form) instead.

    Annulus mode: X faces are the grid intervals of the doubled torus and
    Y faces those inside the principal strip; every interval measures half
    its coordinate length because the doubled torus covers each point class
    twice, which puts the X total at exactly the loop length.  Each piece
    is represented by its unique translate inside the principal strip.

    Torus mode: faces are plain grid intervals with their full lengths and
    every translate is its own measure piece.
    """
    if not report.ok:
        raise ValueError(f"tiling does not verify: {report.status}")
    grid = report.grid
    if grid is None or grid.tiling is not t:
        raise ValueError("report does not carry the verified grid of this tiling")
    table = t.table

    lo_idx, hi_idx = grid.strips[0]
    if isinstance(t.region, AnnulusRegion):
        factor = Rat(1, 2)
        chosen = {}
        for index, u_idx, v_idx in grid.boxes:
            if len(v_idx) != 1:
                continue  # wrapped in v, cannot lie inside the strip
            va, vb = v_idx[0]
            if lo_idx <= va and vb <= hi_idx:
                if index in chosen:
                    raise InternalInconsistency("piece has two in-strip translates")
                chosen[index] = (u_idx, (va, vb))
        if len(chosen) != len(t.pieces):
            raise InternalInconsistency("piece missing from the principal strip")
    else:
        factor = Rat(1)
        chosen = None

    x_elems = [
        (f"x{j}", (grid.u_breaks[j + 1] - grid.u_breaks[j]).scale(factor))
        for j in range(len(grid.u_breaks) - 1)
    ]
    y_elems = [
        (f"y{k - lo_idx}", (grid.v_breaks[k + 1] - grid.v_breaks[k]).scale(factor))
        for k in range(lo_idx, hi_idx)
    ]

    pieces = []
    labels = []
    if chosen is not None:
        for index in range(len(t.pieces)):
            u_idx, (va, vb) = chosen[index]
            a = {j for ua, ub in u_idx for j in range(ua, ub)}
            b = set(range(va - lo_idx, vb - lo_idx))
            pieces.append((a, b))
            labels.append(t.pieces[index].label)
    else:
        for n, (index, u_idx, v_idx) in enumerate(grid.boxes):
            a = {j for ua, ub in u_idx for j in range(ua, ub)}
            b = {k for va, vb in v_idx for k in range(va, vb)}
            pieces.append((a, b))
            labels.append(f"{t.pieces[index].label}#{n}")

    return MeasureTiling(table, x_elems, y_elems, pieces, labels=labels)


# ---------------------------------------------------------------------------
# report serialization
# ---------------------------------------------------------------------------


def _region_fields(region, scalar, lifts) -> list:
    """The region's fields as (name, encoded value) pairs: Scalars through
    scalar, the lift-count pair through lifts."""
    return [
        (name, scalar(v) if isinstance(v, Scalar) else lifts(v))
        for name, v in region.fields()
    ]


def serialize_tiling(t: GeometricTiling, report: Optional[TilingReport] = None) -> str:
    """The line-oriented text report: region, pieces, then the verdict."""
    r = t.region
    fields = _region_fields(r, format_compact, lambda c: "x".join(str(n) for n in c))
    lines = [
        f"region {r.kind} "
        + " ".join(f"{name}={text}" for name, text in fields)
        + f" area={format_area(r.area())}"
    ]
    for p in t.pieces:
        cx, cy = p.center
        hu, hv = p.halves
        lines.append(
            f"piece {p.label} kind={p.shape}"
            f" center=({format_compact(cx)},{format_compact(cy)})"
            f" halves=({format_compact(hu)},{format_compact(hv)})"
        )
    if report is not None:
        tail = f"verdict {report.status}"
        if report.witness is not None:
            wx, wy = report.witness
            tail += f" witness=({format_compact(wx)},{format_compact(wy)})"
        if report.pieces:
            tail += " pieces=" + ",".join(t.pieces[i].label for i in report.pieces)
        tail += (
            f" tiled={format_area(report.tiled_area)}"
            f" region={format_area(report.region_area)}"
        )
        lines.append(tail)
    return "\n".join(lines) + "\n"


def tiling_payload(t: GeometricTiling, report: TilingReport) -> dict:
    """The JSON report: the same content as serialize_tiling, with piece
    indices in the verdict."""
    r = t.region
    fields = _region_fields(r, format_scalar, list)
    return {
        "kind": "tiling",
        "region": {"kind": r.kind, **dict(fields)},
        "pieces": [
            {
                "label": p.label,
                "kind": p.shape,
                "center": [format_scalar(c) for c in p.center],
                "halves": [format_scalar(h) for h in p.halves],
            }
            for p in t.pieces
        ],
        "verdict": {
            "status": report.status,
            "witness": None
            if report.witness is None
            else [format_scalar(w) for w in report.witness],
            "pieces": list(report.pieces),
            "tiled_area": format_area(report.tiled_area),
            "region_area": format_area(report.region_area),
        },
    }
