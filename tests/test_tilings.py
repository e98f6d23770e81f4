"""Geometric tilings: constructions, the exact coverage verifier, the
axis transform, and the bridge to measure tilings.

The independent oracle here is plain Fraction arithmetic on pi
coefficients: sampled points are tested against each diamond directly,
with closed and open containment counted separately so boundary hits
never produce false alarms.
"""

import math
import random
from fractions import Fraction
from functools import reduce
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from commensura._rat import Rat
from commensura.chords import chords_of_loop, chords_of_subgraph, loop_from_cycle, bar_loop
from commensura.dehn import CommensurableVerdict, dehn_test, verify_measure_tiling
from commensura.errors import EnumerationCapExceeded, InternalInconsistency, PrecisionExhausted
from commensura.graph import DEFAULT_CYCLE_CAP, bars_of, cycles_of
from commensura.scalars import Scalar, SymbolTable, commensurable, format_area
import commensura.tilings as tilings_mod
from commensura.tilings import (
    AnnulusRegion,
    AxisPiece,
    DiamondPiece,
    GeometricTiling,
    ProductRegion,
    TorusRegion,
    annulus_tiling,
    product_tiling,
    psi_transform,
    _build_grid,
    _wrap,
    serialize_tiling,
    to_measure_tiling,
    torus_form,
    verify_tiling,
)

from test_chords import dumbbell_pi_loops, k44, octagon_with_shortcuts
from test_graph import build, circle


def pi_coeff(s) -> Fraction:
    """Fraction coefficient of pi; fails on anything not a pi multiple."""
    assert set(s.num) <= {1}
    return Fraction(s.num.get(1, 0), s.den)


def circ(a: Fraction, b: Fraction, period: Fraction) -> Fraction:
    d = abs(a - b) % period
    return min(d, period - d)


def octagon_tiling():
    g = octagon_with_shortcuts()
    ring = g.subgraph("ring")
    cyc = next(c for c in cycles_of(g.whole()) if c.edge_ids == ring.edge_set)
    loop = loop_from_cycle(g, cyc)
    chords = chords_of_loop(loop)
    return g, annulus_tiling(loop, chords)


def scalar_sum(table, items):
    return reduce(lambda a, b: a + b, items, table.zero())


# ---------------------------------------------------------------------------
# annulus construction and verification
# ---------------------------------------------------------------------------


def test_hexagon_annulus_is_degenerate_and_ok():
    g = circle(6, {1: Fraction(1, 3)})
    (cyc,) = cycles_of(g.whole())
    loop = loop_from_cycle(g, cyc)
    t = annulus_tiling(loop, chords_of_loop(loop))
    assert t.pieces == ()
    rep = verify_tiling(t)
    assert rep.ok
    assert rep.tiled_area == rep.region_area
    assert rep.region_area.is_zero()


def test_annulus_region_rejects_short_loops():
    g = circle(4, {1: Fraction(1, 3)})
    (cyc,) = cycles_of(g.whole())
    loop = loop_from_cycle(g, cyc)
    with pytest.raises(ValueError):
        AnnulusRegion(loop.length)


def test_octagon_annulus_tiles_exactly():
    g, t = octagon_tiling()
    assert len(t.pieces) == 8
    assert all(p.shape == "square" for p in t.pieces)
    rep = verify_tiling(t)
    assert rep.ok
    expected = (g.table.pi(Fraction(8, 3)) * g.table.pi(Fraction(2, 3)))
    assert rep.region_area == expected
    assert rep.tiled_area == expected


def test_deleted_piece_leaves_a_gap_inside_it():
    g, t = octagon_tiling()
    dropped = t.pieces[0]
    t2 = GeometricTiling(t.table, t.region, t.pieces[1:])
    rep = verify_tiling(t2)
    assert rep.status == "gap"
    assert rep.pieces == ()
    wx, wy = rep.witness
    l = Fraction(8, 3)
    sx, sy = (pi_coeff(c) for c in dropped.center)
    du = circ(pi_coeff(wx), sx, l)
    dv = circ(pi_coeff(wy), sy, l)
    assert du + dv <= pi_coeff(dropped.half_sum)


def test_duplicated_piece_overlaps_itself():
    g, t = octagon_tiling()
    t2 = GeometricTiling(t.table, t.region, t.pieces + (t.pieces[3],))
    rep = verify_tiling(t2)
    assert rep.status == "overlap"
    assert set(rep.pieces) == {3, 8}
    assert rep.witness is not None


def test_piece_outside_the_region_is_a_protrusion():
    g, t = octagon_tiling()
    zero = g.table.zero()
    stray = DiamondPiece("stray", (zero, zero), g.table.pi(Fraction(1, 3)), g.table.pi(Fraction(1, 3)))
    t2 = GeometricTiling(t.table, t.region, t.pieces + (stray,))
    rep = verify_tiling(t2)
    assert rep.status == "protrusion"
    assert rep.pieces == (8,)
    wx, wy = rep.witness
    # the witness pair really is at circle distance below pi
    l = Fraction(8, 3)
    assert circ(pi_coeff(wx), pi_coeff(wy), l) < 1


# (rational part, whole loop lengths): a rational shift is not a pi multiple
# and mixes symbols; whole loop lengths put the centres periods away from the
# torus
@pytest.mark.parametrize(
    "shift", [(Fraction(1, 7), 0), (Fraction(5, 3), 0), (0, 3), (0, -2)]
)
def test_verify_invariant_under_reorder_and_rotation(shift):
    g, t = octagon_tiling()
    rational, loops = shift
    delta = g.table.rational(rational) + t.region.length.scale(loops)
    moved = [
        DiamondPiece(p.label, (p.center[0] + delta, p.center[1] + delta), p.half_sum, p.half_diff)
        for p in t.pieces
    ]
    random.Random(11).shuffle(moved)
    rep = verify_tiling(GeometricTiling(t.table, t.region, tuple(moved)))
    assert rep.ok


def test_unspliced_bar_loop_gaps():
    # conforming girth but broken point diameter: the two rectangles
    # cannot cover the annulus on their own and the verifier must say so
    g = dumbbell_pi_loops(Fraction(1, 3))
    (bar,) = bars_of(g.whole())
    loop = bar_loop(g, bar)
    assert chords_of_loop(loop) == []
    t = annulus_tiling(loop, [], bar)
    assert len(t.pieces) == 2
    assert all(p.shape == "rectangle" for p in t.pieces)
    rep = verify_tiling(t)
    assert rep.status == "gap"


# ---------------------------------------------------------------------------
# exact modular reduction
# ---------------------------------------------------------------------------
#
# Symbols: 0 the unit, 1 PI and 2 "h", a decimal symbol 5/2 +- 1/100.  A
# reduction decided within the budget must hold for every h in that range;
# PI is taken from mpmath at 400 bits.

_H, _H_RADIUS = Fraction(5, 2), Fraction(1, 100)
_coeff = st.fractions(min_value=-20, max_value=20, max_denominator=9)
_PERIODS = [
    {1: 2},
    {0: 3},
    {1: Fraction(8, 3)},
    {0: 1, 1: 1},
    {2: 1},
    {1: 1, 2: Fraction(-1, 2)},
]


@given(
    a=_coeff,
    b=_coeff,
    d=st.fractions(min_value=-3, max_value=3, max_denominator=5),
    period=st.sampled_from(_PERIODS),
    whole=st.integers(min_value=-6, max_value=6),
)
@settings(max_examples=200, deadline=None)
def test_wrap_lands_in_the_fundamental_interval(a, b, d, period, whole):
    mpmath = pytest.importorskip("mpmath")
    table = SymbolTable()
    table.declare_decimal_symbol("h", _H, _H_RADIUS)
    p = Scalar(table, {k: Rat(c) for k, c in period.items()})
    # whole periods on top, so exact multiples (a = b = d = 0) come up
    value = Scalar(table, {k: Rat(c) for k, c in {0: a, 1: b, 2: d}.items() if c})
    value = value + p.scale(whole)
    try:
        r = _wrap(table, value, p)
    except PrecisionExhausted:
        return  # undecided within the budget: nothing is claimed
    # value - r is a whole number of periods, exactly
    k = commensurable(p, value - r)
    assert k is not None and k.denominator == 1

    def at(s, h):
        c = {i: mpmath.mpf(n) / s.den for i, n in s.num.items()}
        return c.get(0, 0) + c.get(1, 0) * mpmath.pi + c.get(2, 0) * h

    with mpmath.workprec(400):
        for h in (_H - _H_RADIUS, _H + _H_RADIUS):
            h = mpmath.mpf(h.numerator) / h.denominator
            assert 0 <= at(r, h) < at(p, h)


# ---------------------------------------------------------------------------
# product tilings and the axis transform
# ---------------------------------------------------------------------------


def k44_product():
    g = k44()
    (c1,) = cycles_of(g.subgraph("c1"))
    (c2,) = cycles_of(g.subgraph("c2"))
    chords = chords_of_subgraph(g, g.subgraph("both"))
    return g, product_tiling(g, c1, c2, chords)


def test_k44_product_tiles_exactly():
    g, t = k44_product()
    assert len(t.pieces) == 8  # one orientation per cross pair survives
    rep = verify_tiling(t)
    assert rep.ok
    assert rep.region_area == g.table.pi(2) * g.table.pi(2)


def test_product_requires_disjoint_cycles():
    g = k44()
    (c1,) = cycles_of(g.subgraph("c1"))
    with pytest.raises(ValueError):
        product_tiling(g, c1, c1, [])


def test_k44_point_sampling_oracle():
    g, t = k44_product()
    period = Fraction(2)  # both cycles have length 2*pi
    pieces = [
        (pi_coeff(p.center[0]), pi_coeff(p.center[1]), pi_coeff(p.half_sum))
        for p in t.pieces
    ]
    rng = random.Random(404)
    for _ in range(150):
        x = Fraction(rng.randrange(1, 2 * 97, 2), 97)
        y = Fraction(rng.randrange(1, 2 * 101, 2), 101)
        closed = open_ = 0
        for sx, sy, z in pieces:
            d = circ(x, sx, period) + circ(y, sy, period)
            closed += d <= z
            open_ += d < z
        assert closed >= 1, (x, y)
        assert open_ <= 1, (x, y)


def test_psi_splits_each_square_in_two():
    table = SymbolTable()
    l = table.pi(2)
    s, t_pos = table.pi(Fraction(1, 2)), table.pi(Fraction(5, 4))
    z = table.pi(Fraction(1, 3))
    square = DiamondPiece("c", (s, t_pos), z, z)
    out = psi_transform(GeometricTiling(table, ProductRegion(l, l), (square,)))
    assert out.region.lift_counts == (1, 1)
    assert out.region.length == l
    assert len(out.pieces) == 2
    first, second = out.pieces
    assert first.center == ((s + t_pos).scale(Fraction(1, 2)), (s - t_pos).scale(Fraction(1, 2)))
    assert second.center == (first.center[0] + table.pi(), first.center[1] + table.pi())
    for p in out.pieces:
        assert p.half_x == z.scale(Fraction(1, 2))
        assert p.half_x == p.half_y


def test_psi_lift_counts_follow_the_length_ratio():
    table = SymbolTable()
    t = GeometricTiling(
        table, ProductRegion(table.pi(2), table.pi(Fraction(8, 3))), ()
    )
    out = psi_transform(t)
    assert out.region.lift_counts == (4, 3)
    assert out.region.length == table.pi(8)


def test_k44_psi_tiles_the_torus():
    g, t = k44_product()
    axis = psi_transform(t)
    assert len(axis.pieces) == 16
    assert all(p.shape == "axis-square" for p in axis.pieces)
    rep = verify_tiling(axis)
    assert rep.ok
    assert rep.region_area == g.table.pi(2) * g.table.pi(2)
    # total area is preserved by the transform
    assert rep.tiled_area == verify_tiling(t).tiled_area


def test_incommensurable_product_reports_area_mismatch():
    table = SymbolTable()
    region = ProductRegion(table.pi(2), table.rational(3))
    z = table.rational(1)
    t = GeometricTiling(table, region, (DiamondPiece("c", (z, z), z, z),))
    rep = verify_tiling(t)
    assert rep.status == "area-mismatch"
    assert rep.witness is None
    assert rep.tiled_area != rep.region_area
    with pytest.raises(InternalInconsistency):
        psi_transform(t)


def test_psi_shears_rectangles_to_half_widths():
    table = SymbolTable()
    l = table.pi(2)
    hs, hd = table.pi(Fraction(1, 2)), table.pi(Fraction(1, 6))
    box = DiamondPiece("r", (table.pi(Fraction(1, 3)), table.zero()), hs, hd)
    out = psi_transform(GeometricTiling(table, ProductRegion(l, l), (box,)))
    assert len(out.pieces) == 2
    for p in out.pieces:
        assert p.shape == "axis-rectangle"
        assert p.halves == (hs.scale(Fraction(1, 2)), hd.scale(Fraction(1, 2)))


def test_psi_refuses_lifts_above_the_cap_before_building(monkeypatch):
    table = SymbolTable()
    z = table.pi(Fraction(1, 3))
    piece = DiamondPiece("c", (table.zero(), table.zero()), z, z)

    def product(l2):
        return GeometricTiling(table, ProductRegion(table.pi(2), l2), (piece,))

    def no_translate(*args):
        raise AssertionError("a translate was built")

    # lengths in ratio 1000/999 would need 2*999*1000 translates of the piece
    huge = product(table.pi(Fraction(2000, 999)))
    monkeypatch.setattr(tilings_mod, "AxisPiece", no_translate)
    for run in (psi_transform, verify_tiling):
        with pytest.raises(EnumerationCapExceeded) as info:
            run(huge)
        assert info.value.cap == DEFAULT_CYCLE_CAP
    monkeypatch.undo()
    # lifts 3 x 2 make 12 translates; the bound is inclusive
    small = product(table.pi(3))
    assert len(psi_transform(small, cap=12).pieces) == 12
    for run in (psi_transform, verify_tiling):
        with pytest.raises(EnumerationCapExceeded):
            run(small, cap=11)


def test_product_is_verified_on_its_torus_grid(monkeypatch):
    import commensura.tilings as tilings_mod

    g, t = k44_product()
    builds = []
    real = tilings_mod._build_grid
    monkeypatch.setattr(tilings_mod, "_build_grid", lambda tiling: builds.append(tiling) or real(tiling))
    rep = verify_tiling(t)
    assert rep.ok
    (grid_tiling,) = builds  # one grid, on the torus form
    axis, axis_rep = torus_form(rep)
    assert axis is grid_tiling and axis == psi_transform(t)
    assert axis_rep.ok and axis_rep.grid is rep.grid
    assert axis_rep.tiled_area == axis_rep.region_area == axis.region.area()
    mt = to_measure_tiling(axis, axis_rep)
    assert len(builds) == 1
    fresh = verify_tiling(axis)
    assert (fresh.status, fresh.tiled_area, fresh.region_area) == (
        axis_rep.status, axis_rep.tiled_area, axis_rep.region_area
    )
    again = to_measure_tiling(axis, fresh)
    assert (mt.labels, mt.pieces) == (again.labels, again.pieces)


# Random product tilings, judged point by point.  A tiling is built in the
# coordinates (u, v) = (x + y, x - y), where the product torus is the
# quotient by the lattice spanned by (l1, l1) and (l2, -l2).  That lattice
# holds (2*big, 0), big = n1*l1 = n2*l2, so the box 2*big by l1*l2/big
# tiles it in rows; a random guillotine cut of the box gives rectangles,
# and a row of 2*n1*n2 squares with random quarterings gives squares.  All
# lengths are rational multiples of one base symbol: PI, or the declared
# decimal symbol h.


def _random_boxes(rng, width, height, shape):
    if shape == "square":
        side = height
        boxes = [(side * i, Fraction(0), side) for i in range(int(width / side))]
        out = []
        while boxes:
            u, v, s = boxes.pop()
            if rng.random() < 0.25 and len(out) + len(boxes) < 40:
                h = s / 2
                boxes += [(u, v, h), (u + h, v, h), (u, v + h, h), (u + h, v + h, h)]
            else:
                out.append((u, v, s, s))
        return out
    boxes, out = [(Fraction(0), Fraction(0), width, height)], []
    while boxes:
        u, v, w, h = boxes.pop()
        if rng.random() < 0.6 and len(out) + len(boxes) < 12:
            cut = Fraction(rng.randrange(1, 6), 6)
            if rng.random() < 0.5:
                boxes += [(u, v, w * cut, h), (u + w * cut, v, w * (1 - cut), h)]
            else:
                boxes += [(u, v, w, h * cut), (u, v + h * cut, w, h * (1 - cut))]
        else:
            out.append((u, v, w, h))
    return out


def _random_product(rng, lifts, shape, base, defect):
    """(tiling, l1, l2, pieces, base symbol index); lengths and pieces
    (cx, cy, half_sum, half_diff) are in base units."""
    table = SymbolTable()
    table.declare_decimal_symbol("h", Fraction(5, 2), Fraction(1, 100))
    idx = table.index_of(base)
    n1, n2 = lifts
    l1, l2 = Fraction(2), Fraction(2 * n1, n2)
    big = n1 * l1
    width, height = 2 * big, l1 * l2 / big
    u0 = Fraction(rng.randrange(-12, 13), 7)
    v0 = Fraction(rng.randrange(-12, 13), 5)
    pieces = []
    for u, v, w, h in _random_boxes(rng, width, height, shape):
        cu, cv = u0 + u + w / 2, v0 + v + h / 2
        pieces.append([(cu + cv) / 2, (cu - cv) / 2, w / 2, h / 2])
    k = rng.randrange(len(pieces))
    if defect == "drop":
        del pieces[k]
    elif defect == "duplicate":
        pieces.append(list(pieces[k]))
    elif defect == "shift":
        pieces[k][0] += Fraction(rng.choice([-1, 1]), rng.randrange(7, 30))
    rng.shuffle(pieces)

    def s(c):
        return Scalar(table, {idx: Rat(c)} if c else {})

    tiling = GeometricTiling(
        table,
        ProductRegion(s(l1), s(l2)),
        tuple(
            DiamondPiece(f"p{i}", (s(cx), s(cy)), s(hs), s(hd))
            for i, (cx, cy, hs, hd) in enumerate(pieces)
        ),
    )
    return tiling, l1, l2, pieces, idx


def _cover(piece, x, y, l1, l2):
    """(closed, open) counts of the translates of a diamond box holding the
    product torus point (x, y), by direct enumeration of lattice shifts."""
    cx, cy, hs, hd = piece
    du, dv = x + y - cx - cy, x - y - cx + cy
    # u' = du + a*l1 + b*l2 and v' = dv + a*l1 - b*l2 must lie in the box
    a_lo, a_hi = (-hs - hd - du - dv) / (2 * l1), (hs + hd - du - dv) / (2 * l1)
    b_lo, b_hi = (-hs - hd - du + dv) / (2 * l2), (hs + hd - du + dv) / (2 * l2)
    closed = open_ = 0
    for a in range(math.floor(a_lo), math.ceil(a_hi) + 1):
        for b in range(math.floor(b_lo), math.ceil(b_hi) + 1):
            u, v = du + a * l1 + b * l2, dv + a * l1 - b * l2
            closed += abs(u) <= hs and abs(v) <= hd
            open_ += abs(u) < hs and abs(v) < hd
    return closed, open_


@pytest.mark.parametrize("base", ["PI", "h"])
@pytest.mark.parametrize("shape", ["square", "rectangle"])
@pytest.mark.parametrize("lifts", [(1, 1), (4, 3), (3, 2)], ids=["1x1", "4x3", "3x2"])
def test_product_verdict_matches_point_oracle(lifts, shape, base):
    rng = random.Random(f"{lifts}-{shape}-{base}")
    statuses = set()
    for defect in ("none", "drop", "duplicate", "shift"):
        t, l1, l2, pieces, idx = _random_product(rng, lifts, shape, base, defect)
        rep = verify_tiling(t)
        statuses.add(rep.status)

        def coeff(s):
            assert set(s.num) <= {idx}
            return Fraction(s.num.get(idx, 0), s.den)

        if defect == "none":
            assert rep.ok
        elif defect == "drop":
            assert rep.status == "gap"
        elif defect == "duplicate":
            assert rep.status == "overlap"
        if rep.ok:
            for _ in range(40):
                x = l1 * Fraction(rng.randrange(1, 2 * 97, 2), 2 * 97)
                y = l2 * Fraction(rng.randrange(1, 2 * 101, 2), 2 * 101)
                counts = [_cover(p, x, y, l1, l2) for p in pieces]
                assert sum(c for c, _ in counts) >= 1, (x, y)
                assert sum(o for _, o in counts) <= 1, (x, y)
            continue
        x, y = (coeff(w) for w in rep.witness)
        assert 0 <= x < l1 and 0 <= y < l2
        if rep.status == "gap":
            assert rep.pieces == ()
            assert all(_cover(p, x, y, l1, l2) == (0, 0) for p in pieces)
        else:
            assert rep.status == "overlap"
            first, second = rep.pieces
            if first == second:
                assert _cover(pieces[first], x, y, l1, l2)[1] >= 2
            else:
                assert _cover(pieces[first], x, y, l1, l2)[1] >= 1
                assert _cover(pieces[second], x, y, l1, l2)[1] >= 1
    assert {"ok", "gap", "overlap"} <= statuses


# ---------------------------------------------------------------------------
# the two grid coordinate kinds, differentially
# ---------------------------------------------------------------------------
#
# _build_grid decides on integers when every grid coordinate lies on Q*b for
# the first period b, and through the sign ladder otherwise.  Forcing the
# ladder on the same tiling must change nothing: not the verdict, the grid,
# nor the measure tiling.  Tilings are guillotine cuts of an annulus band or
# a square torus in grid coordinates, or sheared random products; "line"
# data lies on one base (PI, h or PI + h), "mixed" data does not.


def _band_pieces(rng, table, origin, width, height, make):
    """Pieces cut from the box origin + [0, width] x [0, height]."""
    u0, v0 = origin
    pieces = []
    for u, v, w, hgt in _random_boxes(rng, Fraction(1), Fraction(1), "rectangle"):
        cu = u0 + width.scale(u + w / 2)
        cv = v0 + height.scale(v + hgt / 2)
        pieces.append(make(f"p{len(pieces)}", cu, cv, width.scale(w / 2), height.scale(hgt / 2)))
    return pieces


def _diamond(label, cu, cv, hu, hv):
    half = Rat(1, 2)
    return DiamondPiece(label, ((cu + cv).scale(half), (cu - cv).scale(half)), hu, hv)


def _axis(label, cu, cv, hu, hv):
    return AxisPiece(label, (cu, cv), hu, hv)


def _random_grid_tiling(rng, kind, base, defect):
    table = SymbolTable()
    table.declare_decimal_symbol("h", Fraction(5, 2), Fraction(1, 10**6))
    pi, h = table.pi(), table.symbol("h")
    # a start of 0 ends some runs exactly at the period, where the wrap
    # test must keep a single run
    start = rng.choice([0, 0, Fraction(rng.randrange(1, 24), 7)])
    if kind == "annulus":
        if base == "line":
            l = pi.scale(rng.choice([Fraction(7, 3), Fraction(8, 3), 3, 4]))
        else:
            l = rng.choice([pi.scale(2) + h, h.scale(3)])
        region = AnnulusRegion(l)
        period = l.scale(2)
        pieces = _band_pieces(rng, table, (period.scale(start), pi), period, l - pi.scale(2), _diamond)
    elif kind == "torus":
        if base == "line":
            period = rng.choice([pi.scale(2), h, pi + h])
            shift = period.scale(start)
        else:
            period = rng.choice([h, pi + h])
            shift = pi.scale(Fraction(1, 3))
        region = TorusRegion(period, (1, 1))
        pieces = _band_pieces(rng, table, (shift, table.zero()), period, period, _axis)
    else:
        lifts = rng.choice([(1, 1), (2, 1), (3, 2)])
        product, *_ = _random_product(rng, lifts, rng.choice(["square", "rectangle"]), rng.choice(["PI", "h"]), "none")
        if base == "mixed":
            d = product.table.rational(Fraction(1, 7))
            product = GeometricTiling(product.table, product.region, tuple(
                DiamondPiece(p.label, (p.center[0] + d, p.center[1] + d), *p.halves) for p in product.pieces
            ))
        torus = psi_transform(product)
        table, region, pieces = torus.table, torus.region, list(torus.pieces)
        period = region.length
    step = l if kind == "annulus" else period
    k = rng.randrange(len(pieces))
    p = pieces[k]
    if defect == "drop":
        del pieces[k]
    elif defect == "duplicate":
        pieces.append(p)
    elif defect in ("shift", "off-line"):
        d = step.scale(Fraction(1, 7)) if defect == "shift" else table.rational(Fraction(1, 7))
        pieces[k] = type(p)(p.label, (p.center[0] + d, p.center[1]), *p.halves)
    elif defect == "wrap":
        pieces = [
            type(q)(q.label, tuple(c + step.scale(rng.randrange(-2, 3)) for c in q.center), *q.halves)
            for q in pieces
        ]
    rng.shuffle(pieces)
    return GeometricTiling(table, region, tuple(pieces))


def _on_one_line(t):
    """Whether the region's data and every centre and half lie on Q*b for
    the grid's first period b (the band's strips also hold PI)."""
    region = t.region
    annulus = isinstance(region, AnnulusRegion)
    period = region.length.scale(2) if annulus else region.length
    values = [region.length] + ([t.table.pi()] if annulus else [])
    values += [x for p in t.pieces for x in p.center + p.halves]
    return all(v.is_zero() or commensurable(period, v) is not None for v in values)


def _grid_outcome(t):
    """Everything the grid and its verdict expose, or the undecided marker."""
    try:
        grid, _ = _build_grid(t)
        rep = verify_tiling(t)
    except PrecisionExhausted:
        return "undecided"
    mt = None
    if rep.ok:
        mt = to_measure_tiling(t, rep)
        mt = (mt.x_names, mt.x_measures, mt.y_names, mt.y_measures, mt.pieces, mt.labels)
    return (
        grid.u_breaks, grid.v_breaks, grid.boxes, grid.counts, grid.in_region, grid.strips,
        rep.status, rep.witness, rep.pieces, rep.tiled_area, rep.region_area, mt,
    )


_DEFECTS = ["none", "wrap", "drop", "duplicate", "shift", "off-line"]


@given(
    seed=st.integers(0, 10**6),
    kind=st.sampled_from(["annulus", "torus", "product"]),
    base=st.sampled_from(["line", "mixed"]),
    defect=st.sampled_from(_DEFECTS),
)
@example(seed=0, kind="annulus", base="line", defect="none")
@example(seed=0, kind="torus", base="line", defect="none")
@settings(max_examples=150, deadline=None)
def test_integer_grid_matches_the_ladder_grid(seed, kind, base, defect):
    t = _random_grid_tiling(random.Random(seed), kind, base, defect)
    on_line = _on_one_line(t)
    if base == "line" and defect != "off-line":
        assert on_line
    real = tilings_mod._line_of
    lines = []
    with mock.patch.object(tilings_mod, "_line_of", lambda *a: lines.append(real(*a)) or lines[-1]):
        integer = _grid_outcome(t)
    assert lines and all(isinstance(x, tilings_mod._IntLine) is on_line for x in lines)
    with mock.patch.object(tilings_mod, "_line_of", lambda t, *a: tilings_mod._ScalarLine(t.table)):
        ladder = _grid_outcome(t)
    assert integer == ladder
    if on_line:
        assert integer != "undecided"
    if defect in ("none", "wrap") and integer != "undecided":
        assert integer[6] == "ok"


# ---------------------------------------------------------------------------
# bridge to measure tilings
# ---------------------------------------------------------------------------


def test_octagon_measure_bridge():
    g, t = octagon_tiling()
    table = g.table
    mt = to_measure_tiling(t, verify_tiling(t))
    assert mt.labels == [p.label for p in t.pieces]
    assert mt.mu_x() == table.pi(Fraction(8, 3))  # the loop length
    assert mt.mu_y() == table.pi(Fraction(1, 3))  # half the band width
    for i in range(len(mt.pieces)):
        assert mt.mu_a(i) == table.pi(Fraction(1, 3))
        assert mt.mu_a(i) == mt.mu_b(i)
    assert verify_measure_tiling(mt).ok
    verdict = dehn_test(mt)
    assert isinstance(verdict, CommensurableVerdict)
    assert verdict.base == table.pi()


def test_k44_axis_measure_bridge():
    g, t = k44_product()
    axis = psi_transform(t)
    mt = to_measure_tiling(axis, verify_tiling(axis))
    table = g.table
    assert mt.mu_x() == table.pi(2)
    assert mt.mu_y() == table.pi(2)
    assert len(mt.pieces) == 16
    for i in range(len(mt.pieces)):
        assert mt.mu_a(i) == table.pi(Fraction(1, 2))
        assert mt.mu_a(i) == mt.mu_b(i)
    verdict = dehn_test(mt)
    assert isinstance(verdict, CommensurableVerdict)
    assert sum(verdict.x_ratios) == 2


def test_bridge_refuses_unverified_tilings():
    g, t = octagon_tiling()
    broken = GeometricTiling(t.table, t.region, t.pieces[1:])
    with pytest.raises(ValueError):
        to_measure_tiling(broken, verify_tiling(broken))


def test_bridge_takes_only_the_verified_report_of_its_tiling(monkeypatch):
    import commensura.tilings as tilings_mod

    _, t = octagon_tiling()
    _, other = octagon_tiling()
    with pytest.raises(ValueError):
        to_measure_tiling(t, verify_tiling(other))
    broken = GeometricTiling(t.table, t.region, t.pieces[1:])
    with pytest.raises(ValueError):
        to_measure_tiling(broken, verify_tiling(broken))
    with pytest.raises(ValueError):
        to_measure_tiling(t, verify_tiling(t).without_grid())

    builds = []
    real = tilings_mod._build_grid
    monkeypatch.setattr(tilings_mod, "_build_grid", lambda tiling: builds.append(tiling) or real(tiling))
    rep = verify_tiling(t)
    to_measure_tiling(t, rep)
    assert builds == [t]  # the verified grid is reused, not rebuilt


def test_bridge_refuses_raw_product_tilings():
    g, t = k44_product()
    with pytest.raises(ValueError):
        to_measure_tiling(t, verify_tiling(t))


# ---------------------------------------------------------------------------
# report serialization
# ---------------------------------------------------------------------------


def test_serialize_octagon_report():
    g, t = octagon_tiling()
    rep = verify_tiling(t)
    text = serialize_tiling(t, rep)
    lines = text.splitlines()
    assert lines[0] == "region annulus length=8/3*PI area=16/9*PI*PI"
    assert lines[1] == "piece chord0 kind=square center=(0,4/3*PI) halves=(1/3*PI,1/3*PI)"
    assert lines[-1] == "verdict ok tiled=16/9*PI*PI region=16/9*PI*PI"


def test_serialize_defect_report_names_pieces():
    g, t = octagon_tiling()
    t2 = GeometricTiling(t.table, t.region, t.pieces + (t.pieces[3],))
    rep = verify_tiling(t2)
    text = serialize_tiling(t2, rep)
    tail = text.splitlines()[-1]
    assert tail.startswith("verdict overlap witness=(")
    assert "pieces=chord3,chord3" in tail
