"""Release gate: ten end-to-end checks, one test each.

Run with -v to get one pass/fail line per check.  Every assertion here is
exact (rational or symbolic equality); the only tolerances are wall-clock
budgets on the two timed checks.
"""

import json
import random
import time
from collections import Counter
from fractions import Fraction

from commensura._rat import Rat
from commensura.chords import chord_budgets, chords_of_loop, loop_from_cycle
from commensura.cli import main
from commensura.dehn import (
    CommensurableVerdict,
    DehnCertificate,
    DehnPlusCertificate,
    MeasureTiling,
    QRCommensurable,
    apply_functional,
    dehn_plus_test,
    dehn_test,
    functional_identity,
    parse_measure_tiling,
    serialize_measure_tiling,
    verify_measure_tiling,
)
from commensura.engine import analyze, analyze_cycle, check_hypotheses, decompose_segment
from commensura.generators import build, generate
from commensura.graph import cycles_of, parse_graph, segments_of, serialize_graph
from commensura.scalars import Area, SymbolTable
from commensura.tilings import annulus_tiling, verify_tiling

from test_dehn import (
    conforming_plus_tiling,
    guillotine_leaves,
    scaled_tiling,
    squared_rect_tiling,
)
from test_engine import pseudoleaf


def area(table, num, den=1):
    return (table.pi() * table.pi()).scale(Rat(num, den))


def test_01_heawood_full_analysis_is_conformant_and_fast():
    g = build("heawood")
    started = time.monotonic()
    result = analyze(g)
    elapsed = time.monotonic() - started
    assert result.conformant
    assert result.failure is None
    for c in result.cycles:
        k = c.ratio * 3  # cycle length = k * PI/3
        assert k == int(k)
        assert k >= 6
    assert len(result.cycles) == 213
    for s in result.segments:
        assert s.ratio == Rat(1, 3)
        assert s.verified
    assert len(result.segments) == 21
    print(f"213 cycles, 21 segments, {elapsed:.1f}s")
    assert elapsed < 30.0


def _heawood_octagon():
    g = build("heawood")
    oct8 = next(c for c in cycles_of(g.whole()) if len(c.steps) == 8)
    loop = loop_from_cycle(g, oct8)
    return g, oct8, loop


def test_02_octagon_chord_squares_tile_the_annulus_exactly():
    g, _, loop = _heawood_octagon()
    table = g.table
    chords = chords_of_loop(loop)
    tiling = annulus_tiling(loop, chords)
    report = verify_tiling(tiling)
    assert report.ok
    square_sum = Area(table, {})
    for ch in chords:
        square_sum = square_sum + ch.square_area()
    assert square_sum == area(table, 16, 9)
    assert report.tiled_area == area(table, 16, 9)
    assert report.region_area == area(table, 16, 9)


def test_03_octagon_avoidance_and_packing_bounds():
    g, oct8, loop = _heawood_octagon()
    table = g.table
    analysis = analyze_cycle(g, oct8)
    assert len(analysis.area_checks) == 8  # every vertex on the cycle
    for check in analysis.area_checks:
        assert check.bound == area(table, 4, 3)  # 2*PI * (l - 2*PI)
        assert check.ok
    budgets = chord_budgets(loop, analysis.chords)
    assert len(budgets) == 8  # every start position
    for _, total, bound, ok in budgets:
        assert bound == table.pi(Rat(1, 3))  # l/2 - PI
        assert ok


def test_04_squared_rectangle_verifies_and_sides_are_integers():
    table = SymbolTable()
    t = squared_rect_tiling(table)
    assert verify_measure_tiling(t).ok  # square mode: no piece exempt
    v = dehn_test(t)
    assert isinstance(v, CommensurableVerdict)
    assert v.base == table.rational(1)
    assert all(r == int(r) for r in v.x_ratios + v.y_ratios)
    assert t.mu_x() == table.rational(33)
    assert t.mu_y() == table.rational(32)
    sides = [t.mu_a(i) for i in range(len(t.pieces))]
    assert all(set(s.num) == {0} and s.den == 1 for s in sides)
    assert sorted(s.num[0] for s in sides) == [1, 4, 7, 8, 9, 10, 14, 15, 18]


def test_05_unit_by_pi_square_tiling_is_refuted_with_named_axiom():
    table = SymbolTable()
    one = table.rational(1)
    half = table.rational(Rat(1, 2))
    pi = table.pi()
    candidates = [
        MeasureTiling(table, [("x1", one)], [("y1", pi)], [({0}, {0})]),
        MeasureTiling(
            table,
            [("x1", half), ("x2", half)],
            [("y1", pi)],
            [({0}, {0}), ({1}, {0})],
        ),
        MeasureTiling(
            table,
            [("x1", one)],
            [("y1", pi.scale(Rat(1, 2))), ("y2", pi.scale(Rat(1, 2)))],
            [({0}, {0}), ({0}, {1})],
        ),
    ]
    for t in candidates:
        v = dehn_test(t)
        assert isinstance(v, DehnCertificate)
        # re-evaluate the stored functional: area identity forces -1,
        # yet genuine squares could only contribute f(side)^2 >= 0
        assert v.lhs == Rat(-1)
        left, right = functional_identity(t, v.functional)
        assert left == Rat(-1)
        assert right == sum(v.piece_products, Rat(0))
        assert apply_functional(v.functional, t.mu_x()) * apply_functional(
            v.functional, t.mu_y()
        ) == Rat(-1)
        assert v.violated.status in ("uncovered", "doubly-covered", "not-square")
        assert v.violated.status == "not-square"  # concrete axiom for these


def test_06_functional_identity_holds_on_1000_random_tilings():
    rng = random.Random(6022317)
    table = SymbolTable()
    widths = [
        table.rational(2) + table.pi(),
        table.pi(Rat(3, 2)),
        table.rational(Rat(7, 3)),
    ]
    heights = [
        table.rational(3) + table.pi(Rat(1, 2)),
        table.rational(1),
        table.pi(Rat(2, 5)) + table.rational(Rat(1, 4)),
    ]
    started = time.monotonic()
    for i in range(1000):
        leaves = guillotine_leaves(rng, depth=3 + i % 2)
        t = scaled_tiling(table, leaves, widths[i % 3], heights[i % 3])
        f = {
            0: Rat(Fraction(rng.randint(-9, 9), rng.randint(1, 5))),
            1: Rat(Fraction(rng.randint(-9, 9), rng.randint(1, 5))),
        }
        left, right = functional_identity(t, f)
        assert left == right
    elapsed = time.monotonic() - started
    print(f"1000 tilings in {elapsed:.1f}s")
    assert elapsed < 60.0


def test_07_two_parameter_audit_decides_both_instances():
    table = SymbolTable()
    t, q, r = conforming_plus_tiling(table)
    v = dehn_plus_test(t, q, r, Rat(6), designated=(2, 3, 4, 5))
    assert isinstance(v, QRCommensurable)
    assert v.ratio == Rat(1, 2)

    pi = table.pi()
    x = [
        ("a", table.rational(1)),
        ("b", table.rational(1)),
        ("c", table.rational(1)),
        ("d", table.rational(3)),
        ("e", pi.scale(2)),
    ]
    y = [("u", table.rational(1)), ("v", pi + table.rational(1))]
    pieces = [({0}, {1}), ({1}, {1}), ({0}, {0}), ({1}, {0}), ({2}, {0})]
    t2 = MeasureTiling(table, x, y, pieces)
    v2 = dehn_plus_test(t2, pi, table.rational(1), Rat(6), designated=(2, 3, 4))
    assert isinstance(v2, DehnPlusCertificate)
    assert apply_functional(v2.functional, pi) == Rat(2)
    assert apply_functional(v2.functional, table.rational(1)) == Rat(-1)


def test_08_violations_reported_with_exact_witness():
    circle = build("circle", edges=6, length="2*PI+1")
    audit = check_hypotheses(circle, circle.whole())
    assert not audit.ok
    table = circle.table
    antipodal = table.pi() + table.rational(Rat(1, 2))
    assert audit.diameter.max_distance == antipodal
    assert audit.diameter.witness is not None

    bumped = build("perturb", base="heawood", edge="e0", delta="1")
    audit2 = check_hypotheses(bumped, bumped.whole())
    assert not audit2.ok
    assert audit2.girth_ok  # girth survives a lengthened edge
    assert audit2.diameter.max_distance == bumped.table.pi() + bumped.table.rational(
        Rat(1, 2)
    )


def test_09_segment_decompositions_match_hand_calculations():
    theta = build("theta", strands=3, length="PI")
    sub = theta.whole()
    seg = next(s for s in segments_of(sub) if s.edge_ids == frozenset({"s0"}))
    result = decompose_segment(sub, seg)
    assert [t.coefficient for t in result.terms] == [
        Rat(1, 2),
        Rat(1, 2),
        Rat(-1, 2),
    ]
    assert result.verified
    expanded = Counter()
    for term in result.terms:
        for eid in term.edges:
            expanded[eid] += term.coefficient
    assert {e: c for e, c in expanded.items() if c != 0} == {"s0": Rat(1)}

    g = pseudoleaf()
    sub = g.whole()
    strand = next(s for s in segments_of(sub) if s.edge_ids == frozenset({"p1"}))
    result = decompose_segment(sub, strand)
    assert [t.kind for t in result.terms] == ["bar", "bar"]
    assert [t.coefficient for t in result.terms] == [Rat(1), Rat(-1)]
    assert frozenset(result.terms[0].edges) == frozenset({"p1", "wv"})
    assert frozenset(result.terms[1].edges) == frozenset({"wv"})
    assert result.verified


def test_10_determinism_and_round_trips(capsys, tmp_path):
    # generator output and graph text round-trips
    fixtures = {
        "circle": generate("circle"),
        "theta": generate("theta", length="PI"),
        "dumbbell": generate("dumbbell"),
        "heawood": generate("heawood"),
        "pg3": generate("incidence_pg", q=3),
        "bumped": generate("perturb", base="heawood", edge="e0", delta="1"),
    }
    for name, text in fixtures.items():
        assert serialize_graph(parse_graph(text)) == text, name

    # measure tiling text round-trips
    table = SymbolTable()
    for t in (squared_rect_tiling(table), conforming_plus_tiling(SymbolTable())[0]):
        text = serialize_measure_tiling(t)
        assert serialize_measure_tiling(parse_measure_tiling(text)) == text

    # machine reports are byte-identical across runs
    paths = {}
    for name in ("theta", "dumbbell", "heawood"):
        p = tmp_path / f"{name}.graph"
        p.write_text(fixtures[name])
        paths[name] = str(p)
    runs = []
    for _ in range(2):
        main(["--format", "machine", "analyze", paths["theta"]])
        first = capsys.readouterr().out
        main(["--format", "machine", "analyze", paths["dumbbell"]])
        second = capsys.readouterr().out
        main(["--format", "machine", "check", paths["heawood"]])
        third = capsys.readouterr().out
        json.loads(first), json.loads(second), json.loads(third)
        runs.append((first, second, third))
    assert runs[0] == runs[1]
