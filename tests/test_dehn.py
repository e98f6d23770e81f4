"""Measure tilings, the coverage/square verifier, and the functional
certificates, checked against hand-layout oracles.

The 33 by 32 fixture is the classic nine-square squared rectangle; its
measure tiling is rebuilt here from raw integer geometry, independent of
the module under test.
"""

import random
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from commensura import dehn
from commensura._rat import Rat
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
    solve_functional,
    verify_measure_tiling,
)
from commensura.errors import AuditFailure, GraphFormatError, InternalInconsistency
from commensura.scalars import Comparison, Scalar, SymbolTable, commensurable, format_scalar

SQUARED_RECT = {
    "width": 33,
    "height": 32,
    "squares": [
        (0, 0, 18),
        (18, 0, 15),
        (18, 15, 7),
        (25, 15, 8),
        (0, 18, 14),
        (14, 18, 4),
        (14, 22, 10),
        (24, 22, 1),
        (24, 23, 9),
    ],
}


def layout_to_tiling(table, width, height, rects):
    """Oracle: integer rectangle layout to measure tiling, by raw geometry.

    rects: (x0, y0, w, h) tuples in plain numbers (ints or Fractions).
    """
    xs = sorted({Fraction(x) for x0, _, w, _ in rects for x in (x0, x0 + w)} | {Fraction(0), Fraction(width)})
    ys = sorted({Fraction(y) for _, y0, _, h in rects for y in (y0, y0 + h)} | {Fraction(0), Fraction(height)})
    x_elems = [(f"x{i}", table.rational(xs[i + 1] - xs[i])) for i in range(len(xs) - 1)]
    y_elems = [(f"y{k}", table.rational(ys[k + 1] - ys[k])) for k in range(len(ys) - 1)]
    pieces = []
    for x0, y0, w, h in rects:
        a = {i for i in range(len(xs) - 1) if x0 <= xs[i] and xs[i + 1] <= x0 + w}
        b = {k for k in range(len(ys) - 1) if y0 <= ys[k] and ys[k + 1] <= y0 + h}
        pieces.append((a, b))
    return MeasureTiling(table, x_elems, y_elems, pieces)


def squared_rect_tiling(table, drop=None, duplicate=None):
    rects = [(x, y, s, s) for x, y, s in SQUARED_RECT["squares"]]
    if drop is not None:
        dropped = rects[drop]
        rects = rects[:drop] + rects[drop + 1:]
    if duplicate is not None:
        rects.append(rects[duplicate])
    return layout_to_tiling(table, SQUARED_RECT["width"], SQUARED_RECT["height"], rects)


# ---------------------------------------------------------------------------
# verifier
# ---------------------------------------------------------------------------


def test_squared_rectangle_verifies():
    table = SymbolTable()
    t = squared_rect_tiling(table)
    assert [(m.num, m.den) for m in t.x_measures] == [({0: n}, 1) for n in (14, 4, 6, 1, 8)]
    assert [(m.num, m.den) for m in t.y_measures] == [({0: n}, 1) for n in (15, 3, 4, 1, 9)]
    assert verify_measure_tiling(t).ok
    assert t.mu_x() == table.rational(33)
    assert t.mu_y() == table.rational(32)


def test_dropped_square_is_uncovered():
    table = SymbolTable()
    t = squared_rect_tiling(table, drop=7)  # the 1x1 square at (24, 22)
    v = verify_measure_tiling(t)
    assert v.status == "uncovered"
    assert t.x_names[v.x_index] == "x3"  # the [24, 25) face
    assert t.y_names[v.y_index] == "y3"  # the [22, 23) face


def test_duplicated_square_is_doubly_covered():
    table = SymbolTable()
    t = squared_rect_tiling(table, duplicate=7)
    v = verify_measure_tiling(t)
    assert v.status == "doubly-covered"
    assert set(v.piece_indices) == {7, 9}


def test_rectangle_piece_flagged_not_square():
    table = SymbolTable()
    t = MeasureTiling(
        table,
        [("x1", table.rational(1))],
        [("y1", table.pi())],
        [({0}, {0})],
    )
    v = verify_measure_tiling(t)
    assert v.status == "not-square"
    assert v.piece_indices == (0,)
    assert verify_measure_tiling(t, skip_square=frozenset({0})).ok


def test_positive_measures_enforced():
    table = SymbolTable()
    with pytest.raises(ValueError):
        MeasureTiling(table, [("x1", table.zero())], [("y1", table.rational(1))], [({0}, {0})])


@pytest.mark.parametrize("piece", [({-1}, {0}), ({0}, {-1}), ({0, -2}, {0, 1})])
def test_negative_element_index_rejected(piece):
    # a negative index would wrap to the last element and verify as ok
    table = SymbolTable()
    x = [("x0", table.rational(1)), ("x1", table.rational(1))]
    y = [("y0", table.rational(1)), ("y1", table.rational(1))]
    with pytest.raises(ValueError, match="unknown element"):
        MeasureTiling(table, x, y, [piece])


# ---------------------------------------------------------------------------
# functionals
# ---------------------------------------------------------------------------


def test_solve_functional_two_equations():
    table = SymbolTable()
    f = solve_functional(
        [
            (table.rational(1), Rat(1)),
            (table.pi(), Rat(-1)),
        ]
    )
    assert f == {0: Rat(1), 1: Rat(-1)}
    mixed = table.pi(Fraction(2, 3)) + table.rational(5)
    assert apply_functional(f, mixed) == Rat(5) - Rat(2, 3)


def test_solve_functional_keys_by_symbol_index():
    table = SymbolTable()
    table.declare_decimal_symbol("h", Rat(5, 2), Rat(1, 100))
    assert solve_functional([(table.symbol("h"), Rat(1))]) == {2: Rat(1)}
    f = solve_functional([(table.pi() + table.symbol("h"), Rat(1)), (table.pi(2), Rat(-1))])
    assert f == {1: Rat(-1, 2), 2: Rat(3, 2)}


def test_solve_functional_inconsistent():
    table = SymbolTable()
    with pytest.raises(ValueError):
        solve_functional(
            [
                (table.pi(), Rat(1)),
                (table.pi(2), Rat(3)),
            ]
        )


def guillotine_leaves(rng, depth=4):
    """Random guillotine cut of the unit square, as Fraction rectangles."""
    leaves = []

    def cut(x0, y0, w, h, d):
        if d == 0 or rng.random() < 0.25:
            leaves.append((x0, y0, w, h))
            return
        lam = Fraction(rng.randint(1, 7), 8)
        if rng.random() < 0.5:
            cut(x0, y0, w * lam, h, d - 1)
            cut(x0 + w * lam, y0, w * (1 - lam), h, d - 1)
        else:
            cut(x0, y0, w, h * lam, d - 1)
            cut(x0, y0 + h * lam, w, h * (1 - lam), d - 1)

    cut(Fraction(0), Fraction(0), Fraction(1), Fraction(1), depth)
    return leaves


def scaled_tiling(table, leaves, wx, hy):
    """Leaves of the unit square scaled to symbolic side lengths wx, hy."""
    xs = sorted({x for x0, _, w, _ in leaves for x in (x0, x0 + w)})
    ys = sorted({y for _, y0, _, h in leaves for y in (y0, y0 + h)})
    x_elems = [(f"x{i}", wx.scale(Rat(xs[i + 1] - xs[i]))) for i in range(len(xs) - 1)]
    y_elems = [(f"y{k}", hy.scale(Rat(ys[k + 1] - ys[k]))) for k in range(len(ys) - 1)]
    pieces = []
    for x0, y0, w, h in leaves:
        a = {i for i in range(len(xs) - 1) if x0 <= xs[i] and xs[i + 1] <= x0 + w}
        b = {k for k in range(len(ys) - 1) if y0 <= ys[k] and ys[k + 1] <= y0 + h}
        pieces.append((a, b))
    return MeasureTiling(table, x_elems, y_elems, pieces)


def test_functional_identity_on_random_guillotine_tilings():
    rng = random.Random(20260815)
    table = SymbolTable()
    wx = table.rational(2) + table.pi()
    hy = table.rational(3) + table.pi(Fraction(1, 2))
    for _ in range(50):
        t = scaled_tiling(table, guillotine_leaves(rng), wx, hy)
        everything = frozenset(range(len(t.pieces)))
        assert verify_measure_tiling(t, skip_square=everything).ok
        f = {
            0: Rat(Fraction(rng.randint(-9, 9), rng.randint(1, 5))),
            1: Rat(Fraction(rng.randint(-9, 9), rng.randint(1, 5))),
        }
        left, right = functional_identity(t, f)
        assert left == right


# ---------------------------------------------------------------------------
# dehn_test
# ---------------------------------------------------------------------------


def test_dehn_test_commensurable_on_squared_rectangle():
    table = SymbolTable()
    t = squared_rect_tiling(table)
    v = dehn_test(t)
    assert isinstance(v, CommensurableVerdict)
    assert v.base == table.rational(1)
    assert v.x_ratios == [Rat(n) for n in (14, 4, 6, 1, 8)]
    assert v.y_ratios == [Rat(n) for n in (15, 3, 4, 1, 9)]


def test_dehn_test_base_is_canonical():
    table = SymbolTable()
    t = MeasureTiling(
        table,
        [("x1", table.pi(Fraction(2, 3)))],
        [("y1", table.pi(Fraction(2, 3)))],
        [({0}, {0})],
    )
    v = dehn_test(t)
    assert isinstance(v, CommensurableVerdict)
    assert v.base == table.pi()  # scaled to coprime integers, positive lead
    assert v.x_ratios == [Rat(2, 3)]


def test_dehn_test_certificate_unit_by_pi():
    table = SymbolTable()
    t = MeasureTiling(
        table,
        [("x1", table.rational(1))],
        [("y1", table.pi())],
        [({0}, {0})],
    )
    v = dehn_test(t)
    assert isinstance(v, DehnCertificate)
    assert v.functional == {0: Rat(1), 1: Rat(-1)}
    assert v.lhs == Rat(-1)
    assert v.piece_products == [Rat(-1)]
    assert v.violated.status == "not-square"
    # the axioms would force lhs to be a sum of squares; minus one is not
    left, right = functional_identity(t, v.functional)
    assert left == right == Rat(-1)


def test_dehn_test_certificate_parallel_totals():
    table = SymbolTable()
    t = MeasureTiling(
        table,
        [("x1", table.pi()), ("x2", table.rational(1))],
        [("y1", table.pi()), ("y2", table.rational(1))],
        [({0}, {0}), ({1}, {1})],
    )
    v = dehn_test(t)
    assert isinstance(v, DehnCertificate)
    # totals are parallel, so the functional kills muX and hits piece 0
    assert apply_functional(v.functional, t.mu_x()) == Rat(0)
    assert apply_functional(v.functional, t.mu_a(0)) == Rat(1)
    assert v.lhs == Rat(0)
    assert v.piece_products == [Rat(1), Rat(1)]
    assert v.violated.status == "uncovered"


def test_dehn_test_undecidable_data_is_inconsistent():
    table = SymbolTable()
    t = MeasureTiling(
        table,
        [
            ("x1", table.rational(4) + table.pi()),
            ("x2", table.rational(4) - table.pi()),
        ],
        [("y1", table.rational(8))],
        [({0, 1}, {0})],
    )
    assert verify_measure_tiling(t).ok
    with pytest.raises(InternalInconsistency):
        dehn_test(t)


# ---------------------------------------------------------------------------
# int evaluation against apply_functional
# ---------------------------------------------------------------------------
#
# functional_identity and the certificate evaluate f once per element on
# ints; the reference below evaluates it on every piece measure with
# apply_functional, one Rat at a time.


def reference_products(t, f):
    """(f(muX)*f(muY), [f(muA_i)*f(muB_i)]) through apply_functional."""
    lhs = apply_functional(f, t.mu_x()) * apply_functional(f, t.mu_y())
    products = [
        apply_functional(f, t.mu_a(i)) * apply_functional(f, t.mu_b(i))
        for i in range(len(t.pieces))
    ]
    return lhs, products


def _symbol_table():
    """Symbols 0 unit, 1 PI, 2 tau (PI-kind), 3 h (decimal)."""
    table = SymbolTable()
    table.declare_pi_symbol("tau")
    table.declare_decimal_symbol("h", Rat("2.5"), Rat(1, 100))
    return table


# a positive side: nonnegative coefficients on unit, PI, tau and h
_side = st.lists(
    st.fractions(min_value=0, max_value=4, max_denominator=6), min_size=4, max_size=4
).filter(any)
_functional = st.dictionaries(
    st.integers(0, 3), st.fractions(min_value=-5, max_value=5, max_denominator=12), max_size=4
)


def _side_scalar(table, coeffs):
    return Scalar(table, {i: Rat(c) for i, c in enumerate(coeffs)})


@given(seed=st.integers(0, 10**6), wx=_side, hy=_side, f=_functional, drop=st.booleans())
@settings(max_examples=150, deadline=None)
def test_functional_identity_matches_apply_functional(seed, wx, hy, f, drop):
    table = _symbol_table()
    t = scaled_tiling(
        table, guillotine_leaves(random.Random(seed)), _side_scalar(table, wx), _side_scalar(table, hy)
    )
    if drop and len(t.pieces) > 1:
        # a missing piece breaks the identity; both sides must still match
        t.pieces.pop()
        t.labels.pop()
    f = {k: Rat(v) for k, v in f.items()}
    lhs, products = reference_products(t, f)
    assert functional_identity(t, f) == (lhs, sum(products, Rat(0)))


@given(seed=st.integers(0, 10**6), wx=_side, hy=_side)
@settings(max_examples=100, deadline=None)
def test_certificate_products_match_apply_functional(seed, wx, hy):
    table = _symbol_table()
    w, h = _side_scalar(table, wx), _side_scalar(table, hy)
    t = scaled_tiling(table, guillotine_leaves(random.Random(seed)), w, h)
    v = dehn_test(t)
    if isinstance(v, CommensurableVerdict):
        assert commensurable(w, h) is not None
        return
    lhs, products = reference_products(t, v.functional)
    assert v.lhs == lhs
    assert v.piece_products == products
    assert functional_identity(t, v.functional) == (lhs, lhs)


def test_mixed_pi_tilings_take_no_enclosure_and_no_apply_functional(monkeypatch):
    # sides a + b*PI with a, b > 0: every element's sign is decided by the
    # one-sign rule and every certificate is evaluated on ints
    calls = {"enclosure": 0, "apply_functional": 0}
    enclosure = SymbolTable.enclosure

    def counted_enclosure(self, idx, bits):
        calls["enclosure"] += 1
        return enclosure(self, idx, bits)

    def counted_apply(f, s):
        calls["apply_functional"] += 1
        return apply_functional(f, s)

    monkeypatch.setattr(SymbolTable, "enclosure", counted_enclosure)
    monkeypatch.setattr(dehn, "apply_functional", counted_apply)
    rng = random.Random(20261020)
    half = Fraction(1, 2)
    sides = [((1, 1), (2, half)), ((3 * half, 2), (1, 3)), ((3, half), (half, 1))]
    for (a, b), (c, d) in sides * 4:
        table = SymbolTable()
        text = serialize_measure_tiling(
            scaled_tiling(
                table,
                guillotine_leaves(rng),
                table.rational(Rat(a)) + table.pi(Rat(b)),
                table.rational(Rat(c)) + table.pi(Rat(d)),
            )
        )
        t = parse_measure_tiling(text)
        v = dehn_test(t)
        assert isinstance(v, DehnCertificate)
        assert functional_identity(t, v.functional) == (v.lhs, sum(v.piece_products, Rat(0)))
    assert calls == {"enclosure": 0, "apply_functional": 0}


# ---------------------------------------------------------------------------
# dehn_plus_test
# ---------------------------------------------------------------------------


def conforming_plus_tiling(table):
    """q = 1/2, r = 1, a = 6: X sums to 7, Y sums to 5/2."""
    half = Fraction(1, 2)
    x = [("x1", table.rational(1)), ("x2", table.rational(1)),
         ("x3", table.rational(Fraction(5, 2))), ("x4", table.rational(Fraction(5, 2)))]
    y = [("y1", table.rational(Fraction(3, 2))), ("y2", table.rational(1))]
    pieces = [
        ({0}, {0}),      # 1 x 3/2 rectangle
        ({1}, {0}),      # 1 x 3/2 rectangle
        ({0}, {1}),      # 1 x 1
        ({1}, {1}),      # 1 x 1
        ({2}, {0, 1}),   # 5/2 x 5/2
        ({3}, {0, 1}),   # 5/2 x 5/2
    ]
    return MeasureTiling(table, x, y, pieces), table.rational(half), table.rational(1)


def test_dehn_plus_conforming_gives_ratio():
    table = SymbolTable()
    t, q, r = conforming_plus_tiling(table)
    assert verify_measure_tiling(t, skip_square=frozenset({0, 1})).ok
    v = dehn_plus_test(t, q, r, Rat(6), designated=(2, 3, 4, 5))
    assert isinstance(v, QRCommensurable)
    assert v.ratio == Rat(1, 2)


def test_dehn_plus_designated_bound_is_strict():
    table = SymbolTable()
    t, q, r = conforming_plus_tiling(table)
    # only one unit square designated: 1 <= a - 4 = 2 fails the strict bound
    with pytest.raises(AuditFailure) as err:
        dehn_plus_test(t, q, r, Rat(6), designated=(2,))
    assert err.value.clause == 4


def test_dehn_plus_audits_totals_and_rectangles():
    table = SymbolTable()
    t, q, r = conforming_plus_tiling(table)
    with pytest.raises(AuditFailure) as err:
        dehn_plus_test(t, q, r, Rat(8), designated=(2, 3))  # wrong a
    assert err.value.clause == 1
    with pytest.raises(AuditFailure) as err:
        dehn_plus_test(t, r, q, Rat(6), designated=(2, 3))  # q, r swapped
    assert err.value.clause == 1


def test_dehn_plus_certificate_pi_incommensurable():
    table = SymbolTable()
    pi = table.pi()
    x = [("a", table.rational(1)), ("b", table.rational(1)), ("c", table.rational(1)),
         ("d", table.rational(3)), ("e", pi.scale(2))]
    y = [("u", table.rational(1)), ("v", pi + table.rational(1))]
    pieces = [
        ({0}, {1}),  # 1 x (pi + 1) rectangle
        ({1}, {1}),  # 1 x (pi + 1) rectangle
        ({0}, {0}),
        ({1}, {0}),
        ({2}, {0}),
    ]
    t = MeasureTiling(table, x, y, pieces)
    v = dehn_plus_test(t, pi, table.rational(1), Rat(6), designated=(2, 3, 4))
    assert isinstance(v, DehnPlusCertificate)
    assert v.functional == {1: Rat(2), 0: Rat(-1)}
    assert v.f_mu_x == Rat(-2)
    assert v.f_mu_y == Rat(0)
    assert v.rect_products == [Rat(-1), Rat(-1)]
    assert v.designated_square_sum == Rat(3)
    assert v.designated_bound == Rat(2)
    assert v.violated.status == "uncovered"
    assert (t.x_names[v.violated.x_index], t.y_names[v.violated.y_index]) == ("c", "v")


def test_dehn_plus_certificate_with_declared_symbol_q():
    # q = h sits at symbol index 2 while r = PI sits at index 1
    table = SymbolTable()
    table.declare_decimal_symbol("h", Rat(5, 2), Rat(1, 100))
    pi, h = table.pi(), table.symbol("h")
    x = [("a", pi), ("b", pi), ("c", pi.scale(3)), ("d", pi.scale(5)), ("e", h.scale(2))]
    y = [("u", pi.scale(3)), ("v", h + pi)]
    pieces = [
        ({0}, {1}),  # PI x (h + PI) rectangle
        ({1}, {1}),  # PI x (h + PI) rectangle
        ({2}, {0}),  # 3*PI square
    ]
    t = MeasureTiling(table, x, y, pieces)
    v = dehn_plus_test(t, h, pi, Rat(10), designated=(2,))
    assert isinstance(v, DehnPlusCertificate)
    assert v.functional == {1: Rat(-1), 2: Rat(4)}
    assert (v.f_mu_x, v.f_mu_y) == (Rat(-2), Rat(0))
    assert v.rect_products == [Rat(-3), Rat(-3)]
    assert v.violated.status == "uncovered"


def test_dehn_plus_boundary_a_four_needs_designated():
    table = SymbolTable()
    x = [("x1", table.rational(1)), ("x2", table.rational(1)),
         ("x3", table.rational(Fraction(3, 2))), ("x4", table.rational(Fraction(3, 2)))]
    y = [("y1", table.rational(Fraction(3, 2)))]
    pieces = [
        ({0}, {0}),
        ({1}, {0}),
        ({2}, {0}),
        ({3}, {0}),
    ]
    t = MeasureTiling(table, x, y, pieces)
    with pytest.raises(AuditFailure) as err:
        dehn_plus_test(t, table.rational(Fraction(1, 2)), table.rational(1), Rat(4), designated=())
    assert err.value.clause == 4


# ---------------------------------------------------------------------------
# text format
# ---------------------------------------------------------------------------


# a measure: coefficients of 1, PI and the decimal symbol h, of either sign
_measure = st.tuples(*[st.fractions(min_value=-4, max_value=4, max_denominator=6)] * 3)


@given(xs=st.lists(_measure, min_size=1, max_size=4), y=_measure)
@example(xs=[(1, 0, 0), (2, Fraction(1, 3), 0)], y=(0, 1, 0))
@example(xs=[(-1, 1, 0), (4, -1, 0), (1, -1, 1)], y=(Fraction(-1, 2), -1, 2))
@settings(max_examples=150, deadline=None)
def test_measure_tiling_round_trip(xs, y):
    table = SymbolTable()
    table.declare_decimal_symbol("h", Rat("2.5"), Rat(1, 100))
    values = []
    for cs in xs + [y]:
        v = Scalar(table, {k: Rat(c) for k, c in enumerate(cs)})
        sign = table.sign(v)
        assume(sign in (Comparison.GREATER, Comparison.LESS))
        values.append(v if sign is Comparison.GREATER else -v)  # mixed signs stay mixed
    t = MeasureTiling(
        table,
        [(f"x{i}", v) for i, v in enumerate(values[:-1])],
        [("y1", values[-1])],
        [({i}, {0}) for i in range(len(xs))],
    )
    text = serialize_measure_tiling(t)
    t2 = parse_measure_tiling(text)
    assert serialize_measure_tiling(t2) == text
    for got, want in ((t2.x_measures, t.x_measures), (t2.y_measures, t.y_measures)):
        assert [(m.num, m.den) for m in got] == [(m.num, m.den) for m in want]
        assert [format_scalar(m) for m in got] == [format_scalar(m) for m in want]
    assert t2.pieces == t.pieces


def test_measure_tiling_parse_sample():
    text = """\
# tiny sample
space X x1=1 x2=1/3*PI+2
space Y y1=PI
piece A={x1} B={y1}
piece A={x2} B={y1}
"""
    t = parse_measure_tiling(text)
    assert t.x_names == ["x1", "x2"]
    assert t.y_names == ["y1"]
    assert t.pieces == [(frozenset({0}), frozenset({0})), (frozenset({1}), frozenset({0}))]
    assert format_scalar(t.x_measures[1]) == "1/3*PI + 2"


@pytest.mark.parametrize("bits, used", [(None, 256), (0, 64), (64, 64), (100, 100)])
def test_measure_tiling_parse_keeps_an_explicit_precision_budget(bits, used):
    text = "space X x1=1\nspace Y y1=1\npiece A={x1} B={y1}\n"
    assert parse_measure_tiling(text, precision_bits=bits).table.precision_bits == used


@pytest.mark.parametrize(
    "text,fragment",
    [
        ("space X x1=1\npiece A={x1} B={y1}\n", "missing space"),
        ("space X x1=1\nspace Y y1=1\npiece A={x9} B={y1}\n", "unknown element"),
        ("space X x1=1\nspace Y y1=1\npiece A={x1}\n", "line 3"),
        ("space X x1=0\nspace Y y1=1\npiece A={x1} B={y1}\n", "positive"),
        ("spam\n", "line 1"),
    ],
)
def test_measure_tiling_parse_errors(text, fragment):
    with pytest.raises(GraphFormatError) as err:
        parse_measure_tiling(text)
    assert fragment in str(err.value)


@pytest.mark.parametrize(
    "text,fragment",
    [
        # the second x0 used to shadow the first, leaving element 0 uncovered
        ("space X x0=1 x0=2\nspace Y y0=1\npiece A={x0} B={y0}\n", "line 1: duplicate element x0"),
        # the last B used to win silently
        ("space X x0=1\nspace Y y0=1 y1=1\npiece A={x0} B={y0} B={y1}\n", "line 3: piece repeats side B"),
    ],
    ids=["duplicate-element", "repeated-side"],
)
def test_measure_tiling_parse_rejects_silent_overrides(text, fragment):
    with pytest.raises(GraphFormatError) as err:
        parse_measure_tiling(text)
    assert fragment in str(err.value)


def test_measure_tiling_same_name_in_both_spaces_is_allowed():
    t = parse_measure_tiling("space X a=1\nspace Y a=1\npiece A={a} B={a}\n")
    assert t.pieces == [(frozenset({0}), frozenset({0}))]
