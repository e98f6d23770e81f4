"""Exact scalar arithmetic, certified comparisons, commensurability."""

import math
import re
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from commensura._rat import Rat
from commensura.errors import MixedSymbolTables, PrecisionExhausted
from commensura.scalars import (
    Area,
    Comparison,
    Scalar,
    SymbolTable,
    commensurable,
    rational_line,
    compare_area,
    format_area,
    format_scalar,
    parse_scalar,
    pi_ratio,
    sum_terms,
    _linear_interval,
    _product_interval,
)

# Reference value used as an independent oracle for the built-in enclosure.
# First 50 decimal digits of pi (a published constant, cross-checked against
# mpmath in test_pi_enclosure_against_mpmath).
PI_50 = "31415926535897932384626433832795028841971693993751"
PI_LO = Fraction(int(PI_50), 10**49)
PI_HI = PI_LO + Fraction(1, 10**49)


@pytest.fixture()
def table():
    return SymbolTable()


# ---------------------------------------------------------------------------
# pi enclosure oracle
# ---------------------------------------------------------------------------


def test_pi_enclosure_contains_reference(table):
    for bits in (64, 96, 128, 160):
        lo, hi = table.enclosure(1, bits)
        assert Fraction(lo.numerator, lo.denominator) <= PI_HI
        assert Fraction(hi.numerator, hi.denominator) >= PI_LO
        assert hi - lo < Rat(1, 2**bits) * 4


def test_pi_enclosure_requested_widths(table):
    for bits in (64, 128, 256, 512, 1024):
        lo, hi = table.enclosure(1, bits)
        assert lo < hi
        assert hi - lo <= Rat(1, 2**bits)


def test_pi_enclosure_nested(table):
    prev = None
    for bits in (64, 128, 256, 512):
        lo, hi = table.enclosure(1, bits)
        if prev is not None:
            plo, phi = prev
            assert lo >= plo and hi <= phi
        prev = (lo, hi)


def test_pi_enclosure_against_mpmath(table):
    mpmath = pytest.importorskip("mpmath")
    mpmath.mp.prec = 700
    sign, man, exp, _ = mpmath.mpf(mpmath.pi)._mpf_
    ref = Fraction((-man if sign else man), 2**-exp) if exp < 0 else Fraction(man * 2**exp)
    lo, hi = table.enclosure(1, 512)
    assert Fraction(lo.numerator, lo.denominator) < ref < Fraction(hi.numerator, hi.denominator)


# ---------------------------------------------------------------------------
# comparisons
# ---------------------------------------------------------------------------


def test_compare_pi_with_classic_rationals(table):
    pi = table.pi()
    assert table.compare(pi, table.rational(3)) is Comparison.GREATER
    assert table.compare(pi, table.rational(Rat(355, 113))) is Comparison.LESS
    assert table.compare(pi, table.rational(Rat(22, 7))) is Comparison.LESS
    assert table.compare(table.rational(Rat(355, 113)), pi) is Comparison.GREATER


def test_compare_spec_literal(table):
    a = table.parse("1/3*PI + 2")
    assert table.compare(a, table.pi()) is Comparison.LESS
    assert table.compare(a, table.rational(3)) is Comparison.GREATER


def test_equal_is_symbolic_only(table):
    a = table.parse("2*PI + 1")
    b = table.pi(2) + table.rational(1)
    assert table.compare(a, b) is Comparison.EQUAL
    assert a == b


def test_decimal_symbol_with_insufficient_radius_is_indeterminate():
    # interval [3.14158, 3.14160] straddles pi; no budget can split it
    table = SymbolTable(precision_bits=4096)
    table.declare_decimal_symbol("approx_pi", Rat(314159, 100000), Rat(1, 100000))
    got = table.compare(table.symbol("approx_pi"), table.pi())
    assert got is Comparison.INDETERMINATE


def test_decimal_symbol_with_sufficient_radius_decides(table):
    table.declare_decimal_symbol("near3", Rat(3), Rat(1, 100))
    assert table.compare(table.symbol("near3"), table.pi()) is Comparison.LESS


def test_pi_alias_symbol_is_honestly_indeterminate():
    # Declaring a second handle on the pi stream breaks the independence
    # assumption; comparing it with PI must refuse to decide, not guess.
    table = SymbolTable(precision_bits=512)
    table.declare_pi_symbol("tau_half")
    got = table.compare(table.symbol("tau_half"), table.pi())
    assert got is Comparison.INDETERMINATE


def test_require_raises_on_indeterminate():
    table = SymbolTable(precision_bits=128)
    table.declare_pi_symbol("p2")
    with pytest.raises(PrecisionExhausted):
        table.require(table.compare(table.symbol("p2"), table.pi()))


def test_mixed_tables_rejected(table):
    other = SymbolTable()
    with pytest.raises(MixedSymbolTables):
        table.pi() + other.pi()
    with pytest.raises(MixedSymbolTables):
        table.compare(table.pi(), other.pi())


# ---------------------------------------------------------------------------
# commensurability
# ---------------------------------------------------------------------------


def test_commensurable_pi_multiples(table):
    a = table.pi(Rat(8, 3))
    b = table.pi(2)
    assert commensurable(a, b) == Rat(3, 4)
    assert pi_ratio(a) == Rat(8, 3)


def test_commensurable_mixed_terms(table):
    a = table.parse("2*PI + 4")
    b = table.parse("3*PI + 6")
    assert commensurable(a, b) == Rat(3, 2)
    assert commensurable(a, table.parse("3*PI + 5")) is None
    assert commensurable(table.pi(), table.rational(2)) is None


def test_commensurable_zero_rules(table):
    zero = table.zero()
    assert commensurable(table.pi(), zero) == 0
    assert commensurable(zero, table.pi()) is None
    with pytest.raises(ValueError):
        commensurable(zero, zero)


def rational_map(s) -> dict:
    """key -> Fraction view of a Scalar's or Area's coefficients."""
    return {k: Fraction(v, s.den) for k, v in s.num.items()}


# ---------------------------------------------------------------------------
# literals
# ---------------------------------------------------------------------------


def test_parse_examples(table):
    s = parse_scalar(table, "1/3*PI + 2")
    assert rational_map(s) == {1: Rat(1, 3), 0: Rat(2)}
    assert rational_map(parse_scalar(table, "PI")) == {1: Rat(1)}
    assert parse_scalar(table, "0").is_zero()
    assert rational_map(parse_scalar(table, "7/2")) == {0: Rat(7, 2)}
    assert rational_map(parse_scalar(table, "2 - PI")) == {0: Rat(2), 1: Rat(-1)}
    assert rational_map(parse_scalar(table, "-1*PI + 1")) == {1: Rat(-1), 0: Rat(1)}


def test_parse_rejects_garbage(table):
    for bad in ("", "1 +", "* PI", "PI PI", "1/0", "2 & 3"):
        with pytest.raises(ValueError):
            parse_scalar(table, bad)


def test_format_canonical(table):
    assert format_scalar(table.parse("1/3*PI + 2")) == "1/3*PI + 2"
    assert format_scalar(table.zero()) == "0"
    assert format_scalar(table.pi(-1) + table.rational(1)) == "-1*PI + 1"
    assert format_scalar(table.pi()) == "PI"


@given(
    c0=st.fractions(min_value=-50, max_value=50, max_denominator=20),
    c1=st.fractions(min_value=-50, max_value=50, max_denominator=20),
)
@settings(max_examples=80, deadline=None)
def test_format_parse_round_trip(c0, c1):
    table = SymbolTable()
    s = table.rational(Rat(c0)) + table.pi(Rat(c1))
    assert parse_scalar(table, format_scalar(s)) == s


_REF_TOKEN = re.compile(r"-?\d+\s*/\s*\d+|-?\d+|[A-Za-z_][A-Za-z0-9_]*|[+\-*]|\S")


def _reference_parse(table, text) -> dict:
    """The literal grammar read term by term into a map index -> Fraction:
    term (("+"|"-") term)*, term := rational ["*" SYMBOL] | SYMBOL."""
    tokens = _REF_TOKEN.findall(text)
    coeffs: dict = {}
    i, sign = 0, 1
    while True:
        tok = tokens[i]
        if tok[0].isdigit() or tok[0] == "-" and len(tok) > 1:
            p, _, q = tok.replace(" ", "").partition("/")
            coeff = Fraction(int(p), int(q or 1)) * sign
            i += 1
            idx = 0
            if tokens[i:i + 1] == ["*"]:
                idx = table.index_of(tokens[i + 1])
                i += 2
        else:
            coeff, idx = Fraction(sign), table.index_of(tok)
            i += 1
        coeffs[idx] = coeffs.get(idx, 0) + coeff
        if i == len(tokens):
            return coeffs
        sign = 1 if tokens[i] == "+" else -1
        i += 1


_ref_terms = st.lists(
    st.tuples(
        st.sampled_from(["+", "-"]),
        st.one_of(st.none(), st.integers(-12, 12), st.tuples(st.integers(-12, 12), st.integers(1, 12))),
        st.sampled_from([None, "PI", "tau", "h"]),
        st.sampled_from(["", " ", "  "]),
    ),
    min_size=1,
    max_size=6,
)


def _literal(terms) -> str:
    parts = []
    for k, (op, coeff, sym, sp) in enumerate(terms):
        if coeff is None:
            coeff = 1 if sym is None else None
        if isinstance(coeff, tuple):
            text = f"{coeff[0]}{sp}/{sp}{coeff[1]}"
        else:
            text = "" if coeff is None else str(coeff)
        if sym is not None:
            text = sym if not text else f"{text}{sp}*{sp}{sym}"
        # an operator glued to a signed or digit-led term would read as the
        # term's own sign, so it is always followed by a space there
        glue = " " if text[0].isdigit() or text[0] == "-" else sp
        parts.append(text if not k else f"{sp}{op}{glue}{text}")
    return "".join(parts)


@given(terms=_ref_terms)
@example(terms=[("+", None, "PI", ""), ("-", None, "PI", " ")])  # cancels to zero
@example(terms=[("+", (3, 4), "tau", " "), ("-", (6, 8), "tau", ""), ("+", 2, None, " ")])
@example(terms=[("+", (-5, 10), "h", " "), ("+", (1, 2), "h", "  "), ("+", (1, 3), "PI", " ")])
@settings(max_examples=300, deadline=None)
def test_parse_scalar_matches_the_fraction_reference(terms):
    table = SymbolTable()
    table.declare_pi_symbol("tau")
    table.declare_decimal_symbol("h", Rat("2.5"), Rat(1, 100))
    text = _literal(terms)
    got = parse_scalar(table, text)
    assert got == Scalar(table, _reference_parse(table, text))
    assert got.den > 0 and math.gcd(got.den, *got.num.values()) == 1


@pytest.mark.parametrize(
    "text, error, message",
    [
        ("1/0", ValueError, "zero denominator in rational literal"),
        ("3 / 0*PI", ValueError, "zero denominator in rational literal"),
        ("1/0 + y", ValueError, "zero denominator in rational literal"),
        ("PI + 2*x", KeyError, "'unknown symbol: x'"),
        ("y + 1/0", KeyError, "'unknown symbol: y'"),
        ("2 *", ValueError, "expected symbol after '*'"),
        ("2 * 3", ValueError, "expected symbol after '*'"),
        ("1 + 2*", ValueError, "expected symbol after '*'"),
        ("", ValueError, "empty scalar literal"),
        ("1 +", ValueError, "expected a term"),
        ("* PI", ValueError, "expected a term"),
        ("PI PI", ValueError, "expected + or - at token 'PI'"),
        ("1-1", ValueError, "expected + or - at token '-1'"),
        ("2 & 3", ValueError, "bad scalar literal near '& 3'"),
    ],
)
def test_parse_scalar_error_messages(table, text, error, message):
    with pytest.raises(error) as info:
        parse_scalar(table, text)
    assert str(info.value) == message


# ---------------------------------------------------------------------------
# algebraic laws (property tests)
# ---------------------------------------------------------------------------

_fracs = st.fractions(min_value=-30, max_value=30, max_denominator=12)


def _scalar(table, pair):
    return table.rational(Rat(pair[0])) + table.pi(Rat(pair[1]))


@given(a=st.tuples(_fracs, _fracs), b=st.tuples(_fracs, _fracs), c=st.tuples(_fracs, _fracs))
@settings(max_examples=60, deadline=None)
def test_vector_space_laws(a, b, c):
    table = SymbolTable()
    sa, sb, sc = (_scalar(table, x) for x in (a, b, c))
    assert sa + sb == sb + sa
    assert (sa + sb) + sc == sa + (sb + sc)
    assert (sa - sa).is_zero()
    assert sa.scale(2) + sa.scale(3) == sa.scale(5)


@given(a=st.tuples(_fracs, _fracs), b=st.tuples(_fracs, _fracs), c=st.tuples(_fracs, _fracs))
@settings(max_examples=60, deadline=None)
def test_multiplication_bilinear(a, b, c):
    table = SymbolTable()
    sa, sb, sc = (_scalar(table, x) for x in (a, b, c))
    assert (sa + sb) * sc == sa * sc + sb * sc
    assert sa * sb == sb * sa


@given(a=st.tuples(_fracs, _fracs), b=st.tuples(_fracs, _fracs))
@settings(max_examples=60, deadline=None)
def test_compare_antisymmetry(a, b):
    table = SymbolTable()
    sa, sb = _scalar(table, a), _scalar(table, b)
    lhs = table.compare(sa, sb)
    rhs = table.compare(sb, sa)
    flip = {
        Comparison.LESS: Comparison.GREATER,
        Comparison.GREATER: Comparison.LESS,
        Comparison.EQUAL: Comparison.EQUAL,
    }
    assert rhs is flip[lhs]


# ---------------------------------------------------------------------------
# areas
# ---------------------------------------------------------------------------


def test_area_known_value(table):
    pi_sq = table.pi() * table.pi()
    # pi^2 = 9.8696044... lies between 394/40 (9.85) and 987/100 (9.87)
    low = table.rational(Rat(197, 20)) * table.rational(1)
    high = table.rational(Rat(987, 100)) * table.rational(1)
    assert compare_area(pi_sq, low) is Comparison.GREATER
    assert compare_area(pi_sq, high) is Comparison.LESS


def test_area_identity_exact(table):
    # l*(l - 2*PI) for l = 8/3*PI equals 16/9*PI*PI
    l = table.pi(Rat(8, 3))
    lhs = l * (l - table.pi(2))
    rhs = table.pi(Rat(4, 3)) * table.pi(Rat(4, 3))
    assert lhs == rhs
    assert compare_area(lhs, rhs) is Comparison.EQUAL
    assert format_area(lhs) == "16/9*PI*PI"


def test_area_mixed_pairs(table):
    a = table.parse("PI + 1")
    sq = a * a
    assert rational_map(sq) == {(1, 1): Rat(1), (0, 1): Rat(2), (0, 0): Rat(1)}
    assert format_area(sq) == "1*PI*PI + 2*PI + 1"


def test_area_rejects_further_products(table):
    with pytest.raises(TypeError):
        (table.pi() * table.pi()) * table.pi()


def test_precision_budget_is_bounded():
    assert SymbolTable(precision_bits=65536).precision_bits == 65536
    with pytest.raises(ValueError):
        SymbolTable(precision_bits=65537)


def test_approx_midpoint(table):
    mid = table.approx(table.pi())
    assert Fraction(mid.numerator, mid.denominator) == pytest.approx(3.14159265, abs=1e-6)


# ---------------------------------------------------------------------------
# the sign ladder, differentially
# ---------------------------------------------------------------------------
#
# Symbols: 0 the unit, 1 PI, 2 "tau", a declared handle on the pi stream, and
# 3 "d", a decimal symbol declared as value +- radius.  The true value of d
# is known only to lie in that interval, so a decided sign must hold across
# all of it; PI is taken from mpmath at 400 bits.

_nonzero = st.fractions(min_value=-6, max_value=6, max_denominator=7).filter(bool)
_PAIRS = [(i, j) for i in range(4) for j in range(i, 4)]


def _ladder_table(value, radius, bits=None):
    """A table over the four symbols, with precision budget bits (the
    default when None), whose enclosure calls are recorded in rungs."""
    table = SymbolTable() if bits is None else SymbolTable(precision_bits=bits)
    table.declare_pi_symbol("tau")
    table.declare_decimal_symbol("d", Rat(value), Rat(radius))
    rungs = []
    enclosure = table.enclosure

    def recording(idx, bits):
        rungs.append(bits)
        return enclosure(idx, bits)

    table.enclosure = recording
    return table, rungs


def _true_range(mpmath, coeffs, pairs, lo, hi):
    """(min, max) of the value over d in [lo, hi]; a Scalar term idx is
    read as the pair (idx, unit)."""
    def mp(q):
        return mpmath.mpf(q.numerator) / q.denominator

    with mpmath.workprec(400):
        s = [mpmath.mpf(1), +mpmath.pi, +mpmath.pi]
        quad = lin = const = mpmath.mpf(0)
        for key, c in coeffs.items():
            i, j = key if pairs else (key, 0)
            if i == j == 3:
                quad += mp(c)
            elif 3 in (i, j):
                lin += mp(c) * s[i + j - 3]
            else:
                const += mp(c) * s[i] * s[j]
        points = [mp(lo), mp(hi)]
        if quad:
            vertex = -lin / (2 * quad)
            if points[0] < vertex < points[1]:
                points.append(vertex)
        values = [quad * d * d + lin * d + const for d in points]
        return min(values), max(values)


@given(
    pairs=st.booleans(),
    data=st.data(),
    value=st.fractions(min_value=-5, max_value=5, max_denominator=8),
    radius=st.sampled_from([Fraction(1, 1000), Fraction(1, 10), Fraction(2)]),
    bits=st.sampled_from([None, 64, 96, 512]),
)
@settings(max_examples=300, deadline=None)
def test_ladder_against_oracles(pairs, data, value, radius, bits):
    mpmath = pytest.importorskip("mpmath")
    keys = st.sampled_from(_PAIRS) if pairs else st.integers(0, 3)
    coeffs = {k: Rat(c) for k, c in data.draw(st.dictionaries(keys, _nonzero, max_size=4)).items()}
    table, rungs = _ladder_table(value, radius, bits)
    if pairs:
        got = compare_area(Area(table, coeffs), Area(table, {}))
    else:
        got = table.sign(Scalar(table, coeffs))
    rungs = list(rungs)
    if not pairs:
        assert table.compare(Scalar(table, coeffs), table.zero()) is got
    # a map whose every key is on the unit, PI or tau (for an Area, a pair
    # of them) and whose coefficients all have one sign is decided by that
    # sign alone; everything else takes an enclosure
    keys = {i for k in coeffs for i in (k if pairs else (k,))}
    one_sign = keys <= {0, 1, 2} and len({c > 0 for c in coeffs.values()}) == 1
    assert (rungs == []) == (one_sign or not coeffs)
    if not coeffs:
        assert got is Comparison.EQUAL
        return
    lo, hi = _true_range(mpmath, coeffs, pairs, value - radius, value + radius)
    if got is Comparison.GREATER:
        assert lo > 0
    elif got is Comparison.LESS:
        assert hi < 0
    else:
        assert got is Comparison.INDETERMINATE
        indices = {i for k in coeffs for i in (k if pairs else (k,))}
        budget = table.precision_bits
        if indices <= {0, 1}:
            pytest.fail("a nonzero value in 1 and PI alone must be decided")
        elif indices.isdisjoint({1, 2}):
            # nothing refines: one rung, then give up
            assert set(rungs) == {64}
            assert len(rungs) == len(coeffs) * (2 if pairs else 1)
        else:
            assert max(rungs) == budget


_KNOWN_POSITIVE_PAIRS = [(i, j) for i in range(3) for j in range(i, 3)]
_positive = st.fractions(min_value=0, max_value=6, max_denominator=7).filter(bool)


def _climb(table, coeffs, pairs):
    """The sign the interval rungs decide: the enclosures at 64 bits and
    doubled budgets, climbed by hand until one excludes 0."""
    interval = _product_interval if pairs else _linear_interval
    rung = 64
    lo, hi = interval(table, coeffs, rung)
    while lo <= 0 <= hi:
        rung *= 2
        assert rung <= table.precision_bits
        lo, hi = interval(table, coeffs, rung)
    return Comparison.GREATER if lo > 0 else Comparison.LESS


@given(pairs=st.booleans(), data=st.data(), negative=st.booleans(), bits=st.sampled_from([None, 64, 512]))
@settings(max_examples=200, deadline=None)
def test_one_term_sign_matches_the_interval_rungs(pairs, data, negative, bits):
    # the one-sign rule against the rungs it skips, on maps of 1 to 4
    # terms (at most 3 for a Scalar) over the unit, PI and tau whose
    # coefficients have one sign
    keys = data.draw(
        st.lists(
            st.sampled_from(_KNOWN_POSITIVE_PAIRS) if pairs else st.integers(0, 2),
            min_size=1,
            max_size=4,
            unique=True,
        )
    )
    magnitudes = data.draw(st.lists(_positive, min_size=len(keys), max_size=len(keys)))
    sign = -1 if negative else 1
    coeffs = {k: Rat(sign * m) for k, m in zip(keys, magnitudes)}
    table, rungs = _ladder_table(Fraction(1), Fraction(1, 10), bits)
    if pairs:
        got = compare_area(Area(table, coeffs), Area(table, {}))
    else:
        got = table.sign(Scalar(table, coeffs))
    assert rungs == []
    assert got is _climb(table, coeffs, pairs)
    assert got is (Comparison.LESS if negative else Comparison.GREATER)


@pytest.mark.parametrize(
    "pairs, coeffs, want",
    [
        (False, {0: 4, 1: -1}, Comparison.GREATER),  # 4 - PI
        (False, {0: -3, 1: 1}, Comparison.GREATER),  # PI - 3
        (False, {0: 3, 1: 1, 2: -2}, Comparison.LESS),  # 3 + PI - 2*tau
        (False, {3: 1}, Comparison.GREATER),  # d
        (False, {1: 1, 3: 1}, Comparison.GREATER),  # PI + d
        (False, {0: -1, 3: -1}, Comparison.LESS),  # -1 - d
        (True, {(1, 1): 1, (0, 0): -9}, Comparison.GREATER),  # PI*PI - 9
        (True, {(0, 3): 1, (1, 2): 1}, Comparison.GREATER),  # d + PI*tau
        (False, {1: 1, 2: -1}, Comparison.INDETERMINATE),  # PI - tau
        (True, {(1, 1): 1, (1, 2): -1}, Comparison.INDETERMINATE),  # PI*PI - PI*tau
    ],
)
def test_mixed_sign_and_decimal_maps_take_enclosures(pairs, coeffs, want):
    table, rungs = _ladder_table(Fraction(1), Fraction(1, 10))
    coeffs = {k: Rat(c) for k, c in coeffs.items()}
    if pairs:
        got = compare_area(Area(table, coeffs), Area(table, {}))
    else:
        got = table.sign(Scalar(table, coeffs))
    assert got is want
    assert 64 in rungs
    if want is Comparison.INDETERMINATE:
        # PI - tau refines at every rung and never excludes zero
        assert max(rungs) == table.precision_bits
    else:
        assert got is _climb(table, coeffs, pairs)


# ---------------------------------------------------------------------------
# integer representation against a rational reference
# ---------------------------------------------------------------------------
#
# Every operation is replayed on plain dicts of Fractions kept here.  Each
# decision is replayed through the ladder on the rational difference map,
# and must agree with it in verdict and in every enclosure it takes.

_rationals = st.one_of(
    st.sampled_from([Fraction(0), Fraction(1), Fraction(-1)]),
    st.fractions(min_value=-5, max_value=5, max_denominator=12),
    st.builds(Fraction, st.integers(-10**40, 10**40), st.integers(1, 10**30)),
)
# symbols 0 unit, 1 PI, 2 tau (PI-kind), 3 d (decimal)
_scalar_maps = st.dictionaries(st.integers(0, 3), _rationals, max_size=4)


def _ref(m):
    return {k: Fraction(v) for k, v in m.items() if v}


def _ref_plus(x, y, sign=1):
    out = dict(x)
    for k, v in y.items():
        out[k] = out.get(k, 0) + sign * v
    return {k: v for k, v in out.items() if v}


def _ref_scale(x, c):
    return {k: v * c for k, v in x.items() if v * c}


def _ref_product(x, y):
    out = {}
    for i, a in x.items():
        for j, b in y.items():
            key = (min(i, j), max(i, j))
            out[key] = out.get(key, 0) + a * b
    return {k: v for k, v in out.items() if v}


def _assert_matches(value, ref):
    """value is in canonical integer form and equals the reference."""
    num, den = value.num, value.den
    assert type(den) is int and den >= 1
    assert all(type(v) is int and v for v in num.values())
    assert math.gcd(den, *num.values()) == 1
    assert rational_map(value) == ref
    rebuilt = type(value)(value.table, ref)
    assert (rebuilt.num, rebuilt.den) == (num, den)
    assert rebuilt == value and hash(rebuilt) == hash(value) and rebuilt.key() == value.key()


def _assert_same_decision(table, rungs, got_decision, ref_diff, pairs):
    """The decision and its enclosures equal the ladder's on ref_diff."""
    got_rungs = list(rungs)
    rungs.clear()
    want = table._ladder(ref_diff, pairs=pairs) if ref_diff else Comparison.EQUAL
    assert got_decision is want
    assert got_rungs == rungs
    rungs.clear()


def _ref_ratio(x, y):
    """rho with y == rho * x, None, or ValueError for two zeros."""
    if not x and not y:
        return ValueError
    if not x:
        return None
    if not y:
        return Fraction(0)
    if x.keys() != y.keys():
        return None
    k = next(iter(x))
    rho = y[k] / x[k]
    return rho if all(y[i] == rho * v for i, v in x.items()) else None


_OPS = ["add", "sub", "neg", "scale", "scale_ints", "div", "mul", "sum", "area_add", "area_sub",
        "area_neg", "area_scale", "area_sum"]


@given(data=st.data(), maps=st.lists(_scalar_maps, min_size=2, max_size=3))
@settings(max_examples=250, deadline=None)
def test_integer_form_matches_rational_reference(data, maps):
    table, rungs = _ladder_table(Fraction(5, 2), Fraction(1, 100))
    scalars = [(Scalar(table, m), _ref(m)) for m in maps]
    for s, ref in scalars:
        _assert_matches(s, ref)
    areas = [(Area(table, {}), {})]
    for _ in range(data.draw(st.integers(1, 8))):
        op = data.draw(st.sampled_from(_OPS))
        (a, ra), (b, rb) = (data.draw(st.sampled_from(scalars)) for _ in range(2))
        (p, rp), (q, rq) = (data.draw(st.sampled_from(areas)) for _ in range(2))
        c = data.draw(_rationals)
        if op == "add":
            scalars.append((a + b, _ref_plus(ra, rb)))
        elif op == "sub":
            scalars.append((a - b, _ref_plus(ra, rb, -1)))
        elif op == "neg":
            scalars.append((-a, _ref_scale(ra, -1)))
        elif op == "scale":
            scalars.append((a.scale(c), _ref_scale(ra, c)))
        elif op == "scale_ints":
            p, d = c.numerator, data.draw(st.integers(-12, 12).filter(bool))
            scalars.append((a.scale(p, d), _ref_scale(ra, Fraction(p, d))))
        elif op == "div":
            if not c:
                continue
            scalars.append((a / c, _ref_scale(ra, 1 / c)))
        elif op == "mul":
            areas.append((a * b, _ref_product(ra, rb)))
        elif op == "sum":
            picked = data.draw(st.lists(st.sampled_from(scalars), max_size=4))
            ref = ra
            for _, r in picked:
                ref = _ref_plus(ref, r)
            scalars.append((sum_terms((s for s, _ in picked), a), ref))
        elif op == "area_add":
            areas.append((p + q, _ref_plus(rp, rq)))
        elif op == "area_sub":
            areas.append((p - q, _ref_plus(rp, rq, -1)))
        elif op == "area_neg":
            areas.append((-p, _ref_scale(rp, -1)))
        elif op == "area_scale":
            areas.append((c * p, _ref_scale(rp, c)))
        else:
            picked = data.draw(st.lists(st.sampled_from(areas), max_size=4))
            ref = rp
            for _, r in picked:
                ref = _ref_plus(ref, r)
            areas.append((sum_terms((x for x, _ in picked), p), ref))
        new, ref = areas[-1] if op.startswith("area") or op == "mul" else scalars[-1]
        _assert_matches(new, ref)

    for (a, ra), (b, rb) in zip(scalars, scalars[1:] + scalars[:1]):
        _assert_same_decision(table, rungs, table.compare(a, b), _ref_plus(ra, rb, -1), False)
        _assert_same_decision(table, rungs, table.sign(a), ra, False)
        want = _ref_ratio(ra, rb)
        if want is ValueError:
            with pytest.raises(ValueError):
                commensurable(a, b)
        else:
            assert commensurable(a, b) == want
        assert pi_ratio(a) == _ref_ratio({1: Fraction(1)}, ra)
        assert parse_scalar(table, format_scalar(a)) == a
    for (p, rp), (q, rq) in zip(areas, areas[1:] + areas[:1]):
        _assert_same_decision(table, rungs, compare_area(p, q), _ref_plus(rp, rq, -1), True)


def _fresh_text(value) -> str:
    """The text of an equal instance that has never been formatted."""
    fresh = type(value)._make(value.table, dict(value.num), value.den)
    return format_scalar(fresh) if isinstance(value, Scalar) else format_area(fresh)


@given(data=st.data(), maps=st.lists(_scalar_maps, min_size=1, max_size=3))
@settings(max_examples=250, deadline=None)
def test_cached_text_equals_a_fresh_format(data, maps):
    """Differential: the text kept on an instance equals a fresh format of
    its value, read before and after the instance is shared: the table's
    zeros and PI, and the operands that scale and addition return
    unchanged."""
    table, _ = _ladder_table(Fraction(5, 2), Fraction(1, 100))
    zero, no_area = table.zero(), table._zeros[Area]
    assert zero is table._zeros[Scalar] and table.pi() is table.pi()
    values = [zero, no_area, table.pi()] + [Scalar(table, m) for m in maps]
    for _ in range(data.draw(st.integers(1, 8))):
        a = data.draw(st.sampled_from([v for v in values if isinstance(v, Scalar)]))
        b = data.draw(st.sampled_from(values))
        if data.draw(st.booleans()):
            format_scalar(a)  # some operands are formatted before they are reused
        op = data.draw(st.sampled_from(["one", "zero", "plus", "minus", "neg", "mul", "scale"]))
        if op == "one":
            new = a.scale(1) if data.draw(st.booleans()) else a.scale(3, 3)
            assert new is a
        elif op == "zero":
            pick = data.draw(st.sampled_from(["left", "right", "minus", "sum"]))
            new = {"left": lambda: zero + a, "right": lambda: a + zero, "minus": lambda: a - zero,
                   "sum": lambda: sum_terms([zero], a)}[pick]()
            assert new == a and (pick == "sum" or new is a or new is zero)
        elif op in ("plus", "minus"):
            if type(b) is not type(a):
                continue
            new = a + b if op == "plus" else a - b
        elif op == "neg":
            new = -b
        elif op == "mul":
            new = a * a
        else:
            new = b.scale(data.draw(_rationals))
        values.append(new)
        for v in values:
            text = format_scalar(v) if isinstance(v, Scalar) else format_area(v)
            assert text == _fresh_text(v)
            assert v._text == text


def _ref_line(refs):
    """rational_line by its definition on reference maps: the first nonzero
    map scaled to a primitive integer vector whose lowest-index term is
    positive, and every map's ratio to it; None when there is no such map
    or some map is off its line."""
    first = next((r for r in refs if r), None)
    if first is None:
        return None
    ints = {k: v * math.lcm(*(x.denominator for x in first.values())) for k, v in first.items()}
    g = math.gcd(*(int(v) for v in ints.values()))
    if ints[min(ints)] < 0:
        g = -g
    base = {k: v / g for k, v in ints.items()}
    ratios = [_ref_ratio(base, r) for r in refs]
    return None if None in ratios else (base, ratios)


@given(
    direction=_scalar_maps.filter(lambda m: any(m.values())),
    mults=st.lists(_rationals, min_size=1, max_size=5),
    off=st.one_of(st.none(), st.tuples(st.integers(0, 5), _scalar_maps)),
)
@settings(max_examples=250, deadline=None)
def test_rational_line_against_reference(direction, mults, off):
    table, _ = _ladder_table(Fraction(5, 2), Fraction(1, 100))
    refs = [_ref_scale(_ref(direction), m) for m in mults]
    if off is not None:
        refs.insert(off[0], _ref(off[1]))
    values = [Scalar(table, r) for r in refs]
    seen = []

    def fed():
        for v in values:
            seen.append(v)
            yield v

    got = rational_line(fed())
    want = _ref_line(refs)
    if want is None:
        assert got is None
        if any(refs):
            # the scan stops at the first value off the first nonzero's line
            first = next(r for r in refs if r)
            stop = next(i for i, r in enumerate(refs) if r and _ref_ratio(first, r) is None)
            assert len(seen) == stop + 1
        return
    base, ratios = got
    assert rational_map(base) == want[0] and base.den == 1
    assert [Fraction(p, q) for p, q in ratios] == want[1]
    assert all(q > 0 and math.gcd(p, q) == 1 for p, q in ratios)
    assert all(base.scale(p, q) == v for (p, q), v in zip(ratios, values))


def test_rational_line_rejects_mixed_tables(table):
    with pytest.raises(MixedSymbolTables):
        rational_line([table.pi(), SymbolTable().pi()])


# The formatters read the integer numerators; these copies of the
# rational-coefficient formatters they replaced are the reference.


def _reference_term_text(table, idx, coeff):
    if idx == 0:
        return str(coeff)
    name = table.name_of(idx)
    return name if coeff == 1 else f"{coeff}*{name}"


def _reference_format_scalar(table, coeffs):
    if not coeffs:
        return "0"
    parts = []
    for pos, idx in enumerate(sorted(coeffs, key=lambda i: (i == 0, i))):
        c = coeffs[idx]
        if pos == 0:
            parts.append(_reference_term_text(table, idx, c))
        elif c > 0:
            parts.append(f"+ {_reference_term_text(table, idx, c)}")
        else:
            parts.append(f"- {_reference_term_text(table, idx, -c)}")
    return " ".join(parts)


def _reference_format_area(table, coeffs):
    if not coeffs:
        return "0"
    parts = []
    for pos, pair in enumerate(sorted(coeffs, key=lambda p: (p == (0, 0), p[0] == 0, p))):
        c = coeffs[pair]
        names = [table.name_of(k) for k in pair if k != 0]
        body = "*".join([str(c if pos == 0 else abs(c))] + names)
        parts.append(body if pos == 0 else ("+ " if c > 0 else "- ") + body)
    return " ".join(parts)


_area_maps = st.dictionaries(st.sampled_from(_PAIRS), _rationals, max_size=5)


@given(scalar_maps=st.lists(_scalar_maps, max_size=6), area_maps=st.lists(_area_maps, max_size=6))
@settings(max_examples=200, deadline=None)
def test_formatters_match_the_rational_reference(scalar_maps, area_maps):
    table, _ = _ladder_table(Fraction(5, 2), Fraction(1, 100))
    for m in scalar_maps:
        ref = _ref(m)
        assert format_scalar(Scalar(table, m)) == _reference_format_scalar(table, ref)
    for m in area_maps:
        ref = _ref(m)
        assert format_area(Area(table, m)) == _reference_format_area(table, ref)


def test_formatters_on_signs_and_unit_coefficients(table):
    tau = table.declare_pi_symbol("tau")
    cases = [
        {}, {0: Fraction(-1)}, {1: Fraction(1)}, {1: Fraction(-1)}, {1: Fraction(-1), 0: Fraction(1)},
        {tau: Fraction(1), 1: Fraction(-2, 4), 0: Fraction(-6, 3)}, {0: Fraction(7, 10**20)},
    ]
    for m in cases:
        assert format_scalar(Scalar(table, m)) == _reference_format_scalar(table, _ref(m))
    area_cases = [
        {}, {(1, 1): Fraction(-1)}, {(0, 0): Fraction(1), (1, 1): Fraction(1)},
        {(0, 1): Fraction(-1), (1, tau): Fraction(3, 2), (0, 0): Fraction(-1, 2)},
    ]
    for m in area_cases:
        assert format_area(Area(table, m)) == _reference_format_area(table, _ref(m))
    assert format_scalar(Scalar(table, cases[4])) == "-1*PI + 1"
    assert format_area(Area(table, area_cases[1])) == "-1*PI*PI"


def test_shared_instances_and_no_op_arithmetic(table):
    s = table.parse("2/3*PI - 1")
    assert table.zero() is table.zero() and table.pi() is table.pi()
    assert table.pi(1) is table.pi() and table.rational(0) is table.zero()
    assert s.scale(1) is s and s.scale(Rat(1)) is s
    assert s.scale(0) is table.zero() and s * 0 is table.zero()
    assert s + table.zero() is s and s - table.zero() is s and table.zero() + s is s
    area = s * s
    assert area.scale(1) is area and area + area.scale(0) is area
    assert (s - s) is table.zero()
