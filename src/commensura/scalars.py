"""Exact scalars over a finite symbol basis.

A Scalar is a finite rational combination of basis symbols.  Two symbols are
always present: the rational unit ``1`` and ``PI``.  Users may declare more
(a decimal approximation with an explicit error radius, or another handle on
the built-in pi stream).  The declared symbols together with 1 are
*asserted* Q-linearly independent; that assertion is a trust assumption of
every equality decision below and is deliberately not re-derived here.

Equality is decided symbolically (equal coefficient maps).  Strict order is
decided exactly when every term of the difference is on the unit or a
PI-kind symbol and all its coefficients have one sign, which is then the
sign of the difference; otherwise it is decided numerically but soundly:
the difference is enclosed in a rational interval that is refined
until the sign is certain or the bit budget runs out, in which case the
comparison reports INDETERMINATE rather than guess.  Only PI-kind symbols
refine; a difference without them is decided at the first rung.  No
floating point enters any decision.

Products of Scalars live in a separate Area type whose basis is unordered
symbol pairs.  Areas support addition, rational scaling and the same
certified comparisons; they never multiply further.

Both types store integer numerators over one common denominator: ``num``
maps each basis key to a nonzero Python int and ``den`` is a positive int,
reduced so that gcd(den, *num.values()) == 1 (zero is ``({}, 1)``).  That
form is canonical, so equality and hashing read it directly, and all
arithmetic runs on ints with one normalisation per result; so does
parsing.  Rationals (``Rat``) appear only at the boundary: symbol
declarations, conversion from a map of rationals, and the ratios the
decisions return.  The formatters write each term from its numerator and
``den``.

This module also owns every rational-line decision: whether values are
rational multiples of one another (``commensurable``, ``pi_ratio``) and
the one line a list of values lies on (``rational_line``).

Instances are immutable after construction.  The only internal mutations
are caches: a monotone enclosure cache, which only ever shrinks intervals,
and each instance's hashable key, hash and formatted text, each written once
from its value, so concurrent readers stay sound.
"""

from __future__ import annotations

import re
from enum import Enum
from itertools import chain
from math import gcd, lcm
from typing import Iterable, Optional, Sequence

from ._rat import Rat, as_rat
from .errors import MixedSymbolTables, PrecisionExhausted

DEFAULT_PRECISION_BITS = 256
# enclosures build integers of about this many bits, so the budget is bounded
MAX_PRECISION_BITS = 65536
_LADDER_START = 64
# symbol kinds whose value is positive by construction: 1 and pi
_POSITIVE_KINDS = ("unit", "pi")

RatPair = tuple  # (lo, hi) rational interval
_ZERO = Rat(0)


class Comparison(Enum):
    LESS = "less"
    EQUAL = "equal"
    GREATER = "greater"
    INDETERMINATE = "indeterminate"


# ---------------------------------------------------------------------------
# pi enclosure
#
# Machin's identity pi = 16*atan(1/5) - 4*atan(1/239), with the alternating
# series bounded by its first omitted term.  All work is integer arithmetic
# at scale 2**(bits + guard); the bookkeeping below accounts for every floor
# division, so the returned interval is a true enclosure.  Successive calls
# are intersected with the best interval so far, which makes refinement
# nested by construction.
# ---------------------------------------------------------------------------


def _atan_inv_scaled(k: int, scale: int) -> tuple[int, int]:
    """Integer bounds [lo, hi] with atan(1/k)*scale in [lo, hi]."""
    ksq = k * k
    power = k  # k**(2i+1)
    i = 0
    acc = 0
    terms = 0
    while True:
        term = scale // ((2 * i + 1) * power)
        if i % 2 == 0:
            acc += term
        else:
            acc -= term
        terms += 1
        if term == 0:
            break
        power *= ksq
        i += 1
    # Each floor division under-counts by < 1, over terms of both signs, so
    # acc is within `terms` of the exact partial sum; the tail of the
    # alternating series is below the first omitted term, already < 1 here.
    slack = terms + 1
    return acc - slack, acc + slack


class _PiStream:
    """Shared, monotonically refining rational enclosure of pi."""

    def __init__(self) -> None:
        self._best: dict[int, RatPair] = {}
        self._widest: RatPair | None = None

    def enclosure(self, bits: int) -> RatPair:
        cached = self._best.get(bits)
        if cached is not None:
            return cached
        guard = 16
        scale = 1 << (bits + guard)
        lo5, hi5 = _atan_inv_scaled(5, scale)
        lo239, hi239 = _atan_inv_scaled(239, scale)
        lo_int = 16 * lo5 - 4 * hi239
        hi_int = 16 * hi5 - 4 * lo239
        lo = Rat(lo_int, scale)
        hi = Rat(hi_int, scale)
        if self._widest is not None:
            plo, phi = self._widest
            if plo > lo:
                lo = plo
            if phi < hi:
                hi = phi
        self._widest = (lo, hi)
        self._best[bits] = (lo, hi)
        return (lo, hi)


_PI = _PiStream()


class _Symbol:
    __slots__ = ("name", "kind", "value", "radius")

    def __init__(self, name, kind, value=None, radius=None):
        self.name = name
        self.kind = kind  # "unit" | "pi" | "decimal"; only "pi" refines with bits
        self.value = value
        self.radius = radius

    def enclosure(self, bits: int) -> RatPair:
        if self.kind == "unit":
            one = Rat(1)
            return (one, one)
        if self.kind == "pi":
            return _PI.enclosure(bits)
        return (self.value - self.radius, self.value + self.radius)


_NAME_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*\Z")
_DECIMAL_RE = re.compile(r"-?\d+(?:\.\d+)?\Z")


def _decimal_text(value) -> str:
    """Exact decimal rendering of a value with a 10-smooth denominator."""
    num, den = value.numerator, value.denominator
    if den == 1:
        return str(num)
    twos = fives = 0
    d = den
    while d % 2 == 0:
        d //= 2
        twos += 1
    while d % 5 == 0:
        d //= 5
        fives += 1
    if d != 1:
        raise ValueError("symbol approximation is not exactly decimal")
    scale = max(twos, fives)
    shifted = num * 10**scale // den
    sign = "-" if shifted < 0 else ""
    digits = str(abs(shifted)).rjust(scale + 1, "0")
    return f"{sign}{digits[:-scale]}.{digits[-scale:]}"


class SymbolTable:
    """Declaration context shared by every Scalar and Area built from it.

    Index 0 is the rational unit, index 1 is PI; user symbols follow in
    declaration order.  The table carries the precision budget of every
    comparison made on its values.
    """

    def __init__(self, precision_bits: int = DEFAULT_PRECISION_BITS):
        if precision_bits > MAX_PRECISION_BITS:
            raise ValueError(f"precision budget above {MAX_PRECISION_BITS} bits")
        if precision_bits < _LADDER_START:
            precision_bits = _LADDER_START
        self.precision_bits = precision_bits
        self._symbols: list[_Symbol] = [
            _Symbol("1", "unit"),
            _Symbol("PI", "pi"),
        ]
        self._index: dict[str, int] = {"1": 0, "PI": 1}
        # shared immutable instances: zero of each type, and PI
        self._zeros = {Scalar: Scalar._make(self, {}, 1), Area: Area._make(self, {}, 1)}
        self._pi = Scalar._make(self, {1: 1}, 1)

    # -- declarations -------------------------------------------------------

    def declare_decimal_symbol(self, name: str, approx, radius) -> int:
        approx = as_rat(approx)
        radius = as_rat(radius)
        if radius <= 0:
            raise ValueError("error radius must be positive")
        return self._add(_Symbol(name, "decimal", value=approx, radius=radius))

    def declare_pi_symbol(self, name: str) -> int:
        """A user-named symbol backed by the built-in pi refinement.

        Declaring one *and* mixing it with PI in the same expression breaks
        the linear-independence trust assumption; comparisons will then
        honestly report INDETERMINATE instead of deciding.
        """
        return self._add(_Symbol(name, "pi"))

    def declare_line(self, parts: Sequence[str]) -> int:
        """Declare the symbol of one split ``symbol`` line of a text format:
        ``symbol NAME pi`` or ``symbol NAME <decimal> err <rational>``.

        Raises ValueError on a malformed line; the decimal must be a plain
        decimal literal, so symbol_lines can write it back exactly.
        """
        if len(parts) == 3 and parts[2] == "pi":
            return self.declare_pi_symbol(parts[1])
        if len(parts) == 5 and parts[3] == "err":
            if not _DECIMAL_RE.match(parts[2]):
                raise ValueError(f"bad decimal {parts[2]!r}")
            err = parse_scalar(self, parts[4])
            if set(err.num) - {0}:
                raise ValueError("error radius must be rational")
            return self.declare_decimal_symbol(
                parts[1], Rat(parts[2]), Rat(err.num.get(0, 0), err.den)
            )
        raise ValueError("expected 'symbol NAME pi' or 'symbol NAME <decimal> err <rational>'")

    def symbol_lines(self) -> list[str]:
        """One ``symbol`` line per user symbol, in declaration order."""
        lines = []
        for sym in self.user_symbols():
            if sym.kind == "pi":
                lines.append(f"symbol {sym.name} pi")
            else:
                lines.append(
                    f"symbol {sym.name} {_decimal_text(sym.value)} err {sym.radius}"
                )
        return lines

    def _add(self, sym: _Symbol) -> int:
        if not _NAME_RE.match(sym.name):
            raise ValueError(f"bad symbol name: {sym.name!r}")
        if sym.name in self._index:
            raise ValueError(f"duplicate symbol: {sym.name}")
        self._symbols.append(sym)
        idx = len(self._symbols) - 1
        self._index[sym.name] = idx
        return idx

    # -- introspection ------------------------------------------------------

    def user_symbols(self) -> list[_Symbol]:
        return self._symbols[2:]

    def index_of(self, name: str) -> int:
        try:
            return self._index[name]
        except KeyError:
            raise KeyError(f"unknown symbol: {name}") from None

    def name_of(self, idx: int) -> str:
        return self._symbols[idx].name

    def enclosure(self, idx: int, bits: int) -> RatPair:
        return self._symbols[idx].enclosure(bits)

    # -- constructors -------------------------------------------------------

    def zero(self) -> "Scalar":
        return self._zeros[Scalar]

    def rational(self, value) -> "Scalar":
        return self._term(0, value)

    def pi(self, coeff=1) -> "Scalar":
        return self._term(1, coeff)

    def symbol(self, name: str, coeff=1) -> "Scalar":
        return self._term(self.index_of(name), coeff)

    def _term(self, idx: int, coeff) -> "Scalar":
        p, q = _ratio(coeff)
        if not p:
            return self._zeros[Scalar]
        if idx == 1 and p == q == 1:
            return self._pi
        return Scalar._make(self, {idx: p}, q)

    def parse(self, text: str) -> "Scalar":
        return parse_scalar(self, text)

    # -- decisions ----------------------------------------------------------

    def _ladder(self, coeffs: dict, pairs: bool = False) -> Comparison:
        """The one certified sign decision, for a nonzero coefficient map.

        Callers pass integer numerators: a positive multiple of the value
        has its sign, and every enclosure below scales exactly with it, so
        each rung decides just as it would on the rational map.

        A map whose every key is a known-positive symbol (the unit or a
        PI-kind symbol; for an Area, a pair of them) and whose coefficients
        all have one sign has that sign, exactly and without an enclosure:
        it is a sum of positive values, each times a coefficient of that
        sign.  Every rung would agree, as every PI enclosure lies above 3.
        Anything else is enclosed at 64 bits, then at doubled budgets up to
        the table's ``precision_bits``, until the enclosure excludes zero.
        Scalar keys are symbol indices, Area keys (``pairs``) index pairs.
        Only PI-kind symbols narrow with more bits, so a map without them is
        decided, or left INDETERMINATE, at the first rung.
        """
        symbols = self._symbols
        positive = None  # whether the coefficients so far are positive
        for key, c in coeffs.items():
            if pairs:
                i, j = key
                if symbols[i].kind not in _POSITIVE_KINDS or symbols[j].kind not in _POSITIVE_KINDS:
                    break
            elif symbols[key].kind not in _POSITIVE_KINDS:
                break
            if positive is None:
                positive = c > 0
            elif (c > 0) is not positive:
                break
        else:
            return Comparison.GREATER if positive else Comparison.LESS
        interval = _product_interval if pairs else _linear_interval
        cur = _LADDER_START
        while True:
            lo, hi = interval(self, coeffs, cur)
            if lo > 0:
                return Comparison.GREATER
            if hi < 0:
                return Comparison.LESS
            indices = chain.from_iterable(coeffs) if pairs else coeffs
            if cur >= self.precision_bits or all(symbols[i].kind != "pi" for i in indices):
                return Comparison.INDETERMINATE
            cur = min(cur * 2, self.precision_bits)

    def compare(self, a: "Scalar", b: "Scalar") -> Comparison:
        # the numerators of a - b: its value times a positive den
        diff = (a - b).num
        if not diff:
            return Comparison.EQUAL
        return self._ladder(diff)

    def sign(self, a: "Scalar") -> Comparison:
        if not a.num:
            return Comparison.EQUAL
        return self._ladder(a.num)

    def require(self, cmp: Comparison, context: str = "") -> Comparison:
        if cmp is Comparison.INDETERMINATE:
            raise PrecisionExhausted(context or "comparison undecided within bit budget")
        return cmp

    def approx(self, a: "Scalar"):
        """Rational midpoint of the first rung's enclosure; presentation only."""
        lo, hi = _linear_interval(self, a.num, _LADDER_START)
        return (lo + hi) / (2 * a.den)


def _linear_interval(table: SymbolTable, coeffs: dict, bits: int) -> RatPair:
    """Enclosure of a Scalar's value at one rung."""
    lo = Rat(0)
    hi = Rat(0)
    for idx, c in coeffs.items():
        slo, shi = table.enclosure(idx, bits)
        if c >= 0:
            lo += c * slo
            hi += c * shi
        else:
            lo += c * shi
            hi += c * slo
    return lo, hi


def _product_interval(table: SymbolTable, coeffs: dict, bits: int) -> RatPair:
    """Enclosure of an Area's value at one rung: per pair, the product of
    the two symbol enclosures."""
    lo = Rat(0)
    hi = Rat(0)
    for (i, j), c in coeffs.items():
        ilo, ihi = table.enclosure(i, bits)
        jlo, jhi = table.enclosure(j, bits)
        products = (ilo * jlo, ilo * jhi, ihi * jlo, ihi * jhi)
        plo, phi = min(products), max(products)
        if c >= 0:
            lo += c * plo
            hi += c * phi
        else:
            lo += c * phi
            hi += c * plo
    return lo, hi


def _check_same_table(a, b) -> None:
    if a.table is not b.table:
        raise MixedSymbolTables("operands come from different symbol tables")


def _ratio(value) -> tuple[int, int]:
    """(numerator, denominator) of an exact rational, as Python ints."""
    if type(value) is int:
        return value, 1
    value = as_rat(value)
    return value.numerator, value.denominator


def sum_terms(items: Iterable, start):
    """``start`` plus every item: Scalars, or Areas, of start's table.

    The terms accumulate as integers over the lcm of the denominators seen
    so far and are reduced once at the end; the result has start's type.
    """
    num = dict(start.num)
    den = start.den
    for item in items:
        _check_same_table(start, item)
        m = 1
        if item.den != den:
            common = lcm(den, item.den)
            if common != den:
                up = common // den
                num = {k: v * up for k, v in num.items()}
                den = common
            m = den // item.den
        for k, v in item.num.items():
            if m != 1:
                v *= m
            num[k] = num[k] + v if k in num else v
    return type(start)._reduced(start.table, {k: v for k, v in num.items() if v}, den)


class _Combination:
    """Immutable combination of basis keys with rational coefficients, kept
    as integer numerators ``num`` over one denominator ``den`` in the
    canonical form of the module docstring.  The hashable key, its hash
    and the formatted text are kept on the instance once computed."""

    __slots__ = ("table", "num", "den", "_key", "_hash", "_text")

    def __init__(self, table: SymbolTable, coeffs: dict):
        """From a map key -> rational; zero coefficients are dropped."""
        terms = [(k, _ratio(v)) for k, v in coeffs.items() if v]
        den = lcm(*(q for _, (_, q) in terms))
        self.table = table
        self.num = {k: p * (den // q) for k, (p, q) in terms}
        self.den = den
        self._key = None
        self._hash = None
        self._text = None

    @classmethod
    def _make(cls, table: SymbolTable, num: dict, den: int):
        """An instance from a map already in canonical form."""
        obj = cls.__new__(cls)
        obj.table = table
        obj.num = num
        obj.den = den
        obj._key = None
        obj._hash = None
        obj._text = None
        return obj

    @classmethod
    def _reduced(cls, table: SymbolTable, num: dict, den: int):
        """An instance from nonzero numerators over a positive den."""
        if not num:
            return table._zeros[cls]
        if den != 1:
            g = gcd(den, *num.values())
            if g != 1:
                num = {k: v // g for k, v in num.items()}
                den //= g
        return cls._make(table, num, den)

    def key(self) -> tuple:
        """Hashable canonical form."""
        if self._key is None:
            self._key = (self.den, tuple(sorted(self.num.items())))
        return self._key

    def is_zero(self) -> bool:
        return not self.num

    def _plus(self, other, sign: int):
        """self + sign * other."""
        _check_same_table(self, other)
        if not other.num:
            return self
        if not self.num:
            return other if sign > 0 else -other
        den = lcm(self.den, other.den)
        ma, mb = den // self.den, sign * (den // other.den)
        num = dict(self.num) if ma == 1 else {k: v * ma for k, v in self.num.items()}
        for k, v in other.num.items():
            v *= mb
            if k in num:
                nv = num[k] + v
                if nv:
                    num[k] = nv
                else:
                    del num[k]
            else:
                num[k] = v
        return self._reduced(self.table, num, den)

    def __add__(self, other):
        return self._plus(other, 1)

    def __sub__(self, other):
        return self._plus(other, -1)

    def __neg__(self):
        return self._make(self.table, {k: -v for k, v in self.num.items()}, self.den)

    def scale(self, factor, den: int = 1):
        """self times factor/den, for an exact rational and a nonzero int."""
        p, q = _ratio(factor)
        if den != 1:
            if den < 0:
                p, den = -p, -den
            g = gcd(p, den)
            p, q = p // g, q * (den // g)
        if not p:
            return self.table._zeros[type(self)]
        if q == 1:
            if p == 1:
                return self
            if p == -1:
                return -self
        # with p/q and num/den both reduced, these two gcds reduce the product
        g = gcd(p, self.den)
        h = gcd(q, *self.num.values()) if q != 1 else 1
        m = p // g
        num = {k: v // h * m for k, v in self.num.items()}
        return self._make(self.table, num, self.den // g * (q // h))

    def __eq__(self, other) -> bool:
        if self is other:  # shared instances: edge lengths, zeros, PI
            return True
        if type(other) is not type(self):
            return NotImplemented
        return self.table is other.table and self.den == other.den and self.num == other.num

    def __hash__(self) -> int:
        h = self._hash
        if h is None:
            h = self._hash = hash((id(self.table), self.key()))
        return h


class Scalar(_Combination):
    """Immutable rational combination of table symbols."""

    __slots__ = ()

    def __mul__(self, other):
        if isinstance(other, Scalar):
            _check_same_table(self, other)
            num: dict = {}
            for i, ci in self.num.items():
                for j, cj in other.num.items():
                    key = (i, j) if i <= j else (j, i)
                    cc = ci * cj
                    num[key] = num[key] + cc if key in num else cc
            num = {k: v for k, v in num.items() if v}
            return Area._reduced(self.table, num, self.den * other.den)
        return self.scale(other)

    __rmul__ = __mul__

    def __truediv__(self, factor):
        p, q = _ratio(factor)
        return self.scale(Rat(q, p))

    def __repr__(self) -> str:
        return f"Scalar({format_scalar(self)})"


class Area(_Combination):
    """Rational combination of unordered symbol pairs (Scalar x Scalar)."""

    __slots__ = ()

    def __mul__(self, factor):
        if isinstance(factor, (Scalar, Area)):
            raise TypeError("Area supports only rational scaling")
        return self.scale(factor)

    __rmul__ = __mul__

    def __repr__(self) -> str:
        return f"Area({format_area(self)})"


def compare_area(a: Area, b: Area) -> Comparison:
    """Certified comparison of Areas via products of symbol enclosures."""
    diff = (a - b).num
    if not diff:
        return Comparison.EQUAL
    return a.table._ladder(diff, pairs=True)


# ---------------------------------------------------------------------------
# commensurability
# ---------------------------------------------------------------------------




def _parallel(an: dict, bn: dict) -> bool:
    """Whether two nonzero numerator maps are Q-parallel (equal support and
    equal cross-products against one term): the one test on coefficients
    behind every decision below, valid under the independence assumption."""
    if an.keys() != bn.keys():
        return False
    if len(an) == 1:
        return True
    idx = next(iter(an))
    x, y = an[idx], bn[idx]
    return all(bn[k] * x == v * y for k, v in an.items())


def commensurable(a: Scalar, b: Scalar) -> Optional[object]:
    """Exact rational ratio rho with b == rho * a, or None.  Raises when
    both are zero."""
    _check_same_table(a, b)
    an, bn = a.num, b.num
    if not an and not bn:
        raise ValueError("commensurable ratio of zero with zero is undefined")
    if not an:
        return None
    if not bn:
        return _ZERO
    if not _parallel(an, bn):
        return None
    idx = next(iter(an))
    return Rat(bn[idx] * a.den, an[idx] * b.den)


def rational_line(values: Iterable[Scalar]) -> Optional[tuple]:
    """(base, ratios) when every value lies on one rational line, else None.

    The line is that of the first nonzero value, and base is its canonical
    form: the primitive integer vector on that direction whose term on the
    lowest symbol index is positive.  ratios holds, per value, the reduced
    pair (p, q) of ints with value == (p/q) * base; zero is (0, 1).  The
    scan stops at the first value off the line.  None also when no value
    is nonzero.
    """
    first = base = None
    ratios = []
    for v in values:
        vn = v.num
        if not vn:
            ratios.append((0, 1))
            continue
        if first is None:
            first = v
            key = min(vn)
            g = gcd(*vn.values())
            if vn[key] < 0:
                g = -g
            base = {k: c // g for k, c in vn.items()}
        else:
            _check_same_table(first, v)
            if not _parallel(base, vn):
                return None
        # vn is an integer multiple of the primitive base, coprime to v.den
        ratios.append((vn[key] // base[key], v.den))
    if first is None:
        return None
    return Scalar._make(first.table, base, 1), ratios


def pi_ratio(a: Scalar) -> Optional[object]:
    """Ratio a / PI when a is a rational multiple of PI, else None."""
    return commensurable(a.table.pi(), a)


# ---------------------------------------------------------------------------
# literal grammar:  term (("+"|"-") term)*
#   term     := rational | rational "*" SYMBOL | SYMBOL
#   rational := int | int "/" int          (leading sign allowed)
# ---------------------------------------------------------------------------

_TOKEN_RE = re.compile(
    r"\s*(?:(?P<rat>-?\d+(?:\s*/\s*\d+)?)|(?P<sym>[A-Za-z_][A-Za-z0-9_]*)|(?P<op>[+\-*]))"
)


def _tokenize(text: str) -> list[tuple[str, str]]:
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if not m or m.end() == pos:
            rest = text[pos:].strip()
            if not rest:
                break
            raise ValueError(f"bad scalar literal near {rest[:20]!r}")
        kind = m.lastgroup  # exactly one named group matches
        val = m.group(kind)
        tokens.append((kind, val.replace(" ", "") if kind == "rat" else val))
        pos = m.end()
    return tokens


def _parse_rat(text: str) -> tuple[int, int]:
    """(p, q) ints with the literal equal to p/q and q positive."""
    if "/" in text:
        num, den = text.split("/")
        d = int(den)
        if d == 0:
            raise ValueError("zero denominator in rational literal")
        return int(num), d
    return int(text), 1


def parse_scalar(table: SymbolTable, text: str) -> Scalar:
    """The Scalar a literal denotes.  Terms accumulate as int numerators
    over the lcm of their denominators, reduced once at the end."""
    tokens = _tokenize(text)
    if not tokens:
        raise ValueError("empty scalar literal")
    num: dict = {}
    den = 1
    i = 0
    sign = 1
    first = True
    while i < len(tokens):
        if not first:
            kind, val = tokens[i]
            if kind != "op" or val not in "+-":
                raise ValueError(f"expected + or - at token {val!r}")
            sign = 1 if val == "+" else -1
            i += 1
        kind, val = tokens[i] if i < len(tokens) else (None, None)
        if kind == "rat":
            p, q = _parse_rat(val)
            i += 1
            if i < len(tokens) and tokens[i] == ("op", "*"):
                i += 1
                if i >= len(tokens) or tokens[i][0] != "sym":
                    raise ValueError("expected symbol after '*'")
                idx = table.index_of(tokens[i][1])
                i += 1
            else:
                idx = 0
        elif kind == "sym":
            p, q = 1, 1
            idx = table.index_of(val)
            i += 1
        else:
            raise ValueError("expected a term")
        if q != den:
            common = lcm(den, q)
            if common != den:
                up = common // den
                num = {k: v * up for k, v in num.items()}
                den = common
            p *= den // q
        p *= sign
        num[idx] = num[idx] + p if idx in num else p
        first = False
    return Scalar._reduced(table, {k: v for k, v in num.items() if v}, den)


def _ratio_text(n: int, den: int) -> str:
    """``n/den`` in lowest terms, as ``str`` writes a rational: ``p/q``, or
    ``p`` when the denominator reduces to 1."""
    g = gcd(n, den)
    return str(n // g) if g == den else f"{n // g}/{den // g}"


def format_compact(a: Scalar) -> str:
    """The canonical literal without spaces, for space-separated formats."""
    return format_scalar(a).replace(" ", "")


def format_scalar(a: Scalar) -> str:
    """Canonical literal; symbols in table order, the rational part last.
    Written once per instance."""
    text = a._text
    if text is None:
        text = a._text = _scalar_text(a)
    return text


def _scalar_text(a: Scalar) -> str:
    if not a.num:
        return "0"
    num, den, table = a.num, a.den, a.table
    parts = []
    for idx in sorted(num, key=lambda i: (i == 0, i)):
        n = num[idx]
        if parts:
            lead = "+ " if n > 0 else "- "
            n = abs(n)
        else:
            lead = ""
        text = _ratio_text(n, den)
        if idx:
            name = table.name_of(idx)
            text = name if text == "1" else f"{text}*{name}"
        parts.append(lead + text)
    return " ".join(parts)


def format_area(a: Area) -> str:
    """Readable pair-basis form, e.g. ``16/9*PI*PI``; reports only.
    Written once per instance."""
    text = a._text
    if text is None:
        text = a._text = _area_text(a)
    return text


def _area_text(a: Area) -> str:
    if not a.num:
        return "0"
    num, den, table = a.num, a.den, a.table
    parts = []
    for pair in sorted(num, key=lambda p: (p == (0, 0), p[0] == 0, p)):
        n = num[pair]
        if parts:
            lead = "+ " if n > 0 else "- "
            n = abs(n)
        else:
            lead = ""
        body = "*".join([_ratio_text(n, den)] + [table.name_of(k) for k in pair if k != 0])
        parts.append(lead + body)
    return " ".join(parts)
