"""Abstract measure tilings and linear-functional certificates.

A measure tiling is the combinatorial shadow of a box tiling of a product:
finitely many X elements and Y elements with positive measures, and pieces
(A_i, B_i) that are index sets into X and Y.  The tiling axioms say every
(x, y) pair is covered by exactly one piece; the square axiom adds
mu(A_i) = mu(B_i).

Exact coverage alone forces the product identity

    sum_i f(mu A_i) * f(mu B_i)  =  f(mu X) * f(mu Y)

for every Q-linear functional f on measures, because both sides expand to
the same double sum over covered pairs.  When all pieces are squares the
left side is a sum of squares of rationals; choosing f cleverly then turns
an incommensurability in the data into the absurdity "negative = sum of
squares", and re-running the verifier pinpoints which axiom actually broke.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import lcm
from typing import Iterable, Optional, Sequence

from ._rat import Rat, as_rat
from .errors import AuditFailure, GraphFormatError, InternalInconsistency
from .linalg import solve
from .scalars import (
    Area,
    Comparison,
    Scalar,
    SymbolTable,
    commensurable,
    compare_area,
    format_scalar,
    parse_scalar,
    rational_line,
    sum_terms,
)


_ZERO = Rat(0)


class MeasureTiling:
    def __init__(
        self,
        table: SymbolTable,
        x_elements: Sequence[tuple[str, Scalar]],
        y_elements: Sequence[tuple[str, Scalar]],
        pieces: Sequence[tuple[Iterable[int], Iterable[int]]],
        labels: Optional[Sequence[str]] = None,
    ):
        self.table = table
        self.x_names = [n for n, _ in x_elements]
        self.x_measures = [m for _, m in x_elements]
        self.y_names = [n for n, _ in y_elements]
        self.y_measures = [m for _, m in y_elements]
        for name, m in list(x_elements) + list(y_elements):
            if table.sign(m) is not Comparison.GREATER:
                raise ValueError(f"element {name} must have positive measure")
        self.pieces = []
        nx, ny = len(self.x_names), len(self.y_names)
        for a, b in pieces:
            a, b = frozenset(a), frozenset(b)
            if not a or not b:
                raise ValueError("piece with empty side")
            if min(a) < 0 or min(b) < 0 or max(a) >= nx or max(b) >= ny:
                raise ValueError("piece references unknown element")
            self.pieces.append((a, b))
        self.labels = list(labels) if labels else [f"piece{i}" for i in range(len(self.pieces))]
        if len(self.labels) != len(self.pieces):
            raise ValueError("one label per piece")

    def mu_x(self) -> Scalar:
        return sum_terms(self.x_measures, self.table.zero())

    def mu_y(self) -> Scalar:
        return sum_terms(self.y_measures, self.table.zero())

    def mu_a(self, i: int) -> Scalar:
        return sum_terms((self.x_measures[j] for j in self.pieces[i][0]), self.table.zero())

    def mu_b(self, i: int) -> Scalar:
        return sum_terms((self.y_measures[k] for k in self.pieces[i][1]), self.table.zero())


# ---------------------------------------------------------------------------
# verification
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MeasureVerdict:
    status: str  # "ok" | "uncovered" | "doubly-covered" | "not-square"
    x_index: Optional[int] = None
    y_index: Optional[int] = None
    piece_indices: tuple[int, ...] = ()

    @property
    def ok(self) -> bool:
        return self.status == "ok"

    def as_report(self) -> dict:
        return {
            "status": self.status,
            "x_index": self.x_index,
            "y_index": self.y_index,
            "pieces": list(self.piece_indices),
        }


def _functional_report(f: dict[int, Rat]) -> dict:
    return {str(k): str(v) for k, v in sorted(f.items())}


def verify_measure_tiling(t: MeasureTiling, skip_square: frozenset[int] = frozenset()) -> MeasureVerdict:
    """Exact-coverage check, then the square axiom piecewise.

    skip_square names pieces allowed to be non-square (audited rectangles).
    """
    nx, ny = len(t.x_names), len(t.y_names)
    # one row of cover counts at a time, from the pieces over each X element
    over: list[list[int]] = [[] for _ in range(nx)]
    for i, (a, _) in enumerate(t.pieces):
        for j in a:
            over[j].append(i)
    for j in range(nx):
        row = [0] * ny
        for i in over[j]:
            for k in t.pieces[i][1]:
                row[k] += 1
        for k, c in enumerate(row):
            if c == 0:
                return MeasureVerdict("uncovered", x_index=j, y_index=k)
            if c > 1:
                covering = tuple(i for i in over[j] if k in t.pieces[i][1])
                return MeasureVerdict("doubly-covered", x_index=j, y_index=k, piece_indices=covering)
    for i in range(len(t.pieces)):
        if i in skip_square:
            continue
        if t.mu_a(i) != t.mu_b(i):
            return MeasureVerdict("not-square", piece_indices=(i,))
    return MeasureVerdict("ok")


# ---------------------------------------------------------------------------
# functionals
# ---------------------------------------------------------------------------
#
# A functional is a map from symbol indices to rationals, extended linearly
# to Scalars; indices it does not mention are sent to zero.


def apply_functional(f: dict[int, Rat], s: Scalar) -> Rat:
    total = _ZERO
    for idx, n in s.num.items():
        fv = f.get(idx)
        if fv is not None:
            total += n * fv
    return total / s.den


def _element_values(fnum: dict[int, int], measures: Sequence[Scalar]) -> tuple[list[int], int]:
    """(values, den) with f(measures[i]) == values[i] / (den * fden), for
    f given as int numerators ``fnum`` over a positive ``fden``."""
    den = lcm(*(m.den for m in measures))
    values = []
    for m in measures:
        total = 0
        for idx, n in m.num.items():
            c = fnum.get(idx)
            if c:
                total += n * c
        values.append(total * (den // m.den))
    return values, den


def _piece_products(t: MeasureTiling, f: dict[int, Rat]) -> tuple[int, list[int], int]:
    """f(muX)*f(muY) and every f(muA_i)*f(muB_i), as int numerators over one
    positive denominator.  f is evaluated once per element; by linearity a
    piece's value is the sum of its elements' values."""
    fden = lcm(*(v.denominator for v in f.values()))
    fnum = {idx: v.numerator * (fden // v.denominator) for idx, v in f.items()}
    fx, dx = _element_values(fnum, t.x_measures)
    fy, dy = _element_values(fnum, t.y_measures)
    products = [sum(fx[j] for j in a) * sum(fy[k] for k in b) for a, b in t.pieces]
    return sum(fx) * sum(fy), products, dx * dy * fden * fden


def functional_identity(t: MeasureTiling, f: dict[int, Rat]) -> tuple[Rat, Rat]:
    """(f(muX)*f(muY), sum_i f(muA_i)*f(muB_i)); equal under exact coverage."""
    lhs, products, den = _piece_products(t, f)
    return Rat(lhs, den), Rat(sum(products), den)


def solve_functional(equations: list[tuple[Scalar, Rat]]) -> dict[int, Rat]:
    """Least-support rational solution of f(s_k) = c_k; free variables zero.

    The unknowns are f at every symbol index the equations mention, and the
    solution is keyed by those indices.  Equation k is multiplied through by
    the denominator of s_k, so its row is s_k's integer numerators.
    """
    cols = sorted({i for s, _ in equations for i in s.num})
    columns = [[s.num.get(c, 0) for s, _ in equations] for c in cols]
    (x,) = solve(columns, [[as_rat(rhs) * s.den for s, rhs in equations]])
    if x is None:
        raise ValueError("inconsistent functional constraints")
    return dict(zip(cols, x))


# ---------------------------------------------------------------------------
# the square-tiling dichotomy
# ---------------------------------------------------------------------------


@dataclass
class CommensurableVerdict:
    """Everything in sight is a rational multiple of one base value."""

    base: Scalar
    x_ratios: list[Rat]
    y_ratios: list[Rat]

    def as_report(self) -> dict:
        return {
            "verdict": "commensurable",
            "base": format_scalar(self.base),
            "x_ratios": [str(r) for r in self.x_ratios],
            "y_ratios": [str(r) for r in self.y_ratios],
        }


@dataclass
class DehnCertificate:
    """A functional refuting the square-tiling axioms for this data."""

    functional: dict[int, Rat]
    lhs: Rat  # f(muX) * f(muY)
    piece_products: list[Rat]  # f(muA_i) * f(muB_i)
    violated: MeasureVerdict

    def as_report(self) -> dict:
        return {
            "verdict": "certificate",
            "functional": _functional_report(self.functional),
            "lhs": str(self.lhs),
            "piece_products": [str(x) for x in self.piece_products],
            "violated": self.violated.as_report(),
        }


def dehn_test(t: MeasureTiling):
    """CommensurableVerdict when all measures share one rational direction,
    else a DehnCertificate whose functional makes the square axioms absurd.
    """
    line = rational_line(t.x_measures + t.y_measures)
    if line is not None:
        base, ratios = line
        ratios = [Rat(p, q) for p, q in ratios]
        nx = len(t.x_measures)
        return CommensurableVerdict(base, ratios[:nx], ratios[nx:])

    mu_x, mu_y = t.mu_x(), t.mu_y()
    if commensurable(mu_x, mu_y) is None:
        f = solve_functional([(mu_x, Rat(1)), (mu_y, Rat(-1))])
    else:
        target = None
        for i in range(len(t.pieces)):
            if commensurable(t.mu_a(i), mu_x) is None:
                target = i
                break
        if target is None:
            raise InternalInconsistency(
                "mixed-direction measures but every piece is parallel to the "
                "total; the data does not decide commensurability"
            )
        f = solve_functional([(mu_x, Rat(0)), (t.mu_a(target), Rat(1))])
    # under the axioms the piece products are squares summing to lhs, yet
    # lhs is negative or smaller than one of them; some axiom must fail
    violated = verify_measure_tiling(t)
    if violated.ok:
        raise InternalInconsistency(
            "functional contradiction against a tiling that verifies clean"
        )
    lhs, products, den = _piece_products(t, f)
    return DehnCertificate(f, Rat(lhs, den), [Rat(p, den) for p in products], violated)


# ---------------------------------------------------------------------------
# the two-rectangle variant
# ---------------------------------------------------------------------------


@dataclass
class QRCommensurable:
    ratio: Rat  # q as a multiple of r

    def as_report(self) -> dict:
        return {"verdict": "qr-commensurable", "ratio": str(self.ratio)}


@dataclass
class DehnPlusCertificate:
    functional: dict[int, Rat]
    f_mu_x: Rat  # forced to -2
    f_mu_y: Rat  # forced to 0
    rect_products: list[Rat]  # 2 - a/2 each
    designated_square_sum: Rat  # sum of rho_i^2
    designated_bound: Rat  # a - 4, strictly exceeded
    violated: MeasureVerdict

    def as_report(self) -> dict:
        return {
            "verdict": "certificate",
            "functional": _functional_report(self.functional),
            "f_mu_x": str(self.f_mu_x),
            "f_mu_y": str(self.f_mu_y),
            "rect_products": [str(x) for x in self.rect_products],
            "designated_square_sum": str(self.designated_square_sum),
            "designated_bound": str(self.designated_bound),
            "violated": self.violated.as_report(),
        }


def dehn_plus_test(t: MeasureTiling, q: Scalar, r: Scalar, a, designated: Sequence[int]):
    """Decide q versus r from a verified two-rectangle tiling.

    The caller asserts: totals muX = 2q + a*r and muY = q + (a/2 - 1)*r,
    pieces 0 and 1 are r by (q + r) rectangles, everything else is square,
    and the designated squares are rational multiples rho_i of r with
    sum rho_i^2 strictly above a - 4.  Those claims are audited here and
    an AuditFailure names the first broken clause.
    """
    table = t.table
    a = as_rat(a)
    designated = sorted(set(designated))

    # every measure once; kept local, since callers hold many tilings
    mu_x, mu_y = t.mu_x(), t.mu_y()
    mu_a = [t.mu_a(i) for i in range(len(t.pieces))]
    mu_b = [t.mu_b(i) for i in range(len(t.pieces))]
    if mu_x != q.scale(2) + r.scale(a):
        raise AuditFailure(1, "muX is not 2q + a*r")
    if mu_y != q + r.scale(a / 2 - 1):
        raise AuditFailure(1, "muY is not q + (a/2 - 1)*r")

    want = {r.key(), (q + r).key()}
    for i in (0, 1):
        if i >= len(t.pieces):
            raise AuditFailure(2, "missing rectangle piece")
        got = {mu_a[i].key(), mu_b[i].key()}
        if got != want:
            raise AuditFailure(2, f"piece {i} is not an r by q+r rectangle")

    for i in range(2, len(t.pieces)):
        if mu_a[i] != mu_b[i]:
            raise AuditFailure(3, f"piece {i} is not square")

    rho: dict[int, Rat] = {}
    for i in designated:
        if i < 2:
            raise AuditFailure(4, "designated index points at a rectangle")
        ratio = commensurable(r, mu_a[i])
        if ratio is None:
            raise AuditFailure(4, f"designated piece {i} is not commensurable with r")
        rho[i] = ratio
    square_sum = sum_terms((mu_a[i] * mu_a[i] for i in designated), Area(table, {}))
    bound = (r * r).scale(a - 4)
    cmp = table.require(
        compare_area(square_sum, bound), "designated square bound undecidable"
    )
    if cmp is not Comparison.GREATER:
        raise AuditFailure(4, "designated squares do not strictly exceed (a - 4) r^2")

    ratio_qr = commensurable(r, q)
    if ratio_qr is not None:
        return QRCommensurable(ratio_qr)

    f = solve_functional([(q, a / 2 - 1), (r, Rat(-1))])
    f_mu_x = apply_functional(f, mu_x)
    f_mu_y = apply_functional(f, mu_y)
    if f_mu_x != -2 or f_mu_y != 0:
        raise InternalInconsistency("functional does not reproduce the audited totals")
    rect_products = [
        apply_functional(f, mu_a[i]) * apply_functional(f, mu_b[i]) for i in (0, 1)
    ]
    if any(p != 2 - a / 2 for p in rect_products):
        raise InternalInconsistency("rectangle contributions drifted from 2 - a/2")
    rho_sq = Rat(0)
    for i in designated:
        rho_sq += rho[i] * rho[i]
    if not rho_sq > a - 4:
        raise InternalInconsistency("designated ratio bound lost in translation")
    violated = verify_measure_tiling(t, skip_square=frozenset({0, 1}))
    if violated.ok:
        raise InternalInconsistency(
            "incommensurable q, r against a tiling that verifies clean"
        )
    return DehnPlusCertificate(
        functional=f,
        f_mu_x=f_mu_x,
        f_mu_y=f_mu_y,
        rect_products=rect_products,
        designated_square_sum=rho_sq,
        designated_bound=a - 4,
        violated=violated,
    )


# ---------------------------------------------------------------------------
# text format
# ---------------------------------------------------------------------------
#
#   symbol NAME pi
#   symbol NAME <decimal> err <rational>
#   space X x1=<scalar> x2=<scalar> ...
#   space Y y1=<scalar> ...
#   piece A={x1,x3} B={y2}


def parse_measure_tiling(text: str, precision_bits: int | None = None) -> MeasureTiling:
    from .scalars import DEFAULT_PRECISION_BITS

    table = SymbolTable(DEFAULT_PRECISION_BITS if precision_bits is None else precision_bits)
    spaces: dict[str, list[tuple[str, Scalar]]] = {}
    piece_specs: list[tuple[list[str], list[str]]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        try:
            if parts[0] == "symbol":
                table.declare_line(parts)
            elif parts[0] == "space":
                if len(parts) < 3 or parts[1] not in ("X", "Y"):
                    raise ValueError("expected 'space X|Y name=<scalar> ...'")
                if parts[1] in spaces:
                    raise ValueError(f"duplicate space {parts[1]}")
                elems = {}
                for item in parts[2:]:
                    name, _, lit = item.partition("=")
                    if not lit:
                        raise ValueError(f"expected name=value, got {item!r}")
                    if name in elems:
                        raise ValueError(f"duplicate element {name} in space {parts[1]}")
                    elems[name] = parse_scalar(table, lit)
                spaces[parts[1]] = list(elems.items())
            elif parts[0] == "piece":
                sides = {}
                for item in parts[1:]:
                    side, _, names = item.partition("=")
                    if side not in ("A", "B") or not names.startswith("{") or not names.endswith("}"):
                        raise ValueError(f"expected A={{...}} B={{...}}, got {item!r}")
                    if side in sides:
                        raise ValueError(f"piece repeats side {side}")
                    inner = names[1:-1]
                    sides[side] = [n for n in inner.split(",") if n] if inner else []
                if set(sides) != {"A", "B"}:
                    raise ValueError("piece needs both A and B")
                piece_specs.append((sides["A"], sides["B"]))
            else:
                raise ValueError(f"unknown directive {parts[0]!r}")
        except (ValueError, KeyError) as exc:
            raise GraphFormatError(str(exc), lineno) from None
    if "X" not in spaces or "Y" not in spaces:
        raise GraphFormatError("missing space X or space Y")
    x_index = {n: i for i, (n, _) in enumerate(spaces["X"])}
    y_index = {n: i for i, (n, _) in enumerate(spaces["Y"])}
    pieces = []
    for a_names, b_names in piece_specs:
        try:
            pieces.append(
                ([x_index[n] for n in a_names], [y_index[n] for n in b_names])
            )
        except KeyError as exc:
            raise GraphFormatError(f"piece references unknown element {exc.args[0]}")
    try:
        return MeasureTiling(table, spaces["X"], spaces["Y"], pieces)
    except ValueError as exc:
        raise GraphFormatError(str(exc)) from None


def _measure_literal(m: Scalar) -> str:
    """The canonical literal of m without spaces, in a form parse_scalar
    reads back: a negative term after the first is written ``+-c`` (``+-1*PI``
    for a bare symbol), since the grammar reads ``-c`` as one signed
    rational, not as an operator and a term."""
    first, *rest = format_scalar(m).split(" ")
    out = [first]
    for op, term in zip(rest[::2], rest[1::2]):
        if op == "+":
            out.append(term)
        else:
            out.append("-" + term if term[0].isdigit() else "-1*" + term)
    return "+".join(out)


def serialize_measure_tiling(t: MeasureTiling) -> str:
    lines = t.table.symbol_lines()
    lines.append(
        "space X " + " ".join(f"{n}={_measure_literal(m)}" for n, m in zip(t.x_names, t.x_measures))
    )
    lines.append(
        "space Y " + " ".join(f"{n}={_measure_literal(m)}" for n, m in zip(t.y_names, t.y_measures))
    )
    for a, b in t.pieces:
        an = ",".join(t.x_names[j] for j in sorted(a))
        bn = ",".join(t.y_names[k] for k in sorted(b))
        lines.append(f"piece A={{{an}}} B={{{bn}}}")
    return "\n".join(lines) + "\n"
