"""Deterministic graph generators, emitting the graph text format.

Every generator returns a fully validated MetricGraph; ``generate`` wraps
the result as text so the command line and test fixtures share one source
of truth.  Numeric parameters arrive as scalar literals ("2*PI", "1/3*PI",
"1") and are parsed against the graph's own symbol table.
"""

from __future__ import annotations

from ._rat import Rat
from .graph import MetricGraph, parse_graph, serialize_graph
from .scalars import Scalar, SymbolTable, parse_scalar

DEFAULT_EDGE = "1/3*PI"
MAX_EDGES = 100_000


def _check_size(edges: int) -> None:
    """Refuse a graph too large to build, before any vertex exists."""
    if edges > MAX_EDGES:
        raise ValueError(f"graph would have {edges} edges; the limit is {MAX_EDGES}")


def _as_scalar(table: SymbolTable, name: str, value) -> Scalar:
    """The Scalar a parameter stands for; a bad literal is a ValueError
    naming the parameter."""
    if isinstance(value, Scalar):
        return value
    try:
        return parse_scalar(table, str(value))
    except (ValueError, KeyError) as exc:
        raise ValueError(f"{name} must be a scalar literal, got {value!r} ({exc.args[0]})") from None


def _as_int(name: str, value) -> int:
    """The integer a parameter stands for; a bad literal is a ValueError
    naming the parameter."""
    try:
        return int(value)
    except ValueError:
        raise ValueError(f"{name} must be an integer, got {value!r}") from None


def circle_graph(edges: int = 6, length: str | Scalar = "2*PI", precision_bits: int | None = None) -> MetricGraph:
    """Cycle of n vertices whose edge lengths split ``length`` evenly."""
    if edges < 1:
        raise ValueError("circle needs at least one edge")
    _check_size(edges)
    table = SymbolTable() if precision_bits is None else SymbolTable(precision_bits=precision_bits)
    g = MetricGraph(table)
    total = _as_scalar(table, "length", length)
    step = total.scale(Rat(1, edges))
    for i in range(edges):
        g.add_vertex(f"v{i}")
    for i in range(edges):
        g.add_edge(f"c{i}", f"v{i}", f"v{(i + 1) % edges}", step)
    g.validate()
    return g


def theta_graph(strands: int = 3, length: str | Scalar = "1", precision_bits: int | None = None) -> MetricGraph:
    """Two vertices joined by parallel strands of equal length."""
    if strands < 2:
        raise ValueError("theta needs at least two strands")
    _check_size(strands)
    table = SymbolTable() if precision_bits is None else SymbolTable(precision_bits=precision_bits)
    g = MetricGraph(table)
    step = _as_scalar(table, "length", length)
    g.add_vertex("u")
    g.add_vertex("v")
    for i in range(strands):
        g.add_edge(f"s{i}", "u", "v", step)
    g.validate()
    return g


def dumbbell_graph(
    loop: str | Scalar = "2*PI",
    bar: str | Scalar = DEFAULT_EDGE,
    precision_bits: int | None = None,
) -> MetricGraph:
    """Two loop edges joined by a single bar edge."""
    table = SymbolTable() if precision_bits is None else SymbolTable(precision_bits=precision_bits)
    g = MetricGraph(table)
    loop_len = _as_scalar(table, "loop", loop)
    bar_len = _as_scalar(table, "bar", bar)
    g.add_vertex("a")
    g.add_vertex("b")
    g.add_edge("la", "a", "a", loop_len)
    g.add_edge("lb", "b", "b", loop_len)
    g.add_edge("bar", "a", "b", bar_len)
    g.validate()
    return g


# -- finite projective planes ------------------------------------------------

# irreducible polynomials over GF(p), coefficients low degree first
_IRREDUCIBLE = {
    4: (2, (1, 1, 1)),
    8: (2, (1, 1, 0, 1)),
    9: (3, (1, 0, 1)),
    16: (2, (1, 1, 0, 0, 1)),
    25: (5, (1, 1, 1)),
    27: (3, (1, 2, 0, 1)),
}


class GaloisField:
    """Arithmetic in GF(q) for prime q or the listed prime powers.

    Elements are integers 0..q-1 read as base-p digit strings, digit i the
    coefficient of x**i.  Orders beyond the polynomial list would need a
    new table entry, so they are rejected rather than silently mishandled.
    """

    def __init__(self, q: int):
        if q < 2:
            raise ValueError("field order must be at least 2")
        if _is_prime(q):
            self.p, self.k, self.poly = q, 1, None
        elif q in _IRREDUCIBLE:
            self.p, self.poly = _IRREDUCIBLE[q]
            self.k = len(self.poly) - 1
        else:
            raise ValueError(f"no irreducible polynomial on file for order {q}")
        self.q = q

    def _digits(self, a: int) -> list[int]:
        out = []
        for _ in range(self.k):
            out.append(a % self.p)
            a //= self.p
        return out

    def _value(self, digits) -> int:
        v = 0
        for d in reversed(digits):
            v = v * self.p + d
        return v

    def add(self, a: int, b: int) -> int:
        if self.k == 1:
            return (a + b) % self.p
        da, db = self._digits(a), self._digits(b)
        return self._value([(x + y) % self.p for x, y in zip(da, db)])

    def mul(self, a: int, b: int) -> int:
        if self.k == 1:
            return (a * b) % self.p
        da, db = self._digits(a), self._digits(b)
        prod = [0] * (2 * self.k - 1)
        for i, x in enumerate(da):
            for j, y in enumerate(db):
                prod[i + j] = (prod[i + j] + x * y) % self.p
        # reduce by the monic irreducible, top coefficient eliminated first
        for deg in range(len(prod) - 1, self.k - 1, -1):
            c = prod[deg]
            if c:
                for i, pc in enumerate(self.poly[:-1]):
                    prod[deg - self.k + i] = (prod[deg - self.k + i] - c * pc) % self.p
                prod[deg] = 0
        return self._value(prod[: self.k])

    def inv(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError("zero has no inverse")
        for b in range(1, self.q):
            if self.mul(a, b) == 1:
                return b
        raise ArithmeticError("not a field")  # unreachable for valid tables


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


def _projective_triples(field: GaloisField) -> list[tuple[int, int, int]]:
    # one representative per projective class: first nonzero coordinate 1
    q = field.q
    reps = []
    for a in range(q):
        for b in range(q):
            for c in range(q):
                if (a, b, c) == (0, 0, 0):
                    continue
                lead = a if a else (b if b else c)
                if lead == 1:
                    reps.append((a, b, c))
    return sorted(reps)


def incidence_plane_graph(
    q: int = 2,
    edge_length: str | Scalar = DEFAULT_EDGE,
    precision_bits: int | None = None,
) -> MetricGraph:
    """Point-line incidence graph of the projective plane over GF(q).

    q**2 + q + 1 points and as many lines, degree q + 1 throughout, and
    every closed walk crosses at least six edges.  With the default edge
    length 1/3*PI the shortest cycles measure exactly 2*PI.
    """
    _check_size((q * q + q + 1) * (q + 1))
    field = GaloisField(q)
    triples = _projective_triples(field)
    table = SymbolTable() if precision_bits is None else SymbolTable(precision_bits=precision_bits)
    g = MetricGraph(table)
    step = _as_scalar(table, "edge_length", edge_length)
    for i in range(len(triples)):
        g.add_vertex(f"p{i}")
    for j in range(len(triples)):
        g.add_vertex(f"l{j}")
    k = 0
    for i, pt in enumerate(triples):
        for j, ln in enumerate(triples):
            dot = 0
            for a, b in zip(pt, ln):
                dot = field.add(dot, field.mul(a, b))
            if dot == 0:
                g.add_edge(f"e{k}", f"p{i}", f"l{j}", step)
                k += 1
    g.validate()
    return g


def heawood_graph(precision_bits: int | None = None) -> MetricGraph:
    """Incidence graph of the 7-point plane, all edges 1/3*PI."""
    return incidence_plane_graph(2, precision_bits=precision_bits)


def perturb_graph(base: MetricGraph, edge: str, delta: str | Scalar) -> MetricGraph:
    """Copy of ``base`` with ``delta`` added to one edge length.

    The copy shares nothing with the original; a perturbation that drives
    the length nonpositive fails the usual edge certificate.
    """
    if edge not in base.edge_by_id:
        raise ValueError(f"unknown edge: {edge}")
    text = serialize_graph(base)
    out = parse_graph(text, precision_bits=base.table.precision_bits)
    shift = _as_scalar(out.table, "delta", delta)
    rebuilt = MetricGraph(out.table)
    for v in out.vertices:
        rebuilt.add_vertex(v)
    for e in out.edges:
        length = e.length + shift if e.id == edge else e.length
        rebuilt.add_edge(e.id, e.u, e.v, length)
    for name, ids in out.subgraph_decls.items():
        rebuilt.declare_subgraph(name, ids)
    rebuilt.validate()
    return rebuilt


_BUILDERS = {
    "circle": circle_graph,
    "theta": theta_graph,
    "dumbbell": dumbbell_graph,
    "heawood": heawood_graph,
    "incidence_pg": incidence_plane_graph,
}


def build(name: str, precision_bits: int | None = None, **params) -> MetricGraph:
    """Construct a named graph; ``perturb`` wraps another named graph."""
    if name == "perturb":
        base_name = params.pop("base", None)
        edge = params.pop("edge", None)
        delta = params.pop("delta", None)
        if base_name is None or edge is None or delta is None:
            raise ValueError("perturb needs base, edge and delta")
        if params:
            raise ValueError(f"unknown parameters: {', '.join(sorted(params))}")
        base = build(base_name, precision_bits=precision_bits)
        return perturb_graph(base, edge, delta)
    builder = _BUILDERS.get(name)
    if builder is None:
        known = ", ".join(sorted(_BUILDERS) + ["perturb"])
        raise ValueError(f"unknown generator {name!r} (have: {known})")
    for key in ("edges", "strands", "q"):
        if key in params:
            params[key] = _as_int(key, params[key])
    return builder(precision_bits=precision_bits, **params)


def generate(name: str, precision_bits: int | None = None, **params) -> str:
    return serialize_graph(build(name, precision_bits=precision_bits, **params))
