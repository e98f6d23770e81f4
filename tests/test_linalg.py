"""The exact Gauss-Jordan solve shared by decompositions and functionals,
checked against sympy's reduced row echelon form."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from commensura._rat import Rat
from commensura.linalg import solve

sympy = pytest.importorskip("sympy")

# small entries, zero half the time, so dependent columns are common
_entries = st.one_of(
    st.just(Fraction(0)),
    st.fractions(min_value=-4, max_value=4, max_denominator=3),
)


@st.composite
def systems(draw):
    nrows = draw(st.integers(1, 4))
    ncols = draw(st.integers(0, 5))
    columns = [[Rat(draw(_entries)) for _ in range(nrows)] for _ in range(ncols)]
    targets = []
    for _ in range(draw(st.integers(1, 3))):
        if columns and draw(st.booleans()):
            # a combination of the columns, so inside the span
            weights = [draw(_entries) for _ in columns]
            targets.append([sum((w * col[i] for w, col in zip(weights, columns)), Rat(0))
                            for i in range(nrows)])
        else:
            targets.append([Rat(draw(_entries)) for _ in range(nrows)])
    return nrows, columns, targets


def _matrix(nrows, columns):
    return sympy.Matrix(nrows, len(columns), lambda i, j: sympy.Rational(
        columns[j][i].numerator, columns[j][i].denominator))


@given(systems())
@settings(max_examples=120, deadline=None)
def test_solve_matches_rref_oracle(system):
    nrows, columns, targets = system
    solutions = solve(columns, targets)
    assert len(solutions) == len(targets)
    a = _matrix(nrows, columns)
    _, pivots = a.rref()
    rank = len(pivots)
    for target, x in zip(targets, solutions):
        augmented = a.row_join(_matrix(nrows, [target]))
        in_span = augmented.rank() == rank
        if not in_span:
            assert x is None
            continue
        assert x is not None and len(x) == len(columns)
        expansion = [sum((x[j] * columns[j][i] for j in range(len(columns))), Rat(0))
                     for i in range(nrows)]
        assert expansion == target
        # free variables are zero: the support lies on the leftmost
        # independent columns
        assert all(x[j] == 0 for j in range(len(columns)) if j not in pivots)


def _reference_solve(columns, targets):
    """Gauss-Jordan over Fractions: leftmost pivots, each pivot row divided
    by its pivot, free variables zero."""
    if not columns:
        return [None if any(t) else [] for t in targets]
    rows, ncols = len(columns[0]), len(columns)
    a = [[Fraction(columns[j][i]) for j in range(ncols)] for i in range(rows)]
    rhs = [[Fraction(t[i]) for t in targets] for i in range(rows)]
    pivots = []
    prow = 0
    for col in range(ncols):
        sel = next((r for r in range(prow, rows) if a[r][col]), None)
        if sel is None:
            continue
        a[prow], a[sel] = a[sel], a[prow]
        rhs[prow], rhs[sel] = rhs[sel], rhs[prow]
        inv = 1 / a[prow][col]
        a[prow] = [x * inv for x in a[prow]]
        rhs[prow] = [x * inv for x in rhs[prow]]
        for r in range(rows):
            if r != prow and a[r][col]:
                f = a[r][col]
                a[r] = [x - f * y for x, y in zip(a[r], a[prow])]
                rhs[r] = [x - f * y for x, y in zip(rhs[r], rhs[prow])]
        pivots.append((prow, col))
        prow += 1
    out = []
    for k in range(len(targets)):
        if any(rhs[r][k] for r in range(prow, rows)):
            out.append(None)
            continue
        x = [Fraction(0)] * ncols
        for r, c in pivots:
            x[c] = rhs[r][k]
        out.append(x)
    return out


# small entries, zero often, large numerators and denominators sometimes;
# ints too, as solve_functional passes integer rows
_mixed_entries = st.one_of(
    st.just(0),
    st.integers(-3, 3),
    st.fractions(min_value=-4, max_value=4, max_denominator=5),
    st.builds(Fraction, st.integers(-10**25, 10**25), st.integers(1, 10**20)),
)


@st.composite
def differential_systems(draw):
    nrows = draw(st.integers(0, 5))
    columns = [[draw(_mixed_entries) for _ in range(nrows)] for _ in range(draw(st.integers(0, 6)))]
    # rank-deficient: repeat a column, scaled, or add two of them
    for _ in range(draw(st.integers(0, 2))):
        if len(columns) >= 2:
            i, j = draw(st.integers(0, len(columns) - 1)), draw(st.integers(0, len(columns) - 1))
            c = Fraction(draw(_mixed_entries))
            columns.insert(draw(st.integers(0, len(columns))),
                           [x + c * y for x, y in zip(columns[i], columns[j])])
    targets = []
    for _ in range(draw(st.integers(1, 3))):
        kind = draw(st.sampled_from(["span", "span+", "free"]))
        if kind == "free" or not columns:
            targets.append([draw(_mixed_entries) for _ in range(nrows)])
            continue
        weights = [Fraction(draw(_mixed_entries)) for _ in columns]
        t = [sum((w * col[i] for w, col in zip(weights, columns)), Fraction(0)) for i in range(nrows)]
        if kind == "span+" and nrows:
            # nudge one entry: inconsistent unless the columns span that direction
            t[draw(st.integers(0, nrows - 1))] += 1
        targets.append(t)
    return columns, targets


@given(differential_systems())
@settings(max_examples=300, deadline=None)
def test_solve_matches_rational_gauss_jordan(system):
    columns, targets = system
    got = solve(columns, targets)
    assert got == _reference_solve(columns, targets)
    for x in got:
        assert x is None or all(isinstance(v, Rat) for v in x)


def test_solve_edge_shapes_match_reference():
    cases = [
        ([], [[0, 0], [1, 0]]),  # no columns: only the zero target is reachable
        ([[]], [[]]),  # no rows
        ([[0, 0], [0, 0]], [[0, 0], [0, 1]]),  # rank zero
        ([[1, 2], [2, 4]], [[3, 6], [1, 1]]),  # rank one, one inconsistent target
        ([[Fraction(1, 10**18), 1], [1, Fraction(-7, 3)]], [[1, 1]]),
    ]
    for columns, targets in cases:
        assert solve(columns, targets) == _reference_solve(columns, targets)
