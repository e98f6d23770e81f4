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
