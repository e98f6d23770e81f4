"""Exact linear solves over the rationals.

One Gauss-Jordan elimination serves both the segment decompositions of the
engine and the Dehn functionals: pivots are taken leftmost first and free
variables are set to zero, so every solution is supported on the earliest
independent columns.

The elimination is fraction-free (in the style of Bareiss): each augmented
row is scaled by the lcm of its denominators to Python ints, a row is
cleared by cross-multiplying with the pivot row, and every new row is
divided by the gcd of its entries to keep the integers small.  The reduced
echelon form is unique up to the scale of each row, so the solutions are
exactly those of an elimination over rationals; a Rat is built only for
the answer.
"""

from __future__ import annotations

from math import gcd, lcm
from typing import Optional, Sequence

from ._rat import Rat

_ZERO = Rat(0)


def _integer_row(entries: list) -> list[int]:
    """The row times the lcm of its denominators, as primitive ints."""
    den = lcm(*(x.denominator for x in entries))
    row = [x.numerator * (den // x.denominator) for x in entries]
    return _primitive(row)


def _primitive(row: list[int]) -> list[int]:
    g = gcd(*row)
    if g > 1:
        return [x // g for x in row]
    return row


def solve(columns: Sequence[Sequence], targets: Sequence[Sequence]) -> list[Optional[list]]:
    """One solution x per target t with sum_j x[j] * columns[j] == t.

    All columns and targets have the same length and hold exact rationals
    (ints, or Rats).  A target outside the span of the columns comes back
    as None.
    """
    if not columns:
        return [None if any(t) else [] for t in targets]
    rows = len(columns[0])
    ncols = len(columns)
    # augmented rows: the column entries, then one entry per target
    a = [_integer_row([c[i] for c in columns] + [t[i] for t in targets]) for i in range(rows)]
    pivots = []  # (row, col)
    prow = 0
    for col in range(ncols):
        sel = None
        for r in range(prow, rows):
            if a[r][col]:
                sel = r
                break
        if sel is None:
            continue
        a[prow], a[sel] = a[sel], a[prow]
        pivot_row = a[prow]
        p = pivot_row[col]
        for r in range(rows):
            f = a[r][col]
            if r != prow and f:
                a[r] = _primitive([p * x - f * y for x, y in zip(a[r], pivot_row)])
        pivots.append((prow, col))
        prow += 1
        if prow == rows:
            break
    out: list[Optional[list]] = []
    for k in range(ncols, ncols + len(targets)):
        if any(a[r][k] for r in range(prow, rows)):
            out.append(None)
            continue
        x = [_ZERO] * ncols
        for r, c in pivots:
            x[c] = Rat(a[r][k], a[r][c])
        out.append(x)
    return out
