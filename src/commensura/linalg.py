"""Exact linear solves over the rationals.

One Gauss-Jordan elimination serves both the segment decompositions of the
engine and the Dehn functionals: pivots are taken leftmost first and free
variables are set to zero, so every solution is supported on the earliest
independent columns.
"""

from __future__ import annotations

from typing import Optional, Sequence

from ._rat import Rat


def solve(columns: Sequence[Sequence], targets: Sequence[Sequence]) -> list[Optional[list]]:
    """One solution x per target t with sum_j x[j] * columns[j] == t.

    All columns and targets have the same length and hold exact rationals.
    A target outside the span of the columns comes back as None.
    """
    if not columns:
        return [None if any(t) else [] for t in targets]
    rows = len(columns[0])
    ncols = len(columns)
    a = [[columns[j][i] for j in range(ncols)] for i in range(rows)]
    rhs = [[t[i] for t in targets] for i in range(rows)]
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
        rhs[prow], rhs[sel] = rhs[sel], rhs[prow]
        inv = Rat(1) / a[prow][col]
        a[prow] = [x * inv for x in a[prow]]
        rhs[prow] = [x * inv for x in rhs[prow]]
        for r in range(rows):
            if r != prow and a[r][col]:
                f = a[r][col]
                a[r] = [x - f * y for x, y in zip(a[r], a[prow])]
                rhs[r] = [x - f * y for x, y in zip(rhs[r], rhs[prow])]
        pivots.append((prow, col))
        prow += 1
        if prow == rows:
            break
    out: list[Optional[list]] = []
    for k in range(len(targets)):
        if any(rhs[r][k] for r in range(prow, rows)):
            out.append(None)
            continue
        x = [Rat(0)] * ncols
        for r, c in pivots:
            x[c] = rhs[r][k]
        out.append(x)
    return out
