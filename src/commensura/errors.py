"""Exception hierarchy.

Design note: an undecided comparison is normally reported as the
Comparison.INDETERMINATE value, not an exception.  PrecisionExhausted is
raised only where a caller needs a strict answer to proceed at all
(sorting breakpoints, ordering a priority queue, deciding a region test).
"""

from __future__ import annotations


class CommensuraError(Exception):
    """Base class for every error raised by this package."""


class MixedSymbolTables(CommensuraError):
    """Operands belong to different symbol tables."""


class PrecisionExhausted(CommensuraError):
    """A strict sign decision was required but the bit budget ran out."""


class GraphFormatError(CommensuraError):
    """Malformed graph or tiling text; carries a 1-based line number."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class NonpositiveLength(CommensuraError):
    """An edge length or measure failed the > 0 check."""


class DisconnectedGraph(CommensuraError):
    """The parsed multigraph is not connected."""


class EnumerationCapExceeded(CommensuraError):
    """Cycle/path enumeration passed the configured cap."""

    def __init__(self, cap: int):
        self.cap = cap
        super().__init__(f"enumeration exceeded cap of {cap}")


class HypothesisViolation(CommensuraError):
    """An operation's structural precondition fails (e.g. degree-1 vertex)."""


class InternalInconsistency(CommensuraError):
    """A certified conclusion contradicts another exact computation.

    The engine converts this into a first-class report verdict: it means
    either the input violates a trust assumption (undeclared rational
    relation between symbols) or there is a bug, and both deserve a loud
    re-audit rather than a silent pass.
    """


class AuditFailure(CommensuraError):
    """A named hypothesis clause of an exact audit failed."""

    def __init__(self, clause: int, detail: str = ""):
        self.clause = clause
        self.detail = detail
        super().__init__(f"audit clause failed: {clause}" + (f" ({detail})" if detail else ""))
