"""Rational number backend.

Everything in this package computes over exact rationals.  gmpy2's mpq is
used when present (several times faster on the bignum-heavy paths); the
stdlib Fraction is the fallback.  Both expose .numerator/.denominator and
identical str() output, which the serializers rely on.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Union

try:
    from gmpy2 import mpq as Rat  # type: ignore[import-untyped]

    HAVE_GMPY2 = True
except ImportError:  # pragma: no cover - exercised only without gmpy2
    Rat = Fraction
    HAVE_GMPY2 = False

RatLike = Union[int, Fraction]


def as_rat(value):
    """Coerce an int, Fraction, mpq, or digit string to the active backend;
    a value already of the backend's type is returned as it is."""
    if isinstance(value, Rat):
        return value
    if isinstance(value, float):
        raise TypeError("floats are not allowed in exact arithmetic")
    return Rat(value)


def rat_str(value) -> str:
    """Canonical p/q text for either backend (gmpy2 and Fraction agree)."""
    return str(value)
