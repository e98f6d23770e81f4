"""Rational number type.

Everything in this package computes over exact rationals, as the stdlib
Fraction.  ``HAVE_GMPY2`` names the backend for callers that report it;
there is one backend, so it is always False.
"""

from __future__ import annotations

from fractions import Fraction

Rat = Fraction
HAVE_GMPY2 = False


def as_rat(value):
    """Coerce an int, Fraction or digit string to a Rat; a Rat is returned
    as it is."""
    if isinstance(value, Rat):
        return value
    if isinstance(value, float):
        raise TypeError("floats are not allowed in exact arithmetic")
    return Rat(value)
