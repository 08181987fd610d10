"""Scalar helpers: exact rationals, floats with tolerance, text formats.

Exact values are plain ``fractions.Fraction``; approximate values are plain
``float`` with a tolerance attached to the map family that produced them.
The two modes are never mixed silently: exact code paths reject floats.
"""
from __future__ import annotations

import math
from fractions import Fraction
from typing import Union

from .errors import ExactnessError, WordSyntaxError

Scalar = Union[Fraction, float]

DEFAULT_TOL = 1e-9


def parse_rational(text: str) -> Fraction:
    """Parse ``p/q`` or a decimal literal into an exact Fraction."""
    try:
        return Fraction(text.strip())
    except (ValueError, ZeroDivisionError) as exc:
        raise WordSyntaxError(f"not a rational: {text!r}") from exc


def to_rational(value, what: str) -> Fraction:
    """``Fraction(value)``; NaN, the infinities and bad text are input errors."""
    try:
        return Fraction(value)
    except (ValueError, OverflowError, ZeroDivisionError) as exc:
        raise WordSyntaxError(f"{what} is not a finite rational: {value!r}") from exc


def format_scalar(value: Scalar) -> str:
    """Rationals as ``p/q`` strings, floats as shortest round-trip decimals."""
    if isinstance(value, Fraction):
        return str(value)
    return repr(float(value))


def parse_scalar(text: str) -> Scalar:
    """Inverse of :func:`format_scalar`."""
    text = text.strip()
    if "/" in text or ("." not in text and "e" not in text and "E" not in text
                       and "inf" not in text and "nan" not in text):
        return parse_rational(text)
    return float(text)


def exact_sqrt(value: Fraction) -> Fraction:
    """Square root of a nonnegative rational, when it is rational.

    Raises ExactnessError otherwise; exact evaluation never falls back to
    floating point on its own.
    """
    if value < 0:
        raise ExactnessError(value, detail="negative radicand")
    num, den = value.numerator, value.denominator
    rn, rd = math.isqrt(num), math.isqrt(den)
    if rn * rn != num or rd * rd != den:
        raise ExactnessError(value, detail="not a perfect square")
    return Fraction(rn, rd)
