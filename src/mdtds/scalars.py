"""Scalar helpers: exact rationals, floats with tolerance, text formats.

Exact values are plain ``fractions.Fraction``; approximate values are plain
``float`` with a tolerance attached to the map family that produced them.
The two modes are never mixed silently: exact code paths reject floats.
"""
from __future__ import annotations

import math
import re
from fractions import Fraction
from typing import Union

from .errors import ExactnessError, WordSyntaxError

Scalar = Union[Fraction, float]

DEFAULT_TOL = 1e-9


_DIGITS = re.compile(r"[+-]?[0-9]+")
_RATIO = re.compile(r"([+-]?[0-9]+)(?:/([0-9]+))?")


def int_text(n: int) -> str:
    """``str(n)`` for an int of any size.

    Past CPython's int-to-text digit limit ``str`` raises ValueError; the
    int is then split at a power of ten into two halves that are written the
    same way.  The process-wide limit is never changed.
    """
    try:
        return str(n)
    except ValueError:
        pass
    if n < 0:
        return "-" + int_text(-n)
    half = n.bit_length() * 3 // 20  # about half of n's decimal digits
    high, low = divmod(n, 10 ** half)
    return int_text(high) + int_text(low).zfill(half)


def parse_int(text: str) -> int:
    """``int(text)``, and decimal digits past the int-to-text limit too.

    The inverse of :func:`int_text`: a digit string too long for ``int`` is
    read as two halves, each read the same way.
    """
    try:
        return int(text)
    except ValueError:
        digits = text.strip()
        if not _DIGITS.fullmatch(digits):
            raise
    negative = digits[0] == "-"
    digits = digits.lstrip("+-")
    half = len(digits) // 2
    value = parse_int(digits[:-half]) * 10 ** half + parse_int(digits[-half:])
    return -value if negative else value


def parse_rational(text: str) -> Fraction:
    """Parse ``p/q`` or a decimal literal into an exact Fraction.

    Integers ``p`` and ``q`` of any length are read (see :func:`parse_int`).
    """
    stripped = text.strip()
    ratio = _RATIO.fullmatch(stripped)
    try:
        if ratio is None:
            return Fraction(stripped)
        num, den = ratio.groups()
        return Fraction(parse_int(num), parse_int(den or "1"))
    except (ValueError, ZeroDivisionError) as exc:
        raise WordSyntaxError(f"not a rational: {text!r}") from exc


def to_rational(value, what: str) -> Fraction:
    """``Fraction(value)``; NaN, the infinities and bad text are input errors."""
    try:
        return Fraction(value)
    except (ValueError, OverflowError, ZeroDivisionError) as exc:
        raise WordSyntaxError(f"{what} is not a finite rational: {value!r}") from exc


def format_scalar(value: Scalar) -> str:
    """Rationals as ``p/q`` strings, floats as shortest round-trip decimals.

    A rational prints as ``str`` prints it, at any size (see
    :func:`int_text`).
    """
    if isinstance(value, Fraction):
        num, den = value.numerator, value.denominator
        return int_text(num) if den == 1 else f"{int_text(num)}/{int_text(den)}"
    return repr(float(value))


def parse_scalar(text: str) -> Scalar:
    """Inverse of :func:`format_scalar`."""
    text = text.strip()
    if "/" in text or ("." not in text and "e" not in text and "E" not in text
                       and "inf" not in text and "nan" not in text):
        return parse_rational(text)
    return float(text)


def csv_text(rows) -> str:
    """The package's one table writer: one comma-separated line per row.

    No field the package writes holds a comma, a quote or a line break
    (numbers come from :func:`format_scalar` or :func:`int_text`, words
    look like ``s1 s2^-1``, and empty fields are ``""``), so no field is
    ever quoted: for rows of two or more fields, as every table has, the
    text is what ``csv.writer`` with ``"\\n"`` line ends writes.
    """
    return "".join(",".join(map(str, row)) + "\n" for row in rows)


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
