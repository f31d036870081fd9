"""Exact rational coefficient arithmetic.

Everything downstream (dual graphs, complements, Frobenius tests) runs on
exact fractions; no floats enter the core.  Boundary coefficients live in
[0, 1].  The *standard* values are 0, 1/2, 2/3, 3/4, ..., (n-1)/n, ...
together with 1 as the limiting case.
"""

from __future__ import annotations

import functools
import re
from fractions import Fraction

_FRACTION_RE = re.compile(r"([+-]?\d+)(?:/(\d+))?")


@functools.lru_cache(maxsize=256)
def parse_rational(text: str) -> Fraction:
    """Parse 'a' or 'a/b' exactly; decimal notation is rejected.

    A memo keeps the last 256 literals: Fractions are immutable, so callers
    may share the objects it returns."""
    m = _FRACTION_RE.fullmatch(text.strip())
    if not m:
        raise ValueError(f"not an exact fraction: {text!r}")
    num, den = m.groups()
    if den is None:
        return Fraction(int(num))
    den = int(den)
    if den == 0:
        raise ValueError(f"zero denominator: {text!r}")
    return Fraction(int(num), den)


def format_rational(q) -> str:
    """Render as 'num/den', omitting the denominator when it is 1."""
    if type(q) is not Fraction and type(q) is not int:
        q = Fraction(q)
    num, den = q.as_integer_ratio()
    return str(num) if den == 1 else f"{num}/{den}"


def is_standard(c) -> bool:
    """True iff c = (n-1)/n for some positive integer n, or c = 1.

    In reduced form that means numerator = denominator - 1 (which covers
    0 = (1-1)/1), with 1 accepted as the limiting case.
    """
    if type(c) is not Fraction and type(c) is not int:
        c = Fraction(c)
    num, den = c.as_integer_ratio()
    if num < 0 or num > den:
        raise ValueError(f"coefficient out of range [0, 1]: {c}")
    return num == den or num == den - 1


def std_replace(num: int, den: int) -> Fraction:
    """Coefficient surgery num/den -> (num-1)/(den-1) at a fixed level den.

    The pair is taken UNREDUCED: den is the complement level, so e.g.
    (3, 6) maps to 2/5 even though 3/6 reduces to 1/2.  Callers must thread
    the level explicitly rather than the reduced denominator.
    """
    if den < 2:
        raise ValueError(f"level must be at least 2, got {den}")
    if not 1 <= num <= den:
        raise ValueError(f"numerator must lie in [1, {den}], got {num}")
    return Fraction(num - 1, den - 1)
