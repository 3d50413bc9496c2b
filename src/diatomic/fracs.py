"""Irreducible fractions with unbounded integer parts.

A tiny value type is used instead of :class:`fractions.Fraction` because
tree labels and slopes include the improper values 0/1 and 1/0, and
because fractions here always print as "p/q", never as a bare integer.
"""

from __future__ import annotations

import math
from typing import NamedTuple


class Frac(NamedTuple):
    num: int
    den: int

    def __str__(self) -> str:
        return f"{self.num}/{self.den}"

    @property
    def inverse(self) -> "Frac":
        if self.num < 0:
            return Frac(-self.den, -self.num)
        return Frac(self.den, self.num)


def frac(num: int, den: int) -> Frac:
    """Reduced fraction with the sign carried by the numerator.

    (0, 1) and (1, 0) are allowed (slopes of the one-letter Christoffel
    words); 0/0 is not a fraction.
    """
    if num == 0 and den == 0:
        raise ValueError("0/0 is not a fraction")
    if den < 0:
        num, den = -num, -den
    g = math.gcd(num, den)
    return Frac(num // g, den // g)
