"""Continuants, continued fractions, and Fibonacci numbers.

The continuant K[x0, ..., xn] is the numerator polynomial of the
continued fraction [x0; x1, ..., xn], evaluated here on integers
(negative entries included, as needed by the signed continued fractions
of Stern quotients).  Fibonacci numbers follow the indexing
F(-1) = F(0) = 1, under which K over n ones equals F(n - 1).
"""

from __future__ import annotations

from typing import Iterable

from .fracs import Frac, frac
from .words import integral_rep, reduced_rep


def continuant(xs: Iterable[int]) -> int:
    """K[] = 1, K[x0] = x0, K[..., xn] = xn K[..., x_{n-1}] + K[..., x_{n-2}].

    >>> continuant([1, 1, 2, 1])
    7
    """
    prev2, prev = 0, 1
    for x in xs:
        prev2, prev = prev, x * prev + prev2
    return prev


def cf_value(coeffs: list[int]) -> Frac:
    """Value of the continued fraction [c0; c1, ..., cn] as a reduced
    fraction, K[c0..cn] / K[c1..cn], with any sign on the numerator.

    A continuant reads the same backwards, so one pass from cn down to c0
    yields both: K[ci..cn] = ci K[c(i+1)..cn] + K[c(i+2)..cn].
    """
    if not coeffs:
        raise ValueError("continued fraction needs at least one coefficient")
    num, den = 1, 0  # K[] and the value one step before it
    for c in reversed(coeffs):
        num, den = c * num + den, num
    if den == 0:
        raise ValueError(f"continued fraction {coeffs} has a zero denominator")
    return frac(num, den)


def cf_terms(p: int, q: int) -> list[int]:
    """Continued-fraction expansion [c0; c1, ..., cn] of p/q, q > 0, by
    Euclid's algorithm; the inverse of :func:`cf_value`.

    >>> cf_terms(4, 7)
    [0, 1, 1, 3]
    """
    if q <= 0:
        raise ValueError(f"continued fractions need a positive denominator: {p}/{q}")
    terms = []
    while q:
        terms.append(p // q)
        p, q = q, p % q
    return terms


def mirror_formula(v: str) -> tuple[Frac, Frac]:
    """(Stern-Brocot, Raney) labels of ``v`` read off its integral
    representation (a0, ..., an): the Stern-Brocot number is
    [a0; a1, ..., a_{n-1}, an + 1] and the Raney number is the same
    continued fraction on the mirrored list.
    """
    rep = integral_rep(v)
    forward = list(rep)
    forward[-1] += 1
    backward = list(rep[::-1])
    backward[-1] += 1
    return cf_value(forward), cf_value(backward)


def christoffel_length_cf(v: str) -> tuple[int, int]:
    """Length of the Christoffel word a psi(v) b and minimal period of
    psi(v), both as continuants over the reduced integral representation
    (a0, ..., an) of ``v``: the length is K[a0+1, a1, ..., a_{n-1}, an+1]
    and the period drops the final entry.

    Purely arithmetic: no word is ever built.  Both come out of one pass
    of the continuant recurrence over the entries, the period as the
    value before the last step.
    """
    rep = reduced_rep(v)
    if len(rep) == 1:
        return rep[0] + 2, 1
    prev2, prev = 1, rep[0] + 1
    for x in rep[1:-1]:
        prev2, prev = prev, x * prev + prev2
    return (rep[-1] + 1) * prev + prev2, prev


def fib(n: int) -> int:
    """Fibonacci numbers with F(-1) = F(0) = 1.

    >>> [fib(k) for k in range(-1, 7)]
    [1, 1, 2, 3, 5, 8, 13, 21]
    """
    if n < -1:
        raise ValueError("Fibonacci indexing starts at -1")
    prev, cur = 1, 1
    for _ in range(n):
        prev, cur = cur, prev + cur
    return cur
