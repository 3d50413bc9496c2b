#!/usr/bin/env python3
"""Christoffel words: both constructions, recognition, factorization.

The word of slope 4/7 is built letterwise from modular arithmetic and,
independently, as a . psi(abaa) . b; the two agree.  Its standard Lyndon
factorization splits at the period p_a, and the factor lengths are the
modular inverses of the slope parts.
"""

from diatomic import (
    christoffel_by_directive,
    christoffel_by_slope,
    christoffel_of_word,
    is_standard,
    lyndon_factorization,
    period_pair,
    standard_by_coefficients,
)

cw = christoffel_by_slope(4, 7)
print(f"christoffel(4/7) = {cw.word}")
print(f"  via directive  = {christoffel_by_directive('abaa').word}")
print(f"  directive      = {christoffel_of_word(cw.word).directive}, order {cw.order}")
print(f"  period pair    = {period_pair(cw.directive)}")

w1, w2 = lyndon_factorization(cw)
n = len(cw.word)
print(f"  factorization  = ({w1.word}, {w2.word})")
print(f"  lengths        = ({len(w1.word)}, {len(w2.word)})")
print(f"  inverses mod {n}: {len(w1.word)}*4 = {len(w1.word)*4 % n}, "
      f"{len(w2.word)}*7 = {len(w2.word)*7 % n}")
print()

print(f"is_christoffel('ab') = {christoffel_of_word('ab') is not None}, "
      f"is_christoffel('ba') = {christoffel_of_word('ba') is not None}")
print()

# the continued-fraction-style recurrence for standard words; all ones
# gives the Fibonacci approximants
print("standard words for coefficients (1, 1, 1, 1):")
for s in standard_by_coefficients([1, 1, 1, 1], 6):
    print(f"  {s:10}  standard: {is_standard(s)}")
