#!/usr/bin/env python3
"""Stern's sequence four ways, plus the marked occurrence table.

s(23) = 7 falls out of the recurrence, of the Christoffel length of the
word read from 23's binary digits, of counting alternating bit sets, and
of a signed continuant over the ruler sequence.  The occurrence table
then refines the count: sorting the reversed occurrences spells out the
standard word psi(w) b a letter by letter.
"""

from diatomic import (
    delta_expansion,
    factor_decomposition,
    marked_occurrences,
    psi,
    ruler,
    stern_via_christoffel,
    stern_via_subwords,
    stern_via_zeta,
    zeta,
)
from diatomic.stern import stern

print("prefix:", " ".join(str(stern(n)) for n in range(17)))
print()

n = 23
print(f"s({n}) by recurrence        = {stern(n)}")
print(f"s({n}) via Christoffel word = {stern_via_christoffel(n)}")
print(f"s({n}) via subword count    = {stern_via_subwords(n)}")
print(f"s({n}) via signed continuant= {stern_via_zeta(n)}")
print()

print("ruler sequence: ", "".join(str(ruler(n)) for n in range(1, 16)))
print("zeta sequence:  ", " ".join(str(zeta(n)) for n in range(1, 9)))
print()

e = delta_expansion(12)
args = [2 ** (i - 1) + d for i, d in enumerate(e.deltas, start=1)]
terms = " + ".join(f"s({arg})" for arg in args)
print(f"s(23) = 2 + {terms} = 2 + {' + '.join(map(str, e.terms))} = {e.total}")
print()

w = "abbaa"
markers, rows = marked_occurrences(w)
print(f"occurrences of b(ab)* subwords in b{w}b, sorted by reversed key:")
for marker, key in zip(markers, rows):
    print(f"  {marker}  {''.join(map(str, key))}  (positions {''.join(map(str, key[::-1]))})")
print(f"markers read downward: {markers}")
print(f"psi({w}) + 'ba'      : {psi(w) + 'ba'}")
print()

d = factor_decomposition("ababa")
print("length of a psi(ababa) b as a factor-weighted sum:")
print(f"  base (count of b)    : {d.base}")
for factor, count in d.single_a:
    print(f"  {factor} (single a)   : {count} x 1")
for factor, inner, weight, count in d.multi_a:
    print(f"  {factor:8} (inner {inner or 'eps'}): {count} x {weight}")
print(f"  total                : {d.total}")
