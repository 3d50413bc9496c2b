#!/usr/bin/env python3
"""A tour of the basic word operations.

Binary words are plain strings over {a, b}.  This script walks through
the involutions, the run-length (integral) representation, the base-2
reading, and subword counting.
"""

from diatomic import (
    complement,
    decode,
    encode,
    factor_count,
    integral_rep,
    is_lyndon,
    min_period,
    plus_prefix,
    plus_suffix,
    subword_binomial,
    word_of,
)

w = "abbabab"
print(f"w                = {w}")
print(f"complement(w)    = {complement(w)}")
print(f"reverse(w)       = {w[::-1]}")
print(f"plus_prefix(w)   = {plus_prefix(w)}   (longest prefix followed by {complement(w[-1])})")
print(f"plus_suffix(w)   = {plus_suffix(w)}   (longest suffix preceded by {complement(w[0])})")
print()

# run-length exponents alternate b-runs and a-runs, padded with zeros at
# the ends so the list always starts and ends on a b-run
for v in ("bbabaa", "aaababb", ""):
    rep = integral_rep(v)
    print(f"integral_rep({v or 'eps':8}) = {rep}, word_of -> {word_of(rep) or 'eps'}")
print()

# a is the digit 0 and b the digit 1
print(f"encode('baaba')  = {encode('baaba')}")
print(f"decode(21)       = {decode(21)}")
print()

# factors are contiguous, subwords are scattered
host = "bababab"
print(f"occurrences of the factor 'bab' in {host}: {factor_count(host, 'bab')}")
print(f"occurrences of the subword 'bab' in {host}: {subword_binomial(host, 'bab')}")
print(f"occurrences of the subword 'b' in babbaab: {subword_binomial('babbaab', 'b')}")
print()

print(f"min_period('abaabaaba') = {min_period('abaabaaba')}")
print(f"is_lyndon('aab') = {is_lyndon('aab')},  is_lyndon('aba') = {is_lyndon('aba')}")
