#!/usr/bin/env python3
"""Length statistics of Christoffel words of one order.

Order k contributes 2^k words with lengths between k+2 and F(k+1); the
histogram shows structured gaps, the alternating directives sit at the
top, and summing the per-length counts across all orders recovers
Euler's totient.
"""

from fractions import Fraction

from diatomic import (
    almost_alternating,
    alternating,
    bound_report,
    counts_for_length,
    fib,
    histogram,
    max_count_lower_bound,
    period_pair,
    totient,
    word_class,
)

k = 6
h = histogram(k)
print(f"order {k}: {h.mass} words, total length {h.weighted_mass}, "
      f"average {Fraction(h.weighted_mass, h.mass)}")
print("histogram:")
for n, c in h.counts.items():
    print(f"  {n:3} {'#' * c}")

print(f"max count {h.max_count} at {h.argmax}; missing lengths {h.missing}")
print()

print(f"alternating({k})        = {alternating(k)}  length {sum(period_pair(alternating(k)))} = F({k+1}) = {fib(k+1)}")
print(f"almost_alternating({k}) = {almost_alternating(k)}  length "
      f"{sum(period_pair(almost_alternating(k)))} = F({k+1}) - F({k-4}) = {fib(k+1) - fib(k-4)}")
print(f"its class               = {sorted(word_class(almost_alternating(k)))}")
print(f"all bounds check out at k={k}: {bound_report(k).passed}")
print(f"guaranteed lower bound for the max count: {float(max_count_lower_bound(k)):.3f}")
print()

print("summary table for small orders:")
print("  k  max  at")
for j in range(1, 11):
    row = histogram(j)
    print(f"  {j:2}  {row.max_count:3}  {','.join(map(str, row.argmax))}")
print()

n = 11
print(f"counts by order at length {n}: {counts_for_length(n)}")
print(f"their sum = {sum(counts_for_length(n).values())} = phi({n}) = {totient(n)}")
