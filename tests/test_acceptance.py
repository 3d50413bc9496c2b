"""Acceptance suite: one test per shipped guarantee, each printing a
PASS/FAIL line (run with -s to see them) and enforcing its runtime
budget where one is stated.
"""

import time
from fractions import Fraction
from math import gcd

from conftest import words_of_length, words_up_to
from diatomic import (
    alternating,
    bound_report,
    cf_value,
    christoffel_by_slope,
    christoffel_length_cf,
    counts_for_length,
    delta_expansion,
    directive_of,
    encode,
    factor_decomposition,
    fib,
    histogram,
    lyndon_factorization,
    marked_occurrences,
    min_period_central,
    mirror_formula,
    period_pair,
    psi,
    psi_inverse,
    psi_prefix,
    ra_of,
    raney,
    reverse_bits,
    ruler,
    stern_brocot,
    stern_via_christoffel,
    stern_via_subwords,
    stern_via_zeta,
    summarize,
    totient,
    word_class,
)
from diatomic.distribution import almost_alternating
from diatomic.stern import stern
from diatomic.words import complement, reverse

STERN_PREFIX = [0, 1, 1, 2, 1, 3, 2, 3, 1, 4, 3, 5, 2, 5, 3, 4,
                1, 5, 4, 7, 3, 8, 5, 7, 2, 7, 5, 8, 3, 7, 4, 5, 1]

MAX_COUNTS = {1: 2, 2: 2, 3: 4, 4: 4, 5: 4, 6: 8, 7: 12, 8: 12, 9: 16,
              10: 24, 11: 28, 12: 36, 13: 48, 14: 64}
LISTED_ARGMAX = {1: [3], 2: [4, 5], 3: [7], 4: [9, 11], 5: [11, 13, 14, 17, 18, 19],
                 6: [23], 7: [41], 8: [43], 9: [71, 73, 83], 10: [113], 11: [227],
                 12: [199, 283], 13: [449], 14: [433]}
MISSING_COUNTS = [0, 0, 1, 2, 5, 11, 18, 29, 51, 74, 119, 195, 323, 498]


def report(number, label, ok, elapsed=None, budget=None):
    status = "PASS" if ok else "FAIL"
    timing = ""
    if elapsed is not None:
        timing = f"  [{elapsed:.3f}s"
        timing += f" < {budget}s]" if budget is not None else "]"
    print(f"criterion {number:2d} {status}  {label}{timing}")
    assert ok, f"criterion {number}: {label}"
    if budget is not None:
        assert elapsed < budget, f"criterion {number} exceeded {budget}s ({elapsed:.3f}s)"


def test_criterion_01_stern_prefix():
    start = time.perf_counter()
    values = [stern(n) for n in range(33)]
    elapsed = time.perf_counter() - start
    report(1, "first 33 Stern values", values == STERN_PREFIX, elapsed, 0.001)


def test_criterion_02_evaluator_agreement():
    start = time.perf_counter()
    ok = all(
        stern(n) == stern_via_christoffel(n) == stern_via_subwords(n)
        for n in range(2**14 + 1)
    )
    ok = ok and all(stern(n) == stern_via_zeta(n) for n in range(2, 5001))
    elapsed = time.perf_counter() - start
    report(2, "four evaluators agree (3 ways to 2^14, continuant to 5000)", ok, elapsed, 30.0)


def test_criterion_03_worked_example():
    cw = christoffel_by_slope(4, 7)
    ok = cw.word == "aabaabaabab"
    ok = ok and psi("abaa") == "abaabaaba" == cw.word[1:-1]
    ok = ok and period_pair("abaa") == (3, 8)
    w1, w2 = lyndon_factorization(cw)
    ok = ok and (w1.word, w2.word) == ("aab", "aabaabab")
    ok = ok and (4 * 3) % 11 == 1 and (7 * 8) % 11 == 1
    ok = ok and (len(w1.word) * 4) % 11 == 1 and (len(w2.word) * 7) % 11 == 1
    report(3, "slope 4/7 worked example end to end", ok)


def test_criterion_04_odd_even_correspondence():
    start = time.perf_counter()
    ok = True
    for w in words_up_to(12):
        n = encode("b" + w + "b")
        if stern(n) != sum(period_pair(w)):
            ok = False
            break
        if stern(n + 1) != min_period_central(w + "b"):
            ok = False
            break
    elapsed = time.perf_counter() - start
    report(4, "s(<bwb>) is a length, s(<bwb>+1) a period, |w| <= 12", ok, elapsed, 20.0)


def test_criterion_05_marked_occurrences():
    start = time.perf_counter()
    ok = all(marked_occurrences(w)[0] == psi(w) + "ba" for w in words_up_to(10))
    markers, rows = marked_occurrences("abbaa")
    ok = ok and sum(1 for r in rows if r.marker == "a") == 10
    ok = ok and sum(1 for r in rows if r.marker == "b") == 7
    ok = ok and [r.reversed_key for r in rows[:3]] == [
        (7, 6, 4, 2, 1), (7, 6, 4), (7, 6, 3, 2, 1)]
    elapsed = time.perf_counter() - start
    report(5, "sorted marked occurrences spell psi(w)ba, |w| <= 10", ok, elapsed, 60.0)


def test_criterion_06_factor_decomposition():
    ok = all(factor_decomposition(w).total == sum(period_pair(w)) for w in words_up_to(12))
    d = factor_decomposition("ababa")
    parts = [d.base] + [c for _, c in d.single_a] + [
        weight * count for _, _, weight, count in d.multi_a]
    ok = ok and parts == [4, 3, 6, 8] and sum(parts) == 21 == d.total
    report(6, "weighted factor decomposition totals, |w| <= 12", ok)


def test_criterion_07_trees():
    ok = True
    for w in words_up_to(12):
        if stern_brocot(w) != raney(reverse(w)):
            ok = False
            break
        if raney(complement(w)) != raney(w).inverse:
            ok = False
            break
        if mirror_formula(w) != (stern_brocot(w), raney(w)):
            ok = False
            break
    ok = ok and all(
        ra_of(n) == (stern(n - 1), stern(n)) for n in range(2, 2**12 + 1)
    )
    report(7, "tree duality, inversion, mirror formula, Stern quotients", ok)


def test_criterion_08_continuant_length_period():
    ok = True
    for v in words_up_to(14):
        pa, pb = period_pair(v)
        if christoffel_length_cf(v) != (pa + pb, min_period_central(v)):
            ok = False
            break
    report(8, "continuant length/period equals period-pair route, |v| <= 14", ok)


def test_criterion_09_distribution_tables():
    start = time.perf_counter()
    ok = True
    for k in range(1, 15):
        h = histogram(k)
        s = summarize(k)
        if h.mass != 2**k or h.weighted_mass != 2 * 3**k:
            ok = False
            break
        if s.max_count != MAX_COUNTS[k]:
            ok = False
            break
        if not set(LISTED_ARGMAX[k]) <= set(s.argmax):
            ok = False
            break
        if s.missing_count != MISSING_COUNTS[k - 1]:
            ok = False
            break
    elapsed = time.perf_counter() - start
    report(9, "order statistics and published tables, k <= 14", ok, elapsed, 120.0)


def test_criterion_10_length_bounds():
    ok = True
    for k in range(3, 15):
        r = bound_report(k)
        if not r.passed:
            ok = False
            break
        if summarize(k).missing_count < fib(k - 4) + k - 3:
            ok = False
            break
    # spot-check the extremal classes at one order
    ok = ok and {v for v in words_of_length(4) if sum(period_pair(v)) == 12} == word_class(
        almost_alternating(4))
    ok = ok and all(sum(period_pair(alternating(k))) == fib(k + 1) for k in range(3, 15))
    report(10, "exhaustive length bounds with equality classes, 3 <= k <= 14", ok)


def test_criterion_11_identities():
    ok = all(stern(n) == stern(reverse_bits(n)) for n in range(2**14 + 1))
    ok = ok and all(
        stern(2**k + p) == stern(2 ** (k + 1) - p)
        for k in range(13)
        for p in range(1, 2**k + 1)
    )
    ok = ok and all(
        stern(n - 1) // stern(n) == ruler(n) for n in range(1, 2**12 + 1)
    )
    ok = ok and all(
        Fraction(stern(n), stern(n + 1))
        == 1 / (2 * ruler(n) + 1 - Fraction(stern(n - 1), stern(n)))
        for n in range(1, 2**12 + 1)
    )
    for k in range(3, 14):
        ok = ok and all(
            stern(2**k + 8 * p + 1) < stern(2**k + 8 * p + 3)
            and stern(2**k + 8 * p + 5) > stern(2**k + 8 * p + 7)
            for p in range(2 ** (k - 3))
        )
    ok = ok and all(delta_expansion(n).total == stern(2 * n - 1) for n in range(2, 2**12 + 1))
    ok = ok and all(
        sum(counts_for_length(n).values()) == totient(n) for n in range(2, 301)
    )
    report(11, "Stern identity block and totient identity", ok)


def test_criterion_12_fibonacci_word():
    target = psi("ab" * 6)
    prefix = psi_prefix("", "ab", len(target))
    ok = prefix == target and prefix.startswith("abaababaabaab")
    report(12, "periodic directive prefix reproduces the Fibonacci word", ok)
