"""Acceptance suite: one test per shipped guarantee, each printing one
``criterion NN PASS|FAIL`` line (run with -s to see them) and enforcing
its runtime budget where one is stated.

A criterion that states one of ``verify``'s identities runs the declared
check at the criterion's bounds, so its line carries the check's detail
and a FAIL names the first failing case.  What no check covers (the
worked example, spot checks, and the ranges past verify's clamps) is
decided by the same verdict rule, so it names its first failing case too.
"""

import time

from conftest import check, words_of_length
from diatomic import (
    almost_alternating,
    alternating,
    christoffel_by_slope,
    factor_decomposition,
    fib,
    lyndon_factorization,
    marked_occurrences,
    period_pair,
    psi,
    reverse_bits,
    stern_via_zeta,
    verify,
    word_class,
    zeta_sterns,
)
from diatomic.stern import stern


def facts(name, detail, **holds):
    """A criterion's own assertions, named: FAIL at the first that fails."""
    return verify._verdict(name, detail, (fact for fact, ok in holds.items() if not ok))


def report(number, start, results, budget=None):
    """Print the criterion's line, with the detail of each result, and
    assert that every result passed within the budget."""
    elapsed = time.perf_counter() - start
    ok = all(r.ok for r in results)
    details = " | ".join(f"{r.name}: {r.detail}" for r in results)
    timing = f"  [{elapsed:.3f}s" + (f" < {budget}s]" if budget is not None else "]")
    line = f"criterion {number:2d} {'PASS' if ok else 'FAIL'}  {details}{timing}"
    print(line)
    assert ok, line
    if budget is not None:
        assert elapsed < budget, f"criterion {number} exceeded {budget}s ({elapsed:.3f}s)"


def test_criterion_01_stern_prefix():
    start = time.perf_counter()
    report(1, start, [check("stern-prefix-values")(0, 0)], 0.001)


def test_criterion_02_evaluator_agreement():
    # the check's continuant route stops at its clamp, 2048; one sweep goes on to 5000
    start = time.perf_counter()
    results = [
        check("stern-evaluator-agreement")(0, 2**14),
        verify._verdict(
            "continuant-sweep", "continuant = recurrence on 2..5000",
            (n for n, value in enumerate(zeta_sterns(5000), start=2) if stern(n) != value),
        ),
        facts("continuant-value", "stern_via_zeta at 5000",
              at_5000=stern_via_zeta(5000) == stern(5000)),
    ]
    report(2, start, results, 30.0)


def test_criterion_03_worked_example():
    start = time.perf_counter()
    cw = christoffel_by_slope(4, 7)
    w1, w2 = lyndon_factorization(cw)
    example = facts(
        "worked-example", "slope 4/7 end to end",
        word=cw.word == "aabaabaabab",
        psi=psi("abaa") == "abaabaaba" == cw.word[1:-1],
        period_pair=period_pair("abaa") == (3, 8),
        factors=(w1.word, w2.word) == ("aab", "aabaabab"),
        inverses=(4 * 3) % 11 == 1 and (7 * 8) % 11 == 1,
        factor_lengths=(len(w1.word) * 4) % 11 == 1 and (len(w2.word) * 7) % 11 == 1,
    )
    report(3, start, [example])


def test_criterion_04_odd_even_correspondence():
    start = time.perf_counter()
    report(4, start, [check("odd-length-even-period")(12, 0)], 20.0)


def test_criterion_05_marked_occurrences():
    start = time.perf_counter()
    markers, rows = marked_occurrences("abbaa")
    spot = facts(
        "abbaa-table", "marker counts and first keys",
        a_markers=markers.count("a") == 10,
        b_markers=markers.count("b") == 7,
        first_keys=rows[:3] == [
            (7, 6, 4, 2, 1), (7, 6, 4), (7, 6, 3, 2, 1)],
    )
    report(5, start, [check("occurrence-markers")(10, 0), spot], 60.0)


def test_criterion_06_factor_decomposition():
    start = time.perf_counter()
    d = factor_decomposition("ababa")
    parts = [d.base] + [c for _, c in d.single_a] + [
        weight * count for _, _, weight, count in d.multi_a]
    spot = facts("ababa-parts", "4 + 3 + 6 + 8 = 21",
                 parts=parts == [4, 3, 6, 8], total=sum(parts) == 21 == d.total)
    report(6, start, [check("weighted-factor-decomposition")(12, 0), spot])


def test_criterion_07_trees():
    start = time.perf_counter()
    results = [
        check("tree-duality")(12, 0),
        check("mirror-formula")(12, 0),
        check("tree-numbering-stern")(0, 2**12),
    ]
    report(7, start, results)


def test_criterion_08_continuant_length_period():
    start = time.perf_counter()
    report(8, start, [check("continuant-length-period")(14, 0)])


def test_criterion_09_distribution_tables():
    verify._order.cache_clear()
    start = time.perf_counter()
    results = [check("histogram-invariants")(14, 0), check("published-table-pins")(14, 0)]
    report(9, start, results, 120.0)


def test_criterion_10_length_bounds():
    verify._order.cache_clear()
    start = time.perf_counter()
    spots = [
        facts("ceiling-class", "the length-12 words of order 4",
              class_of_4=word_class(almost_alternating(4))
              == {v for v in words_of_length(4) if sum(period_pair(v)) == 12}),
        verify._verdict(
            "alternating-length", "|a psi(alternating(k)) b| = F(k+1), 3 <= k <= 14",
            (k for k in range(3, 15) if sum(period_pair(alternating(k))) != fib(k + 1)),
        ),
    ]
    report(10, start, [check("length-bounds")(14, 0), *spots])


def test_criterion_11_identities():
    # the check's bit reversal stops at its clamp, 4096; the range goes on to 2^14
    start = time.perf_counter()
    results = [
        check("stern-identities")(13, 2**12),
        check("totient-identity")(14, 300),
        verify._verdict(
            "bit-reversal", "s(n) = s(rev n) on 4097..2^14",
            (n for n in range(4097, 2**14 + 1) if stern(n) != stern(reverse_bits(n))),
        ),
    ]
    report(11, start, results)


def test_criterion_12_fibonacci_word():
    start = time.perf_counter()
    report(12, start, [check("fibonacci-word-prefix")(0, 0)])
