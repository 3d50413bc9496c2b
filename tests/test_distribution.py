import time
from fractions import Fraction
from math import gcd

import pytest

from conftest import words_of_length
from diatomic.continuants import cf_terms, fib
from diatomic import distribution
from diatomic.distribution import (
    BoundReport,
    LengthHistogram,
    _descendants,
    almost_alternating,
    alternating,
    bound_report,
    bound_report_histogram,
    counts_for_length,
    histogram,
    max_count_lower_bound,
    totient,
    word_class,
)
from diatomic.palindromes import period_pair
from diatomic.stern import stern
from diatomic.verify import MAX_COUNT_TABLE, MISSING_COUNT_TABLE
from diatomic.words import BudgetError, complement, encode


def stern_row(k):
    """Stern values s(2^k) .. s(2^(k+1)) by repeated mediant insertion."""
    row = [1, 1]
    for _ in range(k):
        inserted = []
        for x, y in zip(row, row[1:]):
            inserted += [x, x + y]
        inserted.append(row[-1])
        row = inserted
    return row


def histogram_via_stern_rows(k):
    row = stern_row(k)
    counts: dict[int, int] = {}
    for x, y in zip(row, row[1:]):
        counts[x + y] = counts.get(x + y, 0) + 1
    return counts


SMALL_HISTOGRAMS = {
    0: {2: 1},
    1: {3: 2},
    2: {4: 2, 5: 2},
    3: {5: 2, 7: 4, 8: 2},
    4: {6: 2, 9: 4, 10: 2, 11: 4, 12: 2, 13: 2},
    5: {7: 2, 11: 4, 13: 4, 14: 4, 15: 2, 16: 2, 17: 4, 18: 4, 19: 4, 21: 2},
}


def test_histogram_small():
    for k, counts in SMALL_HISTOGRAMS.items():
        assert list(histogram(k).counts.items()) == list(counts.items())


def test_histogram_fixed_words_count_twice():
    # A palindrome, and at even order a word equal to its reverse
    # complement, stands for itself and its complement only: the ends of
    # the sweep's rows.  Every other class holds four words of one length,
    # so a count is 2 mod 4 exactly where an odd number of such fixed
    # classes has that length.
    assert {n: c for n, c in histogram(6).counts.items() if c % 4} == {
        8: 2, 17: 6, 20: 2, 24: 2, 25: 6, 29: 6, 30: 2, 34: 2}
    assert {n: c for n, c in histogram(7).counts.items() if c % 4} == {
        9: 2, 33: 6, 39: 6, 40: 2, 45: 2, 55: 2}
    for k in (6, 7):
        fixed: dict[int, int] = {}
        for v in words_of_length(k):
            if v in (v[::-1], complement(v)[::-1]):
                n = sum(period_pair(v))
                fixed[n] = fixed.get(n, 0) + 1
        counts = histogram(k).counts
        assert all((counts[n] - fixed.get(n, 0)) % 4 == 0 for n in counts)


def test_histogram_matches_directive_enumeration():
    for k in range(13):
        counts: dict[int, int] = {}
        for v in words_of_length(k):
            n = sum(period_pair(v))
            counts[n] = counts.get(n, 0) + 1
        assert list(histogram(k).counts.items()) == sorted(counts.items())


def test_histogram_matches_stern_rows():
    # key order included: the counts come sorted by length
    for k in range(17):
        expected = sorted(histogram_via_stern_rows(k).items())
        assert list(histogram(k).counts.items()) == expected


def test_descendants_index_bits_spell_directives():
    for k in range(9):
        xs, ys = _descendants(k)
        assert list(zip(xs, ys)) == [period_pair(v) for v in words_of_length(k)]


def test_histogram_masses():
    for k in range(15):
        h = histogram(k)
        assert h.mass == 2**k
        assert h.weighted_mass == 2 * 3**k


def test_histogram_budget(monkeypatch):
    with pytest.raises(BudgetError):
        histogram(30)
    monkeypatch.setattr(distribution, "MAX_ENUMERATED_ORDER", 4)
    with pytest.raises(BudgetError):
        histogram(5)
    with pytest.raises(ValueError):
        histogram(-1)


def test_histogram_lanes_hold_every_enumerated_length():
    # histogram packs one length per lane; the longest word of the largest
    # order must fit, or the lanes would carry into each other
    assert fib(distribution.MAX_ENUMERATED_ORDER + 1) < 2 ** (8 * distribution._LANE)


def test_histogram_refuses_orders_past_the_lane(monkeypatch):
    monkeypatch.setattr(distribution, "MAX_ENUMERATED_ORDER", 100)
    start = time.perf_counter()
    with pytest.raises(BudgetError, match="MAX_ENUMERATED_ORDER"):
        histogram(50)
    assert time.perf_counter() - start < 0.1


def test_support_bounds_and_gaps():
    for k in range(3, 13):
        support = histogram(k).support
        assert support[0] == k + 2
        assert support[-1] == fib(k + 1)
        gap_low = set(range(k + 3, 2 * k + 1))
        gap_high = set(range(fib(k + 1) - fib(k - 4) + 1, fib(k + 1)))
        assert not gap_low & set(support)
        assert not gap_high & set(support)


def test_summary_table_pins():
    for k in range(1, 15):
        h = histogram(k)
        max_count, listed = MAX_COUNT_TABLE[k]
        assert h.max_count == max_count
        assert set(listed) <= set(h.argmax)
        assert len(h.missing) == MISSING_COUNT_TABLE[k - 1]
    assert histogram(5).argmax == [11, 13, 14, 17, 18, 19]
    assert histogram(3).missing == [6]


def test_alternating():
    assert alternating(4, "a") == "abab"
    assert alternating(5, "b") == "babab"
    assert alternating(0) == ""
    with pytest.raises(ValueError):
        alternating(3, "c")


def test_alternating_numbers():
    for k in range(1, 17):
        u = alternating(k - 1, "a")
        assert encode("b" + u + "b") == (2 ** (k + 2) + (-1) ** (k + 1)) // 3
        bar = alternating(k - 1, "b")
        assert encode("b" + bar + "b") == (5 * 2**k + (-1) ** k) // 3
        assert fib(k) == stern((2 ** (k + 2) + (-1) ** (k + 1)) // 3)


def test_alternating_reaches_fibonacci():
    for k in range(21):
        assert sum(period_pair(alternating(k, "a"))) == fib(k + 1)
        assert sum(period_pair(alternating(k, "b"))) == fib(k + 1)


def test_almost_alternating_words():
    assert almost_alternating(3) == "abb"
    assert almost_alternating(4) == "abba"
    assert almost_alternating(5) == "abbab"
    with pytest.raises(ValueError):
        almost_alternating(2)
    assert sum(period_pair("abb")) == 7 == fib(4) - fib(-1)
    assert sum(period_pair("abba")) == 12 == fib(5) - fib(0)
    for k in range(3, 21):
        assert sum(period_pair(almost_alternating(k))) == fib(k + 1) - fib(k - 4)


def test_word_class():
    assert word_class("abb") == {"abb", "bba", "baa", "aab"}
    assert word_class("ab") == {"ab", "ba"}
    assert word_class("") == {""}
    for k in range(3, 12):
        lengths = {sum(period_pair(v)) for v in word_class(almost_alternating(k))}
        assert len(lengths) == 1


def test_totient():
    assert totient(1) == 1
    assert totient(11) == 10
    assert totient(12) == 4
    assert totient(2**10) == 2**9
    with pytest.raises(ValueError):
        totient(0)


def test_counts_for_length_matches_histograms():
    # the class sweep per order against the residue route per length: every
    # length n <= 300 at every order up to 18, and the whole histogram of
    # every order whose longest word, F(k+1), is within that range
    by_length = {n: counts_for_length(n) for n in range(2, 301)}
    for k in range(19):
        counts = histogram(k).counts
        per_length = {n: c[k] for n, c in by_length.items() if k in c}
        assert {n: c for n, c in counts.items() if n <= 300} == per_length
        if fib(k + 1) <= 300:
            assert counts == per_length


def test_counts_for_length_matches_full_residue_loop():
    # the oracle reads every residue 1 <= p < n, where counts_for_length
    # reads p < n/2 and counts each twice
    for n in range(2, 2001):
        counts = {}
        for p in range(1, n):
            if gcd(p, n) == 1:
                k = sum(cf_terms(p, n - p)) - 1
                counts[k] = counts.get(k, 0) + 1
        expected = dict(sorted(counts.items()))
        got = counts_for_length(n)
        assert list(got.items()) == list(expected.items()), n


def test_counts_for_length_example():
    assert sum(counts_for_length(11).values()) == 10 == totient(11)


def test_bound_report():
    for k in range(3, 13):
        assert bound_report(k).passed
    with pytest.raises(ValueError):
        bound_report(2)


def brute_bound_report(k):
    """Every bound_report predicate, over all 2^k directives spelled out."""
    lengths = {v: sum(period_pair(v)) for v in words_of_length(k)}
    lo, top = k + 2, fib(k + 1)
    floor, ceiling = 2 * k + 1, fib(k + 1) - fib(k - 4)
    constants = {"a" * k, "b" * k}
    alternating_pair = {alternating(k, "a"), alternating(k, "b")}

    def hits(n):
        return {v for v, m in lengths.items() if m == n}

    support = set(lengths.values())
    return BoundReport(
        k,
        min(support) >= lo and hits(lo) == constants,
        all(n >= floor for v, n in lengths.items() if v not in constants),
        hits(floor) == word_class("a" + "b" * (k - 1)),
        max(support) <= top and hits(top) == alternating_pair,
        all(n <= ceiling for v, n in lengths.items() if v not in alternating_pair),
        hits(ceiling) == word_class(almost_alternating(k)),
        {3 * k - 2, 3 * k - 1, 5 * k - 8, 5 * k - 7} <= support,
        sum(1 for n in range(lo, top + 1) if n not in support) >= fib(k - 4) + k - 3,
    )


def test_bound_report_matches_brute_force():
    for k in range(3, 17):
        assert bound_report(k) == brute_bound_report(k)


def moved(counts, source, target, c=1):
    """``counts`` with c words of length ``source`` given length ``target``."""
    edited = dict(counts)
    edited[target] = edited.get(target, 0) + c
    edited[source] -= c
    return {n: m for n, m in sorted(edited.items()) if m}


def test_bound_report_reads_each_predicate_from_the_counts():
    # order 6: constants at 8, floor 13, ceiling 31, alternating pair at 34,
    # consecutive lengths 16, 17, 22, 23; 26 is none of these
    counts = histogram(6).counts
    assert (min(counts), max(counts), counts[13], counts[31], counts[26]) == (8, 34, 4, 4, 4)
    assert bound_report_histogram(histogram(6)).passed

    def failed(edited):
        report = bound_report_histogram(LengthHistogram(6, edited))._asdict()
        return [name for name, ok in report.items() if ok is False]

    assert failed(moved(counts, 8, 9)) == ["least_length_ok"]  # a constant one longer
    assert failed(moved(counts, 26, 10)) == ["nonconstant_floor_ok"]
    assert failed(moved(counts, 26, 13)) == ["floor_equality_ok"]
    assert failed(moved(counts, 34, 35)) == ["greatest_length_ok"]  # an alternating word
    assert failed(moved(counts, 26, 32)) == ["nonalternating_ceiling_ok"]
    assert failed(moved(counts, 26, 31)) == ["ceiling_equality_ok"]
    assert failed(moved(counts, 16, 26, 4)) == ["consecutive_lengths_ok"]
    # a word past either end, with the extremal counts kept, also breaks
    # the floor or the ceiling beside it
    assert failed(moved(counts, 26, 7)) == ["least_length_ok", "nonconstant_floor_ok"]
    assert failed(moved(counts, 26, 35)) == ["greatest_length_ok", "nonalternating_ceiling_ok"]
    # the missing-length floor F(k-4) + k - 3 counts exactly the lengths of
    # the two gaps (k+2, 2k+1) and (F(k+1) - F(k-4), F(k+1)): filling every
    # other missing length meets it, and no edit breaks it alone
    middle = counts
    for n in (14, 15, 18, 21, 28):  # from the 8 words of length 23
        middle = moved(middle, 23, n)
    assert failed(middle) == []
    assert failed(moved(middle, 23, 9)) == ["nonconstant_floor_ok", "missing_floor_ok"]


def test_bound_report_k4_equality_class():
    # at order 4 the second-largest length 12 is hit only by abba and baab
    import itertools

    hits = {
        "".join(v)
        for v in itertools.product("ab", repeat=4)
        if sum(period_pair("".join(v))) == 12
    }
    assert hits == {"abba", "baab"} == word_class(almost_alternating(4))


def test_floor_equality_class_k3():
    import itertools

    hits = {
        "".join(v)
        for v in itertools.product("ab", repeat=3)
        if sum(period_pair("".join(v))) == 7
    }
    assert hits == word_class("abb")


def test_consecutive_lengths():
    for k in range(2, 15):
        support = set(histogram(k).counts)
        assert 3 * k - 2 in support and 3 * k - 1 in support
        if k >= 3:
            assert 5 * k - 8 in support and 5 * k - 7 in support
        assert sum(period_pair("aa" + "b" * (k - 2))) == 3 * k - 2
        assert sum(period_pair("ab" + "a" * (k - 2))) == 3 * k - 1


def test_max_count_lower_bound():
    for k in range(1, 15):
        bound = max_count_lower_bound(k)
        assert isinstance(bound, Fraction)
        assert histogram(k).max_count >= bound
    with pytest.raises(ValueError):
        max_count_lower_bound(0)


def test_max_count_monotonicity_observed():
    values = [histogram(k).max_count for k in range(1, 15)]
    assert values == sorted(values)
    for i in range(2, len(values)):
        assert values[i] <= values[i - 1] + values[i - 2]


def test_missing_count_lower_bound():
    for k in range(3, 15):
        assert len(histogram(k).missing) >= fib(k - 4) + k - 3
