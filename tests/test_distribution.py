from fractions import Fraction

import pytest

from conftest import words_of_length
from diatomic.continuants import fib
from diatomic import distribution
from diatomic.distribution import (
    BoundReport,
    _descendants,
    almost_alternating,
    alternating,
    bound_report,
    counts_for_length,
    histogram,
    max_count_lower_bound,
    summarize,
    totient,
    totient_identity_check,
    word_class,
)
from diatomic.palindromes import period_pair
from diatomic.stern import stern
from diatomic.words import BudgetError, encode

MAX_COUNTS = {1: 2, 2: 2, 3: 4, 4: 4, 5: 4, 6: 8, 7: 12, 8: 12, 9: 16,
              10: 24, 11: 28, 12: 36, 13: 48, 14: 64}
LISTED_ARGMAX = {1: [3], 2: [4, 5], 3: [7], 4: [9, 11], 5: [11, 13, 14, 17, 18, 19],
                 6: [23], 7: [41], 8: [43], 9: [71, 73, 83], 10: [113], 11: [227],
                 12: [199, 283], 13: [449], 14: [433]}
MISSING_COUNTS = [0, 0, 1, 2, 5, 11, 18, 29, 51, 74, 119, 195, 323, 498]


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


def test_histogram_small():
    assert histogram(0).counts == {2: 1}
    assert histogram(1).counts == {3: 2}
    assert histogram(3).counts == {5: 2, 7: 4, 8: 2}


def test_histogram_matches_directive_enumeration():
    for k in range(9):
        counts: dict[int, int] = {}
        for v in words_of_length(k):
            n = sum(period_pair(v))
            counts[n] = counts.get(n, 0) + 1
        assert histogram(k).counts == dict(sorted(counts.items()))


def test_histogram_matches_stern_rows():
    # key order included: the counts come sorted by length
    for k in range(17):
        expected = sorted(histogram_via_stern_rows(k).items())
        assert list(histogram(k).counts.items()) == expected


def test_descendants_index_bits_spell_directives():
    for k in range(9):
        xs, ys = _descendants(k)
        pairs = [period_pair("".join(reversed(v))) for v in words_of_length(k)]
        assert list(zip(xs, ys)) == pairs
    assert _descendants(1, 2, 3) == ([2, 5], [5, 3])


def test_histogram_masses():
    for k in range(15):
        h = histogram(k)
        assert h.mass == 2**k
        assert h.weighted_mass == 2 * 3**k
        assert h.average_length == Fraction(2 * 3**k, 2**k) == 2 * Fraction(3, 2) ** k


def test_histogram_budget(monkeypatch):
    with pytest.raises(BudgetError):
        histogram(30)
    monkeypatch.setattr(distribution, "MAX_ENUMERATED_ORDER", 4)
    with pytest.raises(BudgetError):
        histogram(5)
    with pytest.raises(ValueError):
        histogram(-1)


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
        s = summarize(k)
        assert s.max_count == MAX_COUNTS[k]
        assert set(LISTED_ARGMAX[k]) <= set(s.argmax)
        assert s.missing_count == MISSING_COUNTS[k - 1]
    assert summarize(5).argmax == [11, 13, 14, 17, 18, 19]
    assert summarize(3).missing == [6]


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
    by_order = {k: histogram(k).counts for k in range(15)}
    for n in range(2, 30):
        per_k = counts_for_length(n)
        for k in range(15):
            assert per_k.get(k, 0) == by_order[k].get(n, 0)


def test_counts_for_length_example():
    assert sum(counts_for_length(11).values()) == 10 == totient(11)


def test_totient_identity():
    assert totient_identity_check(300)


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
    for k in range(3, 11):
        assert bound_report(k) == brute_bound_report(k)


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
        assert summarize(k).max_count >= bound
    with pytest.raises(ValueError):
        max_count_lower_bound(0)


def test_max_count_monotonicity_observed():
    values = [summarize(k).max_count for k in range(1, 15)]
    assert values == sorted(values)
    for i in range(2, len(values)):
        assert values[i] <= values[i - 1] + values[i - 2]


def test_missing_count_lower_bound():
    for k in range(3, 15):
        assert summarize(k).missing_count >= fib(k - 4) + k - 3
