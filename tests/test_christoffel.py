from math import gcd

import pytest

from conftest import words_up_to
from diatomic.christoffel import (
    christoffel_by_directive,
    christoffel_by_slope,
    christoffel_of_word,
    directive_of,
    is_central,
    is_christoffel,
    is_standard,
    length_compare_extension,
    lyndon_factorization,
    standard_by_coefficients,
)
from diatomic import palindromes
from diatomic.palindromes import PSI_LENGTH_BUDGET, min_period_central, period_pair, psi
from diatomic.words import BudgetError, complement, is_lyndon, min_period, reverse


def brute_standard_factorization(w):
    """Split before the longest proper suffix that is a Lyndon word."""
    for i in range(1, len(w)):
        if is_lyndon(w[i:]):
            return w[:i], w[i:]
    raise AssertionError


def brute_is_central(w):
    # two coprime periods p, q with p + q = len(w) + 2; constants included
    n = len(w)
    for p in range(1, n + 2):
        q = n + 2 - p
        if q < 1 or gcd(p, q) != 1:
            continue
        if all(w[i] == w[i + p] for i in range(n - p)) and all(
            w[i] == w[i + q] for i in range(n - q)
        ):
            return True
    return False


def test_slope_construction_example():
    cw = christoffel_by_slope(4, 7)
    assert cw.word == "aabaabaabab"
    assert cw.word == "a" + psi("abaa") + "b"
    assert cw.directive == "abaa"
    assert cw.order == 4
    assert (cw.slope.num, cw.slope.den) == (4, 7)


def test_single_letter_slopes():
    a = christoffel_by_slope(0, 1)
    b = christoffel_by_slope(1, 0)
    assert (a.word, b.word) == ("a", "b")
    assert a.directive is None and b.directive is None
    assert not a.proper and a.order is None


def test_unit_slope():
    assert christoffel_by_slope(1, 1).word == "ab"


def test_slope_errors():
    with pytest.raises(ValueError):
        christoffel_by_slope(6, 4)
    with pytest.raises(ValueError):
        christoffel_by_slope(0, 0)
    with pytest.raises(ValueError):
        christoffel_by_slope(-1, 2)
    # the central part would have PSI_LENGTH_BUDGET + 1 letters
    with pytest.raises(BudgetError):
        christoffel_by_slope(1, PSI_LENGTH_BUDGET + 2)


def test_both_routes_read_the_one_psi_budget(monkeypatch):
    # 80 letters: psi keeps 80, the slope route an eighth of them
    monkeypatch.setattr(palindromes, "PSI_LENGTH_BUDGET", 80)
    with pytest.raises(BudgetError):
        christoffel_by_directive("ab" * 5)  # 231-letter central part
    with pytest.raises(BudgetError):
        christoffel_by_slope(1, 12)  # 11-letter central part
    assert christoffel_by_slope(1, 11).word == "a" * 11 + "b"


def test_directive_construction():
    assert christoffel_by_directive("abaa").word == "aabaabaabab"
    assert christoffel_by_directive("").word == "ab"
    cw = christoffel_by_directive("abbaa")
    assert cw.word == "a" + "ababaababaababa" + "b" and len(cw.word) == 17


def test_two_construction_routes_agree():
    for p in range(0, 201):
        for q in range(0, 201 - p):
            if gcd(p, q) != 1 or p + q == 0:
                continue
            cw = christoffel_by_slope(p, q)
            assert cw.word.count("b") == p and cw.word.count("a") == q
            if cw.proper:
                assert christoffel_by_directive(cw.directive).word == cw.word
                assert directive_of(cw.word) == cw.directive


def test_directive_of_examples():
    assert directive_of("aabaabaabab") == "abaa"
    assert directive_of("ab") == ""
    assert directive_of("ba") is None
    assert directive_of("aabb") is None


def test_recognizers(small_words):
    for w in small_words:
        assert is_central(w) == brute_is_central(w)
    assert is_central("abaabaaba")
    assert is_central("")
    assert is_standard(psi("aba") + "ab")
    assert is_standard("a") and is_standard("b")
    assert not is_standard("")
    assert not is_standard("bb")
    assert not is_standard("abab")
    assert is_christoffel("a") and is_christoffel("ab")
    assert not is_christoffel("ba")


def test_standard_set_shape(small_words):
    for w in small_words:
        expected = w in ("a", "b") or (
            len(w) >= 2 and w[-2:] in ("ab", "ba") and is_central(w[:-2])
        )
        assert is_standard(w) == expected


def test_lyndon_factorization_example():
    cw = christoffel_by_slope(4, 7)
    w1, w2 = lyndon_factorization(cw)
    assert (w1.word, w2.word) == ("aab", "aabaabab")
    assert (len(w1.word), len(w2.word)) == (3, 8)
    n = len(cw.word)
    assert (len(w1.word) * 4) % n == 1
    assert (len(w2.word) * 7) % n == 1
    assert period_pair("abaa") == (3, 8)


def test_lyndon_factorization_smallest():
    w1, w2 = lyndon_factorization(christoffel_by_slope(1, 1))
    assert (w1.word, w2.word) == ("a", "b")
    with pytest.raises(ValueError):
        lyndon_factorization(christoffel_by_slope(0, 1))


def test_factorization_matches_brute_search():
    for v in words_up_to(10):
        cw = christoffel_by_directive(v)
        w1, w2 = lyndon_factorization(cw)
        assert (w1.word, w2.word) == brute_standard_factorization(cw.word)
        assert w1.word < w2.word
        assert (len(w1.word), len(w2.word)) == period_pair(v)


def test_christoffel_words_are_lyndon():
    for v in words_up_to(10):
        assert is_lyndon(christoffel_by_directive(v).word)


def test_reversed_directive_periods_are_letter_counts():
    for v in words_up_to(12):
        w = "a" + psi(v) + "b"
        assert period_pair(reverse(v)) == (w.count("b"), w.count("a"))
        if v:
            # the minimal period of the reversed image counts the rarer letter
            assert min_period_central(reverse(v)) == w.count(complement(v[0]))


def test_length_decompositions():
    from diatomic.words import drop_first, drop_last, plus_prefix, plus_suffix

    for v in words_up_to(14):
        if len(set(v)) < 2:
            continue
        total = sum(period_pair(v))
        assert total == sum(period_pair(drop_last(v))) + sum(period_pair(plus_prefix(v)))
        assert total == sum(period_pair(drop_first(v))) + sum(period_pair(plus_suffix(v)))
        assert sum(period_pair(plus_prefix(v))) == min_period(psi(v))


def test_standard_by_coefficients():
    assert standard_by_coefficients([1, 1, 1], 5) == ["b", "a", "ab", "aba", "abaab"]
    assert standard_by_coefficients([0], 3) == ["b", "a", "b"]
    assert standard_by_coefficients([], 2) == ["b", "a"]
    for word in standard_by_coefficients([2, 1, 3, 1, 2], 7):
        assert is_standard(word)


def test_standard_by_coefficients_errors():
    with pytest.raises(ValueError):
        standard_by_coefficients([-1], 3)
    with pytest.raises(ValueError):
        standard_by_coefficients([1, 0], 4)
    with pytest.raises(ValueError):
        standard_by_coefficients([1], 5)


def test_length_compare_extension():
    assert length_compare_extension("abaa") == -1
    assert length_compare_extension("b") == 1
    with pytest.raises(ValueError):
        length_compare_extension("")
    for v in words_up_to(10):
        if not v:
            continue
        la = sum(period_pair(v + "a"))
        lb = sum(period_pair(v + "b"))
        expected = (la > lb) - (la < lb)
        assert length_compare_extension(v) == expected
        assert expected == (-1 if v[-1] == "a" else 1)


def test_of_word_recognizer(small_words):
    for w in small_words:
        cw = christoffel_of_word(w)
        if cw is not None:
            assert cw.word == w
            assert cw.word.count("b") == cw.slope.num
            assert cw.word.count("a") == cw.slope.den
