import tracemalloc
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import words_up_to
from diatomic.christoffel import (
    christoffel_by_directive,
    christoffel_by_slope,
    christoffel_of_word,
    is_standard,
    lyndon_factorization,
    standard_by_coefficients,
)
from diatomic import palindromes
from diatomic.palindromes import (
    PSI_LENGTH_BUDGET,
    min_period_central,
    period_pair,
    psi,
    psi_inverse,
)
from diatomic.words import BudgetError, complement, is_lyndon, min_period


def letterwise_christoffel(p, q):
    """Christoffel word of slope p/q read off the values i*p mod (p+q):
    positions where the value increases carry a, the others b."""
    n = p + q
    letters = []
    prev = 0
    for _ in range(n):
        cur = (prev + p) % n
        letters.append("a" if cur > prev else "b")
        prev = cur
    return "".join(letters)


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
    # 80 letters: both routes hold one byte per letter and keep all 80
    monkeypatch.setattr(palindromes, "PSI_LENGTH_BUDGET", 80)
    with pytest.raises(BudgetError):
        christoffel_by_directive("ab" * 5)  # 231-letter central part
    with pytest.raises(BudgetError):
        christoffel_by_slope(1, 82)  # 81-letter central part
    assert christoffel_by_slope(1, 81).word == "a" * 81 + "b"


def test_refused_slope_allocates_nothing():
    tracemalloc.start()
    try:
        with pytest.raises(BudgetError):
            christoffel_by_slope(1, PSI_LENGTH_BUDGET + 2)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2**20


def test_descent_matches_letterwise_oracle():
    for n in range(2, 301):
        for p in range(1, n):
            if gcd(p, n) == 1:
                assert christoffel_by_slope(p, n - p).word == letterwise_christoffel(p, n - p)


@settings(max_examples=60, deadline=None)
@given(st.integers(2, 10**6), st.integers(1, 10**6 - 1))
def test_descent_matches_letterwise_oracle_on_long_slopes(n, p):
    p = p % (n - 1) + 1
    if gcd(p, n) == 1:
        assert christoffel_by_slope(p, n - p).word == letterwise_christoffel(p, n - p)


@pytest.mark.parametrize("p, q", [(3524578, 5702887), (1, 10**6), (10**6, 1), (1, 2)])
def test_descent_on_golden_and_extreme_slopes(p, q):
    cw = christoffel_by_slope(p, q)
    assert cw.word == letterwise_christoffel(p, q)
    assert cw.directive is not None and len(cw.word) == p + q


def test_descent_spells_the_directive_of_its_word():
    # the runs of the descent against the directive read back off the word
    slopes = [(p, n - p) for n in range(2, 301) for p in range(1, n) if gcd(p, n) == 1]
    slopes += [(3524578, 5702887), (1, 10**6), (10**6, 1)]
    for p, q in slopes:
        cw = christoffel_by_slope(p, q)
        assert cw.directive == palindromes.psi_inverse(cw.word[1:-1])


def test_descent_is_independent_of_the_directive_routes(monkeypatch):
    # the descent spells Euclid out itself: no palindromization, periods,
    # continued fractions or tree labels
    from diatomic import christoffel, continuants, trees

    def forbidden(*args):
        raise AssertionError("the slope route reached another route")

    for module, name in (
        (palindromes, "psi"),
        (palindromes, "framed_psi"),
        (palindromes, "period_pair"),
        (christoffel, "framed_psi"),
        (continuants, "cf_terms"),
        (trees, "stern_brocot"),
        (christoffel, "stern_brocot"),
        (palindromes, "psi_inverse"),
        (christoffel, "psi_inverse"),
    ):
        monkeypatch.setattr(module, name, forbidden)
    for p, q in ((4, 7), (3524578, 5702887), (1, 1000), (999, 1)):
        cw = christoffel_by_slope(p, q)
        assert cw.word == letterwise_christoffel(p, q)


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
            assert christoffel_of_word(cw.word) == cw
            if cw.proper:
                assert christoffel_by_directive(cw.directive) == cw


def test_directive_of_examples():
    assert christoffel_of_word("aabaabaabab").directive == "abaa"
    assert christoffel_of_word("ab").directive == ""
    assert christoffel_of_word("a").directive is None
    assert christoffel_of_word("ba") is None
    assert christoffel_of_word("aabb") is None


def test_recognizers(small_words):
    for w in small_words:
        assert (psi_inverse(w) is not None) == brute_is_central(w)
    assert psi_inverse("abaabaaba") == "abaa"
    assert psi_inverse("") == ""
    assert is_standard(psi("aba") + "ab")
    assert is_standard("a") and is_standard("b")
    assert not is_standard("")
    assert not is_standard("bb")
    assert not is_standard("abab")
    assert christoffel_of_word("a") is not None and christoffel_of_word("ab") is not None
    assert christoffel_of_word("ba") is None


def test_standard_set_shape(small_words):
    for w in small_words:
        expected = w in ("a", "b") or (
            len(w) >= 2 and w[-2:] in ("ab", "ba") and brute_is_central(w[:-2])
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
        # the closed-form slopes and directives of the factors agree
        # with reading each factor back as a Christoffel word
        assert (w1, w2) == (christoffel_of_word(w1.word), christoffel_of_word(w2.word))


@settings(max_examples=60, deadline=None)
@given(st.text(alphabet="ab", min_size=11, max_size=24))
def test_factor_slopes_and_directives_match_recognition_long(v):
    w1, w2 = lyndon_factorization(christoffel_by_directive(v))
    assert (w1, w2) == (christoffel_of_word(w1.word), christoffel_of_word(w2.word))


def test_christoffel_words_are_lyndon():
    for v in words_up_to(10):
        assert is_lyndon(christoffel_by_directive(v).word)


def test_reversed_directive_periods_are_letter_counts():
    for v in words_up_to(12):
        w = "a" + psi(v) + "b"
        assert period_pair(v[::-1]) == (w.count("b"), w.count("a"))
        if v:
            # the minimal period of the reversed image counts the rarer letter
            assert min_period_central(v[::-1]) == w.count(complement(v[0]))


def test_length_decompositions():
    from diatomic.words import plus_prefix, plus_suffix

    for v in words_up_to(14):
        if len(set(v)) < 2:
            continue
        total = sum(period_pair(v))
        assert total == sum(period_pair(v[:-1])) + sum(period_pair(plus_prefix(v)))
        assert total == sum(period_pair(v[1:])) + sum(period_pair(plus_suffix(v)))
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
    # |a psi(va) b| < |a psi(vb) b| exactly when v ends in a, and the two
    # lengths never tie
    for v in words_up_to(10):
        if not v:
            continue
        la = len(christoffel_by_directive(v + "a").word)
        lb = len(christoffel_by_directive(v + "b").word)
        assert la != lb
        assert (la < lb) == (v[-1] == "a")


def test_of_word_recognizer(small_words):
    for w in small_words:
        cw = christoffel_of_word(w)
        if cw is not None:
            assert cw.word == w
            assert cw.word.count("b") == cw.slope.num
            assert cw.word.count("a") == cw.slope.den
