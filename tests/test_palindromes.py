import random
import time

import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import words_up_to
from diatomic import palindromes
from diatomic.palindromes import (
    PSI_LENGTH_BUDGET,
    mu,
    min_period_central,
    pal_closure,
    period_pair,
    psi,
    psi_inverse,
    psi_prefix,
)
from diatomic.words import BudgetError, complement, is_palindrome, min_period, reverse

words = st.text(alphabet="ab", max_size=12)


def brute_closure(w):
    """Shortest palindrome with prefix w, by trying candidate lengths."""
    for k in range(len(w) + 1):
        cand = w + w[:k][::-1]
        if cand == cand[::-1]:
            return cand
    raise AssertionError


def longest_palindromic_suffix(w):
    """Letter by letter from both ends of each suffix, stopping at the
    first mismatch: quadratic at worst, about linear on random words."""
    n = len(w)
    for i in range(n):
        j, k = i, n - 1
        while j < k and w[j] == w[k]:
            j, k = j + 1, k - 1
        if j >= k:
            return n - i
    return 0


def naive_psi(v, closure=brute_closure):
    w = ""
    for x in v:
        w = closure(w + x)
    return w


def test_pal_closure_examples():
    assert pal_closure("abaa") == "abaaba"
    assert pal_closure("ab") == "aba"
    assert pal_closure("") == ""
    for p in ("a", "aba", "abba", "ababa"):
        assert pal_closure(p) == p


@given(words)
def test_pal_closure_brute(w):
    closed = pal_closure(w)
    assert closed == brute_closure(w)
    assert is_palindrome(closed)
    assert closed.startswith(w)


def test_pal_closure_all_short_words():
    for w in words_up_to(12):
        assert pal_closure(w) == brute_closure(w)


def test_pal_closure_long_inputs():
    k = 50_000
    rng = random.Random(5)
    random_word = "".join(rng.choice("ab") for _ in range(2 * k))
    cut = len(random_word) - longest_palindromic_suffix(random_word)
    cases = [
        ("a" * k + "b" + "a" * (k + 1), "a" * k + "b" + "a" * (k + 1) + "b" + "a" * k),
        ("ab" * k + "b", "ab" * k + "b" + "a" + "ba" * (k - 1)),
        (random_word, random_word + random_word[:cut][::-1]),
    ]
    for w, closed in cases:
        start = time.perf_counter()
        assert pal_closure(w) == closed
        assert time.perf_counter() - start < 1.0


def test_psi_examples():
    assert psi("aba") == "abaaba"
    assert psi("abaa") == "abaabaaba"
    assert psi("abbaa") == "ababaababaababa"
    assert psi("") == ""


def test_psi_matches_naive_closure_iteration(small_words):
    for v in small_words:
        if len(v) <= 8:
            assert psi(v) == naive_psi(v)


@given(words)
def test_psi_is_palindrome(v):
    assert is_palindrome(psi(v))


def test_psi_budget(monkeypatch):
    monkeypatch.setattr(palindromes, "PSI_LENGTH_BUDGET", 10**6)
    with pytest.raises(BudgetError):
        psi("ab" * 40)
    # moderate directives fit the budget
    assert len(psi("ab" * 12)) == len(naive_psi("ab" * 12, pal_closure))


def test_psi_prefix_budget():
    # refused before a letter is grown, so the call returns at once
    start = time.perf_counter()
    with pytest.raises(BudgetError):
        psi_prefix("", "ab", PSI_LENGTH_BUDGET + 1)
    assert time.perf_counter() - start < 1.0


def test_psi_prefix_fibonacci():
    assert psi_prefix("", "ab", 13) == "abaababaabaab"
    assert psi_prefix("", "a", 5) == "aaaaa"
    target = psi("ababab")
    assert psi_prefix("", "ab", len(target)) == target
    assert psi_prefix("", "ab", 0) == ""
    assert psi_prefix("ba", "ab", 7) == psi("baabab")[:7]
    # preperiods longer than n, and lengths between consecutive images
    for pre, per in (("abbab", "ab"), ("bbbbbbbb", "a"), ("aab", "bba")):
        full = psi(pre + per * 6)
        for n in range(len(full) // 2):
            assert psi_prefix(pre, per, n) == full[:n]


def test_psi_prefix_errors():
    with pytest.raises(ValueError):
        psi_prefix("", "ab", -1)
    with pytest.raises(ValueError):
        psi_prefix("a", "", 5)


def test_psi_inverse_examples():
    assert psi_inverse("abaaba") == "aba"
    assert psi_inverse("") == ""
    assert psi_inverse("ab") is None
    assert psi_inverse("ba") is None
    assert psi_inverse("abba") is None  # palindrome but not central


def test_psi_inverse_all_short_words():
    # exactly the images of psi are central; every other word is rejected
    directive_of = {psi(v): v for v in words_up_to(12)}
    for w in words_up_to(12):
        assert psi_inverse(w) == directive_of.get(w)


def test_psi_inverse_roundtrip():
    for v in words_up_to(14):
        assert psi_inverse(psi(v)) == v


def test_mu_examples():
    assert mu("a", "b") == "ab"
    assert mu("", "abba") == "abba"
    assert mu("aba", "ab") == psi("aba") + "ab"


def test_mu_standard_image(small_words):
    for v in small_words:
        assert mu(v, "ab") == psi(v) + "ab"
        assert mu(v, "ba") == psi(v) + "ba"


def test_mu_composes():
    assert mu("ab", "a") == mu("a", mu("b", "a"))
    assert mu("ba", "ab") == mu("b", mu("a", "ab"))


def test_period_pair_examples():
    assert period_pair("abaa") == (3, 8)
    assert period_pair("") == (1, 1)
    assert period_pair("aaba") == (4, 7)
    assert period_pair("aba") == (3, 5)


def test_period_pair_is_morphism_lengths(small_words):
    from math import gcd

    for v in small_words:
        pa, pb = period_pair(v)
        assert (pa, pb) == (len(mu(v, "a")), len(mu(v, "b")))
        assert gcd(pa, pb) == 1
        assert pa + pb - 2 == len(psi(v))


def test_justins_formula():
    for total in range(9):
        for m in range(total + 1):
            for v in words_up_to(m):
                if len(v) != m:
                    continue
                for u in words_up_to(total - m):
                    if len(u) == total - m:
                        assert psi(v + u) == mu(v, psi(u)) + psi(v)


def test_prefix_images_nest(small_words):
    for v in small_words:
        image = psi(v)
        for i in range(len(v) + 1):
            part = psi(v[:i])
            assert image.startswith(part) and image.endswith(part)


@given(words)
def test_reversal_and_complement_symmetries(v):
    assert len(psi(reverse(v))) == len(psi(v))
    assert psi(complement(v)) == complement(psi(v))


def test_min_period_central(small_words):
    for v in small_words:
        assert min_period_central(v) == min_period(psi(v))
        assert min_period_central(v) == min(period_pair(v))


def test_period_sum_decompositions():
    # len(psi(v)) as a sum of prefix periods, and as complement-letter counts
    for v in words_up_to(12):
        if not v:
            continue
        total = sum(min_period_central(v[: i + 1]) for i in range(len(v)))
        assert total == len(psi(v))
        counts = sum(
            ("a" + psi(v[i:]) + "b").count(complement(v[i])) for i in range(len(v))
        )
        assert counts == len(psi(v))
