import time
from itertools import combinations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from diatomic import words as words_mod
from diatomic.words import (
    BudgetError,
    complement,
    decode,
    drop_first,
    drop_last,
    encode,
    factor_count,
    integral_rep,
    is_lyndon,
    lex_compare,
    min_period,
    plus_prefix,
    plus_suffix,
    reduced_rep,
    reverse,
    subword_binomial,
    subword_occurrences,
    word_of,
)

words = st.text(alphabet="ab", max_size=12)


def brute_occurrences(w, u):
    """Exponential enumeration of all increasing embedding tuples."""
    return [
        tuple(i + 1 for i in idx)
        for idx in combinations(range(len(w)), len(u))
        if all(w[i] == c for i, c in zip(idx, u))
    ]


def brute_min_period(w):
    for p in range(1, len(w) + 1):
        if all(w[i] == w[i + p] for i in range(len(w) - p)):
            return p
    return 1


def test_complement_examples():
    assert complement("") == ""
    assert complement("ab") == "ba"
    assert complement("abbaa") == "baabb"


def test_reverse_examples():
    assert reverse("") == ""
    assert reverse("aab") == "baa"
    assert reverse("aba") == "aba"


@given(words)
def test_involutions_commute(w):
    assert reverse(reverse(w)) == w
    assert complement(complement(w)) == w
    assert complement(reverse(w)) == reverse(complement(w))


def test_drop_and_plus_examples():
    v = "abbabab"
    assert drop_last(v) == "abbaba"
    assert drop_first(v) == "bbabab"
    assert plus_prefix(v) == "abbab"
    assert plus_suffix(v) == "babab"
    assert drop_last("a") == ""
    assert plus_prefix("ab") == ""


def test_drop_and_plus_errors():
    with pytest.raises(ValueError):
        drop_last("")
    with pytest.raises(ValueError):
        drop_first("")
    for bad in ("", "aaa", "b"):
        with pytest.raises(ValueError):
            plus_prefix(bad)
        with pytest.raises(ValueError):
            plus_suffix(bad)


def test_plus_prefix_brute(small_words):
    # longest prefix followed by the complement of the last letter
    for v in small_words:
        if len(set(v)) < 2:
            continue
        wanted = complement(v[-1])
        best = max(i for i in range(len(v)) if v[i] == wanted)
        assert plus_prefix(v) == v[:best]
        assert plus_suffix(v) == reverse(plus_prefix(reverse(v)))


def test_plus_prefix_is_proper_prefix_of_drop_last(small_words):
    for v in small_words:
        if len(set(v)) == 2:
            assert drop_last(v).startswith(plus_prefix(v))
            assert len(plus_prefix(v)) < len(drop_last(v))


def test_integral_rep_examples():
    assert integral_rep("bbabaa") == (2, 1, 1, 2, 0)
    assert integral_rep("aaababb") == (0, 3, 1, 1, 2)
    assert integral_rep("") == (0,)
    assert reduced_rep("") == (0,)
    assert reduced_rep("abaa") == (0, 1, 1, 2)


@given(words)
def test_integral_rep_roundtrip(w):
    rep = integral_rep(w)
    assert word_of(rep) == w
    assert len(rep) % 2 == 1
    assert all(k > 0 for k in rep[1:-1])
    assert sum(rep) == len(w)


def test_word_of_rejects_malformed():
    for bad in ((0, 0), (1, 0, 1), (1, -1, 1), (2, 1)):
        with pytest.raises(ValueError):
            word_of(bad)


def test_encode_decode_examples():
    assert encode("a") == 0
    assert encode("baaba") == 18
    assert decode(21) == "babab"
    assert decode(0) == "a"
    assert decode(1) == "b"


@given(st.integers(min_value=0, max_value=10**30))
def test_decode_encode_roundtrip(n):
    assert encode(decode(n)) == n


@given(words)
def test_b_prefixed_words_roundtrip(w):
    assert decode(encode("b" + w)) == "b" + w


def test_factor_count_examples():
    assert factor_count("bababab", "bab") == 3
    assert factor_count("bababab", "b") == 4
    assert factor_count("aaa", "aa") == 2
    with pytest.raises(ValueError):
        factor_count("ab", "")


def test_subword_binomial_examples():
    assert subword_binomial("abab", "") == 1
    assert subword_binomial("bab", "b") == 2
    assert subword_binomial("babbaab", "bab") == 9


def test_subword_occurrences_examples():
    assert subword_occurrences("ab", "ab") == [(1, 2)]
    assert subword_occurrences("babbaab", "b") == [(1,), (3,), (4,), (7,)]
    initial = [t for t in subword_occurrences("babbaab", "bab") if t[0] == 1]
    assert len(initial) == 5


@given(words, st.text(alphabet="ab", max_size=5))
def test_subword_counts_match_enumeration(w, u):
    brute = brute_occurrences(w, u)
    assert subword_binomial(w, u) == len(brute)
    assert subword_occurrences(w, u) == brute


def test_subword_occurrences_long_pattern():
    # one occurrence, far under the cap, but 3000 letters deep
    w = "ab" * 1500
    assert subword_occurrences(w, w) == [tuple(range(1, 3001))]


def test_subword_occurrence_cap(monkeypatch):
    monkeypatch.setattr(words_mod, "OCCURRENCE_CAP", 10)
    with pytest.raises(BudgetError):
        subword_occurrences("ab" * 30, "ab")


def test_subword_occurrences_skip_dead_ends():
    start = time.perf_counter()
    # no occurrence, and every choice of the a's is a dead end
    assert subword_occurrences("a" * 64, "a" * 30 + "b") == []
    # one occurrence; the a's after the b are all dead ends
    assert subword_occurrences("a" * 10 + "b" + "a" * 30, "a" * 10 + "b") == [
        tuple(range(1, 12))
    ]
    assert time.perf_counter() - start < 1.0


@pytest.mark.parametrize(
    "w, u",
    [
        ("a" * 27, "a" * 10),  # 8,436,285 predicted occurrences of 10 positions
        ("ab" * 2000, "ab" * 2000),  # 16M predictor steps
    ],
    ids=["positions", "predictor-steps"],
)
def test_subword_occurrence_cap_counts_positions_and_steps(w, u):
    start = time.perf_counter()
    with pytest.raises(BudgetError):
        subword_occurrences(w, u)
    assert time.perf_counter() - start < 1.0


def test_min_period_examples():
    assert min_period("abaabaaba") == 3
    assert min_period("") == 1
    assert min_period("aa") == 1


@given(words)
def test_min_period_brute(w):
    assert min_period(w) == brute_min_period(w)


def test_lyndon_examples():
    assert is_lyndon("aab")
    assert not is_lyndon("aa")
    assert is_lyndon("b")
    assert not is_lyndon("")
    assert not is_lyndon("ba")


def test_lex_compare():
    assert lex_compare("a", "b") == -1
    assert lex_compare("ab", "ab") == 0
    assert lex_compare("b", "ab") == 1
    assert lex_compare("a", "ab") == -1
