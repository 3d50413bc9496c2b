from itertools import combinations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from diatomic.words import (
    complement,
    decode,
    encode,
    factor_count,
    integral_rep,
    is_lyndon,
    min_period,
    plus_prefix,
    plus_suffix,
    reduced_rep,
    subword_binomial,
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


@given(words)
def test_involutions_commute(w):
    assert complement(complement(w)) == w
    assert complement(w[::-1]) == complement(w)[::-1]


def test_drop_and_plus_examples():
    v = "abbabab"
    assert plus_prefix(v) == "abbab"
    assert plus_suffix(v) == "babab"
    assert plus_prefix("ab") == ""


def test_drop_and_plus_errors():
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
        assert plus_suffix(v) == plus_prefix(v[::-1])[::-1]


def test_plus_prefix_is_proper_prefix_of_drop_last(small_words):
    for v in small_words:
        if len(set(v)) == 2:
            assert v[:-1].startswith(plus_prefix(v))
            assert len(plus_prefix(v)) < len(v[:-1])


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
    assert brute_occurrences("ab", "ab") == [(1, 2)]
    assert subword_binomial("ab", "ab") == 1
    assert brute_occurrences("babbaab", "b") == [(1,), (3,), (4,), (7,)]
    assert subword_binomial("babbaab", "b") == 4
    initial = [t for t in brute_occurrences("babbaab", "bab") if t[0] == 1]
    assert len(initial) == 5
    # those start at the first b and embed ab in the rest, abbaab
    assert subword_binomial("abbaab", "ab") == 5


@given(words, st.text(alphabet="ab", max_size=5))
def test_subword_counts_match_enumeration(w, u):
    assert subword_binomial(w, u) == len(brute_occurrences(w, u))


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
