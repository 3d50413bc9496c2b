import random
import time
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import words_up_to
from diatomic.continuants import cf_value
from diatomic.palindromes import min_period_central, period_pair, psi
from diatomic.stern import (
    MARKED_OCCURRENCE_CAP,
    delta_expansion,
    factor_decomposition,
    initial_subword_count,
    length_by_subword_count,
    marked_occurrences,
    period_by_subword_count,
    reverse_bits,
    ruler,
    stern,
    stern_factor_identity,
    stern_via_christoffel,
    stern_via_integral_continuant,
    stern_via_subwords,
    stern_via_zeta,
    zeta,
    zeta_sterns,
)
from diatomic.trees import nu
from diatomic.words import BudgetError, decode, encode

PREFIX = [0, 1, 1, 2, 1, 3, 2, 3, 1, 4, 3, 5, 2, 5, 3, 4,
          1, 5, 4, 7, 3, 8, 5, 7, 2, 7, 5, 8, 3, 7, 4, 5, 1]


def brute_pattern_count(host):
    """Exponential enumeration of b(ab)* subword occurrences."""
    total = 0
    for m in range(1, len(host) + 1, 2):
        pattern = "b" + "ab" * ((m - 1) // 2)
        total += sum(
            1
            for idx in combinations(range(len(host)), m)
            if all(host[i] == c for i, c in zip(idx, pattern))
        )
    return total


def test_prefix_values():
    assert [stern(n) for n in range(33)] == PREFIX


def test_powers_of_two():
    for k in range(31):
        assert stern(2**k) == 1
    assert stern(2**100) == 1


def test_stern_examples():
    assert stern(23) == 7
    with pytest.raises(ValueError):
        stern(-1)


def test_descent_matches_recurrence():
    # the table is built bottom-up from the definition, independently of
    # the digit descent that `stern` runs from the top digit down
    table = [0, 1]
    for n in range(2, 2**14):
        half, odd = divmod(n, 2)
        table.append(table[half] + table[half + 1] if odd else table[half])
    assert [stern(n) for n in range(2**14)] == table


def letterwise_stern(n):
    """The halving recurrence one binary digit per step, top digit first."""
    u, v = 0, 1
    for digit in format(n, "b"):
        if digit == "1":
            u += v
        else:
            v += u
    return u


def test_byte_steps_match_letterwise_on_every_short_argument():
    assert [stern(n) for n in range(2**17)] == [letterwise_stern(n) for n in range(2**17)]


@pytest.mark.parametrize("j", range(9))
def test_byte_steps_on_each_side_of_a_byte_boundary(j):
    for n in (2 ** (8 * j) - 1, 2 ** (8 * j), 2 ** (8 * j) + 1):
        assert stern(n) == letterwise_stern(n)


def test_byte_steps_on_long_arguments():
    # up to 14,000 bits, about the largest n of 4,300 decimal digits
    rng = random.Random(38)
    for _ in range(50):
        n = rng.getrandbits(rng.randrange(1, 14001))
        assert stern(n) == letterwise_stern(n)
    # the argv limit of 4,300 digits and a full 14,000-bit n, through the
    # upper block levels of the zeta route as well
    start = time.perf_counter()
    for n in (10**4300 - 1, random.Random(38).getrandbits(14000) | 1 << 13999):
        assert stern(n) == letterwise_stern(n) == stern_via_zeta(n), n.bit_length()
    assert time.perf_counter() - start < 20


@given(st.integers(min_value=0, max_value=2**1100))
def test_recurrence_and_routes_on_large_arguments(n):
    assert stern(2 * n) == stern(n)
    assert stern(2 * n + 1) == stern(n) + stern(n + 1)
    assert stern(n) == stern_via_christoffel(n) == stern_via_subwords(n)
    assert stern_via_zeta(n + 2) == stern(n + 2)


def test_concurrent_evaluation():
    from concurrent.futures import ThreadPoolExecutor

    with ThreadPoolExecutor(max_workers=8) as pool:
        chunks = pool.map(lambda lo: [stern(n) for n in range(lo, lo + 500)],
                          range(0, 4000, 500))
    flat = [v for chunk in chunks for v in chunk]
    assert flat == [stern(n) for n in range(4000)]


def test_via_christoffel():
    assert stern_via_christoffel(89) == 17
    assert stern_via_christoffel(0) == 0
    assert stern_via_christoffel(1) == 1
    assert stern_via_christoffel(3) == 2
    assert stern_via_christoffel(encode("b" + "abbaa" + "b")) == 17


def test_odd_even_correspondence():
    for w in words_up_to(12):
        n = encode("b" + w + "b")
        assert stern(n) == sum(period_pair(w))
        assert stern(n + 1) == min_period_central(w + "b")


def test_via_subwords_examples():
    assert stern_via_subwords(11) == 5
    assert decode(11) == "babb"
    assert stern_via_subwords(1) == 1
    assert stern_via_subwords(0) == 0


def test_via_subwords_brute():
    for n in range(300):
        assert stern_via_subwords(n) == brute_pattern_count(decode(n))


def test_four_way_agreement():
    for n in range(2**12):
        assert stern(n) == stern_via_christoffel(n) == stern_via_subwords(n)
    for n in range(2, 1500):
        assert stern(n) == stern_via_zeta(n)


def test_zeta_examples():
    assert [zeta(n) for n in range(1, 9)] == [1, -3, 1, -5, 1, -3, 1, -7]
    assert stern_via_zeta(4) == 1
    assert stern_via_zeta(5) == 3
    with pytest.raises(ValueError):
        stern_via_zeta(1)


def test_zeta_sweep():
    assert list(zeta_sterns(5000)) == [stern(n) for n in range(2, 5001)]
    # the running continuant and the dyadic blocks share no code
    assert [stern_via_zeta(n) for n in range(2, 5001)] == list(zeta_sterns(5000))
    assert list(zeta_sterns(1)) == []


def test_ruler_prefix():
    assert "".join(str(ruler(n)) for n in range(1, 16)) == "010201030102010"
    with pytest.raises(ValueError):
        ruler(0)


def test_quotient_floor_is_ruler():
    for n in range(1, 2**12 + 1):
        assert stern(n - 1) // stern(n) == ruler(n)


def test_newman_step():
    for n in range(1, 2**12 + 1):
        lhs = Fraction(stern(n), stern(n + 1))
        assert lhs == 1 / (2 * ruler(n) + 1 - Fraction(stern(n - 1), stern(n)))


def test_zeta_continued_fraction():
    for n in range(1, 257):
        value = cf_value([0] + [zeta(i) for i in range(n, 0, -1)])
        sign = 1 if n % 2 else -1
        assert Fraction(sign * value.num, value.den) == Fraction(stern(n), stern(n + 1))


def test_integral_continuant():
    assert stern_via_integral_continuant("abba") == 7
    assert stern_via_integral_continuant("") == 1
    for w in words_up_to(12):
        assert stern_via_integral_continuant(w) == stern(nu(w))


def test_reverse_bits():
    assert reverse_bits(0) == 0
    assert reverse_bits(6) == 3
    assert reverse_bits(18) == encode(decode(18)[::-1])
    for n in range(1, 2**14 + 1):
        r = reverse_bits(n)
        assert r % 2 == 1
        assert stern(n) == stern(r)


def test_symmetry_identity():
    for k in range(13):
        for p in range(1, 2**k + 1):
            assert stern(2**k + p) == stern(2 ** (k + 1) - p)


def test_block_inequalities():
    for k in range(3, 14):
        for p in range(2 ** (k - 3)):
            assert stern(2**k + 8 * p + 1) < stern(2**k + 8 * p + 3)
            assert stern(2**k + 8 * p + 5) > stern(2**k + 8 * p + 7)


def test_delta_expansion():
    two = delta_expansion(2)
    assert two.level == 0 and two.terms == () and two.total == stern(3) == 2
    twelve = delta_expansion(12)
    assert twelve.total == stern(23) == 7
    for n in range(2, 2**12 + 1):
        assert delta_expansion(n).total == stern(2 * n - 1)
    with pytest.raises(ValueError):
        delta_expansion(1)


def test_factor_decomposition_example():
    d = factor_decomposition("ababa")
    assert d.base == 4
    assert d.single_a == (("bab", 3),)
    assert d.multi_a == (("babab", "b", 3, 2), ("bababab", "bab", 8, 1))
    assert d.total == 4 + 3 + 6 + 8 == 21


def test_factor_decomposition_empty():
    d = factor_decomposition("")
    assert d.base == 2 and d.single_a == () and d.multi_a == ()
    assert d.total == 2


def test_factor_decomposition_totals():
    for w in words_up_to(12):
        assert factor_decomposition(w).total == sum(period_pair(w))


def test_factor_identity_on_integers():
    assert all(stern_factor_identity(n) for n in range(1024))


def test_marked_occurrences_smallest():
    markers, rows = marked_occurrences("")
    assert markers == "ba"
    assert [key[::-1] for key in rows] == [(2,), (1,)]
    assert list(markers) == ["b", "a"]


def test_marked_occurrences_constant_a():
    for n in range(1, 6):
        markers, rows = marked_occurrences("a" * n)
        assert markers == "a" * n + "ba"
        assert rows[0] == (n + 2, n + 1, 1)
        assert rows[-1] == (1,)
        assert rows[-2] == (n + 2,)


def test_marked_occurrences_example():
    markers, rows = marked_occurrences("abbaa")
    assert markers == psi("abbaa") + "ba"
    assert rows[:3] == [(7, 6, 4, 2, 1), (7, 6, 4), (7, 6, 3, 2, 1)]
    assert markers.count("a") == 10
    assert markers.count("b") == 7
    initial = {key[::-1] for m, key in zip(markers, rows) if m == "a"}
    assert (1, 2, 3, 5, 7) in initial and (1, 6, 7) in initial
    non_initial = {key[::-1] for m, key in zip(markers, rows) if m == "b"}
    assert non_initial == {(3,), (3, 5, 7), (3, 6, 7), (4,), (4, 5, 7), (4, 6, 7), (7,)}


def test_marked_occurrences_all_words():
    for w in words_up_to(10):
        markers, rows = marked_occurrences(w)
        assert markers == psi(w) + "ba"
        assert len(rows) == stern_via_subwords(encode("b" + w + "b"))
        assert rows == sorted(rows, reverse=True)


def collect_then_sort_occurrences(w):
    """Every b(ab)* occurrence in b w b, collected depth-first from the
    left and then sorted by decreasing reversed key."""
    host = "b" + w + "b"
    n = len(host)
    found = []

    def grow(prefix, want):
        for j in range(prefix[-1] + 1, n + 1):
            if host[j - 1] == want:
                ext = prefix + (j,)
                if want == "b":
                    found.append(ext)
                grow(ext, "a" if want == "b" else "b")

    for j in range(1, n + 1):
        if host[j - 1] == "b":
            found.append((j,))
            grow((j,), "a")
    rows = [(occ, occ[::-1], "a" if occ[0] == 1 else "b") for occ in found]
    return sorted(rows, key=lambda row: row[1], reverse=True)


def test_marked_occurrences_match_collect_then_sort():
    for w in [*words_up_to(10), "ab" * 13]:
        markers, rows = marked_occurrences(w)
        triples = [(key[::-1], key, m) for m, key in zip(markers, rows, strict=True)]
        assert triples == collect_then_sort_occurrences(w)


def test_marked_occurrences_refuses_a_long_word_after_a_prefix():
    start = time.perf_counter()
    with pytest.raises(BudgetError) as refused:
        marked_occurrences("ab" * 100_000)
    assert time.perf_counter() - start < 0.1
    assert str(refused.value) == f"occurrences exceed the cap of {MARKED_OCCURRENCE_CAP}"


@pytest.mark.parametrize("w, letter, index", [("abc", "c", 2), ("a€", "€", 1), ("a b", " ", 1)])
def test_marked_occurrences_refuses_other_letters(w, letter, index):
    with pytest.raises(ValueError) as refused:
        marked_occurrences(w)
    assert str(refused.value) == f"not a word over {{a,b}}: letter {letter!r} at index {index}"


def test_marked_occurrences_cap(monkeypatch):
    monkeypatch.setattr("diatomic.stern.MARKED_OCCURRENCE_CAP", 1000)
    with pytest.raises(BudgetError) as err:
        marked_occurrences("ab" * 30)
    assert "exceed" in str(err.value)


def test_initial_subword_count():
    assert initial_subword_count("") == 1
    assert initial_subword_count("abaa") == 7
    for v in words_up_to(12):
        assert initial_subword_count(v) == ("a" + psi(v) + "b").count("a")


def test_counts_by_subwords():
    assert length_by_subword_count("abaa") == 11
    assert period_by_subword_count("abaa") == 3
    assert length_by_subword_count("abbaa") == 17
    for p in range(7):
        assert length_by_subword_count("a" * p) == p + 2
        assert length_by_subword_count("b" * p) == p + 2
    for v in words_up_to(11):
        assert length_by_subword_count(v) == sum(period_pair(v))
        if len(set(v)) == 2:
            assert period_by_subword_count(v) == min_period_central(v)
    with pytest.raises(ValueError):
        period_by_subword_count("aaa")
