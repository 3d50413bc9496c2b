from fractions import Fraction
from importlib import import_module
from itertools import combinations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import words_up_to
from diatomic.continuants import cf_value
from diatomic.palindromes import min_period_central, period_pair, psi
from diatomic.stern import (
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
    ZETA_ARGUMENT_CAP,
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


@given(st.integers(min_value=0, max_value=2**1100))
def test_recurrence_and_routes_on_large_arguments(n):
    assert stern(2 * n) == stern(n)
    assert stern(2 * n + 1) == stern(n) + stern(n + 1)
    assert stern(n) == stern_via_christoffel(n) == stern_via_subwords(n)


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
    with pytest.raises(BudgetError):
        stern_via_zeta(ZETA_ARGUMENT_CAP + 1)


def test_zeta_sweep():
    assert list(zeta_sterns(5000)) == [stern(n) for n in range(2, 5001)]
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
    assert [r.occurrence for r in rows] == [(2,), (1,)]
    assert [r.marker for r in rows] == ["b", "a"]


def test_marked_occurrences_constant_a():
    for n in range(1, 6):
        markers, rows = marked_occurrences("a" * n)
        assert markers == "a" * n + "ba"
        assert rows[0].reversed_key == (n + 2, n + 1, 1)
        assert rows[-1].reversed_key == (1,)
        assert rows[-2].reversed_key == (n + 2,)


def test_marked_occurrences_example():
    markers, rows = marked_occurrences("abbaa")
    assert markers == psi("abbaa") + "ba"
    keys = [r.reversed_key for r in rows]
    assert keys[:3] == [(7, 6, 4, 2, 1), (7, 6, 4), (7, 6, 3, 2, 1)]
    assert sum(1 for r in rows if r.marker == "a") == 10
    assert sum(1 for r in rows if r.marker == "b") == 7
    initial = {r.occurrence for r in rows if r.initial}
    assert (1, 2, 3, 5, 7) in initial and (1, 6, 7) in initial
    non_initial = {r.occurrence for r in rows if not r.initial}
    assert non_initial == {(3,), (3, 5, 7), (3, 6, 7), (4,), (4, 5, 7), (4, 6, 7), (7,)}


def test_marked_occurrences_all_words():
    for w in words_up_to(10):
        markers, rows = marked_occurrences(w)
        assert markers == psi(w) + "ba"
        assert len(rows) == stern_via_subwords(encode("b" + w + "b"))
        keys = [r.reversed_key for r in rows]
        assert keys == sorted(keys, reverse=True)


def test_marked_occurrences_cap(monkeypatch):
    # the package exports the function stern, which hides the module name
    monkeypatch.setattr(import_module("diatomic.stern"), "MARKED_OCCURRENCE_CAP", 1000)
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
