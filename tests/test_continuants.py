import itertools
import random
from itertools import combinations

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from conftest import words_up_to
from diatomic.continuants import (
    cf_terms,
    cf_value,
    christoffel_length_cf,
    continuant,
    fib,
    mirror_formula,
)
from diatomic.fracs import Frac, frac
from diatomic.palindromes import min_period_central, period_pair
from diatomic.trees import raney, stern_brocot
from diatomic.words import reduced_rep

entries = st.lists(st.integers(min_value=-9, max_value=9), max_size=12)


def striking_pairs(xs):
    """Sum over all ways of deleting disjoint adjacent pairs from the
    product of all entries (the combinatorial definition)."""
    n = len(xs)
    total = 0
    for r in range(n // 2 + 1):
        for starts in combinations(range(n - 1), r):
            if any(b - a < 2 for a, b in zip(starts, starts[1:])):
                continue  # pairs overlap
            removed = set()
            for s in starts:
                removed.update((s, s + 1))
            product = 1
            for i, x in enumerate(xs):
                if i not in removed:
                    product *= x
            total += product
    return total


def test_continuant_examples():
    assert continuant([]) == 1
    assert continuant([5]) == 5
    assert continuant([1, 1, 2, 1]) == 7
    assert continuant([1, -3, 1]) == -1


@given(entries)
def test_reversal_symmetry(xs):
    assert continuant(xs) == continuant(xs[::-1])


@given(entries)
def test_trailing_one_absorbs(xs):
    if xs:
        assert continuant(xs + [1]) == continuant(xs[:-1] + [xs[-1] + 1])
    else:
        assert continuant([1]) == 1


@given(st.lists(st.integers(min_value=-9, max_value=9), max_size=8))
def test_striking_pairs_semantics(xs):
    assert continuant(xs) == striking_pairs(xs)


def test_cf_value_examples():
    assert cf_value([3, 1]) == Frac(4, 1)
    assert cf_value([0, 1]) == Frac(1, 1)
    assert cf_value([1, 1, 1]) == Frac(3, 2)
    with pytest.raises(ValueError):
        cf_value([])
    with pytest.raises(ValueError):
        cf_value([1, 0])


def test_cf_value_is_the_quotient_of_two_continuants():
    # every list of up to four entries in -3..3: negative and zero entries,
    # and the zero denominators, such as [2, 1, -1], that cf_value refuses
    for m in range(1, 5):
        for cs in map(list, itertools.product(range(-3, 4), repeat=m)):
            den = continuant(cs[1:])
            if den == 0:
                with pytest.raises(ValueError) as caught:
                    cf_value(cs)
                assert str(caught.value) == f"continued fraction {cs} has a zero denominator"
            else:
                assert cf_value(cs) == frac(continuant(cs), den)


def test_mirror_formula_examples():
    assert mirror_formula("") == (Frac(1, 1), Frac(1, 1))
    assert mirror_formula("ab") == (Frac(2, 3), Frac(3, 2))
    assert mirror_formula("abaa")[1] == Frac(3, 8)


def test_mirror_formula_matches_trees():
    for v in words_up_to(12):
        assert mirror_formula(v) == (stern_brocot(v), raney(v))


def test_length_cf_examples():
    assert christoffel_length_cf("abaa") == (11, 3)
    assert christoffel_length_cf("") == (2, 1)
    for n in range(1, 8):
        assert christoffel_length_cf("a" * n) == (n + 2, 1)
        assert christoffel_length_cf("b" * n) == (n + 2, 1)


def two_continuant_length_cf(v):
    """Length and period as two separate continuants over the adjusted
    reduced representation, the second without its last entry."""
    rep = reduced_rep(v)
    if len(rep) == 1:
        return rep[0] + 2, 1
    xs = [rep[0] + 1, *rep[1:-1], rep[-1] + 1]
    return continuant(xs), continuant(xs[:-1])


def test_length_cf_one_pass_matches_two_continuants():
    rng = random.Random(36)
    words = ["", "a", "b"]
    words += [x * k for x in "ab" for k in range(2, 40)]
    words += ["".join(rng.choices("ab", k=rng.randrange(65))) for _ in range(200)]
    for v in words:
        assert christoffel_length_cf(v) == two_continuant_length_cf(v), v


def test_length_cf_matches_period_route():
    for v in words_up_to(14):
        pa, pb = period_pair(v)
        assert christoffel_length_cf(v) == (pa + pb, min_period_central(v))


def test_fib_values():
    assert fib(-1) == 1 and fib(0) == 1
    assert [fib(n) for n in range(1, 7)] == [2, 3, 5, 8, 13, 21]
    assert fib(6) == sum(period_pair("ababa"))
    with pytest.raises(ValueError):
        fib(-2)


def test_ones_continuant_is_fibonacci():
    for n in range(31):
        assert continuant([1] * n) == fib(n - 1)


@given(
    st.integers(min_value=-(10**30), max_value=10**30),
    st.integers(min_value=1, max_value=10**30),
)
@example(7, 1)
@example(0, 5)
@example(3, 10)
@example(1, 1)
def test_cf_terms_inverts_cf_value(p, q):
    terms = cf_terms(p, q)
    assert cf_value(terms) == frac(p, q)
    assert all(c > 0 for c in terms[1:])
    assert len(terms) == 1 or terms[-1] > 1


def test_cf_terms_examples():
    assert cf_terms(4, 7) == [0, 1, 1, 3]
    assert cf_terms(5, 1) == [5]
    assert cf_terms(-3, 2) == [-2, 2]
    with pytest.raises(ValueError):
        cf_terms(1, 0)
