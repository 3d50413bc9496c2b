from math import gcd

import pytest

from conftest import words_up_to
from diatomic import palindromes
from diatomic.fracs import Frac, frac
from diatomic.palindromes import period_pair, psi
from diatomic.stern import stern
from diatomic.words import BudgetError
from diatomic.trees import (
    TreeNode,
    nu,
    nu_inverse,
    path_of_fraction,
    ra_of,
    raney,
    stern_brocot,
    tree_node,
)


def mediant_label(path):
    """Stern-Brocot label by the mediant construction with the two
    virtual ancestors 0/1 and 1/0."""
    lo, hi = (0, 1), (1, 0)
    cur = (1, 1)
    for letter in path:
        if letter == "a":
            hi = cur
        else:
            lo = cur
        cur = (lo[0] + hi[0], lo[1] + hi[1])
    return Frac(*cur)


def child_rule_label(path):
    p = q = 1
    for letter in path:
        if letter == "a":
            q = p + q
        else:
            p = p + q
    return Frac(p, q)


def test_nu_examples():
    assert nu("") == 2
    assert nu("abba") == 23
    assert nu_inverse(23) == "abba"
    assert nu("a") == 3 and nu("b") == 4
    with pytest.raises(ValueError):
        nu_inverse(1)


def test_nu_child_rules(small_words):
    for w in small_words:
        assert nu(w + "a") == 2 * nu(w) - 1
        assert nu(w + "b") == 2 * nu(w)


def test_nu_roundtrip():
    for w in words_up_to(16):
        assert nu_inverse(nu(w)) == w


def test_raney_examples():
    assert raney("") == Frac(1, 1)
    assert raney("ab") == Frac(3, 2)
    assert raney("abaa") == Frac(3, 8)
    # first two levels of the labeled tree
    assert raney("a") == Frac(1, 2) and raney("b") == Frac(2, 1)
    assert raney("aa") == Frac(1, 3) and raney("ba") == Frac(2, 3)
    assert raney("bb") == Frac(3, 1)


def test_raney_child_rules(small_words):
    for w in small_words:
        assert raney(w) == child_rule_label(w)
        p, q = period_pair(w)
        assert raney(w + "a") == frac(p, p + q)
        assert raney(w + "b") == frac(p + q, q)


def test_stern_brocot_examples():
    assert stern_brocot("abaa") == Frac(4, 7)
    assert stern_brocot("") == Frac(1, 1)


def test_duality(small_words):
    for w in small_words:
        assert stern_brocot(w) == raney(w[::-1])
        assert stern_brocot(w) == mediant_label(w)


def test_complement_inverts_labels(small_words):
    from diatomic.words import complement

    for w in small_words:
        assert raney(complement(w)) == raney(w).inverse
        assert stern_brocot(complement(w)) == stern_brocot(w).inverse


def test_slope_is_stern_brocot_label(small_words):
    for w in small_words:
        word = "a" + psi(w) + "b"
        assert stern_brocot(w) == (word.count("b"), word.count("a"))


def test_ra_of_examples():
    assert ra_of(2) == Frac(1, 1)
    assert ra_of(3) == Frac(1, 2)
    assert ra_of(23) == Frac(5, 7)
    with pytest.raises(ValueError):
        ra_of(1)


def test_ra_of_consecutive_stern():
    for n in range(2, 2**14 + 1):
        num, den = ra_of(n)
        assert (num, den) == (stern(n - 1), stern(n))
        assert gcd(num, den) == 1


def test_path_of_fraction_examples():
    assert path_of_fraction(Frac(1, 1)) == ""
    assert path_of_fraction(Frac(3, 2)) == "ab"
    assert path_of_fraction(Frac(4, 7), "sternbrocot") == "abaa"
    for n in range(1, 20):
        for flavor in ("raney", "sternbrocot"):
            assert path_of_fraction((n, 1), flavor) == "b" * (n - 1)
            assert path_of_fraction((1, n), flavor) == "a" * (n - 1)
    with pytest.raises(ValueError):
        path_of_fraction(Frac(0, 1))
    with pytest.raises(ValueError, match="not irreducible: 2/4"):
        path_of_fraction((2, 4))
    with pytest.raises(ValueError):
        path_of_fraction(Frac(1, 2), "mediant")


def test_path_budget_is_checked_before_the_path_is_built(monkeypatch):
    # 55/89 = [0; 1, 1, 1, 1, 1, 1, 1, 1, 2], a path of 9 letters
    monkeypatch.setattr(palindromes, "PSI_LENGTH_BUDGET", 9)
    assert len(path_of_fraction((55, 89))) == 9
    assert path_of_fraction((1, 10)) == "a" * 9
    for f in ((89, 144), (1, 11), (11, 1)):
        with pytest.raises(BudgetError, match="tree path exceeds the budget of 9 letters"):
            path_of_fraction(f, "sternbrocot")
    monkeypatch.undo()
    with pytest.raises(BudgetError):
        path_of_fraction((1, 10**12))


def test_path_roundtrips():
    for w in words_up_to(12):
        assert path_of_fraction(raney(w), "raney") == w
        assert path_of_fraction(stern_brocot(w), "sternbrocot") == w


def test_tree_node_aggregate():
    node = tree_node("abba")
    assert node == TreeNode("abba", 23, Frac(5, 7), Frac(5, 7))
    assert tree_node("") == TreeNode("", 2, Frac(1, 1), Frac(1, 1))


def test_frac_helpers():
    assert str(Frac(4, 7)) == "4/7"
    assert frac(6, 4) == Frac(3, 2)
    assert frac(3, -2) == Frac(-3, 2)
    with pytest.raises(ValueError):
        frac(0, 0)
