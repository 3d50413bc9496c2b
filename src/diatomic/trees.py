"""The Raney (Calkin-Wilf) and Stern-Brocot labelings of the binary tree.

Nodes of the complete binary tree are identified with binary words: the
empty word is the root, appending a moves to the left child and b to the
right child.  The Raney label of the root is 1/1 and a node p/q has
children p/(p+q) and (p+q)/q; every positive irreducible fraction occurs
exactly once.  The Stern-Brocot labeling is its dual under path reversal,
and is computed here through that duality rather than through mediants
of ancestors (a mediant-walk oracle lives in the test suite).
"""

from __future__ import annotations

from itertools import cycle
from math import gcd
from typing import NamedTuple

from . import palindromes
from .continuants import cf_terms
from .fracs import Frac
from .palindromes import period_pair
from .words import decode, encode


class TreeNode(NamedTuple):
    """One node of the complete binary tree under all three labelings."""

    path: str
    number: int
    raney: Frac
    sternbrocot: Frac


def nu(w: str) -> int:
    """Breadth-first node number: the root is 2, and a node numbered m
    has children 2m - 1 (left) and 2m (right).  Equals <bw> + 1.

    >>> nu("abba")
    23
    """
    return encode("b" + w) + 1


def nu_inverse(n: int) -> str:
    """Path word of the node numbered ``n`` (n >= 2): the binary
    expansion of n - 1 with its leading digit removed.
    """
    if n < 2:
        raise ValueError("node numbers start at 2")
    return decode(n - 1)[1:]


def raney(w: str) -> Frac:
    """Raney tree label of the node ``w``: the ratio p_a(w) / p_b(w) of
    the periods of the central word directed by ``w``.
    """
    pa, pb = period_pair(w)
    return Frac(pa, pb)


def stern_brocot(w: str) -> Frac:
    """Stern-Brocot label of the node ``w``: the Raney label of the
    reversed path, which is also the slope of the Christoffel word with
    directive ``w``.
    """
    return raney(w[::-1])


def ra_of(n: int) -> Frac:
    """Raney label of the node numbered ``n``; its numerator and
    denominator are the consecutive Stern values s(n-1), s(n).
    """
    return raney(nu_inverse(n))


def tree_node(path: str) -> TreeNode:
    """All labels of one node at once."""
    return TreeNode(path, nu(path), raney(path), stern_brocot(path))


def path_of_fraction(f: Frac | tuple[int, int], flavor: str = "raney") -> str:
    """Path word of the unique node labeled ``f`` in the chosen tree;
    ``f`` must be positive and irreducible as given.

    Runs the child rules backwards: from p/q the parent is p/(q-p) or
    (p-q)/q, and a run of identical moves is one continued-fraction
    term of f, so the cost is the number of terms rather than the tree
    depth.  A path longer than ``PSI_LENGTH_BUDGET`` letters raises
    :class:`BudgetError` before any letter is written.
    """
    if flavor not in ("raney", "sternbrocot"):
        raise ValueError(f"unknown tree flavor: {flavor!r}")
    p, q = f
    if p <= 0 or q <= 0:
        raise ValueError(f"only positive fractions label the tree: {p}/{q}")
    if gcd(p, q) != 1:
        raise ValueError(f"fraction not irreducible: {p}/{q}")
    # from [c0; c1, ..., cn] the climb takes c0 steps (p-q)/q, then c1
    # steps p/(q-p), and so on, ending at 1/1 one step early
    terms = cf_terms(p, q)
    terms[-1] -= 1
    palindromes._check_budget(sum(terms), "tree path")
    up = "".join(x * c for x, c in zip(cycle("ba"), terms))
    # climbing visits the letters leaf-to-root: that order is the
    # Stern-Brocot path, its reversal the Raney path
    return up if flavor == "sternbrocot" else up[::-1]
