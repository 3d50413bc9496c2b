"""Central, standard, and Christoffel words.

A central word is an image of the palindromization map; a standard word
is a single letter or a central word followed by ab or ba; a Christoffel
word is a single letter or a central word wrapped as a . central . b.
Proper Christoffel words carry an irreducible slope |w|_b / |w|_a and a
directive word, and are exactly the Lyndon words among Sturmian factors.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd
from typing import Sequence

from .fracs import Frac
from .palindromes import PSI_LENGTH_BUDGET, period_pair, psi, psi_inverse
from .trees import stern_brocot
from .words import BudgetError


@dataclass(frozen=True)
class ChristoffelWord:
    """A Christoffel word together with its slope and directive.

    The single letters a and b (slopes 0/1 and 1/0) are the improper
    members of the family; they have no directive word, so ``directive``
    is None and ``order`` undefined for them.
    """

    word: str
    slope: Frac
    directive: str | None

    @property
    def proper(self) -> bool:
        return self.directive is not None

    @property
    def order(self) -> int | None:
        return None if self.directive is None else len(self.directive)

    def __str__(self) -> str:
        return self.word


def christoffel_by_slope(p: int, q: int) -> ChristoffelWord:
    """Christoffel word of slope p/q built letterwise from the values
    i*p mod (p+q): positions where the value increases carry a, the
    others b.  This route never touches palindromization, so it can
    cross-validate the directive construction.  A central part longer
    than ``PSI_LENGTH_BUDGET // 8`` letters raises :class:`BudgetError`
    before any letter is built.

    >>> christoffel_by_slope(4, 7).word
    'aabaabaabab'
    """
    if p < 0 or q < 0 or (p == 0 and q == 0):
        raise ValueError(f"slope needs non-negative parts, not both zero: {p}/{q}")
    if gcd(p, q) != 1:
        raise ValueError(f"slope not irreducible: {p}/{q}")
    if q == 0:
        return ChristoffelWord("b", Frac(1, 0), None)
    if p == 0:
        return ChristoffelWord("a", Frac(0, 1), None)
    n = p + q
    # the letters are collected as one-letter strings, an 8-byte pointer
    # each, where psi's budget counts one byte per letter
    budget = PSI_LENGTH_BUDGET // 8
    if n - 2 > budget:
        raise BudgetError(
            f"slope {p}/{q} needs a central word of {n - 2} letters, budget is {budget}"
        )
    letters = []
    prev = 0
    for _ in range(n):
        cur = (prev + p) % n
        letters.append("a" if cur > prev else "b")
        prev = cur
    word = "".join(letters)
    return ChristoffelWord(word, Frac(p, q), psi_inverse(word[1:-1]))


def christoffel_by_directive(
    v: str, max_length: int | None = PSI_LENGTH_BUDGET
) -> ChristoffelWord:
    """Proper Christoffel word a psi(v) b with directive ``v``.

    >>> christoffel_by_directive("abaa").word
    'aabaabaabab'
    """
    word = "a" + psi(v, max_length=max_length) + "b"
    return ChristoffelWord(word, stern_brocot(v), v)


def christoffel_of_word(w: str) -> ChristoffelWord | None:
    """Recognize ``w`` as a Christoffel word, or return None."""
    v = directive_of(w)
    if v is None and w not in ("a", "b"):
        return None
    return ChristoffelWord(w, Frac(w.count("b"), w.count("a")), v)


def directive_of(w: str) -> str | None:
    """Directive word of a proper Christoffel word, or None when ``w``
    is not of the form a . central . b (single letters have none).

    >>> directive_of("aabaabaabab")
    'abaa'
    """
    if len(w) < 2 or w[0] != "a" or w[-1] != "b":
        return None
    return psi_inverse(w[1:-1])


def is_central(w: str) -> bool:
    return psi_inverse(w) is not None


def is_standard(w: str) -> bool:
    """True for single letters and for central words extended by ab or ba."""
    if w in ("a", "b"):
        return True
    return len(w) >= 2 and w[-2:] in ("ab", "ba") and is_central(w[:-2])


def is_christoffel(w: str) -> bool:
    return christoffel_of_word(w) is not None


def lyndon_factorization(cw: ChristoffelWord) -> tuple[ChristoffelWord, ChristoffelWord]:
    """Standard factorization of a proper Christoffel word into the
    unique pair of shorter Christoffel words w1 < w2 with w = w1 w2.

    The split point is known in closed form: |w1| = p_a(directive) (the
    factors are directed by the plus-prefix and the dropped-letter
    directive, dispatched on the last directive letter), so no Lyndon
    suffix search is needed.  A search-based oracle lives in the tests.
    """
    if not cw.proper:
        raise ValueError(f"single-letter Christoffel word {cw.word} has no factorization")
    pa, _ = period_pair(cw.directive)
    left = christoffel_of_word(cw.word[:pa])
    right = christoffel_of_word(cw.word[pa:])
    if left is None or right is None:
        raise AssertionError(f"factorization of {cw.word} failed at {pa}")
    return left, right


def standard_by_coefficients(c: Sequence[int], count: int) -> list[str]:
    """First ``count`` words of the standard sequence s(-1) = b, s(0) = a,
    s(n) = s(n-1)^c_n s(n-2), directed by the coefficients c_1, c_2, ...

    All ones yields the Fibonacci word approximants b, a, ab, aba, abaab...
    """
    if count < 0:
        raise ValueError("count must be non-negative")
    if c and c[0] < 0:
        raise ValueError(f"first coefficient must be >= 0: {c[0]}")
    if any(k <= 0 for k in c[1:]):
        raise ValueError(f"coefficients after the first must be positive: {list(c)}")
    if count > len(c) + 2:
        raise ValueError(f"{count} words need {count - 2} coefficients, got {len(c)}")
    seq = ["b", "a"]
    for i in range(count - 2):
        seq.append(seq[-1] * c[i] + seq[-2])
    return seq[:count]


def length_compare_extension(v: str) -> int:
    """Compare |a psi(va) b| against |a psi(vb) b|: -1 when the a-extension
    is shorter, 1 when longer.  The sign is decided by the last letter of
    ``v`` (a gives -1, b gives 1); the lengths are computed outright so
    that claim stays testable.
    """
    if not v:
        raise ValueError("empty word")
    pa, pb = period_pair(v)
    la = 2 * pa + pb  # appending a turns (pa, pb) into (pa, pa + pb)
    lb = pa + 2 * pb
    return (la > lb) - (la < lb)
