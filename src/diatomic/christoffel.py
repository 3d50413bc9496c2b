"""Central, standard, and Christoffel words.

A central word is an image of the palindromization map; a standard word
is a single letter or a central word followed by ab or ba; a Christoffel
word is a single letter or a central word wrapped as a . central . b.
Proper Christoffel words carry an irreducible slope |w|_b / |w|_a and a
directive word, and are exactly the Lyndon words among Sturmian factors.
Each class has one recognizer: :func:`palindromes.psi_inverse` for
central words, :func:`christoffel_of_word` and :func:`is_standard`.
"""

from __future__ import annotations

from math import gcd
from typing import NamedTuple, Sequence

from .fracs import Frac
from . import palindromes
from .palindromes import framed_psi, psi_inverse
from .trees import stern_brocot


class ChristoffelWord(NamedTuple):
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


def _repeat(word: memoryview, at: int, source: int, size: int, count: int) -> None:
    # writes count copies of word[source : source + size] from ``at`` on,
    # each copy doubling the stretch already written
    word[at : at + size] = word[source : source + size]
    done, total = size, size * count
    while done < total:
        step = min(done, total - done)
        word[at + done : at + done + step] = word[at : at + step]
        done += step


def christoffel_by_slope(p: int, q: int) -> ChristoffelWord:
    """Christoffel word of slope p/q, the label of p/q in the Christoffel
    tree, built by descending that tree with Euclid's algorithm.

    The node between the Farey parents labelled u (left) and v (right)
    is labelled uv.  A run of c steps to the left replaces v by u^c v,
    one of c steps to the right replaces u by u v^c, and c is a Euclid
    quotient of p and q, so the descent takes one step per quotient.
    Every u is a prefix and every v a suffix of the word, so both are
    written in place into one buffer of p + q bytes.  The steps are the
    word's path in the tree, so the runs a^c (left) and b^c (right)
    spell its directive as the descent goes.  This route never touches
    palindromization or the directive's periods, so it can cross-validate
    the directive construction.  A central part longer than
    ``PSI_LENGTH_BUDGET`` letters raises :class:`BudgetError` before
    anything is allocated.

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
    palindromes._check_budget(n - 2)
    slope = Frac(p, q)
    word = bytearray(n)
    word[0], word[-1] = ord("a"), ord("b")
    left = right = 1  # u = word[:left] and v = word[n - right:], parents 0/1 and 1/0
    runs = []
    with memoryview(word) as view:
        while p != q:
            if p < q:
                c = (q - 1) // p
                q -= c * p
                _repeat(view, n - right - c * left, 0, left, c)
                right += c * left
                runs.append("a" * c)
            else:
                c = (p - 1) // q
                p -= c * q
                _repeat(view, left, n - right, right, c)
                left += c * right
                runs.append("b" * c)
    return ChristoffelWord(word.decode(), slope, "".join(runs))


def christoffel_by_directive(v: str) -> ChristoffelWord:
    """Proper Christoffel word a psi(v) b with directive ``v``, written
    into one buffer by :func:`framed_psi`, which checks the central part
    against ``PSI_LENGTH_BUDGET`` first.

    >>> christoffel_by_directive("abaa").word
    'aabaabaabab'
    """
    return ChristoffelWord(framed_psi(v), stern_brocot(v), v)


def christoffel_of_word(w: str) -> ChristoffelWord | None:
    """Recognize ``w`` as a Christoffel word, or return None: a single
    letter, or a . central . b with the directive that
    :func:`psi_inverse` reads back off its central part.

    >>> christoffel_of_word("aabaabaabab").directive, christoffel_of_word("ba")
    ('abaa', None)
    """
    framed = len(w) >= 2 and w[0] == "a" and w[-1] == "b"
    v = psi_inverse(w[1:-1]) if framed else None
    if v is None and w not in ("a", "b"):
        return None
    b = w.count("b")  # every other letter is an a
    return ChristoffelWord(w, Frac(b, len(w) - b), v)


def is_standard(w: str) -> bool:
    """True for single letters and for central words extended by ab or ba."""
    if w in ("a", "b"):
        return True
    return len(w) >= 2 and w[-2:] in ("ab", "ba") and psi_inverse(w[:-2]) is not None


def lyndon_factorization(cw: ChristoffelWord) -> tuple[ChristoffelWord, ChristoffelWord]:
    """Standard factorization of a proper Christoffel word into the
    unique pair of shorter Christoffel words w1 < w2 with w = w1 w2.

    Both factors are known in closed form, so neither is read back letter
    by letter and no Lyndon suffix search is needed (a search-based
    oracle lives in the tests):

    - the split point is |w1| = p_a(directive), the inverse of p modulo
      p + q for the slope p/q (Borel and Laubie): one ``pow`` call;
    - w1 and w2 label the word's two Farey parents in the Christoffel
      tree.  A step to the left (a) makes the current node the right
      parent and a step to the right (b) makes it the left one, so w1 is
      directed by the part of the directive before its last b and w2 by
      the part before its last a; a letter that does not occur leaves
      the single letter a or b;
    - the first m letters of the word of slope p/q hold
      floor(m p / (p + q)) letters b, which gives the factors' slopes.
    """
    if not cw.proper:
        raise ValueError(f"single-letter Christoffel word {cw.word} has no factorization")
    v = cw.directive
    p, q = cw.slope
    pa = pow(p, -1, p + q)
    b = pa * p // (p + q)
    last_b, last_a = v.rfind("b"), v.rfind("a")
    left = ChristoffelWord(cw.word[:pa], Frac(b, pa - b), v[:last_b] if last_b >= 0 else None)
    right = ChristoffelWord(
        cw.word[pa:], Frac(p - b, q - pa + b), v[:last_a] if last_a >= 0 else None
    )
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
