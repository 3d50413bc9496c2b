"""Right palindromic closure and the iterated palindromization map.

The map sends a directive word v = x1 x2 ... xn to the palindrome
obtained by starting from the empty word and alternately appending the
next directive letter and closing to the shortest palindrome with that
prefix.  Its images are exactly the central words: the palindromic
prefixes of characteristic Sturmian words, or equivalently the words
with two coprime periods p, q and length p + q - 2.

Images are built once, on bytes: one loop grows a ``bytearray`` by the
current minimal period and serves psi, psi_prefix and psi_inverse.
"""

from __future__ import annotations

from itertools import chain, cycle, takewhile
from typing import Iterable, Iterator

from .words import BudgetError, complement

#: Default ceiling (in letters) for materialized palindromization images.
#: Image length is Fibonacci-like in the directive length, so this guards
#: against accidental memory exhaustion, not against honest large runs.
PSI_LENGTH_BUDGET = 2**30


def pal_closure(w: str) -> str:
    """Shortest palindrome having ``w`` as a prefix.

    Writing w = uQ with Q the longest palindromic suffix of w, the
    closure is u Q reverse(u).  Q is the longest border of
    reverse(w) + "#" + w, read off the Knuth-Morris-Pratt prefix
    function in O(len(w)): the border array of r = reverse(w), then r
    matched along w, ending at a match of length len(Q).  A match never
    outgrows the letters read, so no separator is needed and any string
    is accepted.

    >>> pal_closure("abaa")
    'abaaba'
    """
    r = w[::-1]
    border = [0]
    k = 0
    for c in r[1:]:
        while k and c != r[k]:
            k = border[k - 1]
        if c == r[k]:
            k += 1
        border.append(k)
    k = 0
    for c in w:
        while k and c != r[k]:
            k = border[k - 1]
        if c == r[k]:
            k += 1
    return w + r[k:]


def period_pair(v: str) -> tuple[int, int]:
    """The pair (p_a, p_b) of periods attached to a directive word.

    p_x(v) is the length of mu_v(x) (see :func:`mu`); the two values are
    coprime, their sum is len(psi(v)) + 2, and each is computed by the
    O(len(v)) recurrence that appending a letter x keeps p_x and adds it
    to the other component.  The values grow like Fibonacci numbers, so
    plain unbounded integers are required.

    >>> period_pair("abaa")
    (3, 8)
    """
    pa = pb = 1
    for x in v:
        if x == "a":
            pb += pa
        else:
            pa += pb
    return pa, pb


def _grow(image: bytearray, letters: Iterable[str]) -> None:
    # the one growth loop: extends the empty ``image`` by the closure of
    # each letter in turn, that is by the new minimal period p.  Letters
    # are drawn lazily, so a source may read ``image`` to choose or stop.
    pa = pb = 1
    for x in letters:
        if x == "a":
            p, pb = pa, pa + pb
        else:
            p, pa = pb, pa + pb
        n = len(image)
        if p == n + 1:  # x has not occurred yet: the closure is w x w
            image.append(ord(x))
            image += image[:n]
        else:  # the new letters repeat with period p
            image += image[n - p :]


def psi(v: str, max_length: int | None = PSI_LENGTH_BUDGET) -> str:
    """Iterated palindromic closure of the directive word ``v``.

    Each step extends the current palindrome by exactly its new minimal
    period, so the whole image is built in time linear in its length
    instead of rescanning for palindromic suffixes.  When the predicted
    image length exceeds ``max_length`` a :class:`BudgetError` is raised
    before any letters are produced.

    >>> psi("aba")
    'abaaba'
    """
    if max_length is not None:
        pa, pb = period_pair(v)
        if pa + pb - 2 > max_length:
            raise BudgetError(
                f"palindromization image has {pa + pb - 2} letters, "
                f"budget is {max_length}"
            )
    image = bytearray()
    _grow(image, v)
    return image.decode()


def psi_prefix(preperiod: str, period: str, n: int) -> str:
    """Length-``n`` prefix of the palindromization of the infinite
    directive word ``preperiod . period . period ...``.

    With empty preperiod and period ``ab`` this produces prefixes of the
    Fibonacci word abaababaabaab...
    """
    if n < 0:
        raise ValueError("prefix length must be non-negative")
    if not period:
        raise ValueError("period word must be non-empty")
    image = bytearray()
    directive = chain(preperiod, cycle(period))
    _grow(image, takewhile(lambda _: len(image) < n, directive))
    return image[:n].decode()


def psi_inverse(w: str) -> str | None:
    """Directive word of a central word, or None when ``w`` is not central.

    Every palindromic prefix of a central word is itself the image of a
    directive prefix, so the directive is read off while the image
    grows: each directive letter is the letter of ``w`` right after the
    image built so far.  The input is central exactly when the finished
    image equals ``w``.

    >>> psi_inverse("abaaba")
    'aba'
    """
    image = bytearray()
    directive: list[str] = []

    def reading() -> Iterator[str]:
        while len(image) < len(w):
            directive.append(w[len(image)])
            yield directive[-1]

    _grow(image, reading())
    return "".join(directive) if image == w.encode() else None


def mu(v: str, w: str) -> str:
    """Image of ``w`` under the morphism composition mu_x1 o ... o mu_xn
    for v = x1 ... xn, where mu_x fixes x and sends the other letter y
    to xy.  The empty directive acts as the identity.

    >>> mu("a", "b")
    'ab'
    """
    out = w
    for x in reversed(v):
        y = complement(x)
        out = out.replace(y, x + y)
    return out


def min_period_central(v: str) -> int:
    """Minimal period of psi(v), computed without building the image.

    For non-empty v it equals the period component of the last letter of
    v, which is also min(p_a, p_b); for the empty directive it is 1.
    """
    if not v:
        return 1
    pa, pb = period_pair(v)
    return pa if v[-1] == "a" else pb
