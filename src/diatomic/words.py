"""Finite binary words over the ordered alphabet {a, b}.

Words are plain Python strings of the letters ``a`` and ``b``, the empty
string standing for the empty word.  The letter order a < b agrees with
string comparison, so lexicographic questions reduce to ``<`` on ``str``.
Everything downstream (palindromization, Christoffel words, the Raney and
Stern-Brocot trees, Stern's sequence) speaks this one currency.
"""

from __future__ import annotations

import re

ALPHABET = "ab"

_COMPLEMENT = str.maketrans("ab", "ba")
_TO_DIGITS = str.maketrans("ab", "01")
_FROM_DIGITS = str.maketrans("01", "ab")
_RUNS = re.compile("a+|b+")


class BudgetError(RuntimeError):
    """An operation would exceed its configured size budget."""


def check_word(w: str) -> str:
    """Return ``w`` unchanged after checking it only uses the letters a, b.

    A refusal names the first other letter and its index, not the word,
    so its message stays short however long ``w`` is.
    """
    if w.strip(ALPHABET):
        i = len(w) - len(w.lstrip(ALPHABET))
        raise ValueError(f"not a word over {{a,b}}: letter {w[i]!r} at index {i}")
    return w


def complement(w: str) -> str:
    """Swap a and b letterwise.

    >>> complement("abbaa")
    'baabb'
    """
    return w.translate(_COMPLEMENT)


def is_constant(w: str) -> bool:
    """True for z^k with k >= 0 (includes the empty word)."""
    return len(set(w)) <= 1


def plus_prefix(v: str) -> str:
    """Longest prefix of ``v`` immediately followed by the complement of
    the last letter of ``v``.

    The prefix may be empty: for ``ab`` the only position carrying the
    complement a of the last letter b is the very first one, so the
    answer is the empty word.

    >>> plus_prefix("abbabab")
    'abbab'
    """
    if is_constant(v):
        raise ValueError("undefined for constant word")
    wanted = complement(v[-1])
    return v[: v.rindex(wanted)]


def plus_suffix(v: str) -> str:
    """Longest suffix of ``v`` immediately preceded by the complement of
    the first letter of ``v``.

    >>> plus_suffix("abbabab")
    'babab'
    """
    if is_constant(v):
        raise ValueError("undefined for constant word")
    wanted = complement(v[0])
    return v[v.index(wanted) + 1 :]


def integral_rep(w: str) -> tuple[int, ...]:
    """Run-length exponents (a0, a1, ..., an) with w = b^a0 a^a1 ... b^an.

    The last index n is even, interior entries are positive and the two
    end entries may be zero; the empty word is represented by (0,).

    >>> integral_rep("bbabaa")
    (2, 1, 1, 2, 0)
    >>> integral_rep("aaababb")
    (0, 3, 1, 1, 2)
    """
    rep = [] if w.startswith("b") else [0]
    rep += map(len, _RUNS.findall(w))
    if len(rep) % 2 == 0:
        rep.append(0)
    return tuple(rep)


def word_of(rep: tuple[int, ...] | list[int]) -> str:
    """Inverse of :func:`integral_rep`."""
    rep = tuple(rep)
    if len(rep) % 2 == 0:
        raise ValueError(f"integral representation needs an odd entry count: {rep}")
    if any(k < 0 for k in rep):
        raise ValueError(f"negative run length in {rep}")
    if any(k == 0 for k in rep[1:-1]):
        raise ValueError(f"interior zero run in {rep}")
    return "".join(("b" if i % 2 == 0 else "a") * k for i, k in enumerate(rep))


def reduced_rep(w: str) -> tuple[int, ...]:
    """Integral representation with a trailing zero dropped.

    The empty word keeps its one entry (0,).
    """
    rep = integral_rep(w)
    if len(rep) > 1 and rep[-1] == 0:
        rep = rep[:-1]
    return rep


def encode(w: str) -> int:
    """Base-2 reading of a word, a as digit 0 and b as digit 1.

    >>> encode("baaba")
    18
    """
    return int(w.translate(_TO_DIGITS), 2) if w else 0


def decode(n: int) -> str:
    """Binary expansion of ``n`` as a word; 0 decodes to the single letter a.

    Apart from decode(0) = "a", the result never starts with a, so
    encode(decode(n)) == n for every n >= 0.

    >>> decode(21)
    'babab'
    """
    if n < 0:
        raise ValueError("negative integers have no binary word expansion")
    return format(n, "b").translate(_FROM_DIGITS)


def factor_count(w: str, u: str) -> int:
    """Number of (possibly overlapping) occurrences of the factor ``u``.

    >>> factor_count("bababab", "bab")
    3
    """
    if not u:
        raise ValueError("factor counting needs a non-empty factor")
    return sum(1 for i in range(len(w) - len(u) + 1) if w.startswith(u, i))


def subword_binomial(w: str, u: str) -> int:
    """Number of occurrences of ``u`` as a (scattered) subword of ``w``.

    Counts the strictly increasing position tuples embedding ``u`` into
    ``w`` by one dynamic-programming pass; the count for the empty
    subword is 1.
    """
    counts = [1] + [0] * len(u)
    for c in w:
        for j in range(len(u), 0, -1):
            if u[j - 1] == c:
                counts[j] += counts[j - 1]
    return counts[len(u)]


def _borders(w: str) -> list[int]:
    # the Knuth-Morris-Pratt prefix function: entry i is the length of
    # the longest proper border of w[: i + 1]
    border = [0]
    k = 0
    for c in w[1:]:
        while k and c != w[k]:
            k = border[k - 1]
        if c == w[k]:
            k += 1
        border.append(k)
    return border


def min_period(w: str) -> int:
    """Minimal period of ``w``: the least p with w_i = w_j whenever
    i = j (mod p).  The empty word has period 1 by convention.

    >>> min_period("abaabaaba")
    3
    """
    if not w:
        return 1
    return len(w) - _borders(w)[-1]


def is_lyndon(w: str) -> bool:
    """True when ``w`` is non-empty and strictly smaller than each of its
    proper suffixes.
    """
    return bool(w) and all(w < w[i:] for i in range(1, len(w)))
