"""Finite binary words over the ordered alphabet {a, b}.

Words are plain Python strings of the letters ``a`` and ``b``, the empty
string standing for the empty word.  The letter order a < b agrees with
string comparison, so lexicographic questions reduce to ``<`` on ``str``.
Everything downstream (palindromization, Christoffel words, the Raney and
Stern-Brocot trees, Stern's sequence) speaks this one currency.

Positions are 1-based throughout, matching the usual convention for
occurrences of factors and subwords.
"""

from __future__ import annotations

import itertools

ALPHABET = "ab"

_COMPLEMENT = str.maketrans("ab", "ba")
_TO_DIGITS = str.maketrans("ab", "01")
_FROM_DIGITS = str.maketrans("01", "ab")

#: Ceiling on the positions (and predictor steps) of subword enumerations.
OCCURRENCE_CAP = 10**7


class BudgetError(RuntimeError):
    """An operation would exceed its configured size budget."""


def check_word(w: str) -> str:
    """Return ``w`` unchanged after checking it only uses the letters a, b."""
    if w.strip(ALPHABET):
        raise ValueError(f"not a word over {{a,b}}: {w!r}")
    return w


def complement(w: str) -> str:
    """Swap a and b letterwise.

    >>> complement("abbaa")
    'baabb'
    """
    return w.translate(_COMPLEMENT)


def reverse(w: str) -> str:
    """Letters of ``w`` in reverse order."""
    return w[::-1]


def is_palindrome(w: str) -> bool:
    return w == w[::-1]


def is_constant(w: str) -> bool:
    """True for z^k with k >= 0 (includes the empty word)."""
    return len(set(w)) <= 1


def drop_last(v: str) -> str:
    """``v`` with its last letter removed."""
    if not v:
        raise ValueError("empty word")
    return v[:-1]


def drop_first(v: str) -> str:
    """``v`` with its first letter removed."""
    if not v:
        raise ValueError("empty word")
    return v[1:]


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
    rep: list[int] = []
    if w and w[0] == "a":
        rep.append(0)
    for _, group in itertools.groupby(w):
        rep.append(sum(1 for _ in group))
    if not rep:
        rep.append(0)
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


def subword_occurrences(w: str, u: str) -> list[tuple[int, ...]]:
    """All occurrences of ``u`` as a subword of ``w``, in lexicographic order.

    Each occurrence is the strictly increasing tuple of 1-based positions
    of the embedding.  Before any work, ``OCCURRENCE_CAP`` bounds the
    len(w) * len(u) steps of :func:`subword_binomial`, then the positions
    to materialize: len(u) per occurrence it predicts.
    """
    n, m = len(w), len(u)
    if n * m > OCCURRENCE_CAP:
        raise BudgetError(f"{n * m} predictor steps exceed the cap of {OCCURRENCE_CAP}")
    predicted = subword_binomial(w, u)
    if predicted * m > OCCURRENCE_CAP:
        raise BudgetError(f"{predicted * m} positions exceed the cap of {OCCURRENCE_CAP}")
    if m == 0 or predicted == 0:
        return [()] * predicted  # [()] for the empty u, [] when u never fits
    # stop[j] is the last index where letter j leaves room for u[j + 1:]
    stop = [0] * m + [n]
    for j in range(m - 1, -1, -1):
        stop[j] = w.rfind(u[j], 0, stop[j + 1])
    out: list[tuple[int, ...]] = []
    # depth-first with an explicit stack: candidates[j] runs over the
    # positions still open for letter j, chosen[:j] holds letters 0..j-1
    chosen: list[int] = []
    candidates = [iter(range(stop[0] + 1))]
    while candidates:
        j = len(candidates) - 1
        c = u[j]
        if j + 1 == m:
            # the last letter: each match left completes one occurrence
            prefix = tuple(chosen)
            out.extend([prefix + (i + 1,) for i in candidates[j] if w[i] == c])
        else:
            for i in candidates[j]:
                if w[i] == c:
                    break
            else:
                i = n
            if i < n:
                chosen.append(i + 1)
                candidates.append(iter(range(i + 1, stop[j + 1] + 1)))
                continue
        # letter j has no position left: back up to letter j - 1
        candidates.pop()
        if chosen:
            chosen.pop()
    return out


def min_period(w: str) -> int:
    """Minimal period of ``w``: the least p with w_i = w_j whenever
    i = j (mod p).  The empty word has period 1 by convention.

    >>> min_period("abaabaaba")
    3
    """
    n = len(w)
    if n == 0:
        return 1
    border = [0] * n
    k = 0
    for q in range(1, n):
        while k > 0 and w[k] != w[q]:
            k = border[k - 1]
        if w[k] == w[q]:
            k += 1
        border[q] = k
    return n - border[n - 1]


def is_lyndon(w: str) -> bool:
    """True when ``w`` is non-empty and strictly smaller than each of its
    proper suffixes.
    """
    return bool(w) and all(w < w[i:] for i in range(1, len(w)))


def lex_compare(u: str, v: str) -> int:
    """-1, 0, or 1 as ``u`` precedes, equals, or follows ``v`` lexicographically."""
    return (u > v) - (u < v)
