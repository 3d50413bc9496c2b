"""Stern's diatomic sequence and its word-combinatorial readings.

The sequence s(0) = 0, s(1) = 1, s(2n) = s(n), s(2n+1) = s(n) + s(n+1)
is evaluated by four independent routes: the defining recurrence, read
eight binary digits per step from a table of byte steps that the same
recurrence builds, the Christoffel-length correspondence (odd arguments
are lengths of Christoffel words, even ones minimal periods of central
words), the Calkin-Wilf subword count (occurrences of b(ab)* patterns in
the binary expansion), and a signed continuant over the ruler-sequence
entries, read off O(log n) dyadic block products of 2x2 matrices.  The
routes share no code, so their agreement is a meaningful check; the
running continuant :func:`zeta_sterns`, which yields every value up to a
limit, shares none with the block products either.

The module also houses the occurrence-level refinement of the
Calkin-Wilf theorem (sorted marked occurrences spell out a standard
word) and the Coons-Shallit weighted factor decomposition of Christoffel
lengths.
"""

from __future__ import annotations

from bisect import bisect
from typing import Iterator, NamedTuple

from .continuants import continuant
from .palindromes import _period_pair_capped, period_pair
from .words import BudgetError, check_word, complement, decode, encode, integral_rep, plus_prefix


def _digit_steps(byte: int) -> tuple[int, int, int, int]:
    # the eight digit steps of ``byte``, highest digit first, composed:
    # they move the pair (u, v) to (a u + b v, c u + d v)
    a, b, c, d = 1, 0, 0, 1
    for digit in format(byte, "08b"):
        if digit == "1":  # u += v
            a, b = a + c, b + d
        else:  # v += u
            c, d = c + a, d + b
    return a, b, c, d


#: The composed digit steps of each byte value, built once from the
#: recurrence that ``stern`` reads them for.
_BYTE_STEPS = tuple(map(_digit_steps, range(256)))


def stern(n: int) -> int:
    """s(n) by the halving recurrence, read from the top binary digit down,
    eight digits per step.

    The pair (s(m), s(m+1)) starts at m = 0; each digit d of n moves it
    to m' = 2m + d by s(2m) = s(m) and s(2m+1) = s(m) + s(m+1).  The
    eight steps of a byte compose to one linear map of the pair, read
    from ``_BYTE_STEPS``, a table of 256 built from these same digit
    steps, so the loop takes one step per byte of n, highest first.
    Leading zero digits leave the starting pair (0, 1) as it is.

    >>> [stern(n) for n in range(12)]
    [0, 1, 1, 2, 1, 3, 2, 3, 1, 4, 3, 5]
    """
    if n < 0:
        raise ValueError("Stern's sequence is indexed by non-negative integers")
    u, v = 0, 1
    for byte in n.to_bytes((n.bit_length() + 7) >> 3, "big"):
        a, b, c, d = _BYTE_STEPS[byte]
        u, v = a * u + b * v, c * u + d * v
    return u


def stern_via_christoffel(n: int) -> int:
    """s(n) through word lengths: trailing binary zeros are stripped
    (s(2m) = s(m)); an odd n > 1 reads b w b in binary and s(n) is the
    length of the Christoffel word directed by w, i.e. the period sum
    of w.

    >>> stern_via_christoffel(89)
    17
    """
    if n < 0:
        raise ValueError("Stern's sequence is indexed by non-negative integers")
    if n == 0:
        return 0
    n >>= (n & -n).bit_length() - 1
    if n == 1:
        return 1
    return sum(period_pair(decode(n)[1:-1]))


def _pattern_count(host: str) -> int:
    """Occurrences in ``host`` of all subwords from the family b(ab)*.

    One pass with two accumulators: tuples already ending in b (complete
    patterns) and tuples ending in a (awaiting a closing b).  Every b
    both starts a fresh tuple and closes every pending one; every a
    extends every complete tuple.  This closes the infinite pattern
    family in linear time.
    """
    complete = pending = 0
    for c in host:
        if c == "b":
            complete += pending + 1
        else:
            pending += complete
    return complete


def stern_via_subwords(n: int) -> int:
    """s(n) as the number of alternating bit sets of n: occurrences of
    the subwords b, bab, babab, ... in the binary expansion of n.
    """
    if n < 0:
        raise ValueError("Stern's sequence is indexed by non-negative integers")
    return _pattern_count(decode(n))


def ruler(n: int) -> int:
    """Exponent of the largest power of 2 dividing n (n >= 1)."""
    if n < 1:
        raise ValueError("the ruler sequence starts at 1")
    return (n & -n).bit_length() - 1


def zeta(n: int) -> int:
    """Signed odd ruler values: (2 ruler(n) + 1) with the sign of (-1)^(n+1).

    >>> [zeta(n) for n in range(1, 9)]
    [1, -3, 1, -5, 1, -3, 1, -7]
    """
    magnitude = 2 * ruler(n) + 1
    return magnitude if n % 2 else -magnitude


def zeta_sterns(limit: int) -> Iterator[int]:
    """s(2), s(3), ..., s(limit) from one running signed continuant over
    zeta(1), zeta(2), ...: after the entries zeta(1..n-1) the continuant
    is K[zeta_1, ..., zeta_{n-1}] = (-1)^floor((n-1)/2) s(n).  The zeta
    values are spelled out in the loop, which halves its cost per step.

    >>> list(zeta_sterns(9))
    [1, 2, 1, 3, 2, 3, 1, 4]
    """
    prev2, prev = 0, 1
    for i in range(1, limit):
        if i & 1:  # zeta(i) = 1
            prev2, prev = prev, prev + prev2
        else:  # zeta(i) = -(2 ruler(i) + 1)
            prev2, prev = prev, prev2 - (2 * (i & -i).bit_length() - 1) * prev
        yield -prev if i & 2 else prev


_Matrix = tuple[int, int, int, int]  # a 2x2 integer matrix, row by row


def _product(x: _Matrix, y: _Matrix) -> _Matrix:
    a, b, c, d = x
    e, f, g, h = y
    return a * e + b * g, a * f + b * h, c * e + d * g, c * f + d * h


def stern_via_zeta(n: int) -> int:
    """s(n) for n > 1 as a signed continuant over zeta(1..n-1):
    s(n) = (-1)^floor((n-1)/2) K[zeta_1, ..., zeta_{n-1}], read off a
    product of O(log n) dyadic blocks rather than n - 1 continuant steps.

    With Z(x) = [[x, 1], [1, 0]], the continuant K[x_1, ..., x_m] is the
    top-left entry of Z(x_1) ... Z(x_m).  The ruler sequence repeats
    itself, zeta(2^j + r) = zeta(r) for 0 < r < 2^j, so the block
    B_j = Z(zeta(1)) ... Z(zeta(2^j - 1)) doubles as
    B_{j+1} = B_j Z(zeta(2^j)) B_j, and the product up to m = n - 1 is
    B_j Z(zeta(2^j)) taken over the set bits j of m, highest first.  The
    blocks stay small: B_j = [[-1, -j], [-j, 1 - j^2]] for j >= 2.

    >>> stern_via_zeta(5)
    3
    >>> stern_via_zeta(2**100 + 1) == stern(2**100 + 1) == 101
    True
    """
    if n < 2:
        raise ValueError("the signed continuant form needs n > 1")
    m = n - 1
    block = total = (1, 0, 0, 1)  # B_0 and the empty product
    for j in range(m.bit_length()):
        # B_j Z(zeta(2^j)), with zeta(1) = 1 and zeta(2^j) = -(2j + 1) past it
        step = _product(block, (-2 * j - 1 if j else 1, 1, 1, 0))
        if m >> j & 1:  # lower set bits are the right-hand factors
            total = _product(step, total)
        block = _product(step, block)
    return -total[0] if m & 2 else total[0]


def stern_via_integral_continuant(w: str) -> int:
    """s at the tree number of ``w``, as the continuant of the integral
    representation (a0, ..., an) of w with the first entry bumped and the
    last dropped: K[a0 + 1, a1, ..., a_{n-1}].  Words with a one-entry
    representation (powers of b) sit at numbers 2^m, where the value is 1.

    >>> stern_via_integral_continuant("abba")
    7
    """
    rep = integral_rep(w)
    if len(rep) == 1:
        return 1
    return continuant([rep[0] + 1, *rep[1:-1]])


def reverse_bits(n: int) -> int:
    """Integer read from the reversed binary expansion of n; odd for all
    n > 0, and 0 for n = 0.
    """
    if n < 0:
        raise ValueError("negative integers have no binary expansion")
    return int(format(n, "b")[::-1], 2)


class DeltaExpansion(NamedTuple):
    """Decomposition data for s(2n - 1) = 2 + sum of s(2^(k-1) + delta_k)."""

    level: int
    deltas: tuple[int, ...]
    terms: tuple[int, ...]

    @property
    def total(self) -> int:
        return 2 + sum(self.terms)


def delta_expansion(n: int) -> DeltaExpansion:
    """Expansion of s(2n - 1) into level-indexed Stern terms, n > 1.

    The level is ceil(log2 n) - 1 and each delta_k is a difference of
    floor divisions of n - 2^level - 1 by powers of two; the k-th term
    is s(2^(k-1) + delta_k).
    """
    if n <= 1:
        raise ValueError("the expansion needs n > 1")
    level = (n - 1).bit_length() - 1
    rest = n - (1 << level) - 1
    deltas = tuple(
        (rest >> (level - k)) - (rest >> (level - k + 1)) for k in range(1, level + 1)
    )
    terms = tuple(stern((1 << (k - 1)) + d) for k, d in enumerate(deltas, start=1))
    return DeltaExpansion(level, deltas, terms)


class FactorDecomposition(NamedTuple):
    """Christoffel length split over factors of b w b.

    ``base`` counts the letters b in the host; each factor that starts
    and ends with b contributes its occurrence count, weighted by 1 when
    it contains a single a and by the Christoffel length of its inner
    word (between the outermost a's) when it contains two or more.
    """

    word: str
    base: int
    single_a: tuple[tuple[str, int], ...]
    multi_a: tuple[tuple[str, str, int, int], ...]  # (factor, inner, weight, count)

    @property
    def total(self) -> int:
        return (
            self.base
            + sum(count for _, count in self.single_a)
            + sum(weight * count for _, _, weight, count in self.multi_a)
        )


def factor_decomposition(w: str) -> FactorDecomposition:
    """Decompose |a psi(w) b| over the factors of b w b.

    >>> d = factor_decomposition("ababa")
    >>> d.base, d.single_a, d.multi_a[0][:3], d.total
    (4, (('bab', 3),), ('babab', 'b', 3), 21)
    """
    host = "b" + w + "b"
    b_at = [i for i, c in enumerate(host) if c == "b"]
    counts: dict[str, int] = {}
    for x, i in enumerate(b_at):
        for j in b_at[x + 1 :]:
            u = host[i : j + 1]
            counts[u] = counts.get(u, 0) + 1
    single = []
    multi = []
    for u in sorted(sorted(counts), key=len):
        core = u.strip("b")  # from the first a to the last
        if not core:
            continue  # all-b factors carry weight s(0) = 0
        if len(core) == 1:
            single.append((u, counts[u]))
        else:
            inner = core[1:-1]
            multi.append((u, inner, sum(period_pair(inner)), counts[u]))
    return FactorDecomposition(w, len(b_at), tuple(single), tuple(multi))


def stern_factor_identity(n: int) -> bool:
    """Check the factor-occurrence form of s(n): the count of binary ones
    plus, for every factor occurrence u b with u starting in b, the Stern
    value of the complemented u.
    """
    if n < 0:
        raise ValueError("Stern's sequence is indexed by non-negative integers")
    host = decode(n)
    total = host.count("b")
    b_at = [i for i, c in enumerate(host) if c == "b"]
    for x, i in enumerate(b_at):
        for j in b_at[x + 1 :]:
            total += stern(encode(complement(host[i:j])))
    return total == stern(n)


#: Ceiling on the number of marked occurrences enumerated at once.
MARKED_OCCURRENCE_CAP = 10**6


def _occurrence_count(w: str) -> int:
    # the row count of marked_occurrences(w), the Christoffel length of w,
    # known before any row is built, and refused past the cap
    count = sum(_period_pair_capped(w, MARKED_OCCURRENCE_CAP))
    if count > MARKED_OCCURRENCE_CAP:
        raise BudgetError(f"occurrences exceed the cap of {MARKED_OCCURRENCE_CAP}")
    return count


def marked_occurrences(w: str) -> tuple[str, list[tuple[int, ...]]]:
    """All occurrences of b(ab)* subwords in b w b, sorted by decreasing
    reversed position tuple and marked a (initial) or b (non-initial),
    as ``(markers, rows)``.

    Each row is the reversed key itself: the occurrence is ``key[::-1]``
    and its marker, ``markers[i]`` for row i, is a exactly when the key
    ends in position 1.  Read top to bottom, the markers spell psi(w) b a:
    the occurrence table is a standard word in disguise.

    >>> marked_occurrences("")
    ('ba', [(2,), (1,)])

    A letter other than a and b raises ValueError.  The number of rows
    equals the Christoffel length of w, checked against
    ``MARKED_OCCURRENCE_CAP`` before enumerating by a walk over prefixes
    of 64, 128, 256, ... letters that stops at the first past the cap.
    Reversed keys compare as tuples, a proper prefix ranking below its
    extensions, so the table is built sorted with nothing to sort.  The
    keys that start at the b in position j, in decreasing order, are:
    for each a at i < j and then each b at k < i, largest first, (j, i)
    followed by each key that starts at k, in its order; then (j,)
    itself.  The b positions are taken in increasing order, so every
    list they read is already built, and the rows are these lists for j
    in decreasing order.  Every extension read yields a row, so no work
    is spent on letters that start nothing (a long run of a, say).
    """
    _occurrence_count(check_word(w))
    host = "b" + w + "b"
    a_at = [j for j, c in enumerate(host, 1) if c == "a"]
    b_at = [j for j, c in enumerate(host, 1) if c == "b"]
    keys: dict[int, list[tuple[int, ...]]] = {}
    for j in b_at:
        starting = []
        for i in reversed(a_at[: bisect(a_at, j)]):
            for k in reversed(b_at[: bisect(b_at, i)]):
                starting += map((j, i).__add__, keys[k])
        starting.append((j,))
        keys[j] = starting
    rows = [key for j in reversed(b_at) for key in keys[j]]
    return "".join(["a" if key[-1] == 1 else "b" for key in rows]), rows


def initial_subword_count(v: str) -> int:
    """Occurrences of b(ab)* subwords in b v b that start at position 1,
    that is all of them less those inside the suffix v b; equals the
    number of letters a in the Christoffel word directed by v.
    """
    return _pattern_count("b" + v + "b") - _pattern_count(v + "b")


def length_by_subword_count(v: str) -> int:
    """Christoffel length |a psi(v) b| as the b(ab)* subword count of b v b."""
    return _pattern_count("b" + v + "b")


def period_by_subword_count(v: str) -> int:
    """Minimal period of psi(v), non-constant v, as the b(ab)* subword
    count of the plus-prefix host.
    """
    return _pattern_count("b" + plus_prefix(v) + "b")
