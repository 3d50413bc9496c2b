"""Length statistics of Christoffel words of a fixed order.

The order of a proper Christoffel word is the length of its directive
word, so order k contributes 2^k words.  Their lengths live between
k + 2 (constant directives) and the Fibonacci number F(k+1) (alternating
directives), total mass 2 * 3^k, with structured gaps just above the
minimum and just below the maximum.

``histogram`` is the one exhaustive enumeration; it reads the period
pairs of half a tree level as two lists.  One level doubles the previous
one: the ``a`` child of (p_a, p_b) is (p_a, p_a + p_b) and the ``b``
child is (p_a + p_b, p_b), which is the row doubling s(2n) = s(n),
s(2n+1) = s(n) + s(n+1) of Stern's sequence.

``histogram`` counts one word per class of the symmetries that keep
the length: complement, and reversal, which is the bit-reversal symmetry
s(n) = s(reverse_bits(n)) of Stern's sequence (Northshield, Amer. Math.
Monthly, 2010).  Split a directive as v = x w y with |x| = |y| = m =
floor(k/2) and w the middle letter, empty when k is even.  The length of
x u is the dot product of the period pairs of x and of
reverse(complement(u)), so one level of period pairs, indexed by the
binary spelling of its directives (a = 0, first letter most significant),
serves both halves: the word x w y is the entry t = z reverse(complement(w))
with z = reverse(complement(y)).  Fix the first letter of x to ``a`` and
double every count (complement).  Reversal pairs the a...a words,
reversal-complement the a...b words, and the partner of x w y has x-part
complement(z) or z.  So the word of its class with the smaller x-part is
the one whose z lies strictly between x and complement(x) in index order:
for each x, one contiguous row of the level, whose words count four
times.  The row ends are the words with z = x, that is x w
reverse(complement(x)), and z = complement(x), the palindromes x w
reverse(x).  Each counts twice: a palindrome is its own reversal, and
x reverse(complement(x)) is its own reversal-complement, or for odd k
the reversal-complement of its twin with the other middle letter.  The
rows hold 2^(k-2) + 2^(ceil(k/2)-1) leaves against 2^(k-1) for the
complement half alone.

``histogram`` packs the level's a-periods and its b-periods into one
integer each, one lane of ``_LANE`` bytes per entry, so the lengths of
a whole row are the lanes of one integer product and cost no Python
step each.  Every lane holds the length of an order-k word, at most
F(k+1), so no lane carries while F(k+1) fits one; orders past that lane
bound are refused.  The lengths reach ``Counter.update`` in batches.

A ``LengthHistogram`` is the one record of an order: its counts C_k(n),
their mass, and the order statistics read from them, the maximal
multiplicity M_k (``max_count``), the lengths that reach it (``argmax``)
and the lengths in [k + 2, F(k+1)] that no word has (``missing``).

``bound_report`` enumerates nothing of its own: each of its predicates
reads the histogram's figures and the lengths of at most 12 fixed words.
"""

from __future__ import annotations

import sys
from array import array
from collections import Counter
from fractions import Fraction
from itertools import count
from math import gcd
from operator import add
from typing import NamedTuple

from .continuants import cf_terms, fib
from .palindromes import period_pair
from .words import BudgetError, complement

#: Largest order accepted by ``histogram``, read at call time.
MAX_ENUMERATED_ORDER = 26

#: ``histogram`` hands its row lengths to ``Counter.update`` in batches
#: of at least this many: one call serves many short rows, and a batch
#: holds at most this many lengths plus one row.
_BATCH = 1 << 12

#: Bytes in one lane of ``histogram``'s packed integers: one unsigned C
#: int, 4 bytes on common platforms, which holds F(27) = 514229, the
#: longest length of order 26; 2 bytes would carry from order 22 on.
_LANE = array("I").itemsize

#: The largest order whose lengths, at most F(k+1), fit in one lane.
_LANE_ORDER = next(k for k in count() if fib(k + 2) >> (8 * _LANE))


class LengthHistogram(NamedTuple):
    """Counts C_k(n) of order-``order`` Christoffel words of length n, by
    increasing n, and the figures read from them, each computed when read.
    """

    order: int
    counts: dict[int, int]

    @property
    def mass(self) -> int:
        """Total number of words; equals 2^order."""
        return sum(self.counts.values())

    @property
    def weighted_mass(self) -> int:
        """Sum of all lengths; equals 2 * 3^order."""
        return sum(n * c for n, c in self.counts.items())

    @property
    def support(self) -> list[int]:
        return list(self.counts)

    @property
    def max_count(self) -> int:
        """M_k, the largest count C_k(n)."""
        return max(self.counts.values())

    @property
    def argmax(self) -> list[int]:
        """The lengths n with C_k(n) = M_k, sorted."""
        top = self.max_count
        return [n for n, c in self.counts.items() if c == top]

    @property
    def missing(self) -> list[int]:
        """The lengths in [k + 2, F(k+1)] that no order-k word has."""
        return [n for n in range(self.order + 2, fib(self.order + 1) + 1) if n not in self.counts]


def _check_order(k: int) -> None:
    if k < 0:
        raise ValueError("order must be non-negative")
    if k > MAX_ENUMERATED_ORDER:
        raise BudgetError(
            f"order k enumerates 2^k directives; k exceeds the bound of {MAX_ENUMERATED_ORDER}"
        )


def _descendants(m: int) -> tuple[list[int], list[int]]:
    """Period pairs of the 2^m directives of length m, as the list of
    a-periods and the list of b-periods.

    Index i read as m binary digits spells its directive, a = 0 and the
    first letter most significant.  Complement swaps the two periods and
    maps index i to 2^m - 1 - i, so the b-periods are the a-periods in
    reverse order.

    >>> _descendants(2)
    ([1, 3, 2, 3], [3, 2, 3, 1])
    """
    xs = [1]
    for _ in range(m):
        sums = list(map(add, xs, reversed(xs)))
        children = xs + sums
        children[::2] = xs
        children[1::2] = sums
        xs = children
    return xs, xs[::-1]


def histogram(k: int) -> LengthHistogram:
    """Length histogram of all 2^k order-k Christoffel words.

    Class sweep (see the module docstring) over the level of the
    m + (k mod 2) letters after x, m = k // 2: the row of x is its
    entries s * index(x) <= t < s * (2^m - index(x)), s = 1 + k mod 2.
    Each length in a row counts four words.  The s entries at either
    end, x w reverse(complement(x)) and the palindromes x w reverse(x),
    count two, and their lengths have closed forms in the period pair
    of x.  The lengths of a row are the lanes [lo, n - lo) of one
    integer product pa * X + pb * Y, where X and Y pack the level's
    a-periods and b-periods one ``_LANE``-byte lane per entry.  An order
    past ``_LANE_ORDER``, whose longest words would carry into the next
    lane, raises :class:`BudgetError` up front.  Row lengths reach
    ``Counter.update`` in batches of at least ``_BATCH``.

    >>> histogram(3).counts
    {5: 2, 7: 4, 8: 2}
    """
    _check_order(k)
    if k > _LANE_ORDER:
        raise BudgetError(
            f"order k has lengths past a {8 * _LANE}-bit lane; "
            f"MAX_ENUMERATED_ORDER exceeds the lane bound"
        )
    if k < 2:
        return LengthHistogram(k, {k + 2: 2**k})
    xs, ys = _descendants(k - k // 2)
    n = len(xs)
    s = 1 + k % 2
    byteorder = sys.byteorder
    packed_x = int.from_bytes(array("I", xs), byteorder)
    packed_y = int.from_bytes(array("I", ys), byteorder)
    counts: Counter[int] = Counter()
    batch = array("I")
    ends: list[int] = []
    # (pa, pb) is the period pair of x: a final a keeps the a-period, a final b the b-period
    for lo, pa, pb in zip(range(0, n // 2, s), xs[: n // 2 : s], ys[s - 1 : n // 2 : s]):
        row = (pa * packed_x + pb * packed_y).to_bytes(n * _LANE, byteorder)
        batch.frombytes(row[lo * _LANE : (n - lo) * _LANE])
        if s == 1:  # x reverse(complement(x)), then the palindrome x reverse(x)
            ends += (pa * pa + pb * pb, 2 * pa * pb)
        else:  # x w reverse(complement(x)), one length for both w; x a reverse(x), x b reverse(x)
            q = pa * pa + pa * pb + pb * pb
            ends += (q, q, pa * (pa + 2 * pb), pb * (pb + 2 * pa))
        if len(batch) >= _BATCH:
            counts.update(batch)
            del batch[:]
    counts.update(batch)
    lengths = {length: 4 * c for length, c in sorted(counts.items())}
    for length in ends:
        lengths[length] -= 2
    return LengthHistogram(k, lengths)


def alternating(k: int, first: str = "a") -> str:
    """The length-k word whose letters strictly alternate, starting with
    ``first``; its Christoffel word is the longest of order k.
    """
    if first not in ("a", "b"):
        raise ValueError(f"first letter must be a or b: {first!r}")
    pair = first + complement(first)
    return (pair * (k // 2 + 1))[:k]


def almost_alternating(k: int) -> str:
    """The canonical order-k directive of the second-largest length:
    a b b followed by strict alternation.  Defined for k >= 3.
    """
    if k < 3:
        raise ValueError("almost alternating words start at length 3")
    v = "abb"
    for j in range(3, k):
        v += "a" if j % 2 else "b"
    return v


def word_class(v: str) -> set[str]:
    """The at-most-four words {v, reversal, complement, both}; all four
    direct Christoffel words of equal length.
    """
    rev = v[::-1]
    bar = complement(v)
    return {v, rev, bar, bar[::-1]}


def totient(n: int) -> int:
    """Euler's totient by trial division."""
    if n < 1:
        raise ValueError("totient is defined on positive integers")
    result = n
    p = 2
    while p * p <= n:
        if n % p == 0:
            while n % p == 0:
                n //= p
            result -= result // p
        p += 1 if p == 2 else 2
    if n > 1:
        result -= result // n
    return result


def counts_for_length(n: int) -> dict[int, int]:
    """C_k(n) for every order k, computed per length instead of per order.

    Each order-k Christoffel word of length n corresponds to a coprime
    period pair (p, n - p), and the order is the tree depth of p/(n - p):
    the sum of its continued-fraction terms, less one.  So one pass over
    the phi(n) residues settles every k at once.  For n >= 3 the residues
    p and n - p are distinct, and cf_terms(p, n - p) is
    [0] + cf_terms(n - p, p), so both have the same order: the pass reads
    p < n/2 only and counts each residue twice.
    The values sum to Euler's totient of n.
    """
    if n < 2:
        raise ValueError("proper Christoffel words have length at least 2")
    if n == 2:
        return {0: 1}
    counts: dict[int, int] = {}
    for p in range(1, (n + 1) // 2):
        if gcd(p, n) == 1:
            k = sum(cf_terms(p, n - p)) - 1
            counts[k] = counts.get(k, 0) + 2
    return dict(sorted(counts.items()))


class BoundReport(NamedTuple):
    """Outcome of the exhaustive order-k length bound checks."""

    order: int
    least_length_ok: bool  # length >= k + 2, equality exactly for constants
    nonconstant_floor_ok: bool  # non-constant implies >= 2k + 1
    floor_equality_ok: bool  # = 2k + 1 exactly on the class of a b^(k-1)
    greatest_length_ok: bool  # length <= F(k+1), equality exactly if alternating
    nonalternating_ceiling_ok: bool  # non-alternating implies <= F(k+1) - F(k-4)
    ceiling_equality_ok: bool  # equality exactly on the almost alternating class
    consecutive_lengths_ok: bool  # 3k-2, 3k-1 and 5k-8, 5k-7 all realized
    missing_floor_ok: bool  # number of missing lengths >= F(k-4) + k - 3

    @property
    def passed(self) -> bool:
        return all(self[1:])  # every field after the order is a predicate


def bound_report_histogram(h: LengthHistogram) -> BoundReport:
    """Every length bound and equality class of an order k >= 3, read
    from its histogram.

    Each predicate names a finite set S of words: the constants, the
    alternating pair, or the class of a b^(k-1) or of the almost
    alternating word.  The words of length n are exactly S iff C_k(n) =
    |S| and every word of S has length n; no word outside S is shorter
    than f iff C_k counts as many words shorter than f as S holds.  So
    the counts and the lengths of these at most 12 words settle every
    predicate.
    """
    k, counts, support = h.order, h.counts, h.support
    if k < 3:
        raise ValueError("bound checks need order k >= 3")
    lo, floor, top = k + 2, 2 * k + 1, fib(k + 1)
    ceiling = top - fib(k - 4)
    constants = {"a" * k, "b" * k}
    alternating_pair = {alternating(k, "a"), alternating(k, "b")}
    floor_class = word_class("a" + "b" * (k - 1))
    ceiling_class = word_class(almost_alternating(k))
    length = {v: sum(period_pair(v)) for v in (
        *constants, *alternating_pair, *floor_class, *ceiling_class)}

    def exactly(n: int, words: set[str]) -> bool:
        return counts.get(n, 0) == len(words) and all(length[v] == n for v in words)

    return BoundReport(
        k,
        support[0] >= lo and exactly(lo, constants),
        sum(c for n, c in counts.items() if n < floor)
        == sum(1 for v in constants if length[v] < floor),
        exactly(floor, floor_class),
        support[-1] <= top and exactly(top, alternating_pair),
        sum(c for n, c in counts.items() if n > ceiling)
        == sum(1 for v in alternating_pair if length[v] > ceiling),
        exactly(ceiling, ceiling_class),
        {3 * k - 2, 3 * k - 1, 5 * k - 8, 5 * k - 7} <= counts.keys(),
        len(h.missing) >= fib(k - 4) + k - 3,
    )


def bound_report(k: int) -> BoundReport:
    """Check every length bound and equality class over all of order k >= 3."""
    return bound_report_histogram(histogram(k))


def _golden_upper() -> Fraction:
    # adjacent Fibonacci quotients bracket the golden ratio; push until
    # the gap 1/(F_m F_{m+1}) is below 10^-40 and keep the larger one
    prev, cur = 1, 1
    while prev * cur < 10**40:
        prev, cur = cur, prev + cur
    return max(Fraction(cur, prev), Fraction(cur + prev, cur))


_GOLDEN_HIGH = _golden_upper()


def max_count_lower_bound(k: int) -> Fraction:
    """Exact rational below 2^k / g^(k+3), g the golden ratio: a guaranteed
    lower bound for the maximal multiplicity of order k.

    Uses a 40-digit rational over-approximation of g so the returned
    value never exceeds the true bound; no floating point is involved.
    """
    if k < 1:
        raise ValueError("the bound is stated for k >= 1")
    return Fraction(2**k) / _GOLDEN_HIGH ** (k + 3)
