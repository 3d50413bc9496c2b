"""Length statistics of Christoffel words of a fixed order.

The order of a proper Christoffel word is the length of its directive
word, so order k contributes 2^k words.  Their lengths live between
k + 2 (constant directives) and the Fibonacci number F(k+1) (alternating
directives), total mass 2 * 3^k, with structured gaps just above the
minimum and just below the maximum.

Both exhaustive enumerations read the period pairs of a whole tree level
as two lists.  One level doubles the previous one: the ``a`` child of
(p_a, p_b) is (p_a, p_a + p_b) and the ``b`` child is (p_a + p_b, p_b),
which is the row doubling s(2n) = s(n), s(2n+1) = s(n) + s(n+1) of
Stern's sequence.  The length below a node is linear in the node's
pair, so ``histogram`` builds one block of coefficient lists and reuses
it under every root of a shallower level; complement swaps the two
periods, so only the half below the ``a`` child is enumerated.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from itertools import repeat
from math import gcd
from operator import add, mul

from .continuants import cf_terms, fib
from .words import BudgetError, complement, decode

#: Largest order accepted by the exhaustive enumerations, read at call time.
MAX_ENUMERATED_ORDER = 26

#: Depth of the coefficient block ``histogram`` reuses under every root,
#: so its temporaries hold 2^12 pairs whatever the order.
_BLOCK_DEPTH = 12


@dataclass(frozen=True)
class LengthHistogram:
    """Counts C_k(n) of order-``order`` Christoffel words of length n."""

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
    def average_length(self) -> Fraction:
        return Fraction(self.weighted_mass, self.mass)

    @property
    def support(self) -> list[int]:
        return sorted(self.counts)


@dataclass(frozen=True)
class OrderSummary:
    order: int
    max_count: int
    argmax: list[int]
    missing: list[int]
    missing_count: int


def _check_order(k: int) -> None:
    if k < 0:
        raise ValueError("order must be non-negative")
    if k > MAX_ENUMERATED_ORDER:
        raise BudgetError(
            f"order {k} enumerates 2^{k} = {2**k} directives; "
            f"the configured bound is {MAX_ENUMERATED_ORDER}"
        )


def _descendants(m: int, pa: int = 1, pb: int = 1) -> tuple[list[int], list[int]]:
    """Period pairs of the 2^m depth-m descendants of (pa, pb), as the
    list of a-periods and the list of b-periods.

    Bit j of an index is letter j of the path below (pa, pb), with a = 0.

    >>> _descendants(2)
    ([1, 2, 3, 3], [3, 3, 2, 1])
    """
    xs, ys = [pa], [pb]
    for _ in range(m):
        ss = list(map(add, xs, ys))
        xs, ys = xs + ss, ss + ys
    return xs, ys


def histogram(k: int) -> LengthHistogram:
    """Length histogram of all 2^k order-k Christoffel words.

    Blocked sweep: the length below a node (pa, pb) along a path of
    depth m is pa * X + pb * Y for a pair (X, Y) that depends on the
    path alone, so the 2^m pairs of one coefficient block serve every
    root of the level m levels up.  Only the words below the ``a`` child
    (1, 2) are enumerated; complement swaps the two periods, so every
    count is then doubled.

    >>> histogram(3).counts
    {5: 2, 7: 4, 8: 2}
    """
    _check_order(k)
    if k == 0:
        return LengthHistogram(0, {2: 1})
    m = min(k - 1, _BLOCK_DEPTH)
    xs, ys = _descendants(m)
    counts: Counter[int] = Counter()
    for pa, pb in zip(*_descendants(k - 1 - m, 1, 2)):
        counts.update(map(add, map(mul, xs, repeat(pa)), map(mul, ys, repeat(pb))))
    return LengthHistogram(k, {n: 2 * c for n, c in sorted(counts.items())})


def summarize_histogram(h: LengthHistogram) -> OrderSummary:
    """Maximal multiplicity, its length arguments, and the missing lengths
    of an already computed histogram.
    """
    top = max(h.counts.values())
    argmax = sorted(n for n, c in h.counts.items() if c == top)
    lo, hi = h.order + 2, fib(h.order + 1)
    missing = [n for n in range(lo, hi + 1) if n not in h.counts]
    return OrderSummary(h.order, top, argmax, missing, len(missing))


def summarize(k: int) -> OrderSummary:
    """Maximal multiplicity, its length arguments, and the missing lengths
    of order k.
    """
    return summarize_histogram(histogram(k))


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
    the phi(n) residues settles every k at once.
    The values sum to Euler's totient of n.
    """
    if n < 2:
        raise ValueError("proper Christoffel words have length at least 2")
    counts: dict[int, int] = {}
    for p in range(1, n):
        if gcd(p, n) == 1:
            k = sum(cf_terms(p, n - p)) - 1
            counts[k] = counts.get(k, 0) + 1
    return dict(sorted(counts.items()))


def totient_identity_check(n_max: int) -> bool:
    """Whether sum over k of C_k(n) equals phi(n) for every 2 <= n <= n_max."""
    return all(
        sum(counts_for_length(n).values()) == totient(n) for n in range(2, n_max + 1)
    )


@dataclass(frozen=True)
class BoundReport:
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
        return all(
            (
                self.least_length_ok,
                self.nonconstant_floor_ok,
                self.floor_equality_ok,
                self.greatest_length_ok,
                self.nonalternating_ceiling_ok,
                self.ceiling_equality_ok,
                self.consecutive_lengths_ok,
                self.missing_floor_ok,
            )
        )


def bound_report(k: int) -> BoundReport:
    """Check every length bound and equality class over all of order k >= 3."""
    if k < 3:
        raise ValueError("bound checks need order k >= 3")
    _check_order(k)

    lengths = list(map(add, *_descendants(k)))
    lo, top = k + 2, fib(k + 1)
    floor = 2 * k + 1
    ceiling = top - fib(k - 4)
    # every predicate but the last two reads only lengths outside
    # (floor, ceiling), so only those directives are spelled out
    extremal = {
        decode(i).rjust(k, "a")[::-1]: n
        for i, n in enumerate(lengths)
        if not floor < n < ceiling
    }
    alternating_pair = {alternating(k, "a"), alternating(k, "b")}
    constants = {"a" * k, "b" * k}

    least_ok = all(n >= lo for n in extremal.values()) and (
        {v for v, n in extremal.items() if n == lo} == constants
    )
    nonconstant_floor_ok = all(
        n >= floor for v, n in extremal.items() if v not in constants
    )
    floor_equality_ok = {v for v, n in extremal.items() if n == floor} == word_class(
        "a" + "b" * (k - 1)
    )
    greatest_ok = all(n <= top for n in extremal.values()) and (
        {v for v, n in extremal.items() if n == top} == alternating_pair
    )
    nonalternating_ceiling_ok = all(
        n <= ceiling for v, n in extremal.items() if v not in alternating_pair
    )
    ceiling_equality_ok = {v for v, n in extremal.items() if n == ceiling} == word_class(
        almost_alternating(k)
    )
    support = set(lengths)
    consecutive_ok = {3 * k - 2, 3 * k - 1, 5 * k - 8, 5 * k - 7} <= support
    missing = sum(1 for n in range(lo, top + 1) if n not in support)
    missing_floor_ok = missing >= fib(k - 4) + k - 3

    return BoundReport(
        k,
        least_ok,
        nonconstant_floor_ok,
        floor_equality_ok,
        greatest_ok,
        nonalternating_ceiling_ok,
        ceiling_equality_ok,
        consecutive_ok,
        missing_floor_ok,
    )


def _golden_convergents(digits: int = 40) -> tuple[Fraction, Fraction]:
    # adjacent Fibonacci quotients bracket the golden ratio; push until
    # the gap 1/(F_m F_{m+1}) is below 10^-digits
    bound = 10**digits
    prev, cur = 1, 1
    while prev * cur < bound:
        prev, cur = cur, prev + cur
    low, high = Fraction(cur, prev), Fraction(cur + prev, cur)
    if low > high:
        low, high = high, low
    return low, high


_GOLDEN_LOW, _GOLDEN_HIGH = _golden_convergents()


def max_count_lower_bound(k: int) -> Fraction:
    """Exact rational below 2^k / g^(k+3), g the golden ratio: a guaranteed
    lower bound for the maximal multiplicity of order k.

    Uses a 40-digit rational over-approximation of g so the returned
    value never exceeds the true bound; no floating point is involved.
    """
    if k < 1:
        raise ValueError("the bound is stated for k >= 1")
    return Fraction(2**k) / _GOLDEN_HIGH ** (k + 3)
