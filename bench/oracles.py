"""Reference computations the benchmark checks outputs against.

Nothing here imports ``diatomic``: each oracle is a separate, plain
formulation of a fact from the paper, so a wrong answer from the library
cannot also be the expected answer.  Oracles run outside the timed
regions.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd

_TO_BITS = str.maketrans("ab", "01")

#: ``str(n)`` refuses integers with more decimal digits than this
#: (CPython's default ``sys.int_info.default_max_str_digits``).
INT_STR_DIGITS = 4300


def period_pair(v: str) -> tuple[int, int]:
    """(p_a, p_b) by the period recurrence: appending x keeps p_x and adds
    it to the other component."""
    pa = pb = 1
    for x in v:
        if x == "a":
            pb += pa
        else:
            pa += pb
    return pa, pb


def stern(n: int) -> int:
    """s(n) by the pair descent (s(m), s(m+1)) along the bits of n from
    the top: m -> 2m gives (s(m), s(m)+s(m+1)), m -> 2m+1 gives
    (s(m)+s(m+1), s(m+1))."""
    lo, hi = 0, 1
    for bit in bin(n)[2:]:
        if bit == "1":
            lo = lo + hi
        else:
            hi = lo + hi
    return lo


def raney_walk(path: str) -> tuple[int, int]:
    """Raney label reached from the root 1/1: a goes to p/(p+q), b to (p+q)/q."""
    p = q = 1
    for x in path:
        if x == "a":
            q += p
        else:
            p += q
    return p, q


def sternbrocot_label(path: str) -> tuple[int, int]:
    """Stern-Brocot label of a node: the Raney label of the reversed path,
    also the slope of the Christoffel word directed by ``path``."""
    return raney_walk(path[::-1])


def node_number(path: str) -> int:
    """Breadth-first node number: <b path> + 1 with a=0, b=1."""
    return int("1" + path.translate(_TO_BITS), 2) + 1


def continued_fraction(p: int, q: int) -> list[int]:
    """Regular continued fraction [a0; a1, ..., an] of p/q by Fraction
    arithmetic; the last term is at least 2 unless p/q is an integer."""
    x = Fraction(p, q)
    terms = []
    while True:
        a = x.numerator // x.denominator
        terms.append(a)
        x -= a
        if x == 0:
            return terms
        x = 1 / x


def sternbrocot_path(p: int, q: int) -> str:
    """Stern-Brocot path of p/q > 0: b^a0 a^a1 b^a2 ... with the last
    exponent lowered by one.  Its reversal is the Raney path."""
    terms = continued_fraction(p, q)
    terms[-1] -= 1
    return "".join(("b" if i % 2 == 0 else "a") * a for i, a in enumerate(terms))


def is_palindrome(w: str) -> bool:
    return w == w[::-1]


def closure_brute(w: str) -> str:
    """Right palindromic closure by trying every suffix, shortest
    completion first; quadratic, for short words only."""
    for i in range(len(w) + 1):
        if is_palindrome(w[i:]):
            return w + w[:i][::-1]
    raise AssertionError("unreachable")


def closure_kmp(w: str) -> str:
    """Right palindromic closure in linear time: the longest palindromic
    suffix of w is the longest border of reverse(w) # w."""
    s = w[::-1] + "#" + w
    border = [0] * len(s)
    k = 0
    for i in range(1, len(s)):
        while k and s[i] != s[k]:
            k = border[k - 1]
        if s[i] == s[k]:
            k += 1
        border[i] = k
    longest = border[-1] if w else 0
    return w + w[: len(w) - longest][::-1]


def psi_brute(v: str) -> str:
    """Iterated palindromic closure, one closure per directive letter."""
    w = ""
    for x in v:
        w = closure_kmp(w + x)
    return w


def is_central_image(w: str, v: str) -> bool:
    """Whether ``w`` is psi(v), checked without building psi(v).

    psi(v) is the palindrome with coprime periods p_a, p_b and length
    p_a + p_b - 2 (the Fine-Wilf extremal case).  Those periods split the
    positions into at most two classes, each spelled by one letter, so
    the word is fixed by its first letter (the first directive letter)
    and its alphabet (the directive's)."""
    pa, pb = period_pair(v)
    n = len(w)
    if n != pa + pb - 2 or not is_palindrome(w):
        return False
    if w.strip("ab"):
        return False
    for p in (pa, pb):
        if p < n and w[p:] != w[:-p]:
            return False
    if not v:
        return True
    return w[0] == v[0] and set(w) == set(v)


def christoffel_by_floor(p: int, q: int) -> str:
    """Lower Christoffel word of slope p/q: letter i is b exactly when
    floor((i+1)p/(p+q)) > floor(ip/(p+q))."""
    n = p + q
    return "".join("b" if ((i + 1) * p) // n > (i * p) // n else "a" for i in range(n))


def fibonacci_prefix(n: int) -> str:
    """Length-n prefix of the Fibonacci word, f_k = f_{k-1} f_{k-2}."""
    older, newer = "a", "ab"
    while len(newer) < n:
        older, newer = newer, newer + older
    return newer[:n]


def min_period(w: str) -> int:
    """Least p >= 1 with w[i] = w[i+p] throughout (1 for the empty word)."""
    for p in range(1, len(w) + 1):
        if w[p:] == w[: len(w) - p]:
            return p
    return 1


def is_lyndon(w: str) -> bool:
    """Strictly smaller than every proper rotation."""
    return bool(w) and all(w < w[i:] + w[:i] for i in range(1, len(w)))


def order_depth(p: int, q: int) -> int:
    """Order of the directive with period pair (p, q): the number of
    subtractive Euclid steps down to (1, 1), i.e. the sum of the
    quotients of Euclid's algorithm on p, q minus one."""
    total = 0
    while q:
        total += p // q
        p, q = q, p % q
    return total - 1


def counts_for_length(n: int) -> dict[int, int]:
    counts: dict[int, int] = {}
    for p in range(1, n):
        if gcd(p, n) == 1:
            k = order_depth(p, n - p)
            counts[k] = counts.get(k, 0) + 1
    return counts


def totient(n: int) -> int:
    return sum(1 for p in range(1, n + 1) if gcd(p, n) == 1)


def histogram(k: int) -> dict[int, int]:
    """Christoffel lengths p_a + p_b over all 2^k order-k directives,
    expanded level by level."""
    level = [(1, 1)]
    for _ in range(k):
        level = [pair for pa, pb in level for pair in ((pa, pa + pb), (pa + pb, pb))]
    counts: dict[int, int] = {}
    for pa, pb in level:
        counts[pa + pb] = counts.get(pa + pb, 0) + 1
    return counts


def fib(n: int) -> int:
    """Fibonacci numbers with F(-1) = F(0) = 1."""
    prev, cur = 1, 1
    for _ in range(n):
        prev, cur = cur, prev + cur
    return cur


def summary(k: int) -> tuple[int, list[int], list[int]]:
    """(M_k, argmax, missing lengths in [k+2, F(k+1)]) of order k."""
    counts = histogram(k)
    top = max(counts.values())
    argmax = sorted(n for n, c in counts.items() if c == top)
    missing = [n for n in range(k + 2, fib(k + 1) + 1) if n not in counts]
    return top, argmax, missing
