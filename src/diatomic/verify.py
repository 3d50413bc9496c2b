"""Replay of the package's cross-route identities as named checks.

Every check compares two independently computed quantities (or a
computed quantity against a frozen published table) over an exhaustive
range controlled by ``max_k`` (word lengths / orders) and ``max_n``
(integer arguments).  The checks are deliberately redundant with the
unit tests: they are the runnable summary behind the ``verify`` CLI
command.

Each check is declared once, by ``@_check(name, k=..., n=...)`` over an
anonymous ``def _``: that line gives the check its one name, the
``__name__`` it prints, and clamps the bounds its body receives to ``k``
and ``n``.  A body only declares its cases: it returns its detail, then
one lazy iterable of failing cases per kind, chained in that order.  No
kind selects its cases through a route under test: a wrong route could
then select no case at all, and its check would pass without comparing
anything.  One verdict rule decides every check: it passes when there
are no failing cases, and ends at the first one, which its FAIL names.
An exception fails its check alone, named in its detail.  ``ALL_CHECKS``
keeps the checks in declaration order, a list the bench rewraps by index.

The declared clamps stop word lengths and orders at 22 at most, and
integer arguments at 2^16 (the Stern evaluators; every other integer
range stops at 2^14 or below).  Bounds past the clamps cost no more than
the clamps themselves, so the suite has a fixed ceiling for any bounds.

Each order's length histogram is built once per run and read by four
checks: its invariants, the published tables, the paper's length bounds
and, at short lengths, the per-length counts of the residue route.
"""

from __future__ import annotations

import itertools
from functools import cache
from math import gcd
from typing import Callable, Iterable, Iterator, NamedTuple

from .christoffel import (
    christoffel_by_directive,
    christoffel_by_slope,
    christoffel_of_word,
    is_standard,
    lyndon_factorization,
    standard_by_coefficients,
)
from .continuants import christoffel_length_cf, continuant, fib, mirror_formula
from .distribution import (
    LengthHistogram,
    bound_report_histogram,
    counts_for_length,
    histogram,
    max_count_lower_bound,
    totient,
)
from .palindromes import (
    min_period_central,
    mu,
    pal_closure,
    period_pair,
    psi,
    psi_inverse,
    psi_prefix,
)
from .stern import (
    delta_expansion,
    factor_decomposition,
    initial_subword_count,
    length_by_subword_count,
    marked_occurrences,
    period_by_subword_count,
    reverse_bits,
    ruler,
    stern,
    stern_factor_identity,
    stern_via_christoffel,
    stern_via_integral_continuant,
    stern_via_subwords,
    stern_via_zeta,
    zeta,
    zeta_sterns,
)
from .trees import nu, path_of_fraction, ra_of, raney, stern_brocot, tree_node
from .words import complement, decode, encode, integral_rep, is_lyndon, min_period
from .words import factor_count, plus_prefix, plus_suffix, subword_binomial, word_of

STERN_PREFIX = (
    0, 1, 1, 2, 1, 3, 2, 3, 1, 4, 3, 5, 2, 5, 3, 4,
    1, 5, 4, 7, 3, 8, 5, 7, 2, 7, 5, 8, 3, 7, 4, 5, 1,
)

#: Published maxima of C_k and the lengths attaining them; the length
#: lists are treated as containment pins (they may not be exhaustive).
MAX_COUNT_TABLE = {
    1: (2, [3]),
    2: (2, [4, 5]),
    3: (4, [7]),
    4: (4, [9, 11]),
    5: (4, [11, 13, 14, 17, 18, 19]),
    6: (8, [23]),
    7: (12, [41]),
    8: (12, [43]),
    9: (16, [71, 73, 83]),
    10: (24, [113]),
    11: (28, [227]),
    12: (36, [199, 283]),
    13: (48, [449]),
    14: (64, [433]),
    15: (72, [839]),
    16: (102, [1433]),
    17: (124, [1997]),
    18: (160, [1987]),
    19: (212, [3361]),
    20: (256, [5557]),
    21: (332, [8689]),
    22: (444, [8507]),
}

#: Published number of missing lengths for orders 1..20.
MISSING_COUNT_TABLE = (
    0, 0, 1, 2, 5, 11, 18, 29, 51, 74,
    119, 195, 323, 498, 828, 1361, 2289, 3801, 6305, 10560,
)

#: Bounds of a run that is given none, for ``run_checks`` and the CLI.
DEFAULT_MAX_K, DEFAULT_MAX_N = 10, 1024


class CheckResult(NamedTuple):
    name: str
    ok: bool
    detail: str


def _verdict(name: str, detail: str, failures: Iterable[object]) -> CheckResult:
    """PASS when ``failures`` yields no case; otherwise FAIL with the repr
    of the first case added to the detail, reading nothing past it."""
    for case in failures:
        return CheckResult(name, False, f"{detail}; first failure: {case!r}")
    return CheckResult(name, True, detail)


#: The suite in declaration order: ``check(max_k, max_n)`` for each check.
ALL_CHECKS: list[Callable[[int, int], CheckResult]] = []


def _check(name: str, k: int = 0, n: int = 0):
    """Declare the check ``name`` over an anonymous body ``def _``: the
    check's ``__name__`` is the name it prints.  The body receives the
    bounds clamped to ``k`` and ``n`` and returns its detail, then one
    lazy iterable of failing cases per case kind, read in that order up
    to the first failing case.  No kind selects its cases through a route
    that the check compares, or a wrong route could leave it none."""

    def declare(body: Callable[[int, int], tuple]):
        def check(max_k: int, max_n: int) -> CheckResult:
            try:
                detail, *kinds = body(min(max_k, k), min(max_n, n))
                return _verdict(name, detail, itertools.chain(*kinds))
            except Exception as exc:
                return CheckResult(name, False, f"raised {type(exc).__name__}: {exc}")

        check.__name__ = name
        ALL_CHECKS.append(check)
        return check

    return declare


def _words_up_to(k: int) -> Iterator[str]:
    for m in range(k + 1):
        for letters in itertools.product("ab", repeat=m):
            yield "".join(letters)


@_check("stern-prefix-values")
def _(_k: int, _n: int):
    return "first 33 values", (n for n, value in enumerate(STERN_PREFIX) if stern(n) != value)


# the one integer range past 2^14: its clamp sets the suite's ceiling
@_check("stern-evaluator-agreement", n=2**16)
def _(_k: int, limit: int):
    zeta_limit, binomial, short = min(limit, 2048), min(limit, 256), min(limit, 128)
    return (
        f"recurrence = words = subwords on 0..{limit}, = continuant on 2..{zeta_limit},"
        f" = pattern subword counts on 0..{binomial},"
        f" = continuant of zeta and stern_via_zeta on 2..{short}",
        (n for n in range(limit + 1)
         if not stern(n) == stern_via_christoffel(n) == stern_via_subwords(n)),
        (n for n, value in enumerate(zeta_sterns(zeta_limit), start=2) if stern(n) != value),
        # the Calkin-Wilf theorem by its definition: b, bab, babab, ... as
        # subwords of the binary expansion, each pattern counted on its own
        (
            ("subword_binomial", n) for n in range(binomial + 1)
            for w in [decode(n)]
            if sum(subword_binomial(w, "b" + "ab" * i) for i in range((len(w) + 1) // 2))
            != stern(n)
        ),
        # the same continuant over the zeta function, not over its inline values
        (("zeta", n) for n in range(2, short + 1)
         if (-1) ** ((n - 1) // 2) * continuant(map(zeta, range(1, n))) != stern(n)),
        (("stern_via_zeta", n) for n in range(2, short + 1) if stern_via_zeta(n) != stern(n)),
    )


@_check("odd-length-even-period", k=12)
def _(k: int, _n: int):
    short = min(k, 10)
    return (
        f"s at <bwb>, <bwb>+1 for |w| <= {k}, length decompositions for |v| <= {short}",
        (
            w for w in _words_up_to(k)
            for n in [encode("b" + w + "b")]
            if stern(n) != sum(period_pair(w)) or stern(n + 1) != min_period_central(w + "b")
        ),
        (  # s(2n+1) = s(n) + s(n+1) on words: |C(v)| split at either end
            ("decomposition", v) for v in _words_up_to(short) if "a" in v and "b" in v
            if not sum(period_pair(v))
            == sum(period_pair(v[:-1])) + sum(period_pair(plus_prefix(v)))
            == sum(period_pair(v[1:])) + sum(period_pair(plus_suffix(v)))
        ),
    )


@_check("palindromization-composition", k=10)
def _(bound: int, _n: int):
    short = min(bound, 8)
    image = {w: psi(w) for w in _words_up_to(bound)}
    return (
        f"psi(vu) = mu_v(psi(u)) psi(v) for |vu| <= {bound},"
        f" psi(vx) = pal_closure(psi(v) x) for 1 <= |vx| <= {bound},"
        f" min_period(psi(v)) = min_period_central(v) for |v| <= {short}",
        # every (v, u) with |vu| <= bound, split off the words of _words_up_to
        (
            (w[:i], w[i:]) for w in image for i in range(len(w) + 1)
            if image[w] != mu(w[:i], image[w[i:]]) + image[w[:i]]
        ),
        # the definition: each letter x appended, then closed
        (("closure", w) for w in image if w and image[w] != pal_closure(image[w[:-1]] + w[-1])),
        # the border route (KMP) against the period-pair route
        (
            ("period", v) for v in _words_up_to(short)
            if min_period(image[v]) != min_period_central(v)
        ),
    )


@_check("directive-roundtrips", k=12, n=200)
def _(k: int, limit: int):
    short = min(k, 10)
    image = {v: psi(v) for v in _words_up_to(k)}
    # every central word of at most ``short`` letters has a directive as short
    directive = {w: v for v, w in image.items() if len(w) <= short}
    christoffel = {"a", "b"} | {
        christoffel_by_slope(p, m - p).word
        for m in range(2, short + 1) for p in range(1, m) if gcd(p, m - p) == 1
    }
    # standard sequences (c_1 >= 0, c_n >= 1), one coefficient more while the last word fits
    standard, prefixes = set(), [()]
    while prefixes:
        c = prefixes.pop()
        last = standard_by_coefficients(c, len(c) + 2)[-1]
        if len(last) <= short:
            standard.add(last)
            prefixes += [(*c, x) for x in range(1 if c else 0, short + 1)]
    return (
        f"psi and slope inversions, |v| <= {k}, p+q <= {limit},"
        f" central, Christoffel and standard words recognized for |w| <= {short}",
        (("psi", v) for v, w in image.items() if psi_inverse(w) != v),
        (("central", w) for w in _words_up_to(short) if psi_inverse(w) != directive.get(w)),
        (
            ("christoffel", w) for w in _words_up_to(short)
            if (christoffel_of_word(w) is not None) != (w in christoffel)
        ),
        (("standard", w) for w in _words_up_to(short) if is_standard(w) != (w in standard)),
        (
            ("slope", p, q) for p in range(1, limit + 1)
            for q in range(1, limit + 1 - p)
            if gcd(p, q) == 1
            for cw in [christoffel_by_slope(p, q)]
            if cw.slope != (p, q)
            or christoffel_of_word(cw.word) != cw
            or stern_brocot(cw.directive) != cw.slope
        ),
    )


@_check("lyndon-factorization", k=10)
def _(k: int, _n: int):
    short = min(k, 8)

    def fails(v: str) -> bool:
        cw = christoffel_by_slope(*stern_brocot(v))
        w1, w2 = lyndon_factorization(cw)
        n = len(cw.word)
        p, q = cw.slope
        return (
            christoffel_by_directive(v) != cw
            or w1.word + w2.word != cw.word
            or not w1.word < w2.word
            or (len(w1.word) * p) % n != 1
            or (len(w2.word) * q) % n != 1
            or len(w1.word) != period_pair(v)[0]
            or (len(v) <= short and (
                not is_lyndon(cw.word)
                # each factor's slope read off its letters, then its word,
                # slope and directive against the slope route's record
                or any(
                    factor.slope != (factor.word.count("b"), factor.word.count("a"))
                    or factor != christoffel_by_slope(*factor.slope)
                    for factor in (w1, w2)
                )
            ))
        )

    def least_rotation(w: str) -> bool:  # strictly smaller than each proper rotation
        return bool(w) and all(w < w[i:] + w[:i] for i in range(1, len(w)))

    return (
        f"slope route = directive route, split at p_a(v), order, modular inverses for |v| <= {k},"
        f" Lyndon words and factor records for |v| <= {short},"
        f" is_lyndon = least rotation for |w| <= {k}",
        filter(fails, _words_up_to(k)),
        (("is_lyndon", w) for w in _words_up_to(k) if is_lyndon(w) != least_rotation(w)),
    )


@_check("occurrence-markers", k=10)
def _(k: int, _n: int):
    return f"sorted markers spell psi(w)ba for |w| <= {k}", (
        w for w in _words_up_to(k) if marked_occurrences(w)[0] != psi(w) + "ba"
    )


@_check("pattern-subword-counts", k=12)
def _(k: int, _n: int):
    return f"lengths, letter counts and periods for |v| <= {k}", (
        v for v in _words_up_to(k)
        if length_by_subword_count(v) != sum(period_pair(v))
        or initial_subword_count(v) != ("a" + psi(v) + "b").count("a")
        or ("a" in v and "b" in v and period_by_subword_count(v) != min_period_central(v))
    )


@_check("weighted-factor-decomposition", k=12, n=512)
def _(k: int, limit: int):
    short = min(k, 6)
    return (
        f"totals equal lengths for |w| <= {k}, factor counts for |w| <= {short},"
        f" factor-occurrence form of s(n) for n <= {limit}",
        (
            ("factors", w) for w in _words_up_to(k)
            if factor_decomposition(w).total != sum(period_pair(w))
        ),
        # each listed count against a direct count of the factor in b w b
        (
            ("factor_count", w) for w in _words_up_to(short)
            for d in [factor_decomposition(w)]
            if any(factor_count("b" + w + "b", u) != count
                   for u, *_, count in (*d.single_a, *d.multi_a))
        ),
        (("stern", n) for n in range(limit + 1) if not stern_factor_identity(n)),
    )


def _mediant_label(w: str) -> tuple[int, int]:
    """Stern-Brocot label of the node ``w`` as the mediant of its bounds:
    from 0/1 and 1/0, each a lowers the upper bound to the mediant and
    each b raises the lower one.  It shares no code with ``period_pair``."""
    p0, q0, p1, q1 = 0, 1, 1, 0
    for x in w:
        if x == "a":
            p1, q1 = p0 + p1, q0 + q1
        else:
            p0, q0 = p0 + p1, q0 + q1
    return p0 + p1, q0 + q1


@_check("tree-duality", k=12)
def _(k: int, _n: int):
    short = min(k, 10)
    return (
        f"reversal, complement inversion, path inverse for |w| <= {k},"
        f" node labels s(m-1)/s(m) for |w| <= {short}",
        (
            w for w in _words_up_to(k)
            for ra in [raney(w)]
            if stern_brocot(w) != _mediant_label(w)
            or raney(complement(w)) != ra.inverse
            or path_of_fraction(ra, "raney") != w
        ),
        (
            ("tree_node", w) for w in _words_up_to(short)
            for node in [tree_node(w)]
            if node.path != w or node.raney != (stern(node.number - 1), stern(node.number))
        ),
    )


@_check("mirror-formula", k=12)
def _(k: int, _n: int):
    return f"continued fractions match tree labels for |v| <= {k}", (
        v for v in _words_up_to(k) if mirror_formula(v) != (stern_brocot(v), raney(v))
    )


@_check("continuant-length-period", k=14)
def _(k: int, _n: int):
    return f"continuant route for |v| <= {k}", (
        v for v in _words_up_to(k)
        for pair in [period_pair(v)]
        if christoffel_length_cf(v) != (sum(pair), min(pair))
    )


@_check("tree-numbering-stern", n=4096)
def _(_k: int, limit: int):
    return f"ra(n) = s(n-1)/s(n) for n <= {limit}", (
        n for n in range(2, limit + 1) if ra_of(n) != (stern(n - 1), stern(n))
    )


@_check("stern-identities", k=13, n=4096)
def _(top: int, limit: int):
    return (
        f"bit reversal, symmetry, quotient steps for n <= {limit},"
        f" symmetry k <= {min(top, 12)}, zigzag 3 <= k <= {top}",
        (("reversal", n) for n in range(limit + 1) if stern(n) != stern(reverse_bits(n))),
        (
            ("symmetry", k, p) for k in range(min(top, 12) + 1)
            for p in range(1, 2**k + 1)
            if stern(2**k + p) != stern(2 ** (k + 1) - p)
        ),
        (("quotient", n) for n in range(1, limit + 1) if stern(n - 1) // stern(n) != ruler(n)),
        (
            # s(n)/s(n+1) = 1/(2 r(n) + 1 - s(n-1)/s(n)) cross-multiplied, s(n) >= 1
            ("successor", n) for n in range(1, limit + 1)
            for sn in [stern(n)]
            if sn * ((2 * ruler(n) + 1) * sn - stern(n - 1)) != stern(n + 1) * sn
        ),
        (("delta", n) for n in range(2, limit + 1)
         if delta_expansion(n).total != stern(2 * n - 1)),
        (
            ("zigzag", k, p) for k in range(3, top + 1)
            for p in range(2 ** (k - 3))
            if not stern(2**k + 8 * p + 1) < stern(2**k + 8 * p + 3)
            or not stern(2**k + 8 * p + 5) > stern(2**k + 8 * p + 7)
        ),
    )


@_check("integral-continuant-stern", k=12)
def _(k: int, _n: int):
    short = min(k, 10)
    return (
        f"s(nu(w)) continuant for |w| <= {k}, word_of inverts integral_rep for |w| <= {short}",
        (w for w in _words_up_to(k) if stern_via_integral_continuant(w) != stern(nu(w))),
        (("word_of", w) for w in _words_up_to(short) if word_of(integral_rep(w)) != w),
    )


@cache
def _order(k: int) -> LengthHistogram:
    return histogram(k)


@_check("histogram-invariants", k=22)
def _(top: int, _n: int):
    return f"mass 2^k, weighted mass 2*3^k for k <= {top}", (
        k for k in range(top + 1)
        for h in [_order(k)]
        for support in [h.support]
        if h.mass != 2**k or h.weighted_mass != 2 * 3**k
        or support[0] < k + 2 or support[-1] > fib(k + 1)
    )


@_check("published-table-pins", k=22)
def _(top: int, _n: int):
    return (
        f"max counts and missing lengths for k <= {top},"
        f" golden-ratio lower bound for k <= {max(MAX_COUNT_TABLE)}",
        (
            k for k in range(1, top + 1)
            for h, (expected_max, listed) in [(_order(k), MAX_COUNT_TABLE[k])]
            if h.max_count != expected_max
            or not set(listed) <= set(h.argmax)
            or (k <= len(MISSING_COUNT_TABLE) and h.missing_count != MISSING_COUNT_TABLE[k - 1])
        ),
        # the golden-ratio lower bound needs no histogram: every pinned order
        (
            ("lower bound", k) for k, (expected_max, _) in MAX_COUNT_TABLE.items()
            if max_count_lower_bound(k) > expected_max
        ),
    )


@_check("length-bounds", k=22)
def _(top: int, _n: int):
    return f"extremal classes for 3 <= k <= {top}", (
        k for k in range(3, top + 1) if not bound_report_histogram(_order(k)).passed
    )


@_check("totient-identity", k=22, n=300)
def _(top: int, limit: int):
    by_length = {n: counts_for_length(n) for n in range(2, limit + 1)}
    return (
        f"order sums equal phi(n), orders equal histograms for n <= {limit}, k <= {top}",
        (("totient", n) for n, c in by_length.items() if sum(c.values()) != totient(n)),
        (
            ("histogram", n, k) for n, c in by_length.items()
            for k in range(top + 1)
            for tally in [_order(k).tally]
            if c.get(k, 0) != (tally[n] if n < len(tally) else 0)
        ),
    )


@_check("fibonacci-word-prefix")
def _(_k: int, _n: int):
    # psi and psi_prefix share a builder: each meets the morphism a -> ab, b -> a
    image = psi("ab" * 6)
    fibonacci = "a"
    while len(fibonacci) < len(image):
        fibonacci = fibonacci.translate({ord("a"): "ab", ord("b"): "a"})
    fibonacci = fibonacci[: len(image)]
    prefix = psi_prefix("", "ab", len(image))
    return (
        "periodic directive limit",
        (("prefix", i) for i, (x, y) in enumerate(itertools.zip_longest(prefix, fibonacci))
         if x != y),
        (("psi", i) for i, (x, y) in enumerate(itertools.zip_longest(image, fibonacci))
         if x != y),
    )


@_check("alternating-directives", k=16)
def _(top: int, _n: int):
    return f"tree numbers and Fibonacci lengths for k <= {top}", (
        k for k in range(1, top + 1)
        if encode("b" + ("ab" * k)[: k - 1] + "b") != (2 ** (k + 2) + (-1) ** (k + 1)) // 3
        or sum(period_pair(("ab" * k)[:k])) != fib(k + 1)
    )


def run_checks(max_k: int = DEFAULT_MAX_K, max_n: int = DEFAULT_MAX_N) -> list[CheckResult]:
    """Run the whole suite with the given exhaustive bounds."""
    _order.cache_clear()
    return [check(max_k, max_n) for check in ALL_CHECKS]
