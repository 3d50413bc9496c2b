"""Replay of the package's cross-route identities as named checks.

Every check compares two independently computed quantities (or a
computed quantity against a frozen published table) over an exhaustive
range controlled by ``max_k`` (word lengths / orders) and ``max_n``
(integer arguments).  The checks are deliberately redundant with the
unit tests: they are the runnable summary behind the ``verify`` CLI
command.

Each check is declared once, with ``@_check(name, k=..., n=...)``: the
runner clamps the bounds to the declared ``k`` and ``n`` and calls the
body, which returns its detail and lists its failing cases lazily.  One
verdict rule decides every check: it passes when there are no failing
cases, and ends at the first one, which the detail of its FAIL then
names.  An exception in a check fails that check alone, with the
exception in its detail; the other checks still run.

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
from functools import cache, wraps
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
    zeta,
    zeta_sterns,
)
from .trees import nu, path_of_fraction, ra_of, raney, stern_brocot
from .words import complement, encode, integral_rep, is_constant, is_lyndon, min_period, word_of

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
    """Declare the check ``name``: its body receives the bounds clamped to
    ``k`` and ``n`` and returns ``(detail, failures)``."""

    def declare(body: Callable[[int, int], tuple[str, Iterable[object]]]):
        @wraps(body)
        def check(max_k: int, max_n: int) -> CheckResult:
            try:
                return _verdict(name, *body(min(max_k, k), min(max_n, n)))
            except Exception as exc:
                return CheckResult(name, False, f"raised {type(exc).__name__}: {exc}")

        ALL_CHECKS.append(check)
        return check

    return declare


def _words_up_to(k: int) -> Iterator[str]:
    for m in range(k + 1):
        for letters in itertools.product("ab", repeat=m):
            yield "".join(letters)


@_check("stern-prefix-values")
def check_stern_prefix(_k: int, _n: int):
    return "first 33 values", (n for n, value in enumerate(STERN_PREFIX) if stern(n) != value)


# the one integer range past 2^14: its clamp sets the suite's ceiling
@_check("stern-evaluator-agreement", n=2**16)
def check_stern_evaluators(_k: int, limit: int):
    zeta_limit, short = min(limit, 2048), min(limit, 128)
    failures = itertools.chain(
        (n for n in range(limit + 1)
         if not stern(n) == stern_via_christoffel(n) == stern_via_subwords(n)),
        (n for n, value in enumerate(zeta_sterns(zeta_limit), start=2) if stern(n) != value),
        # the same continuant over the zeta function, not over its inline values
        (("zeta", n) for n in range(2, short + 1)
         if (-1) ** ((n - 1) // 2) * continuant(map(zeta, range(1, n))) != stern(n)),
    )
    detail = (
        f"recurrence = words = subwords on 0..{limit}, = continuant on 2..{zeta_limit},"
        f" = continuant of zeta on 2..{short}"
    )
    return detail, failures


@_check("odd-length-even-period", k=12)
def check_odd_even_correspondence(k: int, _n: int):
    failures = (
        w for w in _words_up_to(k)
        if stern(encode("b" + w + "b")) != sum(period_pair(w))
        or stern(encode("b" + w + "b") + 1) != min_period_central(w + "b")
    )
    return f"s at <bwb>, <bwb>+1 for |w| <= {k}", failures


@_check("palindromization-composition", k=10)
def check_palindromization_composition(bound: int, _n: int):
    short = min(bound, 8)
    image = {w: psi(w) for w in _words_up_to(bound)}
    failures = itertools.chain(
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
    detail = (
        f"psi(vu) = mu_v(psi(u)) psi(v) for |vu| <= {bound},"
        f" psi(vx) = pal_closure(psi(v) x) for 1 <= |vx| <= {bound},"
        f" min_period(psi(v)) = min_period_central(v) for |v| <= {short}"
    )
    return detail, failures


@_check("directive-roundtrips", k=12, n=200)
def check_directive_roundtrip(k: int, limit: int):
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
    failures = itertools.chain(
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
    detail = (
        f"psi and slope inversions, |v| <= {k}, p+q <= {limit},"
        f" central, Christoffel and standard words recognized for |w| <= {short}"
    )
    return detail, failures


@_check("lyndon-factorization", k=10)
def check_factorization(k: int, _n: int):
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
            or (len(v) <= short and not is_lyndon(cw.word))
        )

    detail = (
        f"slope route = directive route, split at p_a(v), order, modular inverses for |v| <= {k},"
        f" Lyndon words for |v| <= {short}"
    )
    return detail, filter(fails, _words_up_to(k))


@_check("occurrence-markers", k=10)
def check_occurrence_markers(k: int, _n: int):
    failures = (w for w in _words_up_to(k) if marked_occurrences(w)[0] != psi(w) + "ba")
    return f"sorted markers spell psi(w)ba for |w| <= {k}", failures


@_check("pattern-subword-counts", k=12)
def check_subword_counts(k: int, _n: int):
    failures = (
        v for v in _words_up_to(k)
        if length_by_subword_count(v) != sum(period_pair(v))
        or initial_subword_count(v) != ("a" + psi(v) + "b").count("a")
        or (not is_constant(v) and period_by_subword_count(v) != min_period_central(v))
    )
    return f"lengths, letter counts and periods for |v| <= {k}", failures


@_check("weighted-factor-decomposition", k=12, n=512)
def check_factor_decomposition(k: int, limit: int):
    failures = itertools.chain(
        (
            ("factors", w) for w in _words_up_to(k)
            if factor_decomposition(w).total != sum(period_pair(w))
        ),
        (("stern", n) for n in range(limit + 1) if not stern_factor_identity(n)),
    )
    detail = (
        f"totals equal lengths for |w| <= {k},"
        f" factor-occurrence form of s(n) for n <= {limit}"
    )
    return detail, failures


@_check("tree-duality", k=12)
def check_tree_duality(k: int, _n: int):
    failures = (
        w for w in _words_up_to(k)
        for ra in [raney(w)]
        if stern_brocot(w) != raney(w[::-1])
        or raney(complement(w)) != ra.inverse
        or path_of_fraction(ra, "raney") != w
    )
    return f"reversal, complement inversion, path inverse for |w| <= {k}", failures


@_check("mirror-formula", k=12)
def check_mirror_formula(k: int, _n: int):
    failures = (v for v in _words_up_to(k) if mirror_formula(v) != (stern_brocot(v), raney(v)))
    return f"continued fractions match tree labels for |v| <= {k}", failures


@_check("continuant-length-period", k=14)
def check_continuant_length(k: int, _n: int):
    failures = (
        v for v in _words_up_to(k)
        if christoffel_length_cf(v) != (sum(period_pair(v)), min_period_central(v))
    )
    return f"continuant route for |v| <= {k}", failures


@_check("tree-numbering-stern", n=4096)
def check_ra_numbering(_k: int, limit: int):
    failures = (n for n in range(2, limit + 1) if ra_of(n) != (stern(n - 1), stern(n)))
    return f"ra(n) = s(n-1)/s(n) for n <= {limit}", failures


@_check("stern-identities", k=13, n=4096)
def check_stern_identities(top: int, limit: int):
    failures = itertools.chain(
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
    detail = (
        f"bit reversal, symmetry, quotient steps for n <= {limit},"
        f" symmetry k <= {min(top, 12)}, zigzag 3 <= k <= {top}"
    )
    return detail, failures


@_check("integral-continuant-stern", k=12)
def check_integral_continuant(k: int, _n: int):
    short = min(k, 10)
    failures = itertools.chain(
        (w for w in _words_up_to(k) if stern_via_integral_continuant(w) != stern(nu(w))),
        (("word_of", w) for w in _words_up_to(short) if word_of(integral_rep(w)) != w),
    )
    detail = f"s(nu(w)) continuant for |w| <= {k}, word_of inverts integral_rep for |w| <= {short}"
    return detail, failures


#: Lengths up to which ``totient-identity`` compares each order's counts.
_SHORT_LENGTHS = 300


class _OrderFigures(NamedTuple):
    """The few figures of one order's histogram that the histogram checks
    read; the histogram itself is dropped once they are taken."""

    mass: int
    weighted_mass: int
    shortest: int
    longest: int
    max_count: int
    argmax: frozenset[int]
    missing_count: int
    bounds_passed: bool  # the paper's length bounds; vacuous below order 3
    short_counts: dict[int, int]  # C_k(n) for n <= _SHORT_LENGTHS


@cache
def _order(k: int) -> _OrderFigures:
    h = histogram(k)
    support = h.support
    return _OrderFigures(
        h.mass, h.weighted_mass, support[0], support[-1],
        h.max_count, frozenset(h.argmax), len(h.missing),
        k < 3 or bound_report_histogram(h).passed,
        {n: c for n, c in h.counts.items() if n <= _SHORT_LENGTHS},
    )


@_check("histogram-invariants", k=22)
def check_histograms(top: int, _n: int):
    failures = (
        k for k in range(top + 1)
        for f in [_order(k)]
        if f.mass != 2**k or f.weighted_mass != 2 * 3**k
        or f.shortest < k + 2 or f.longest > fib(k + 1)
    )
    return f"mass 2^k, weighted mass 2*3^k for k <= {top}", failures


@_check("published-table-pins", k=22)
def check_tables(top: int, _n: int):
    failures = itertools.chain(
        (
            k for k in range(1, top + 1)
            for f, (expected_max, listed) in [(_order(k), MAX_COUNT_TABLE[k])]
            if f.max_count != expected_max
            or not set(listed) <= f.argmax
            or (k <= len(MISSING_COUNT_TABLE) and f.missing_count != MISSING_COUNT_TABLE[k - 1])
        ),
        # the golden-ratio lower bound needs no histogram: every pinned order
        (
            ("lower bound", k) for k, (expected_max, _) in MAX_COUNT_TABLE.items()
            if max_count_lower_bound(k) > expected_max
        ),
    )
    detail = (
        f"max counts and missing lengths for k <= {top},"
        f" golden-ratio lower bound for k <= {max(MAX_COUNT_TABLE)}"
    )
    return detail, failures


@_check("length-bounds", k=22)
def check_bounds(top: int, _n: int):
    failures = (k for k in range(3, top + 1) if not _order(k).bounds_passed)
    return f"extremal classes for 3 <= k <= {top}", failures


@_check("totient-identity", k=22, n=_SHORT_LENGTHS)
def check_totient(top: int, limit: int):
    by_length = {n: counts_for_length(n) for n in range(2, limit + 1)}
    failures = itertools.chain(
        (("totient", n) for n, c in by_length.items() if sum(c.values()) != totient(n)),
        (
            ("histogram", n, k) for n, c in by_length.items()
            for k in range(top + 1)
            if c.get(k, 0) != _order(k).short_counts.get(n, 0)
        ),
    )
    detail = f"order sums equal phi(n), orders equal histograms for n <= {limit}, k <= {top}"
    return detail, failures


@_check("fibonacci-word-prefix")
def check_fibonacci_word(_k: int, _n: int):
    target = psi("ab" * 6)
    prefix = psi_prefix("", "ab", len(target))
    failures = itertools.chain(
        (("prefix", i) for i, (x, y) in enumerate(itertools.zip_longest(prefix, target))
         if x != y),
        (("fibonacci", i) for i, x in enumerate("abaababaabaab") if target[i : i + 1] != x),
    )
    return "periodic directive limit", failures


@_check("alternating-directives", k=16)
def check_alternating_numbers(top: int, _n: int):
    failures = (
        k for k in range(1, top + 1)
        if encode("b" + ("ab" * k)[: k - 1] + "b") != (2 ** (k + 2) + (-1) ** (k + 1)) // 3
        or sum(period_pair(("ab" * k)[:k])) != fib(k + 1)
    )
    return f"tree numbers and Fibonacci lengths for k <= {top}", failures


def run_checks(max_k: int = DEFAULT_MAX_K, max_n: int = DEFAULT_MAX_N) -> list[CheckResult]:
    """Run the whole suite with the given exhaustive bounds."""
    _order.cache_clear()
    return [check(max_k, max_n) for check in ALL_CHECKS]
