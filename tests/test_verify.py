import time
from collections import Counter

import pytest

from diatomic import ChristoffelWord, cli, verify
from diatomic.distribution import counts_for_length
from diatomic.fracs import Frac


@pytest.fixture
def fresh_orders():
    """Each order's record built anew, by whatever the test patches."""
    verify._order.cache_clear()
    yield
    verify._order.cache_clear()


def test_histogram_checks_build_each_order_once(monkeypatch, fresh_orders):
    calls = Counter()
    original = verify.histogram

    def counted(k, *args):
        calls[k] += 1
        return original(k, *args)

    monkeypatch.setattr(verify, "histogram", counted)
    assert verify.check_histograms(12, 0).ok
    assert verify.check_tables(12, 0).ok
    assert verify.check_bounds(12, 0).ok
    assert verify.check_totient(12, 300).ok
    assert calls == {k: 1 for k in range(13)}


def test_directive_roundtrip_catches_a_wrong_slope_word(monkeypatch):
    # the word of slope q/p, returned as is and relabelled p/q
    assert verify.check_directive_roundtrip(0, 20).ok
    original = verify.christoffel_by_slope
    for swapped in (
        lambda p, q: original(q, p),
        lambda p, q: original(q, p)._replace(slope=Frac(p, q)),
    ):
        monkeypatch.setattr(verify, "christoffel_by_slope", swapped)
        result = verify.check_directive_roundtrip(0, 20)
        assert not result.ok and result.detail.endswith("; first failure: ('slope', 1, 2)")


def test_directive_roundtrip_catches_a_wrong_word_with_the_right_directive(monkeypatch):
    # two letters of the word swapped, the directive from the descent kept:
    # letters 2 and 3 (first differ at 1/2), or the first and the last
    original = verify.christoffel_by_slope
    for swap, first in (
        (lambda w: w[0] + w[2:3] + w[1:2] + w[3:], "('slope', 1, 2)"),
        (lambda w: w[-1] + w[1:-1] + w[0], "('slope', 1, 1)"),
    ):
        def swapped(p, q, swap=swap):
            cw = original(p, q)
            return cw._replace(word=swap(cw.word))

        monkeypatch.setattr(verify, "christoffel_by_slope", swapped)
        result = verify.check_directive_roundtrip(0, 20)
        assert not result.ok and result.detail.endswith(f"; first failure: {first}")


def test_verdict_reads_only_up_to_the_first_failure():
    def cases():
        yield "abba"
        raise AssertionError("read past the first failure")

    assert verify._verdict("x", "d", cases()) == verify.CheckResult(
        "x", False, "d; first failure: 'abba'"
    )
    assert verify._verdict("x", "d", iter(())) == verify.CheckResult("x", True, "d")


def test_failures_name_their_first_case(monkeypatch, fresh_orders):
    original_subwords = verify.stern_via_subwords
    monkeypatch.setattr(
        verify, "stern_via_subwords", lambda n: original_subwords(n) + (n == 37)
    )
    result = verify.check_stern_evaluators(0, 64)
    assert not result.ok and result.detail.endswith("; first failure: 37")

    original_report = verify.bound_report_histogram
    monkeypatch.setattr(
        verify,
        "bound_report_histogram",
        lambda h: original_report(h)._replace(least_length_ok=h.order != 5),
    )
    result = verify.check_bounds(8, 0)
    assert not result.ok and result.detail.endswith("; first failure: 5")

    monkeypatch.setattr(verify, "ruler", lambda n: 0)
    result = verify.check_stern_identities(4, 64)
    assert not result.ok and result.detail.endswith("; first failure: ('quotient', 2)")


SWAP_LETTERS = str.maketrans("ab", "ba")

#: For each check, or one case of it after the colon: its bounds, the
#: route planted wrong, the one argument it is wrong at, how it is wrong
#: there, and the case the FAIL names.
PLANTED = {
    "stern-prefix-values": (verify.check_stern_prefix, (0, 0), "stern", 20, lambda s: s + 1, "20"),
    # zeta(5) = 1 read as 2: the continuant over zeta(1..5) is s(6) + s(5)
    "stern-evaluator-agreement:zeta": (
        verify.check_stern_evaluators, (0, 64), "zeta", 5, lambda z: z + 1, "('zeta', 6)"),
    "odd-length-even-period": (
        verify.check_odd_even_correspondence, (6, 0), "period_pair", "ab",
        lambda pair: (pair[0] + 1, pair[1]), "'ab'"),
    # psi("a") "b" closed to "bab" instead of "aba"
    "palindromization-composition": (
        verify.check_palindromization_composition, (6, 0), "pal_closure", "ab",
        lambda closed: closed.translate(SWAP_LETTERS), "('closure', 'ab')"),
    # the border route one too long on psi("ab") = "aba"
    "palindromization-composition:period": (
        verify.check_palindromization_composition, (6, 0), "min_period", "aba",
        lambda period: period + 1, "('period', 'ab')"),
    # "ab" is not central, and read back as its own directive
    "directive-roundtrips": (
        verify.check_directive_roundtrip, (6, 0), "psi_inverse", "ab",
        lambda v: "ab", "('central', 'ab')"),
    # the a...b frame test dropped: "bab" read as b . psi("a") . b
    "directive-roundtrips:christoffel": (
        verify.check_directive_roundtrip, (6, 0), "christoffel_of_word", "bab",
        lambda _: ChristoffelWord("bab", Frac(2, 1), "a"), "('christoffel', 'bab')"),
    # "ab" rejected as a standard word
    "directive-roundtrips:standard": (
        verify.check_directive_roundtrip, (6, 0), "is_standard", "ab",
        lambda ok: not ok, "('standard', 'ab')"),
    # the sequence b, a, ab, aba built with its last word bab
    "directive-roundtrips:standard_by_coefficients": (
        verify.check_directive_roundtrip, (6, 0), "standard_by_coefficients", (1, 1),
        lambda seq: [*seq[:-1], seq[-1].translate(SWAP_LETTERS)], "('standard', 'aba')"),
    # the directive route's word of "ab" with its letters swapped
    "lyndon-factorization": (
        verify.check_factorization, (6, 0), "christoffel_by_directive", "ab",
        lambda cw: cw._replace(word=cw.word.translate(SWAP_LETTERS)), "'ab'"),
    # p_a("ab") = 3 read as 4: the word of slope 2/3 splits at 2^-1 mod 5 = 3
    "lyndon-factorization:split": (
        verify.check_factorization, (6, 0), "period_pair", "ab",
        lambda pair: (pair[0] + 1, pair[1]), "'ab'"),
    # the word of directive "a", "aab", not taken for a Lyndon word
    "lyndon-factorization:lyndon": (
        verify.check_factorization, (6, 0), "is_lyndon", "aab", lambda ok: not ok, "'a'"),
    "occurrence-markers": (
        verify.check_occurrence_markers, (6, 0), "marked_occurrences", "abb",
        lambda table: (table[0].translate(SWAP_LETTERS), table[1]), "'abb'"),
    "weighted-factor-decomposition": (
        verify.check_factor_decomposition, (6, 64), "factor_decomposition", "bab",
        lambda d: d._replace(base=d.base + 1), "('factors', 'bab')"),
    "tree-duality": (
        verify.check_tree_duality, (6, 0), "stern_brocot", "ab",
        lambda label: label.inverse, "'ab'"),
    "mirror-formula": (
        verify.check_mirror_formula, (6, 0), "mirror_formula", "ab",
        lambda labels: (labels[0].inverse, labels[1]), "'ab'"),
    "tree-numbering-stern": (
        verify.check_ra_numbering, (0, 64), "ra_of", 37, lambda label: label.inverse, "37"),
    "continuant-length-period": (
        verify.check_continuant_length, (6, 0), "christoffel_length_cf", "abb",
        lambda pair: (pair[0] + 1, pair[1]), "'abb'"),
    # (0, 1, 1, 1, 0) spelled "abab" instead of "aba"
    "integral-continuant-stern:word_of": (
        verify.check_integral_continuant, (6, 0), "word_of", (0, 1, 1, 1, 0),
        lambda w: w + "b", "('word_of', 'aba')"),
    # one word of order 5 counted twice: the mass is 2^5 + 1
    "histogram-invariants": (
        verify.check_histograms, (8, 0), "histogram", 5,
        lambda h: h._replace(counts={**h.counts, 99: 1}), "5"),
    # the count at the published argmax of order 7, 41, one too high
    "published-table-pins": (
        verify.check_tables, (8, 0), "histogram", 7,
        lambda h: h._replace(counts={**h.counts, 41: h.counts[41] + 1}), "7"),
}


@pytest.mark.parametrize("check, bounds, route, at, wrong, first", PLANTED.values(), ids=PLANTED)
def test_a_planted_fault_names_its_case(
    monkeypatch, fresh_orders, check, bounds, route, at, wrong, first
):
    assert check(*bounds).ok
    original = getattr(verify, route)

    def planted(x, *rest):  # wrong at the argument ``at`` alone
        value = original(x, *rest)
        return wrong(value) if x == at else value

    monkeypatch.setattr(verify, route, planted)
    verify._order.cache_clear()  # the clean run above filled it
    result = check(*bounds)
    assert not result.ok and result.detail.endswith(f"; first failure: {first}")


def test_totient_identity(fresh_orders):
    result = verify.check_totient(16, 300)
    assert result == verify.CheckResult(
        "totient-identity", True,
        "order sums equal phi(n), orders equal histograms for n <= 300, k <= 16",
    )


def test_totient_identity_names_its_first_case(monkeypatch, fresh_orders):
    # a wrong totient, then a count moved one order up at one length: the
    # sum still equals phi(n), so only the histogram route catches it
    original_totient = verify.totient
    monkeypatch.setattr(verify, "totient", lambda n: original_totient(n) + (n == 37))
    result = verify.check_totient(12, 64)
    assert not result.ok and result.detail.endswith("; first failure: ('totient', 37)")

    monkeypatch.setattr(verify, "totient", original_totient)
    monkeypatch.setattr(
        verify,
        "counts_for_length",
        lambda n: {k + (n == 40): c for k, c in counts_for_length(n).items()},
    )
    result = verify.check_totient(12, 64)
    first = min(counts_for_length(40))
    assert not result.ok and result.detail.endswith(f"; first failure: ('histogram', 40, {first})")


def test_stern_evaluators_clamp_max_n():
    start = time.perf_counter()
    result = verify.check_stern_evaluators(0, 10**8)
    assert time.perf_counter() - start < 2
    assert result.ok and "on 0..65536," in result.detail


def test_details_name_every_range_they_run():
    assert verify.check_factor_decomposition(12, 512) == verify.CheckResult(
        "weighted-factor-decomposition", True,
        "totals equal lengths for |w| <= 12, factor-occurrence form of s(n) for n <= 512",
    )
    assert verify.check_stern_identities(13, 4096) == verify.CheckResult(
        "stern-identities", True,
        "bit reversal, symmetry, quotient steps for n <= 4096,"
        " symmetry k <= 12, zigzag 3 <= k <= 13",
    )
    assert verify.check_stern_evaluators(0, 100) == verify.CheckResult(
        "stern-evaluator-agreement", True,
        "recurrence = words = subwords on 0..100, = continuant on 2..100,"
        " = continuant of zeta on 2..100",
    )
    assert verify.check_integral_continuant(12, 0) == verify.CheckResult(
        "integral-continuant-stern", True,
        "s(nu(w)) continuant for |w| <= 12, word_of inverts integral_rep for |w| <= 10",
    )


@pytest.mark.parametrize("error", [ValueError("boom"), KeyError("boom")])
def test_a_raising_check_fails_alone(monkeypatch, capsys, error):
    def raising(v):
        raise error

    monkeypatch.setattr(verify, "mirror_formula", raising)
    results = verify.run_checks(4, 64)
    assert [r for r in results if not r.ok] == [
        verify.CheckResult("mirror-formula", False, f"raised {type(error).__name__}: {error}")
    ]
    assert cli.main(["verify", "--max-k", "4", "--max-n", "64"]) == 6
    captured = capsys.readouterr()
    assert captured.out.splitlines()[-1] == "20/21 checks passed"
    assert "Traceback" not in captured.err


def test_fibonacci_word_names_its_first_differing_letter(monkeypatch):
    original = verify.psi_prefix

    def flipped(*args):
        word = original(*args)
        return word[:100] + {"a": "b", "b": "a"}[word[100]] + word[101:]

    monkeypatch.setattr(verify, "psi_prefix", flipped)
    result = verify.check_fibonacci_word(0, 0)
    assert not result.ok
    assert result.detail == "periodic directive limit; first failure: ('prefix', 100)"
