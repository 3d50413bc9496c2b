import json
import time
from collections import Counter
from pathlib import Path

import pytest

from conftest import check
from diatomic import ChristoffelWord, cli, stern, verify, words
from diatomic.distribution import LengthHistogram, bound_report, counts_for_length, histogram
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
    assert check("histogram-invariants")(12, 0).ok
    assert check("published-table-pins")(12, 0).ok
    assert check("length-bounds")(12, 0).ok
    assert check("totient-identity")(12, 300).ok
    assert calls == {k: 1 for k in range(13)}


def test_directive_roundtrip_catches_a_wrong_slope_word(monkeypatch):
    # the word of slope q/p, returned as is and relabelled p/q
    assert check("directive-roundtrips")(0, 20).ok
    original = verify.christoffel_by_slope
    for swapped in (
        lambda p, q: original(q, p),
        lambda p, q: original(q, p)._replace(slope=Frac(p, q)),
    ):
        monkeypatch.setattr(verify, "christoffel_by_slope", swapped)
        result = check("directive-roundtrips")(0, 20)
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
        result = check("directive-roundtrips")(0, 20)
        assert not result.ok and result.detail.endswith(f"; first failure: {first}")


def test_lyndon_factorization_compares_factor_records(monkeypatch):
    # the right factor's slope (p - b)/(q - pa + b) computed as
    # (p - b)/(q - pa - b), b the letters b of the left factor: the word
    # abb of directive b splits as ab . b, and its b gets slope 1/-2
    original = verify.lyndon_factorization

    def mutant(cw):
        left, right = original(cw)
        slope = Frac(right.slope.num, right.slope.den - 2 * left.slope.num)
        return left, right._replace(slope=slope)

    assert check("lyndon-factorization")(6, 0).ok
    monkeypatch.setattr(verify, "lyndon_factorization", mutant)
    result = check("lyndon-factorization")(6, 0)
    assert not result.ok and result.detail.endswith("; first failure: 'b'")


def test_lyndon_factorization_checks_that_is_lyndon_rejects(monkeypatch):
    # accepting every word fails at the empty word, accepting every
    # non-empty word at aa, the first that equals one of its rotations
    for accepts, first in ((lambda w: True, "('is_lyndon', '')"), (bool, "('is_lyndon', 'aa')")):
        monkeypatch.setattr(verify, "is_lyndon", accepts)
        result = check("lyndon-factorization")(6, 0)
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
    result = check("stern-evaluator-agreement")(0, 64)
    assert not result.ok and result.detail.endswith("; first failure: 37")

    original_report = verify.bound_report_histogram
    monkeypatch.setattr(
        verify,
        "bound_report_histogram",
        lambda h: original_report(h)._replace(least_length_ok=h.order != 5),
    )
    result = check("length-bounds")(8, 0)
    assert not result.ok and result.detail.endswith("; first failure: 5")

    monkeypatch.setattr(verify, "ruler", lambda n: 0)
    result = check("stern-identities")(4, 64)
    assert not result.ok and result.detail.endswith("; first failure: ('quotient', 2)")


SWAP_LETTERS = str.maketrans("ab", "ba")

#: For each check by its name, or one case of it after the colon: its
#: bounds, the route planted wrong, the one argument it is wrong at, how
#: it is wrong there, and the case the FAIL names.
PLANTED = {
    "stern-prefix-values": ((0, 0), "stern", 20, lambda s: s + 1, "20"),
    # zeta(5) = 1 read as 2: the continuant over zeta(1..5) is s(6) + s(5)
    "stern-evaluator-agreement:zeta": ((0, 64), "zeta", 5, lambda z: z + 1, "('zeta', 6)"),
    "odd-length-even-period": (
        (6, 0), "period_pair", "ab", lambda pair: (pair[0] + 1, pair[1]), "'ab'"),
    # psi("a") "b" closed to "bab" instead of "aba"
    "palindromization-composition": (
        (6, 0), "pal_closure", "ab",
        lambda closed: closed.translate(SWAP_LETTERS), "('closure', 'ab')"),
    # the border route one too long on psi("ab") = "aba"
    "palindromization-composition:period": (
        (6, 0), "min_period", "aba", lambda period: period + 1, "('period', 'ab')"),
    # "ab" is not central, and read back as its own directive
    "directive-roundtrips": ((6, 0), "psi_inverse", "ab", lambda v: "ab", "('central', 'ab')"),
    # the a...b frame test dropped: "bab" read as b . psi("a") . b
    "directive-roundtrips:christoffel": (
        (6, 0), "christoffel_of_word", "bab",
        lambda _: ChristoffelWord("bab", Frac(2, 1), "a"), "('christoffel', 'bab')"),
    # "ab" rejected as a standard word
    "directive-roundtrips:standard": (
        (6, 0), "is_standard", "ab", lambda ok: not ok, "('standard', 'ab')"),
    # the sequence b, a, ab, aba built with its last word bab
    "directive-roundtrips:standard_by_coefficients": (
        (6, 0), "standard_by_coefficients", (1, 1),
        lambda seq: [*seq[:-1], seq[-1].translate(SWAP_LETTERS)], "('standard', 'aba')"),
    # the directive route's word of "ab" with its letters swapped
    "lyndon-factorization": (
        (6, 0), "christoffel_by_directive", "ab",
        lambda cw: cw._replace(word=cw.word.translate(SWAP_LETTERS)), "'ab'"),
    # p_a("ab") = 3 read as 4: the word of slope 2/3 splits at 2^-1 mod 5 = 3
    "lyndon-factorization:split": (
        (6, 0), "period_pair", "ab", lambda pair: (pair[0] + 1, pair[1]), "'ab'"),
    # the word of directive "a", "aab", not taken for a Lyndon word
    "lyndon-factorization:lyndon": ((6, 0), "is_lyndon", "aab", lambda ok: not ok, "'a'"),
    "occurrence-markers": (
        (6, 0), "marked_occurrences", "abb",
        lambda table: (table[0].translate(SWAP_LETTERS), table[1]), "'abb'"),
    "weighted-factor-decomposition": (
        (6, 64), "factor_decomposition", "bab",
        lambda d: d._replace(base=d.base + 1), "('factors', 'bab')"),
    "tree-duality": ((6, 0), "stern_brocot", "ab", lambda label: label.inverse, "'ab'"),
    "mirror-formula": (
        (6, 0), "mirror_formula", "ab", lambda labels: (labels[0].inverse, labels[1]), "'ab'"),
    "tree-numbering-stern": ((0, 64), "ra_of", 37, lambda label: label.inverse, "37"),
    "continuant-length-period": (
        (6, 0), "christoffel_length_cf", "abb", lambda pair: (pair[0] + 1, pair[1]), "'abb'"),
    # (0, 1, 1, 1, 0) spelled "abab" instead of "aba"
    "integral-continuant-stern:word_of": (
        (6, 0), "word_of", (0, 1, 1, 1, 0), lambda w: w + "b", "('word_of', 'aba')"),
    # one word of order 5 counted again, one past F(6): the mass is 2^5 + 1
    "histogram-invariants": (
        (8, 0), "histogram", 5, lambda h: h._replace(tally=h.tally + [1]), "5"),
    # the count at the published argmax of order 7, 41, one too high
    "published-table-pins": (
        (8, 0), "histogram", 7,
        lambda h: h._replace(tally=[c + (n == 41) for n, c in enumerate(h.tally)]), "7"),
    # +(ab) read as a, not the empty word: |C(b)| + |C(a)| = 6, but |C(ab)| = 5
    "odd-length-even-period:decomposition": (
        (6, 0), "plus_suffix", "ab", lambda suffix: suffix + "a", "('decomposition', 'ab')"),
    # b and bab each counted once too often in bab, the binary expansion of 5
    "stern-evaluator-agreement:subword_binomial": (
        (0, 64), "subword_binomial", "bab", lambda count: count + 1, "('subword_binomial', 5)"),
    "stern-evaluator-agreement:stern_via_zeta": (
        (0, 64), "stern_via_zeta", 37, lambda s: s + 1, "('stern_via_zeta', 37)"),
    # bab counted twice in bab = b a b, the host of the directive a
    "weighted-factor-decomposition:factor_count": (
        (6, 64), "factor_count", "bab", lambda count: count + 1, "('factor_count', 'a')"),
    # the node ab labelled with the inverse of its Raney label
    "tree-duality:tree_node": (
        (6, 0), "tree_node", "ab",
        lambda node: node._replace(raney=node.raney.inverse), "('tree_node', 'ab')"),
    "pattern-subword-counts": (
        (6, 0), "length_by_subword_count", "ab", lambda length: length + 1, "'ab'"),
    "pattern-subword-counts:period": (
        (6, 0), "period_by_subword_count", "ab", lambda period: period + 1, "'ab'"),
    # F(4) = 8 read as 9: the alternating directive aba has |C(aba)| = 8
    "alternating-directives": ((6, 0), "fib", 4, lambda f: f + 1, "3"),
    "integral-continuant-stern": (
        (6, 0), "stern_via_integral_continuant", "ab", lambda s: s + 1, "'ab'"),
    # order 5 reported with its least-length predicate false
    "length-bounds": (
        (8, 0), "bound_report_histogram", histogram(5),
        lambda report: report._replace(least_length_ok=False), "5"),
    # r(2) = 1 read as 0: s(1) // s(2) = 1
    "stern-identities": ((4, 64), "ruler", 2, lambda r: 0, "('quotient', 2)"),
    "totient-identity": ((12, 64), "totient", 37, lambda phi: phi + 1, "('totient', 37)"),
    "fibonacci-word-prefix": (
        (0, 0), "psi_prefix", "",
        lambda w: w[:100] + w[100].translate(SWAP_LETTERS) + w[101:], "('prefix', 100)"),
    "fibonacci-word-prefix:psi": (
        (0, 0), "psi", "ab" * 6,
        lambda w: w[:100] + w[100].translate(SWAP_LETTERS) + w[101:], "('psi', 100)"),
}


@pytest.mark.parametrize("key", PLANTED)
def test_a_planted_fault_names_its_case(monkeypatch, fresh_orders, key):
    bounds, route, at, wrong, first = PLANTED[key]
    run = check(key.partition(":")[0])
    assert run(*bounds).ok
    original = getattr(verify, route)

    def planted(x, *rest):  # wrong at the argument ``at`` alone
        value = original(x, *rest)
        return wrong(value) if x == at else value

    monkeypatch.setattr(verify, route, planted)
    verify._order.cache_clear()  # the clean run above filled it
    result = run(*bounds)
    assert not result.ok and result.detail.endswith(f"; first failure: {first}")


@pytest.mark.parametrize("j", range(7))
def test_the_short_zeta_range_reaches_every_block_level(monkeypatch, j):
    # zeta(2^j) off by one inside stern_via_zeta's dyadic blocks; the
    # range 2..128 reads every level below 2^7, first at n = 2^j + 1
    z = stern.zeta(2**j)
    original = stern._product

    def planted(x, y):
        return original(x, (z + 1, 1, 1, 0) if y == (z, 1, 1, 0) else y)

    monkeypatch.setattr(stern, "_product", planted)
    result = check("stern-evaluator-agreement")(0, 128)
    assert not result.ok
    assert result.detail.endswith(f"; first failure: ('stern_via_zeta', {2**j + 1})")


@pytest.mark.parametrize("byte, first", [(0, 256), (1, 1), (37, 37), (255, 255)])
def test_a_wrong_byte_step_names_the_first_n_that_reads_it(monkeypatch, byte, first):
    # one entry of stern's byte table moves u by one more v: s(n) is wrong
    # at the least n whose bytes hold that byte, where u or v is nonzero.
    # A leading byte is never 0, so 256 = 0x0100 reads entry 0 first
    steps = list(stern._BYTE_STEPS)
    a, b, c, d = steps[byte]
    steps[byte] = (a, b + 1, c, d)
    monkeypatch.setattr(stern, "_BYTE_STEPS", tuple(steps))
    result = check("stern-evaluator-agreement")(0, 4096)
    assert not result.ok and result.detail.endswith(f"; first failure: {first}")


def test_each_check_has_one_name_the_one_it_prints():
    names = [c.__name__ for c in verify.ALL_CHECKS]
    assert names == [r.name for r in verify.run_checks(0, 0)]
    assert [attr for attr in dir(verify) if attr.startswith("check_")] == []
    # the bench names each check's span "verify." + __name__
    bench = json.loads((Path(__file__).parents[1] / "BENCHMARK.json").read_text())
    layers = [m["name"] for m in bench["per_layer"] if m["name"].startswith("verify.")]
    assert [f"verify.{name}.s" for name in names] == layers


def test_every_check_has_a_planted_fault():
    planted = {key.partition(":")[0] for key in PLANTED}
    assert planted == {c.__name__ for c in verify.ALL_CHECKS}


def test_no_case_kind_selects_its_cases_through_is_constant(monkeypatch):
    # a constant-word test that holds for every word must not leave the
    # decomposition kind and the period comparison without a case
    monkeypatch.setattr(words, "is_constant", lambda w: True)
    monkeypatch.setattr(verify, "is_constant", lambda w: True, raising=False)
    failed = {r.name for r in verify.run_checks(6, 64) if not r.ok}
    assert {"odd-length-even-period", "pattern-subword-counts"} <= failed


def test_histogram_checks_count_missing_lengths_without_listing_them(monkeypatch, fresh_orders):
    def unlisted(h):
        raise AssertionError("the missing lengths were listed")

    monkeypatch.setattr(LengthHistogram, "missing", property(unlisted))
    assert check("published-table-pins")(12, 0).ok
    assert check("length-bounds")(12, 0).ok
    assert bound_report(8).passed


def test_totient_identity(fresh_orders):
    result = check("totient-identity")(16, 300)
    assert result == verify.CheckResult(
        "totient-identity", True,
        "order sums equal phi(n), orders equal histograms for n <= 300, k <= 16",
    )


def test_totient_identity_names_its_first_case(monkeypatch, fresh_orders):
    # a wrong totient, then a count moved one order up at one length: the
    # sum still equals phi(n), so only the histogram route catches it
    original_totient = verify.totient
    monkeypatch.setattr(verify, "totient", lambda n: original_totient(n) + (n == 37))
    result = check("totient-identity")(12, 64)
    assert not result.ok and result.detail.endswith("; first failure: ('totient', 37)")

    monkeypatch.setattr(verify, "totient", original_totient)
    monkeypatch.setattr(
        verify,
        "counts_for_length",
        lambda n: {k + (n == 40): c for k, c in counts_for_length(n).items()},
    )
    result = check("totient-identity")(12, 64)
    first = min(counts_for_length(40))
    assert not result.ok and result.detail.endswith(f"; first failure: ('histogram', 40, {first})")


def test_stern_evaluators_clamp_max_n():
    start = time.perf_counter()
    result = check("stern-evaluator-agreement")(0, 10**8)
    assert time.perf_counter() - start < 2
    assert result.ok and "on 0..65536," in result.detail


def test_details_name_every_range_they_run():
    assert check("weighted-factor-decomposition")(12, 512) == verify.CheckResult(
        "weighted-factor-decomposition", True,
        "totals equal lengths for |w| <= 12, factor counts for |w| <= 6,"
        " factor-occurrence form of s(n) for n <= 512",
    )
    assert check("stern-identities")(13, 4096) == verify.CheckResult(
        "stern-identities", True,
        "bit reversal, symmetry, quotient steps for n <= 4096,"
        " symmetry k <= 12, zigzag 3 <= k <= 13",
    )
    assert check("stern-evaluator-agreement")(0, 100) == verify.CheckResult(
        "stern-evaluator-agreement", True,
        "recurrence = words = subwords on 0..100, = continuant on 2..100,"
        " = pattern subword counts on 0..100, = continuant of zeta and stern_via_zeta on 2..100",
    )
    assert check("integral-continuant-stern")(12, 0) == verify.CheckResult(
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
    result = check("fibonacci-word-prefix")(0, 0)
    assert not result.ok
    assert result.detail == "periodic directive limit; first failure: ('prefix', 100)"
