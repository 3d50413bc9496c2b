import itertools
import random
import time
import tracemalloc

import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import coprime_from, letterwise_christoffel, words_up_to
from diatomic import palindromes
from diatomic.palindromes import (
    PSI_LENGTH_BUDGET,
    mu,
    min_period_central,
    pal_closure,
    period_pair,
    psi,
    psi_inverse,
    psi_prefix,
)
from diatomic.words import BudgetError, complement, min_period

words = st.text(alphabet="ab", max_size=12)


def brute_closure(w):
    """Shortest palindrome with prefix w, by trying candidate lengths."""
    for k in range(len(w) + 1):
        cand = w + w[:k][::-1]
        if cand == cand[::-1]:
            return cand
    raise AssertionError


def longest_palindromic_suffix(w):
    """Letter by letter from both ends of each suffix, stopping at the
    first mismatch: quadratic at worst, about linear on random words."""
    n = len(w)
    for i in range(n):
        j, k = i, n - 1
        while j < k and w[j] == w[k]:
            j, k = j + 1, k - 1
        if j >= k:
            return n - i
    return 0


def growing_psi_inverse(w):
    """Directive read letter by letter while the image grows: each letter
    of w right after the image so far is the next directive letter, and
    w is central exactly when the finished image equals w.  Central
    words are words over a and b."""
    if set(w) - {"a", "b"}:
        return None
    image, pa, pb, directive = "", 1, 1, []
    while len(image) < len(w):
        x = w[len(image)]
        directive.append(x)
        p = pa if x == "a" else pb
        image = image + x + image if p == len(image) + 1 else image + image[len(image) - p :]
        if x == "a":
            pb += pa
        else:
            pa += pb
    return "".join(directive) if image == w else None


def naive_psi(v, closure=brute_closure):
    w = ""
    for x in v:
        w = closure(w + x)
    return w


def test_pal_closure_examples():
    assert pal_closure("abaa") == "abaaba"
    assert pal_closure("ab") == "aba"
    assert pal_closure("") == ""
    for p in ("a", "aba", "abba", "ababa"):
        assert pal_closure(p) == p


@given(words)
def test_pal_closure_brute(w):
    closed = pal_closure(w)
    assert closed == brute_closure(w)
    assert closed == closed[::-1]
    assert closed.startswith(w)


def test_pal_closure_all_short_words():
    for w in words_up_to(12):
        assert pal_closure(w) == brute_closure(w)


#: The closure's other routes: a two-letter seed, which fails often; the
#: same seed with a budget of two, which hands over to the
#: Knuth-Morris-Pratt loop part way; and a budget of none, which takes
#: that loop every time.
CLOSURE_ROUTES = {
    "short-seed": {"_SEED": 2},
    "fallback": {"_SEED": 2, "_CANDIDATES": 2},
    "kmp": {"_CANDIDATES": 0},
}


@pytest.mark.parametrize("constants", CLOSURE_ROUTES.values(), ids=CLOSURE_ROUTES)
def test_pal_closure_routes_on_short_words(monkeypatch, constants):
    for name, value in constants.items():
        monkeypatch.setattr(palindromes, name, value)
    for w in words_up_to(12):
        assert pal_closure(w) == brute_closure(w)


@given(st.text(alphabet="ab#é€", max_size=64))
def test_pal_closure_any_letters(w):
    # any letters, ASCII or not, on the search and on the KMP route
    closed = brute_closure(w)
    assert pal_closure(w) == closed
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(palindromes, "_CANDIDATES", 0)
        assert pal_closure(w) == closed


def test_pal_closure_long_inputs():
    # words of 10^5 and 10^6 letters: a seeded random word closes by string
    # search; a^k b a^(k+1) has too many false starts and takes the
    # Knuth-Morris-Pratt loop
    cases = []
    for k, seed in ((50_000, 5), (500_000, 19)):
        rng = random.Random(seed)
        random_word = "".join(rng.choice("ab") for _ in range(2 * k))
        cut = len(random_word) - longest_palindromic_suffix(random_word)
        cases += [
            ("a" * k + "b" + "a" * (k + 1), "a" * k + "b" + "a" * (k + 1) + "b" + "a" * k),
            ("ab" * k + "b", "ab" * k + "b" + "a" + "ba" * (k - 1)),
            (random_word, random_word + random_word[:cut][::-1]),
        ]
    for w, closed in cases:
        start = time.perf_counter()
        assert pal_closure(w) == closed
        assert time.perf_counter() - start < 1.0


def test_psi_examples():
    assert psi("aba") == "abaaba"
    assert psi("abaa") == "abaabaaba"
    assert psi("abbaa") == "ababaababaababa"
    assert psi("") == ""


def test_psi_matches_naive_closure_iteration(small_words):
    for v in small_words:
        if len(v) <= 8:
            assert psi(v) == naive_psi(v)


@given(words)
def test_psi_is_palindrome(v):
    w = psi(v)
    assert w == w[::-1]


def test_psi_budget(monkeypatch):
    monkeypatch.setattr(palindromes, "PSI_LENGTH_BUDGET", 10**6)
    with pytest.raises(BudgetError):
        psi("ab" * 40)
    # moderate directives fit the budget
    assert len(psi("ab" * 12)) == len(naive_psi("ab" * 12, pal_closure))


def test_period_pair_capped_stops_at_the_first_doubled_prefix_past_the_cap():
    rng = random.Random(5)
    random_words = ["".join(rng.choices("ab", k=rng.randrange(300))) for _ in range(200)]
    for v in [*words_up_to(8), *random_words, "a" * 500, "ab" * 200]:
        for cap in (2, 13, 10**6, 10**40):
            pair = palindromes._period_pair_capped(v, cap)
            if sum(period_pair(v)) <= cap:
                assert pair == period_pair(v)
            else:
                # the least prefix of 64 * 2^j letters whose sum passes the cap
                n = next(64 << j for j in itertools.count()
                         if sum(period_pair(v[: 64 << j])) > cap)
                assert pair == period_pair(v[:n])


@pytest.mark.parametrize("build", [psi, palindromes.framed_psi], ids=["psi", "framed_psi"])
def test_psi_refuses_a_long_directive_after_a_prefix(build):
    # 200,000 letters of alternation pass the budget within about 45 of
    # them, so the refusal does not read the rest
    start = time.perf_counter()
    with pytest.raises(BudgetError) as refused:
        build("ab" * 100_000)
    assert time.perf_counter() - start < 0.1
    assert str(refused.value) == (
        f"palindromization image exceeds the budget of {PSI_LENGTH_BUDGET} letters")


def test_psi_refuses_a_long_single_run_after_a_prefix():
    # 100,000 a's and then b's: the image passes the budget within the
    # first 11,000 or so b's, read through a few doubled prefixes
    start = time.perf_counter()
    with pytest.raises(BudgetError) as refused:
        psi("a" * 100_000 + "b" * 11_000)
    assert time.perf_counter() - start < 0.1
    assert str(refused.value) == (
        f"palindromization image exceeds the budget of {PSI_LENGTH_BUDGET} letters")


def test_psi_budget_has_one_handle(monkeypatch):
    # a package-level copy would be a value no guard reads
    import diatomic

    assert not hasattr(diatomic, "PSI_LENGTH_BUDGET")
    monkeypatch.setattr(diatomic.palindromes, "PSI_LENGTH_BUDGET", 10)
    with pytest.raises(BudgetError):
        diatomic.psi("ab" * 5)
    with pytest.raises(BudgetError):
        diatomic.christoffel_by_slope(1, 13)


def test_psi_prefix_budget():
    # refused before a letter is grown, so the call returns at once
    start = time.perf_counter()
    with pytest.raises(BudgetError):
        psi_prefix("", "ab", PSI_LENGTH_BUDGET + 1)
    assert time.perf_counter() - start < 1.0


def test_psi_prefix_fibonacci():
    assert psi_prefix("", "ab", 13) == "abaababaabaab"
    assert psi_prefix("", "a", 5) == "aaaaa"
    target = psi("ababab")
    assert psi_prefix("", "ab", len(target)) == target
    assert psi_prefix("", "ab", 0) == ""
    assert psi_prefix("ba", "ab", 7) == psi("baabab")[:7]
    # preperiods longer than n, and lengths between consecutive images
    for pre, per in (("abbab", "ab"), ("bbbbbbbb", "a"), ("aab", "bba")):
        full = psi(pre + per * 6)
        for n in range(len(full) // 2):
            assert psi_prefix(pre, per, n) == full[:n]


def test_psi_prefix_errors():
    with pytest.raises(ValueError):
        psi_prefix("", "ab", -1)
    with pytest.raises(ValueError):
        psi_prefix("a", "", 5)


@pytest.mark.parametrize("w", ["ac", "€", "a b", pytest.param("ab" * 10**6 + "c", id="long")])
def test_image_builders_reject_other_letters(monkeypatch, w):
    # checked before the budget: a word that would also be over budget
    # is refused for its letters, by naming the first other one, not w
    monkeypatch.setattr(palindromes, "PSI_LENGTH_BUDGET", 1)
    calls = [
        lambda: psi(w),
        lambda: palindromes.framed_psi(w),
        lambda: psi_prefix(w, "ab", 5),
        lambda: psi_prefix("ab", w, 5),
    ]
    for call in calls:
        with pytest.raises(ValueError, match="not a word over") as info:
            call()
        assert len(str(info.value)) < 200


def test_psi_inverse_examples():
    assert psi_inverse("abaaba") == "aba"
    assert psi_inverse("") == ""
    assert psi_inverse("ab") is None
    assert psi_inverse("ba") is None
    assert psi_inverse("abba") is None  # palindrome but not central


def test_psi_inverse_all_short_words():
    # exactly the images of psi are central; every other word is rejected
    directive_of = {psi(v): v for v in words_up_to(12)}
    for w in words_up_to(12):
        assert psi_inverse(w) == directive_of.get(w)


def test_psi_inverse_rejects_an_image_that_overshoots():
    # reading "aab" gives a, a, then b with period 3: the image aabaa
    # runs two letters past the word
    assert psi_inverse("aab") is None
    central = {psi(v): v for v in words_up_to(12)}
    for v in words_up_to(8):
        w = psi(v)
        for cut in range(1, len(w)):
            assert psi_inverse(w[:-cut]) == central.get(w[:-cut])


def test_psi_inverse_catches_a_mismatch_in_the_last_period():
    # |psi(v)| >= |v|, so this holds every central word of up to 12 letters
    central = {psi(v): v for v in words_up_to(12)}
    for w in [w for w in central if len(w) <= 12]:
        p = min_period(w) if w else 0
        for i in range(len(w) - p, len(w)):
            flipped = w[:i] + complement(w[i]) + w[i + 1 :]
            assert psi_inverse(flipped) == central.get(flipped)


@pytest.mark.parametrize("w", ["c", "ac", "aca", "cac", "abc", "abcaba", "€", "a€a", "aba\n"])
def test_psi_inverse_rejects_other_letters(w):
    assert psi_inverse(w) is None


def test_psi_inverse_long_runs():
    # one directive letter per image letter: read run by run, not letter by letter
    assert psi_inverse("a" * 10**6) == "a" * 10**6
    assert psi_inverse("b" * 10**6 + "c") is None
    v = "b" + "a" * 3000 + "b" * 2 + "a"
    assert psi_inverse(psi(v)) == v


@given(st.text(alphabet="ab", max_size=24), st.integers(0, 10**6), st.sampled_from("abc"))
def test_psi_inverse_matches_growing_reader_near_central_words(v, at, letter):
    w = psi(v)
    for candidate in (w, w[: at % (len(w) + 1)], w + letter, w[: at % (len(w) + 1)] + letter):
        assert psi_inverse(candidate) == growing_psi_inverse(candidate)
    if w:
        i = at % len(w)
        flipped = w[:i] + letter + w[i + 1 :]
        assert psi_inverse(flipped) == growing_psi_inverse(flipped)


def directive_by_subtraction(p, q):
    """The directive of slope p/q, one letter per subtraction of Euclid's
    algorithm: a while p < q, b while p > q."""
    letters = []
    while p != q:
        if p < q:
            q -= p
            letters.append("a")
        else:
            p -= q
            letters.append("b")
    return "".join(letters)


@pytest.mark.parametrize("n", [palindromes._BLOCK - 1, palindromes._BLOCK, palindromes._BLOCK + 1])
def test_image_paths_on_each_side_of_the_block(n):
    # images of up to _BLOCK letters are built on str and read one slice
    # per run, longer ones joined from pieces and read in growing slices;
    # a golden slope, and a near-even one whose directive has a run of
    # thousands
    for p in (coprime_from(n * 382 // 1000, n + 2), coprime_from(n // 2 - 7, n + 2)):
        framed = letterwise_christoffel(p, n + 2 - p)
        v = directive_by_subtraction(p, n + 2 - p)
        w = framed[1:-1]
        assert len(w) == n
        assert psi(v) == w and palindromes.framed_psi(v) == framed
        assert psi_prefix(v, "ab", n) == w
        assert psi_inverse(w) == v
        i = len(w) // 2 + 3
        assert psi_inverse(w[:i] + complement(w[i]) + w[i + 1 :]) is None
        assert psi_inverse(w[:i] + "c" + w[i + 1 :]) is None


def test_image_paths_agree_below_the_block(monkeypatch):
    # with the threshold lowered, short images are joined from pieces too,
    # psi_prefix of v[:3] . v[3:] . v[3:] ... ending where psi(v) does
    directives = list(words_up_to(12))
    images = [psi(v) for v in directives]
    framed = [palindromes.framed_psi(v) for v in directives]
    monkeypatch.setattr(palindromes, "_BLOCK", 8)
    assert [psi(v) for v in directives] == images
    assert [palindromes.framed_psi(v) for v in directives] == framed
    assert [psi_prefix(v[:3], v[3:] or "b", len(w)) for v, w in zip(directives, images)] == images
    assert [psi_inverse(w) for w in images] == directives


def slope_of(v):
    """The slope p/q of the Christoffel word a psi(v) b, by running
    directive_by_subtraction backwards from 1/1."""
    p = q = 1
    for x in reversed(v):
        if x == "a":
            q += p
        else:
            p += q
    return p, q


BLOCK = palindromes._BLOCK
LONG_DIRECTIVES = [
    "a" * (3 * BLOCK),  # one run of either letter
    "b" * (3 * BLOCK),
    # a last run whose period is just under and just over _BLOCK letters
    "a" * (BLOCK - 2) + "bbb",
    "a" * BLOCK + "bbb",
    "b" * (BLOCK - 2) + "aaa",
    "b" * BLOCK + "aaa",
    "ab" * 13,  # alternation, 514,227 letters
    "ba" * 12,
    "aab" + "ab" * 7 + "b" * 40,  # alternation between long runs
    "b" * 500 + "ab" * 2 + "a" * 30,
]


@pytest.mark.parametrize("v", LONG_DIRECTIVES, ids=lambda v: f"{v[:8]}..{v[-4:]}:{len(v)}")
def test_long_images_match_the_letterwise_christoffel_word(v):
    # past _BLOCK letters images are joined from the pieces of their
    # periods; the oracle reads the Christoffel word off i * p mod (p + q)
    framed = letterwise_christoffel(*slope_of(v))
    w = framed[1:-1]
    assert len(w) > BLOCK
    assert psi(v) == w and palindromes.framed_psi(v) == framed
    assert psi_inverse(w) == v
    # prefixes of psi(v v[k:] v[k:] ...), ending inside the last period,
    # on the image's last letter, and just past _BLOCK letters
    k = len(v) // 2
    for n in (len(w), len(w) - 1, len(w) // 2 + 7, BLOCK + 1):
        assert psi_prefix(v[:k], v[k:], n) == w[:n]


def test_long_images_stay_near_one_copy():
    # the joined image is the only allocation of its size; a second copy,
    # such as a buffer decoded into the str, would read 2.0 N
    cases = [
        (lambda: psi("ab" * 14), 1_346_267),
        (lambda: palindromes.framed_psi("ab" * 14), 1_346_269),
        (lambda: psi_prefix("", "ab", 2**20), 2**20),
    ]
    for build, n in cases:
        tracemalloc.start()
        try:
            assert len(build()) == n
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * n


def test_psi_inverse_rejects_on_the_long_word_path(monkeypatch):
    # past a lowered _BLOCK, the words of test_psi_inverse_all_short_words
    # and of test_psi_inverse_rejects_other_letters take the long-word path
    monkeypatch.setattr(palindromes, "_BLOCK", 1)
    central = {psi(v): v for v in words_up_to(12)}
    for w in words_up_to(12):
        assert psi_inverse(w) == central.get(w)
    for w in ["c", "ac", "aca", "cac", "abc", "abcaba", "€", "a€a", "aba\n", "a" * 20 + "c"]:
        assert psi_inverse(w) is None


def complement_mu(v, w):
    """mu_v(w) by its definition: each letter x of v, last first, sends
    its complement y to x y."""
    for x in reversed(v):
        y = complement(x)
        w = w.replace(y, x + y)
    return w


def test_mu_matches_the_complement_form():
    short = list(words_up_to(6))
    for v in short:
        for w in short:
            assert mu(v, w) == complement_mu(v, w)
    # a letter other than a and b is its own complement
    for v, w in [("c", "abc"), ("acb", "cabc"), ("a", "c"), ("cab", "bca"), ("€", "a€b")]:
        assert mu(v, w) == complement_mu(v, w)


def test_psi_inverse_roundtrip():
    for v in words_up_to(14):
        assert psi_inverse(psi(v)) == v


def test_mu_examples():
    assert mu("a", "b") == "ab"
    assert mu("", "abba") == "abba"
    assert mu("aba", "ab") == psi("aba") + "ab"


def test_mu_standard_image(small_words):
    for v in small_words:
        assert mu(v, "ab") == psi(v) + "ab"
        assert mu(v, "ba") == psi(v) + "ba"


def test_mu_composes():
    assert mu("ab", "a") == mu("a", mu("b", "a"))
    assert mu("ba", "ab") == mu("b", mu("a", "ab"))


def test_period_pair_examples():
    assert period_pair("abaa") == (3, 8)
    assert period_pair("") == (1, 1)
    assert period_pair("aaba") == (4, 7)
    assert period_pair("aba") == (3, 5)


def test_period_pair_is_morphism_lengths(small_words):
    from math import gcd

    for v in small_words:
        pa, pb = period_pair(v)
        assert (pa, pb) == (len(mu(v, "a")), len(mu(v, "b")))
        assert gcd(pa, pb) == 1
        assert pa + pb - 2 == len(psi(v))


def test_justins_formula():
    for total in range(9):
        for m in range(total + 1):
            for v in words_up_to(m):
                if len(v) != m:
                    continue
                for u in words_up_to(total - m):
                    if len(u) == total - m:
                        assert psi(v + u) == mu(v, psi(u)) + psi(v)


def test_prefix_images_nest(small_words):
    for v in small_words:
        image = psi(v)
        for i in range(len(v) + 1):
            part = psi(v[:i])
            assert image.startswith(part) and image.endswith(part)


@given(words)
def test_reversal_and_complement_symmetries(v):
    assert len(psi(v[::-1])) == len(psi(v))
    assert psi(complement(v)) == complement(psi(v))


def test_min_period_central(small_words):
    for v in small_words:
        assert min_period_central(v) == min_period(psi(v))
        assert min_period_central(v) == min(period_pair(v))


def test_period_sum_decompositions():
    # len(psi(v)) as a sum of prefix periods, and as complement-letter counts
    for v in words_up_to(12):
        if not v:
            continue
        total = sum(min_period_central(v[: i + 1]) for i in range(len(v)))
        assert total == len(psi(v))
        counts = sum(
            ("a" + psi(v[i:]) + "b").count(complement(v[i])) for i in range(len(v))
        )
        assert counts == len(psi(v))
