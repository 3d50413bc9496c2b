"""The three workloads: seeded inputs, the timed operations, and their checks.

Each workload has a ``build_*(seed, size)`` that makes the inputs (part of
set-up time) and a ``run_*(inputs, p)`` that performs every operation
through ``p.call`` or ``p.cli`` (timed, one client, closed loop) and
checks each result with ``p.check`` against ``oracles`` (untimed).
``size`` is ``"full"`` for measurement and ``"tiny"`` for the self-test.

Library modules are looked up through ``sys.modules`` at call time, so
a traced run sees the wrapped functions.
"""

from __future__ import annotations

import json
import random
import re
import sys
from functools import cache
from math import gcd
from types import SimpleNamespace

import oracles

def lib(module: str):
    return sys.modules[f"diatomic.{module}"]


def random_word(rng: random.Random, length: int) -> str:
    return "".join(rng.choice("ab") for _ in range(length))


def argv_word(w: str) -> str:
    return w or "eps"


# --------------------------------------------------------------- replay
# The two whole runs a researcher replays against the paper's tables.
# ``dist`` goes first so that it always measures one cold order.

REPLAY = {
    "full": {"k": 22, "max_k": 22, "max_n": 16384},
    "tiny": {"k": 12, "max_k": 8, "max_n": 256},
}

#: Published facts for order 22: M_22 = 444, attained at 8507.
ORDER_22 = {"max_count": 444, "argmax_member": 8507}


def build_replay(seed: int, size: str) -> dict:
    return REPLAY[size]


def _field(text: str, label: str) -> str:
    match = re.search(rf"^{label}: (.*)$", text, re.MULTILINE)
    return match.group(1) if match else ""


def run_replay(inp: dict, p) -> None:
    k = inp["k"]
    rc, out = p.cli("dist", ["dist", str(k)])
    p.check(rc == 0, f"dist {k} exited {rc}")
    if k == 22:
        top, argmax_member = ORDER_22["max_count"], ORDER_22["argmax_member"]
    else:
        top, argmax, _ = oracles.summary(k)
        argmax_member = argmax[0]
    p.check(_field(out, "words") == str(2**k), f"dist {k}: mass is not 2^{k}")
    p.check(_field(out, "total length") == str(2 * 3**k), f"dist {k}: total length")
    p.check(_field(out, "max count") == str(top), f"dist {k}: M_k is not {top}")
    p.check(str(argmax_member) in _field(out, "argmax").split(),
            f"dist {k}: {argmax_member} missing from the argmax")
    argv = ["verify", "--max-k", str(inp["max_k"]), "--max-n", str(inp["max_n"])]
    rc, out = p.cli("verify", argv)
    p.check(rc == 0, f"verify exited {rc}")
    match = re.search(r"^(\d+)/(\d+) checks passed$", out, re.MULTILINE)
    p.check(bool(match) and match.group(1) == match.group(2) and int(match.group(2)) >= 21,
            "verify did not report all of its (at least 21) checks passed")


# --------------------------------------------------------------- images
# Large single objects: images of 2^20 .. 2^23 letters.  The seed
# picks the directives and the words; every length is fixed, so every
# seed asks for the same work and allocates the same amount of memory.

IMAGES = {
    "full": {"targets": tuple(round(2 ** (20 + i / 2)) for i in range(7)), "prefix": 2**22,
             "closures": tuple(round(10_000 * 6 ** (i / 5)) for i in range(6))},
    "tiny": {"targets": (2**10, 2**11), "prefix": 2**12, "closures": (200, 400)},
}

#: Longest directive drawn for ``images``; about half of the period pairs
#: in the band below qualify.
MAX_IMAGE_ORDER = 96
#: Band for the smaller period, as a share of the Christoffel length.
#: Building an image ends by copying one smaller period, so a fixed band
#: keeps the peak memory of every seed within a few percent.
SMALL_PERIOD_BAND = (0.30, 0.34)


def _directive_of_length(rng: random.Random, target: int) -> str:
    """A random directive whose image has exactly ``target`` letters: a
    random coprime period pair (p, n - p) with n = target + 2, undone step
    by step back to (1, 1)."""
    n = target + 2
    lo, hi = (round(share * n) for share in SMALL_PERIOD_BAND)
    while True:
        small = rng.randrange(lo, hi)
        if gcd(small, n) == 1 and oracles.order_depth(small, n - small) <= MAX_IMAGE_ORDER:
            break
    pa, pb = (small, n - small) if rng.random() < 0.5 else (n - small, small)
    letters = []
    while pa != pb:
        if pa < pb:
            letters.append("a")
            pb -= pa
        else:
            letters.append("b")
            pa -= pb
    return "".join(reversed(letters))


def build_images(seed: int, size: str) -> dict:
    rng = random.Random(seed)
    spec = IMAGES[size]
    directives = []
    for target in spec["targets"]:
        v = _directive_of_length(rng, target)
        directives.append((v, oracles.sternbrocot_label(v)))
    words = [random_word(rng, n) for n in spec["closures"]]
    return {"directives": directives, "prefix": spec["prefix"], "words": words}


def run_images(inp: dict, p) -> None:
    pal, chris = lib("palindromes"), lib("christoffel")
    for v, (num, den) in inp["directives"]:
        w = p.call("psi", pal.psi, v)
        p.letters += len(w)
        p.check(oracles.is_central_image(w, v), f"psi of a {len(v)}-letter directive")
        back = p.call("psi_inverse", pal.psi_inverse, w)
        p.letters += len(back or "")
        p.check(back == v, "psi_inverse(psi(v)) != v")
        del w, back
        cw = p.call("christoffel_by_directive", chris.christoffel_by_directive, v)
        p.letters += len(cw.word)
        by_slope = p.call("christoffel_by_slope", chris.christoffel_by_slope, num, den)
        p.letters += len(by_slope.word)
        p.check(by_slope.word == cw.word, f"slope and directive routes differ for {num}/{den}")
        p.check(by_slope.directive == v and tuple(cw.slope) == (num, den),
                "slope and directive do not round-trip")
        p.check(cw.word.count("b") == num and cw.word.count("a") == den,
                "letter counts do not match the slope")
        del by_slope
        left, right = p.call("lyndon_factorization", chris.lyndon_factorization, cw)
        p.letters += len(left.word) + len(right.word)
        n = len(cw.word)
        p.check(left.word + right.word == cw.word and left.word < right.word,
                "standard factorization is not an ordered split")
        p.check((len(left.word) * num) % n == 1 and (len(right.word) * den) % n == 1,
                "factor lengths are not the modular inverses of the slope")
        del cw, left, right
    n = inp["prefix"]
    fibo = p.call("psi_prefix", pal.psi_prefix, "", "ab", n)
    p.letters += len(fibo)
    p.check(fibo == oracles.fibonacci_prefix(n), "Fibonacci prefix")
    del fibo
    for w in inp["words"]:
        closed = p.call("pal_closure", pal.pal_closure, w)
        p.letters += len(closed)
        p.check(closed == oracles.closure_kmp(w), f"closure of a {len(w)}-letter word")


# -------------------------------------------------------------- queries
# Many small point queries over every module's public functions; about
# one in 17 goes through ``cli.main``.  Arguments of ``stern --method
# all`` stay below 2^12: its continuant route is O(N) and uncapped.

#: Operations of each kind in a full pass (16,000 in all, 969 of them
#: through the CLI); a tiny pass has a fortieth of each, at least one.
QUERY_MIX = {
    "stern_memo": 2424,
    "stern_big": 1212,
    "stern_routes": 970,
    "path_of_fraction": 970,
    "tree_node": 970,
    "mirror_formula": 970,
    "christoffel_length_cf": 727,
    "psi": 970,
    "psi_inverse": 970,
    "pal_closure": 970,
    "christoffel_by_slope": 969,
    "marked_occurrences": 485,
    "counts_for_length": 485,
    "histogram": 485,
    "bound_report": 242,
    "min_period": 727,
    "is_lyndon": 485,
    "cli_psi": 242,
    "cli_christoffel": 194,
    "cli_stern_all": 194,
    "cli_tree_fraction": 194,
    "cli_dist_json": 145,
}


def _coprime(rng: random.Random, bits: int) -> tuple[int, int]:
    while True:
        p, q = rng.getrandbits(bits) or 1, rng.getrandbits(bits) or 1
        if gcd(p, q) == 1:
            return p, q


def _largest_quotient(p: int, q: int) -> int:
    top = 0
    while q:
        top = max(top, p // q)
        p, q = q, p % q
    return top


def _slope(rng: random.Random, n: int) -> tuple[int, int]:
    """A random irreducible slope p/q with p + q = n."""
    while True:
        num = rng.randrange(1, n)
        if gcd(num, n) == 1:
            return num, n - num


def _central(v: str) -> str:
    # image built by period extension, an input generator only: the
    # queries check psi_inverse against v itself
    w, pa, pb = "", 1, 1
    for x in v:
        p = pa if x == "a" else pb
        w = w + x + w if p == len(w) + 1 else w + w[len(w) - p:]
        if x == "a":
            pb += pa
        else:
            pa += pb
    return w


def _query_args(kind: str, rng: random.Random, share: float) -> tuple:
    """Arguments of one query.  ``share`` is this query's stratified
    uniform draw in [0, 1) among the queries of its kind: sizes that set
    the cost (orders, lengths, bit counts) are spread evenly by it, so
    that every seed asks for the same amount of work."""
    word = lambda lo, hi: random_word(rng, rng.randint(lo, hi))  # noqa: E731
    spread = lambda lo, hi: lo + int(share * (hi - lo + 1))  # noqa: E731
    if kind == "stern_memo":
        return (rng.randrange(2**20),)
    if kind == "stern_big":
        bits = spread(64, 1024)
        return (rng.getrandbits(bits) | (1 << (bits - 1)),)
    if kind == "stern_routes":
        return (rng.choice(("stern_via_christoffel", "stern_via_subwords")), rng.getrandbits(64))
    if kind == "path_of_fraction":
        # continued-fraction terms below 2^12 (about 95% of draws), so that
        # no single path of millions of letters dominates a pass
        while True:
            num, den = _coprime(rng, 256)
            if _largest_quotient(num, den) < 2**12:
                return ((num, den), rng.choice(("raney", "sternbrocot")))
    if kind in ("tree_node",):
        return (word(0, 256),)
    if kind in ("mirror_formula", "christoffel_length_cf"):
        return (word(0, 64),)
    if kind in ("psi", "marked_occurrences"):
        return (word(0, 14 if kind == "psi" else 10),)
    if kind == "psi_inverse":
        v = word(0, 14)
        return (_central(v), v)
    if kind == "pal_closure":
        return (word(1, 64),)
    if kind == "christoffel_by_slope":
        return _slope(rng, spread(3, 2000))
    if kind == "counts_for_length":
        return (spread(2, 2000),)
    if kind == "histogram":
        return (spread(0, 14),)
    if kind == "bound_report":
        return (spread(3, 11),)
    if kind == "min_period":
        return (_central(word(1, 12)),)
    if kind == "is_lyndon":
        num, den = _slope(rng, rng.randint(3, 200))
        w = oracles.christoffel_by_floor(num, den)
        shift = rng.randrange(len(w)) if rng.random() < 0.5 else 0
        return (w[shift:] + w[:shift],)
    if kind == "cli_psi":
        return (["psi", argv_word(word(0, 16))],)
    if kind == "cli_christoffel":
        return (["christoffel", "--directive", argv_word(word(0, 12))],)
    if kind == "cli_stern_all":
        return (["stern", str(rng.randint(2, 4095)), "--method", "all"],)
    if kind == "cli_tree_fraction":
        num, den = _coprime(rng, 64)
        return (["tree", "--fraction", f"{num}/{den}"],)
    if kind == "cli_dist_json":
        return (["--format", "json", "dist", str(spread(1, 12))],)
    raise ValueError(kind)


def build_queries(seed: int, size: str) -> list[tuple[str, tuple]]:
    rng = random.Random(seed)
    queries = []
    for kind, full in QUERY_MIX.items():
        count = full if size == "full" else max(1, full // 40)
        queries += [(kind, _query_args(kind, rng, (i + rng.random()) / count))
                    for i in range(count)]
    rng.shuffle(queries)
    return queries


def run_queries(inp: list, p) -> None:
    # oracle results reused across queries with the same argument
    memo = SimpleNamespace(summary=cache(oracles.summary), histogram=cache(oracles.histogram),
                           counts_for_length=cache(oracles.counts_for_length))
    for kind, args in inp:
        if kind.startswith("cli_"):
            _cli_query(kind, args[0], p, memo)
        else:
            _library_query(kind, args, p, memo)


def _library_query(kind: str, args: tuple, p, memo: SimpleNamespace) -> None:
    check = p.check
    if kind in ("stern_memo", "stern_big"):
        (n,) = args
        check(p.call(kind, lib("stern").stern, n) == oracles.stern(n), f"stern({n})")
    elif kind == "stern_routes":
        route, n = args
        check(p.call(kind, getattr(lib("stern"), route), n) == oracles.stern(n), f"{route}({n})")
    elif kind == "path_of_fraction":
        (num, den), flavor = args
        path = p.call(kind, lib("trees").path_of_fraction, (num, den), flavor)
        p.letters += len(path)
        expected = oracles.sternbrocot_path(num, den)
        check(path == (expected if flavor == "sternbrocot" else expected[::-1]),
              f"{flavor} path of {num}/{den}")
    elif kind == "tree_node":
        (path,) = args
        node = p.call(kind, lib("trees").tree_node, path)
        check(node.number == oracles.node_number(path)
              and tuple(node.raney) == oracles.raney_walk(path)
              and tuple(node.sternbrocot) == oracles.sternbrocot_label(path),
              f"tree node {path!r}")
    elif kind == "mirror_formula":
        (v,) = args
        sb, ra = p.call(kind, lib("continuants").mirror_formula, v)
        check((tuple(sb), tuple(ra)) == (oracles.sternbrocot_label(v), oracles.raney_walk(v)),
              f"mirror formula of {v!r}")
    elif kind == "christoffel_length_cf":
        (v,) = args
        length, period = p.call(kind, lib("continuants").christoffel_length_cf, v)
        pa, pb = oracles.period_pair(v)
        expected = (pa + pb, (pa if v[-1] == "a" else pb) if v else 1)
        check((length, period) == expected, f"continuant length of {v!r}")
    elif kind == "psi":
        (v,) = args
        w = p.call(kind, lib("palindromes").psi, v)
        p.letters += len(w)
        check(oracles.is_central_image(w, v), f"psi({v!r})")
    elif kind == "psi_inverse":
        w, v = args
        back = p.call(kind, lib("palindromes").psi_inverse, w)
        p.letters += len(back or "")
        check(back == v and oracles.is_central_image(w, v), f"psi_inverse of psi({v!r})")
    elif kind == "pal_closure":
        (w,) = args
        closed = p.call(kind, lib("palindromes").pal_closure, w)
        p.letters += len(closed)
        check(closed == oracles.closure_brute(w), f"closure of {w!r}")
    elif kind == "christoffel_by_slope":
        num, den = args
        cw = p.call(kind, lib("christoffel").christoffel_by_slope, num, den)
        p.letters += len(cw.word)
        check(cw.word == oracles.christoffel_by_floor(num, den)
              and oracles.sternbrocot_label(cw.directive) == (num, den),
              f"Christoffel word of slope {num}/{den}")
    elif kind == "marked_occurrences":
        (w,) = args
        markers, rows = p.call(kind, lib("stern").marked_occurrences, w)
        p.letters += len(markers)
        check(markers == oracles.psi_brute(w) + "ba" and len(rows) == sum(oracles.period_pair(w)),
              f"marked occurrences of {w!r}")
    elif kind == "counts_for_length":
        (n,) = args
        counts = p.call(kind, lib("distribution").counts_for_length, n)
        check(counts == memo.counts_for_length(n) and sum(counts.values()) == oracles.totient(n),
              f"counts_for_length({n})")
    elif kind == "histogram":
        (k,) = args
        h = p.call(kind, lib("distribution").histogram, k)
        check(h.counts == memo.histogram(k) and h.mass == 2**k and h.weighted_mass == 2 * 3**k,
              f"histogram({k})")
    elif kind == "bound_report":
        (k,) = args
        report = p.call(kind, lib("distribution").bound_report, k)
        check(report.order == k and report.passed, f"bound_report({k})")
    elif kind == "min_period":
        (w,) = args
        check(p.call(kind, lib("words").min_period, w) == oracles.min_period(w),
              f"min_period of a {len(w)}-letter word")
    elif kind == "is_lyndon":
        (w,) = args
        check(p.call(kind, lib("words").is_lyndon, w) == oracles.is_lyndon(w),
              f"is_lyndon({w!r})")
    else:
        raise ValueError(kind)


_LINE = re.compile(r"^(\w+): (.*)$", re.MULTILINE)


def _cli_query(kind: str, argv: list[str], p, memo: SimpleNamespace) -> None:
    rc, out = p.cli(kind, argv)
    if kind == "cli_tree_fraction" and rc == 5:
        # Known defect: printing nu fails on Python's int->str digit
        # limit once the path is longer than about 14k letters.  Counted
        # as a failed operation, and only when the oracle predicts it.
        num, den = map(int, argv[2].split("/"))
        nu = oracles.node_number(oracles.sternbrocot_path(num, den)[::-1])
        p.check(nu >= 10**oracles.INT_STR_DIGITS, f"tree --fraction {argv[2]} exited 5")
        p.failed += 1
        return
    p.check(rc == 0, f"{' '.join(argv)} exited {rc}")
    if rc != 0:
        return
    fields = dict(_LINE.findall(out))
    if kind == "cli_psi":
        v = "" if argv[1] == "eps" else argv[1]
        pa, pb = oracles.period_pair(v)
        w = out.split(" ", 1)[0]
        w = "" if w == "eps" else w
        expected = f"{argv_word(w)} (|.|={len(w)}, p_a={pa}, p_b={pb})\n"
        p.check(out == expected and oracles.is_central_image(w, v), f"diatomic psi {argv[1]}")
    elif kind == "cli_christoffel":
        v = "" if argv[2] == "eps" else argv[2]
        word = fields.get("word", "")
        num, den = oracles.sternbrocot_label(v)
        p.check(word[:1] == "a" and word[-1:] == "b" and oracles.is_central_image(word[1:-1], v)
                and fields.get("slope") == f"{num}/{den}",
                f"diatomic christoffel --directive {argv[2]}")
    elif kind == "cli_stern_all":
        expected = str(oracles.stern(int(argv[1])))
        values = [fields.get(m) for m in ("recurrence", "christoffel", "subwords", "zeta")]
        p.check(values == [expected] * 4, f"diatomic stern {argv[1]} --method all")
    elif kind == "cli_tree_fraction":
        num, den = map(int, argv[2].split("/"))
        path = oracles.sternbrocot_path(num, den)[::-1]
        p.check(fields.get("path") == argv_word(path)
                and fields.get("nu") == str(oracles.node_number(path))
                and fields.get("raney") == f"{num}/{den}",
                f"diatomic tree --fraction {argv[2]}")
    elif kind == "cli_dist_json":
        k = int(argv[3])
        top, argmax, missing = memo.summary(k)
        payload = json.loads(out)
        p.check(payload == {"k": k, "M_k": top, "argmax": argmax, "missing": missing,
                            "missing_count": len(missing)},
                f"diatomic --format json dist {k}")


BUILD = {"replay": build_replay, "images": build_images, "queries": build_queries}
RUN = {"replay": run_replay, "images": run_images, "queries": run_queries}
WORKLOADS = tuple(BUILD)
