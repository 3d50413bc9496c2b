import argparse
import contextlib
import csv
import io
import json
import re
import subprocess
import sys
import time
import tracemalloc
from bisect import bisect
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import diatomic.stern as stern_mod
from conftest import check
from diatomic import cli
from diatomic.cli import main
from diatomic.distribution import MAX_ENUMERATED_ORDER
from diatomic.palindromes import PSI_LENGTH_BUDGET
from diatomic.stern import MARKED_OCCURRENCE_CAP, marked_occurrences, stern


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_psi(capsys):
    code, out, _ = run_cli(capsys, "psi", "aba")
    assert code == 0
    assert out == "abaaba (|.|=6, p_a=3, p_b=5)\n"


def test_psi_empty(capsys):
    code, out, _ = run_cli(capsys, "psi", "eps")
    assert code == 0
    assert out == "eps (|.|=0, p_a=1, p_b=1)\n"


def test_closure(capsys):
    code, out, _ = run_cli(capsys, "closure", "abaa")
    assert code == 0
    assert out.startswith("abaaba")


def test_directive(capsys):
    code, out, _ = run_cli(capsys, "directive", "abaaba")
    assert code == 0
    assert out == "aba (order 3)\n"


def test_directive_not_central(capsys):
    code, out, err = run_cli(capsys, "directive", "ab")
    assert (code, out, err) == (3, "", "not a central word: word 'ab'\n")


def test_parse_error(capsys):
    code, _, err = run_cli(capsys, "psi", "abc")
    assert (code, err) == (2, "not a word over {a,b}: word 'abc'\n")


def test_alphabet_01(capsys):
    code, out, _ = run_cli(capsys, "--alphabet", "01", "psi", "010")
    assert code == 0
    assert out == "010010 (|.|=6, p_a=3, p_b=5)\n"
    code, _, _ = run_cli(capsys, "--alphabet", "01", "psi", "aba")
    assert code == 2


def test_christoffel_slope(capsys):
    code, out, _ = run_cli(capsys, "christoffel", "--slope", "4/7")
    assert code == 0
    assert "word: aabaabaabab" in out
    assert "slope: 4/7" in out
    assert "order: 4" in out
    assert "factors: aab aabaabab" in out
    assert "factor lengths: 3 8" in out
    assert "(mod 11)" in out


def test_christoffel_directive_empty(capsys):
    code, out, _ = run_cli(capsys, "christoffel", "--directive", "eps")
    assert code == 0
    assert "word: ab" in out


def test_christoffel_noncoprime(capsys):
    code, _, err = run_cli(capsys, "christoffel", "--slope", "6/4")
    assert code == 5 and "not irreducible" in err


def test_christoffel_slope_budget(capsys):
    # 1/1073741827 has 1073741826 central letters, two past PSI_LENGTH_BUDGET
    for slope in ("1/2000000000", "1/1073741827"):
        start = time.perf_counter()
        code, out, err = run_cli(capsys, "christoffel", "--slope", slope)
        assert code == 4 and out == "" and "budget" in err
        assert time.perf_counter() - start < 1


def test_christoffel_inverse_check_failure(capsys, monkeypatch):
    # factors swapped: 8 * 4 = 10 (mod 11), so the lengths are not inverses
    original = cli.lyndon_factorization
    monkeypatch.setattr(cli, "lyndon_factorization", lambda cw: original(cw)[::-1])
    code, out, err = run_cli(capsys, "christoffel", "--slope", "4/7")
    assert (code, out) == (6, "")
    assert err == "factor lengths are not modular inverses of the slope\n"


def test_christoffel_single_letter(capsys):
    code, out, _ = run_cli(capsys, "christoffel", "--slope", "0/1")
    assert code == 0
    assert "word: a" in out and "order: -" in out and "factors" not in out


def test_stern_default(capsys):
    code, out, _ = run_cli(capsys, "stern", "0")
    assert code == 0 and out == "0\n"


def test_stern_all(capsys):
    code, out, _ = run_cli(capsys, "stern", "23", "--method", "all")
    assert code == 0
    assert out.count(": 7") == 4


def test_stern_all_disagreement(capsys, monkeypatch):
    # one evaluator wrong: stdout stays empty, stderr lists every value
    monkeypatch.setattr(cli, "stern_via_subwords", lambda n: stern(n) + 1)
    code, out, err = run_cli(capsys, "stern", "23", "--method", "all")
    assert (code, out) == (6, "")
    assert err == "recurrence: 7\nchristoffel: 7\nsubwords: 8\nzeta: 7\nevaluators disagree\n"


def test_stern_huge_power_of_two(capsys):
    code, out, _ = run_cli(capsys, "stern", str(2**100))
    assert code == 0 and out == "1\n"


def test_stern_zeta_precondition(capsys):
    code, _, err = run_cli(capsys, "stern", "1", "--method", "zeta")
    assert code == 5 and err


def test_stern_zeta_answers_large_n(capsys):
    n = 2**22 + 1
    code, out, err = run_cli(capsys, "stern", str(n), "--method", "all")
    assert (code, err) == (0, "")
    assert out.splitlines() == [f"{name}: {stern(n)}"
                                for name in ("recurrence", "christoffel", "subwords", "zeta")]
    n = 2**100 + 1
    assert run_cli(capsys, "stern", str(n), "--method", "zeta") == (0, f"{stern(n)}\n", "")


def test_stern_all_at_the_integer_digit_limit(capsys):
    # the longest n argv admits, answered by every route in O(log n) products
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "stern", "9" * sys.get_int_max_str_digits(), "--method", "all")
    assert time.perf_counter() - start < 2
    assert (code, err, len(out.splitlines())) == (0, "", 4)  # four routes that agree


def test_stern_parse_error(capsys):
    code, _, _ = run_cli(capsys, "stern", "seven")
    assert code == 2


def test_stern_past_the_integer_digit_limit(capsys):
    # a well-formed n that Python will not convert is refused as too large,
    # by a message that names the digit limit and not the input
    limit = sys.get_int_max_str_digits()
    for n in ("7" * (limit + 1), f" -1_{'0' * limit} "):
        code, out, err = run_cli(capsys, "stern", n)
        assert (code, out) == (4, "")
        assert err == f"n has more than {limit} digits, the limit of integer string conversion\n"
    code, out, err = run_cli(capsys, "stern", "7" * (limit + 1) + "x")
    assert (code, out) == (2, "") and err.startswith("not an integer: ")


def test_occ_table(capsys):
    code, out, _ = run_cli(capsys, "occ", "abbaa")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "marker  key  occurrence"
    assert lines[1] == "a  7,6,4,2,1  1,2,4,6,7"
    assert lines[2] == "b  7,6,4  4,6,7"
    assert lines[-1] == "word: ababaababaababab" + "a"
    assert len(lines) == 2 + 17


def test_occ_csv(capsys):
    code, out, _ = run_cli(capsys, "--format", "csv", "occ", "abbaa")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "marker,key,occurrence"
    assert lines[1] == 'a,"7,6,4,2,1","1,2,4,6,7"'
    assert len(lines) == 1 + 17


def test_occ_markers_follow_the_alphabet(capsys):
    # text and csv spell the marker column like the word: line; json keeps a/b
    _, text, _ = run_cli(capsys, "--alphabet", "01", "occ", "01")
    assert [line.split("  ")[0] for line in text.splitlines()[1:-1]] == list("01010")
    assert text.splitlines()[-1] == "word: 01010"
    _, csv_out, _ = run_cli(capsys, "--alphabet", "01", "--format", "csv", "occ", "01")
    assert [line.split(",")[0] for line in csv_out.splitlines()[1:]] == list("01010")
    _, json_out, _ = run_cli(capsys, "--alphabet", "01", "--format", "json", "occ", "01")
    payload = json.loads(json_out)
    assert payload["markers"] == "ababa"
    assert [row["marker"] for row in payload["occurrences"]] == list("ababa")


def test_occ_json_is_the_whole_payload_dumped(capsys):
    # the rows are written one by one; the bytes are those of one dump
    for word in ("eps", "b", "abbaa", "abababab"):
        _, out, _ = run_cli(capsys, "--format", "json", "occ", word)
        w = "" if word == "eps" else word
        markers, rows = marked_occurrences(w)
        occurrences = [
            {"marker": m, "key": key, "positions": key[::-1]} for m, key in zip(markers, rows)
        ]
        payload = {"word": w, "markers": markers, "occurrences": occurrences}
        assert out == json.dumps(payload, sort_keys=True) + "\n"


def test_tree_path(capsys):
    code, out, _ = run_cli(capsys, "tree", "abba")
    assert code == 0
    assert "nu: 23" in out and "raney: 5/7" in out and "sternbrocot: 5/7" in out


def test_tree_fraction(capsys):
    code, out, _ = run_cli(capsys, "tree", "--fraction", "4/7", "--flavor", "sternbrocot")
    assert code == 0
    assert "path: abaa" in out


def test_tree_fraction_preconditions(capsys):
    code, out, err = run_cli(capsys, "tree", "--fraction", "0/5")
    assert (code, out) == (5, "") and "only positive fractions" in err and "0/5" in err
    code, out, err = run_cli(capsys, "tree", "--fraction", "2/4")
    assert (code, out) == (5, "") and "not irreducible: 2/4" in err


def test_tree_argument_exclusivity(capsys):
    # a path and --fraction form one required group: argparse refuses neither and both
    for argv in (["tree"], ["tree", "ab", "--fraction", "1/2"]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2 and capsys.readouterr().out == ""


def test_budget_exit(capsys):
    code, _, err = run_cli(capsys, "psi", "ab" * 60)
    assert code == 4 and "budget" in err


# each input's refused size has more than 4,300 digits, more than Python
# converts to a string, so only a message that names the bound gets out;
# dist 1000000000 would also spend seconds building 2^k for its message
HUGE_SLOPE = f"{9 * 10**4299}/{9 * 10**4299 + 1}"


@pytest.mark.parametrize("argv, bound", [
    (["psi", "ab" * 11000], PSI_LENGTH_BUDGET),
    (["christoffel", "--directive", "ab" * 11000], PSI_LENGTH_BUDGET),
    (["christoffel", "--slope", HUGE_SLOPE], PSI_LENGTH_BUDGET),
    (["occ", "ab" * 11000], MARKED_OCCURRENCE_CAP),
    (["dist", "20000"], MAX_ENUMERATED_ORDER),
    (["dist", "1000000000"], MAX_ENUMERATED_ORDER),
    # refused after the first letters past the bound, not after all 200,000
    (["psi", "ab" * 100_000], PSI_LENGTH_BUDGET),
    (["occ", "ab" * 100_000], MARKED_OCCURRENCE_CAP),
], ids=["psi", "christoffel-directive", "christoffel-slope", "occ", "dist", "dist-huge",
        "psi-long", "occ-long"])
def test_budget_refusal_names_only_the_bound(capsys, argv, bound):
    start = time.perf_counter()
    code, out, err = run_cli(capsys, *argv)
    assert time.perf_counter() - start < 0.1
    assert (code, out) == (4, "")
    assert str(bound) in err and len(err) < 200


def test_occ_prints_a_long_single_run_as_text(capsys):
    # 120,002 rows are within the cap, which is the one row rule in every format
    code, out, err = run_cli(capsys, "occ", "a" * 120_000)
    lines = out.splitlines()
    assert (code, err, len(lines)) == (0, "", 120_004)
    _, csv_out, _ = run_cli(capsys, "--format", "csv", "occ", "a" * 120_000)
    csv_rows = ["  ".join(row) for row in csv.reader(io.StringIO(csv_out))]
    assert lines[:-1] == csv_rows
    assert lines[-1] == "word: " + "a" * 120_000 + "ba"


LIMIT = sys.get_int_max_str_digits()
PAST_LIMIT = "1" * 4400
DIGIT_LIMIT = f"more than {LIMIT} digits"
TREE_BUDGET = f"tree path exceeds the budget of {PSI_LENGTH_BUDGET} letters\n"


@pytest.mark.parametrize("argv, code, err", [
    (["stern", PAST_LIMIT], 4, f"n has {DIGIT_LIMIT}"),
    (["christoffel", "--slope", f"1/{PAST_LIMIT}"], 4, f"a fraction part has {DIGIT_LIMIT}"),
    (["christoffel", "--slope", f"{PAST_LIMIT}/1"], 4, f"a fraction part has {DIGIT_LIMIT}"),
    (["tree", "--fraction", f"1/{PAST_LIMIT}"], 4, f"a fraction part has {DIGIT_LIMIT}"),
    (["tree", "--fraction", f"{PAST_LIMIT}/1"], 4, f"a fraction part has {DIGIT_LIMIT}"),
    # a malformed part is a parse error, whatever the other part's size
    (["tree", "--fraction", f"{PAST_LIMIT}/x"], 2,
     f"not a fraction: --fraction '{PAST_LIMIT[:40]}'... (4402 characters)\n"),
    # paths past the budget are refused before any letter is written
    (["tree", "--fraction", "1/1000000000000"], 4, TREE_BUDGET),
    (["tree", "--fraction", "1000000000000/1"], 4, TREE_BUDGET),
    (["tree", "--fraction", f"1/{'2' * LIMIT}"], 4, TREE_BUDGET),
    # a path within the budget whose node number has too many digits to print
    (["tree", "--fraction", "1/15000"], 5, "Exceeds the limit"),
    (["tree", "--fraction", "4/7"], 0, ""),
    (["tree", "--fraction", "x/y"], 2, "not a fraction: --fraction 'x/y'"),
    (["tree", "--fraction", "3/"], 2, "not a fraction: --fraction '3/'\n"),
    (["christoffel", "--slope", "3/"], 2, "not a fraction: --slope '3/'\n"),
], ids=[
    "stern-digits", "slope-den-digits", "slope-num-digits", "fraction-den-digits",
    "fraction-num-digits", "fraction-malformed-and-long", "tree-long-den", "tree-long-num",
    "tree-den-at-the-digit-limit", "tree-nu-unprintable", "fraction", "not-digits",
    "no-denominator", "slope-no-denominator",
])
def test_hostile_argv(capsys, argv, code, err):
    start = time.perf_counter()
    result = run_cli(capsys, *argv)
    assert time.perf_counter() - start < 1
    assert result[0] == code and err in result[2] and "Traceback" not in result[2]
    if code:
        assert result[1] == ""
    if code == 4:
        assert len(result[2]) < 200
    if DIGIT_LIMIT in err:
        assert str(LIMIT) in result[2]


#: Every integer the CLI reads from argv, at the place marked "{}".
NUMERIC_ARGV = {
    "stern": ["stern", "{}"],
    "dist": ["dist", "{}"],
    "max-k": ["verify", "--max-k", "{}"],
    "max-n": ["verify", "--max-n", "{}"],
    "slope-num": ["christoffel", "--slope", "{}/1"],
    "slope-den": ["christoffel", "--slope", "1/{}"],
    "fraction-num": ["tree", "--fraction", "{}/1"],
    "fraction-den": ["tree", "--fraction", "1/{}"],
}


@pytest.mark.parametrize("argv", NUMERIC_ARGV.values(), ids=NUMERIC_ARGV)
def test_every_argv_integer_is_read_one_way(capsys, argv):
    # past the digit limit: a budget whose message names the limit, not the input
    code, out, err = run_cli(capsys, *(arg.format(PAST_LIMIT) for arg in argv))
    assert (code, out) == (4, "") and DIGIT_LIMIT in err and len(err) < 200
    assert PAST_LIMIT[:50] not in err
    # malformed: a one-line parse refusal returned by main, not argparse's exit
    code, out, err = run_cli(capsys, *(arg.format("1x") for arg in argv))
    assert (code, out) == (2, "") and err.count("\n") == 1 and "Traceback" not in err
    # malformed and long: named, quoted by 40 characters and its length
    long_argv = [arg.format(PAST_LIMIT + "x") for arg in argv]
    code, out, err = run_cli(capsys, *long_argv)
    name = argv[-2] if argv[-2].startswith("--") else {"stern": "n", "dist": "k"}[argv[0]]
    text = long_argv[-1]
    assert (code, out) == (2, "") and len(err) < 200 and PAST_LIMIT[:50] not in err
    assert f"{name} {text[:40]!r}... ({len(text)} characters)" in err


#: Every word the CLI reads from argv, at the place marked "{}".
WORD_ARGV = {
    "psi": ["psi", "{}"],
    "closure": ["closure", "{}"],
    "directive": ["directive", "{}"],
    "occ": ["occ", "{}"],
    "tree": ["tree", "{}"],
    "christoffel-directive": ["christoffel", "--directive", "{}"],
}
# 120,000 letters, about the longest word one argv string carries
# (Linux refuses a single one over 128 KiB)
LONG_WORD = "ab" * 60000


@pytest.mark.parametrize("argv", WORD_ARGV.values(), ids=WORD_ARGV)
def test_every_argv_word_is_quoted_one_way(capsys, argv):
    # a long word with a letter outside the alphabet: named, quoted by 40
    # characters and its length, whatever the command
    long_argv = [arg.format(LONG_WORD + "c") for arg in argv]
    code, out, err = run_cli(capsys, *long_argv)
    name = argv[-2] if argv[-2].startswith("--") else {"tree": "path"}.get(argv[0], "word")
    text = long_argv[-1]
    assert (code, out) == (2, "") and len(err.encode()) < 200
    assert f"{name} {text[:40]!r}... ({len(text)} characters)" in err


def test_directive_refusal_quotes_a_long_word(capsys):
    # a word over {a,b} that is not central is refused the same way
    code, out, err = run_cli(capsys, "directive", LONG_WORD)
    assert (code, out) == (3, "") and len(err.encode()) < 200
    assert err == f"not a central word: word {LONG_WORD[:40]!r}... (120000 characters)\n"


def test_tree_usage_shows_path_or_fraction(capsys):
    # argparse leaves a group of a positional and an option out of usage
    with pytest.raises(SystemExit) as exited:
        main(["tree", "--help"])
    assert exited.value.code == 0
    usage = capsys.readouterr().out.split("\n\n", 1)[0]
    assert usage.endswith(" (path | --fraction FRACTION)")


def test_tree_fraction_reads_a_bare_integer_as_p_over_1(capsys):
    bare, full = (run_cli(capsys, "tree", "--fraction", f) for f in ("5", "5/1"))
    assert bare == full and bare[0] == 0


def test_occ_cap_refuses_text_before_enumerating(capsys, monkeypatch):
    # 3,524,578 rows, past the occurrence cap; the row walk is the only
    # reader of bisect in stern, so its calls show whether a row was built
    calls = []
    monkeypatch.setattr("diatomic.stern.bisect", lambda *a: calls.append(a) or bisect(*a))
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "occ", "ab" * 15)
    assert time.perf_counter() - start < 0.1
    assert (code, out, calls) == (4, "", [])
    assert err == f"occurrences exceed the cap of {MARKED_OCCURRENCE_CAP}\n"
    assert run_cli(capsys, "occ", "abab")[0] == 0 and calls


@pytest.mark.parametrize("fmt", ["json", "csv", "text"])
def test_occ_counts_its_occurrences_once_in_every_format(capsys, monkeypatch, fmt):
    # marked_occurrences reads the count for the cap, and nothing else does
    counted = []
    original = stern_mod._occurrence_count

    def counting(w):
        counted.append(w)
        return original(w)

    monkeypatch.setattr("diatomic.stern._occurrence_count", counting)
    assert run_cli(capsys, "--format", fmt, "occ", "abab")[0] == 0
    assert counted == ["abab"]
    # past the cap, each format is refused with the same message
    code, out, err = run_cli(capsys, "--format", fmt, "occ", "ab" * 11000)
    assert (code, out, err) == (4, "", f"occurrences exceed the cap of {MARKED_OCCURRENCE_CAP}\n")


def test_occ_text_peaks_no_higher_than_csv():
    # text writes its table in chunks of lines and csv row by row, so
    # neither holds the whole table as text; the output is captured as
    # an embedding program would, in a StringIO; the shared parser is
    # built first, so that neither run pays for it
    cli._parser()
    peaks = {}
    for fmt in ("csv", "text"):
        tracemalloc.start()
        try:
            assert outcome(["--format", fmt, "occ", "ab" * 10])[0] == 0
            peaks[fmt] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peaks["text"] <= peaks["csv"]


@pytest.mark.parametrize("count", [0, 1, 4095, 4096, 4097, 10_000])
def test_emit_writes_each_text_line_once(capsys, count):
    # the bytes of "\n".join(lines) + "\n", and nothing for no lines, across
    # chunk boundaries; empty lines sit inside the chunks too
    lines = [str(i) if i % 7 else "" for i in range(count)]
    text = argparse.Namespace(format="text")
    for given in (lines, (line for line in lines)):
        assert cli._emit(text, given, {}) == 0
        assert capsys.readouterr().out == ("\n".join(lines) + "\n" if lines else "")


def test_dist_text(capsys):
    code, out, _ = run_cli(capsys, "dist", "3")
    assert code == 0
    assert "max count: 4" in out
    assert "missing: 6" in out
    assert "  7 4" in out


def test_dist_json_schema(capsys):
    code, out, _ = run_cli(capsys, "--format", "json", "dist", "5")
    assert code == 0
    payload = json.loads(out)
    assert payload == {
        "k": 5,
        "M_k": 4,
        "argmax": [11, 13, 14, 17, 18, 19],
        "missing": [8, 9, 10, 12, 20],
        "missing_count": 5,
    }


def test_dist_csv(capsys):
    code, out, _ = run_cli(capsys, "--format", "csv", "dist", "3")
    assert code == 0
    assert out.splitlines() == ["k,n,count", "3,5,2", "3,7,4", "3,8,2"]


def test_dist_budget(capsys):
    code, _, _ = run_cli(capsys, "dist", "30")
    assert code == 4


def test_dist_budget_is_checked_first(capsys):
    start = time.perf_counter()
    code, out, _ = run_cli(capsys, "dist", "27")
    assert (code, out) == (4, "")
    assert time.perf_counter() - start < 1.0


def test_dist_has_no_budget_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["dist", "5", "--max-order", "4"])
    assert exc.value.code == 2 and capsys.readouterr().out == ""


def test_csv_unavailable(capsys):
    code, _, err = run_cli(capsys, "--format", "csv", "psi", "ab")
    assert code == 2 and "csv" in err


@pytest.mark.parametrize("argv", [
    ["psi", "ab" * 22],
    ["closure", "abaa"],
    ["directive", "ab"],
    ["christoffel", "--slope", "4/7"],
    ["stern", "4194304", "--method", "all"],
    ["tree", "--fraction", "1/15000"],
], ids=lambda argv: argv[0])
def test_csv_is_refused_before_the_handler_runs(capsys, monkeypatch, cold_parser, argv):
    calls = []
    monkeypatch.setattr(cli, f"_cmd_{argv[0]}", lambda args: calls.append(args) or 0)
    code, out, err = run_cli(capsys, "--format", "csv", *argv)
    assert (code, out, calls) == (2, "", [])
    assert err == f"csv output is not available for '{argv[0]}'\n"


def test_json_roundtrips(capsys):
    code, out, _ = run_cli(capsys, "--format", "json", "psi", "abbaa")
    payload = json.loads(out)
    assert payload["word"] == "ababaababaababa"
    assert (payload["p_a"], payload["p_b"]) == (5, 12)

    code, out, _ = run_cli(capsys, "--format", "json", "christoffel", "--slope", "4/7")
    payload = json.loads(out)
    assert payload["word"] == "aabaabaabab"
    assert payload["slope"] == {"num": 4, "den": 7}
    assert payload["factors"] == ["aab", "aabaabab"]

    code, out, _ = run_cli(capsys, "--format", "json", "stern", "23", "--method", "all")
    payload = json.loads(out)
    assert set(payload["values"].values()) == {7}

    code, out, _ = run_cli(capsys, "--format", "json", "occ", "eps")
    payload = json.loads(out)
    assert payload["markers"] == "ba"
    assert payload["occurrences"][0] == {"marker": "b", "key": [2], "positions": [2]}

    # the exact bytes of the commands that print one object
    for argv, payload in [
        (["closure", "abaa"], {"closure": "abaaba", "length": 6, "word": "abaa"}),
        (["directive", "abaaba"], {"directive": "aba", "order": 3, "word": "abaaba"}),
        (["tree", "abba"], {"nu": 23, "path": "abba", "raney": {"den": 7, "num": 5},
                            "sternbrocot": {"den": 7, "num": 5}}),
        (["tree", "--fraction", "4/7", "--flavor", "sternbrocot"],
         {"nu": 21, "path": "abaa", "raney": {"den": 8, "num": 3},
          "sternbrocot": {"den": 7, "num": 4}}),
    ]:
        result = run_cli(capsys, "--format", "json", *argv)
        assert result == (0, json.dumps(payload, sort_keys=True) + "\n", ""), argv


def test_determinism(capsys):
    first = run_cli(capsys, "occ", "abbaa")
    second = run_cli(capsys, "occ", "abbaa")
    assert first == second
    first = run_cli(capsys, "--format", "json", "dist", "6")
    second = run_cli(capsys, "--format", "json", "dist", "6")
    assert first == second


def test_verify_fast(capsys):
    code, out, _ = run_cli(capsys, "verify", "--max-k", "6", "--max-n", "128")
    assert code == 0
    lines = out.splitlines()
    assert all(line.startswith("PASS") for line in lines[:-1])
    assert lines[-1].endswith("checks passed")


@pytest.mark.parametrize("bounds", [("--max-k", "-1"), ("--max-n", "-5"), ("--max-k", "x")])
def test_verify_rejects_bad_bounds(capsys, monkeypatch, bounds):
    def unreached(*_):
        raise AssertionError("a check ran")

    monkeypatch.setattr(cli.verify_mod, "run_checks", unreached)
    code, out, err = run_cli(capsys, "verify", *bounds)
    assert (code, out) == (2, "") and bounds[0] in err and err.count("\n") == 1


def test_verify_json(capsys):
    code, out, _ = run_cli(capsys, "--format", "json", "verify", "--max-k", "4", "--max-n", "64")
    assert code == 0
    payload = json.loads(out)
    assert payload["passed"] == payload["total"] == len(payload["checks"]) >= 21
    first = payload["checks"][0]
    assert first == {"name": "stern-prefix-values", "ok": True, "detail": "first 33 values"}


def test_verify_csv(capsys):
    code, out, _ = run_cli(capsys, "--format", "csv", "verify", "--max-k", "4", "--max-n", "64")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "name,ok,detail"
    assert lines[1] == "stern-prefix-values,true,first 33 values"
    assert len(lines) >= 22 and all(",true," in line for line in lines[1:])


def test_verify_failure_in_every_format(capsys, monkeypatch):
    from diatomic import verify

    def broken(max_k, max_n):
        return verify.CheckResult("broken", False, "always fails")

    monkeypatch.setattr(verify, "ALL_CHECKS", [check("stern-prefix-values"), broken])
    code, out, _ = run_cli(capsys, "verify")
    assert code == 6
    assert out.splitlines()[1:] == ["FAIL  broken  (always fails)", "1/2 checks passed"]
    code, out, _ = run_cli(capsys, "--format", "json", "verify")
    assert code == 6
    payload = json.loads(out)
    assert (payload["passed"], payload["total"]) == (1, 2)
    assert payload["checks"][1] == {"name": "broken", "ok": False, "detail": "always fails"}
    code, out, _ = run_cli(capsys, "--format", "csv", "verify")
    assert code == 6
    assert out.splitlines()[2] == "broken,false,always fails"


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "diatomic", "stern", "23"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout == "7\n"


def test_cli_import_leaves_out_dataclasses_and_inspect():
    # every record is a NamedTuple, so a cold start pays for neither
    # module; -S keeps site hooks (.pth files) from importing their own
    src = str(Path(cli.__file__).resolve().parents[1])
    code = (
        f"import sys; sys.path.insert(0, {src!r}); import diatomic.cli;"
        " print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    )
    proc = subprocess.run(
        [sys.executable, "-S", "-c", code], capture_output=True, text=True, timeout=60
    )
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "[]\n", "")


@pytest.mark.parametrize("argv", [
    ["tree", "--fraction", "-1/2"],
    ["christoffel", "--slope", "-1/2"],
    ["tree", "--frac", "-1/2"],
])
def test_negative_fraction_value_reaches_the_library(capsys, argv):
    # a separate "-1/2" is the option's value, not an unknown option: the
    # library rejects it as a precondition and names the non-positive part
    code, out, err = run_cli(capsys, *argv)
    assert code == 5
    assert out == ""
    assert "-1/2" in err and "expected one argument" not in err
    assert run_cli(capsys, *argv[:-2], f"{argv[-2]}={argv[-1]}") == (code, out, err)


def test_closed_stdout_pipe_ends_without_traceback():
    # dist 20 prints about 250 kB, more than a pipe holds, so the reader's
    # close is certain to reach the CLI while it is still writing
    with subprocess.Popen(
        [sys.executable, "-m", "diatomic", "dist", "20"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
    ) as proc:
        assert proc.stdout.readline() == b"k: 20\n"
        proc.stdout.close()
        stderr = proc.stderr.read().decode()
        assert proc.wait(timeout=60) == 1
    assert stderr == ""  # no traceback, and no complaint from the final flush


def outcome(argv):
    """(exit code, stdout, stderr) of ``main(argv)``, with both streams
    redirected to fresh buffers for this call alone, as an embedding
    program would capture them."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def fresh_outcomes(monkeypatch, argvs):
    """What each call gives when ``main`` builds a new parser for it."""
    with monkeypatch.context() as m:
        m.setattr(cli, "_parser", cli._parser.__wrapped__)
        return [outcome(argv) for argv in argvs]


@pytest.fixture
def cold_parser():
    # main's shared parser is built again by the first call of the test
    cli._parser.cache_clear()
    yield
    cli._parser.cache_clear()


def test_main_builds_its_parser_once(cold_parser):
    assert outcome(["psi", "aba"])[0] == 0
    assert cli._parser.cache_info().misses == 1
    for argv in (["stern", "23"], ["--format", "json", "dist", "5"], ["psi", "abc"], ["bogus"]):
        outcome(argv)
    assert cli._parser.cache_info().misses == 1
    # the builder under the cache still hands out a new parser on every call
    assert cli._parser.__wrapped__() is not cli._parser.__wrapped__()


# formats, alphabets, optional positionals and argparse's own errors in
# one order, so that any option a call leaves behind would reach the next
MIXED_CALLS = [
    ["--format", "json", "psi", "aba"],
    ["--format", "csv", "dist", "5"],
    ["--alphabet", "01", "psi", "010"],
    ["psi", "aba"],
    ["tree", "abba"],
    ["tree", "--fraction", "4/7"],
    ["tree", "--fraction", "4/7", "--flavor", "sternbrocot"],
    ["tree", "abba"],
    ["verify", "--max-k", "3", "--max-n", "10"],
    ["--format", "csv", "verify", "--max-k", "3", "--max-n", "10"],
    ["bogus"],
    ["christoffel", "--slope", "1/2", "--directive", "ab"],
    ["--alphabet", "01", "christoffel", "--directive", "01"],
    ["christoffel", "--slope", "2/3"],
    ["verify", "--max-k", "-1"],
    ["--format", "json", "stern", "23", "--method", "all"],
    ["stern", "23"],
    ["--format", "csv", "psi", "ab"],
    [],
    ["--format", "text", "dist", "4"],
]


def test_shared_parser_keeps_no_state_between_calls(monkeypatch, cold_parser):
    shared = [outcome(argv) for argv in MIXED_CALLS]
    assert shared == fresh_outcomes(monkeypatch, MIXED_CALLS)
    codes = [code for code, _, _ in shared]
    assert codes.count(2) == 5  # four argparse errors and csv output of psi
    assert shared[3] == (0, "abaaba (|.|=6, p_a=3, p_b=5)\n", "")
    assert shared[7] == shared[4] and shared[6] != shared[5]


def listed_commands():
    """The subcommands that the usage line of ``diatomic --help`` offers."""
    usage = outcome(["--help"])[1].split("\n\n", 1)[0]
    return re.findall(r"\{([^}]*)\}", usage)[-1].split(",")


def test_shared_parser_help_matches_a_fresh_parser(monkeypatch, cold_parser):
    # the commands are those the usage line of --help offers, so a new one
    # is covered as soon as it has a subparser
    commands = listed_commands()
    assert {"psi", "verify"} <= set(commands) and len(commands) >= 9
    argvs = [["--help"]] + [[command, "--help"] for command in commands]
    shared = [outcome(argv) for argv in argvs]
    assert shared == fresh_outcomes(monkeypatch, argvs)
    assert all(code == 0 and out.startswith("usage: diatomic") and not err
               for code, out, err in shared)


# bounded random argv: words over a/b, 0/1 and letters of neither, the
# empty word, integers and fractions in and out of range and malformed
# ones, each command with the sizes that keep one call within a few ms
ODD_INTEGERS = ["x", "1e3", " 7 ", "1_000"]  # the last two read as 7 and 1000
WORD_TEXTS = st.one_of(st.text(alphabet="ab01c- ", max_size=20), st.sampled_from(["eps", ""]))


def integer_texts(lo, hi):
    return st.one_of(st.integers(lo, hi).map(str), st.sampled_from(ODD_INTEGERS))


FRACTION_TEXTS = st.one_of(
    st.builds("{}/{}".format, st.integers(-5, 10**4), st.integers(-5, 10**4)),
    integer_texts(-5, 10**4),
    st.sampled_from(["3/", "x/y", "1/2/3", "/4"]),
)
OPTIONAL_FLAVOR = st.sampled_from([[], ["--flavor", "raney"], ["--flavor", "sternbrocot"]])
STERN_ARGS = st.builds(
    lambda n, method: [n, *method],
    integer_texts(-5, 10**30),
    st.sampled_from([[], *(["--method", m] for m in
                           ("recurrence", "christoffel", "subwords", "zeta", "all"))]),
)
# verify would run up to the bounds " 7 " and "1_000" read as
VERIFY_TEXTS = st.sampled_from(["x", "1e3"])
ONE_WORD = WORD_TEXTS.map(lambda w: [w])
ARGS_BY_COMMAND = {
    "psi": ONE_WORD,
    "closure": ONE_WORD,
    "directive": ONE_WORD,
    "occ": ONE_WORD,
    "christoffel": st.one_of(
        FRACTION_TEXTS.map(lambda f: [f"--slope={f}"]),
        FRACTION_TEXTS.map(lambda f: ["--slope", f]),
        WORD_TEXTS.map(lambda w: ["--directive", w]),
    ),
    "stern": STERN_ARGS,
    "tree": st.builds(
        lambda target, flavor: [*target, *flavor],
        st.one_of(ONE_WORD, FRACTION_TEXTS.map(lambda f: ["--fraction", f])),
        OPTIONAL_FLAVOR,
    ),
    "dist": integer_texts(-5, 14).map(lambda k: [k]),
    "verify": st.builds(
        lambda k, n: ["--max-k", k, "--max-n", n],
        st.one_of(st.integers(-5, 4).map(str), VERIFY_TEXTS),
        st.one_of(st.integers(-5, 64).map(str), VERIFY_TEXTS),
    ),
}
GLOBAL_OPTIONS = st.builds(
    lambda fmt, alphabet: [*fmt, *alphabet],
    st.sampled_from([[], ["--format", "text"], ["--format", "json"], ["--format", "csv"]]),
    st.sampled_from([[], ["--alphabet", "ab"], ["--alphabet", "01"]]),
)


def test_fuzzed_argv_covers_every_listed_command():
    assert sorted(listed_commands()) == sorted(ARGS_BY_COMMAND)


@settings(deadline=None, max_examples=500)
@given(st.data())
def test_fuzzed_argv_exits_with_a_documented_code(data):
    options = data.draw(GLOBAL_OPTIONS)
    command = data.draw(st.sampled_from(sorted(ARGS_BY_COMMAND)))
    argv = [*options, command, *data.draw(ARGS_BY_COMMAND[command])]
    code, _, err = outcome(argv)
    may_disagree = command == "verify" or argv[-2:] == ["--method", "all"]
    assert code in {0, 2, 3, 4, 5} or (code == 6 and may_disagree), argv
    assert "Traceback" not in err
