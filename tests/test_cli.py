import contextlib
import io
import json
import re
import subprocess
import sys
import time
from pathlib import Path

import pytest

from diatomic import cli
from diatomic.cli import main
from diatomic.distribution import MAX_ENUMERATED_ORDER
from diatomic.palindromes import PSI_LENGTH_BUDGET
from diatomic.stern import MARKED_OCCURRENCE_CAP, ZETA_ARGUMENT_CAP, marked_occurrences, stern


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
    assert code == 3
    assert not out and "not a central word" in err


def test_parse_error(capsys):
    code, _, err = run_cli(capsys, "psi", "abc")
    assert code == 2 and err


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


def test_stern_zeta_budget(capsys):
    for method in ("zeta", "all"):
        code, out, err = run_cli(capsys, "stern", str(ZETA_ARGUMENT_CAP + 1), "--method", method)
        assert code == 4 and out == "" and "cap" in err


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
    code, _, _ = run_cli(capsys, "tree")
    assert code == 2
    code, _, _ = run_cli(capsys, "tree", "ab", "--fraction", "1/2")
    assert code == 2


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
], ids=["psi", "christoffel-directive", "christoffel-slope", "occ", "dist", "dist-huge"])
def test_budget_refusal_names_only_the_bound(capsys, argv, bound):
    start = time.perf_counter()
    code, out, err = run_cli(capsys, *argv)
    assert time.perf_counter() - start < 0.1
    assert (code, out) == (4, "")
    assert str(bound) in err and len(err) < 200


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
    (["tree", "--fraction", f"{PAST_LIMIT}/x"], 2, f"not a fraction: '{PAST_LIMIT}/x'"),
    # paths past the budget are refused before any letter is written
    (["tree", "--fraction", "1/1000000000000"], 4, TREE_BUDGET),
    (["tree", "--fraction", "1000000000000/1"], 4, TREE_BUDGET),
    (["tree", "--fraction", f"1/{'2' * LIMIT}"], 4, TREE_BUDGET),
    # a path within the budget whose node number has too many digits to print
    (["tree", "--fraction", "1/15000"], 5, "Exceeds the limit"),
    (["tree", "--fraction", "4/7"], 0, ""),
    (["tree", "--fraction", "x/y"], 2, "not a fraction: 'x/y'"),
    (["tree", "--fraction", "3/"], 2, "not a fraction: '3/'\n"),
    (["christoffel", "--slope", "3/"], 2, "not a fraction: '3/'\n"),
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


def test_tree_fraction_reads_a_bare_integer_as_p_over_1(capsys):
    bare, full = (run_cli(capsys, "tree", "--fraction", f) for f in ("5", "5/1"))
    assert bare == full and bare[0] == 0


def test_occ_text_limit_refuses_before_enumerating(capsys, monkeypatch):
    # 560,597 rows: past the text limit, within the occurrence cap
    calls = []
    monkeypatch.setattr(cli, "marked_occurrences", calls.append)
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "occ", "ababababababababababababaaa")
    assert time.perf_counter() - start < 0.1
    assert (code, out, calls) == (4, "", [])
    assert err == "560597 rows exceed the text limit of 100000; use --format json or csv\n"


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
def test_verify_rejects_bad_bounds(capsys, bounds):
    with pytest.raises(SystemExit) as exc:
        main(["verify", *bounds])
    captured = capsys.readouterr()
    assert exc.value.code == 2 and captured.out == "" and bounds[0] in captured.err


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

    monkeypatch.setattr(verify, "ALL_CHECKS", [verify.check_stern_prefix, broken])
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


def test_shared_parser_help_matches_a_fresh_parser(monkeypatch, cold_parser):
    # the commands are those the usage line of --help offers, so a new one
    # is covered as soon as it has a subparser
    usage = outcome(["--help"])[1].split("\n\n", 1)[0]
    commands = re.findall(r"\{([^}]*)\}", usage)[-1].split(",")
    assert {"psi", "verify"} <= set(commands) and len(commands) >= 9
    argvs = [["--help"]] + [[command, "--help"] for command in commands]
    shared = [outcome(argv) for argv in argvs]
    assert shared == fresh_outcomes(monkeypatch, argvs)
    assert all(code == 0 and out.startswith("usage: diatomic") and not err
               for code, out, err in shared)
