import json
import subprocess
import sys
import time

import pytest

from diatomic.cli import main
from diatomic.stern import ZETA_ARGUMENT_CAP


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


def test_fraction_without_denominator(capsys):
    for argv in (("christoffel", "--slope", "3/"), ("tree", "--fraction", "3/")):
        code, out, err = run_cli(capsys, *argv)
        assert (code, out, err) == (2, "", "not a fraction: '3/'\n")


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
    # 1/134217731 has 134217729 central letters: inside PSI_LENGTH_BUDGET,
    # past the eighth of it that the slope route's list of letters may use
    for slope in ("1/2000000000", "1/134217731"):
        start = time.perf_counter()
        code, out, err = run_cli(capsys, "christoffel", "--slope", slope)
        assert code == 4 and out == "" and "budget" in err
        assert time.perf_counter() - start < 1


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


def test_occ_table(capsys):
    code, out, _ = run_cli(capsys, "occ", "abbaa")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "marker  key  occurrence"
    assert lines[1] == "a  7,6,4,2,1  1,2,4,6,7"
    assert lines[2] == "b  7,6,4  4,6,7"
    assert lines[-1] == "word: ababaababaababab" + "a"
    assert len(lines) == 2 + 17


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
