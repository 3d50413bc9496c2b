"""Command-line interface.

Every library operation is reachable from a subcommand; ``verify``
replays the cross-route identity suite.  Exit codes are fixed so the
tool can be scripted:

    0  success
    1  stdout was closed by its reader before the output ended
    2  parse error (words, fractions, integers, flag combinations)
    3  input is not in the requested class (not central / not Christoffel)
    4  a size budget would be exceeded
    5  an arithmetic precondition fails (non-coprime slope, n out of range)
    6  internal disagreement (a verification or cross-check failed)

Words are written over {a, b}, or over {0, 1} with ``--alphabet 01``;
the empty word is written ``eps``.  JSON output always uses the a/b
spelling so that parsed values round-trip through the library.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
from typing import Any, Callable, Sequence

from . import verify as verify_mod
from .christoffel import (
    ChristoffelWord,
    christoffel_by_directive,
    christoffel_by_slope,
    lyndon_factorization,
)
from .distribution import histogram, summarize_histogram
from .fracs import split_frac
from .palindromes import pal_closure, period_pair, psi, psi_inverse
from .stern import (
    marked_occurrences,
    stern,
    stern_via_christoffel,
    stern_via_subwords,
    stern_via_zeta,
)
from .trees import path_of_fraction, tree_node
from .words import BudgetError, check_word

EXIT_OK = 0
EXIT_CLOSED_PIPE = 1
EXIT_PARSE = 2
EXIT_NOT_IN_CLASS = 3
EXIT_BUDGET = 4
EXIT_PRECONDITION = 5
EXIT_DISAGREE = 6

#: Text tables refuse to render more rows than this; json/csv still may.
TEXT_ROW_LIMIT = 10**5

_FROM_01 = str.maketrans("01", "ab")
_TO_01 = str.maketrans("ab", "01")


class _ParseFailure(Exception):
    pass


def _parse_word(text: str, alphabet: str) -> str:
    if text in ("eps", ""):
        return ""
    if alphabet == "01":
        if text.strip("01"):
            raise _ParseFailure(f"not a word over {{0,1}}: {text!r}")
        text = text.translate(_FROM_01)
    return _parsed(check_word, text)


def _parsed(parse: Callable[[str], Any], text: str) -> Any:
    """``parse(text)``, its ValueError turned into a parse failure."""
    try:
        return parse(text)
    except ValueError as exc:
        raise _ParseFailure(str(exc)) from None


def _bound(text: str) -> int:
    """A non-negative integer bound; argparse reports the rejection."""
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"bounds are non-negative: {value}")
    return value


def _render_word(w: str, alphabet: str) -> str:
    if not w:
        return "eps"
    return w.translate(_TO_01) if alphabet == "01" else w


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="diatomic",
        description="Christoffel words, tree labelings, and Stern's diatomic sequence.",
    )
    parser.add_argument(
        "--format", choices=("text", "json", "csv"), default="text",
        help="output format (csv only for tabular commands)",
    )
    parser.add_argument(
        "--alphabet", choices=("ab", "01"), default="ab",
        help="letter spelling used to read and print words",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("psi", help="palindromization image of a directive word")
    p.add_argument("word")

    p = sub.add_parser("closure", help="right palindromic closure of a word")
    p.add_argument("word")

    p = sub.add_parser("directive", help="directive word of a central word")
    p.add_argument("word")

    p = sub.add_parser("christoffel", help="build a Christoffel word and factor it")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--slope", help="irreducible fraction p/q")
    group.add_argument("--directive", help="directive word")

    p = sub.add_parser("stern", help="Stern sequence values")
    p.add_argument("n")
    p.add_argument(
        "--method",
        choices=("recurrence", "christoffel", "subwords", "zeta", "all"),
        default="recurrence",
    )

    p = sub.add_parser("occ", help="marked pattern occurrences spelling a standard word")
    p.add_argument("word")

    p = sub.add_parser("tree", help="node number and tree labels of a path")
    p.add_argument("path", nargs="?")
    p.add_argument("--fraction", help="look a label up instead of giving a path")
    p.add_argument("--flavor", choices=("raney", "sternbrocot"), default="raney")

    p = sub.add_parser("dist", help="length distribution of one order")
    p.add_argument("k", type=int)

    p = sub.add_parser("verify", help="run the identity suite")
    p.add_argument("--max-k", type=_bound, default=verify_mod.DEFAULT_MAX_K)
    p.add_argument("--max-n", type=_bound, default=verify_mod.DEFAULT_MAX_N)

    return parser


def _emit(args: argparse.Namespace, text_lines: list[str], payload: dict,
          csv_rows: list[list] | None = None, csv_header: list[str] | None = None) -> int:
    if args.format == "json":
        print(json.dumps(payload, sort_keys=True))
    elif args.format == "csv":
        if csv_rows is None:
            print(f"csv output is not available for '{args.command}'", file=sys.stderr)
            return EXIT_PARSE
        writer = csv.writer(sys.stdout, lineterminator="\n")
        if csv_header:
            writer.writerow(csv_header)
        writer.writerows(csv_rows)
    else:
        for line in text_lines:
            print(line)
    return EXIT_OK


def _cmd_psi(args: argparse.Namespace) -> int:
    v = _parse_word(args.word, args.alphabet)
    w = psi(v)
    pa, pb = period_pair(v)
    line = f"{_render_word(w, args.alphabet)} (|.|={len(w)}, p_a={pa}, p_b={pb})"
    return _emit(args, [line], {"directive": v, "word": w, "length": len(w), "p_a": pa, "p_b": pb})


def _cmd_closure(args: argparse.Namespace) -> int:
    w = _parse_word(args.word, args.alphabet)
    closed = pal_closure(w)
    line = f"{_render_word(closed, args.alphabet)} (|.|={len(closed)})"
    return _emit(args, [line], {"word": w, "closure": closed, "length": len(closed)})


def _cmd_directive(args: argparse.Namespace) -> int:
    w = _parse_word(args.word, args.alphabet)
    v = psi_inverse(w)
    if v is None:
        print(f"{args.word} is not a central word", file=sys.stderr)
        return EXIT_NOT_IN_CLASS
    line = f"{_render_word(v, args.alphabet)} (order {len(v)})"
    return _emit(args, [line], {"word": w, "directive": v, "order": len(v)})


def _christoffel_payload(cw: ChristoffelWord, alphabet: str) -> tuple[list[str], dict]:
    lines = [
        f"word: {_render_word(cw.word, alphabet)}",
        f"slope: {cw.slope}",
        f"order: {cw.order if cw.proper else '-'}",
        f"directive: {_render_word(cw.directive, alphabet) if cw.proper else '-'}",
    ]
    payload: dict = {
        "word": cw.word,
        "slope": {"num": cw.slope.num, "den": cw.slope.den},
        "order": cw.order,
        "directive": cw.directive,
    }
    if cw.proper:
        w1, w2 = lyndon_factorization(cw)
        n = len(cw.word)
        inv1 = (len(w1.word) * cw.slope.num) % n
        inv2 = (len(w2.word) * cw.slope.den) % n
        lines += [
            f"factors: {_render_word(w1.word, alphabet)} {_render_word(w2.word, alphabet)}",
            f"factor lengths: {len(w1.word)} {len(w2.word)}",
            f"inverse check: {len(w1.word)}*{cw.slope.num} = {inv1},"
            f" {len(w2.word)}*{cw.slope.den} = {inv2} (mod {n})",
        ]
        payload["factors"] = [w1.word, w2.word]
        payload["inverse_check"] = [inv1, inv2]
        if inv1 != 1 or inv2 != 1:
            raise AssertionError("factor lengths are not modular inverses of the slope")
    return lines, payload


def _cmd_christoffel(args: argparse.Namespace) -> int:
    if args.slope is not None:
        p, q = _parsed(split_frac, args.slope)
        cw = christoffel_by_slope(p, q)
    else:
        cw = christoffel_by_directive(_parse_word(args.directive, args.alphabet))
    lines, payload = _christoffel_payload(cw, args.alphabet)
    return _emit(args, lines, payload)


def _cmd_stern(args: argparse.Namespace) -> int:
    try:
        n = int(args.n)
    except ValueError:
        raise _ParseFailure(f"not an integer: {args.n!r}") from None
    methods = {
        "recurrence": stern,
        "christoffel": stern_via_christoffel,
        "subwords": stern_via_subwords,
        "zeta": stern_via_zeta,
    }
    if args.method != "all":
        value = methods[args.method](n)
        return _emit(args, [str(value)], {"n": n, "method": args.method, "value": value})
    values = {name: fn(n) for name, fn in methods.items() if name != "zeta" or n >= 2}
    lines = [f"{name}: {value}" for name, value in values.items()]
    if len(set(values.values())) != 1:
        for line in lines:
            print(line, file=sys.stderr)
        print("evaluators disagree", file=sys.stderr)
        return EXIT_DISAGREE
    return _emit(args, lines, {"n": n, "values": values})


def _cmd_occ(args: argparse.Namespace) -> int:
    w = _parse_word(args.word, args.alphabet)
    markers, rows = marked_occurrences(w)
    if args.format == "text" and len(rows) > TEXT_ROW_LIMIT:
        print(
            f"{len(rows)} rows exceed the text limit of {TEXT_ROW_LIMIT};"
            " use --format json or csv",
            file=sys.stderr,
        )
        return EXIT_BUDGET
    lines = ["marker  key  occurrence"]
    lines += [
        f"{m.marker}  {','.join(map(str, m.reversed_key))}"
        f"  {','.join(map(str, m.occurrence))}"
        for m in rows
    ]
    lines.append(f"word: {_render_word(markers, args.alphabet)}")
    payload = {
        "word": w,
        "markers": markers,
        "occurrences": [
            {"marker": m.marker, "key": list(m.reversed_key), "positions": list(m.occurrence)}
            for m in rows
        ],
    }
    csv_rows = [
        [m.marker, ",".join(map(str, m.reversed_key)), ",".join(map(str, m.occurrence))]
        for m in rows
    ]
    return _emit(args, lines, payload, csv_rows, ["marker", "key", "occurrence"])


def _cmd_tree(args: argparse.Namespace) -> int:
    if (args.path is None) == (args.fraction is None):
        print("give exactly one of a path word or --fraction", file=sys.stderr)
        return EXIT_PARSE
    if args.fraction is not None:
        p, q = _parsed(split_frac, args.fraction)
        path = path_of_fraction((p, q), args.flavor)
    else:
        path = _parse_word(args.path, args.alphabet)
    node = tree_node(path)
    lines = [
        f"path: {_render_word(node.path, args.alphabet)}",
        f"nu: {node.number}",
        f"raney: {node.raney}",
        f"sternbrocot: {node.sternbrocot}",
    ]
    payload = {
        "path": node.path,
        "nu": node.number,
        "raney": {"num": node.raney.num, "den": node.raney.den},
        "sternbrocot": {"num": node.sternbrocot.num, "den": node.sternbrocot.den},
    }
    return _emit(args, lines, payload)


def _cmd_dist(args: argparse.Namespace) -> int:
    h = histogram(args.k)
    s = summarize_histogram(h)
    lines = [
        f"k: {s.order}",
        f"words: {h.mass}",
        f"total length: {h.weighted_mass}",
        f"max count: {s.max_count}",
        f"argmax: {' '.join(map(str, s.argmax))}",
        f"missing: {' '.join(map(str, s.missing)) or '-'}",
        f"missing count: {s.missing_count}",
        "histogram:",
    ]
    lines += [f"  {n} {c}" for n, c in sorted(h.counts.items())]
    payload = {
        "k": s.order,
        "M_k": s.max_count,
        "argmax": s.argmax,
        "missing": s.missing,
        "missing_count": s.missing_count,
    }
    csv_rows = [[s.order, n, c] for n, c in sorted(h.counts.items())]
    return _emit(args, lines, payload, csv_rows, ["k", "n", "count"])


def _cmd_verify(args: argparse.Namespace) -> int:
    results = verify_mod.run_checks(args.max_k, args.max_n)
    passed = sum(res.ok for res in results)
    lines = [
        f"{'PASS' if res.ok else 'FAIL'}  {res.name}  ({res.detail})" for res in results
    ]
    lines.append(f"{passed}/{len(results)} checks passed")
    payload = {
        "checks": [res._asdict() for res in results],
        "passed": passed,
        "total": len(results),
    }
    csv_rows = [[res.name, str(res.ok).lower(), res.detail] for res in results]
    _emit(args, lines, payload, csv_rows, ["name", "ok", "detail"])
    return EXIT_OK if passed == len(results) else EXIT_DISAGREE


_HANDLERS = {
    "psi": _cmd_psi,
    "closure": _cmd_closure,
    "directive": _cmd_directive,
    "christoffel": _cmd_christoffel,
    "stern": _cmd_stern,
    "occ": _cmd_occ,
    "tree": _cmd_tree,
    "dist": _cmd_dist,
    "verify": _cmd_verify,
}


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _HANDLERS[args.command](args)
    except _ParseFailure as exc:
        print(str(exc), file=sys.stderr)
        return EXIT_PARSE
    except BudgetError as exc:
        print(str(exc), file=sys.stderr)
        return EXIT_BUDGET
    except ValueError as exc:
        print(str(exc), file=sys.stderr)
        return EXIT_PRECONDITION
    except AssertionError as exc:
        print(str(exc), file=sys.stderr)
        return EXIT_DISAGREE


def entry() -> None:
    try:
        code = main()
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader left early (``| head``); send the interpreter's final
        # flush to the null device so it cannot raise a second time
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = EXIT_CLOSED_PIPE
    raise SystemExit(code)


if __name__ == "__main__":
    entry()
