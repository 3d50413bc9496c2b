"""Command-line interface.

Each subcommand runs one construction, recognizer or lookup, and
``verify`` replays the cross-route identity suite; the rest of the
library (bound reports, per-length order counts, prefixes of infinite
images, marked morphisms, subword counts) has no subcommand and is
called from Python.  A command refuses by raising; ``main`` alone prints
the message and maps it to an exit code, fixed so the tool can be scripted:

    0  success
    1  stdout was closed by its reader before the output ended
    2  parse error (words, fractions, integers, flag combinations)
    3  input is not in the requested class (not a central word)
    4  a size budget would be exceeded
    5  an arithmetic precondition fails (non-coprime slope, n out of range)
    6  internal disagreement (a verification or cross-check failed)

Words are written over {a, b}, or over {0, 1} with ``--alphabet 01``;
the empty word is written ``eps``.  JSON output always uses the a/b
spelling so that parsed values round-trip through the library.

Each subcommand is declared once, as its subparser: its arguments, its
handler and, for the commands that print a table, its csv header.
``main`` builds that parser once per process, on its first call, so a
further in-process call costs only parsing and its handler.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import re
import sys
from functools import cache
from itertools import chain, islice
from typing import Iterable, Sequence

from . import verify as verify_mod
from .christoffel import (
    christoffel_by_directive,
    christoffel_by_slope,
    lyndon_factorization,
)
from .distribution import histogram
from .palindromes import pal_closure, period_pair, psi, psi_inverse
from .stern import (
    marked_occurrences,
    stern,
    stern_via_christoffel,
    stern_via_subwords,
    stern_via_zeta,
)
from .trees import path_of_fraction, tree_node
from .words import _FROM_DIGITS, _TO_DIGITS, BudgetError

EXIT_OK = 0
EXIT_CLOSED_PIPE = 1
EXIT_PARSE = 2
EXIT_NOT_IN_CLASS = 3
EXIT_BUDGET = 4
EXIT_PRECONDITION = 5
EXIT_DISAGREE = 6

_INTEGER = re.compile(r"\s*[+-]?\d+(_\d+)*\s*")
#: A parse refusal quotes at most this many characters of each argument.
_QUOTED = 40


class _Refusal(Exception):
    """A command's refusal: ``main`` prints the message and exits with ``code``.

    The message is ``head``, then each (argument name, argv text) pair of
    ``arguments``: the name and at most ``_QUOTED`` characters of the
    text, with the text's length when it is cut.  Refusals pass argv text
    here rather than formatting it, so none echoes a long argument.
    """

    def __init__(self, code: int, head: str, arguments: Sequence[tuple[str, str]] = ()):
        quoted = ", ".join(
            f"{argument} {text!r}" if len(text) <= _QUOTED
            else f"{argument} {text[:_QUOTED]!r}... ({len(text)} characters)"
            for argument, text in arguments
        )
        super().__init__(f"{head}: {quoted}" if quoted else head)
        self.code = code


def _parse_word(argument: str, text: str, alphabet: str) -> str:
    if text in ("eps", ""):
        return ""
    if text.strip(alphabet):  # the alphabet's name is its two letters
        head = f"not a word over {{{alphabet[0]},{alphabet[1]}}}"
        raise _Refusal(EXIT_PARSE, head, [(argument, text)])
    return text.translate(_FROM_DIGITS) if alphabet == "01" else text


def _integers(arguments: Sequence[tuple[str, str]], name: str, head: str = "not an integer",
              texts: Sequence[str] | None = None) -> list[int]:
    """The integers spelled by the texts of ``arguments``, (argument name,
    argv text) pairs, or by ``texts`` when given, which are read from them.

    A malformed one is a parse refusal, ``head`` followed by the quoted
    ``arguments``.  When all are well formed, one with more digits than
    Python converts is a budget, named by ``name``.
    """
    if texts is None:
        texts = [text for _, text in arguments]
    try:
        return [int(text) for text in texts]
    except ValueError:
        if all(map(_INTEGER.fullmatch, texts)):
            raise BudgetError(
                f"{name} has more than {sys.get_int_max_str_digits()} digits,"
                " the limit of integer string conversion"
            ) from None
        raise _Refusal(EXIT_PARSE, head, arguments) from None


def _fraction(argument: str, text: str) -> tuple[int, ...]:
    """Unreduced (p, q) of "p/q", or (p, 1) of a bare integer "p"."""
    num_text, sep, den_text = text.partition("/")
    texts = (num_text, den_text if sep else "1")
    return tuple(_integers([(argument, text)], "a fraction part", "not a fraction", texts))


def _render_word(w: str, alphabet: str) -> str:
    if not w:
        return "eps"
    return w.translate(_TO_DIGITS) if alphabet == "01" else w


@cache
def _parser() -> tuple[argparse.ArgumentParser, list[str]]:
    # main's parser, built on its first call rather than at import;
    # argparse keeps no state between parses and writes to sys.stdout
    # and sys.stderr as they are at call time, so one parser serves all.
    # Each subparser carries its handler as ``run`` and the header of its
    # csv table as ``csv_header``; main refuses csv where that is None.
    # With it come the names of the fraction options, whose value may start with "-".
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
    p.set_defaults(run=_cmd_psi, csv_header=None)

    p = sub.add_parser("closure", help="right palindromic closure of a word")
    p.add_argument("word")
    p.set_defaults(run=_cmd_closure, csv_header=None)

    p = sub.add_parser("directive", help="directive word of a central word")
    p.add_argument("word")
    p.set_defaults(run=_cmd_directive, csv_header=None)

    p = sub.add_parser("christoffel", help="build a Christoffel word and factor it")
    group = p.add_mutually_exclusive_group(required=True)
    fractions = [group.add_argument("--slope", help="irreducible fraction p/q")]
    group.add_argument("--directive", help="directive word")
    p.set_defaults(run=_cmd_christoffel, csv_header=None)

    p = sub.add_parser("stern", help="Stern sequence values")
    p.add_argument("n")
    p.add_argument(
        "--method",
        choices=("recurrence", "christoffel", "subwords", "zeta", "all"),
        default="recurrence",
    )
    p.set_defaults(run=_cmd_stern, csv_header=None)

    p = sub.add_parser("occ", help="marked pattern occurrences spelling a standard word")
    p.add_argument("word")
    p.set_defaults(run=_cmd_occ, csv_header=("marker", "key", "occurrence"))

    # argparse draws no group that mixes a positional with an option, so
    # tree's usage line is written out to show that exactly one is given
    flavors = ("raney", "sternbrocot")
    p = sub.add_parser(
        "tree", help="node number and tree labels of a path",
        usage="%(prog)s [-h] [--flavor {" + ",".join(flavors) + "}] (path | --fraction FRACTION)",
    )
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("path", nargs="?")
    fractions.append(
        group.add_argument("--fraction", help="look a label up instead of giving a path"))
    p.add_argument("--flavor", choices=flavors, default="raney")
    p.set_defaults(run=_cmd_tree, csv_header=None)

    p = sub.add_parser("dist", help="length distribution of one order")
    p.add_argument("k")
    p.set_defaults(run=_cmd_dist, csv_header=("k", "n", "count"))

    p = sub.add_parser("verify", help="run the identity suite")
    p.add_argument("--max-k", default=str(verify_mod.DEFAULT_MAX_K))
    p.add_argument("--max-n", default=str(verify_mod.DEFAULT_MAX_N))
    p.set_defaults(run=_cmd_verify, csv_header=("name", "ok", "detail"))

    return parser, [name for action in fractions for name in action.option_strings]


def _write_lines(lines: Iterable[str]) -> None:
    # a few thousand lines at a time, so no table is held whole as text;
    # each chunk's last newline is joined in, not concatenated
    lines = iter(lines)
    while chunk := list(islice(lines, 4096)):
        chunk.append("")
        sys.stdout.write("\n".join(chunk))


def _emit(args: argparse.Namespace, text_lines: Iterable[str], payload: dict,
          csv_rows: Iterable[Sequence] = ()) -> int:
    if args.format == "json":
        print(json.dumps(payload, sort_keys=True))
    elif args.format == "csv":
        writer = csv.writer(sys.stdout, lineterminator="\n")
        writer.writerow(args.csv_header)
        writer.writerows(csv_rows)
    else:
        _write_lines(text_lines)
    return EXIT_OK


def _cmd_psi(args: argparse.Namespace) -> int:
    v = _parse_word("word", args.word, args.alphabet)
    w = psi(v)
    pa, pb = period_pair(v)
    line = f"{_render_word(w, args.alphabet)} (|.|={len(w)}, p_a={pa}, p_b={pb})"
    return _emit(args, [line], {"directive": v, "word": w, "length": len(w), "p_a": pa, "p_b": pb})


def _cmd_closure(args: argparse.Namespace) -> int:
    w = _parse_word("word", args.word, args.alphabet)
    closed = pal_closure(w)
    line = f"{_render_word(closed, args.alphabet)} (|.|={len(closed)})"
    return _emit(args, [line], {"word": w, "closure": closed, "length": len(closed)})


def _cmd_directive(args: argparse.Namespace) -> int:
    w = _parse_word("word", args.word, args.alphabet)
    v = psi_inverse(w)
    if v is None:
        raise _Refusal(EXIT_NOT_IN_CLASS, "not a central word", [("word", args.word)])
    line = f"{_render_word(v, args.alphabet)} (order {len(v)})"
    return _emit(args, [line], {"word": w, "directive": v, "order": len(v)})


def _cmd_christoffel(args: argparse.Namespace) -> int:
    if args.slope is not None:
        cw = christoffel_by_slope(*_fraction("--slope", args.slope))
    else:
        cw = christoffel_by_directive(_parse_word("--directive", args.directive, args.alphabet))
    lines = [
        f"word: {_render_word(cw.word, args.alphabet)}",
        f"slope: {cw.slope}",
        f"order: {cw.order if cw.proper else '-'}",
        f"directive: {_render_word(cw.directive, args.alphabet) if cw.proper else '-'}",
    ]
    payload: dict = {
        "word": cw.word,
        "slope": cw.slope._asdict(),
        "order": cw.order,
        "directive": cw.directive,
    }
    if cw.proper:
        w1, w2 = lyndon_factorization(cw)
        n = len(cw.word)
        inv1 = (len(w1.word) * cw.slope.num) % n
        inv2 = (len(w2.word) * cw.slope.den) % n
        lines += [
            f"factors: {_render_word(w1.word, args.alphabet)}"
            f" {_render_word(w2.word, args.alphabet)}",
            f"factor lengths: {len(w1.word)} {len(w2.word)}",
            f"inverse check: {len(w1.word)}*{cw.slope.num} = {inv1},"
            f" {len(w2.word)}*{cw.slope.den} = {inv2} (mod {n})",
        ]
        payload["factors"] = [w1.word, w2.word]
        payload["inverse_check"] = [inv1, inv2]
        if inv1 != 1 or inv2 != 1:
            raise _Refusal(EXIT_DISAGREE, "factor lengths are not modular inverses of the slope")
    return _emit(args, lines, payload)


def _cmd_stern(args: argparse.Namespace) -> int:
    # s(n) <= n, so any n that converts also prints
    (n,) = _integers([("n", args.n)], "n")
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
        raise _Refusal(EXIT_DISAGREE, "\n".join([*lines, "evaluators disagree"]))
    return _emit(args, lines, {"n": n, "values": values})


def _cmd_occ(args: argparse.Namespace) -> int:
    w = _parse_word("word", args.word, args.alphabet)
    markers, rows = marked_occurrences(w)
    if args.format == "json":
        # each row is written as it is made, in the bytes of
        # json.dumps(payload, sort_keys=True), so no row is held as a dict
        write = sys.stdout.write
        write(f'{{"markers": {json.dumps(markers)}, "occurrences": [')
        for i, (m, key) in enumerate(zip(markers, rows)):
            write(f'{", " if i else ""}{{"key": {list(key)}, "marker": "{m}",'
                  f' "positions": {list(key[::-1])}}}')
        write(f'], "word": {json.dumps(w)}}}\n')
        return EXIT_OK
    # text and csv spell the markers in the chosen alphabet, column and word
    # alike, and read the same lazy cells, each format in its own lines
    shown = _render_word(markers, args.alphabet)
    # a key's positions are those of b w b, 1 to len(w) + 2: each is spelled once
    spell = [str(i) for i in range(len(w) + 3)].__getitem__
    cells = (
        (m, ",".join(map(spell, key)), ",".join(map(spell, key[::-1])))
        for m, key in zip(shown, rows)
    )
    if args.format == "csv":
        # csv.writer's bytes, preformatted: a key and its occurrence list
        # the same positions, so both are quoted exactly when they hold a
        # comma, and a marker never needs quotes
        _write_lines(chain(
            [",".join(args.csv_header)],
            (f'{m},"{key}","{occ}"' if "," in key else f"{m},{key},{occ}"
             for m, key, occ in cells),
        ))
        return EXIT_OK
    table = map("  ".join, chain([args.csv_header], cells))
    return _emit(args, chain(table, [f"word: {shown}"]), {})


def _cmd_tree(args: argparse.Namespace) -> int:
    if args.fraction is not None:
        path = path_of_fraction(_fraction("--fraction", args.fraction), args.flavor)
    else:
        path = _parse_word("path", args.path, args.alphabet)
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
        "raney": node.raney._asdict(),
        "sternbrocot": node.sternbrocot._asdict(),
    }
    return _emit(args, lines, payload)


def _cmd_dist(args: argparse.Namespace) -> int:
    (k,) = _integers([("k", args.k)], "k")
    # the tally is indexed by length; each format reads only the figures it prints
    h = histogram(k)
    if args.format == "csv":
        return _emit(args, [], {}, ((k, n, c) for n, c in enumerate(h.tally) if c))
    missing = h.missing
    if args.format == "json":
        payload = {
            "k": h.order,
            "M_k": h.max_count,
            "argmax": h.argmax,
            "missing": missing,
            "missing_count": len(missing),
        }
        return _emit(args, [], payload)
    lines = [
        f"k: {h.order}",
        f"words: {h.mass}",
        f"total length: {h.weighted_mass}",
        f"max count: {h.max_count}",
        f"argmax: {' '.join(map(str, h.argmax))}",
        f"missing: {' '.join(map(str, missing)) or '-'}",
        f"missing count: {len(missing)}",
        "histogram:",
    ]
    return _emit(args, chain(lines, (f"  {n} {c}" for n, c in enumerate(h.tally) if c)), {})


def _cmd_verify(args: argparse.Namespace) -> int:
    bounds = [("--max-k", args.max_k), ("--max-n", args.max_n)]
    max_k, max_n = _integers(bounds, "a bound", "bounds are integers")
    if min(max_k, max_n) < 0:
        raise _Refusal(EXIT_PARSE, "bounds are non-negative", bounds)
    results = verify_mod.run_checks(max_k, max_n)
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
    _emit(args, lines, payload, csv_rows)
    return EXIT_OK if passed == len(results) else EXIT_DISAGREE


def _attach_fraction_values(argv: Sequence[str], fraction_options: list[str]) -> list[str]:
    """``--slope -1/2`` as ``--slope=-1/2``, and so for each of
    ``fraction_options`` and the abbreviations argparse accepts.

    argparse reads a separate token that starts with "-" as an option
    unless it is a plain number, so a negative fraction would never
    reach the library; the attached form always does.
    """
    args: list[str] = []
    for token in argv:
        option = args[-1] if args else ""
        if (token[:1] == "-" and token[1:2].isdigit() and len(option) > 2
                and any(name.startswith(option) for name in fraction_options)):
            args[-1] = f"{option}={token}"
        else:
            args.append(token)
    return args


def main(argv: Sequence[str] | None = None) -> int:
    parser, fraction_options = _parser()
    argv = sys.argv[1:] if argv is None else argv
    args = parser.parse_args(_attach_fraction_values(argv, fraction_options))
    try:
        if args.format == "csv" and args.csv_header is None:
            raise _Refusal(EXIT_PARSE, f"csv output is not available for '{args.command}'")
        return args.run(args)
    except (_Refusal, BudgetError, ValueError) as exc:
        print(exc, file=sys.stderr)
        if isinstance(exc, _Refusal):
            return exc.code
        return EXIT_BUDGET if isinstance(exc, BudgetError) else EXIT_PRECONDITION


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
