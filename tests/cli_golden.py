"""The CLI's output pins, read from ``cli_golden.txt`` beside this file.

Each line of the corpus pins one run of ``diatomic``::

    exit  bytes  sha256  seconds  argv...

the exit code, the byte count and sha256 of stdout, a time limit in
seconds, and the arguments after ``diatomic``, split as a POSIX shell
splits them.  Inside an argument, ``{text*count}`` stands for ``text``
repeated ``count`` times, so ``1/{1*4400}`` is a fraction of 4,400-digit
denominator and ``{ab*60000}`` a word of 120,000 letters.  Every line
pins stdout, the empty stdout of a refusal too; stderr and help text are
not pinned.  A line that starts with ``#`` says why the lines below it
are pinned; blank lines part groups.

Tier-1 runs every line through ``cli.main`` in process
(``test_cli.py``).  Run as a script, this module runs every line through
the installed ``diatomic`` console script, stdout read from a pipe, and
lists each line whose run differs::

    python tests/cli_golden.py
"""

from __future__ import annotations

import hashlib
import re
import shlex
import subprocess
import sys
from pathlib import Path
from typing import NamedTuple

CORPUS = Path(__file__).with_name("cli_golden.txt")
_REPEAT = re.compile(r"\{([^{}*]*)\*(\d+)\}")


class Pin(NamedTuple):
    code: int
    size: int
    sha256: str
    seconds: float
    #: the argv as written in the corpus, and expanded
    text: str
    argv: tuple[str, ...]


def pins() -> list[Pin]:
    """The corpus's lines, in file order."""
    found = []
    for line in CORPUS.read_text().splitlines():
        if line.strip() and not line.startswith("#"):
            code, size, sha256, seconds, text = line.split(maxsplit=4)
            argv = tuple(_REPEAT.sub(lambda m: m[1] * int(m[2]), arg) for arg in shlex.split(text))
            found.append(Pin(int(code), int(size), sha256, float(seconds), text, argv))
    return found


def run_installed(pin: Pin) -> tuple[int, int, str]:
    """The exit code, stdout byte count and stdout sha256 of ``pin``'s
    argv run by the installed console script, as ``pin[:3]`` holds them;
    past the pin's time limit, ``subprocess.TimeoutExpired``."""
    done = subprocess.run(
        ["diatomic", *pin.argv],
        stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, timeout=pin.seconds,
    )
    return done.returncode, len(done.stdout), hashlib.sha256(done.stdout).hexdigest()


def main() -> int:
    corpus = pins()
    failed = 0
    for pin in corpus:
        try:
            got = run_installed(pin)
        except subprocess.TimeoutExpired:
            got = f"timed out after {pin.seconds:g} s"
        if got != pin[:3]:
            failed += 1
            print(f"FAIL  {pin.text}\n  expected {pin[:3]}\n  got      {got}")
    print(f"{len(corpus) - failed}/{len(corpus)} pins held")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
