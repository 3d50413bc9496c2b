"""Spans around the calls into each ``diatomic`` module, for traced runs.

The benchmark wraps public entry points from the outside: every module
global bound to a wrapped function is rebound to its wrapper, so calls
between library modules are recorded as well as the benchmark's own.
A span holds a name, start, end and the id of the span that was open
when it began.  Spans stay in flat arrays while the run works and are
written out once, when it ends.
"""

from __future__ import annotations

import gzip
import sys
import time
from array import array
from collections import defaultdict
from typing import Callable


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_of = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack: list[int] = []
        self.counters: dict[str, int] = defaultdict(int)

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(
        self,
        fn: Callable,
        name: str,
        after: Callable[["Tracer", int, tuple, object], None] | None = None,
    ) -> Callable:
        """``fn`` recording one span per call; ``after(tracer, span, args,
        result)`` runs outside the span to update counters."""
        nid = self.name_id(name)
        name_of, parent, start, end = self.name_of, self.parent, self.start, self.end
        stack = self.stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            sid = len(start)
            name_of.append(nid)
            parent.append(stack[-1] if stack else -1)
            end.append(0.0)
            stack.append(sid)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[sid] = clock()
                stack.pop()
            if after is not None:
                after(self, sid, args, result)
            return result

        return traced

    def totals(self) -> tuple[dict[str, float], dict[str, float], dict[str, int]]:
        """Per span name: total time, total self time and number of spans."""
        covered = array("d", bytes(8 * len(self.start)))
        start, end, parent = self.start, self.end, self.parent
        for sid in range(len(start)):
            up = parent[sid]
            if up >= 0:
                covered[up] += end[sid] - start[sid]
        total_s: dict[str, float] = defaultdict(float)
        self_s: dict[str, float] = defaultdict(float)
        calls: dict[str, int] = defaultdict(int)
        for sid in range(len(start)):
            name = self.names[self.name_of[sid]]
            total_s[name] += end[sid] - start[sid]
            self_s[name] += end[sid] - start[sid] - covered[sid]
            calls[name] += 1
        return total_s, self_s, calls

    def write(self, path) -> None:
        """All spans as gzip-compressed tab-separated lines."""
        names, name_of, parent, start, end = (
            self.names, self.name_of, self.parent, self.start, self.end
        )
        with gzip.open(path, "wt", compresslevel=1) as out:
            out.write("id\tparent\tname\tstart_s\tend_s\n")
            for sid in range(len(start)):
                out.write(
                    f"{sid}\t{parent[sid]}\t{names[name_of[sid]]}"
                    f"\t{start[sid]:.9f}\t{end[sid]:.9f}\n"
                )


def _count(counter: str, measure: Callable[[tuple, object], int]):
    def after(tracer: Tracer, sid: int, args: tuple, result: object) -> None:
        tracer.counters[counter] += measure(args, result)

    return after


def _name_check(tracer: Tracer, sid: int, args: tuple, result) -> None:
    tracer.name_of[sid] = tracer.name_id("verify." + result.name)


#: (module, function, span name, counter hook).  Only entry points that
#: do real work per call are wrapped; small helpers such as
#: ``period_pair`` would be swamped by the wrapper.  ``stern`` is the
#: exception: a memo hit is cheap, but its call count is a metric.
TARGETS = (
    ("palindromes", "psi", "palindromes.psi",
     _count("palindromes.psi.letters", lambda a, r: len(r))),
    ("palindromes", "psi_inverse", "palindromes.psi_inverse", None),
    ("palindromes", "psi_prefix", "palindromes.psi_prefix", None),
    ("palindromes", "pal_closure", "palindromes.pal_closure",
     _count("palindromes.pal_closure.letters", lambda a, r: len(r))),
    ("christoffel", "christoffel_by_slope", "christoffel.by_slope", None),
    ("christoffel", "christoffel_by_directive", "christoffel.by_directive", None),
    ("christoffel", "lyndon_factorization", "christoffel.lyndon_factorization", None),
    ("trees", "path_of_fraction", "trees.path_of_fraction",
     _count("trees.path_letters", lambda a, r: len(r))),
    ("trees", "tree_node", "trees.tree_node", None),
    ("continuants", "mirror_formula", "continuants.mirror_formula", None),
    ("continuants", "christoffel_length_cf", "continuants.christoffel_length_cf", None),
    ("stern", "stern", "stern.stern", None),
    ("stern", "stern_via_christoffel", "stern.routes", None),
    ("stern", "stern_via_subwords", "stern.routes", None),
    ("stern", "stern_via_zeta", "stern.via_zeta", None),
    ("stern", "marked_occurrences", "stern.marked_occurrences", None),
    ("distribution", "histogram", "distribution.histogram",
     _count("distribution.leaves", lambda a, r: 2 ** a[0])),
    ("distribution", "bound_report", "distribution.bound_report", None),
    ("distribution", "counts_for_length", "distribution.counts_for_length", None),
    ("words", "min_period", "words.min_period", None),
    ("cli", "main", "cli.main", None),
)


def install(tracer: Tracer) -> None:
    """Rebind every wrapped function in every loaded ``diatomic`` module."""
    modules = [m for name, m in sys.modules.items()
               if name == "diatomic" or name.startswith("diatomic.")]
    for module_name, fn_name, span, after in TARGETS:
        original = getattr(sys.modules[f"diatomic.{module_name}"], fn_name)
        _rebind(modules, original, tracer.wrap(original, span, after))
    verify = sys.modules["diatomic.verify"]
    for i, check in enumerate(verify.ALL_CHECKS):
        wrapped = tracer.wrap(check, "verify." + check.__name__, _name_check)
        verify.ALL_CHECKS[i] = wrapped
        _rebind(modules, check, wrapped)


def _rebind(modules: list, original: Callable, wrapped: Callable) -> None:
    for module in modules:
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, wrapped)
