"""Names and units of every metric the benchmark reports.

``BENCHMARK.json`` at the repository root lists the same names; the
self-test (``bench/selftest.py``) checks that the two agree and that
every run emits each of them with its unit.
"""

from __future__ import annotations

#: Metrics of untraced runs, reported on every workload.
END_TO_END = {
    "wall_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "ops_per_s": "ops/s",
    "op_p50_ms": "ms",
    "op_p99_ms": "ms",
    "letters_per_s": "letters/s",
}

#: Names that ``verify.run_checks`` gives its 21 checks, in suite order.
VERIFY_CHECKS = (
    "stern-prefix-values",
    "stern-evaluator-agreement",
    "odd-length-even-period",
    "palindromization-composition",
    "directive-roundtrips",
    "lyndon-factorization",
    "occurrence-markers",
    "pattern-subword-counts",
    "weighted-factor-decomposition",
    "tree-duality",
    "mirror-formula",
    "continuant-length-period",
    "tree-numbering-stern",
    "stern-identities",
    "integral-continuant-stern",
    "histogram-invariants",
    "published-table-pins",
    "length-bounds",
    "totient-identity",
    "fibonacci-word-prefix",
    "alternating-directives",
)

#: Operation kinds of the ``queries`` workload.
QUERY_KINDS = (
    "stern_memo",
    "stern_big",
    "stern_routes",
    "path_of_fraction",
    "tree_node",
    "mirror_formula",
    "christoffel_length_cf",
    "psi",
    "psi_inverse",
    "pal_closure",
    "christoffel_by_slope",
    "marked_occurrences",
    "counts_for_length",
    "histogram",
    "bound_report",
    "min_period",
    "is_lyndon",
    "cli_psi",
    "cli_christoffel",
    "cli_stern_all",
    "cli_tree_fraction",
    "cli_dist_json",
)

#: Metrics of traced runs.  ``verify.<check>.s`` is the whole time of
#: one check; every other ``.s`` entry is a self time: the span's time
#: minus the time of the wrapped calls made inside it.
PER_LAYER = {
    **{f"verify.{name}.s": "s" for name in VERIFY_CHECKS},
    "distribution.histogram.calls": "count",
    "distribution.histogram.s": "s",
    "distribution.leaves": "count",
    "distribution.bound_report.s": "s",
    "distribution.counts_for_length.s": "s",
    "stern.stern.calls": "count",
    "stern.stern.s": "s",
    "stern.routes.s": "s",
    "stern.via_zeta.s": "s",
    "stern.marked_occurrences.s": "s",
    "stern.memo_entries": "count",
    "palindromes.psi.s": "s",
    "palindromes.psi.letters": "letters",
    "palindromes.psi_inverse.s": "s",
    "palindromes.psi_prefix.s": "s",
    "palindromes.pal_closure.s": "s",
    "palindromes.pal_closure.letters": "letters",
    "christoffel.by_slope.s": "s",
    "christoffel.by_directive.s": "s",
    "christoffel.lyndon_factorization.s": "s",
    "trees.path_of_fraction.s": "s",
    "trees.path_letters": "letters",
    "trees.tree_node.s": "s",
    "continuants.mirror_formula.s": "s",
    "continuants.christoffel_length_cf.s": "s",
    "words.min_period.s": "s",
    "cli.main.calls": "count",
    "cli.self_s": "s",
    **{f"queries.{kind}.p50_ms": "ms" for kind in QUERY_KINDS},
    "trace.overhead_s": "s",
}
