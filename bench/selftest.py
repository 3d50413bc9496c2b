"""Smoke test of the benchmark itself: one tiny run per workload and mode.

    python3 bench/selftest.py

Checks that each run exits 0, prints a result object with exactly the
keys ``correct``, ``attempted``, ``failed`` and ``metrics`` as its last
line, reports correct outputs, and emits every metric named in
``bench/metrics.py`` with its unit; and that ``BENCHMARK.json`` lists the
same metrics.  Takes about ten seconds.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from metrics import END_TO_END, PER_LAYER  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def spec_problems() -> list[str]:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    problems = []
    for key, expected in (("end_to_end", END_TO_END), ("per_layer", PER_LAYER)):
        listed = {m["name"]: m["unit"] for m in spec[key]}
        if listed != expected:
            problems.append(f"BENCHMARK.json {key} differs from bench/metrics.py")
    if [w["name"] for w in spec["workloads"]] != list(WORKLOADS):
        problems.append("BENCHMARK.json workloads differ from bench/workloads.py")
    return problems


def run_problems(workload: str, trace: int) -> list[str]:
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", "7", "--seconds", "1", "--trace", str(trace), "--size", "tiny"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=170)
    where = f"{workload} --trace {trace}"
    if proc.returncode != 0:
        return [f"{where}: exit {proc.returncode}: {proc.stderr.strip()[-500:]}"]
    result = json.loads(proc.stdout.splitlines()[-1])
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"{where}: result keys {sorted(result)}")
    if result.get("correct") is not True:
        problems.append(f"{where}: outputs were not correct")
    if not isinstance(result.get("attempted"), int) or result["attempted"] < 1:
        problems.append(f"{where}: attempted is {result.get('attempted')!r}")
    expected = PER_LAYER if trace else END_TO_END
    emitted = {name: m.get("unit") for name, m in result.get("metrics", {}).items()}
    if emitted != expected:
        missing = sorted(set(expected) - set(emitted))
        extra = sorted(set(emitted) - set(expected))
        wrong = sorted(n for n in set(expected) & set(emitted) if emitted[n] != expected[n])
        problems.append(f"{where}: missing {missing}, unexpected {extra}, wrong unit {wrong}")
    for name, m in result.get("metrics", {}).items():
        if not isinstance(m.get("value"), (int, float)):
            problems.append(f"{where}: {name} has no numeric value")
    return problems


def main() -> int:
    problems = spec_problems()
    for workload in WORKLOADS:
        for trace in (0, 1):
            problems += run_problems(workload, trace)
    for problem in problems:
        print(f"FAIL {problem}")
    print("selftest passed" if not problems else f"selftest: {len(problems)} problem(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
