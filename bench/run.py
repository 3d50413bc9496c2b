"""Benchmark of the diatomic library and CLI.

    python3 bench/run.py --workload replay|images|queries --seed N \
        --seconds S --trace 0|1

Run from the repository root.  Every pass of a workload runs in a fresh
interpreter (``bench/worker.py``), one at a time, so the Stern memo and
the import state start cold as they do for a CLI user.  With ``--trace 0``
passes repeat until ``--seconds`` is used and the end-to-end metrics are
reported; with ``--trace 1`` a traced pass between two untraced ones gives
the per-layer metrics.  The last line of stdout is the result object; the
line before it is the run record, also written under ``bench/out/``.
See ``bench/README.md`` for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")
sys.path.insert(0, HERE)

from metrics import END_TO_END, PER_LAYER, QUERY_KINDS  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

#: Set-up-only interpreters started before each pass; with the pass's
#: own set-up they spread the set-up samples over the whole run.
SETUP_PER_PASS = 4
#: Wall-clock ceiling for one invocation, under the 180 s it is allowed.
BUDGET_S = 165.0


class BenchError(Exception):
    pass


def parse_args(argv: list[str] | None = None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny inputs, for the self-test")
    return parser.parse_args(argv)


def worker(args: argparse.Namespace, mode: str, deadline: float, *extra: str) -> dict:
    """Run one fresh interpreter and return its report."""
    # the worker imports diatomic from src/ only, and Python's default
    # int->str digit limit keeps the known `tree --fraction` defect visible
    env = {k: v for k, v in os.environ.items()
           if k not in ("PYTHONPATH", "PYTHONINTMAXSTRDIGITS")}
    env["PYTHONHASHSEED"] = "0"
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--size", args.size, "--mode", mode, *extra]
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError("out of time before the next interpreter")
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired:
        raise BenchError(f"{mode} pass did not finish in {timeout:.0f} s") from None
    if proc.returncode != 0:
        raise BenchError(f"{mode} pass exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return json.loads(proc.stdout.splitlines()[-1])


def git_sha() -> str | None:
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def nearest_rank(sorted_values: list[float], q: float) -> float:
    """The smallest value with at least a share q of the values at or below it."""
    return sorted_values[max(0, math.ceil(len(sorted_values) * q) - 1)]


def middle_mean(sorted_values: list[float], lo: float = 0.4, hi: float = 0.6) -> float:
    """Mean of the values ranked from the nearest-rank ``lo`` quantile to
    the ``hi`` one: the median, smoothed over the middle fifth.  A plain
    nearest-rank median of a few dozen operations of stepped sizes jumps
    by a whole size step when two neighbours swap places; this moves by a
    fraction of it.  With two values it is the smaller one."""
    n = len(sorted_values)
    first = max(1, math.ceil(n * lo))
    last = max(first, math.floor(n * hi))
    return statistics.fmean(sorted_values[first - 1:last])


def op_latencies(passes: list[dict], key: str = "latencies") -> list[float]:
    """Each operation's median latency over the passes; all passes of a run
    perform the same operations."""
    return [statistics.median(times) for times in zip(*(p[key] for p in passes))]


def by_kind(kinds: list[str], latencies: list[float]) -> dict[str, list[float]]:
    grouped: dict[str, list[float]] = {}
    for kind, t in zip(kinds, latencies):
        grouped.setdefault(kind, []).append(t)
    return grouped


def end_to_end(passes: list[dict], setup: list[float], key: str = "latencies") -> dict[str, float]:
    latencies = op_latencies(passes, key)
    wall = sum(latencies)
    ranked = sorted(latencies)
    return {
        "wall_s": wall,
        "setup_s": statistics.median(setup),
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in passes),
        "ops_per_s": len(latencies) / wall,
        "op_p50_ms": 1e3 * middle_mean(ranked),
        "op_p99_ms": 1e3 * nearest_rank(ranked, 0.99),
        "letters_per_s": passes[0]["letters"] / wall,
    }


def per_layer(plain: list[dict], traced: dict) -> dict[str, float]:
    """Layer figures from the traced pass; per-kind latencies and the
    untraced baseline from the untraced passes."""
    layers = traced["layers"]
    metrics = {name: layers.get(name, 0.0 if unit == "s" else 0)
               for name, unit in PER_LAYER.items()}
    kinds = by_kind(plain[0]["kinds"], op_latencies(plain))
    for kind in QUERY_KINDS:
        times = sorted(kinds.get(kind, [0.0]))
        metrics[f"queries.{kind}.p50_ms"] = 1e3 * nearest_rank(times, 0.5)
    untraced = statistics.mean(sum(p["latencies"]) for p in plain)
    metrics["trace.overhead_s"] = sum(traced["latencies"]) - untraced
    return metrics


def record(args: argparse.Namespace, passes: list[dict], setup: list[float]) -> dict:
    ops = len(passes[0]["latencies"])
    failed = passes[0]["failed"]
    kinds = {kind: {"n_per_pass": len(times), "s": sum(times),
                    "p50_ms": 1e3 * nearest_rank(sorted(times), 0.5)}
             for kind, times in sorted(by_kind(passes[0]["kinds"], op_latencies(passes)).items())}
    return {
        "workload": args.workload,
        "seed": args.seed,
        "size": args.size,
        "trace": args.trace,
        "seconds": args.seconds,
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "nproc": os.cpu_count(),
        "git_sha": git_sha(),
        "passes": len(passes),
        "ops_per_pass": ops,
        "samples_beyond_p99": ops - math.ceil(ops * 0.99),
        "attempted": ops,
        "failed": failed,
        "failed_ratio": failed / ops,
        "setup_samples_s": setup,
        "pass_wall_s": [sum(p["latencies"]) for p in passes],
        "pass_raw_wall_s": [sum(p["raw_latencies"]) for p in passes],
        "pass_reference_s": [p["reference_s"] for p in passes],
        "kinds": kinds,
        "cli_sha256": passes[0]["cli_sha256"],
        "problems": sorted({msg for p in passes for msg in p["problems"]}),
    }


def run(args: argparse.Namespace) -> tuple[dict, dict]:
    deadline = time.monotonic() + BUDGET_S
    setup: list[float] = []

    def next_pass(mode: str = "pass", *extra: str) -> dict:
        for _ in range(SETUP_PER_PASS):
            setup.append(worker(args, "setup", deadline)["setup_s"])
        report = worker(args, mode, deadline, *extra)
        setup.append(report["setup_s"])
        return report

    if args.trace:
        os.makedirs(OUT, exist_ok=True)
        spans = os.path.join(OUT, f"spans-{args.workload}-seed{args.seed}.tsv.gz")
        # untraced passes on both sides of the traced one, so that drift
        # in the machine's speed does not land in the tracing overhead
        before = next_pass()
        traced = next_pass("trace", "--spans", spans)
        after = next_pass()
        passes, checked = [before, after], [before, traced, after]
        metrics = {name: (value, PER_LAYER[name])
                   for name, value in per_layer(passes, traced).items()}
    else:
        started = time.monotonic()
        durations: list[float] = []
        passes = []
        while True:
            t = time.monotonic()
            passes.append(next_pass())
            durations.append(time.monotonic() - t)
            next_end = time.monotonic() + statistics.median(durations)
            if next_end - started > args.seconds or next_end > deadline:
                break
        checked = passes
        metrics = {name: (value, END_TO_END[name])
                   for name, value in end_to_end(passes, setup).items()}
    rec = record(args, passes, setup)
    if not args.trace:
        rec["uncalibrated"] = end_to_end(passes, [p["setup_raw_s"] for p in passes], "raw_latencies")
    if args.trace:
        rec["spans"] = traced["spans"]
        rec["spans_file"] = os.path.relpath(spans, ROOT)
        rec["problems"] = sorted(set(rec["problems"] + traced["problems"]))
    # every pass of a run works on the same inputs, so it must perform
    # the same operations, print the same bytes and fail the same ones
    correct = (
        all(p["checks_failed"] == 0 for p in checked)
        and len({(tuple(p["kinds"]), p["cli_sha256"], p["failed"]) for p in checked}) == 1
    )
    result = {
        "correct": correct,
        "attempted": rec["attempted"],
        "failed": rec["failed"],
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    return rec, result


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "diatomic", "__init__.py")):
        print(f"no diatomic sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    try:
        rec, result = run(args)
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    os.makedirs(OUT, exist_ok=True)
    name = f"record-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(os.path.join(OUT, name), "w") as fh:
        json.dump({"record": rec, "result": result}, fh, indent=1)
    print(json.dumps({"record": rec}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
