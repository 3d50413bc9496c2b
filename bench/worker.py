"""One fresh interpreter: set up, run one pass of a workload, report.

Run by ``bench/run.py``.  Prints a single JSON object on stdout.
``--mode setup`` stops after set-up; ``--mode trace`` wraps the library's
entry points (see ``tracing``) before running the pass.

Set-up time counts only the library's import and the inputs' generation,
so modules the benchmark alone needs are imported after set-up, inside
the functions that use them.
"""

import sys
import time

_T0 = time.perf_counter()  # set-up time counts from here

import argparse  # noqa: E402
import os  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, SRC)

import diatomic  # noqa: E402
import diatomic.cli  # noqa: E402

#: Time the reference loop takes at the nominal CPU speed that reported
#: times are scaled to: its typical time on a quiet core of the 2-core
#: x86-64 virtual machine the benchmark was built on, under CPython 3.11.
REFERENCE_S = 400e-6
#: Most of the library's code slows down less than the reference loop
#: when the machine is contended.  Log-log fits of pass time against
#: reference time over 132 passes on that machine gave exponents from
#: 0.48 (images) to 0.72 (replay); scaling by (REFERENCE_S / t) ** 0.7
#: spread less between seeds than a plain ratio on all three workloads.
#: Under heavier contention, fits over 28 replay passes gave 0.86, and
#: so did a fit of ``histogram(17)`` alone against the reference loop:
#: replay's deep recursion slows down almost as much as the loop does.
CALIBRATION_EXPONENT = {"replay": 0.85, "images": 0.7, "queries": 0.7}
#: How often the reference loop is timed while a pass runs.
CALIBRATE_EVERY_S = 0.02
#: Each operation is scaled by the median reference time within a window
#: of at least this width around it.
CALIBRATION_WINDOW_S = 0.3


def parse_args() -> argparse.Namespace:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--size", choices=("full", "tiny"), default="full")
    parser.add_argument("--mode", choices=("setup", "pass", "trace"), default="pass")
    parser.add_argument("--spans", help="file the traced run writes its spans to")
    return parser.parse_args()


_BLOCK = b"ab" * (1 << 16)


def reference_loop() -> int:
    """A fixed piece of work that shares no code with the library: an
    interpreter loop of integer arithmetic, dict stores and short string
    building, as in the library's inner loops, and a copy and reversal of
    128 KiB, as in its long-word building."""
    acc = 0
    tail = ""
    seen = {}
    for i in range(1000):
        acc += (i * i) % 7
        seen[i & 63] = acc
        tail = tail[-32:] + "ab"[i & 1]
    return acc + len(bytearray(_BLOCK)) + len(_BLOCK[::-1])


class Calibration:
    """Times ``reference_loop`` every ``CALIBRATE_EVERY_S`` from a SIGALRM
    handler, in the main thread, while a pass runs.

    The speed of a shared machine drifts, by up to 1.9x over seconds to
    minutes, and the reference loop slows down with it.  Scaling each
    measured time by a power of ``REFERENCE_S`` over the reference time
    measured around it reports what the work takes at the nominal speed.
    The handler's own time is taken out of every operation it interrupts.
    """

    def __init__(self, exponent: float) -> None:
        self.exponent = exponent
        self.at: list[float] = []
        self.took: list[float] = []
        self.stolen = 0.0

    def sample(self) -> None:
        start = time.perf_counter()
        reference_loop()
        end = time.perf_counter()
        self.at.append(start)
        self.took.append(end - start)

    def _tick(self, signum, frame) -> None:
        start = time.perf_counter()
        self.sample()
        self.stolen += time.perf_counter() - start

    def start(self) -> None:
        import signal

        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, CALIBRATE_EVERY_S, CALIBRATE_EVERY_S)

    def stop(self) -> None:
        import signal

        signal.setitimer(signal.ITIMER_REAL, 0, 0)

    def factor(self, start: float, end: float) -> float:
        """(REFERENCE_S / t) ** exponent, with t the median
        reference time around [start, end]."""
        import bisect
        import statistics

        half = max(end - start, CALIBRATION_WINDOW_S) / 2
        mid = (start + end) / 2
        lo = bisect.bisect_left(self.at, mid - half)
        hi = bisect.bisect_right(self.at, mid + half)
        if hi - lo < 3:
            nearest = bisect.bisect_left(self.at, mid)
            lo, hi = max(0, nearest - 2), nearest + 2
        return (REFERENCE_S / statistics.median(self.took[lo:hi])) ** self.exponent


class Pass:
    """Times each operation, counts output letters (of returned words, and
    every character the CLI prints) and failed operations, keeps the first
    few check failures, and hashes everything the CLI prints."""

    def __init__(self, calibration: Calibration) -> None:
        import hashlib

        self.calibration = calibration
        self.kinds: list[str] = []
        self.spans: list[tuple[float, float, float]] = []
        self.letters = 0
        self.failed = 0
        self.problems: list[str] = []
        self.checks_failed = 0
        self.cli_digest = hashlib.sha256()

    def call(self, kind: str, fn, *args):
        """``fn(*args)``, timed as one operation of the given kind."""
        clock = time.perf_counter
        stolen = self.calibration.stolen
        start = clock()
        result = fn(*args)
        end = clock()
        self.spans.append((start, end, end - start - (self.calibration.stolen - stolen)))
        self.kinds.append(kind)
        return result

    def cli(self, kind: str, argv: list[str]) -> tuple[int, str]:
        """``cli.main(argv)`` with stdout and stderr captured, timed as one
        operation; returns the exit code and what it printed on stdout."""
        import contextlib
        import io

        out, err = io.StringIO(), io.StringIO()

        def main() -> int:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                return sys.modules["diatomic.cli"].main(argv)

        rc = self.call(kind, main)
        text = out.getvalue()
        self.letters += len(text)
        self.cli_digest.update(f"{' '.join(argv)}\n{rc}\n{text}".encode())
        return rc, text

    def check(self, ok: bool, what: str) -> None:
        if not ok:
            self.checks_failed += 1
            if len(self.problems) < 5:
                self.problems.append(what)


def layer_metrics(tracer, factor: float) -> dict:
    """Per-layer figures of a traced pass; times are scaled by the pass's
    calibration ``factor``."""
    total_s, self_s, calls = tracer.totals()
    # a check's whole span says which check costs what; library spans
    # report self time, so nested calls are not counted twice
    metrics = {f"{name}.s": factor * (total_s if name.startswith("verify.") else self_s)[name]
               for name in self_s}
    metrics["distribution.histogram.calls"] = calls.get("distribution.histogram", 0)
    metrics["stern.stern.calls"] = calls.get("stern.stern", 0)
    metrics["cli.main.calls"] = calls.get("cli.main", 0)
    metrics["cli.self_s"] = factor * self_s.get("cli.main", 0.0)
    metrics.update(tracer.counters)
    memo = getattr(sys.modules["diatomic.stern"], "_stern_cache", None)
    metrics["stern.memo_entries"] = len(memo) if memo is not None else 0
    return metrics


def main() -> int:
    args = parse_args()
    if os.path.dirname(os.path.abspath(diatomic.__file__)) != os.path.join(SRC, "diatomic"):
        print(f"diatomic was imported from {diatomic.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    import json
    import resource

    import workloads

    inputs = workloads.BUILD[args.workload](args.seed, args.size)
    setup_end = time.perf_counter()
    calibration = Calibration(CALIBRATION_EXPONENT[args.workload])
    for _ in range(15):
        calibration.sample()
    report: dict = {
        "setup_s": (setup_end - _T0) * calibration.factor(setup_end, setup_end),
        "setup_raw_s": setup_end - _T0,
    }
    if args.mode != "setup":
        tracer = None
        if args.mode == "trace":
            import tracing

            tracer = tracing.Tracer()
            tracing.install(tracer)
        p = Pass(calibration)
        calibration.start()
        try:
            workloads.RUN[args.workload](inputs, p)
        finally:
            calibration.stop()
        for _ in range(3):
            calibration.sample()
        report.update(
            kinds=p.kinds,
            latencies=[raw * calibration.factor(start, end) for start, end, raw in p.spans],
            raw_latencies=[raw for _, _, raw in p.spans],
            reference_s=sorted(calibration.took)[len(calibration.took) // 2],
            letters=p.letters,
            failed=p.failed,
            checks_failed=p.checks_failed,
            problems=p.problems,
            cli_sha256=p.cli_digest.hexdigest(),
            peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        )
        if tracer is not None:
            report["layers"] = layer_metrics(tracer, calibration.factor(_T0, time.perf_counter()))
            report["spans"] = len(tracer.start)
            if args.spans:
                tracer.write(args.spans)
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
