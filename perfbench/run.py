"""countcsp benchmark: one workload per process, single-threaded.

    python3 perfbench/run.py --workload chain --seed 1 --seconds 20 --trace 0

Run from the root of a checkout; countcsp is imported from its `src/`. The
run makes its inputs from the seed, times `SETUP_REPEATS` set-ups, runs one
untimed warm-up pass over the workload's ops, then timed passes until
`--seconds` have gone by. Times are reference seconds (see loadclock.py).
Every op's result is checked against the benchmark's own reference in
every pass. With `--trace 0` the last stdout
line is a JSON object with the end-to-end metrics; with `--trace 1` it holds
the per-layer metrics of a traced run (half the time untraced, half traced,
their ratio being the tracing overhead). Human-readable lines come before.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import resource
import statistics
import sys
import time
from pathlib import Path

import tracer
from loadclock import LoadClock
from workloads import WORKLOADS

SETUP_REPEATS = 15
SHOWN_FAILURES = 5

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "op_p50_s": "s",
    "op_p90_s": "s",
    "peak_rss_mb": "MB",
}


class Tally:
    """Ops attempted and failed (wrong result or exception) in this run."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def record(self, op, result, error) -> None:
        self.attempted += 1
        if error is None and result == op.expected:
            return
        self.failed += 1
        if self.failed <= SHOWN_FAILURES:
            got = "raised %r" % error if error is not None else "returned %r" % (result,)
            print("FAILED %s %s: %s, expected %r" % (op.kind, op.label, got, op.expected),
                  file=sys.stderr)


def run_pass(ops: list, tally: Tally, clock: LoadClock) -> list:
    """Run every op `op.repeats` times, checking each result; returns
    (reference seconds, raw seconds) per op, the medians over its repeats."""
    times = []
    for op in ops:
        samples = []
        for _ in range(op.repeats):
            result, error, t, raw = clock.timed(op.call)
            samples.append((t, raw))
            tally.record(op, result, error)
        times.append(tuple(statistics.median(s) for s in zip(*samples)))
    return times


def measure(ops: list, seconds: float, tally: Tally, clock: LoadClock) -> list:
    """Timed passes until `seconds` have elapsed, at least one."""
    passes = []
    start = time.perf_counter()
    while not passes or time.perf_counter() - start < seconds:
        passes.append(run_pass(ops, tally, clock))
    return passes


def fresh_countcsp(src: Path):
    """Import countcsp from `src`, dropping any copy imported before, so that
    each set-up pays the import again."""
    for name in [m for m in sys.modules if m == "countcsp" or m.startswith("countcsp.")]:
        del sys.modules[name]
    cc = importlib.import_module("countcsp")
    importlib.import_module("countcsp.fixtures")
    if Path(cc.__file__).resolve().parent != (src / "countcsp").resolve():
        raise ImportError("countcsp was imported from %s, not from %s" % (cc.__file__, src))
    return cc


def op_medians(passes: list) -> list:
    """Each op's median time over the passes, in reference seconds."""
    return [statistics.median(t for t, _ in ts) for ts in zip(*passes)]


def quantile(values: list, q: int) -> float:
    """The q-th percentile, interpolated within the data."""
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def end_to_end(passes: list, setup_times: list) -> dict:
    medians = op_medians(passes)
    return {
        "setup_s": statistics.median(setup_times),
        "wall_s": sum(medians),
        "op_p50_s": quantile(medians, 50),
        "op_p90_s": quantile(medians, 90),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def describe(ops: list, passes: list, tally: Tally) -> None:
    """Human-readable summary: per op kind, the median and 90th percentile
    of the per-op medians, with their sample counts."""
    medians = op_medians(passes)
    print("passes=%d attempted=%d failed=%d failed_frac=%.4f"
          % (len(passes), tally.attempted, tally.failed, tally.failed / tally.attempted))
    print("pass_s=%s" % " ".join("%.4f" % sum(t for t, _ in p) for p in passes))
    print("raw_pass_s=%s" % " ".join("%.4f" % sum(raw for _, raw in p) for p in passes))
    kinds: dict = {}
    for op, t in zip(ops, medians):
        kinds.setdefault(op.kind, []).append(t)
    for kind, ts in kinds.items():
        print("%s_p50_s=%.6f %s_p90_s=%.6f samples=%d"
              % (kind, quantile(ts, 50), kind, quantile(ts, 90), len(ts)))
    if len(ops) <= 12:
        for op, t in zip(ops, medians):
            print("op %-8s %-16s median_s=%.6f" % (op.kind, op.label, t))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = Path(__file__).resolve().parent.parent / "src"
    if not (src / "countcsp" / "__init__.py").is_file():
        print("perfbench: no countcsp package under %s; run from the root of a "
              "countcsp checkout" % src, file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))

    make_specs, make_ops = WORKLOADS[args.workload]
    specs = make_specs(args.seed)
    tally = Tally()

    def set_up():
        cc = fresh_countcsp(src)
        return cc, make_ops(cc, specs)

    with LoadClock() as clock:
        setup_times = []
        for _ in range(SETUP_REPEATS):
            gc.collect()  # the previous set-up's garbage is not this one's cost
            (cc, ops), error, t, _ = clock.timed(set_up)
            if error is not None:
                raise error
            setup_times.append(t)

        run_pass(ops, tally, clock)  # warm-up
        print("workload=%s seed=%d ops_per_pass=%d" % (args.workload, args.seed, len(ops)))
        if not args.trace:
            passes = measure(ops, args.seconds, tally, clock)
            describe(ops, passes, tally)
            values = end_to_end(passes, setup_times)
            metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}
        else:
            plain = measure(ops, args.seconds / 2, tally, clock)
            tr = tracer.Tracer()
            with tr:
                traced_ops = make_ops(cc, specs)  # one traced set-up
                after_setup = tr.snapshot()
                traced = measure(traced_ops, args.seconds / 2, tally, clock)
            report = tr.report(after_setup, len(traced))
            describe(ops, traced, tally)
            if tr.quadruple_nodes:
                print("sweep nodes per quadruple, all traced passes: %s" % tr.quadruple_nodes)
            overhead = sum(op_medians(traced)) / sum(op_medians(plain))
            report["trace.overhead_ratio"] = (overhead, "ratio")
            for name, (v, _) in report.items():
                print("%s=%s" % (name, "absent" if v is None else "%.6g" % v))
            metrics = {k: {"value": v, "unit": u} for k, (v, u) in report.items()}

    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
