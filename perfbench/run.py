"""Repository benchmark: four paper pipelines run as a user calls them.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload approx --seed 1 --seconds 20 --trace 0

One client runs one operation at a time (a closed loop, no worker pool).
A run does a fixed amount of work: ``--seconds`` divided by the workload's
nominal pass time (measured on the seed code), rounded, whole passes over
the workload's input pool, each pass in an order drawn from ``--seed``.
Every output is checked: schedules are validated, each operation's bound
is checked, and outcomes are compared with ``reference.json``.

``--trace 0`` times the untraced pipeline and prints the end-to-end
metrics.  ``--trace 1`` alternates untraced and traced passes and prints
the per-layer metrics and a self-time table; it also checks that every
count repeats exactly across passes and that counts which are zero by
contract stay zero.  The last line of output is one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import shutil
import statistics
import sys
import tempfile
import time
from collections import defaultdict
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK_ROOT = os.path.join(ROOT, ".bench_work")
SETUP_REPEATS = 3
TAIL_BEYOND = 10
#: Seconds the calibration kernel takes at the reference speed, and how
#: often it is re-timed between operations.
CALIBRATION_REFERENCE_S = 0.0037
CALIBRATION_SLICE_S = 0.1
MAX_REPORTED_PROBLEMS = 20


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument(
        "--workload", required=True, choices=("approx", "memory", "admission", "cache")
    )
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def environment():
    """What the numbers depend on besides the code."""
    import platform

    import numpy
    import scipy

    from repro._fraction import bigint_backend
    from repro.session import Session

    session = Session(cache=False)
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "bigint": bigint_backend(),
        "backend": session.backend,
        "kernel": session.kernel,
    }


def calibration_kernel() -> float:
    """Seconds for a fixed pure-Python job of about 4 ms.

    The job (exact fractions and dict updates) is the kind of work the
    library does, but none of the library's code, so no change to the
    library moves it.
    """
    start = time.perf_counter()
    acc = Fraction(0)
    table = {}
    for i in range(1, 800):
        acc += Fraction(i, i + 7)
        table[i % 97] = table.get(i % 97, 0) + i * i
    return time.perf_counter() - start


class SpeedTracker:
    """Scales measured times to the reference speed.

    On a shared host the CPU speed can swing by half within seconds, for
    every program alike.  The calibration kernel is re-timed between
    operations whenever CALIBRATION_SLICE_S has passed; every time measured
    in a slice is scaled by CALIBRATION_REFERENCE_S over the median of the
    six calibrations around the slice, three on each side.
    """

    def __init__(self):
        self.calibrations = [calibration_kernel()]
        self.last = time.perf_counter()

    def slice(self) -> int:
        """The index of the slice the next operation runs in."""
        if time.perf_counter() - self.last >= CALIBRATION_SLICE_S:
            self.calibrations.append(calibration_kernel())
            self.last = time.perf_counter()
        return len(self.calibrations) - 1

    def close(self):
        """Per slice, the factor that scales its times to reference speed."""
        self.calibrations.append(calibration_kernel())
        cal = self.calibrations
        return [
            CALIBRATION_REFERENCE_S / statistics.median(cal[max(0, i - 2):i + 4])
            for i in range(len(cal) - 1)
        ]


def latency_summary(samples):
    """Throughput, median and tail of a run's ``(op id, ns)`` samples.

    Every sample of an operation is replaced by that operation's median
    over the run before the statistics are taken, so that a short slow
    spell cannot move them.  The tail is the highest percentile with at
    least TAIL_BEYOND samples beyond it.
    """
    by_op = defaultdict(list)
    for op, ns in samples:
        by_op[op].append(ns)
    weighted = sorted((statistics.median(v), len(v)) for v in by_op.values())
    total = sum(w for _, w in weighted)
    if total <= TAIL_BEYOND:
        raise RuntimeError(f"{total} samples cannot give a tail with {TAIL_BEYOND} beyond it")
    tail_rank = total - TAIL_BEYOND - 1  # 0-based, in ascending order
    seen = 0
    p50 = tail_ns = None
    for ns, w in weighted:
        seen += w
        if p50 is None and 2 * seen >= total:
            p50 = ns
        if tail_ns is None and seen > tail_rank:
            tail_ns = ns
    return {
        "throughput_ops_s": total / (sum(ns * w for ns, w in weighted) / 1e9),
        "latency_p50_ms": p50 / 1e6,
        "latency_tail_ms": tail_ns / 1e6,
        "percentile": 100.0 * (total - TAIL_BEYOND) / total,
        "samples": total,
    }


def store_bytes(path):
    return sum(
        os.path.getsize(os.path.join(dirpath, name))
        for dirpath, _dirs, files in os.walk(path)
        for name in files
    )


class Run:
    """Outcome bookkeeping shared by the timed and the traced loop."""

    def __init__(self, workload, reference):
        self.workload = workload
        self.reference = reference
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.outcomes = {}
        self.ratios = []
        self.signatures = {}

    def fail(self, item, message):
        self.failed += 1
        self.problems.append(f"{self.workload.op_id(item)}: {message}")

    def record(self, item, out):
        """Untimed checks of one finished operation; returns its counters."""
        outcome, problems, ratio, counters = self.workload.inspect(item, out)
        if problems:
            self.fail(item, "; ".join(problems))
        if outcome is not None:
            key = self.workload.op_id(item)
            previous = self.outcomes.setdefault(key, outcome)
            if previous != outcome:
                self.fail(item, f"outcome {outcome} differs from earlier {previous}")
        if ratio is not None:
            self.ratios.append(ratio)
        return counters

    def call(self, item, op):
        """Run *op* on *item*; a raised exception is a failed operation."""
        self.attempted += 1
        try:
            return True, op(item)
        except Exception as exc:  # every failure is counted, never dropped
            self.fail(item, f"raised {type(exc).__name__}: {exc}")
            return False, None

    def check_signature(self, item, signature):
        key = self.workload.op_id(item)
        previous = self.signatures.setdefault(key, signature)
        if previous != signature:
            diff = {
                k: (previous.get(k), signature.get(k))
                for k in set(previous) | set(signature)
                if previous.get(k) != signature.get(k)
            }
            self.fail(item, f"counts differ between repetitions: {diff}")
        if self.workload.lp_free and signature.get("solves", 0):
            self.fail(item, f"{signature['solves']} LP solves where none are allowed")

    def finish(self):
        from suite import check_outcomes

        self.problems += check_outcomes(self.reference, self.outcomes)
        return not self.problems and self.failed == 0


def timed_loop(run, order, speed):
    """Run *order* untraced; ``(op id, ns, slice)`` per completed operation."""
    samples = []
    for item in order:
        slice_index = speed.slice()
        start = time.perf_counter_ns()
        ok, out = run.call(item, run.workload.run)
        elapsed = time.perf_counter_ns() - start
        if ok:
            samples.append((run.workload.op_id(item), elapsed, slice_index))
            run.record(item, out)
    return samples


def traced_loop(run, order, passes, speed):
    """Alternate untraced and traced passes; the untraced ones give the
    tracing overhead, the traced ones the per-layer numbers."""
    import layers

    per_pass = len(order) // passes
    untraced = []
    profiles = []
    traced = lambda item: layers.traced_op(run.workload.run, item)  # noqa: E731
    for p in range(passes):
        chunk = order[p * per_pass:(p + 1) * per_pass]
        if p % 2 == 0:
            untraced += timed_loop(run, chunk, speed)
            continue
        with layers.instrumented():
            for item in chunk:
                slice_index = speed.slice()
                ok, result = run.call(item, traced)
                if not ok:
                    continue
                out, profile = result
                counters = run.record(item, out)
                profiles.append((profile, counters, slice_index))
                run.check_signature(item, layers.counter_signature(profile, counters))
    scales = speed.close()
    totals = layers.LayerTotals()
    for profile, counters, slice_index in profiles:
        totals.add(profile, counters, scales[slice_index])
    untraced_ns = sum(ns * scales[s] for _, ns, s in untraced)
    return totals, untraced_ns, len(untraced)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"perfbench: no library sources at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)

    # The library is imported here, not at the top, so that its import
    # time counts towards setup_s.
    start = time.perf_counter()
    import numpy
    import scipy.optimize  # noqa: F401  (the hybrid backend's float leg)

    import layers  # noqa: F401
    from repro.session import code_fingerprint
    from suite import WORKLOADS

    code_fingerprint()
    import_s = time.perf_counter() - start

    with open(os.path.join(HERE, "reference.json")) as fh:
        reference = json.load(fh)[args.workload]
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        declared = json.load(fh)["per_layer" if args.trace else "end_to_end"]
    units = {metric["name"]: metric["unit"] for metric in declared}

    os.makedirs(WORK_ROOT, exist_ok=True)
    work_dirs = []
    workload = None
    try:
        setup_times = []
        for _ in range(SETUP_REPEATS):
            if workload is not None:
                workload.close()
            work_dirs.append(tempfile.mkdtemp(dir=WORK_ROOT))
            workload = WORKLOADS[args.workload]()
            start = time.perf_counter()
            workload.setup(work_dirs[-1])
            setup_times.append(time.perf_counter() - start)
        setup_s = import_s + statistics.median(setup_times)

        # Freeze the heap set-up built (library, inputs, reference), so the
        # collector's full passes during an operation rescan only what the
        # run created; an operation's own garbage is still collected inside
        # its timing, at the same cost whatever order the operations run in.
        gc.collect()
        gc.freeze()
        speed = SpeedTracker()
        run = Run(workload, reference)
        run.outcomes.update(workload.reference_outcomes())
        passes = workload.passes_for(args.seconds)
        order = workload.schedule(numpy.random.default_rng(args.seed), passes)
        print(
            f"perfbench {args.workload}: seed {args.seed}, {passes} passes, "
            f"{len(order)} operations, trace {args.trace}"
        )
        print("env " + json.dumps(environment(), sort_keys=True))
        print(
            f"setup: imports {import_s:.3f} s + median of "
            + ", ".join(f"{t:.3f}" for t in setup_times)
            + " s"
        )

        if args.trace:
            totals, untraced_ns, untraced_ops = traced_loop(run, order, passes, speed)
            metrics = totals.metrics(untraced_ns, untraced_ops, store_bytes(work_dirs[-1]))
            for name in workload.expected_layers:
                if not metrics[name] > 0:
                    run.problems.append(f"{name} is 0: the layer was not measured")
            print("\n".join(totals.table()))
        else:
            samples = timed_loop(run, order, speed)
            scales = speed.close()
            summary = latency_summary(
                [(op, ns * scales[s]) for op, ns, s in samples]
            )
            rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            metrics = {
                "throughput_ops_s": summary["throughput_ops_s"],
                "latency_p50_ms": summary["latency_p50_ms"],
                "latency_tail_ms": summary["latency_tail_ms"],
                "setup_s": setup_s,
                "peak_rss_mb": rss_kb / 1024,
                "makespan_ratio": float(sum(run.ratios, Fraction(0)) / len(run.ratios)),
            }
            print(
                f"latency_tail_ms is p{summary['percentile']:.2f} of "
                f"{summary['samples']} samples "
                f"({TAIL_BEYOND} beyond it)"
            )
        if set(metrics) != set(units):
            run.problems.append(
                f"metrics {sorted(set(metrics) ^ set(units))} disagree with BENCHMARK.json"
            )
        correct = run.finish()
    finally:
        if workload is not None:
            workload.close()
        for path in work_dirs:
            shutil.rmtree(path, ignore_errors=True)
        try:
            os.rmdir(WORK_ROOT)
        except OSError:
            pass

    print(
        f"speed: calibration median {statistics.median(speed.calibrations) * 1e3:.2f} ms "
        f"over {len(speed.calibrations)} timings; times are scaled to "
        f"{CALIBRATION_REFERENCE_S * 1e3:.2f} ms"
    )
    for name, value in metrics.items():
        print(f"{name:<32} {value:>14.6g} {units.get(name, '?')}")
    for problem in run.problems[:MAX_REPORTED_PROBLEMS]:
        print(f"problem: {problem}", file=sys.stderr)
    if len(run.problems) > MAX_REPORTED_PROBLEMS:
        print(f"problem: ... {len(run.problems)} in all", file=sys.stderr)
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": run.attempted,
                "failed": run.failed,
                "metrics": {
                    name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()
                    if name in metrics
                },
            }
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
