"""One workload in a fresh interpreter: import slchar, warm up, then
either report the time set-up ended (``--setup-only``) or generate the
seeded inputs and run the closed loop.

The loop is a single client on one thread: it sends the next operation
only after the previous one has returned and its output was checked.
Only the call into the package is timed; input generation, checks and
the reference work happen outside the timed region (and outside
tracing).  The last line of standard output is one JSON object with the
raw results, which ``run.py`` turns into metrics.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import resource
import statistics
import sys
import time
from array import array

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [os.path.join(ROOT, "src"), HERE]

import slchar  # noqa: E402  (the import is part of the measured set-up)

import common  # noqa: E402

# The machine this was tuned on, a 2-vCPU VM on a shared host, runs the
# same Python code up to twice as slow for minutes at a time.  Each run
# therefore makes a fixed number of passes over a fixed pool (so that
# ``attempted`` and ``failed`` depend only on the seed and --seconds),
# and times every operation against the host speed measured around it.
MIN_PASSES = 2
SEGMENT_S = 0.25  # operation time between two reference measurements


def passes_for(mod, seconds: float) -> int:
    """Passes over the pool that fill ``seconds`` at reference speed."""
    return max(MIN_PASSES, round(seconds * 1e3 / (mod.POOL * mod.OP_MS)))


def _execute(mod, ops, i, tracer, failures) -> float:
    """Run operation ``i`` once, check its output, and return its latency."""
    op = ops[i]
    if tracer is not None:
        tracer.op, tracer.active = i, True
    start = time.perf_counter()
    try:
        out, reason = mod.run(op), None
    except Exception as exc:  # a failed operation is counted, not raised
        out, reason = None, f"raised {type(exc).__name__}: {exc}"
    elapsed = time.perf_counter() - start
    if tracer is not None:
        tracer.active = False
    known = None
    if reason is None:
        try:
            reason = mod.check(op, out)
            known = reason and mod.known_defect(op, out)
        except Exception as exc:
            reason = f"output check raised {type(exc).__name__}: {exc}"
    if reason:
        entry = failures.setdefault(i, {
            "pool_index": i, "input": mod.describe(op),
            "reason": reason, "known": known, "count": 0})
        entry["count"] += 1
    return elapsed


def _closed_loop(mod, ops, passes, tracer):
    """``passes`` passes over ``ops`` in order, every execution checked.

    The reference work runs after every SEGMENT_S of operation time; the
    operations of a segment are scaled by REFERENCE_S over the mean of
    the reference times on either side of it, which gives their latency
    at reference host speed.  An operation's latency is the median of
    its scaled executions.  Returns (latencies, attempted, failures,
    wall seconds of all executions, the same scaled)."""
    scaled = [array("d") for _ in ops]
    failures: dict = {}
    segment: list = []
    segment_s = wall_s = scaled_s = 0.0
    before = common.reference_seconds()
    for p in range(passes):
        for i in range(len(ops)):
            elapsed = _execute(mod, ops, i, tracer, failures)
            segment.append((i, elapsed))
            segment_s += elapsed
            if segment_s >= SEGMENT_S or (p == passes - 1 and i == len(ops) - 1):
                after = common.reference_seconds()
                factor = 2 * common.REFERENCE_S / (before + after)
                for j, e in segment:
                    scaled[j].append(e * factor)
                wall_s += segment_s
                scaled_s += segment_s * factor
                segment.clear()
                segment_s, before = 0.0, after
    latencies = [statistics.median(s) for s in scaled]
    failed = sorted(failures.values(), key=lambda f: f["pool_index"])
    return latencies, len(ops) * passes, failed, wall_s, scaled_s


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=1.0)
    ap.add_argument("--passes", type=int, default=0, help="default: fill --seconds")
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--spans-out")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    mod = importlib.import_module(args.workload)
    mod.warm_up()
    if args.setup_only:
        print(json.dumps({"ready": time.monotonic()}))
        return 0

    import numpy

    ops = mod.make_inputs(args.seed)
    digest = common.digest(mod.digest_key(op) for op in ops)
    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install(extra_modules=[mod])
    passes = args.passes or passes_for(mod, args.seconds)
    latencies, attempted, failures, wall_s, scaled_s = _closed_loop(mod, ops, passes, tracer)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    result = {
        "attempted": attempted,
        "failed": sum(f["count"] for f in failures),
        "unexpected": sum(f["count"] for f in failures if not f["known"]),
        "failures": failures,
        "latencies": latencies,
        "wall_s": wall_s,
        "passes": passes,
        "pool": len(ops),
        "digest": digest,
        "peak_rss_mb": peak_rss_mb,
        "numpy": numpy.__version__,
        "slchar_file": slchar.__file__,
    }
    if tracer is not None:
        result["layers"] = tracer.metrics(attempted, scaled_s / wall_s)
        result["spans_dropped"] = tracer.dropped
        if args.spans_out:
            result["spans_written"] = tracer.write_spans(args.spans_out)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
