"""slchar benchmark: one seeded workload, measured end to end or traced
layer by layer.

    python3 perfbench/run.py --workload trace_cold --seed 1 --seconds 15 --trace 0

Run from the root of a source checkout (it imports ``src/slchar``;
nothing is installed or built).  Every process this script starts is a
fresh interpreter and is waited for:

* ``--trace 0``: one untimed start to write byte-code, then
  SETUP_SAMPLES set-up probes (fresh interpreter through ``import
  slchar`` and the workload's warm-up), each between two reference
  starts; the median scaled probe is ``setup_s``.  Then the measured
  closed loop: a fixed number of passes over the seed's input pool,
  about ``--seconds`` at reference speed (see worker.py).
* ``--trace 1``: the same loop with span wrappers installed, then the
  same passes again untraced, whose difference is the tracing overhead.

Human-readable lines come first; the last line of standard output is
one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.  ``correct`` is false when any output is wrong other than
by one of the seed-commit defects listed in NOTES.md; those are still
counted in ``failed`` and in the error rate, and printed with inputs.
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
WORKLOADS = ("trace_cold", "ring_maps", "predicate_sweep", "verify_suites")
SETUP_SAMPLES = 7
SETUP_TIMEOUT = 30
# Set-up time is mostly process start and imports (numpy's import alone
# is about two thirds of it), which a slow host slows less than it slows
# compute (see NOTES.md).  So its reference is a fresh interpreter that
# imports numpy and a fixed set of standard-library modules, and
# REFERENCE_START_S is that start's time while the host was quiet.
REFERENCE_START = [sys.executable, "-c", "import argparse, dataclasses, decimal, email.parser, "
                   "enum, fractions, http.client, json, random, statistics, typing, unittest, numpy"]
REFERENCE_START_S = 0.160


class BenchError(Exception):
    pass


def _worker(args: list[str], timeout: float) -> dict:
    proc = subprocess.run([sys.executable, WORKER, *args], cwd=ROOT, capture_output=True,
                          text=True, timeout=timeout)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"worker {' '.join(args)} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(lines[-1])


def _start_reference() -> float:
    """Wall time of the reference start (see REFERENCE_START)."""
    start = time.monotonic()
    subprocess.run(REFERENCE_START, cwd=ROOT, capture_output=True, timeout=SETUP_TIMEOUT,
                   check=True)
    return time.monotonic() - start


def _setup_seconds(workload: str) -> tuple[list[float], list[float]]:
    """(scaled, wall) set-up times of SETUP_SAMPLES fresh processes.  A
    sample is scaled to reference speed by the reference start timed just
    before and just after it."""
    _worker(["--workload", workload, "--setup-only"], SETUP_TIMEOUT)  # writes byte-code
    scaled, wall = [], []
    after = _start_reference()
    for _ in range(SETUP_SAMPLES):
        before = after
        start = time.monotonic()
        ready = _worker(["--workload", workload, "--setup-only"], SETUP_TIMEOUT)["ready"]
        after = _start_reference()
        wall.append(ready - start)
        scaled.append(wall[-1] * 2 * REFERENCE_START_S / (before + after))
    return scaled, wall


def _loop_timeout(seconds: float) -> float:
    """Generous for input generation, checks and a slow host."""
    return 3 * seconds + 60


def _tail(latencies: list[float]) -> tuple[float, float, int]:
    """(value, percentile, samples beyond) at the highest percentile
    with at least ten samples beyond it."""
    ordered = sorted(latencies)
    n = len(ordered)
    k = n - 11 if n > 10 else n - 1
    return ordered[k], 100.0 * (k + 1) / n, n - 1 - k


def _header(workload: str, seed: int, seconds: float, trace: int) -> None:
    lines = sum(
        sum(1 for _ in open(path, encoding="utf-8"))
        for path in glob.glob(os.path.join(ROOT, "src", "slchar", "*.py"))
    )
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                text=True, timeout=10).stdout.strip()
    except OSError:
        commit = ""
    print(f"# workload={workload} seed={seed} seconds={seconds:g} trace={trace}")
    print(f"# python={platform.python_version()} nproc={os.cpu_count()} "
          f"affinity={len(os.sched_getaffinity(0))}")
    print(f"# commit={commit or 'unavailable (not a git checkout)'} src_slchar_lines={lines}")
    print("# closed loop: one client, one thread, next operation after the previous returns")


def _report_run(workload: str, seed: int, res: dict) -> None:
    print(f"# numpy={res['numpy']} slchar={os.path.relpath(res['slchar_file'], ROOT)}")
    print(f"# inputs workload={workload} seed={seed} pool={res['pool']} passes={res['passes']} "
          f"sha256={res['digest']}")
    for f in res["failures"]:
        tag = f"known:{f['known']}" if f["known"] else "UNEXPECTED"
        print(f"# FAIL [{tag}] workload={workload} seed={seed} x{f['count']} "
              f"input={f['input']} :: {f['reason']}")
    rate = res["failed"] / res["attempted"]
    print(f"error_rate = {rate:.6f} ({res['failed']} failed of {res['attempted']} attempted, "
          f"{res['unexpected']} unexpected)")


def _end_to_end(workload: str, seed: int, seconds: float) -> dict:
    setup, setup_wall = _setup_seconds(workload)
    res = _worker(["--workload", workload, "--seed", str(seed), "--seconds", str(seconds)],
                  _loop_timeout(seconds))
    _report_run(workload, seed, res)
    lat = res["latencies"]
    tail, pct, beyond = _tail(lat)
    metrics = {
        "ops_per_s": (len(lat) / sum(lat), "1/s"),
        "op_p50_ms": (statistics.median(lat) * 1e3, "ms"),
        "setup_s": (statistics.median(setup), "s"),
        "peak_rss_mb": (res["peak_rss_mb"], "MB"),
    }
    # reported, not gated: the tenth-slowest operation of a pool follows
    # the few most expensive inputs of each seed (see NOTES.md)
    print(f"op_tail_ms = {tail * 1e3:.6g} ms (p{pct:.3f} of {len(lat)} operations, "
          f"{beyond} beyond it)")
    print(f"# setup_s samples: {', '.join(f'{s:.4f}' for s in setup)} "
          f"(wall: {', '.join(f'{s:.4f}' for s in setup_wall)})")
    print(f"# wall clock: {res['attempted'] / res['wall_s']:.6g} operations/s over all "
          f"{res['attempted']} executions, setup median {statistics.median(setup_wall):.4f} s")
    return {"res": res, "metrics": metrics}


def _traced(workload: str, seed: int, seconds: float) -> dict:
    os.makedirs(os.path.join(HERE, "out"), exist_ok=True)
    spans = os.path.join(HERE, "out", f"spans-{workload}.tsv")
    base = ["--workload", workload, "--seed", str(seed)]
    res = _worker(base + ["--seconds", str(seconds), "--trace", "--spans-out", spans],
                  _loop_timeout(seconds))
    _report_run(workload, seed, res)
    ref = _worker(base + ["--passes", str(res["passes"])], _loop_timeout(seconds))
    traced_s, plain_s = sum(res["latencies"]), sum(ref["latencies"])
    overhead = 100.0 * (traced_s / plain_s - 1)
    metrics = dict(res["layers"])
    metrics["trace.overhead_pct"] = (overhead, "%")
    print(f"# tracing overhead: {traced_s:.4f} s traced vs {plain_s:.4f} s untraced "
          f"at reference speed, summed over the pool's {res['pool']} operations, "
          f"{res['passes']} passes each ({overhead:+.1f}%)")
    print(f"# spans: {res.get('spans_written', 0)} written to {os.path.relpath(spans, ROOT)}, "
          f"{res['spans_dropped']} beyond the in-memory cap")
    return {"res": res, "metrics": metrics}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    if not os.path.isfile(os.path.join(ROOT, "src", "slchar", "__init__.py")):
        print(f"error: no slchar sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2

    _header(args.workload, args.seed, args.seconds, args.trace)
    measure = _traced if args.trace else _end_to_end
    try:
        run = measure(args.workload, args.seed, args.seconds)
    except (BenchError, subprocess.TimeoutExpired, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    res = run["res"]
    for name, (value, unit) in run["metrics"].items():
        print(f"{name} = {value:.6g} {unit}")
    print(json.dumps({
        "correct": res["unexpected"] == 0,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in run["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
