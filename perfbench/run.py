"""Benchmark entry point for epsakit.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace {0,1}

Run from the root of a checkout. Workloads: train_toy, eval_epsanet50_small,
eval_resnet50 (see README.md). Each is a closed loop in its own process
with at most two BLAS threads.

With --trace 0 it starts WARM_PROCS + 1 fresh processes one after
another. The first primes the machine's memory and is not measured. Each
of the others measures set-up (imports, model build, inputs) and the cold
first step, then runs warm-up steps and a timed loop of --seconds /
WARM_PROCS. Set-up and first step are medians over these processes; the
step percentiles are taken over the steps of all of them. It prints the
end-to-end metrics; the first step goes only on the human-readable lines.
With --trace 1 one process times the loop untraced, then traced, and
prints the per-layer metrics.

Every step's output is checked against recorded references. The last line
of standard output is one JSON object: {correct, attempted, failed,
metrics}. Every other line is for people: the metrics with their units,
first_step_ms, error_rate, and the run context (nproc, NumPy/BLAS, BLAS
threads, load).
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKLOADS = ("train_toy", "eval_epsanet50_small", "eval_resnet50")
# Measured processes per untraced run. Pooling the timed steps of several
# processes, each set up afresh, keeps one process's luck (where its
# buffers landed, what the host did meanwhile) from setting the result.
WARM_PROCS = 4
# Time a process may take beyond its timed loop (set-up, first step,
# warm-up, the traced run's tracemalloc step) before the run gives up.
PROCESS_ALLOWANCE_S = 25.0
# The benchmark itself keeps nproc BLAS threads busy, and starting its
# processes adds a little: a run counts as contended only when the load
# average exceeds nproc by more than this.
CONTENDED_EXTRA_LOAD = 0.5

END_TO_END_UNITS = {
    "setup_s": "s",
    "step_ms_p50": "ms",
    "step_ms_p90": "ms",
    "images_per_s": "img/s",
    "peak_rss_mb": "MB",
}


def per_layer_unit(name: str) -> str:
    for suffix, unit in (("ms", "ms"), ("gmacs_per_s", "GMAC/s"), ("_mb", "MB"),
                         ("count", "count"), ("ratio", "ratio"), ("_pct", "%")):
        if name.endswith(suffix):
            return unit
    raise ValueError(f"no unit for per-layer metric {name}")


def child_env(nproc: int) -> dict[str, str]:
    env = dict(os.environ)
    n = str(min(2, nproc))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = n
    return env


def cpu_ticks() -> list[int]:
    """The machine-wide `cpu` line of /proc/stat: user, nice, system, idle, iowait, irq, softirq, steal."""
    with open("/proc/stat") as fh:
        return [int(v) for v in fh.readline().split()[1:9]]


def run_child(args: list[str], nproc: int, deadline: float) -> dict | None:
    """Run one worker to completion; None if it failed or ran out of time."""
    cmd = [sys.executable, str(HERE / "worker.py"), *args]
    try:
        proc = subprocess.run(cmd, env=child_env(nproc), capture_output=True, text=True,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:  # run() has killed and reaped it
        print(f"worker {args[0]} timed out", file=sys.stderr)
        return None
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        print(f"worker {args[0]} exited with {proc.returncode}", file=sys.stderr)
        return None
    return json.loads(lines[-1])


def end_to_end(results: list[dict]) -> dict[str, float]:
    steps = [t for r in results for t in r["step_ms"]]
    return {
        "setup_s": statistics.median(r["setup_s"] for r in results),
        "step_ms_p50": statistics.median(steps),
        "step_ms_p90": statistics.quantiles(steps, n=10, method="inclusive")[-1],
        "images_per_s": results[0]["batch"] * len(steps) / (sum(steps) / 1e3),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in results),
    }


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")

    root = Path.cwd()
    if not (root / "src" / "epsakit" / "__init__.py").is_file():
        print(f"{root} is not an epsakit checkout: src/epsakit is missing", file=sys.stderr)
        return 2

    procs = 1 if args.trace else WARM_PROCS + 1
    deadline = time.monotonic() + procs * PROCESS_ALLOWANCE_S + (1 + args.trace) * args.seconds
    nproc = len(os.sched_getaffinity(0))
    load_start, ticks_start = os.getloadavg()[0], cpu_ticks()
    common = ["--workload", args.workload, "--seed", str(args.seed)]
    if args.trace:
        results = [run_child(["trace", *common, "--seconds", str(args.seconds)], nproc, deadline)]
    else:
        # An unmeasured primer first: right after a lighter workload, fresh
        # memory costs more to fault in, and the cold figures would depend
        # on what ran before this run.
        results = [run_child(["cold", *common, "--seconds", "0"], nproc, deadline)]
        share = str(args.seconds / WARM_PROCS)
        results += [run_child(["warm", *common, "--seconds", share], nproc, deadline)
                    for _ in range(WARM_PROCS)]
    load_end, ticks = os.getloadavg()[0], [b - a for a, b in zip(ticks_start, cpu_ticks())]

    done = [r for r in results if r is not None]
    attempted = sum(r["attempted"] for r in done) + len(results) - len(done)
    failed = sum(r["failed"] for r in done) + len(results) - len(done)
    correct = len(done) == len(results) and failed == 0
    if args.trace and done and not done[-1]["removed"]:
        correct = False
    if len(done) != len(results):
        print(json.dumps({"correct": False, "attempted": attempted, "failed": failed, "metrics": {}}))
        return 1

    if args.trace:
        values = done[-1]["per_layer"]
        units = {name: per_layer_unit(name) for name in values}
    else:
        values = end_to_end(done[1:])
        units = END_TO_END_UNITS
    metrics = {name: {"value": values[name], "unit": units[name]} for name in sorted(values)}

    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds:g} trace={args.trace}")
    for name, m in metrics.items():
        print(f"  {name:<42s} {m['value']:>14.6g} {m['unit']}")
    if not args.trace:
        # Printed, not a listed metric: too unsteady on a shared host to gate on.
        first = statistics.median(r["first_step_ms"] for r in done[1:])
        print(f"  {'first_step_ms (not gated)':<42s} {first:>14.6g} ms")
    print(f"  {'error_rate':<42s} {failed / attempted:>14.6g} ({failed} of {attempted} steps)")
    if args.trace and values.get("trace.conv_macs_ratio") != 1:
        print("  trace self-check failed: traced conv MACs differ from the ledger", file=sys.stderr)
    context = dict(done[-1]["context"], nproc=nproc, load_start=load_start, load_end=load_end,
                   contended=max(load_start, load_end) > nproc + CONTENDED_EXTRA_LOAD,
                   steal_pct=100.0 * ticks[7] / max(1, sum(ticks)))
    print("context: " + json.dumps(context, sort_keys=True))
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
