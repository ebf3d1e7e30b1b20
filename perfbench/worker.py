"""One benchmark process: set up a workload, run its steps, print a JSON line.

    python3 perfbench/worker.py {cold,warm,trace} --workload W --seed N --seconds S

`cold` measures set-up and the first step only. `warm` goes on to warm-up
steps and then a timed closed loop of `--seconds`. `trace` times a loop
untraced, then the same loop with the tracer installed, then one step under
tracemalloc, removes the tracer and checks that it is gone; it writes the
spans to SPANS_DIR under the working directory. `run.py` starts these from
the root of a checkout; each prints its result as the last line of
standard output.
"""

import time

T0 = time.perf_counter()  # set-up time counts from here, imports included

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import workloads  # noqa: E402

# Steps after the first one that are run but not timed: the eval forwards
# need about three to stop page-faulting fresh buffers.
WARMUP_STEPS = 3
# A traced loop runs at least this many steps, however long they take.
MIN_TRACED_STEPS = 3
SPANS_DIR = ".perfbench"  # traced spans, written under the checkout root


class Runner:
    """Runs and checks steps; counts attempts, failures and traced Tensors."""

    def __init__(self, workload):
        self.w = workload
        self.tracer = None
        self.tensors: list[int] = []  # Tensors built per traced step
        self.attempted = 0
        self.failed = 0

    def step(self) -> float:
        """One checked step; returns its duration in seconds."""
        self.w.prepare()
        t = self.tracer
        if t is not None:
            t.step, before = self.attempted, t.tensors
        self.attempted += 1
        start = time.perf_counter()
        try:
            out = self.w.step()
        except Exception:  # a failed step is counted, not fatal
            traceback.print_exc()
            out = None
        dt = time.perf_counter() - start
        if t is not None:
            t.step = None
            self.tensors.append(t.tensors - before)
        if out is None or not self.w.check(out):
            print(f"{self.w.name}: step {self.attempted} failed", file=sys.stderr)
            self.failed += 1
        return dt

    def loop(self, seconds: float, min_steps: int = 1) -> list[float]:
        """Closed loop for `seconds`; returns the step times."""
        times = []
        end = time.perf_counter() + seconds
        while len(times) < min_steps or time.perf_counter() < end:
            times.append(self.step())
        return times


def blas_context() -> dict:
    """NumPy and BLAS versions and the BLAS thread count actually in use."""
    import ctypes
    import glob
    import os

    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = None
    libdir = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for path in glob.glob(os.path.join(libdir, "*openblas*")):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                threads = fn()
                break
    return {"numpy": np.__version__, "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_threads": threads}


def trace_run(runner: Runner, seconds: float, spans_path: Path) -> dict:
    import tracemalloc

    import tracer as tr

    w = runner.w
    untraced = runner.loop(seconds / 2)
    t = tr.Tracer()
    runner.tracer = t
    t.install()
    try:
        traced = runner.loop(seconds / 2, MIN_TRACED_STEPS)
        tensors = list(runner.tensors)
        timed = t.spans
        t.spans = []
        t.memory = True
        tracemalloc.start()
        try:
            runner.loop(0, 1)
        finally:
            tracemalloc.stop()
            t.memory = False
        mem = t.spans
    finally:
        left = t.uninstall()
    # After removal a step must reach no wrapper: no new spans, no counts.
    t.spans, before = [], t.tensors
    runner.tracer = None
    runner.step()
    leaked = len(t.spans) + (t.tensors - before)
    if left or leaked:
        print(f"tracer not removed: {left or leaked}", file=sys.stderr)
    ledger = tr.ledger_conv_macs(w.model.net, w.input_shape)
    metrics = tr.aggregate(timed, len(traced), mem, ledger)
    metrics["tensor.Tensor.count"] = statistics.median(tensors)
    p50_off, p50_on = statistics.median(untraced), statistics.median(traced)
    metrics["trace.overhead_pct"] = 100.0 * (p50_on - p50_off) / p50_off
    spans_path.parent.mkdir(exist_ok=True)
    tr.dump(spans_path, {"timed": timed, "memory": mem})
    return {"per_layer": metrics, "removed": not (left or leaked),
            "traced_steps": len(traced), "untraced_steps": len(untraced)}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("mode", choices=("cold", "warm", "trace"))
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    args = ap.parse_args(argv)

    w = workloads.make(args.workload, args.seed)
    runner = Runner(w)
    w.prepare()
    setup_s = time.perf_counter() - T0
    first_s = runner.step()
    out = {"setup_s": setup_s, "first_step_ms": first_s * 1e3, "batch": w.batch}
    if args.mode != "cold":
        for _ in range(WARMUP_STEPS):
            runner.step()
        if args.mode == "warm":
            times = runner.loop(args.seconds)
            out["step_ms"] = [t * 1e3 for t in times]
        else:
            spans = Path.cwd() / SPANS_DIR / f"spans-{args.workload}-seed{args.seed}.json"
            out.update(trace_run(runner, args.seconds, spans))
    out["context"] = blas_context()
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    out["attempted"] = runner.attempted
    out["failed"] = runner.failed
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
