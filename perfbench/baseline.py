"""Measure a baseline: every workload over several seeds, plus one traced run.

    python3 perfbench/baseline.py

Run from the root of a checkout. For each workload it runs `run.py` once
per seed in SEEDS untraced, for BENCHMARK.json's run_seconds, and records,
per end-to-end metric, the median, the quartiles
(`statistics.quantiles(values, n=4)`) and the spread (interquartile
distance over the median), then runs seed 1 traced for the per-layer
table. Runs are sequential, so no two measure at once.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from run import WORKLOADS  # noqa: E402

SEEDS = list(range(1, 11))
OUT = HERE / "baseline.json"
SECONDS = json.loads((HERE.parent / "BENCHMARK.json").read_text())["run_seconds"]


def run_once(workload: str, seed: int, trace: int) -> tuple[dict, dict]:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(SECONDS), "--trace", str(trace)],
        capture_output=True, text=True, check=True,
    )
    lines = proc.stdout.strip().splitlines()
    context = json.loads(next(line for line in lines if line.startswith("context: "))[9:])
    result = json.loads(lines[-1])
    if not result["correct"]:
        raise SystemExit(f"{workload} seed {seed}: outputs failed the check")
    return result, context


def summarize(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median, "values": values}


def main() -> int:
    out = {"seconds": SECONDS, "seeds": SEEDS, "workloads": {}}
    for workload in WORKLOADS:
        runs, contexts = [], []
        for seed in out["seeds"]:
            result, context = run_once(workload, seed, 0)
            runs.append(result["metrics"])
            contexts.append(context)
            print(workload, seed, {k: round(v["value"], 4) for k, v in result["metrics"].items()},
                  "contended" if context["contended"] else "", flush=True)
        end_to_end = {
            name: dict(summarize([r[name]["value"] for r in runs]), unit=runs[0][name]["unit"])
            for name in runs[0]
        }
        traced, _ = run_once(workload, SEEDS[0], 1)
        out["workloads"][workload] = {
            "end_to_end": end_to_end,
            "per_layer": {k: v["value"] for k, v in traced["metrics"].items()},
            "contended_runs": sum(c["contended"] for c in contexts),
            "context": contexts[0],
        }
        for name, s in end_to_end.items():
            print(f"  {name:<16s} median {s['median']:.6g} {s['unit']}  spread {s['spread']:.3f}", flush=True)
    OUT.write_text(json.dumps(out, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
