"""Compare two revisions on perfbench's workloads, in alternated pairs.

    python3 tools/bench_compare.py PARENT CHILD --number N [--workloads W ...] [--pairs 10] [--seconds 20]

Run from inside the repository. Each revision is `git archive`d into its own
temporary tree, and each run is that tree's own
`perfbench/run.py --workload W --seed S --seconds SEC --trace 0`, started as
a subprocess with the tree as its working directory. Pair i (from 1) uses
seed i for both sides, and the side that runs first alternates
from one pair to the next, so a drift of the host over the comparison lands
on both sides alike.

From each run it reads the last line of standard output, one JSON object
{correct, attempted, failed, metrics}, and the `context: {...}` line (BLAS,
load, steal). It writes BENCH_<N>.json at the repository root, holding, per
workload and metric, both medians, the parent's interquartile range,
`outside_parent_iqr` (whether the medians differ by more than that range; a
move inside it is unresolved, not a change), the pairs each side won (a tie
counts for neither), `gain_resolved` and every raw value; both SHAs; each
tree's `src/` line count, `src_lines`, as `wc -l src/epsakit/*.py` totals
it; the host context; and which workloads and how many pairs ran. Whether
lower or higher is better comes from the child tree's BENCHMARK.json, or
else from the metric's name (a rate, `*per_s`, is better higher).

A gain is resolved (`gain_resolved`) when the child won at least nine
tenths of the pairs and its median is better than the parent's by more than
the parent's IQR; the printed summary tags every other move unresolved.

A run that exits non-zero, prints no result, reads `correct: false` or
counts `failed > 0` is marked `"ok": false` in the file, and the tool then
exits 1 after writing it. Nothing here imports perfbench or writes under
it.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

WORKLOADS = ("train_toy", "eval_epsanet50_small", "eval_resnet50")
SIDES = ("parent", "child")


def git(repo: Path, *args: str) -> str:
    return subprocess.run(["git", *args], cwd=repo, check=True, capture_output=True,
                          text=True).stdout.strip()


def export(repo: Path, sha: str, dest: Path) -> Path:
    """The committed files of sha, unpacked into dest."""
    archive = dest.with_suffix(".tar")
    git(repo, "archive", "--format=tar", "-o", str(archive), sha)
    with tarfile.open(archive) as tar:
        tar.extractall(dest, filter="data")
    archive.unlink()
    return dest


def src_lines(tree: Path) -> int:
    """The newlines in the tree's src/epsakit/*.py, the total `wc -l` prints."""
    return sum(path.read_bytes().count(b"\n") for path in (tree / "src" / "epsakit").glob("*.py"))


def parse_run(stdout: str, returncode: int) -> dict:
    """A run's result from its output: ok, the counts, metric values, context."""
    lines = [line for line in stdout.splitlines() if line.strip()]
    result, context = None, {}
    if lines:
        try:
            result = json.loads(lines[-1])
        except json.JSONDecodeError:
            pass
    for line in lines:
        if line.startswith("context: "):
            context = json.loads(line[len("context: "):])
    if not isinstance(result, dict):
        return {"ok": False, "returncode": returncode, "correct": None, "attempted": None,
                "failed": None, "metrics": {}, "context": context}
    ok = returncode == 0 and result.get("correct") is True and result.get("failed", 1) == 0
    metrics = {name: m["value"] for name, m in result.get("metrics", {}).items()}
    return {"ok": ok, "returncode": returncode, "correct": result.get("correct"),
            "attempted": result.get("attempted"), "failed": result.get("failed"),
            "metrics": metrics, "context": context}


def run_once(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", f"{seconds:g}", "--trace", "0"]
    proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True)
    sys.stderr.write(proc.stderr)
    return parse_run(proc.stdout, proc.returncode)


def better_directions(tree: Path) -> dict[str, str]:
    """metric name -> "lower" or "higher", as the tree's BENCHMARK.json declares."""
    path = tree / "BENCHMARK.json"
    if not path.is_file():
        return {}
    spec = json.loads(path.read_text())
    return {m["name"]: m["better"] for key in ("end_to_end", "per_layer") for m in spec.get(key, [])}


def summarize(pairs: list[dict], directions: dict[str, str]) -> dict:
    """Per metric: medians, the parent's IQR and whether the medians differ
    by more than it, pairs won, whether that makes a resolved gain, and the
    raw values, over the pairs in which both runs were ok."""
    good = [p for p in pairs if p["parent"]["ok"] and p["child"]["ok"]]
    names = sorted({n for p in good for side in SIDES for n in p[side]["metrics"]})
    out = {}
    for name in names:
        both = [p for p in good if all(name in p[side]["metrics"] for side in SIDES)]
        if not both:
            continue
        raw = {side: [p[side]["metrics"][name] for p in both] for side in SIDES}
        better = directions.get(name) or ("higher" if name.endswith("per_s") else "lower")
        sign = 1 if better == "lower" else -1
        child_won = sum(sign * (c - p) < 0 for p, c in zip(raw["parent"], raw["child"]))
        parent_won = sum(sign * (c - p) > 0 for p, c in zip(raw["parent"], raw["child"]))
        parent_med, child_med = (statistics.median(raw[side]) for side in SIDES)
        q = (statistics.quantiles(raw["parent"], n=4, method="inclusive") if len(both) > 1
             else [parent_med] * 3)
        iqr = q[2] - q[0]
        outside = abs(child_med - parent_med) > iqr
        out[name] = {
            "better": better,
            "parent_median": parent_med,
            "child_median": child_med,
            "change": child_med / parent_med - 1 if parent_med else None,
            "parent_iqr": iqr,
            "outside_parent_iqr": outside,
            "gain_resolved": outside and sign * (child_med - parent_med) < 0
                             and 10 * child_won >= 9 * len(both),
            "pairs": len(both),
            "child_won": child_won,
            "parent_won": parent_won,
            "ties": len(both) - child_won - parent_won,
            "parent": raw["parent"],
            "child": raw["child"],
        }
    return out


def host(runs: list[dict]) -> dict:
    """nproc, BLAS, load and steal over every run's context line."""
    ctx = [r["context"] for r in runs if r["context"]]
    loads = [c[k] for c in ctx for k in ("load_start", "load_end") if k in c]
    steal = [c["steal_pct"] for c in ctx if "steal_pct" in c]
    return {
        "nproc": sorted({c["nproc"] for c in ctx if "nproc" in c}) or [len(os.sched_getaffinity(0))],
        "blas": sorted({c["blas"] for c in ctx if "blas" in c}),
        "blas_threads": sorted({c["blas_threads"] for c in ctx if c.get("blas_threads") is not None}),
        "load_min": min(loads, default=None),
        "load_max": max(loads, default=None),
        "steal_pct_max": max(steal, default=None),
    }


def compare(repo: Path, parent: str, child: str, workloads: list[str], pairs: int,
            seconds: float) -> dict:
    shas = {"parent": git(repo, "rev-parse", "--verify", f"{parent}^{{commit}}"),
            "child": git(repo, "rev-parse", "--verify", f"{child}^{{commit}}")}
    with tempfile.TemporaryDirectory(prefix="bench_compare_") as tmp:
        trees = {side: export(repo, shas[side], Path(tmp) / side) for side in SIDES}
        directions = better_directions(trees["child"])
        lines = {side: src_lines(trees[side]) for side in SIDES}
        results = {w: [] for w in workloads}
        for seed in range(1, pairs + 1):
            order = SIDES if seed % 2 else SIDES[::-1]
            for w in workloads:
                pair = {"seed": seed, "first": order[0]}
                for side in order:
                    print(f"pair {seed}/{pairs} {w} {side}", file=sys.stderr, flush=True)
                    pair[side] = run_once(trees[side], w, seed, seconds)
                results[w].append(pair)
    all_runs = [p[side] for w in workloads for p in results[w] for side in SIDES]
    return {
        "parent_sha": shas["parent"],
        "child_sha": shas["child"],
        "workloads": workloads,
        "pairs": pairs,
        "seconds": seconds,
        "src_lines": lines,
        "host": host(all_runs),
        "failed_runs": [{"workload": w, "seed": p["seed"], "side": side}
                        for w in workloads for p in results[w] for side in SIDES
                        if not p[side]["ok"]],
        "results": {w: {"metrics": summarize(results[w], directions), "runs": results[w]}
                    for w in workloads},
    }


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("parent", help="parent revision (anything git rev-parse takes)")
    ap.add_argument("child", help="child revision")
    ap.add_argument("--number", type=int, required=True, help="N of the BENCH_<N>.json to write")
    ap.add_argument("--workloads", nargs="+", choices=WORKLOADS, default=list(WORKLOADS))
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seconds", type=float, default=20.0)
    args = ap.parse_args(argv)
    if args.pairs < 1 or args.seconds <= 0:
        ap.error("--pairs must be at least 1 and --seconds positive")
    repo = Path(git(Path.cwd(), "rev-parse", "--show-toplevel"))
    report = compare(repo, args.parent, args.child, list(dict.fromkeys(args.workloads)),
                     args.pairs, args.seconds)
    out = repo / f"BENCH_{args.number}.json"
    out.write_text(json.dumps(report, indent=1, sort_keys=True) + "\n")
    for w, res in report["results"].items():
        for name in ("step_ms_p50", "setup_s", "peak_rss_mb"):
            m = res["metrics"].get(name)
            if m:
                tag = "gain resolved" if m["gain_resolved"] else "unresolved"
                print(f"{w:<22s} {name:<12s} {m['parent_median']:>10.4g} -> {m['child_median']:>10.4g}"
                      f"  (parent IQR {m['parent_iqr']:.4g}, {tag})  child won {m['child_won']}/{m['pairs']}")
    if report["failed_runs"]:
        print(f"{len(report['failed_runs'])} run(s) failed or read incorrect; see {out}", file=sys.stderr)
        return 1
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
