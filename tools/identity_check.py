"""Check that two revisions give byte-identical CLI output and arrays.

    python3 tools/identity_check.py PARENT CHILD

Run from inside the repository. Each revision is `git archive`d into its own
temporary tree (by `bench_compare.export`). Every entry of `MANIFEST` then
runs once per tree as `python -m epsakit ARGS`, with `PYTHONPATH=<tree>/src`
and a fresh empty working directory, so that an `--output` path lands in it.
The last entry, `probe`, runs `PROBE` the same way. It prints a SHA-256 over
the eval logits of four models at 1x3x224x224, and one over a toy training
step's logits, dx, gradients (in key order) and running statistics.

For each entry it compares stdout, stderr, the exit code and every file left
in the working directory, byte for byte, after replacing the tree's and the
directory's paths with placeholders. It prints every entry that differs, and
what differs, and exits 1 if any does. Nothing is written in the repository.
"""

from __future__ import annotations

import argparse
import os
import subprocess
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
from bench_compare import export, git  # noqa: E402

MANIFEST = (
    ("describe small", ["describe", "epsanet50_small"]),
    ("describe resnet50 json", ["describe", "resnet50", "--format", "json"]),
    ("describe large json file", ["describe", "epsanet50_large", "--format", "json", "--output", "out.json"]),
    ("complexity small", ["complexity", "epsanet50_small"]),
    ("complexity resnet50 json", ["complexity", "resnet50", "--format", "json"]),
    ("complexity compare", ["complexity", "resnet50", "epsanet50_small", "senet50"]),
    ("complexity compare json file",
     ["complexity", "resnet50", "epsanet50_small", "--format", "json", "--output", "out.json"]),
    ("gradcheck ops", ["gradcheck", "ops", "--seed", "7"]),
    ("gradcheck psa json", ["gradcheck", "psa", "--seed", "5", "--format", "json"]),
    ("gradcheck block json file", ["gradcheck", "block", "--seed", "0", "--format", "json", "--output", "out.json"]),
    ("ablation", ["ablation"]),
    ("ablation json", ["ablation", "--format", "json"]),
    ("train-toy", ["train-toy", "--epochs", "3", "--seed", "5", "--output", "run"]),
    ("train-toy diverged", ["train-toy", "--lr", "1e12", "--epochs", "2", "--output", "run"]),
    ("describe no model", ["describe"]),
    ("describe missing config", ["describe", "--config", "missing.json"]),
)

PROBE = """
import hashlib
import numpy as np
from epsakit import defaults, models, training
from epsakit.tensor import Tensor, random_uniform

def digest(arrays):
    h = hashlib.sha256()
    for a in arrays:
        a = np.ascontiguousarray(a)
        h.update(repr((a.dtype.str, a.shape)).encode())
        h.update(a.tobytes())
    return h.hexdigest()

x = random_uniform((1, 3, 224, 224), seed=0)
logits = []
for name in ("resnet50", "senet50", "epsanet50_small", "epsanet50_large"):
    logits.append(models.forward(models.build_model(name), x))
print("eval logits", digest(logits))

ds = training.make_toy_dataset(**defaults.TOY_DATASET)
model = models.build_toy_epsanet(num_classes=ds.num_classes, **defaults.TOY_MODEL)
xb = Tensor(ds.images.data[:8])
out, vjp = model.net.apply(xb, training=True)
_, dlogits = training.label_smoothed_ce(out, ds.labels[:8], defaults.TOY_TRAIN.label_smoothing)
dx, grads = vjp(dlogits)
state = model.net.state()
print("toy step keys", hashlib.sha256(repr((list(grads), list(state))).encode()).hexdigest())
print("toy step arrays", digest([out, dx, *grads.values(), *state.values()]))
"""


def run_entry(tree: Path, work: Path, args: list[str]) -> dict:
    """One entry's stdout, stderr, exit code and files, with paths replaced."""
    work.mkdir(parents=True)
    env = {**os.environ, "PYTHONPATH": str(tree / "src")}
    proc = subprocess.run([sys.executable, *args], cwd=work, env=env, capture_output=True)

    def scrub(data: bytes) -> bytes:
        return data.replace(os.fsencode(work), b"<work>").replace(os.fsencode(tree), b"<tree>")

    files = {str(p.relative_to(work)): scrub(p.read_bytes())
             for p in sorted(work.rglob("*")) if p.is_file()}
    return {"stdout": scrub(proc.stdout), "stderr": scrub(proc.stderr),
            "exit code": proc.returncode, "files": files}


def differences(a: dict, b: dict) -> list[str]:
    """What differs between two entries' results, by part and file name."""
    found = [part for part in ("stdout", "stderr", "exit code") if a[part] != b[part]]
    for name in sorted(a["files"].keys() | b["files"].keys()):
        if name not in a["files"] or name not in b["files"]:
            found.append(f"file {name} only in the {'parent' if name in a['files'] else 'child'}")
        elif a["files"][name] != b["files"][name]:
            found.append(f"file {name}")
    return found


def check(repo: Path, parent: str, child: str) -> dict[str, list[str]]:
    """Every manifest entry and the probe, each mapped to what differs."""
    shas = [git(repo, "rev-parse", "--verify", f"{rev}^{{commit}}") for rev in (parent, child)]
    entries = [(name, ["-m", "epsakit", *argv]) for name, argv in MANIFEST] + [("probe", ["-c", PROBE])]
    report = {}
    with tempfile.TemporaryDirectory(prefix="identity_check_") as tmp:
        trees = [export(repo, sha, Path(tmp) / side) for sha, side in zip(shas, ("parent", "child"))]
        for i, (name, args) in enumerate(entries):
            print(name, file=sys.stderr, flush=True)
            a, b = (run_entry(tree, Path(tmp) / f"work{i}_{side}", args)
                    for tree, side in zip(trees, ("parent", "child")))
            report[name] = differences(a, b)
    return report


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("parent", help="parent revision (anything git rev-parse takes)")
    ap.add_argument("child", help="child revision")
    args = ap.parse_args(argv)
    repo = Path(git(Path.cwd(), "rev-parse", "--show-toplevel"))
    report = check(repo, args.parent, args.child)
    differing = {name: found for name, found in report.items() if found}
    for name, found in differing.items():
        print(f"differs: {name}: {', '.join(found)}")
    print(f"{len(report) - len(differing)} of {len(report)} entries identical")
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main())
