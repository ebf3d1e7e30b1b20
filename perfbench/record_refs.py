"""Record the reference outputs the benchmark checks every step against.

    python3 perfbench/record_refs.py

Writes perfbench/refs/: eval logits for each input seed of the pool (from
`models.forward`), and the per-step toy training losses for each batch-order
seed (from `training.train`, so the benchmark's own step composition is
checked against the library's training loop). Run it only on a commit whose
outputs are trusted; a later commit must reproduce these numbers.
"""

from __future__ import annotations

import dataclasses
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import numpy as np  # noqa: E402

import workloads as wl  # noqa: E402
from epsakit import defaults, models, tensor, training  # noqa: E402


def main() -> int:
    wl.REFS.mkdir(exist_ok=True)
    for name, model_name in (("eval_epsanet50_small", "epsanet50_small"), ("eval_resnet50", "resnet50")):
        model = models.build_model(model_name)
        logits = [
            models.forward(model, tensor.random_uniform(wl.EVAL_INPUT, seed=s))[0]
            for s in range(wl.POOL)
        ]
        np.save(wl.REFS / f"{name}_logits.npy", np.stack(logits))
        print(f"{name}: {wl.POOL} logit vectors", flush=True)

    ds = training.make_toy_dataset(**defaults.TOY_DATASET)
    losses = {}
    for s in range(wl.POOL):
        cfg = dataclasses.replace(defaults.TOY_TRAIN, seed=s, epochs=wl.EPISODE_EPOCHS)
        history = training.train(wl.build_toy_model(), ds, cfg)
        losses[str(s)] = [r["loss"] for r in history.steps]
        print(f"train_toy seed {s}: {len(history.steps)} losses", flush=True)
    (wl.REFS / "train_toy_losses.json").write_text(json.dumps(losses, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
