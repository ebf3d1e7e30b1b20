"""The three benchmark workloads and their output checks.

Each workload is a closed loop with one caller: `step()` runs one unit of
work (an SGD step or an eval forward) and returns its output, `check()`
compares that output with references recorded from the program, and
`prepare()` does any untimed bookkeeping before the next step.

The workload seed picks the inputs: the eval image for the eval workloads
and the batch order for `train_toy`. Inputs come from a pool of
`POOL` recorded seeds (input seed = workload seed mod `POOL`), so every
run can be checked against a stored reference.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from epsakit import defaults, models, tensor, training

POOL = 8
REFS = Path(__file__).resolve().parent / "refs"

# A training episode is this many epochs of the toy fixture (4 batches of 8
# each); after it the model is rebuilt so every step has a recorded loss.
EPISODE_EPOCHS = 16

# Logits may differ from the reference by this share of max|logit|; a
# loss by this share of itself. Both admit float reassociation only.
EVAL_TOL = 1e-9
LOSS_TOL = 1e-9

EVAL_INPUT = (1, 3, 224, 224)


def input_seed(seed: int) -> int:
    return seed % POOL


def loss_matches(loss: float, ref: float) -> bool:
    return bool(np.isfinite(loss)) and abs(loss - ref) <= LOSS_TOL * abs(ref)


def logits_match(logits: np.ndarray, ref: np.ndarray) -> bool:
    logits = np.asarray(logits).reshape(-1)
    if logits.shape != ref.shape or not np.all(np.isfinite(logits)):
        return False
    return float(np.max(np.abs(logits - ref))) <= EVAL_TOL * float(np.max(np.abs(ref)))


def build_toy_model() -> models.Model:
    tm = defaults.TOY_MODEL
    return models.build_toy_epsanet(
        num_classes=defaults.TOY_DATASET["classes"],
        widths=tm["widths"],
        blocks=tm["blocks"],
        stem_channels=tm["stem_channels"],
        seed=tm["seed"],
    )


def batch_order(seed: int, m: int) -> np.ndarray:
    """The permutation `training.train` draws for `TrainConfig.seed`."""
    return np.random.Generator(np.random.PCG64(seed)).permutation(m)


class TrainToy:
    """Momentum-SGD steps on the frozen toy fixture, BN in training mode."""

    name = "train_toy"

    def __init__(self, seed: int):
        self.cfg = defaults.TOY_TRAIN
        self.ds = training.make_toy_dataset(**defaults.TOY_DATASET)
        order = batch_order(input_seed(seed), self.ds.images.n)
        bs = self.cfg.batch_size
        self.batches = [order[i : i + bs] for i in range(0, len(order), bs)]
        self.batch = bs
        self.episode = EPISODE_EPOCHS * len(self.batches)
        refs = json.loads((REFS / "train_toy_losses.json").read_text())
        self.ref = refs[str(input_seed(seed))][: self.episode]
        self.model = None
        self.i = self.episode  # forces a fresh model before the first step

    @property
    def input_shape(self):
        return (self.batch, *self.ds.images.shape[1:])

    def prepare(self) -> None:
        if self.i == self.episode:
            self.model = build_toy_model()
            self.no_decay = set(self.model.net.params()) - self.model.net.decay_names()
            self.state = None
            self.i = 0

    def step(self) -> float:
        net, cfg = self.model.net, self.cfg
        idx = self.batches[self.i % len(self.batches)]
        # Gathered, checked and wrapped every step, as training.train does.
        xb, yb = tensor.Tensor(self.ds.images.data[idx]), self.ds.labels[idx]
        lr = training.lr_at(self.i // len(self.batches), cfg)
        logits, vjp = net.apply(xb, training=True)
        loss, dlogits = training.label_smoothed_ce(logits, yb, cfg.label_smoothing)
        _, grads = vjp(dlogits)
        new_params, self.state = training.sgd_step(
            net.params(), grads, self.state, cfg, lr=lr, no_decay=self.no_decay
        )
        for name, value in new_params.items():
            net.set_param(name, value)
        self.i += 1
        return loss

    def check(self, loss: float) -> bool:
        return loss_matches(loss, self.ref[self.i - 1])


class EvalForward:
    """Eval-mode forward of a canonical model to logits at 1x3x224x224."""

    def __init__(self, name: str, model_name: str, seed: int):
        self.name = name
        self.model = models.build_model(model_name)
        self.x = tensor.random_uniform(EVAL_INPUT, seed=input_seed(seed))
        self.ref = np.load(REFS / f"{name}_logits.npy")[input_seed(seed)]
        self.batch = EVAL_INPUT[0]
        self.input_shape = EVAL_INPUT

    def prepare(self) -> None:
        pass

    def step(self) -> np.ndarray:
        return models.forward(self.model, self.x)

    def check(self, logits: np.ndarray) -> bool:
        return logits_match(logits, self.ref)


WORKLOADS = {
    "train_toy": TrainToy,
    "eval_epsanet50_small": lambda seed: EvalForward("eval_epsanet50_small", "epsanet50_small", seed),
    "eval_resnet50": lambda seed: EvalForward("eval_resnet50", "resnet50", seed),
}


def make(name: str, seed: int):
    return WORKLOADS[name](seed)
