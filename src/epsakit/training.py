"""Desk-scale training: SGD with momentum and L2 weight decay, label-smoothed
cross-entropy, a step learning-rate schedule, and a synthetic separable
dataset for overfitting checks.

A checkpoint is one NumPy .npz file that holds every parameter and
batch-norm running statistic under its dotted name. `save_params` puts it
in place with a single rename, so a crash leaves the target holding the
previous checkpoint or the new one, whole; `load_params` checks every
entry before it binds any.

The batch partition is shuffled once per run (not per epoch) so that a
zero learning rate provably yields a flat loss curve; at 32-sample scale
this costs nothing.
"""

from __future__ import annotations

import json
import os
import re
import zipfile
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .models import Model
from .tensor import NonFiniteError, Tensor, _wrap

__all__ = [
    "TrainConfig",
    "ToyDataset",
    "TrainingDiverged",
    "TrainingHistory",
    "label_smoothed_ce",
    "sgd_step",
    "lr_at",
    "make_toy_dataset",
    "train",
    "evaluate",
    "save_params",
    "load_params",
]


@dataclass(frozen=True)
class TrainConfig:
    lr: float = 0.1
    momentum: float = 0.9
    weight_decay: float = 1e-4
    label_smoothing: float = 0.1
    lr_decay_factor: float = 10.0
    lr_decay_every: int = 30
    batch_size: int = 8
    epochs: int = 50
    seed: int = 0

    def __post_init__(self) -> None:
        for name in ("lr", "momentum", "weight_decay", "lr_decay_factor"):
            if not np.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
        if self.lr < 0 or self.momentum < 0 or self.weight_decay < 0:
            raise ValueError("rates must be non-negative")
        if not 0.0 <= self.label_smoothing < 1.0:
            raise ValueError(f"label_smoothing {self.label_smoothing} outside [0, 1)")
        if self.lr_decay_factor <= 0 or self.lr_decay_every <= 0:
            raise ValueError("decay settings must be positive")
        if self.batch_size <= 0 or self.epochs <= 0:
            raise ValueError("batch_size/epochs must be positive")


@dataclass(frozen=True)
class ToyDataset:
    images: Tensor
    labels: np.ndarray
    num_classes: int

    def __post_init__(self) -> None:
        if self.labels.shape != (self.images.n,):
            raise ValueError("one label per image required")
        if self.labels.min() < 0 or self.labels.max() >= self.num_classes:
            raise ValueError("labels outside [0, num_classes)")


class TrainingDiverged(RuntimeError):
    """A training run went non-finite; callers read the fields, not the message.

    `step` is the step that failed (the step count, at the final
    evaluation). `phase` is "forward", "backward", "loss" or "update".
    `layer` is the dotted name of the layer whose output or input gradient
    went non-finite, of the parameter the update made non-finite, or None
    for the loss. `last_finite_loss` is the last finite loss the run saw,
    None if it failed before its first. In the forward and backward phases
    a NonFiniteError is the __cause__; a loss or update failure has none.
    """

    def __init__(self, step: int, phase: str, layer: str | None, last_finite_loss: float | None):
        where = f" in {layer}" if layer else ""
        super().__init__(
            f"non-finite {phase} at step {step}{where} (last finite loss {last_finite_loss})"
        )
        self.step, self.phase, self.layer = step, phase, layer
        self.last_finite_loss = last_finite_loss


def label_smoothed_ce(logits: np.ndarray, labels: np.ndarray, alpha: float):
    """Cross-entropy against (1-a)*onehot + a/K targets; a outside [0, 1) is a ValueError.

    Returns (loss, dloss/dlogits); the gradient is averaged over the batch.
    """
    if not 0.0 <= alpha < 1.0:
        raise ValueError(f"label smoothing alpha {alpha} outside [0, 1)")
    logits = np.asarray(logits, dtype=np.float64)
    labels = np.asarray(labels)
    n, k = logits.shape
    if labels.shape != (n,):
        raise ValueError(f"labels shape {labels.shape} != ({n},)")
    if labels.min() < 0 or labels.max() >= k:
        raise ValueError("label outside [0, num_classes)")
    shifted = logits - logits.max(axis=1, keepdims=True)
    logz = np.log(np.exp(shifted).sum(axis=1, keepdims=True))
    log_probs = shifted - logz
    targets = np.full((n, k), alpha / k)
    targets[np.arange(n), labels] += 1.0 - alpha
    loss = float(-(targets * log_probs).sum() / n)
    grad = (np.exp(log_probs) - targets) / n
    return loss, grad


def sgd_step(
    params: dict[str, np.ndarray],
    grads: dict[str, np.ndarray],
    state: dict[str, np.ndarray] | None,
    cfg: TrainConfig,
    lr: float | None = None,
    no_decay: frozenset[str] | set[str] = frozenset(),
):
    """One momentum-SGD update: v <- m*v + g + wd*p; p <- p - lr*v.

    Pure: returns (new_params, new_state). Names in no_decay skip the L2
    term (batch-norm parameters and biases, conventionally).
    """
    lr = cfg.lr if lr is None else lr
    state = {} if state is None else state
    new_params: dict[str, np.ndarray] = {}
    new_state: dict[str, np.ndarray] = {}
    for name, p in params.items():
        g = grads[name]
        if g.shape != p.shape:
            raise ValueError(f"{name}: grad shape {g.shape} != param shape {p.shape}")
        if cfg.weight_decay and name not in no_decay:
            g = g + cfg.weight_decay * p
        v = state.get(name)
        v = g if v is None else cfg.momentum * v + g
        new_state[name] = v
        new_params[name] = p - lr * v
    return new_params, new_state


def lr_at(epoch: int, cfg: TrainConfig) -> float:
    """Step schedule: base lr divided by factor every lr_decay_every epochs."""
    if epoch < 0:
        raise ValueError("epoch must be >= 0")
    return cfg.lr / (cfg.lr_decay_factor ** (epoch // cfg.lr_decay_every))


def make_toy_dataset(seed: int, m: int, classes: int, size: int) -> ToyDataset:
    """Separable synthetic images: class-coded stripe frequency, orientation
    and channel bias, plus noise. Deterministic for a fixed seed."""
    if m < classes:
        raise ValueError("need at least one sample per class")
    rng = np.random.Generator(np.random.PCG64(seed))
    labels = np.arange(m) % classes
    yy, xx = np.meshgrid(np.arange(size), np.arange(size), indexing="ij")
    images = np.empty((m, 3, size, size))
    for idx in range(m):
        c = labels[idx]
        theta = np.pi * c / classes
        freq = 2.0 + 2.0 * c
        phase = rng.uniform(0, 2 * np.pi)
        wave = np.sin(2 * np.pi * freq * (xx * np.cos(theta) + yy * np.sin(theta)) / size + phase)
        for ch in range(3):
            bias = 0.5 if (c % 3) == ch else -0.5
            images[idx, ch] = bias + wave * (0.5 + 0.5 * ((c // 3) % 2 == ch % 2))
    images += 0.25 * rng.standard_normal(images.shape)
    return ToyDataset(Tensor(images), labels, classes)


@dataclass
class TrainingHistory:
    steps: list[dict] = field(default_factory=list)
    epochs: list[dict] = field(default_factory=list)
    summary: dict = field(default_factory=dict)

    def to_csv(self) -> str:
        lines = ["epoch,step,lr,loss,accuracy"]
        for r in self.steps:
            lines.append(
                f"{r['epoch']},{r['step']},{r['lr']!r},{r['loss']!r},{r['accuracy']!r}"
            )
        return "\n".join(lines) + "\n"

    def summary_json(self) -> str:
        return json.dumps(self.summary, indent=2, sort_keys=True)


def evaluate(model: Model, dataset: ToyDataset, alpha: float = 0.0):
    """Eval-mode loss and accuracy over the whole dataset."""
    logits, _ = model.net.apply(dataset.images, training=False)
    loss, _ = label_smoothed_ce(logits, dataset.labels, alpha)
    accuracy = float((logits.argmax(axis=1) == dataset.labels).mean())
    return loss, accuracy


def train(model: Model, dataset: ToyDataset, cfg: TrainConfig) -> TrainingHistory:
    """Minibatch SGD; deterministic for a fixed seed.

    Raises TrainingDiverged on a non-finite activation, gradient, loss or
    parameter update; an update that would make any parameter non-finite
    rebinds none of them.
    """
    if model.spec.num_classes != dataset.num_classes:
        raise ValueError(
            f"model head ({model.spec.num_classes}) != dataset classes ({dataset.num_classes})"
        )
    rng = np.random.Generator(np.random.PCG64(cfg.seed))
    order = rng.permutation(dataset.images.n)
    batches = [
        order[i : i + cfg.batch_size] for i in range(0, len(order), cfg.batch_size)
    ]
    no_decay = set(model.net.params()) - model.net.decay_names()

    history = TrainingHistory()
    state: dict[str, np.ndarray] | None = None
    step = 0
    last_loss = None
    # A diverging run overflows before the finiteness check trips; the
    # warnings are expected noise on that path.
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for epoch in range(cfg.epochs):
            lr = lr_at(epoch, cfg)
            epoch_losses = []
            epoch_hits = 0
            for batch in batches:
                xb = _wrap(dataset.images.data[batch])
                yb = dataset.labels[batch]
                try:
                    logits, vjp = model.net.apply(xb, training=True)
                    loss, dlogits = label_smoothed_ce(logits, yb, cfg.label_smoothing)
                    if not np.isfinite(loss):
                        raise TrainingDiverged(step, "loss", None, last_loss)
                    last_loss = loss
                    _, grads = vjp(dlogits)
                except NonFiniteError as err:
                    raise TrainingDiverged(step, err.phase, err.layer, last_loss) from err
                params = model.net.params()
                new_params, state = sgd_step(params, grads, state, cfg, lr=lr, no_decay=no_decay)
                try:
                    model.net.assign(new_params)
                except NonFiniteError as err:
                    raise TrainingDiverged(step, "update", err.layer, last_loss) from None
                hits = int((logits.argmax(axis=1) == yb).sum())
                epoch_hits += hits
                epoch_losses.append(loss)
                history.steps.append({
                    "epoch": epoch, "step": step, "lr": lr,
                    "loss": loss, "accuracy": hits / len(yb),
                })
                step += 1
            history.epochs.append({
                "epoch": epoch, "lr": lr,
                "mean_loss": float(np.mean(epoch_losses)),
                "train_accuracy": epoch_hits / dataset.images.n,
            })

        try:
            final_loss, final_acc = evaluate(model, dataset, cfg.label_smoothing)
        except NonFiniteError as err:
            raise TrainingDiverged(step, err.phase, err.layer, last_loss) from err
    initial_loss = history.steps[0]["loss"]
    mean_losses = [e["mean_loss"] for e in history.epochs]
    history.summary = {
        "steps": step,
        "epochs": cfg.epochs,
        "seed": cfg.seed,
        "initial_loss": initial_loss,
        "final_loss": final_loss,
        "final_train_accuracy": final_acc,
        "loss_reduction_pct": 100.0 * (1.0 - final_loss / initial_loss),
        "no_learning": bool(
            len(mean_losses) >= 2 and max(mean_losses) - min(mean_losses) < 1e-12
        ) or cfg.lr == 0.0,
        "diverged": False,
    }
    return history


def _holds_checkpoint(path: str | Path) -> bool:
    """Whether path is a zip archive of .npy entries only, and at least one."""
    try:
        with zipfile.ZipFile(path) as archive:
            names = archive.namelist()
        return bool(names) and all(name.endswith(".npy") for name in names)
    except (zipfile.BadZipFile, OSError):
        return False


def save_params(model: Model, path: str | Path) -> None:
    """Write every parameter and batch-norm running statistic to one .npz
    file, each array under its dotted name.

    The archive goes to a sibling temporary file, which is flushed to disk
    and then renamed onto `path` by one `os.replace`: at every instant `path`
    holds the previous checkpoint (if any) or the new one, whole, and a save
    that fails leaves no temporary file behind. A target that exists and is
    not a zip archive of .npy entries only, and at least one, is refused.
    Temporary files left by killed saves to `path` are removed first, so
    concurrent saves to one path are unsupported: the one whose file was
    removed fails loudly at its `os.replace`, leaving `path` intact.
    """
    path = Path(os.path.abspath(path))  # "." has no name to put a sibling by
    if path.exists() and not (path.is_file() and _holds_checkpoint(path)):
        raise ValueError(f"{path} exists and holds no checkpoint")
    stale = re.compile(re.escape(f".{path.name}.") + "[0-9a-f]{16}" + re.escape(".tmp"))
    for sibling in path.parent.iterdir():
        if stale.fullmatch(sibling.name) and sibling.is_file():
            sibling.unlink(missing_ok=True)
    tmp = path.with_name(f".{path.name}.{os.urandom(8).hex()}.tmp")
    try:
        # Through a handle, so np.savez adds no .npz suffix to the name.
        with open(tmp, "wb") as fh:
            np.savez(fh, **model.net.params(), **model.net.state())
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)


def load_params(model: Model, path: str | Path) -> None:
    """Load a checkpoint written by save_params.

    Raises KeyError when its entries differ from the model's parameters and
    state, and ValueError when path is not a checkpoint by the rule
    `save_params` refuses a target by or when `Layer.assign` refuses an
    entry (a NonFiniteError for NaN or Inf); each before any write.
    """
    if not _holds_checkpoint(path):
        raise ValueError(f"{path} holds no checkpoint")
    with np.load(path, allow_pickle=False) as archive:
        values = {name: archive[name] for name in archive.files}
    current = {**model.net.params(), **model.net.state()}
    missing, extra = sorted(current.keys() - values.keys()), sorted(values.keys() - current.keys())
    if missing or extra:
        raise KeyError(f"checkpoint does not match the model: missing {missing}, extra {extra}")
    model.net.assign(values)
