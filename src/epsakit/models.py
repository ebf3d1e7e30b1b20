"""Bottleneck blocks and declarative builders for the ResNet / SENet / EPSANet family.

Networks are trees of `Layer` objects. Every layer implements

    apply(x, training) -> (y, vjp)   vjp(dy) -> (dx, {param_name: grad})

x and y are Tensors; dy, dx and the gradients are plain ndarrays. When
`training` is false, a composite returns vjp=None and keeps no closure, so
an eval forward frees each activation once the next layer has read it (a
leaf still returns its op's backward, which the chain drops). The chain
checks each child's dx for NaN/Inf once. A NonFiniteError from either
pass gets `layer`, the dotted name of the layer that failed, prefixed at
each level it passes up, and `phase`, "forward" or "backward".

Every layer also says what it is made of in one of two ways. A composite
(`Bottleneck`, `Network`) lists its named `children()` in the order its
forward runs them, and runs them with the one chain runner `_chain`. A
leaf lists its parameter `slots()`: name -> (owner, attribute) of the
array it reads (batch norm also lists its running statistics in
`state_slots()`). Everything else derives from those lists, in `Layer`:

    params()       {dotted name: array}, in forward order
    set_param()    replace one parameter with a finite value of its shape
    state()        batch-norm running statistics (not trained)
    decay_names()  the parameters L2 decay applies to: every `*.weight`;
                   biases and batch-norm gamma/beta do not decay
    complexity()   (out_shape, [LayerRow]), the shape threaded through the
                   children; leaves add their own rows

Parameter names are dotted paths, unique within a network. Parameter
updates rebind arrays (they never mutate tensors in place), so an
eval-mode forward is safe to run concurrently.

PSA is a drop-in for the bottleneck's 3x3 conv: `Bottleneck` differs
between ResNet and EPSANet only in the layer it puts at `conv2`. SENet's
SE layer runs the same SE op (`psa._se_weight_grad`) as PSA, without biases.
"""

from __future__ import annotations

import json
from contextlib import contextmanager
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from . import ops
from .ops import BatchNormParams, Conv2dParams, LinearParams, _rng, conv_output_size
from .psa import PsaConfig, PsaParams, SeWeightParams, _se_weight_grad, psa_with_grad
from .tensor import NonFiniteError, Tensor, _wrap

__all__ = [
    "Layer",
    "LayerRow",
    "BlockSpec",
    "StageSpec",
    "ModelSpec",
    "Model",
    "MODEL_NAMES",
    "LARGE_KERNELS",
    "LARGE_GROUPS",
    "build_model",
    "build_block",
    "build_toy_epsanet",
    "build_epsanet50_with_groups",
    "ablation_configs",
    "forward",
    "describe",
    "spec_to_config",
    "config_to_spec",
    "build_from_config",
]


@dataclass(frozen=True)
class LayerRow:
    """One line of the per-layer complexity ledger."""

    name: str
    params: int
    flops: int
    output_shape: tuple[int, int, int, int]


def _prefix(rows: list[LayerRow], name: str) -> list[LayerRow]:
    return [LayerRow(f"{name}.{r.name}" if r.name else name, r.params, r.flops, r.output_shape) for r in rows]


def _ledger(layers, shape) -> tuple[tuple, list[LayerRow]]:
    """Thread a shape through (name, layer) pairs; collect their named rows."""
    rows = []
    for name, layer in layers:
        shape, r = layer.complexity(shape)
        rows += _prefix(r, name)
    return shape, rows


@contextmanager
def _located(name: str, phase: str):
    """Prefix a NonFiniteError's layer path with name; keep an inner phase."""
    try:
        yield
    except NonFiniteError as err:
        err.layer = name if err.layer is None else f"{name}.{err.layer}"
        err.phase = err.phase or phase
        raise


def _chain(layers, x: Tensor, training: bool):
    """Run (name, layer) pairs in order; the vjp (None in eval) names each gradient and checks each dx."""
    vjps = []
    for name, layer in layers:
        with _located(name, "forward"):
            x, vjp = layer.apply(x, training)
        if training:
            vjps.append((name, vjp))
    if not training:
        return x, None

    def vjp(dy):
        grads: dict[str, np.ndarray] = {}
        for name, v in reversed(vjps):
            with _located(name, "backward"):
                dy, g = v(dy)
                if not np.isfinite(dy).all():
                    raise NonFiniteError("gradient has NaN or Inf")
            grads.update({f"{name}.{k}": a for k, a in g.items()})
        return dy, grads

    return x, vjp


def _weight_bias(p, prefix: str = "") -> dict:
    """Slots of a conv or linear parameter set: its weight, and its bias if any."""
    out = {f"{prefix}weight": (p, "weight")}
    if p.bias is not None:
        out[f"{prefix}bias"] = (p, "bias")
    return out


class Layer:
    """Base of every layer; see the module docstring for the protocol."""

    def children(self) -> list[tuple[str, "Layer"]]:
        return []

    def slots(self) -> dict[str, tuple[object, str]]:
        """A leaf's own parameters: name -> (owner, attribute)."""
        return {}

    def state_slots(self) -> dict[str, tuple[object, str]]:
        """A leaf's own running state, in the same form."""
        return {}

    def _walk(self, state: bool = False, prefix: str = ""):
        """Yield (dotted name, array) for every slot in this subtree."""
        own = self.state_slots() if state else self.slots()
        for name, (owner, attr) in own.items():
            yield prefix + name, getattr(owner, attr)
        for name, child in self.children():
            yield from child._walk(state, f"{prefix}{name}.")

    def params(self) -> dict[str, np.ndarray]:
        return {name: v.data if isinstance(v, Tensor) else v for name, v in self._walk()}

    def state(self) -> dict[str, np.ndarray]:
        """Live running statistics; loading a checkpoint writes into them."""
        return dict(self._walk(state=True))

    def decay_names(self) -> set[str]:
        return {name for name, _ in self._walk() if name.rsplit(".", 1)[-1] == "weight"}

    def _slot(self, name: str) -> tuple[object, str]:
        for cname, child in self.children():
            if name.startswith(cname + "."):
                return child._slot(name[len(cname) + 1:])
        return self.slots()[name]

    def set_param(self, name: str, value: np.ndarray) -> None:
        """Rebind one parameter to a copy of value, which must keep its shape
        and be finite; a NonFiniteError names the parameter as its `layer`."""
        owner, attr = self._slot(name)
        old = getattr(owner, attr)
        value = np.array(value, dtype=np.float64)
        if value.shape != old.shape:
            raise ValueError(f"{name}: shape {value.shape} != {old.shape}")
        if not np.isfinite(value).all():
            err = NonFiniteError(f"{name} has NaN or Inf")
            err.layer = name
            raise err
        setattr(owner, attr, _wrap(value) if isinstance(old, Tensor) else value)

    def complexity(self, in_shape) -> tuple[tuple, list[LayerRow]]:
        return _ledger(self.children(), in_shape)


def _conv_row(p: Conv2dParams, in_shape) -> tuple[tuple, LayerRow]:
    n, _, h, w = in_shape
    ho = conv_output_size(h, p.kernel, p.stride, p.padding)
    wo = conv_output_size(w, p.kernel, p.stride, p.padding)
    out_shape = (n, p.out_channels, ho, wo)
    macs = n * p.out_channels * ho * wo * (p.in_channels // p.groups) * p.kernel * p.kernel
    return out_shape, LayerRow("", p.param_count, macs, out_shape)


class Conv(Layer):
    def __init__(self, in_c, out_c, kernel, stride=1, padding=0, groups=1, bias=False, rng=None):
        self.p = Conv2dParams.init(in_c, out_c, kernel, stride, padding, groups, bias, _rng(rng or 0))

    def slots(self):
        return _weight_bias(self.p)

    def apply(self, x: Tensor, training: bool):
        return ops.conv2d(x, self.p)

    def complexity(self, in_shape):
        out_shape, row = _conv_row(self.p, in_shape)
        return out_shape, [row]


class BatchNorm(Layer):
    def __init__(self, channels):
        self.p = BatchNormParams.init(channels)

    def slots(self):
        return {n: (self.p, n) for n in ("gamma", "beta")}

    def state_slots(self):
        return {n: (self.p, n) for n in ("running_mean", "running_var")}

    def apply(self, x: Tensor, training: bool):
        return ops.batch_norm(x, self.p, training)

    def complexity(self, in_shape):
        return in_shape, [LayerRow("", self.p.param_count, 0, in_shape)]


class ReLU(Layer):
    def apply(self, x: Tensor, training: bool):
        return ops.relu(x)


class MaxPool(Layer):
    def __init__(self, kernel=3, stride=2, padding=1):
        self.kernel, self.stride, self.padding = kernel, stride, padding

    def apply(self, x: Tensor, training: bool):
        return ops.max_pool(x, self.kernel, self.stride, self.padding)

    def complexity(self, in_shape):
        n, c, h, w = in_shape
        ho = conv_output_size(h, self.kernel, self.stride, self.padding)
        wo = conv_output_size(w, self.kernel, self.stride, self.padding)
        out_shape = (n, c, ho, wo)
        return out_shape, [LayerRow("", 0, 0, out_shape)]


class GlobalAvgPool(Layer):
    def apply(self, x: Tensor, training: bool):
        in_shape = x.shape
        return ops.global_avg_pool(x), lambda dy: (ops._global_avg_pool_vjp(in_shape, dy), {})

    def complexity(self, in_shape):
        n, c, _, _ = in_shape
        out_shape = (n, c, 1, 1)
        return out_shape, [LayerRow("", 0, 0, out_shape)]


class Linear(Layer):
    """Affine head on a (N, C, 1, 1) tensor; its vjp also takes a (N, out) array."""

    def __init__(self, in_f, out_f, bias=True, rng=None):
        self.p = LinearParams.init(in_f, out_f, bias, _rng(rng or 0))

    def slots(self):
        return _weight_bias(self.p)

    def apply(self, x: Tensor, training: bool):
        return ops.linear(x, self.p)

    def complexity(self, in_shape):
        n = in_shape[0]
        out_shape = (n, self.p.out_features, 1, 1)
        return out_shape, [LayerRow("", self.p.param_count, n * self.p.in_features * self.p.out_features, out_shape)]


class SeScale(Layer):
    """Squeeze-excitation recalibration x * se_weight(x), with bias-free FCs."""

    def __init__(self, channels, reduction=16, rng=None):
        self.se = SeWeightParams.init(channels, reduction, _rng(rng or 0), bias=False)

    def slots(self):
        return {**_weight_bias(self.se.fc0, "fc0."), **_weight_bias(self.se.fc1, "fc1.")}

    def apply(self, x: Tensor, training: bool):
        gp = _se_weight_grad(x, self.se)
        w = gp.output.data

        def vjp(dy):
            dx_se, grads = gp.backward((dy * x.data).sum(axis=(2, 3), keepdims=True))
            return dy * w + dx_se, grads

        return _wrap(x.data * w), vjp

    def complexity(self, in_shape):
        n, c = in_shape[:2]
        macs = n * 2 * c * self.se.fc0.out_features
        return in_shape, [LayerRow("", self.se.param_count, macs, in_shape)]


class Psa(Layer):
    """PSA module as a layer; parameter names follow the PsaParams layout."""

    def __init__(self, config: PsaConfig, rng=None):
        self.p = PsaParams.init(config, _rng(rng or 0))

    def slots(self):
        out = {}
        for i, c in enumerate(self.p.branch_convs):
            out.update(_weight_bias(c, f"branch{i}."))
        return {**out, **_weight_bias(self.p.se.fc0, "se.fc0."), **_weight_bias(self.p.se.fc1, "se.fc1.")}

    def apply(self, x: Tensor, training: bool):
        return psa_with_grad(x, self.p)

    def complexity(self, in_shape):
        cfg = self.p.config
        rows = []
        for i, conv in enumerate(self.p.branch_convs):
            (n, _, ho, wo), row = _conv_row(conv, in_shape)
            rows.append(LayerRow(f"branch{i}", row.params, row.flops, row.output_shape))
        cp = cfg.branch_channels
        se_macs = n * cfg.scales * 2 * cp * self.p.se.fc0.out_features
        rows.append(LayerRow("se", self.p.se.param_count, se_macs, (n, cp, 1, 1)))
        return (n, cfg.channels, ho, wo), rows


@dataclass(frozen=True)
class BlockSpec:
    """One bottleneck: kind in {resnet, se, epsa}; psa present iff kind == epsa."""

    kind: str
    mid_channels: int
    out_channels: int
    stride: int = 1
    psa: PsaConfig | None = None
    se_reduction: int = 16

    def __post_init__(self) -> None:
        if self.kind not in ("resnet", "se", "epsa"):
            raise ValueError(f"unknown block kind {self.kind!r}")
        if (self.psa is not None) != (self.kind == "epsa"):
            raise ValueError("psa config must be present exactly when kind == 'epsa'")
        if self.stride not in (1, 2):
            raise ValueError(f"stride must be 1 or 2, got {self.stride}")
        if min(self.mid_channels, self.out_channels, self.se_reduction) < 1:
            raise ValueError("block channels and se_reduction must be >= 1")


@dataclass(frozen=True)
class StageSpec:
    blocks: int
    first_stride: int
    block: BlockSpec

    def __post_init__(self) -> None:
        if self.blocks < 1:
            raise ValueError(f"a stage needs >= 1 blocks, got {self.blocks}")


@dataclass(frozen=True)
class ModelSpec:
    name: str
    stages: tuple[StageSpec, ...]
    num_classes: int = 1000
    stem_channels: int = 64

    def __post_init__(self) -> None:
        if self.num_classes < 1 or self.stem_channels < 1:
            raise ValueError("num_classes and stem_channels must be >= 1")


class Bottleneck(Layer):
    """Residual bottleneck; the middle op is a 3x3 conv or a PSA module.

    `body` is the residual branch, `shortcut` the projection (empty for an
    identity shortcut); both read the block input.
    """

    def __init__(self, spec: BlockSpec, in_channels: int, stride: int, rng):
        mid, out = spec.mid_channels, spec.out_channels
        self.spec = spec
        self.conv1 = Conv(in_channels, mid, 1, rng=rng)
        if spec.kind == "epsa":
            cfg = spec.psa
            if cfg.channels != mid:
                raise ValueError(f"psa channels {cfg.channels} != mid {mid}")
            self.conv2 = Psa(replace(cfg, stride=stride), rng)
        else:
            self.conv2 = Conv(mid, mid, 3, stride=stride, padding=1, rng=rng)
        self.conv3 = Conv(mid, out, 1, rng=rng)
        self.relu = ReLU()
        self.body = [
            ("conv1", self.conv1), ("bn1", BatchNorm(mid)), ("relu", self.relu),
            ("conv2", self.conv2), ("bn2", BatchNorm(mid)), ("relu", self.relu),
            ("conv3", self.conv3), ("bn3", BatchNorm(out)),
        ]
        if spec.kind == "se":
            self.body.append(("se", SeScale(out, spec.se_reduction, rng)))
        self.shortcut = []
        if stride != 1 or in_channels != out:
            self.shortcut = [
                ("downsample.conv", Conv(in_channels, out, 1, stride=stride, rng=rng)),
                ("downsample.bn", BatchNorm(out)),
            ]

    def children(self):
        return self.body + self.shortcut

    def apply(self, x: Tensor, training: bool):
        h, body_vjp = _chain(self.body, x, training)
        s, shortcut_vjp = _chain(self.shortcut, x, training)
        y, relu_vjp = self.relu.apply(_wrap(h.data + s.data), training)
        if not training:
            return y, None

        def vjp(dy):
            dpre, _ = relu_vjp(dy)
            dh, grads = body_vjp(dpre)
            ds, g = shortcut_vjp(dpre)
            grads.update(g)
            return dh + ds, grads

        return y, vjp

    def complexity(self, in_shape):
        shape, rows = _ledger(self.body, in_shape)
        return shape, rows + _ledger(self.shortcut, in_shape)[1]


class Network(Layer):
    """Stem + stages + classifier head, built from a ModelSpec."""

    def __init__(self, spec: ModelSpec, seed: int = 0):
        rng = _rng(seed)
        self.spec = spec
        self.layers = [
            ("stem.conv", Conv(3, spec.stem_channels, 7, stride=2, padding=3, rng=rng)),
            ("stem.bn", BatchNorm(spec.stem_channels)),
            ("relu", ReLU()),
            ("maxpool", MaxPool(3, 2, 1)),
        ]
        in_c = spec.stem_channels
        for i, st in enumerate(spec.stages, start=1):
            for b in range(st.blocks):
                stride = st.first_stride if b == 0 else 1
                self.layers.append((f"layer{i}.{b}", Bottleneck(st.block, in_c, stride, rng)))
                in_c = st.block.out_channels
        self.layers += [("gap", GlobalAvgPool()), ("fc", Linear(in_c, spec.num_classes, bias=True, rng=rng))]

    def children(self):
        return self.layers

    def apply(self, x: Tensor, training: bool = False):
        """Returns (logits, vjp); logits is a (N, num_classes) array."""
        y, vjp = _chain(self.layers, x, training)
        return y.data.reshape(y.n, y.c), vjp

    def forward(self, x: Tensor, training: bool = False) -> np.ndarray:
        logits, _ = self.apply(x, training)
        return logits

    # Defined on the class itself, so a profiler can wrap them here.
    params = Layer.params
    set_param = Layer.set_param


@dataclass
class Model:
    """Built network plus its declarative spec."""

    spec: ModelSpec
    net: Network

    @property
    def name(self) -> str:
        return self.spec.name


# EPSANet configurations. Small follows the kernel ladder (3, 5, 7, 9) with
# the per-kernel group rule (1, 4, 8, 16) at the ResNet bottleneck widths.
# Large doubles the bottleneck width and runs every branch at group size 32;
# its kernel set is the pyramid with sum(k^2) = 108, which is what lands the
# published parameter/FLOP totals exactly at those widths.
SMALL_KERNELS = (3, 5, 7, 9)
SMALL_GROUPS = (1, 4, 8, 16)
LARGE_KERNELS = (3, 5, 5, 7)
LARGE_GROUPS = (32, 32, 32, 32)

_BASE_WIDTHS = (64, 128, 256, 512)
_REPEATS = {"50": (3, 4, 6, 3), "101": (3, 4, 23, 3)}


def _family_spec(name, kind, repeats, num_classes, widths=_BASE_WIDTHS, psa_of=None):
    stages = []
    for i, (m, reps) in enumerate(zip(widths, repeats)):
        out = 4 * _BASE_WIDTHS[i]
        psa = psa_of(m) if psa_of else None
        block = BlockSpec(kind=kind, mid_channels=m, out_channels=out, psa=psa)
        stages.append(StageSpec(blocks=reps, first_stride=1 if i == 0 else 2, block=block))
    return ModelSpec(name=name, stages=tuple(stages), num_classes=num_classes)


def _spec_for(name: str, num_classes: int) -> ModelSpec:
    depth = "101" if "101" in name else "50"
    reps = _REPEATS[depth]
    if name.startswith("resnet"):
        return _family_spec(name, "resnet", reps, num_classes)
    if name.startswith("senet"):
        return _family_spec(name, "se", reps, num_classes)
    if name.startswith("epsanet") and name.endswith("small"):
        return _family_spec(
            name, "epsa", reps, num_classes,
            psa_of=lambda m: PsaConfig(m, 4, SMALL_KERNELS, SMALL_GROUPS),
        )
    if name.startswith("epsanet") and name.endswith("large"):
        widths = tuple(2 * w for w in _BASE_WIDTHS)
        return _family_spec(
            name, "epsa", reps, num_classes, widths=widths,
            psa_of=lambda m: PsaConfig(m, 4, LARGE_KERNELS, LARGE_GROUPS),
        )
    raise KeyError(name)


MODEL_NAMES = (
    "resnet50", "resnet101",
    "senet50", "senet101",
    "epsanet50_small", "epsanet50_large",
    "epsanet101_small", "epsanet101_large",
)


def build_model(name: str, num_classes: int = 1000, seed: int = 0) -> Model:
    """Build one of the canonical models by name."""
    if name not in MODEL_NAMES:
        raise KeyError(f"unknown model {name!r}; known: {', '.join(MODEL_NAMES)}")
    spec = _spec_for(name, num_classes)
    return Model(spec, Network(spec, seed))


def build_block(spec: BlockSpec, in_channels: int, stride: int | None = None, seed: int = 0):
    """Materialize a single bottleneck block."""
    return Bottleneck(spec, in_channels, spec.stride if stride is None else stride, _rng(seed))


def build_epsanet50_with_groups(groups: Sequence[int], num_classes: int = 1000, seed: int = 0) -> Model:
    """EPSANet-50 at the small widths with a custom per-branch group list."""
    groups = tuple(int(g) for g in groups)
    spec = _family_spec(
        f"epsanet50_groups_{'_'.join(map(str, groups))}", "epsa", _REPEATS["50"], num_classes,
        psa_of=lambda m: PsaConfig(m, 4, SMALL_KERNELS, groups),
    )
    return Model(spec, Network(spec, seed))


def ablation_configs() -> list[PsaConfig]:
    """The three kernel/group settings of the group-size ablation.

    All share the (3, 5, 7, 9) kernel ladder; the last entry, (1, 4, 8, 16),
    is the default small configuration. channels=64 is the first-stage
    width; builders rescale per stage.
    """
    rows = [(4, 8, 16, 16), (16, 16, 16, 16), (1, 4, 8, 16)]
    return [PsaConfig(64, 4, SMALL_KERNELS, g) for g in rows]


def build_toy_epsanet(
    num_classes: int = 4,
    widths: Sequence[int] = (32, 64),
    blocks: Sequence[int] = (1, 1),
    stem_channels: int = 32,
    seed: int = 0,
) -> Model:
    """Reduced EPSANet for desk-scale training experiments."""
    from .psa import default_groups

    stages = []
    in_c = stem_channels
    for i, (m, reps) in enumerate(zip(widths, blocks)):
        cfg = PsaConfig(m, 4, SMALL_KERNELS, default_groups(SMALL_KERNELS, m, 4))
        block = BlockSpec(kind="epsa", mid_channels=m, out_channels=4 * m, psa=cfg)
        stages.append(StageSpec(blocks=reps, first_stride=1 if i == 0 else 2, block=block))
    spec = ModelSpec(
        name="epsanet_toy", stages=tuple(stages),
        num_classes=num_classes, stem_channels=stem_channels,
    )
    return Model(spec, Network(spec, seed))


def forward(model: Model, x: Tensor) -> np.ndarray:
    """Eval-mode forward pass to logits, shape (N, num_classes)."""
    if x.h < 32 or x.w < 32:
        raise ValueError(f"input spatial size {x.h}x{x.w} is below the 32-pixel minimum")
    return model.net.forward(x, training=False)


# Model-config schema (JSON): {name, num_classes, stem_channels,
# stages: [{repeats, mid_channels, kind, out_channels, se_reduction?, psa?}]}

def spec_to_config(spec: ModelSpec) -> dict:
    stages = []
    for st in spec.stages:
        d = {
            "repeats": st.blocks,
            "mid_channels": st.block.mid_channels,
            "kind": st.block.kind,
            "out_channels": st.block.out_channels,
        }
        if st.block.kind == "se":
            d["se_reduction"] = st.block.se_reduction
        if st.block.psa is not None:
            d["psa"] = st.block.psa.to_dict()
        stages.append(d)
    return {
        "name": spec.name,
        "num_classes": spec.num_classes,
        "stem_channels": spec.stem_channels,
        "stages": stages,
    }


def config_to_spec(cfg: dict) -> ModelSpec:
    """Parse a model config. A missing field raises KeyError; a field of the
    wrong JSON type (say, a number where a list or object belongs) or a
    bad value raises ValueError."""
    try:
        stages = []
        for i, st in enumerate(cfg["stages"]):
            mid = int(st["mid_channels"])
            kind = st["kind"]
            out = int(st.get("out_channels", 4 * mid))
            psa = PsaConfig.from_dict(mid, st["psa"]) if kind == "epsa" else None
            block = BlockSpec(
                kind=kind, mid_channels=mid, out_channels=out, psa=psa,
                se_reduction=int(st.get("se_reduction", 16)),
            )
            stride = 1 if i == 0 else 2
            stages.append(StageSpec(blocks=int(st["repeats"]), first_stride=stride, block=block))
        return ModelSpec(
            name=str(cfg.get("name", "custom")),
            stages=tuple(stages),
            num_classes=int(cfg.get("num_classes", 1000)),
            stem_channels=int(cfg.get("stem_channels", 64)),
        )
    except TypeError as err:
        raise ValueError(f"a model config field has the wrong JSON type ({err})") from None


def build_from_config(cfg: dict, seed: int = 0) -> Model:
    spec = config_to_spec(cfg)
    return Model(spec, Network(spec, seed))


def _psa_label(cfg: PsaConfig) -> str:
    if len(set(cfg.groups)) == 1 and cfg.groups[0] != 1:
        return f"PSA(G={cfg.groups[0]})"
    if cfg.groups == SMALL_GROUPS:
        return "PSA"
    return f"PSA(G={','.join(map(str, cfg.groups))})"


@dataclass
class ModelDescription:
    name: str
    input_size: int
    rows: list[dict]
    config: dict

    def to_json(self) -> str:
        return json.dumps(
            {"name": self.name, "input_size": self.input_size,
             "rows": self.rows, "config": self.config},
            indent=2, sort_keys=True,
        )

    def to_text(self) -> str:
        lines = [f"{self.name} @ {self.input_size}x{self.input_size}"]
        for r in self.rows:
            out = f"{r['output_size']}x{r['output_size']}"
            lines.append(f"  {out:>9s}  {self._op_string(r)}")
        return "\n".join(lines)

    @staticmethod
    def _op_string(row: dict) -> str:
        if "operators" in row:
            return f"[{'; '.join(row['operators'])}] x{row['repeats']}"
        return row["operator"]


def describe(model: Model | ModelSpec, input_size: int = 224) -> ModelDescription:
    """Stage-by-stage structural listing with computed output sizes."""
    spec = model.spec if isinstance(model, Model) else model
    rows = []
    size = conv_output_size(input_size, 7, 2, 3)
    rows.append({"stage": "stem", "operator": f"7x7, {spec.stem_channels}, stride 2", "output_size": size})
    size = conv_output_size(size, 3, 2, 1)
    rows.append({"stage": "pool", "operator": "3x3 max pool, stride 2", "output_size": size})
    for i, st in enumerate(spec.stages, start=1):
        if st.first_stride == 2:
            size = conv_output_size(size, 3, 2, 1)
        b = st.block
        if b.kind == "epsa":
            mid_op = f"{_psa_label(b.psa)}, {b.mid_channels}"
        else:
            mid_op = f"3x3, {b.mid_channels}"
        operators = [f"1x1, {b.mid_channels}", mid_op, f"1x1, {b.out_channels}"]
        if b.kind == "se":
            operators.append(f"SE(r={b.se_reduction})")
        rows.append({
            "stage": f"stage{i}", "operators": operators,
            "repeats": st.blocks, "output_size": size,
        })
    rows.append({
        "stage": "head",
        "operator": f"{size}x{size} global average pool, {spec.num_classes}-d fc",
        "output_size": 1,
    })
    return ModelDescription(spec.name, input_size, rows, spec_to_config(spec))
