"""Bottleneck blocks and declarative builders for the ResNet / SENet / EPSANet family.

Networks are trees of `ops.Layer`s whose leaves are the parameter sets and
the parameter-free layers of `ops`; `Psa` and `SeScale` are the `psa`
parameter composites with an `apply` added or replaced. Every layer a
forward applies is a tree node: each composite runs its children with
`ops._chain` in its caller's mode, so an eval forward (`training` false)
returns vjp=None at every depth, dropping each child's vjp as it returns.
The chain checks each dx for NaN/Inf once. A NonFiniteError from either
pass gets `layer`, the dotted name of the layer that failed, prefixed at
each level it passes up, and `phase`, "forward" or "backward".

`Network.apply(x, training)` returns (logits, vjp), the training entry;
`forward(model, x)` is the eval entry, returning the logits alone.

PSA is a drop-in for the bottleneck's 3x3 conv: `Bottleneck` differs
between ResNet and EPSANet only in the layer it puts at `conv2`. SENet's
SE layer runs the same SE weighter (`psa.SeWeightParams`) as PSA, without
biases, and reweights by the same product rule, `ops._rescale`.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, replace
from typing import Sequence

import numpy as np

from .ops import BatchNormParams, Conv2dParams, GlobalAvgPool, Layer, LayerRow, LinearParams, MaxPool, ReLU
from .ops import GradPair, _chain, _ledger, _rescale, _rng
from .psa import PsaConfig, PsaParams, SeWeightParams, _json, default_groups, psa_with_grad
from .tensor import Tensor, _wrap

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


class SeScale(SeWeightParams):
    """Squeeze-excitation recalibration x * se_weight(x) by `ops._rescale`,
    the weighter's children gating its input. SENet builds it without biases."""

    def apply(self, x: Tensor, training: bool):
        return _rescale(x, self.children(), training)

    def complexity(self, in_shape):
        _, [row] = super().complexity(in_shape)
        return in_shape, [replace(row, output_shape=in_shape)]


class Psa(PsaParams):
    """PSA module: its parameter set run as a layer. `apply` calls
    `psa_with_grad` through this module, where a profiler can wrap it."""

    def apply(self, x: Tensor, training: bool):
        return psa_with_grad(x, self, training)


@dataclass(frozen=True)
class BlockSpec:
    """One bottleneck: kind in {resnet, se, epsa}; psa present iff kind == epsa."""

    kind: str
    mid_channels: int
    out_channels: int
    psa: PsaConfig | None = None
    se_reduction: int = 16

    def __post_init__(self) -> None:
        if self.kind not in ("resnet", "se", "epsa"):
            raise ValueError(f"unknown block kind {self.kind!r}")
        if (self.psa is not None) != (self.kind == "epsa"):
            raise ValueError("psa config must be present exactly when kind == 'epsa'")
        if min(self.mid_channels, self.out_channels, self.se_reduction) < 1:
            raise ValueError("block channels and se_reduction must be >= 1")


@dataclass(frozen=True)
class StageSpec:
    """`blocks` copies of one bottleneck; Network sets their strides."""

    blocks: int
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
    identity shortcut); both read the block input. The residual sum frees
    their outputs before relu3 allocates its own; the backward sums the
    two branches' gradients in place.
    """

    def __init__(self, spec: BlockSpec, in_channels: int, stride: int, rng):
        mid, out = spec.mid_channels, spec.out_channels
        self.conv1 = Conv2dParams.init(in_channels, mid, 1, seed=rng)
        if spec.kind == "epsa":
            cfg = spec.psa
            if cfg.channels != mid:
                raise ValueError(f"psa channels {cfg.channels} != mid {mid}")
            self.conv2 = Psa.init(replace(cfg, stride=stride), rng)
        else:
            self.conv2 = Conv2dParams.init(mid, mid, 3, stride, 1, seed=rng)
        self.conv3 = Conv2dParams.init(mid, out, 1, seed=rng)
        self.relu = ReLU()
        self.body = [
            ("conv1", self.conv1), ("bn1", BatchNormParams.init(mid)), ("relu1", self.relu),
            ("conv2", self.conv2), ("bn2", BatchNormParams.init(mid)), ("relu2", self.relu),
            ("conv3", self.conv3), ("bn3", BatchNormParams.init(out)),
        ]
        if spec.kind == "se":
            self.body.append(("se", SeScale.init(out, spec.se_reduction, rng, bias=False)))
        self.shortcut = []
        if stride != 1 or in_channels != out:
            self.shortcut = [
                ("downsample.conv", Conv2dParams.init(in_channels, out, 1, stride, seed=rng)),
                ("downsample.bn", BatchNormParams.init(out)),
            ]

    def children(self):
        return self.body + self.shortcut + [("relu3", self.relu)]

    def apply(self, x: Tensor, training: bool):
        h, body_vjp = _chain(self.body, x, training)
        s, shortcut_vjp = _chain(self.shortcut, x, training)
        pre = _wrap(h.data + s.data)
        del h, s  # no vjp keeps them: free them before relu3 allocates
        y, relu_vjp = _chain([("relu3", self.relu)], pre, training)

        def vjp(dy):
            dpre, _ = relu_vjp(dy)
            dh, grads = body_vjp(dpre)
            ds, g = shortcut_vjp(dpre)
            grads.update(g)
            dh += ds
            return dh, grads

        return GradPair(y, vjp if training else None)

    def complexity(self, in_shape):
        shape, rows = _ledger(self.body, in_shape)
        return shape, rows + _ledger(self.shortcut, in_shape)[1]


class Network(Layer):
    """Stem + stages + classifier head, built from a ModelSpec; the first
    block of every stage after the first has stride 2, every other stride 1."""

    def __init__(self, spec: ModelSpec, seed: int = 0):
        rng = _rng(seed)
        self.layers = [
            ("stem.conv", Conv2dParams.init(3, spec.stem_channels, 7, 2, 3, seed=rng)),
            ("stem.bn", BatchNormParams.init(spec.stem_channels)),
            ("relu", ReLU()),
            ("maxpool", MaxPool(3, 2, 1)),
        ]
        in_c = spec.stem_channels
        for i, st in enumerate(spec.stages, start=1):
            for b in range(st.blocks):
                stride = 2 if i > 1 and b == 0 else 1
                self.layers.append((f"layer{i}.{b}", Bottleneck(st.block, in_c, stride, rng)))
                in_c = st.block.out_channels
        self.layers += [("gap", GlobalAvgPool()), ("fc", LinearParams.init(in_c, spec.num_classes, seed=rng))]

    def children(self):
        return self.layers

    def apply(self, x: Tensor, training: bool = False):
        """Returns (logits, vjp); logits is a (N, num_classes) array, and so
        is the only dlogits the vjp (None in eval) takes, by `GradPair`."""
        y, vjp = _chain(self.layers, x, training)
        head = vjp and (lambda dlogits: vjp(dlogits.reshape(y.shape)))
        return tuple(GradPair(y.data.reshape(y.n, y.c), head))

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


def _family_spec(name, kind, repeats, num_classes, widths=_BASE_WIDTHS, psa_of=None,
                 outs=tuple(4 * w for w in _BASE_WIDTHS), stem_channels=64):
    stages = []
    for m, out, reps in zip(widths, outs, repeats):
        psa = psa_of(m) if psa_of else None
        block = BlockSpec(kind=kind, mid_channels=m, out_channels=out, psa=psa)
        stages.append(StageSpec(blocks=reps, block=block))
    return ModelSpec(name=name, stages=tuple(stages), num_classes=num_classes, stem_channels=stem_channels)


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


def build_block(spec: BlockSpec, in_channels: int, stride: int = 1, seed: int = 0):
    """Materialize a single bottleneck block."""
    return Bottleneck(spec, in_channels, stride, _rng(seed))


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
    spec = _family_spec(
        "epsanet_toy", "epsa", blocks, num_classes, widths=widths,
        psa_of=lambda m: PsaConfig(m, 4, SMALL_KERNELS, default_groups(SMALL_KERNELS, m, 4)),
        outs=tuple(4 * m for m in widths), stem_channels=stem_channels,
    )
    return Model(spec, Network(spec, seed))


def forward(model: Model, x: Tensor) -> np.ndarray:
    """Eval-mode forward pass to logits, shape (N, num_classes)."""
    if x.h < 32 or x.w < 32:
        raise ValueError(f"input spatial size {x.h}x{x.w} is below the 32-pixel minimum")
    logits, _ = model.net.apply(x, training=False)
    return logits


# Model-config schema (JSON): {name, num_classes, stem_channels,
# stages: [{repeats, mid_channels, kind, out_channels, se_reduction?, psa?}]},
# psa as PsaConfig.to_dict writes it. No other field is accepted.
_MODEL_FIELDS = ("name", "num_classes", "stem_channels", "stages")
_STAGE_FIELDS = ("repeats", "mid_channels", "kind", "out_channels", "se_reduction", "psa")
_PSA_FIELDS = ("scales", "kernels", "groups", "se_reduction")


def _fields(d, known: tuple[str, ...], where: str) -> dict:
    """d, a JSON object each of whose fields is one of known."""
    for key in _json(d, dict, where):
        if key not in known:
            raise ValueError(f"unknown {where} field {key!r}")
    return d


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
    """Parse a model config. A missing field raises KeyError; an unknown
    field, psa on a stage that is not epsa or se_reduction on one that is
    not se, a field of the wrong JSON type (a float, bool or string where
    an integer belongs, a number where a list or object belongs, a name
    that is no string) or a bad value raises ValueError, naming the field."""
    _fields(cfg, _MODEL_FIELDS, "model config")
    stages = []
    for st in _json(cfg["stages"], list, "stages"):
        _fields(st, _STAGE_FIELDS, "stage")
        mid = _json(st["mid_channels"], int, "mid_channels")
        kind = st["kind"]
        if "se_reduction" in st and kind != "se":
            raise ValueError(f"field 'se_reduction' belongs to an se stage, not to kind {kind!r}")
        out = _json(st.get("out_channels", 4 * mid), int, "out_channels")
        # BlockSpec refuses a psa entry on any other kind
        has_psa = kind == "epsa" or "psa" in st
        psa = PsaConfig.from_dict(mid, _fields(st["psa"], _PSA_FIELDS, "psa")) if has_psa else None
        block = BlockSpec(
            kind=kind, mid_channels=mid, out_channels=out, psa=psa,
            se_reduction=_json(st.get("se_reduction", 16), int, "se_reduction"),
        )
        stages.append(StageSpec(blocks=_json(st["repeats"], int, "repeats"), block=block))
    return ModelSpec(
        name=_json(cfg.get("name", "custom"), str, "name"),
        stages=tuple(stages),
        num_classes=_json(cfg.get("num_classes", 1000), int, "num_classes"),
        stem_channels=_json(cfg.get("stem_channels", 64), int, "stem_channels"),
    )


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

    def to_dict(self) -> dict:
        return asdict(self)

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


def describe(model: Model, input_size: int = 224) -> ModelDescription:
    """Stage-by-stage structural listing; output sizes come from the
    network's complexity ledger at a 1x3xSxS input."""
    spec, layers = model.spec, dict(model.net.layers)
    _, ledger = model.net.complexity((1, 3, input_size, input_size))
    sizes = {r.name: r.output_shape[2] for r in ledger}
    stem, pool = layers["stem.conv"], layers["maxpool"]
    rows = [
        {"stage": "stem", "operator": f"{stem.kernel}x{stem.kernel}, {stem.out_channels}, stride {stem.stride}",
         "output_size": sizes["stem.conv"]},
        {"stage": "pool", "operator": f"{pool.kernel}x{pool.kernel} max pool, stride {pool.stride}",
         "output_size": sizes["maxpool"]},
    ]
    size = sizes["maxpool"]
    for i, st in enumerate(spec.stages, start=1):
        size = sizes[f"layer{i}.0.conv3"]
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
