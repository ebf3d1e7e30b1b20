"""Pyramid squeeze attention (PSA).

Pipeline: the children `PsaParams.children()` lists, in the order they
run. S grouped convolutions "branch{i}" with growing kernel sizes each
squeeze the full C-channel input down to C' = C/S channels. The branch
maps are stacked on a scale axis, (N, S, C', H, W), and read as N*S maps
of C' channels. `ops._rescale` reweights that stack by its gate, the
other two children: the shared squeeze-excitation weighter "se" turns
each branch map into per-channel logits, and "softmax" (`ops.ScaleSoftmax`)
makes them competing attention weights across the S scales at every
(sample, channel) position. The product, read as (N, S*C', H, W), is the
concatenation back to C channels.

Every part, down to the weighter's five ops, runs as the `ops._chain` child
it is listed as, keyed and located by its dotted name, in its caller's
mode: in eval no part builds a backward.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from .ops import (
    Conv2dParams,
    GlobalAvgPool,
    GradPair,
    Layer,
    LayerRow,
    LinearParams,
    ReLU,
    ScaleSoftmax,
    Sigmoid,
    _chain,
    _ledger,
    _rescale,
    _rng,
    conv2d,
    # perfbench's tracer and tests look up conv2d, linear, relu and _se_weight_grad here
    linear,
    relu,
)
from .tensor import Tensor

__all__ = [
    "PsaConfig",
    "SeWeightParams",
    "PsaParams",
    "kernel_to_group",
    "default_groups",
    "se_weight",
    "spc_forward",
    "psa_forward",
    "psa_with_grad",
]


def kernel_to_group(k: int) -> int:
    """Group size rule 2^((k-1)/2) for odd k >= 3, with the k=3 override to 1."""
    if k < 3 or k % 2 == 0:
        raise ValueError(f"kernel must be odd and >= 3, got {k}")
    if k == 3:
        return 1
    return 2 ** ((k - 1) // 2)


def default_groups(kernels: Sequence[int], channels: int, scales: int) -> tuple[int, ...]:
    """Per-branch groups from the kernel rule, clamped to divide C' = C/S.

    The clamp only matters for toy-sized channel counts; the canonical
    configurations are untouched by it.
    """
    cp = channels // scales
    out = []
    for k in kernels:
        g = kernel_to_group(k)
        while cp % g or channels % g:
            g //= 2
        out.append(g)
    return tuple(out)


def _json(value, kind: type, field: str):
    """value, which must be of JSON type kind: int, str, list or dict (a bool is no int)."""
    if isinstance(value, bool) or not isinstance(value, kind):
        raise ValueError(f"config field {field!r} must be a JSON {kind.__name__}, got {value!r}")
    return value


@dataclass(frozen=True)
class PsaConfig:
    """Hyperparameters of one PSA module."""

    channels: int
    scales: int = 4
    kernels: tuple[int, ...] = (3, 5, 7, 9)
    groups: tuple[int, ...] = (1, 4, 8, 16)
    se_reduction: int = 16
    stride: int = 1

    def __post_init__(self) -> None:
        object.__setattr__(self, "kernels", tuple(self.kernels))
        object.__setattr__(self, "groups", tuple(self.groups))
        if self.channels <= 0 or self.scales <= 0:
            raise ValueError("channels and scales must be positive")
        if len(self.kernels) != self.scales or len(self.groups) != self.scales:
            raise ValueError(
                f"need {self.scales} kernels and groups, got "
                f"{len(self.kernels)}/{len(self.groups)}"
            )
        if self.channels % self.scales:
            raise ValueError(f"channels {self.channels} not divisible by scales {self.scales}")
        cp = self.channels // self.scales
        for k, g in zip(self.kernels, self.groups):
            if k <= 0 or k % 2 == 0:
                raise ValueError(f"kernel sizes must be odd, got {k}")
            if g < 1 or self.channels % g or cp % g:
                raise ValueError(
                    f"group {g} must divide both input channels {self.channels} "
                    f"and branch channels {cp}"
                )
        if self.se_reduction <= 0 or self.stride <= 0:
            raise ValueError("se_reduction and stride must be positive")

    @property
    def branch_channels(self) -> int:
        return self.channels // self.scales

    def to_dict(self) -> dict:
        return {
            "scales": self.scales,
            "kernels": list(self.kernels),
            "groups": list(self.groups),
            "se_reduction": self.se_reduction,
        }

    @classmethod
    def from_dict(cls, channels: int, d: dict) -> "PsaConfig":
        """Parse the to_dict form as read from JSON. A count that is not a
        JSON integer, or kernels/groups that are not JSON lists of them,
        raise ValueError naming the field."""
        return cls(
            channels=channels,
            scales=_json(d["scales"], int, "scales"),
            kernels=tuple(_json(k, int, "kernels") for k in _json(d["kernels"], list, "kernels")),
            groups=tuple(_json(g, int, "groups") for g in _json(d["groups"], list, "groups")),
            se_reduction=_json(d.get("se_reduction", 16), int, "se_reduction"),
        )


_GAP, _RELU, _SIGMOID = GlobalAvgPool(), ReLU(), Sigmoid()


@dataclass(eq=False)
class SeWeightParams(Layer):
    """Squeeze-excitation weighter: GAP -> fc0 -> ReLU -> fc1 -> sigmoid.

    A chain of those five children; the FCs hold its parameters. PSA's FCs
    have biases; SENet's SE layer uses the same weighter without.
    """

    fc0: LinearParams
    fc1: LinearParams

    @classmethod
    def init(
        cls, channels: int, reduction: int = 16, seed: int | np.random.Generator = 0,
        bias: bool = True,
    ) -> "SeWeightParams":
        rng = _rng(seed)
        hidden = max(channels // reduction, 1)
        return cls(
            fc0=LinearParams.init(channels, hidden, bias=bias, seed=rng),
            fc1=LinearParams.init(hidden, channels, bias=bias, seed=rng),
        )

    def children(self):
        return [("gap", _GAP), ("fc0", self.fc0), ("relu", _RELU), ("fc1", self.fc1), ("sigmoid", _SIGMOID)]

    def apply(self, x: Tensor, training: bool) -> GradPair:
        return _se_weight_grad(x, self, training)

    def complexity(self, in_shape):
        """(N, C, H, W) to its weights (N, C, 1, 1); one row for the chain."""
        shape, rows = _ledger(self.children(), in_shape)
        return shape, [LayerRow("", self.param_count, sum(r.flops for r in rows), shape)]


@dataclass(eq=False)
class PsaParams(Layer):
    """Parameters of one PSA module, a composite of its branch convs, SE
    weighter and softmax across scales.

    branch_convs[i] maps the full C-channel input to C' = C/S channels with
    kernel kernels[i] and groups[i]; the single SE weighter is shared by
    all branches.
    """

    config: PsaConfig
    branch_convs: list[Conv2dParams]
    se: SeWeightParams
    softmax: ScaleSoftmax

    @classmethod
    def init(cls, config: PsaConfig, seed: int | np.random.Generator = 0) -> "PsaParams":
        rng = _rng(seed)
        cp = config.branch_channels
        convs = [
            Conv2dParams.init(config.channels, cp, k, config.stride, (k - 1) // 2, g, seed=rng)
            for k, g in zip(config.kernels, config.groups)
        ]
        se = SeWeightParams.init(cp, config.se_reduction, rng)
        return cls(config, convs, se, ScaleSoftmax(config.scales))

    def children(self):
        branches = [(f"branch{i}", c) for i, c in enumerate(self.branch_convs)]
        return branches + [("se", self.se), ("softmax", self.softmax)]

    def complexity(self, in_shape):
        """Every branch reads the input; the SE weighter runs once per scale."""
        cfg, rows = self.config, []
        for branch in self.children()[:cfg.scales]:
            (n, _, h, w), r = _ledger([branch], in_shape)
            rows += r
        _, [se] = self.se.complexity((n, cfg.branch_channels, h, w))
        return (n, cfg.channels, h, w), rows + [replace(se, name="se", flops=cfg.scales * se.flops)]


def _se_weight_grad(x: Tensor, p: SeWeightParams, training: bool = True) -> GradPair:
    return _chain(p.children(), x, training)


def se_weight(x: Tensor, p: SeWeightParams) -> Tensor:
    """Per-channel weights in (0, 1), shape (N, C', 1, 1)."""
    return _se_weight_grad(x, p, False).output


def spc_forward(x: Tensor, p: PsaParams) -> list[Tensor]:
    """The S branch feature maps; every branch reads the whole input."""
    return [conv2d(x, c).output for c in p.branch_convs]


def psa_with_grad(x: Tensor, p: PsaParams, training: bool = True) -> GradPair:
    """Full PSA forward: the branch convs, stacked, reweighted by `_rescale`, every
    part run in `training`; the backward (None in eval) takes dy only in the output's
    shape. Gradients are keyed "branch{i}.weight" and "se.fc0/fc1.weight/bias" by
    the chain each part runs in; the shared SE weighter's sum over all scales."""
    nodes, s = p.children(), p.config.scales
    ys, branch_vjps = zip(*[_chain([branch], x, training) for branch in nodes[:s]])
    feats = np.stack([y.data for y in ys], axis=1)  # (N, S, C', H, W)
    del ys  # the stack replaces the branch maps
    shape = feats.shape
    stack = Tensor(None, _trusted=feats.reshape(-1, *shape[2:]))  # each map was checked finite
    y, rescale_vjp = _rescale(stack, nodes[s:], training)
    out = Tensor(None, _trusted=y.data.reshape(shape[0], -1, *shape[3:]))

    def backward(dy: np.ndarray):  # holds neither the output nor x
        dfeats, grads = rescale_vjp(dy.reshape(-1, *shape[2:]))
        dfeats = dfeats.reshape(shape)
        dx = 0.0
        for i, vjp in enumerate(branch_vjps):
            dxi, g = vjp(dfeats[:, i])
            grads.update(g)
            dx = np.add(dxi, dx, out=dxi)  # the running sum, into this branch's own dx
        return dx, grads

    return GradPair(out, backward if training else None)


def psa_forward(x: Tensor, p: PsaParams) -> Tensor:
    """PSA output; same channel count as the input."""
    return psa_with_grad(x, p, False).output
