"""Pyramid squeeze attention (PSA).

Pipeline: S parallel grouped convolutions with growing kernel sizes each
squeeze the full C-channel input down to C' = C/S channels. The branch
maps are stacked on a scale axis, (N, S, C', H, W). A shared
squeeze-excitation weighter, run once over the stack, turns each branch
map into per-channel logits; a softmax across the scale axis at every
(sample, channel) position converts them into competing attention weights
(N, S, C', 1, 1); and one broadcast product rescales every branch map,
which read as (N, S*C', H, W) is the concatenation back to C channels.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from .ops import (
    Conv2dParams,
    GradPair,
    Layer,
    LayerRow,
    LinearParams,
    _ledger,
    _rng,
    _softmax_over_scales_vjp,
    conv2d,
    global_avg_pool,
    linear,
    relu,
    sigmoid,
    softmax_over_scales,
)
from .tensor import Tensor, _wrap

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
    """value, which must be of JSON type kind, int or list (a bool is no int)."""
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


@dataclass(eq=False)
class SeWeightParams(Layer):
    """Squeeze-excitation weighter: GAP -> fc0 -> ReLU -> fc1 -> sigmoid.

    A composite of its two FCs. PSA's FCs have biases; SENet's SE layer uses
    the same weighter without.
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
        return [("fc0", self.fc0), ("fc1", self.fc1)]

    def complexity(self, in_shape):
        """(N, C, H, W) to its weights (N, C, 1, 1); one row for both FCs."""
        shape, rows = _ledger(self.children(), (*in_shape[:2], 1, 1))
        return shape, [LayerRow("", self.param_count, sum(r.flops for r in rows), shape)]


@dataclass(eq=False)
class PsaParams(Layer):
    """Parameters of one PSA module, a composite of its branch convs and SE
    weighter.

    branch_convs[i] maps the full C-channel input to C' = C/S channels with
    kernel kernels[i] and groups[i]; the single SE weighter is shared by
    all branches.
    """

    config: PsaConfig
    branch_convs: list[Conv2dParams]
    se: SeWeightParams

    @classmethod
    def init(cls, config: PsaConfig, seed: int | np.random.Generator = 0) -> "PsaParams":
        rng = _rng(seed)
        cp = config.branch_channels
        convs = [
            Conv2dParams.init(config.channels, cp, k, config.stride, (k - 1) // 2, g, seed=rng)
            for k, g in zip(config.kernels, config.groups)
        ]
        return cls(config, convs, SeWeightParams.init(cp, config.se_reduction, rng))

    def children(self):
        return [(f"branch{i}", c) for i, c in enumerate(self.branch_convs)] + [("se", self.se)]

    def complexity(self, in_shape):
        """Every branch reads the input; the SE weighter runs once per scale."""
        cfg, rows = self.config, []
        for branch in self.children()[:-1]:
            (n, _, h, w), r = _ledger([branch], in_shape)
            rows += r
        _, [se] = self.se.complexity((n, cfg.branch_channels, h, w))
        return (n, cfg.channels, h, w), rows + [replace(se, name="se", flops=cfg.scales * se.flops)]


def _se_weight_grad(x: Tensor, p: SeWeightParams) -> GradPair:
    gpp = global_avg_pool(x)
    gp0 = linear(gpp.output, p.fc0)
    gpr = relu(gp0.output)
    gp1 = linear(gpr.output, p.fc1)
    gps = sigmoid(gp1.output)

    def backward(dy: np.ndarray):
        d, _ = gps.backward(dy)
        d, g1 = gp1.backward(d)
        d, _ = gpr.backward(d)
        d, g0 = gp0.backward(d)
        grads = {f"fc0.{k}": v for k, v in g0.items()}
        grads.update({f"fc1.{k}": v for k, v in g1.items()})
        return gpp.backward(d)[0], grads

    return GradPair(gps.output, backward)


def se_weight(x: Tensor, p: SeWeightParams) -> Tensor:
    """Per-channel weights in (0, 1), shape (N, C', 1, 1)."""
    return _se_weight_grad(x, p).output


def spc_forward(x: Tensor, p: PsaParams) -> list[Tensor]:
    """The S branch feature maps; every branch reads the whole input."""
    if x.c != p.config.channels:
        raise ValueError(f"input has {x.c} channels, config expects {p.config.channels}")
    return [conv2d(x, c).output for c in p.branch_convs]


def psa_with_grad(x: Tensor, p: PsaParams) -> GradPair:
    """Full PSA forward with a backward closure over input and parameters.

    One pass over the scale axis (module docstring), with the SE weighter
    seeing the stack as N*S maps of C' channels. The backward mirrors it:
    one SE backward, one softmax VJP, one conv VJP per branch. Parameter
    gradients are keyed "branch{i}.weight" and "se.fc0/fc1.weight/bias";
    the shared SE weighter's gradients sum over all scales.
    """
    if x.c != p.config.channels:
        raise ValueError(f"input has {x.c} channels, config expects {p.config.channels}")
    n, s, cp = x.n, p.config.scales, p.config.branch_channels

    convs = [conv2d(x, c) for c in p.branch_convs]
    conv_vjps = [gp.backward for gp in convs]
    feats = np.stack([gp.output.data for gp in convs], axis=1)  # (N, S, C', H, W)
    del convs  # the stack replaces the branch maps
    hw = feats.shape[3:]
    se = _se_weight_grad(_wrap(feats.reshape(n * s, cp, *hw)), p.se)
    att = softmax_over_scales(se.output.data.reshape(n, s, cp, 1, 1))
    out = _wrap((feats * att).reshape(n, s * cp, *hw))
    out_shape = out.shape  # the closure holds neither the output nor x

    def backward(dy: np.ndarray):
        if dy.shape != out_shape:
            raise ValueError(f"upstream gradient shape {dy.shape} != {out_shape}")
        d = dy.reshape(feats.shape)
        # product rule through y = feats * att
        datt = (d * feats).sum(axis=(3, 4), keepdims=True)
        dlogits = _softmax_over_scales_vjp(att, datt)
        dfeats_se, se_grads = se.backward(dlogits.reshape(n * s, cp, 1, 1))
        dfeats = d * att + dfeats_se.reshape(feats.shape)

        grads = {f"se.{k}": v for k, v in se_grads.items()}
        dx = 0.0
        for i, vjp in enumerate(conv_vjps):
            dxi, conv_g = vjp(dfeats[:, i])
            grads[f"branch{i}.weight"] = conv_g["weight"]
            dx = dx + dxi
        return dx, grads

    return GradPair(out, backward)


def psa_forward(x: Tensor, p: PsaParams) -> Tensor:
    """PSA output; same channel count as the input."""
    return psa_with_grad(x, p).output
