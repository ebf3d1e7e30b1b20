"""Finite-difference verification of every analytic backward pass.

Every check goes through one routine, `_Suite.check(name, layer, x,
keys=(), training=True)`, which runs the layer only through
`layer.apply(x, training)`, the call a network makes, and so differentiates
the object it perturbs. The routine builds the scalar objective
sum(w * y) with fixed random weights w, drawn afresh for each gradient,
and compares the closed-form gradient against central differences: first
the input's, recorded as `name.input`, then that of each parameter in
`keys`, recorded as `name.<key>`. A parameter is read through
`layer.params()`, perturbed through `layer.set_param` and restored
bitwise afterwards. Each check reports the max element-wise relative error
(denominator clamped at `ops.REL_ERROR_CLAMP`, 1e-8). The leaf and
parameter-free layers, `ReLU`, `Sigmoid`, `GlobalAvgPool` and
`ScaleSoftmax` among them, come from `ops`, `Psa` and the bottleneck
blocks from `models`. Shared by the test suite and the `gradcheck` CLI
subcommand.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import ops
from .defaults import GRADCHECK_EPSILON as EPSILON, GRADCHECK_TOLERANCE as TOLERANCE
from .models import BlockSpec, Psa, build_block
from .psa import PsaConfig
from .tensor import Tensor

__all__ = ["CheckResult", "run_suite", "report_text", "TOLERANCE", "EPSILON", "SCOPES"]

SCOPES = ("ops", "psa", "block")


@dataclass(frozen=True)
class CheckResult:
    name: str
    max_rel_error: float

    @property
    def passed(self) -> bool:
        return self.max_rel_error < TOLERANCE


class _Suite:
    def __init__(self, seed: int):
        self.rng = np.random.Generator(np.random.PCG64(seed))
        self.results: list[CheckResult] = []

    def _weights(self, shape) -> np.ndarray:
        return self.rng.uniform(0.5, 1.5, size=shape)

    def _compare(self, name: str, analytic: np.ndarray, f, at: np.ndarray) -> None:
        """Record analytic against the central differences of f around at."""
        numeric = ops.finite_difference_array(f, at, EPSILON)
        self.results.append(CheckResult(name, ops.max_relative_error(analytic, numeric)))

    def check(self, name: str, layer: ops.Layer, x: Tensor, keys=(), training: bool = True) -> None:
        """Check the gradient of layer.apply(., training) at x with respect
        to x, then to each of layer's parameters named in keys."""
        y, vjp = layer.apply(x, training)

        def objective(t: Tensor, w: np.ndarray) -> float:
            out, _ = layer.apply(t, training)
            return float((out.data * w).sum())

        w = self._weights(y.shape)
        dx, _ = vjp(w)
        self._compare(f"{name}.input", dx, lambda a: objective(Tensor(a), w), x.data)
        for key in keys:
            w = self._weights(y.shape)
            _, grads = vjp(w)
            original = layer.params()[key].copy()

            def perturbed(a: np.ndarray) -> float:
                layer.set_param(key, a)
                return objective(x, w)

            self._compare(f"{name}.{key}", grads[key], perturbed, original)
            layer.set_param(key, original)


def _rand_tensor(rng, shape, low=-1.0, high=1.0) -> Tensor:
    return Tensor(rng.uniform(low, high, size=shape))


def _check_ops(s: _Suite) -> None:
    rng = s.rng

    # grouped conv, stride 1: input, weight and bias gradients
    conv = ops.Conv2dParams.init(4, 6, 3, padding=1, groups=2, bias=True, seed=rng)
    s.check("conv2d.g2", conv, _rand_tensor(rng, (2, 4, 5, 5)), ("weight", "bias"))

    # strided conv with larger kernel and more groups
    conv = ops.Conv2dParams.init(8, 8, 5, stride=2, padding=2, groups=4, seed=rng)
    s.check("conv2d.s2", conv, _rand_tensor(rng, (2, 8, 7, 7)), ("weight",))

    # linear on (N, C, 1, 1)
    fc = ops.LinearParams.init(6, 4, seed=rng)
    s.check("linear", fc, _rand_tensor(rng, (3, 6, 1, 1)), ("weight",))

    # activations; relu inputs kept away from the kink at 0
    xr = Tensor(rng.uniform(0.1, 1.0, size=(2, 3, 4, 4)) * rng.choice([-1.0, 1.0], size=(2, 3, 4, 4)))
    s.check("relu", ops.ReLU(), xr)
    s.check("sigmoid", ops.Sigmoid(), _rand_tensor(rng, (2, 3, 4, 4), -3, 3))

    # batch norm, both modes
    bn = ops.BatchNormParams.init(3)
    bn.assign({"gamma": rng.uniform(0.5, 1.5, 3), "beta": rng.uniform(-0.5, 0.5, 3)})
    xb = _rand_tensor(rng, (2, 3, 4, 4))
    s.check("batch_norm.train", bn, xb, ("gamma",))
    bn = ops.BatchNormParams.init(3)
    bn.assign({"running_mean": rng.uniform(-0.5, 0.5, 3), "running_var": rng.uniform(0.5, 2.0, 3)})
    s.check("batch_norm.eval", bn, xb, training=False)

    # max pool on well-separated values (no ties within epsilon)
    vals = rng.permutation(np.arange(2 * 3 * 8 * 8, dtype=np.float64)) * 0.01
    s.check("max_pool", ops.MaxPool(3, 2, 1), Tensor(vals.reshape(2, 3, 8, 8)))

    s.check("global_avg_pool", ops.GlobalAvgPool(), _rand_tensor(rng, (2, 4, 5, 5)))

    # softmax across 4 scales of (N*S, C', 1, 1) logits, N = 2 and C' = 3
    s.check("softmax_over_scales", ops.ScaleSoftmax(4), _rand_tensor(rng, (8, 3, 1, 1), -2, 2))

    # narrowing strided conv: the weight-first strategy at stride 2, both passes
    conv = ops.Conv2dParams.init(8, 2, 5, stride=2, padding=2, groups=2, seed=rng)
    s.check("conv2d.narrow.s2", conv, _rand_tensor(rng, (2, 8, 7, 7)), ("weight",))


def _check_psa(s: _Suite) -> None:
    rng = s.rng
    keys = ("branch0.weight", "branch3.weight", "se.fc0.weight", "se.fc1.bias")
    for tag, cfg, shape, tag_keys in [
        ("c8", PsaConfig(8, 4, (3, 5, 7, 9), (1, 2, 2, 2)), (1, 8, 4, 4), keys),
        ("c16", PsaConfig(16, 4, (3, 5, 7, 9), (1, 2, 4, 4)), (2, 16, 6, 6), ()),
        ("c8s2", PsaConfig(8, 4, (3, 5, 7, 9), (1, 2, 2, 2), stride=2), (1, 8, 5, 5), keys),
    ]:
        layer = Psa.init(cfg, rng)
        s.check(f"psa.{tag}", layer, _rand_tensor(rng, shape), tag_keys)


def _check_block(s: _Suite) -> None:
    """Bottlenecks in training mode. The se and resnet blocks run at batch 2:
    at batch 1 a training-mode bn3 with beta 0 averages to exactly 0, so
    the SE gradients would vanish and their check would prove nothing."""
    rng = s.rng
    psa = PsaConfig(8, 4, (3, 5, 7, 9), (1, 2, 2, 2))
    for kind, batch, keys in [
        ("epsa", 1, ()),
        ("se", 2, ("se.fc0.weight", "se.fc1.weight")),
        ("resnet", 2, ()),
    ]:
        spec = BlockSpec(kind=kind, mid_channels=8, out_channels=32, psa=psa if kind == "epsa" else None)
        for stride, size in ((1, 6), (2, 4)):
            block = build_block(spec, in_channels=8, stride=stride, seed=int(rng.integers(2**31)))
            x = _rand_tensor(rng, (batch, 8, size, size))
            s.check(f"{kind}_block.s{stride}", block, x, keys)


def run_suite(scope: str, seed: int = 0) -> list[CheckResult]:
    if scope not in SCOPES:
        raise ValueError(f"unknown gradcheck scope {scope!r}; choose from {SCOPES}")
    s = _Suite(seed)
    {"ops": _check_ops, "psa": _check_psa, "block": _check_block}[scope](s)
    return s.results


def report_text(results: list[CheckResult]) -> str:
    lines = []
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        lines.append(f"{status}  {r.name:<28s} max_rel_err={r.max_rel_error:.3e} tol={TOLERANCE:.0e}")
    n_fail = sum(not r.passed for r in results)
    lines.append(f"{len(results) - n_fail}/{len(results)} gradient checks passed")
    return "\n".join(lines)
