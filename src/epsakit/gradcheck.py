"""Finite-difference verification of every analytic backward pass.

Each check builds a scalar objective sum(w * op(x)) with fixed random
weights, compares the closed-form gradient against central differences,
and reports the max element-wise relative error (denominator clamped at
1e-8). Shared by the test suite and the `gradcheck` CLI subcommand.

Setting the environment variable EPSAKIT_GRADCHECK_CORRUPT=1 perturbs the
first analytic gradient, which must make the suite fail; the CLI failure
path is tested through this hook.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

from . import ops
from .defaults import GRADCHECK_EPSILON as EPSILON, GRADCHECK_TOLERANCE as TOLERANCE
from .models import BlockSpec, GlobalAvgPool, Psa, build_block
from .psa import PsaConfig, psa_with_grad
from .tensor import Tensor, _wrap

__all__ = ["CheckResult", "run_suite", "report_text", "TOLERANCE", "EPSILON", "SCOPES"]

SCOPES = ("ops", "psa", "block")


@dataclass(frozen=True)
class CheckResult:
    name: str
    max_rel_error: float
    tolerance: float = TOLERANCE

    @property
    def passed(self) -> bool:
        return self.max_rel_error < self.tolerance


def _corrupt_enabled() -> bool:
    return os.environ.get("EPSAKIT_GRADCHECK_CORRUPT", "") == "1"


class _Suite:
    def __init__(self, seed: int):
        self.rng = np.random.Generator(np.random.PCG64(seed))
        self.results: list[CheckResult] = []
        self._corrupted = not _corrupt_enabled()

    def _weights(self, shape) -> np.ndarray:
        return self.rng.uniform(0.5, 1.5, size=shape)

    def _record(self, name: str, analytic, numeric) -> None:
        if not self._corrupted:
            analytic = analytic + 1e-2  # test hook: force a failure once per suite
            self._corrupted = True
        err = ops.max_relative_error(analytic, numeric)
        self.results.append(CheckResult(name, err))

    def check_input_grad(self, name: str, op, x: Tensor) -> None:
        """op: Tensor -> GradPair with a Tensor output."""
        w = self._weights(op(x).output.shape)

        def f(t: Tensor) -> float:
            return float((op(t).output.data * w).sum())

        gp = op(x)
        dx, _ = gp.backward(w)
        fd = ops.finite_difference_gradient(f, x, EPSILON)
        self._record(name, dx, fd)

    def check_param_grad(self, name: str, rebuild, x: Tensor, array: np.ndarray, key: str) -> None:
        """rebuild(arr) -> GradPair for the op with the parameter replaced."""
        gp = rebuild(array)
        w = self._weights(gp.output.shape)
        _, grads = gp.backward(w)

        def f(arr: np.ndarray) -> float:
            return float((rebuild(arr).output.data * w).sum())

        fd = ops.finite_difference_array(f, array, EPSILON)
        self._record(name, grads[key], fd)


def _rand_tensor(rng, shape, low=-1.0, high=1.0) -> Tensor:
    return Tensor(rng.uniform(low, high, size=shape))


def _check_ops(s: _Suite) -> None:
    rng = s.rng

    # grouped conv, stride 1: input and weight gradients
    p = ops.Conv2dParams.init(4, 6, 3, padding=1, groups=2, bias=True, seed=rng)
    x = _rand_tensor(rng, (2, 4, 5, 5))
    s.check_input_grad("conv2d.g2.input", lambda t: ops.conv2d(t, p), x)
    s.check_param_grad(
        "conv2d.g2.weight",
        lambda arr: ops.conv2d(x, ops.Conv2dParams(4, 6, 3, 1, 1, 2, _wrap(arr), p.bias)),
        x, p.weight.data.copy(), "weight",
    )
    s.check_param_grad(
        "conv2d.g2.bias",
        lambda arr: ops.conv2d(x, ops.Conv2dParams(4, 6, 3, 1, 1, 2, p.weight, arr)),
        x, p.bias.copy(), "bias",
    )

    # strided conv with larger kernel and more groups
    p2 = ops.Conv2dParams.init(8, 8, 5, stride=2, padding=2, groups=4, seed=rng)
    x2 = _rand_tensor(rng, (2, 8, 7, 7))
    s.check_input_grad("conv2d.s2.input", lambda t: ops.conv2d(t, p2), x2)
    s.check_param_grad(
        "conv2d.s2.weight",
        lambda arr: ops.conv2d(x2, ops.Conv2dParams(8, 8, 5, 2, 2, 4, _wrap(arr))),
        x2, p2.weight.data.copy(), "weight",
    )

    # linear on (N, C, 1, 1)
    lp = ops.LinearParams.init(6, 4, bias=True, seed=rng)
    xl = _rand_tensor(rng, (3, 6, 1, 1))
    s.check_input_grad("linear.input", lambda t: ops.linear(t, lp), xl)
    s.check_param_grad(
        "linear.weight",
        lambda arr: ops.linear(xl, ops.LinearParams(arr, lp.bias)),
        xl, lp.weight.copy(), "weight",
    )

    # activations; relu inputs kept away from the kink at 0
    xr = Tensor(rng.uniform(0.1, 1.0, size=(2, 3, 4, 4)) * rng.choice([-1.0, 1.0], size=(2, 3, 4, 4)))
    s.check_input_grad("relu.input", ops.relu, xr)
    s.check_input_grad("sigmoid.input", ops.sigmoid, _rand_tensor(rng, (2, 3, 4, 4), -3, 3))

    # batch norm, both modes
    bp = ops.BatchNormParams.init(3)
    bp.gamma[:] = rng.uniform(0.5, 1.5, 3)
    bp.beta[:] = rng.uniform(-0.5, 0.5, 3)
    xb = _rand_tensor(rng, (2, 3, 4, 4))
    s.check_input_grad("batch_norm.train.input", lambda t: ops.batch_norm(t, bp, True), xb)
    s.check_param_grad(
        "batch_norm.train.gamma",
        lambda arr: ops.batch_norm(
            xb, ops.BatchNormParams(arr, bp.beta, bp.running_mean, bp.running_var), True
        ),
        xb, bp.gamma.copy(), "gamma",
    )
    be = ops.BatchNormParams.init(3)
    be.running_mean[:] = rng.uniform(-0.5, 0.5, 3)
    be.running_var[:] = rng.uniform(0.5, 2.0, 3)
    s.check_input_grad("batch_norm.eval.input", lambda t: ops.batch_norm(t, be, False), xb)

    # max pool on well-separated values (no ties within epsilon)
    vals = rng.permutation(np.arange(2 * 3 * 8 * 8, dtype=np.float64)) * 0.01
    xp = Tensor(vals.reshape(2, 3, 8, 8))
    s.check_input_grad("max_pool.input", lambda t: ops.max_pool(t, 3, 2, 1), xp)

    # global average pool, through the layer's vjp
    gap = GlobalAvgPool()
    xg = _rand_tensor(rng, (2, 4, 5, 5))
    s.check_input_grad("global_avg_pool.input", lambda t: ops.GradPair(*gap.apply(t, False)), xg)

    # softmax across scales, checked on the raw 5-D array
    z = rng.uniform(-2, 2, size=(2, 4, 3, 1, 1))
    wz = s._weights(z.shape)

    def f_sm(arr: np.ndarray) -> float:
        return float((ops.softmax_over_scales(arr) * wz).sum())

    att = ops.softmax_over_scales(z)
    analytic = ops._softmax_over_scales_vjp(att, wz)
    fd = ops.finite_difference_array(f_sm, z, EPSILON)
    s._record("softmax_over_scales.input", analytic, fd)

    # narrowing strided conv: the weight-first strategy and its dilated dx
    p3 = ops.Conv2dParams.init(8, 2, 5, stride=2, padding=2, groups=2, seed=rng)
    x3 = _rand_tensor(rng, (2, 8, 7, 7))
    s.check_input_grad("conv2d.narrow.s2.input", lambda t: ops.conv2d(t, p3), x3)
    s.check_param_grad(
        "conv2d.narrow.s2.weight",
        lambda arr: ops.conv2d(x3, ops.Conv2dParams(8, 2, 5, 2, 2, 2, _wrap(arr))),
        x3, p3.weight.data.copy(), "weight",
    )


def _check_psa(s: _Suite) -> None:
    rng = s.rng
    for tag, cfg, shape in [
        ("c8", PsaConfig(8, 4, (3, 5, 7, 9), (1, 2, 2, 2)), (1, 8, 4, 4)),
        ("c16", PsaConfig(16, 4, (3, 5, 7, 9), (1, 2, 4, 4)), (2, 16, 6, 6)),
        ("c8s2", PsaConfig(8, 4, (3, 5, 7, 9), (1, 2, 2, 2), stride=2), (1, 8, 5, 5)),
    ]:
        layer = Psa(cfg, rng)
        x = _rand_tensor(rng, shape)
        s.check_input_grad(f"psa.{tag}.input", lambda t, p=layer.p: psa_with_grad(t, p), x)
        if tag == "c16":
            continue
        for key in ("branch0.weight", "branch3.weight", "se.fc0.weight", "se.fc1.bias"):
            original = layer.params()[key].copy()

            def rebuild(arr, layer=layer, key=key):
                layer.set_param(key, arr)
                return psa_with_grad(x, layer.p)

            s.check_param_grad(f"psa.{tag}.{key}", rebuild, x, original, key)
            layer.set_param(key, original)


def _check_block(s: _Suite) -> None:
    rng = s.rng
    cfg = PsaConfig(8, 4, (3, 5, 7, 9), (1, 2, 2, 2))
    spec = BlockSpec(kind="epsa", mid_channels=8, out_channels=32, psa=cfg)
    for stride, size in ((1, 6), (2, 4)):
        block = build_block(spec, in_channels=8, stride=stride, seed=int(rng.integers(2**31)))
        x = _rand_tensor(rng, (1, 8, size, size))
        s.check_input_grad(f"epsa_block.s{stride}.input",
                           lambda t: ops.GradPair(*block.apply(t, training=True)), x)


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
        lines.append(f"{status}  {r.name:<28s} max_rel_err={r.max_rel_error:.3e} tol={r.tolerance:.0e}")
    n_fail = sum(not r.passed for r in results)
    lines.append(f"{len(results) - n_fail}/{len(results)} gradient checks passed")
    return "\n".join(lines)
