"""Analytic backward passes vs the central finite-difference oracle."""

import numpy as np
import pytest

from epsakit import ops
from epsakit.gradcheck import SCOPES, _Suite, run_suite, report_text
from epsakit.ops import Conv2dParams
from epsakit.psa import PsaConfig, PsaParams, psa_with_grad
from epsakit.tensor import Tensor


@pytest.mark.parametrize("scope", SCOPES)
def test_suite_passes(scope, gradcheck_run):
    # Seed 0 passing in every scope is asserted by test_criterion_3.
    results = gradcheck_run(scope, 7)
    assert results, "suite produced no checks"
    failed = [r for r in results if not r.passed]
    assert not failed, report_text(results)


CHECK_NAMES = {
    "ops": [
        "conv2d.g2.input", "conv2d.g2.weight", "conv2d.g2.bias",
        "conv2d.s2.input", "conv2d.s2.weight",
        "linear.input", "linear.weight",
        "relu.input", "sigmoid.input",
        "batch_norm.train.input", "batch_norm.train.gamma", "batch_norm.eval.input",
        "max_pool.input", "global_avg_pool.input", "softmax_over_scales.input",
        "conv2d.narrow.s2.input", "conv2d.narrow.s2.weight",
    ],
    "psa": [
        "psa.c8.input", "psa.c8.branch0.weight", "psa.c8.branch3.weight",
        "psa.c8.se.fc0.weight", "psa.c8.se.fc1.bias",
        "psa.c16.input",
        "psa.c8s2.input", "psa.c8s2.branch0.weight", "psa.c8s2.branch3.weight",
        "psa.c8s2.se.fc0.weight", "psa.c8s2.se.fc1.bias",
    ],
    "block": [
        "epsa_block.s1.input", "epsa_block.s2.input",
        "se_block.s1.input", "se_block.s1.se.fc0.weight", "se_block.s1.se.fc1.weight",
        "se_block.s2.input", "se_block.s2.se.fc0.weight", "se_block.s2.se.fc1.weight",
        "resnet_block.s1.input", "resnet_block.s2.input",
    ],
}


@pytest.mark.parametrize("scope", SCOPES)
def test_check_names_pinned(scope, gradcheck_run):
    assert [r.name for r in gradcheck_run(scope, 7)] == CHECK_NAMES[scope]


def test_check_restores_parameters_bitwise():
    conv = Conv2dParams.init(4, 6, 3, padding=1, groups=2, bias=True, seed=3)
    conv.set_param("bias", np.random.default_rng(4).uniform(-1, 1, 6))
    before = {k: v.copy() for k, v in conv.params().items()}
    x = Tensor(np.random.default_rng(5).uniform(-1, 1, (1, 4, 5, 5)))
    _Suite(0).check("conv", conv, x, ("weight", "bias"))
    after = conv.params()
    assert all(np.array_equal(after[k], v) for k, v in before.items())


def test_suite_is_deterministic(gradcheck_run):
    a = gradcheck_run("psa", 7)
    b = run_suite("psa", seed=7)
    assert [(r.name, r.max_rel_error) for r in a] == [(r.name, r.max_rel_error) for r in b]


def test_wrong_sigmoid_backward_fails_suite(monkeypatch):
    sigmoid = ops.sigmoid

    def wrong(x):
        y, vjp = sigmoid(x)
        return ops.GradPair(y, lambda dy: (-vjp(dy)[0], {}))

    monkeypatch.setattr(ops, "sigmoid", wrong)
    results = run_suite("ops", seed=0)
    assert any(not r.passed for r in results)


def test_zero_upstream_gives_zero_grads():
    cfg = PsaConfig(8, 4, (3, 5, 7, 9), (1, 2, 2, 2))
    params = PsaParams.init(cfg, seed=5)
    x = Tensor(np.random.default_rng(6).standard_normal((1, 8, 4, 4)))
    gp = psa_with_grad(x, params)
    dx, grads = gp.backward(np.zeros(gp.output.shape))
    assert np.all(dx == 0)
    assert all(np.all(g == 0) for g in grads.values())


def test_branch_weight_gradient_nonzero():
    cfg = PsaConfig(8, 4, (3, 5, 7, 9), (1, 2, 2, 2))
    params = PsaParams.init(cfg, seed=8)
    x = Tensor(np.random.default_rng(9).standard_normal((1, 8, 4, 4)))
    gp = psa_with_grad(x, params)
    _, grads = gp.backward(np.ones(gp.output.shape))
    for i in range(4):
        assert np.abs(grads[f"branch{i}.weight"]).max() > 0
