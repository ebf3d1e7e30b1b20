"""Analytic backward passes vs the central finite-difference oracle."""

import numpy as np
import pytest

from epsakit.gradcheck import SCOPES, run_suite, report_text


@pytest.mark.parametrize("scope", SCOPES)
def test_suite_passes(scope):
    results = run_suite(scope, seed=0)
    assert results, "suite produced no checks"
    failed = [r for r in results if not r.passed]
    assert not failed, report_text(results)


def test_suite_is_deterministic():
    a = run_suite("psa", seed=7)
    b = run_suite("psa", seed=7)
    assert [(r.name, r.max_rel_error) for r in a] == [(r.name, r.max_rel_error) for r in b]


def test_corruption_hook_fails_suite(monkeypatch):
    monkeypatch.setenv("EPSAKIT_GRADCHECK_CORRUPT", "1")
    results = run_suite("ops", seed=0)
    assert any(not r.passed for r in results)


def test_zero_upstream_gives_zero_grads():
    from epsakit.psa import PsaConfig, PsaParams, psa_with_grad
    from epsakit.tensor import Tensor

    cfg = PsaConfig(8, 4, (3, 5, 7, 9), (1, 2, 2, 2))
    params = PsaParams.init(cfg, seed=5)
    x = Tensor(np.random.default_rng(6).standard_normal((1, 8, 4, 4)))
    gp = psa_with_grad(x, params)
    dx, grads = gp.backward(np.zeros(gp.output.shape))
    assert np.all(dx == 0)
    assert all(np.all(g == 0) for g in grads.values())


def test_branch_weight_gradient_nonzero():
    from epsakit.psa import PsaConfig, PsaParams, psa_with_grad
    from epsakit.tensor import Tensor

    cfg = PsaConfig(8, 4, (3, 5, 7, 9), (1, 2, 2, 2))
    params = PsaParams.init(cfg, seed=8)
    x = Tensor(np.random.default_rng(9).standard_normal((1, 8, 4, 4)))
    gp = psa_with_grad(x, params)
    _, grads = gp.backward(np.ones(gp.output.shape))
    for i in range(4):
        assert np.abs(grads[f"branch{i}.weight"]).max() > 0
