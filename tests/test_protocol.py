"""The layer protocol of `ops`, one rule per test, run on every layer class:
REGISTRY maps each concrete `ops.Layer` subclass defined in `epsakit` to a
factory of an example (layer, input shape), or EXEMPT to the reason it has none."""

import gc
import re
import weakref

import numpy as np
import pytest

from epsakit import ops
from epsakit.models import BlockSpec, Bottleneck, Network, Psa, SeScale, build_block, build_from_config
from epsakit.psa import PsaConfig, PsaParams, SeWeightParams
from epsakit.tensor import NonFiniteError, Tensor, random_uniform

from test_ops import TestAllocationBudget as Budget  # renamed, so it is not collected here again

PSA = PsaConfig(8, 4, (3, 5, 7, 9), (1, 2, 2, 2))
THREE_KINDS = {"name": "three_kinds", "num_classes": 3, "stem_channels": 8, "stages": [
    {"repeats": 1, "mid_channels": 4, "kind": "resnet", "out_channels": 8},
    {"repeats": 1, "mid_channels": 4, "kind": "se", "out_channels": 16, "se_reduction": 4},
    {"repeats": 1, "mid_channels": 8, "kind": "epsa", "out_channels": 16, "psa": PSA.to_dict()},
]}

REGISTRY = {
    ops.Conv2dParams: lambda: (ops.Conv2dParams.init(4, 4, 3, padding=1, bias=True, seed=0), (1, 4, 4, 6)),
    ops.LinearParams: lambda: (ops.LinearParams.init(6, 4, seed=0), (3, 6, 1, 1)),
    ops.BatchNormParams: lambda: (ops.BatchNormParams.init(3), (2, 3, 4, 4)),
    ops.ReLU: lambda: (ops.ReLU(), (2, 3, 4, 4)),
    ops.Sigmoid: lambda: (ops.Sigmoid(), (2, 3, 4, 4)),
    ops.ScaleSoftmax: lambda: (ops.ScaleSoftmax(4), (8, 3, 1, 1)),
    ops.MaxPool: lambda: (ops.MaxPool(3, 2, 1), (1, 2, 8, 8)),
    ops.GlobalAvgPool: lambda: (ops.GlobalAvgPool(), (2, 3, 4, 4)),
    SeWeightParams: lambda: (SeWeightParams.init(8, 4, seed=0), (2, 8, 5, 5)),
    SeScale: lambda: (SeScale.init(16, 4, seed=0, bias=False), (2, 16, 3, 3)),
    Psa: lambda: (Psa.init(PSA, seed=0), (1, 8, 4, 6)),
    Bottleneck: lambda: (build_block(BlockSpec("epsa", 8, 32, PSA), in_channels=8, seed=0), (1, 8, 4, 4)),
    Network: lambda: (build_from_config(THREE_KINDS).net, (2, 3, 32, 32)),  # BN runs in training
}
EXEMPT = {PsaParams: "has no apply: it runs only as models.Psa"}


def _conv(cin, cout, k, stride=1, groups=1, hw=56):
    return lambda: (ops.Conv2dParams.init(cin, cout, k, stride, (k - 1) // 2, groups), (1, cin, hw, hw))


# Model-scale examples of the op kinds the models chain, convs of both
# strategies, each held to `TestAllocationBudget`'s retention bound.
RETAINED = {
    ops.ReLU: {"relu": lambda: (ops.ReLU(), (1, 64, 56, 56))},
    ops.Conv2dParams: {
        "conv1x1": _conv(64, 256, 1), "conv1x1s2": _conv(256, 512, 1, stride=2), "conv3x3": _conv(64, 64, 3),
        "stem7x7s2": _conv(3, 64, 7, stride=2, hw=224), "narrow-k3g1": _conv(64, 16, 3),
        "narrow-k9g16": _conv(64, 16, 9, groups=16),
    },
    ops.MaxPool: {"max_pool": lambda: (ops.MaxPool(3, 2, 1), (1, 64, 112, 112))},
}

over_registry = pytest.mark.parametrize("make", REGISTRY.values(), ids=[c.__name__ for c in REGISTRY])
over_modes = pytest.mark.parametrize("training", [False, True], ids=["eval", "training"])


def _subclasses(cls):
    """Every subclass of cls, at any depth."""
    for sub in cls.__subclasses__():
        yield sub
        yield from _subclasses(sub)


def _unregistered() -> list[str]:
    """The `epsakit` layer classes with neither an entry nor an exemption."""
    return sorted({
        f"{c.__module__}.{c.__name__}" for c in _subclasses(ops.Layer)
        if c.__module__.split(".")[0] == "epsakit" and c not in REGISTRY and c not in EXEMPT
    })


def _nodes(pairs, prefix=""):
    """(dotted name, layer) for each of the (name, layer) pairs and every layer below it."""
    for name, layer in pairs:
        yield prefix + name, layer
        yield from _nodes(layer.children(), f"{prefix}{name}.")


def _failing(apply, phase: str):
    """apply, made to raise NonFiniteError in its forward or in its vjp."""
    def fail(*_):
        raise NonFiniteError("injected")
    return fail if phase == "forward" else lambda x, training: (tuple(apply(x, training))[0], fail)


def _run(layer, shape, training, x=None):
    """(output array, vjp) of layer on x, by default a fixed input in [-1, 1)."""
    y, vjp = layer.apply(random_uniform(shape, seed=1, low=-1.0) if x is None else Tensor(x), training)
    return getattr(y, "data", y), vjp  # the network's logits are an array


def _wrong_shapes(shape) -> list[tuple]:
    """dy shapes that broadcast against shape or hold its size, but are not
    it: without the batch axis, at batch 1, flat, flat per sample, with the
    last two axes swapped, and with four samples folded into channels."""
    n, *rest = shape
    shapes = [tuple(rest), (1, *rest), (int(np.prod(shape)),), (n, int(np.prod(rest))), (*shape[:-2], *shape[:-3:-1])]
    shapes += [(n // 4, 4 * rest[0], *rest[1:])] if n % 4 == 0 else []
    return [s for s in dict.fromkeys(shapes) if s != shape]


def test_every_layer_class_has_an_entry():
    assert _unregistered() == []


def test_a_layer_class_without_an_entry_is_named():
    type("Study", (ops.Layer,), {"__module__": "epsakit.study"})
    named = _unregistered()
    gc.collect()  # the unbound class leaves `__subclasses__()` before another test walks it
    assert named == ["epsakit.study.Study"]


@over_modes
@over_registry
def test_apply_returns_a_grad_pair(make, training):
    layer, shape = make()
    out = layer.apply(random_uniform(shape, seed=1, low=-1.0), training)
    # the network's entry returns a (logits, vjp) tuple, by design
    assert (type(out) is tuple and len(out) == 2) if isinstance(layer, Network) else isinstance(out, ops.GradPair)


@over_registry
def test_eval_builds_no_backward_above_a_leaf(make):
    """A leaf builds its backward in either mode; a composite's eval vjp is
    None. Eval rebinds no running statistic, and without any it computes
    what training does."""
    layer, shape = make()
    state = layer.state()
    y, vjp = _run(layer, shape, False)
    assert vjp is None if layer.children() else callable(vjp)
    assert all(v is state[k] for k, v in layer.state().items())
    if not layer.state():
        assert np.array_equal(y, _run(layer, shape, True)[0])


@over_modes
@over_registry
def test_applied_layers_are_the_tree(monkeypatch, make, training):
    """Every layer a forward applies is a node of the tree `children()`
    spans, every node is applied, and each in its caller's mode."""
    calls = []
    for cls in _subclasses(ops.Layer):
        if "apply" in vars(cls):  # record (layer, training), then apply
            monkeypatch.setattr(cls, "apply", lambda layer, x, training, apply=vars(cls)["apply"]: (
                calls.append((layer, training)) or apply(layer, x, training)))
    layer, shape = make()
    y, vjp = _run(layer, shape, training)
    if training:
        vjp(np.ones(y.shape))
    assert {applied for applied, _ in calls} == {node for _, node in _nodes([("root", layer)])}
    assert {mode for _, mode in calls} == {training}


@over_registry
def test_wrong_shaped_dy_is_refused(make):
    layer, shape = make()
    for training in (True, False):
        y, vjp = _run(layer, shape, training)
        for bad in _wrong_shapes(y.shape) if vjp else []:
            with pytest.raises(ValueError, match=re.escape(f"upstream gradient shape {bad} != {y.shape}")):
                vjp(np.ones(bad))


@over_registry
def test_a_backward_runs_once(make):
    """A dy refused for its shape does not use the backward up; the call
    after it returns what a fresh forward's backward does, and another call
    raises BackwardReusedError."""
    layer, shape = make()
    for training in (True, False):
        y, vjp = _run(layer, shape, training)
        if vjp is None:  # a composite in eval
            continue
        dy, bad = np.random.default_rng(0).standard_normal(y.shape), np.ones(_wrong_shapes(y.shape)[0])
        with pytest.raises(ValueError):
            vjp(bad)
        dx, grads = vjp(dy)
        fresh_dx, fresh_grads = _run(layer, shape, training)[1](dy)
        assert np.array_equal(dx, fresh_dx) and grads.keys() == fresh_grads.keys()
        assert all(np.array_equal(g, fresh_grads[k]) for k, g in grads.items())
        for again in (dy, bad):
            with pytest.raises(ops.BackwardReusedError):
                vjp(again)


@over_registry
def test_a_backward_releases_what_the_forward_saved(monkeypatch, make):
    """Once a training backward has returned, no array that a layer of the
    tree output in the forward is alive, although the vjp still is: a run
    backward keeps nothing its forward saved, at any depth."""
    outputs = []

    def recorded(layer, x, training, apply):
        out = apply(layer, x, training)
        y = tuple(out)[0]
        a = y.data if isinstance(y, Tensor) else y  # the network's logits are an array
        outputs.append(weakref.ref(a if a.base is None else a.base))
        return out

    for cls in _subclasses(ops.Layer):
        if "apply" in vars(cls):
            monkeypatch.setattr(cls, "apply", lambda layer, x, training, apply=vars(cls)["apply"]:
                                recorded(layer, x, training, apply))
    layer, shape = make()
    y, vjp = _run(layer, shape, True)
    vjp(np.ones(y.shape))
    del y
    assert outputs and [ref for ref in outputs if ref() is not None] == [] and callable(vjp)


@pytest.mark.parametrize("phase", ["forward", "backward"])
@over_registry
def test_every_ledger_row_fails_under_its_own_name(make, phase):
    """Each complexity row's layer in turn raises NonFiniteError in one
    pass; the error must name that row, so every row runs as a child."""
    layer, shape = make()
    top, x = [("root", layer)], random_uniform(shape, seed=1, low=-1.0)
    _, rows = ops._ledger(top, shape)
    named = []
    for row in rows:
        node = dict(_nodes(top))[row.name]
        node.apply = _failing(node.apply, phase)
        try:
            with pytest.raises(NonFiniteError) as info:
                y, vjp = ops._chain(top, x, True)
                vjp(np.ones(y.shape))
        finally:
            del node.apply
        named.append((info.value.layer, info.value.phase))
    assert named == [(row.name, phase) for row in rows]


@over_registry
def test_assign_round_trips_bitwise(make):
    layer, shape = make()
    y, _ = _run(layer, shape, False)
    before = {**layer.params(), **layer.state()}
    for values in ({k: v + 1.0 for k, v in before.items()}, before):  # a running_var stays positive
        layer.assign(values)
        after = {**layer.params(), **layer.state()}
        assert after.keys() == values.keys() and all(np.array_equal(v, values[k]) for k, v in after.items())
    assert np.array_equal(_run(layer, shape, False)[0], y)


@over_registry
def test_ledger_is_what_runs(make):
    layer, shape = make()
    y, _ = _run(layer, shape, True)
    out_shape, rows = layer.complexity(shape)
    assert out_shape == (*y.shape, 1, 1)[:4]  # the logits are fc's (N, K, 1, 1) output, flattened
    assert sum(row.params for row in rows) == layer.param_count


@over_registry
def test_directional_derivatives(make):
    """<dx, v> and <grads, u> against a central difference of sum(w * y),
    every parameter moved at once, in training mode. The bound is 1e-6: the
    bottleneck's truncation error, from BN over 16 positions, is 1.9e-7."""
    eps, rng = 1e-5, np.random.default_rng(0)
    layer, shape = make()
    params, x = layer.params(), random_uniform(shape, seed=1, low=-1.0).data
    y, vjp = _run(layer, shape, True, x)
    dx, grads = vjp(w := rng.standard_normal(y.shape))
    assert grads.keys() == params.keys()

    def objective(xa, t=0.0):
        layer.assign({k: a + t * u[k] for k, a in params.items()})
        return float(np.vdot(_run(layer, shape, True, xa)[0], w))

    v, u = rng.standard_normal(shape), {k: rng.standard_normal(a.shape) for k, a in params.items()}
    for analytic, plus, minus in [
        (np.vdot(dx, v), objective(x + eps * v), objective(x - eps * v)),
        (sum(np.vdot(grads[k], u[k]) for k in u), objective(x, eps), objective(x, -eps)),
    ]:
        fd = (plus - minus) / (2 * eps)
        assert abs(analytic - fd) <= 1e-6 * abs(fd)


@pytest.mark.parametrize("make", [
    pytest.param(make, id=f"{cls.__name__}-{name}") for cls, cases in RETAINED.items() for name, make in cases.items()
])
def test_retains_only_its_output(rng, make):
    layer, shape = make()
    x = Tensor(rng.standard_normal(shape))
    gp, _, held = Budget.traced(lambda: layer.apply(x, True))
    assert held <= 1.02 * gp.output.data.nbytes
    # No dx is a view into a larger (padded) buffer.
    dx, _ = gp.backward(rng.standard_normal(gp.output.shape))
    assert dx.shape == x.shape and (dx.base is None or dx.base.nbytes == dx.nbytes)
