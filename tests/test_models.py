"""Block and network builders: shapes, structure, config round-trips."""

import json
import tracemalloc

import numpy as np
import pytest

from epsakit import defaults, models
from epsakit.models import (
    BlockSpec,
    build_block,
    build_from_config,
    build_model,
    build_toy_epsanet,
    config_to_spec,
    describe,
    forward,
    spec_to_config,
)
from epsakit.psa import PsaConfig
from epsakit.tensor import NonFiniteError, Tensor, random_uniform


def small_epsa_block_spec(mid=8, out=32):
    cfg = PsaConfig(mid, 4, (3, 5, 7, 9), (1, 2, 2, 2))
    return BlockSpec(kind="epsa", mid_channels=mid, out_channels=out, psa=cfg)


class TestBottleneck:
    def test_shape_preserving_stride1(self):
        block = build_block(small_epsa_block_spec(), in_channels=8, stride=1, seed=0)
        x = random_uniform((2, 8, 8, 8), seed=1)
        y, _ = block.apply(x, training=False)
        assert y.shape == (2, 32, 8, 8)

    def test_stride2_halves_and_projects(self):
        block = build_block(small_epsa_block_spec(), in_channels=32, stride=2, seed=2)
        x = random_uniform((1, 32, 8, 8), seed=3)
        y, _ = block.apply(x, training=False)
        assert y.shape == (1, 32, 4, 4)

    def test_zeroed_expand_conv_passes_shortcut(self):
        """With the expand conv zeroed and its BN neutral, the residual path
        dominates: output == relu(shortcut(x))."""
        block = build_block(small_epsa_block_spec(), in_channels=32, stride=1, seed=4)
        block.conv3.set_param("weight", np.zeros_like(block.conv3.weight.data))
        x = random_uniform((1, 32, 6, 6), seed=5, low=-1, high=1)
        y, _ = block.apply(x, training=False)
        np.testing.assert_allclose(y.data, np.maximum(x.data, 0.0), atol=1e-12)

    def test_resnet_and_se_kinds(self):
        for kind in ("resnet", "se"):
            spec = BlockSpec(kind=kind, mid_channels=8, out_channels=32)
            block = build_block(spec, in_channels=16, stride=2, seed=6)
            x = random_uniform((1, 16, 8, 8), seed=7)
            y, _ = block.apply(x, training=False)
            assert y.shape == (1, 32, 4, 4)

    def test_psa_required_iff_epsa(self):
        with pytest.raises(ValueError):
            BlockSpec(kind="resnet", mid_channels=8, out_channels=32,
                      psa=PsaConfig(8, 4, (3, 5, 7, 9), (1, 2, 2, 2)))
        with pytest.raises(ValueError):
            BlockSpec(kind="epsa", mid_channels=8, out_channels=32)


class TestBuilders:
    def test_unknown_name(self):
        with pytest.raises(KeyError):
            build_model("nosuchmodel")

    def test_parameter_names_unique(self):
        model = build_toy_epsanet(seed=0)
        params = model.net.params()
        assert len(params) == len(set(params))

    def test_small_spec_structure(self):
        model = build_model("epsanet50_small")
        reps = [st.blocks for st in model.spec.stages]
        mids = [st.block.mid_channels for st in model.spec.stages]
        outs = [st.block.out_channels for st in model.spec.stages]
        assert reps == [3, 4, 6, 3]
        assert mids == [64, 128, 256, 512]
        assert outs == [256, 512, 1024, 2048]
        for st in model.spec.stages:
            assert st.block.psa.groups == (1, 4, 8, 16)
            assert st.block.psa.kernels == (3, 5, 7, 9)

    def test_large_spec_structure(self):
        model = build_model("epsanet50_large")
        mids = [st.block.mid_channels for st in model.spec.stages]
        outs = [st.block.out_channels for st in model.spec.stages]
        assert mids == [128, 256, 512, 1024]
        assert outs == [256, 512, 1024, 2048]
        for st in model.spec.stages:
            assert st.block.psa.groups == (32, 32, 32, 32)

    def test_101_repeats(self):
        model = build_model("epsanet101_small")
        assert [st.blocks for st in model.spec.stages] == [3, 4, 23, 3]


class TestForward:
    def test_toy_shape_trace_64px(self):
        model = build_toy_epsanet(num_classes=4, seed=1)
        x = random_uniform((2, 3, 64, 64), seed=2)
        logits = forward(model, x)
        assert logits.shape == (2, 4)
        assert np.all(np.isfinite(logits))

    def test_batch_order_independence_eval(self):
        model = build_toy_epsanet(num_classes=4, seed=3)
        a = random_uniform((1, 3, 64, 64), seed=4)
        b = random_uniform((1, 3, 64, 64), seed=5)
        batch = Tensor(np.concatenate([a.data, b.data], axis=0))
        rev = Tensor(np.concatenate([b.data, a.data], axis=0))
        la = forward(model, batch)
        lb = forward(model, rev)
        np.testing.assert_allclose(la[0], lb[1], atol=1e-12)
        np.testing.assert_allclose(la[1], lb[0], atol=1e-12)

    def test_duplicate_rows_identical_logits(self):
        model = build_toy_epsanet(num_classes=4, seed=6)
        a = random_uniform((1, 3, 64, 64), seed=7)
        batch = Tensor(np.concatenate([a.data, a.data], axis=0))
        logits = forward(model, batch)
        np.testing.assert_allclose(logits[0], logits[1], atol=0)

    def test_undersized_input_rejected(self):
        model = build_toy_epsanet(seed=8)
        with pytest.raises(ValueError):
            forward(model, random_uniform((1, 3, 16, 16), seed=9))

    def test_full_model_forward_224(self):
        model = build_model("epsanet50_small")
        logits = forward(model, random_uniform((1, 3, 224, 224), seed=10))
        assert logits.shape == (1, 1000)
        assert np.all(np.isfinite(logits))

    def test_layer_shape_trace_224(self):
        """Intermediate spatial sizes walk 112 -> 56 -> 28 -> 14 -> 7 -> 1."""
        from epsakit.complexity import analyze

        report = analyze(build_model("epsanet50_small"))
        shapes = {r.name: r.output_shape for r in report.per_layer}
        assert shapes["stem.conv"][2:] == (112, 112)
        assert shapes["maxpool"][2:] == (56, 56)
        assert shapes["layer1.2.bn3"] == (1, 256, 56, 56)
        assert shapes["layer2.3.bn3"] == (1, 512, 28, 28)
        assert shapes["layer3.5.bn3"] == (1, 1024, 14, 14)
        assert shapes["layer4.2.bn3"] == (1, 2048, 7, 7)
        assert shapes["gap"] == (1, 2048, 1, 1)
        assert shapes["fc"] == (1, 1000, 1, 1)


class TestDescribe:
    def test_small_table_fields(self):
        desc = describe(build_model("epsanet50_small"))
        sizes = [r["output_size"] for r in desc.rows]
        assert sizes == [112, 56, 56, 28, 14, 7, 1]
        stages = [r for r in desc.rows if "repeats" in r]
        assert [r["repeats"] for r in stages] == [3, 4, 6, 3]
        assert stages[0]["operators"] == ["1x1, 64", "PSA, 64", "1x1, 256"]
        assert stages[3]["operators"] == ["1x1, 512", "PSA, 512", "1x1, 2048"]

    def test_large_table_fields(self):
        desc = describe(build_model("epsanet50_large"))
        stages = [r for r in desc.rows if "repeats" in r]
        assert stages[0]["operators"] == ["1x1, 128", "PSA(G=32), 128", "1x1, 256"]
        assert stages[3]["operators"] == ["1x1, 1024", "PSA(G=32), 1024", "1x1, 2048"]

    def test_resnet_bracket(self):
        desc = describe(build_model("resnet50"))
        stages = [r for r in desc.rows if "repeats" in r]
        assert stages[3]["operators"] == ["1x1, 512", "3x3, 512", "1x1, 2048"]

    def test_describe_64px_trace(self):
        desc = describe(build_model("resnet50"), input_size=64)
        assert [r["output_size"] for r in desc.rows] == [32, 16, 16, 8, 4, 2, 1]

    def test_json_config_roundtrip(self):
        model = build_model("epsanet50_large")
        desc = describe(model)
        payload = json.loads(desc.to_json())
        spec = config_to_spec(payload["config"])
        assert spec == model.spec
        assert spec_to_config(spec) == payload["config"]


class TestConfigSchema:
    def test_build_from_config(self):
        cfg = {
            "name": "custom_tiny",
            "num_classes": 5,
            "stem_channels": 32,
            "stages": [
                {"repeats": 1, "mid_channels": 32, "kind": "epsa",
                 "out_channels": 128,
                 "psa": {"scales": 4, "kernels": [3, 5, 7, 9], "groups": [1, 4, 8, 8],
                         "se_reduction": 16}},
                {"repeats": 1, "mid_channels": 64, "kind": "resnet", "out_channels": 256},
            ],
        }
        model = build_from_config(cfg, seed=0)
        logits = forward(model, random_uniform((1, 3, 64, 64), seed=1))
        assert logits.shape == (1, 5)

    def test_out_channels_defaults_to_four_mid(self):
        cfg = {"name": "x", "num_classes": 2,
               "stages": [{"repeats": 1, "mid_channels": 16, "kind": "resnet"}]}
        spec = config_to_spec(cfg)
        assert spec.stages[0].block.out_channels == 64

    @pytest.mark.parametrize("field, edit", [
        ("repeats", lambda c: c["stages"][0].update(repeats=2.7)),
        ("repeats", lambda c: c["stages"][0].update(repeats=True)),
        ("mid_channels", lambda c: c["stages"][0].update(mid_channels=32.9)),
        ("out_channels", lambda c: c["stages"][0].update(out_channels="128")),
        ("se_reduction", lambda c: c["stages"][1].update(se_reduction=4.0)),
        ("scales", lambda c: c["stages"][0]["psa"].update(scales=4.0)),
        ("kernels", lambda c: c["stages"][0]["psa"].update(kernels="3579")),
        ("groups", lambda c: c["stages"][0]["psa"].update(groups=[1, 4, 8, True])),
        ("num_classes", lambda c: c.update(num_classes=7.5)),
        ("stem_channels", lambda c: c.update(stem_channels="32")),
    ], ids=["repeats_float", "repeats_bool", "mid_channels_float", "out_channels_string",
            "se_reduction_float", "psa_scales_float", "psa_kernels_string", "psa_groups_bool",
            "num_classes_float", "stem_channels_string"])
    def test_wrong_json_type_names_the_field(self, field, edit):
        cfg = {
            "name": "custom", "num_classes": 7, "stem_channels": 32,
            "stages": [{"repeats": 1, "mid_channels": 32, "kind": "epsa", "out_channels": 128,
                        "psa": {"scales": 4, "kernels": [3, 5, 7, 9], "groups": [1, 4, 8, 8]}},
                       {"repeats": 1, "mid_channels": 32, "kind": "se", "se_reduction": 4}],
        }
        config_to_spec(cfg)
        edit(cfg)
        with pytest.raises(ValueError, match=f"'{field}'"):
            config_to_spec(cfg)


class TestAblation:
    def test_three_rows_kernels(self):
        configs = models.ablation_configs()
        assert len(configs) == 3
        assert all(c.kernels == (3, 5, 7, 9) for c in configs)
        assert [c.groups for c in configs] == [
            (4, 8, 16, 16), (16, 16, 16, 16), (1, 4, 8, 16)]
        assert configs[-1].groups == models.SMALL_GROUPS  # default row

    def test_all_build_and_run_forward(self):
        x = random_uniform((1, 3, 64, 64), seed=0)
        for cfg in models.ablation_configs():
            model = models.build_epsanet50_with_groups(cfg.groups, seed=0)
            logits = forward(model, x)
            assert logits.shape == (1, 1000)
            assert np.all(np.isfinite(logits))
            del model


class TestLayerProtocol:
    def test_set_param_rejects_wrong_shape(self):
        net = build_toy_epsanet(seed=0).net
        with pytest.raises(ValueError):
            net.set_param("stem.conv.weight", np.zeros((5, 3, 7, 7)))

    @pytest.mark.parametrize("name", [
        "layer1.0.conv2.branch0.bias",
        "layer1.0.conv2.branch0.bogus",
        "layer1.0.conv2.branch9.weight",
        "layer1.0",
        "nosuch.weight",
    ])
    def test_set_param_rejects_unknown_name(self, name):
        net = build_toy_epsanet(seed=0).net
        with pytest.raises(KeyError):
            net.set_param(name, np.zeros(1))

    @pytest.mark.parametrize("name", [
        "layer1.0.conv2.branch0.bias",
        "layer1.0.conv2.branch0.bogus",
        "layer1.0.conv2.branch9.weight",
        "layer2.0.downsample.bn.running_mean",
    ])
    def test_set_param_key_error_names_the_whole_name(self, name):
        net = build_toy_epsanet(seed=0).net
        with pytest.raises(KeyError) as info:
            net.set_param(name, np.zeros(1))
        assert info.value.args == (name,)

    @pytest.mark.parametrize("dtype", [np.complex128, np.bool_, object])
    def test_set_param_rejects_a_dtype_that_is_no_real_number(self, dtype):
        """A complex value would lose its imaginary part and a bool array
        would turn into 0/1; both are refused, naming the parameter."""
        net = build_toy_epsanet(seed=0).net
        before = net.params()
        saved = {k: v.copy() for k, v in before.items()}
        value = np.ones_like(before["fc.bias"]).astype(dtype)
        with pytest.raises(ValueError, match="fc.bias"):
            net.set_param("fc.bias", value)
        after = net.params()
        for k, v in after.items():
            assert v is before[k] and np.array_equal(v, saved[k]), k

    @pytest.mark.parametrize("name", ["fc.weight", "layer1.0.bn1.gamma", "layer1.0.conv1.weight"])
    def test_set_param_rejects_non_finite(self, name):
        net = build_toy_epsanet(seed=0).net
        before = net.params()
        saved = {k: v.copy() for k, v in before.items()}
        with pytest.raises(NonFiniteError) as info:
            net.set_param(name, np.full_like(before[name], np.nan))
        assert info.value.layer == name
        after = net.params()
        for k, v in after.items():
            assert v is before[k] and np.array_equal(v, saved[k]), k

    @pytest.mark.parametrize("name", ["fc.weight", "layer1.0.bn1.gamma", "layer1.0.conv1.weight"])
    def test_set_param_accepts_huge_finite_values(self, name):
        """1e200 squared overflows; the finiteness check must still pass it."""
        net = build_toy_epsanet(seed=0).net
        new = net.params()[name].copy()
        new.flat[-1] = 1e200
        with np.errstate(all="raise"):
            net.set_param(name, new)
        assert np.array_equal(net.params()[name], new)

    def test_chain_passes_a_huge_finite_gradient(self):
        class Emit(models.Layer):
            def apply(self, x, training):
                return x, lambda dy: (np.full(x.shape, 1e200), {})

        x = random_uniform((1, 2, 3, 3), seed=0)
        _, vjp = models._chain([("emit", Emit())], x, training=True)
        with np.errstate(all="raise"):
            dx, grads = vjp(np.ones(x.shape))
        assert np.all(dx == 1e200) and grads == {}

    def test_every_param_round_trips(self):
        net = build_toy_epsanet(seed=0).net
        for i, (name, value) in enumerate(net.params().items()):
            new = value + (i + 1)
            net.set_param(name, new)
            assert np.array_equal(net.params()[name], new), name

    @pytest.mark.parametrize("name, counts", [
        ("resnet50", (161, 54, 106)),
        ("senet50", (193, 86, 106)),
        ("epsanet50_small", (273, 134, 106)),
        ("toy", (43, 20, 18)),
    ])
    def test_params_decay_state_counts(self, name, counts):
        if name == "toy":
            net = build_toy_epsanet(widths=(32, 64), blocks=(1, 1), stem_channels=32).net
        else:
            net = build_model(name).net
        assert (len(net.params()), len(net.decay_names()), len(net.state())) == counts

    def test_decay_rule(self):
        net = build_model("senet50").net
        decay = net.decay_names()
        for name in net.params():
            assert (name in decay) == name.endswith(".weight"), name


    def test_block_param_and_state_names_pinned(self):
        """Checkpoints key on these names, in this order."""
        epsa = build_block(small_epsa_block_spec(), in_channels=16, stride=2, seed=0)
        se = build_block(BlockSpec(kind="se", mid_channels=8, out_channels=32), in_channels=16, stride=2, seed=0)
        assert list(epsa.params()) == [
            "conv1.weight", "bn1.gamma", "bn1.beta",
            "conv2.branch0.weight", "conv2.branch1.weight", "conv2.branch2.weight", "conv2.branch3.weight",
            "conv2.se.fc0.weight", "conv2.se.fc0.bias", "conv2.se.fc1.weight", "conv2.se.fc1.bias",
            "bn2.gamma", "bn2.beta", "conv3.weight", "bn3.gamma", "bn3.beta",
            "downsample.conv.weight", "downsample.bn.gamma", "downsample.bn.beta",
        ]
        assert list(se.params()) == [
            "conv1.weight", "bn1.gamma", "bn1.beta", "conv2.weight", "bn2.gamma", "bn2.beta",
            "conv3.weight", "bn3.gamma", "bn3.beta", "se.fc0.weight", "se.fc1.weight",
            "downsample.conv.weight", "downsample.bn.gamma", "downsample.bn.beta",
        ]
        state = [f"{bn}.{s}" for bn in ("bn1", "bn2", "bn3", "downsample.bn") for s in ("running_mean", "running_var")]
        assert list(epsa.state()) == list(se.state()) == state


class TestEvalKeepsNothing:
    """An eval forward builds no backward: nothing holds every activation
    until the logits return."""

    @staticmethod
    def toy_net():
        return build_toy_epsanet(num_classes=4, **defaults.TOY_MODEL).net

    def test_eval_apply_returns_no_vjp(self):
        logits, vjp = self.toy_net().apply(random_uniform((2, 3, 32, 32), seed=0), training=False)
        assert vjp is None and logits.shape == (2, 4)

    def test_eval_forward_peak_budget(self):
        net = self.toy_net()
        x = random_uniform((8, 3, 64, 64), seed=0)
        _, rows = net.complexity(x.shape)
        largest = 8 * max(int(np.prod(r.output_shape)) for r in rows)
        net.apply(x)
        tracemalloc.start()
        try:
            net.apply(x)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 10 * largest


class TestNonFiniteNaming:
    def test_forward_failure_names_the_layer(self):
        net = build_toy_epsanet(num_classes=4, **defaults.TOY_MODEL).net
        name = "layer2.0.downsample.bn.beta"
        net.params()[name][...] = np.nan  # set_param would refuse it
        with pytest.raises(NonFiniteError) as info:
            net.apply(random_uniform((2, 3, 32, 32), seed=0))
        assert (info.value.layer, info.value.phase) == ("layer2.0.downsample.bn", "forward")

    def test_per_op_check_catches_an_overflow_a_later_op_squashes(self):
        """The SE weighter's fc1 overflows to +inf and its sigmoid maps that
        to 1, so the block's output is finite: only the check on each op's
        output sees the overflow."""
        net = build_toy_epsanet(num_classes=4, **defaults.TOY_MODEL).net
        se, params = "layer1.0.conv2.se.", net.params()
        net.set_param(se + "fc0.weight", np.zeros_like(params[se + "fc0.weight"]))
        net.set_param(se + "fc0.bias", np.ones_like(params[se + "fc0.bias"]))
        for name in ("fc1.weight", "fc1.bias"):
            net.set_param(se + name, np.full_like(params[se + name], 1e308))
        with np.errstate(over="ignore"), pytest.raises(NonFiniteError) as info:
            net.apply(random_uniform((2, 3, 32, 32), seed=0))
        assert (info.value.layer, info.value.phase) == ("layer1.0.conv2", "forward")
