"""PSA module: config rules, attention invariants, composition oracle."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from epsakit import ops
from epsakit.models import Psa
from epsakit.psa import (
    PsaConfig,
    PsaParams,
    SeWeightParams,
    default_groups,
    kernel_to_group,
    psa_forward,
    psa_with_grad,
    se_weight,
    spc_forward,
)
from epsakit.tensor import Tensor, random_uniform

from oracles import naive_conv2d, naive_se_weight, straightline_psa


class TestKernelToGroup:
    def test_override_for_three(self):
        assert kernel_to_group(3) == 1

    @pytest.mark.parametrize("k,g", [(5, 4), (7, 8), (9, 16), (11, 32)])
    def test_power_rule(self, k, g):
        assert kernel_to_group(k) == g

    @pytest.mark.parametrize("k", [2, 4, 1, -3])
    def test_rejects_bad_kernels(self, k):
        with pytest.raises(ValueError):
            kernel_to_group(k)


class TestPsaConfig:
    def test_defaults(self):
        cfg = PsaConfig(64)
        assert cfg.kernels == (3, 5, 7, 9)
        assert cfg.groups == (1, 4, 8, 16)
        assert cfg.branch_channels == 16

    def test_default_rule_clamps_small_channels(self):
        groups = default_groups((3, 5, 7, 9), 32, 4)
        assert groups == (1, 4, 8, 8)
        PsaConfig(32, 4, (3, 5, 7, 9), groups)  # must validate

    def test_rejects_indivisible_channels(self):
        with pytest.raises(ValueError):
            PsaConfig(6, 4, (3, 5, 7, 9), (1, 1, 1, 1))

    def test_rejects_bad_group(self):
        with pytest.raises(ValueError):
            PsaConfig(8, 4, (3, 5, 7, 9), (1, 4, 8, 16))  # 16 does not divide C'=2

    def test_rejects_length_mismatch(self):
        with pytest.raises(ValueError):
            PsaConfig(64, 4, (3, 5, 7), (1, 4, 8))

    def test_dict_roundtrip(self):
        cfg = PsaConfig(128, 4, (3, 5, 5, 7), (32, 32, 32, 32))
        again = PsaConfig.from_dict(128, cfg.to_dict())
        assert again == cfg


class TestSeWeight:
    def test_zero_input_zero_bias_gives_half(self):
        p = SeWeightParams.init(8, seed=0)
        x = Tensor(np.zeros((2, 8, 3, 3)))
        w = se_weight(x, p)
        np.testing.assert_allclose(w.data, 0.5, atol=1e-15)

    def test_output_shape(self):
        p = SeWeightParams.init(8, seed=1)
        for h, w in [(1, 1), (3, 5), (7, 2)]:
            x = random_uniform((2, 8, h, w), seed=3)
            assert se_weight(x, p).shape == (2, 8, 1, 1)

    def test_matches_stepwise_oracle(self, rng):
        p = SeWeightParams.init(8, reduction=4, seed=2)
        p.fc0.bias[:] = rng.standard_normal(p.fc0.out_features)
        p.fc1.bias[:] = rng.standard_normal(8)
        x = Tensor(rng.standard_normal((2, 8, 4, 4)))
        want = naive_se_weight(x.data, p.fc0.weight, p.fc0.bias, p.fc1.weight, p.fc1.bias)
        np.testing.assert_allclose(se_weight(x, p).data, want, atol=1e-12)

    def test_hidden_width_floor(self):
        p = SeWeightParams.init(8, reduction=16, seed=3)
        assert p.fc0.out_features == 1


class TestSpc:
    def test_branch_shapes_c64(self):
        cfg = PsaConfig(64)
        params = PsaParams.init(cfg, seed=4)
        x = random_uniform((1, 64, 8, 8), seed=5)
        feats = spc_forward(x, params)
        assert len(feats) == 4
        assert all(f.shape == (1, 16, 8, 8) for f in feats)

    def test_spatial_dims_agree_across_kernels(self):
        cfg = PsaConfig(8, 4, (3, 5, 7, 9), (1, 2, 2, 2))
        params = PsaParams.init(cfg, seed=6)
        x = random_uniform((2, 8, 5, 5), seed=7)
        for f in spc_forward(x, params):
            assert f.shape == (2, 2, 5, 5)

    def test_branches_match_standalone_convs(self, rng):
        cfg = PsaConfig(8, 4, (3, 5, 7, 9), (1, 2, 2, 2))
        params = PsaParams.init(cfg, seed=8)
        x = Tensor(rng.standard_normal((1, 8, 4, 4)))
        feats = spc_forward(x, params)
        for i, f in enumerate(feats):
            want = naive_conv2d(
                x.data, params.branch_convs[i].weight.data,
                stride=1, padding=(cfg.kernels[i] - 1) // 2, groups=cfg.groups[i],
            )
            np.testing.assert_allclose(f.data, want, atol=1e-12)

    def test_stride_two(self):
        cfg = PsaConfig(8, 4, (3, 5, 7, 9), (1, 2, 2, 2), stride=2)
        params = PsaParams.init(cfg, seed=9)
        x = random_uniform((1, 8, 8, 8), seed=10)
        for f in spc_forward(x, params):
            assert f.shape == (1, 2, 4, 4)

    def test_channel_mismatch_rejected(self):
        cfg = PsaConfig(8, 4, (3, 5, 7, 9), (1, 2, 2, 2))
        params = PsaParams.init(cfg, seed=11)
        with pytest.raises(ValueError):
            spc_forward(random_uniform((1, 16, 4, 4), seed=0), params)


def _uniform_attention_params(cfg: PsaConfig, seed: int) -> PsaParams:
    """Zero SE weights/biases force identical logits, so attention = 1/S."""
    params = PsaParams.init(cfg, seed=seed)
    params.se.fc0.weight[:] = 0
    params.se.fc0.bias[:] = 0
    params.se.fc1.weight[:] = 0
    params.se.fc1.bias[:] = 0
    return params


class TestPsaForward:
    def test_channel_preservation(self):
        for c, groups in [(64, (1, 4, 8, 16)), (16, (1, 2, 4, 4))]:
            cfg = PsaConfig(c, 4, (3, 5, 7, 9), groups)
            params = PsaParams.init(cfg, seed=12)
            x = random_uniform((2, c, 6, 6), seed=13)
            assert psa_forward(x, params).shape == x.shape

    def test_uniform_attention_degenerates_to_scaled_concat(self, rng):
        cfg = PsaConfig(16, 4, (3, 5, 7, 9), (1, 2, 4, 4))
        params = _uniform_attention_params(cfg, seed=14)
        x = Tensor(rng.standard_normal((1, 16, 5, 5)))
        out = psa_forward(x, params)
        feats = spc_forward(x, params)
        want = np.concatenate([f.data for f in feats], axis=1) / 4.0
        np.testing.assert_allclose(out.data, want, atol=1e-15)

    def test_matches_straightline_oracle(self, rng):
        cfg = PsaConfig(8, 4, (3, 5, 7, 9), (1, 2, 2, 2))
        params = PsaParams.init(cfg, seed=15)
        params.se.fc0.bias[:] = rng.standard_normal(params.se.fc0.out_features)
        params.se.fc1.bias[:] = rng.standard_normal(2)
        x = Tensor(rng.standard_normal((1, 8, 4, 4)))
        np.testing.assert_allclose(
            psa_forward(x, params).data, straightline_psa(x.data, params), atol=1e-12
        )

    def test_attention_normalization_and_bounds(self, rng):
        cfg = PsaConfig(64)
        params = PsaParams.init(cfg, seed=16)
        x = Tensor(rng.standard_normal((4, 64, 5, 5)))
        feats = spc_forward(x, params)
        logits = np.stack([se_weight(f, params.se).data for f in feats], axis=1)
        att = ops.softmax_over_scales(logits)
        np.testing.assert_allclose(att.sum(axis=1), 1.0, atol=1e-10)
        assert np.all(att > 0) and np.all(att < 1)

    def test_softmax_shift_invariance(self, rng):
        z = rng.standard_normal((2, 4, 6, 1, 1))
        shift = rng.standard_normal((2, 1, 6, 1, 1))
        a = ops.softmax_over_scales(z)
        b = ops.softmax_over_scales(z + shift)
        np.testing.assert_allclose(a, b, atol=1e-10)

    def test_within_branch_group_independence(self, rng):
        """Zeroing the input channels of one conv group changes only that
        group's slice of the branch output (grouped connectivity)."""
        cfg = PsaConfig(16, 4, (3, 5, 7, 9), (1, 2, 4, 4))
        params = PsaParams.init(cfg, seed=17)
        x = rng.standard_normal((1, 16, 5, 5))
        branch = 2  # groups = 4, C' = 4, one output channel per group
        g = cfg.groups[branch]
        cg = cfg.channels // g
        base = naive_conv2d(x, params.branch_convs[branch].weight.data,
                            stride=1, padding=3, groups=g)
        x2 = x.copy()
        x2[:, 0:cg] = 0.0  # kill input group 0
        changed = naive_conv2d(x2, params.branch_convs[branch].weight.data,
                               stride=1, padding=3, groups=g)
        og = cfg.branch_channels // g
        assert not np.allclose(base[:, :og], changed[:, :og])
        np.testing.assert_array_equal(base[:, og:], changed[:, og:])

    @given(seed=st.integers(0, 10_000))
    @settings(max_examples=10, deadline=None)
    def test_determinism(self, seed):
        cfg = PsaConfig(8, 4, (3, 5, 7, 9), (1, 2, 2, 2))
        params = PsaParams.init(cfg, seed=3)
        x = random_uniform((1, 8, 4, 4), seed=seed, low=-1, high=1)
        assert np.array_equal(psa_forward(x, params).data, psa_forward(x, params).data)


class TestCanonicalBackward:
    """The canonical C=64 PSA (groups 1, 4, 8, 16) against central
    differences along random directions: a directional derivative checks
    every entry of a gradient at once, at the widths the models use."""

    EPS = 1e-5

    @pytest.mark.parametrize("stride", [1, 2])
    def test_directional_derivatives(self, rng, stride):
        layer = Psa.init(PsaConfig(64, stride=stride), rng)
        x = rng.standard_normal((2, 64, 8, 8))
        gp = psa_with_grad(Tensor(x), layer)
        w = rng.standard_normal(gp.output.shape)
        dx, grads = gp.backward(w)

        def objective(xa):
            return float((psa_with_grad(Tensor(xa), layer).output.data * w).sum())

        v = rng.standard_normal(x.shape)
        fd = (objective(x + self.EPS * v) - objective(x - self.EPS * v)) / (2 * self.EPS)
        assert abs(np.vdot(dx, v) - fd) <= 1e-7 * abs(fd)

        for key in ("branch3.weight", "se.fc0.weight"):
            base = layer.params()[key].copy()
            u = rng.standard_normal(base.shape)
            values = []
            for t in (self.EPS, -self.EPS):
                layer.set_param(key, base + t * u)
                values.append(objective(x))
            layer.set_param(key, base)
            fd = (values[0] - values[1]) / (2 * self.EPS)
            assert abs(np.vdot(grads[key], u) - fd) <= 1e-7 * abs(fd), key


class TestTableFiveConfigs:
    @pytest.mark.parametrize("groups", [(4, 8, 16, 16), (16, 16, 16, 16), (1, 4, 8, 16)])
    def test_shape_preserved(self, groups):
        cfg = PsaConfig(64, 4, (3, 5, 7, 9), groups)
        params = PsaParams.init(cfg, seed=18)
        x = random_uniform((1, 64, 4, 4), seed=19)
        assert psa_forward(x, params).shape == x.shape
