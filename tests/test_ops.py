"""Operator forward contracts, checked against loop oracles."""

import tracemalloc

import numpy as np
import pytest

from epsakit import defaults, ops
from epsakit.models import build_model, build_toy_epsanet
from epsakit.ops import BatchNormParams, Conv2dParams, LinearParams
from epsakit.psa import PsaConfig, PsaParams, psa_forward
from epsakit.tensor import NonFiniteError, Tensor, _wrap

from oracles import (
    naive_batch_norm,
    naive_batch_norm_dparams,
    naive_batch_norm_dx,
    naive_conv2d,
    naive_gap,
    naive_linear,
    naive_max_pool,
    naive_max_pool_dx,
)


class TestConv2d:
    def test_depthwise_identity(self):
        c = 5
        w = np.ones((c, 1, 1, 1))
        p = Conv2dParams(c, c, 1, groups=c, weight=Tensor(w))
        x = Tensor(np.random.default_rng(0).standard_normal((2, c, 4, 4)))
        out = ops.conv2d(x, p).output
        assert np.array_equal(out.data, x.data)

    def test_matches_direct_oracle(self, rng):
        x = Tensor(rng.standard_normal((1, 4, 5, 5)))
        p = Conv2dParams.init(4, 6, 3, padding=1, groups=2, bias=True, seed=rng)
        p.bias[:] = rng.standard_normal(6)
        got = ops.conv2d(x, p).output.data
        want = naive_conv2d(x.data, p.weight.data, p.bias, 1, 1, 2)
        np.testing.assert_allclose(got, want, atol=1e-12)

    def test_strided_matches_oracle(self, rng):
        x = Tensor(rng.standard_normal((2, 4, 7, 6)))
        p = Conv2dParams.init(4, 4, 5, stride=2, padding=2, groups=4, seed=rng)
        got = ops.conv2d(x, p).output.data
        want = naive_conv2d(x.data, p.weight.data, None, 2, 2, 4)
        np.testing.assert_allclose(got, want, atol=1e-12)

    def test_parameter_count_formula(self):
        p = Conv2dParams.init(16, 16, 5, groups=4)
        assert p.weight.size == 16 * (16 // 4) * 25 == 1600
        assert p.param_count == 1600

    def test_channel_mismatch_rejected(self):
        p = Conv2dParams.init(4, 4, 3)
        with pytest.raises(ValueError):
            ops.conv2d(Tensor(np.zeros((1, 3, 4, 4))), p)

    def test_group_divisibility_rejected(self):
        with pytest.raises(ValueError):
            Conv2dParams.init(4, 6, 3, groups=4)

    def test_even_kernel_rejected(self):
        with pytest.raises(ValueError):
            Conv2dParams.init(4, 4, 2)

    def test_grouped_equals_block_diagonal(self, rng):
        """conv(groups=G) == G independent convs on channel slices, exactly."""
        g, cin, cout = 4, 8, 8
        p = Conv2dParams.init(cin, cout, 3, padding=1, groups=g, seed=rng)
        x = Tensor(rng.standard_normal((2, cin, 6, 6)))
        whole = ops.conv2d(x, p).output.data
        cg, og = cin // g, cout // g
        pieces = []
        for i in range(g):
            sub_w = Tensor(p.weight.data[i * og : (i + 1) * og].copy())
            sub_p = Conv2dParams(cg, og, 3, padding=1, groups=1, weight=sub_w)
            sub_x = Tensor(x.data[:, i * cg : (i + 1) * cg].copy())
            pieces.append(ops.conv2d(sub_x, sub_p).output.data)
        assert np.array_equal(whole, np.concatenate(pieces, axis=1))

    def test_output_size_rule(self):
        p = Conv2dParams.init(1, 1, 3, stride=2, padding=1)
        out = ops.conv2d(Tensor(np.zeros((1, 1, 112, 112))), p).output
        assert out.shape == (1, 1, 56, 56)

    @pytest.mark.parametrize("groups", [1, 2])
    @pytest.mark.parametrize("stride", [1, 2])
    def test_pointwise_matches_oracle(self, rng, stride, groups):
        """1x1 convs (the stride-1 ones run on a view of x, with no im2col
        copy) against the loop oracle; dx and dW against the row-stack
        strategy, which builds its own buffers."""
        p = Conv2dParams.init(4, 6, 1, stride=stride, groups=groups, seed=rng)
        w = p.weight.data
        x = Tensor(rng.standard_normal((2, 4, 5, 7)))
        gp = ops.conv2d(x, p)
        out = gp.output.data
        want = naive_conv2d(x.data, w, None, stride, 0, groups)
        np.testing.assert_allclose(out, want, rtol=0, atol=1e-12)
        assert not np.shares_memory(out, x.data)
        dy = rng.standard_normal(out.shape)
        dx, grads = gp.backward(dy)
        ref_dx, ref_dw = ops._conv_rows(x.data, w, groups, stride, 0)[1](dy)
        np.testing.assert_allclose(dx, ref_dx, rtol=0, atol=1e-12)
        np.testing.assert_allclose(grads["weight"], ref_dw, rtol=0, atol=1e-12)


class TestConfigRefused:
    @pytest.mark.parametrize("kwargs", [
        dict(kernel=2), dict(kernel=0), dict(kernel=-3),
        dict(stride=0), dict(stride=-1),
        dict(padding=-1),
        dict(groups=0), dict(groups=-2),
        dict(in_channels=6, groups=4), dict(out_channels=6, groups=4),
    ], ids=lambda kw: ",".join(f"{k}={v}" for k, v in kw.items()))
    def test_conv2d_params_refuses_bad_config(self, kwargs):
        args = dict(in_channels=4, out_channels=8, kernel=3) | kwargs
        with pytest.raises(ValueError):
            Conv2dParams(**args)


def _leaves():
    """name -> (build from {slot: array}, the slots with their valid values)."""
    return {
        "conv": (lambda a: Conv2dParams(2, 3, 3, weight=a["weight"], bias=a["bias"]),
                 {"weight": np.ones((3, 2, 3, 3)), "bias": np.zeros(3)}),
        "linear": (lambda a: LinearParams(a["weight"], a["bias"]),
                   {"weight": np.ones((3, 2)), "bias": np.zeros(3)}),
        "batch_norm": (lambda a: BatchNormParams(**a),
                       {"gamma": np.ones(3), "beta": np.zeros(3),
                        "running_mean": np.zeros(3), "running_var": np.ones(3)}),
    }


LEAF_SLOTS = [(leaf, slot) for leaf, (_, slots) in _leaves().items() for slot in slots]


class TestLeafAdmission:
    """Each leaf constructor admits its arrays by the package's one rule,
    naming the slot."""

    @pytest.mark.parametrize("leaf, slot", LEAF_SLOTS)
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "+inf", "-inf"])
    def test_refuses_non_finite(self, leaf, slot, bad):
        build, arrays = _leaves()[leaf]
        arrays[slot].flat[-1] = bad
        with pytest.raises(NonFiniteError) as err:
            build(arrays)
        assert err.value.layer == slot

    @pytest.mark.parametrize("leaf, slot", LEAF_SLOTS)
    @pytest.mark.parametrize("kind", [complex, bool, object])
    def test_refuses_non_real_dtype(self, leaf, slot, kind):
        build, arrays = _leaves()[leaf]
        arrays[slot] = arrays[slot].astype(kind)
        with pytest.raises(ValueError, match=f"^{slot}: dtype"):
            build(arrays)

    @pytest.mark.parametrize("leaf, slot", LEAF_SLOTS)
    def test_refuses_a_wrong_shape(self, leaf, slot):
        build, arrays = _leaves()[leaf]
        arrays[slot] = np.ones(arrays[slot].shape + (1,))
        with pytest.raises(ValueError, match=f"^{slot}: shape"):
            build(arrays)

    def test_refuses_a_conv_weight_tensor_of_the_wrong_shape_by_its_shape(self):
        with pytest.raises(ValueError, match="^weight: shape"):
            Conv2dParams(2, 3, 3, weight=Tensor(np.ones((3, 2, 1, 1))))

    def test_refuses_a_negative_running_var(self):
        build, arrays = _leaves()["batch_norm"]
        arrays["running_var"][1] = -1e-3
        with pytest.raises(ValueError, match="^running_var: running_var must be non-negative"):
            build(arrays)

    @pytest.mark.parametrize("leaf", list(_leaves()))
    def test_casts_integers_and_keeps_float64_arrays_without_a_copy(self, leaf):
        build, arrays = _leaves()[leaf]
        ints = {slot: a.astype(np.int64) for slot, a in arrays.items()}
        for slot, v in build(ints).params().items():
            assert v.dtype == np.float64 and np.array_equal(v, arrays[slot])
        layer = build(arrays)
        for slot in layer.slots() + layer.state_slots():
            held = getattr(layer, slot)
            assert np.shares_memory(held.data if isinstance(held, Tensor) else held, arrays[slot])

    def test_conv_with_an_ndarray_weight_runs_as_with_a_tensor(self, rng):
        w = rng.standard_normal((6, 2, 3, 3))
        x = Tensor(rng.standard_normal((2, 4, 5, 5)))
        from_array = Conv2dParams(4, 6, 3, padding=1, groups=2, weight=w)
        from_tensor = Conv2dParams(4, 6, 3, padding=1, groups=2, weight=Tensor(w))
        assert isinstance(from_array.weight, Tensor)
        assert np.array_equal(ops.conv2d(x, from_array).output.data,
                              ops.conv2d(x, from_tensor).output.data)

    def test_binds_a_conv_weight_tensor_as_it_is(self):
        w = Tensor(np.ones((3, 2, 3, 3)))
        assert Conv2dParams(2, 3, 3, weight=w).weight is w


class TestGlobalAvgPool:
    def test_constant(self):
        x = Tensor(np.full((2, 3, 5, 5), 7.5))
        out = ops.global_avg_pool(x).output
        assert out.shape == (2, 3, 1, 1)
        assert np.all(out.data == 7.5)

    def test_hand_value(self):
        x = Tensor(np.array([1.0, 2, 3, 4]).reshape(1, 1, 2, 2))
        assert ops.global_avg_pool(x).output.data[0, 0, 0, 0] == 2.5

    def test_matches_loop_oracle(self, rng):
        x = Tensor(rng.standard_normal((2, 4, 3, 5)))
        np.testing.assert_allclose(
            ops.global_avg_pool(x).output.data, naive_gap(x.data), atol=1e-12
        )


class TestLinear:
    def test_identity(self):
        p = LinearParams(np.eye(3), np.zeros(3))
        x = Tensor(np.arange(6, dtype=np.float64).reshape(2, 3, 1, 1))
        out = ops.linear(x, p).output
        assert np.array_equal(out.data, x.data)

    def test_hand_arithmetic(self):
        p = LinearParams(np.array([[1.0, 2.0], [3.0, 4.0]]))
        out = ops.linear(Tensor(np.ones((1, 2, 1, 1))), p).output
        assert out.shape == (1, 2, 1, 1)
        assert out.data.reshape(1, 2).tolist() == [[3.0, 7.0]]

    def test_matches_matmul_oracle(self, rng):
        p = LinearParams.init(5, 3, bias=True, seed=rng)
        p.bias[:] = rng.standard_normal(3)
        v = rng.standard_normal((4, 5))
        out = ops.linear(Tensor(v.reshape(4, 5, 1, 1)), p).output
        np.testing.assert_allclose(
            out.data.reshape(4, 3), naive_linear(v, p.weight, p.bias), atol=1e-12
        )

    def test_dimension_mismatch(self):
        p = LinearParams.init(5, 3)
        with pytest.raises(ValueError):
            ops.linear(Tensor(np.zeros((2, 4, 1, 1))), p)
        with pytest.raises(ValueError):
            ops.linear(Tensor(np.zeros((2, 5, 2, 1))), p)

    def test_backward_uses_forward_weight(self, rng):
        p = LinearParams.init(5, 3, bias=True, seed=rng)
        x = Tensor(rng.standard_normal((4, 5, 1, 1)))
        dy = rng.standard_normal((4, 3, 1, 1))
        want = ops.linear(x, p).backward(dy)[0]
        gp = ops.linear(x, p)
        p.weight = p.weight * 3.0
        got = gp.backward(dy)[0]
        assert np.array_equal(got, want)


class TestActivations:
    def test_relu_values(self):
        x = Tensor(np.array([-1.0, 2.0, 0.0, -3.0]).reshape(1, 1, 2, 2))
        out = ops.relu(x).output
        assert out.data.ravel().tolist() == [0.0, 2.0, 0.0, 0.0]

    def test_sigmoid_at_zero(self):
        assert ops.sigmoid(Tensor(np.zeros((1, 1, 1, 1)))).output.data[0, 0, 0, 0] == 0.5

    def test_sigmoid_monotone_and_bounded(self, rng):
        x = np.sort(rng.uniform(-30, 30, size=64))
        y = ops.sigmoid(Tensor(x.reshape(1, 1, 8, 8))).output.data.ravel()
        assert np.all(np.diff(y) > 0)
        assert np.all((y > 0) & (y < 1))

    def test_sigmoid_extreme_inputs_finite(self):
        x = Tensor(np.array([-700.0, 700.0, 0.0, -1.0]).reshape(1, 1, 2, 2))
        y = ops.sigmoid(x).output.data
        assert np.all(np.isfinite(y))


class TestSoftmaxOverScales:
    def test_equal_logits_uniform(self):
        z = np.ones((2, 4, 3, 1, 1)) * 1.7
        att = ops.softmax_over_scales(z)
        np.testing.assert_allclose(att, 0.25, atol=1e-15)

    def test_closed_form_two_scales(self):
        z = np.zeros((1, 2, 1, 1, 1))
        z[0, 1] = np.log(3.0)
        att = ops.softmax_over_scales(z)
        np.testing.assert_allclose(att[:, 0], 0.25, atol=1e-15)
        np.testing.assert_allclose(att[:, 1], 0.75, atol=1e-15)

    def test_sums_to_one(self, rng):
        z = rng.standard_normal((3, 4, 8, 1, 1)) * 5
        att = ops.softmax_over_scales(z)
        np.testing.assert_allclose(att.sum(axis=1), 1.0, atol=1e-12)

    def test_large_logits_stable(self):
        z = np.zeros((1, 2, 1, 1, 1))
        z[0, 0] = 1000.0
        att = ops.softmax_over_scales(z)
        assert np.all(np.isfinite(att))

    @pytest.mark.parametrize("z", [np.full((1, 2, 1, 1, 1), 1j), np.ones((1, 2, 1, 1, 1), dtype=bool)],
                             ids=["complex", "bool"])
    def test_refuses_non_real_logits(self, z):
        with pytest.raises(ValueError, match="dtype"):
            ops.softmax_over_scales(z)

    def test_refuses_a_nan_logit(self):
        z = np.zeros((1, 2, 1, 1, 1))
        z[0, 1] = np.nan
        with pytest.raises(NonFiniteError):
            ops.softmax_over_scales(z)

    def test_refuses_a_logit_stack_that_is_not_5d(self):
        with pytest.raises(ValueError, match="shape"):
            ops.softmax_over_scales(np.zeros((2, 4, 3)))

    def test_refuses_an_empty_scale_axis(self):
        with pytest.raises(ValueError, match="scales") as err:
            ops.softmax_over_scales(np.zeros((1, 0, 1, 1, 1)))
        assert not isinstance(err.value, NonFiniteError)


class TestScaleSoftmax:
    def test_matches_softmax_over_scales_bitwise(self, rng):
        z = rng.standard_normal((3, 4, 8, 1, 1)) * 5
        att, _ = ops.ScaleSoftmax(4).apply(Tensor(z.reshape(12, 8, 1, 1)), False)
        assert att.shape == (12, 8, 1, 1)
        assert np.array_equal(att.data.reshape(z.shape), ops.softmax_over_scales(z))
        np.testing.assert_allclose(att.data.reshape(z.shape).sum(axis=1), 1.0, atol=1e-12)

    def test_weights_compete_across_scales_only(self):
        """Scale s of sample n is row n*S + s; equal logits within a sample
        give 1/S whatever the other sample holds."""
        z = np.zeros((4, 1, 1, 1))
        z[2:] = [[[[0.0]]], [[[np.log(3.0)]]]]
        att, _ = ops.ScaleSoftmax(2).apply(Tensor(z), False)
        np.testing.assert_allclose(att.data.ravel(), [0.5, 0.5, 0.25, 0.75], atol=1e-15)

    @pytest.mark.parametrize("batch", [6, 2])
    @pytest.mark.parametrize("training", [False, True])
    def test_refuses_a_batch_that_is_not_a_multiple_of_scales(self, batch, training):
        with pytest.raises(ValueError, match=f"^batch {batch} is not a multiple of scales 4$"):
            ops.ScaleSoftmax(4).apply(Tensor(np.zeros((batch, 3, 1, 1))), training)


class TestBatchNorm:
    def test_eval_identity_configuration(self, rng):
        p = BatchNormParams.init(3)
        x = Tensor(rng.standard_normal((2, 3, 4, 4)))
        out = ops.batch_norm(x, p, training=False).output
        np.testing.assert_allclose(out.data, x.data, atol=1e-4)

    def test_training_normalizes(self, rng):
        p = BatchNormParams.init(3)
        x = Tensor(rng.standard_normal((4, 3, 5, 5)) * 3 + 1)
        out = ops.batch_norm(x, p, training=True).output.data
        np.testing.assert_allclose(out.mean(axis=(0, 2, 3)), 0.0, atol=1e-10)
        np.testing.assert_allclose(out.var(axis=(0, 2, 3)), 1.0, atol=1e-3)

    def test_running_stats_updated_only_in_training(self, rng):
        p = BatchNormParams.init(2)
        x = Tensor(rng.standard_normal((2, 2, 3, 3)) + 5)
        ops.batch_norm(x, p, training=False)
        assert np.all(p.running_mean == 0)
        ops.batch_norm(x, p, training=True)
        assert np.all(p.running_mean != 0)

    def test_training_rebinds_the_running_stats(self, rng):
        p = BatchNormParams.init(2)
        mean, var = p.running_mean, p.running_var
        ops.batch_norm(Tensor(rng.standard_normal((2, 2, 3, 3)) + 5), p, True)
        assert p.running_mean is not mean and p.running_var is not var
        assert np.all(mean == 0) and np.all(var == 1)

    @pytest.mark.parametrize("training", [True, False])
    def test_backward_uses_forward_gamma(self, rng, training):
        p = BatchNormParams.init(3)
        p.gamma[:] = rng.uniform(0.5, 1.5, 3)
        x = Tensor(rng.standard_normal((2, 3, 4, 4)))
        dy = rng.standard_normal(x.shape)
        want = ops.batch_norm(x, p, training).backward(dy)[0]
        gp = ops.batch_norm(x, p, training)
        p.gamma = p.gamma * 3.0
        assert np.array_equal(gp.backward(dy)[0], want)

    def test_backward_uses_forward_running_stats(self, rng):
        """A training forward between an eval forward and its backward
        rebinds the running statistics; the eval backward still uses the
        statistics its forward read."""
        def params():
            p = BatchNormParams.init(3)
            p.gamma[:] = [0.5, 1.5, 2.0]
            p.running_mean[:] = [0.3, -1.0, 2.0]
            p.running_var[:] = [0.5, 2.0, 4.0]
            return p

        x = Tensor(rng.standard_normal((2, 3, 4, 4)))
        dy = rng.standard_normal(x.shape)
        dx, grads = ops.batch_norm(x, params(), False).backward(dy)
        p = params()
        gp = ops.batch_norm(x, p, False)
        ops.batch_norm(Tensor(rng.standard_normal(x.shape) + 5.0), p, True)
        got_dx, got_grads = gp.backward(dy)
        assert np.array_equal(got_dx, dx)
        assert all(np.array_equal(got_grads[k], grads[k]) for k in ("gamma", "beta"))

    @pytest.mark.parametrize("training", [True, False])
    def test_matches_naive_formula(self, rng, training):
        """Output, dx, dgamma and dbeta, also where mean >> std: there a
        backward that sums dy*x and subtracts mean*sum(dy) cancels."""
        c = 4
        p = BatchNormParams.init(c)
        p.gamma[:] = rng.uniform(0.5, 2.0, c)
        p.beta[:] = rng.uniform(-1.0, 1.0, c)
        p.running_mean[:] = rng.uniform(-2.0, 2.0, c)
        p.running_var[:] = rng.uniform(0.5, 3.0, c)
        shape = (3, c, 5, 6)
        for x in (rng.standard_normal(shape) * 2.0 + 1.5, 1e3 + 1e-3 * rng.standard_normal(shape)):
            if training:
                mean, var = x.mean(axis=(0, 2, 3)), x.var(axis=(0, 2, 3))
            else:
                mean, var = p.running_mean.copy(), p.running_var.copy()
            gp = ops.batch_norm(Tensor(x), p, training)
            want = naive_batch_norm(x, p.gamma, p.beta, mean, var, ops.BN_EPS)
            np.testing.assert_allclose(gp.output.data, want, rtol=0, atol=1e-12 * np.abs(want).max())
            dy = rng.standard_normal(x.shape)
            got_dx, got = gp.backward(dy)
            want_dx = naive_batch_norm_dx(dy, x, p.gamma, mean, var, ops.BN_EPS, training)
            np.testing.assert_allclose(got_dx, want_dx, rtol=0, atol=1e-12 * np.abs(want_dx).max())
            for name, want in zip(("gamma", "beta"), naive_batch_norm_dparams(dy, x, mean, var, ops.BN_EPS)):
                np.testing.assert_allclose(got[name], want, rtol=0, atol=1e-12 * np.abs(want).max())


class TestMaxPool:
    def test_constant_input(self):
        x = Tensor(np.full((1, 2, 8, 8), 3.0))
        out = ops.max_pool(x).output
        assert np.all(out.data == 3.0)

    def test_table_output_size(self):
        x = Tensor(np.zeros((1, 1, 112, 112)))
        assert ops.max_pool(x, 3, 2, 1).output.shape == (1, 1, 56, 56)

    @pytest.mark.parametrize("kernel, stride, padding", [(3, 1, 3), (1, 1, 1), (3, 2, 4)])
    def test_padding_not_below_kernel_is_a_config_error(self, kernel, stride, padding):
        # A window wholly in the padding holds no input; that is a bad
        # configuration, not a numerical failure.
        x = Tensor(np.ones((1, 2, 5, 5)))
        with pytest.raises(ValueError, match="kernel") as err:
            ops.max_pool(x, kernel, stride, padding)
        assert not isinstance(err.value, NonFiniteError)

    @pytest.mark.parametrize("kernel, stride, padding", [(3, 0, 1), (0, 1, -1), (3, -1, 1), (3, 2, -1)])
    def test_bad_window_geometry_is_a_config_error(self, kernel, stride, padding):
        x = Tensor(np.ones((1, 2, 8, 8)))
        with pytest.raises(ValueError, match="stride") as err:
            ops.max_pool(x, kernel, stride, padding)
        assert not isinstance(err.value, NonFiniteError)

    @pytest.mark.parametrize("hw", [(1, 1), (2, 3), (7, 9)], ids=lambda hw: f"{hw[0]}x{hw[1]}")
    def test_matches_loop_oracle(self, rng, hw):
        x = Tensor(rng.standard_normal((2, 3) + hw))
        got = ops.max_pool(x, 3, 2, 1).output.data
        np.testing.assert_allclose(got, naive_max_pool(x.data, 3, 2, 1), atol=0)

    @pytest.mark.parametrize("hw", [(1, 1), (2, 3), (7, 9)], ids=lambda hw: f"{hw[0]}x{hw[1]}")
    def test_backward_matches_loop_oracle(self, rng, hw):
        # Rounded post-relu values: most windows hold several equal maxima.
        x = Tensor(np.maximum(np.round(rng.standard_normal((2, 3) + hw)), 0.0))
        gp = ops.max_pool(x, 3, 2, 1)
        # Whole-number dy: sums are exact in any order, so dx is bitwise
        # the oracle's, while every misrouted window still shows.
        dy = rng.integers(1, 100, size=gp.output.shape) * rng.choice([-1.0, 1.0], size=gp.output.shape)
        want = naive_max_pool_dx(dy, x.data, 3, 2, 1)
        assert np.array_equal(gp.backward(dy)[0], want)


class TestFiniteDifference:
    def test_gradient_of_sum(self):
        a = np.random.default_rng(3).standard_normal((1, 2, 3, 3))
        g = ops.finite_difference_array(lambda v: float(v.sum()), a)
        np.testing.assert_allclose(g, 1.0, atol=1e-9)

    def test_gradient_of_half_norm(self):
        a = np.random.default_rng(4).standard_normal((1, 2, 3, 3))
        g = ops.finite_difference_array(lambda v: 0.5 * float((v ** 2).sum()), a)
        np.testing.assert_allclose(g, a, atol=1e-9)


# (kernel, groups, in, out) of every PSA branch conv the builders make:
# 32 -> 8 is the toy model's first stage, 64 -> 16 its second stage and
# the canonical models' first stage.
PSA_BRANCH_CONVS = [
    (k, g, cin, cout)
    for k, g in [(3, 1), (5, 4), (7, 8), (9, 8), (9, 16)]
    for cin, cout in [(32, 8), (64, 16)]
    if cout % g == 0
]
# Each on a 4x5 map; the k9 ones also on maps smaller than the kernel,
# where some kernel columns read no input column at all.
NARROWING_CASES = [pytest.param(*c, (4, 5), id="-".join(map(str, c))) for c in PSA_BRANCH_CONVS] + [
    pytest.param(*c, hw, id="-".join(map(str, c)) + f"-{hw[0]}x{hw[1]}")
    for c in PSA_BRANCH_CONVS
    if c[0] == 9
    for hw in [(1, 1), (2, 2), (3, 5)]
]


class TestNarrowingConv:
    """The weight-first strategy that conv2d picks for convs narrowing the channels."""

    @pytest.mark.parametrize("stride", [1, 2])
    @pytest.mark.parametrize("k,g,cin,cout,hw", NARROWING_CASES)
    def test_matches_oracle_and_im2col(self, rng, k, g, cin, cout, hw, stride):
        pad = (k - 1) // 2
        p = Conv2dParams.init(cin, cout, k, stride=stride, padding=pad, groups=g, seed=rng)
        w = p.weight.data
        x = rng.standard_normal((8, cin) + hw)
        want = naive_conv2d(x, w, None, stride, pad, g)
        for n in (1, 8):
            out, vjp = ops._conv_rows(x[:n], w, g, stride, pad)
            gp = ops.conv2d(Tensor(x[:n]), p)
            assert np.array_equal(gp.output.data, out)
            np.testing.assert_allclose(out, want[:n], rtol=0, atol=1e-12)

            dy = rng.standard_normal(out.shape)
            dx, dw = vjp(dy)
            ref_dx, ref_dw = ops._conv_im2col(x[:n], w, g, stride, pad)[1](dy)
            np.testing.assert_allclose(dx, ref_dx, rtol=0, atol=1e-12)
            np.testing.assert_allclose(dw, ref_dw, rtol=0, atol=1e-12)
            got_dx, grads = gp.backward(dy)
            assert np.array_equal(got_dx, dx) and np.array_equal(grads["weight"], dw)

    @pytest.mark.parametrize("n", [1, 8])
    @pytest.mark.parametrize("stride", [1, 2])
    @pytest.mark.parametrize("k,g", [(3, 1), (5, 4), (7, 8), (9, 16), (9, 8)])
    def test_chunks_of_groups_agree_bitwise(self, rng, monkeypatch, k, g, stride, n):
        """A 1-byte stack budget runs one group per chunk, a huge one all
        groups in one chunk; out, dx and dW do not depend on the split."""
        x = rng.standard_normal((n, 64, 7, 9))
        w = rng.standard_normal((16, 64 // g, k, k))
        runs = []
        for budget in (1, 1 << 60):  # a vjp keeps the chunks of its forward
            monkeypatch.setattr(ops, "_STACK_BYTES", budget)
            runs.append(ops._conv_rows(x, w, g, stride, (k - 1) // 2))
        (one, one_vjp), (whole, whole_vjp) = runs
        dy = rng.standard_normal(one.shape)
        assert np.array_equal(one, whole)
        for a, b in zip(one_vjp(dy), whole_vjp(dy)):
            assert np.array_equal(a, b)

    def test_padding_wider_than_kernel(self, rng):
        x = rng.standard_normal((2, 8, 5, 4))
        w = rng.standard_normal((2, 8, 3, 3))
        out, vjp = ops._conv_rows(x, w, 1, 2, 4)
        np.testing.assert_allclose(out, naive_conv2d(x, w, None, 2, 4, 1), rtol=0, atol=1e-12)
        dy = rng.standard_normal(out.shape)
        for got, want in zip(vjp(dy), ops._conv_im2col(x, w, 1, 2, 4)[1](dy)):
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)

    def test_grouped_equals_block_diagonal(self, rng):
        """k9 g16, 64 -> 16 takes the weight-first path; forward and backward
        still equal 16 independent convs on channel slices, exactly."""
        g, cin, cout, k = 16, 64, 16, 9
        p = Conv2dParams.init(cin, cout, k, padding=4, groups=g, seed=rng)
        x = Tensor(rng.standard_normal((2, cin, 6, 6)))
        whole = ops.conv2d(x, p)
        dy = rng.standard_normal(whole.output.shape)
        dx, grads = whole.backward(dy)
        cg, og = cin // g, cout // g
        outs, dxs, dws = [], [], []
        for i in range(g):
            sub_w = Tensor(p.weight.data[i * og : (i + 1) * og].copy())
            sub_p = Conv2dParams(cg, og, k, padding=4, groups=1, weight=sub_w)
            sub_x = Tensor(x.data[:, i * cg : (i + 1) * cg].copy())
            sub = ops.conv2d(sub_x, sub_p)
            sub_dx, sub_grads = sub.backward(dy[:, i * og : (i + 1) * og].copy())
            outs.append(sub.output.data)
            dxs.append(sub_dx)
            dws.append(sub_grads["weight"])
        assert np.array_equal(whole.output.data, np.concatenate(outs, axis=1))
        assert np.array_equal(dx, np.concatenate(dxs, axis=1))
        assert np.array_equal(grads["weight"], np.concatenate(dws, axis=0))


# (kernel, groups, in, out, map, padding): every PSA branch conv on maps of
# 1x1, 2x2 and 3x5, then a 3x3 conv with pad 1, a 7x7 conv with pad 3 on a
# map narrower than 7, and a pad wider than the kernel reaches.
ADJOINT_CASES = [
    pytest.param(*c, hw, (c[0] - 1) // 2, id="-".join(map(str, c)) + f"-{hw[0]}x{hw[1]}")
    for c in PSA_BRANCH_CONVS
    for hw in [(1, 1), (2, 2), (3, 5)]
] + [
    pytest.param(3, 1, 4, 6, (5, 6), 1, id="k3-pad1"),
    pytest.param(7, 1, 3, 4, (6, 5), 3, id="k7-pad3-5wide"),
    pytest.param(3, 2, 4, 2, (5, 4), 4, id="k3-pad4"),
]


class TestConvAdjoint:
    """Each conv strategy's backward is the adjoint of the naive loop conv:
    <dy, conv(v, w)> = <dx, v> and <dy, conv(x, u)> = <dW, u>. The oracle
    shares no edge handling with either strategy."""

    @pytest.mark.parametrize("strategy", ["_conv_rows", "_conv_im2col"])
    @pytest.mark.parametrize("stride", [1, 2])
    @pytest.mark.parametrize("k,g,cin,cout,hw,pad", ADJOINT_CASES)
    def test_backward_is_adjoint(self, rng, strategy, k, g, cin, cout, hw, pad, stride):
        x, v = rng.standard_normal((2, 2, cin) + hw)
        w, u = rng.standard_normal((2, cout, cin // g, k, k))
        out, vjp = getattr(ops, strategy)(x, w, g, stride, pad)
        dy = rng.standard_normal(out.shape)
        dx, dw = vjp(dy)
        for want, got in [
            (np.vdot(dy, naive_conv2d(v, w, None, stride, pad, g)), np.vdot(dx, v)),
            (np.vdot(dy, naive_conv2d(x, u, None, stride, pad, g)), np.vdot(dw, u)),
        ]:
            assert abs(got - want) <= 1e-12 * abs(want)

    @pytest.mark.parametrize("stride", [1, 2])
    @pytest.mark.parametrize("k,g,cin,cout,hw,pad", ADJOINT_CASES)
    def test_one_group_per_chunk_is_adjoint(self, rng, monkeypatch, k, g, cin, cout, hw, pad, stride):
        """The same oracle case, with `_conv_rows` crossing a chunk boundary at every group."""
        monkeypatch.setattr(ops, "_STACK_BYTES", 1)
        self.test_backward_is_adjoint(rng, "_conv_rows", k, g, cin, cout, hw, pad, stride)


MiB = 1 << 20


class TestAllocationBudget:
    """Batch norm and max pool allocate their output and little else that
    scales with the activation, the narrowing conv builds its row stack
    one chunk of groups at a time, and `test_protocol.py` holds each op to
    keeping only its output after its forward; these budgets keep a later
    edit from quietly bringing the temporaries back.

    The MiB bounds are fixed from tracemalloc peaks measured on numpy
    2.4.6, first with the whole row stack built at once and then chunked:
    PSA's k9g16 64 -> 16 branch conv at 1x64x56x56, 17.27 -> 2.98 forward
    and 18.80 -> 5.46 backward; `psa_forward` on the same input, 18.42 ->
    6.20; one eval forward of `epsanet50_small` at 1x224, 27.15 -> 20.20,
    where the stem's im2col now sets the peak. The toy training step's
    bounds come from the same measurement, first with every backward
    holding its saved values until the last vjp was dropped and then with
    each backward freeing them as it returns: the backward's peak 31.91 ->
    25.56, now set by layer2's PSA branch3, and the bytes held after it,
    the vjp still alive, 20.53 -> 1.64."""

    @staticmethod
    def traced(fn):
        """(result, peak bytes, bytes still held with the result alive)."""
        tracemalloc.start()
        try:
            result = fn()
            held, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        return result, peak, held

    @pytest.mark.parametrize("training", [True, False])
    def test_batch_norm_peak(self, rng, training):
        p = BatchNormParams.init(64)
        x = Tensor(rng.standard_normal((1, 64, 56, 56)))
        gp, peak, _ = self.traced(lambda: ops.batch_norm(x, p, training))
        assert peak <= 1.25 * gp.output.data.nbytes

    @pytest.mark.parametrize("training", [True, False], ids=["training", "eval"])
    def test_batch_norm_backward_peak(self, rng, training):
        """The backward builds the centred input and overwrites it with dx:
        one buffer of the output's size."""
        p = BatchNormParams.init(64)
        x = Tensor(rng.standard_normal((1, 64, 56, 56)))
        gp = ops.batch_norm(x, p, training)
        dy = rng.standard_normal(x.shape)
        _, peak, _ = self.traced(lambda: gp.backward(dy))
        assert peak <= 1.25 * gp.output.data.nbytes

    def test_wrap_allocates_no_temporary(self, rng):
        """The finiteness check reads the array it wraps and builds no mask."""
        a = rng.standard_normal((1, 64, 56, 56))
        t, peak, _ = self.traced(lambda: _wrap(a))
        assert t.data.base is a and peak < 0.01 * a.nbytes

    def test_max_pool_peak(self, rng):
        x = Tensor(rng.standard_normal((1, 64, 112, 112)))
        gp, peak, _ = self.traced(lambda: ops.max_pool(x, 3, 2, 1))
        assert peak <= 1.25 * gp.output.data.nbytes

    def test_psa_branch_conv_peak(self, rng):
        x = Tensor(rng.standard_normal((1, 64, 56, 56)))
        p = Conv2dParams.init(64, 16, 9, padding=4, groups=16, seed=rng)
        gp, forward, _ = self.traced(lambda: ops.conv2d(x, p))
        dy = rng.standard_normal(gp.output.shape)
        _, backward, _ = self.traced(lambda: gp.backward(dy))
        assert forward <= 4 * MiB and backward <= 7 * MiB

    def test_psa_forward_peak(self, rng):
        x = Tensor(rng.standard_normal((1, 64, 56, 56)))
        p = PsaParams.init(PsaConfig(64), rng)
        _, peak, _ = self.traced(lambda: psa_forward(x, p))
        assert peak <= 8 * MiB

    def test_training_step_backward_frees_the_forward(self, rng):
        """One training step of the toy net at train-toy's shape (batch 8,
        64 px), traced from before its forward: the backward's peak, and
        what it leaves held besides dx and the gradients."""
        tm = defaults.TOY_MODEL
        net = build_toy_epsanet(widths=tm["widths"], blocks=tm["blocks"],
                                stem_channels=tm["stem_channels"], seed=tm["seed"]).net
        x = Tensor(rng.standard_normal((8, 3, 64, 64)))
        dlogits = rng.standard_normal((8, 4))

        def step():
            _, vjp = net.apply(x, True)
            tracemalloc.reset_peak()
            return vjp, vjp(dlogits)  # held is read with the vjp alive

        _, peak, held = self.traced(step)
        assert peak <= 27 * MiB and held <= 2 * MiB

    def test_eval_forward_peak_epsanet50_small(self, rng):
        net = build_model("epsanet50_small").net
        x = Tensor(rng.standard_normal((1, 3, 224, 224)))
        _, peak, _ = self.traced(lambda: net.apply(x, False))
        assert peak <= 23 * MiB
