"""Operator forward contracts, checked against loop oracles."""

import tracemalloc

import numpy as np
import pytest

from epsakit import ops
from epsakit.ops import BatchNormParams, Conv2dParams, LinearParams
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
        updates the running statistics in place; the eval backward still
        uses the statistics its forward read."""
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


def _conv_case(cin, cout, k, stride=1, groups=1, hw=56):
    def make(rng):
        p = Conv2dParams.init(cin, cout, k, stride, (k - 1) // 2, groups, seed=rng)
        return (1, cin, hw, hw), lambda x: ops.conv2d(x, p)

    return make


# (input shape, op) per op kind the models chain, convs of both strategies.
RETAINING_CASES = {
    "relu": lambda rng: ((1, 64, 56, 56), ops.relu),
    "conv1x1": _conv_case(64, 256, 1),
    "conv1x1s2": _conv_case(256, 512, 1, stride=2),
    "conv3x3": _conv_case(64, 64, 3),
    "stem7x7s2": _conv_case(3, 64, 7, stride=2, hw=224),
    "narrow-k3g1": _conv_case(64, 16, 3),
    "narrow-k9g16": _conv_case(64, 16, 9, groups=16),
    "max_pool": lambda rng: ((1, 64, 112, 112), lambda x: ops.max_pool(x, 3, 2, 1)),
}


class TestAllocationBudget:
    """Batch norm and max pool allocate their output and little else that
    scales with the activation, and every op keeps only its output after
    its forward (its input is the caller's); these budgets keep a later
    edit from quietly bringing the temporaries back."""

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

    @pytest.mark.parametrize("case", RETAINING_CASES.values(), ids=RETAINING_CASES.keys())
    def test_retains_only_its_output(self, rng, case):
        shape, op = case(rng)
        x = Tensor(rng.standard_normal(shape))
        gp, _, held = self.traced(lambda: op(x))
        assert held <= 1.02 * gp.output.data.nbytes
        # No dx is a view into a larger (padded) buffer.
        dx, _ = gp.backward(rng.standard_normal(gp.output.shape))
        assert dx.shape == x.shape and (dx.base is None or dx.base.nbytes == dx.nbytes)
