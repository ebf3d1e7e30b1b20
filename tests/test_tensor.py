"""Tensor core: layout, purity, determinism, serialization."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from epsakit import tensor as tc
from epsakit.tensor import Shape, Tensor


small_dims = st.integers(min_value=1, max_value=4)


class TestShape:
    def test_valid(self):
        s = Shape(2, 3, 4, 5)
        assert s.as_tuple() == (2, 3, 4, 5)
        assert s.size == 120

    @pytest.mark.parametrize("bad", [(0, 1, 1, 1), (1, -2, 1, 1), (1, 1, 1, 0)])
    def test_rejects_nonpositive(self, bad):
        with pytest.raises(ValueError):
            Shape(*bad)


class TestConstruction:
    def test_wraps_and_copies(self):
        a = np.ones((1, 2, 3, 3))
        t = Tensor(a)
        a[0, 0, 0, 0] = 99.0
        assert t.data[0, 0, 0, 0] == 1.0

    def test_read_only(self):
        t = tc.zeros((1, 1, 2, 2))
        with pytest.raises(ValueError):
            t.data[0, 0, 0, 0] = 1.0

    def test_rejects_nan(self):
        a = np.ones((1, 1, 2, 2))
        a[0, 0, 0, 0] = np.nan
        with pytest.raises(ValueError):
            Tensor(a)

    def test_rejects_wrong_ndim(self):
        with pytest.raises(ValueError):
            Tensor(np.ones((2, 3)))

    def test_non_finite_error_is_typed(self):
        a = np.ones((1, 1, 2, 2))
        a[0, 0, 1, 1] = np.inf
        with pytest.raises(tc.NonFiniteError):
            Tensor(a)
        with pytest.raises(tc.NonFiniteError):
            tc._wrap(a)
        assert issubclass(tc.NonFiniteError, ValueError)


class TestZeros:
    def test_single_element(self):
        t = tc.zeros((1, 1, 1, 1))
        assert t.data.tolist() == [[[[0.0]]]]

    def test_size_arithmetic(self):
        t = tc.zeros((2, 3, 4, 4))
        assert t.size == 96
        assert t.shape == (2, 3, 4, 4)
        assert np.all(t.data == 0)

    @given(n=small_dims, c=small_dims, h=small_dims, w=small_dims)
    @settings(max_examples=20, deadline=None)
    def test_sum_is_zero(self, n, c, h, w):
        assert tc.sum_all(tc.zeros((n, c, h, w))) == 0.0


class TestRandomUniform:
    def test_same_seed_bitwise_identical(self):
        a = tc.random_uniform((2, 3, 4, 4), seed=42)
        b = tc.random_uniform((2, 3, 4, 4), seed=42)
        assert a.equals(b)

    def test_range(self):
        t = tc.random_uniform((1, 4, 2, 2), seed=7, low=0.0, high=1.0)
        assert np.all(t.data >= 0.0) and np.all(t.data < 1.0)

    def test_different_seeds_differ(self):
        a = tc.random_uniform((2, 4, 4, 4), seed=0)
        b = tc.random_uniform((2, 4, 4, 4), seed=1)
        assert not a.equals(b)

    def test_invalid_range(self):
        with pytest.raises(ValueError):
            tc.random_uniform((1, 1, 1, 1), seed=0, low=1.0, high=1.0)


class TestConcatSplit:
    def test_two_part_layout(self):
        a = tc.random_uniform((1, 2, 4, 4), seed=1)
        b = tc.random_uniform((1, 2, 4, 4), seed=2)
        cat = tc.concat_channels([a, b])
        assert cat.shape == (1, 4, 4, 4)
        assert np.array_equal(cat.data[:, :2], a.data)
        assert np.array_equal(cat.data[:, 2:], b.data)

    def test_four_way_concat(self):
        parts = [tc.random_uniform((1, 16, 56, 56), seed=i) for i in range(4)]
        cat = tc.concat_channels(parts)
        assert cat.shape == (1, 64, 56, 56)

    def test_split_shape(self):
        x = tc.random_uniform((1, 64, 8, 8), seed=3)
        parts = tc.split_channels(x, 4)
        assert len(parts) == 4
        assert all(p.shape == (1, 16, 8, 8) for p in parts)

    def test_split_one_is_identity(self):
        x = tc.random_uniform((1, 6, 2, 2), seed=4)
        parts = tc.split_channels(x, 1)
        assert len(parts) == 1 and parts[0].equals(x)

    def test_split_divisibility_error(self):
        with pytest.raises(ValueError):
            tc.split_channels(tc.zeros((1, 6, 2, 2)), 4)

    def test_mismatched_concat_error(self):
        with pytest.raises(ValueError):
            tc.concat_channels([tc.zeros((1, 2, 4, 4)), tc.zeros((1, 2, 3, 4))])

    @given(
        n=small_dims,
        groups=st.integers(1, 4),
        per=st.integers(1, 3),
        h=small_dims,
        w=small_dims,
        seed=st.integers(0, 10_000),
    )
    @settings(max_examples=30, deadline=None)
    def test_roundtrip_identity(self, n, groups, per, h, w, seed):
        x = tc.random_uniform((n, groups * per, h, w), seed=seed)
        assert tc.concat_channels(tc.split_channels(x, groups)).equals(x)


class TestBroadcastMul:
    def test_unit_weights_identity(self):
        x = tc.random_uniform((2, 3, 4, 4), seed=5)
        w = Tensor(np.ones((2, 3, 1, 1)))
        assert tc.broadcast_mul_channel(x, w).equals(x)

    def test_zero_weights(self):
        x = tc.random_uniform((2, 3, 4, 4), seed=6)
        w = tc.zeros((2, 3, 1, 1))
        assert np.all(tc.broadcast_mul_channel(x, w).data == 0)

    def test_matches_scalar_loop(self, rng):
        x = Tensor(rng.standard_normal((2, 3, 4, 5)))
        w = Tensor(rng.standard_normal((2, 3, 1, 1)))
        got = tc.broadcast_mul_channel(x, w)
        expected = np.empty_like(x.data)
        for n in range(2):
            for c in range(3):
                for i in range(4):
                    for j in range(5):
                        expected[n, c, i, j] = x.data[n, c, i, j] * w.data[n, c, 0, 0]
        assert np.array_equal(got.data, expected)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            tc.broadcast_mul_channel(tc.zeros((1, 3, 2, 2)), tc.zeros((1, 2, 1, 1)))


class TestElementwise:
    def test_add_zero_identity(self):
        x = tc.random_uniform((1, 2, 3, 3), seed=9)
        assert tc.add(x, tc.zeros((1, 2, 3, 3))).equals(x)

    def test_scale_one_identity(self):
        x = tc.random_uniform((1, 2, 3, 3), seed=10)
        assert tc.scale(x, 1.0).equals(x)

    def test_sub(self):
        x = tc.random_uniform((1, 2, 3, 3), seed=11)
        assert np.all(tc.sub(x, x).data == 0)

    @given(seed_a=st.integers(0, 1000), seed_b=st.integers(0, 1000))
    @settings(max_examples=20, deadline=None)
    def test_sum_linearity_over_concat(self, seed_a, seed_b):
        a = tc.random_uniform((1, 2, 3, 3), seed=seed_a)
        b = tc.random_uniform((1, 3, 3, 3), seed=seed_b)
        total = tc.sum_all(tc.concat_channels([a, b]))
        assert total == pytest.approx(tc.sum_all(a) + tc.sum_all(b), abs=1e-12)

    def test_map_elementwise(self):
        x = tc.random_uniform((1, 2, 2, 2), seed=12)
        doubled = tc.map_elementwise(x, lambda v: 2.0 * v)
        assert doubled.allclose(tc.scale(x, 2.0), atol=0)

    def test_binary_shape_mismatch(self):
        with pytest.raises(ValueError):
            tc.add(tc.zeros((1, 2, 3, 3)), tc.zeros((1, 2, 3, 4)))


class TestPurity:
    def test_ops_do_not_mutate_inputs(self):
        x = tc.random_uniform((1, 4, 3, 3), seed=20)
        snapshot = x.data.copy()
        tc.scale(x, 3.0)
        tc.split_channels(x, 2)
        tc.add(x, x)
        tc.map_elementwise(x, abs)
        assert np.array_equal(x.data, snapshot)


class TestT4Serialization:
    def test_roundtrip(self, tmp_path):
        x = tc.random_uniform((2, 3, 5, 4), seed=21, low=-2.0, high=2.0)
        path = tmp_path / "x.t4"
        tc.save_t4(x, path)
        assert tc.load_t4(path).equals(x)

    def test_byte_layout(self, tmp_path):
        x = Tensor(np.arange(4, dtype=np.float64).reshape(1, 1, 2, 2))
        path = tmp_path / "x.t4"
        tc.save_t4(x, path)
        raw = path.read_bytes()
        assert len(raw) == 16 + 4 * 8
        assert np.frombuffer(raw[:16], dtype="<u4").tolist() == [1, 1, 2, 2]
        assert np.frombuffer(raw[16:], dtype="<f8").tolist() == [0.0, 1.0, 2.0, 3.0]

    def test_truncated_file_rejected(self, tmp_path):
        path = tmp_path / "bad.t4"
        path.write_bytes(b"\x01\x00\x00\x00")
        with pytest.raises(ValueError):
            tc.load_t4(path)
