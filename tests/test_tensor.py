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
        assert float(tc.zeros((n, c, h, w)).data.sum()) == 0.0


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


class TestPurity:
    def test_ops_do_not_mutate_inputs(self, tmp_path):
        x = tc.random_uniform((1, 4, 3, 3), seed=20)
        snapshot = x.data.copy()
        tc.save_t4(x, tmp_path / "x.t4")
        assert np.array_equal(x.data, snapshot)
        # Wrapping freezes a view: the caller's own array stays writable.
        a = snapshot.copy()
        tc._wrap(a)
        Tensor(a)
        assert a.flags.writeable and np.array_equal(a, snapshot)


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
