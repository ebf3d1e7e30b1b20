"""Tensor core: layout, purity, determinism."""

import numpy as np
import pytest

from epsakit import tensor as tc
from epsakit.tensor import Tensor


class TestShape:
    @pytest.mark.parametrize("bad", [(0, 1, 1, 1), (1, -2, 1, 1), (1, 1, 1, 0)])
    def test_rejects_nonpositive(self, bad):
        with pytest.raises(ValueError):
            tc.random_uniform(bad, seed=0)


class TestConstruction:
    def test_wraps_and_copies(self):
        a = np.ones((1, 2, 3, 3))
        t = Tensor(a)
        a[0, 0, 0, 0] = 99.0
        assert t.data[0, 0, 0, 0] == 1.0

    def test_read_only(self):
        t = Tensor(np.zeros((1, 1, 2, 2)))
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
    def test_size_arithmetic(self):
        t = Tensor(np.zeros((2, 3, 4, 4)))
        assert t.size == 96
        assert t.shape == (2, 3, 4, 4)
        assert np.all(t.data == 0)


class TestRandomUniform:
    def test_same_seed_bitwise_identical(self):
        a = tc.random_uniform((2, 3, 4, 4), seed=42)
        b = tc.random_uniform((2, 3, 4, 4), seed=42)
        assert np.array_equal(a.data, b.data)

    def test_range(self):
        t = tc.random_uniform((1, 4, 2, 2), seed=7, low=0.0, high=1.0)
        assert np.all(t.data >= 0.0) and np.all(t.data < 1.0)

    def test_different_seeds_differ(self):
        a = tc.random_uniform((2, 4, 4, 4), seed=0)
        b = tc.random_uniform((2, 4, 4, 4), seed=1)
        assert not np.array_equal(a.data, b.data)

    def test_invalid_range(self):
        with pytest.raises(ValueError):
            tc.random_uniform((1, 1, 1, 1), seed=0, low=1.0, high=1.0)


class TestPurity:
    def test_ops_do_not_mutate_inputs(self):
        x = tc.random_uniform((1, 4, 3, 3), seed=20)
        snapshot = x.data.copy()
        # Wrapping freezes a view: the caller's own array stays writable.
        a = snapshot.copy()
        tc._wrap(a)
        Tensor(a)
        assert a.flags.writeable and np.array_equal(a, snapshot)

