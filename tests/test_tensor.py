"""Tensor core: layout, purity, determinism, the finiteness check."""

import warnings

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

    def test_copies_a_tensor(self):
        t = tc.random_uniform((1, 3, 4, 4), seed=0)
        u = Tensor(t)
        assert np.array_equal(u.data, t.data)
        assert not np.shares_memory(u.data, t.data)
        assert not u.data.flags.writeable

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


class TestAdmission:
    """`Tensor(data)` admits its copy by the package's one rule, `_admit`."""

    @pytest.mark.parametrize("data, dtype", [
        (np.full((1, 1, 2, 2), 1 + 2j), "complex128"),
        (np.ones((1, 1, 2, 2), dtype=bool), "bool"),
        ([[[["1", "2"]]]], "<U1"),
        (np.full((1, 1, 1, 2), None), "object"),
    ], ids=["complex", "bool", "str", "object"])
    def test_refuses_non_real_data_naming_the_dtype(self, data, dtype):
        with pytest.raises(ValueError, match=f"dtype {dtype} is not real") as err:
            Tensor(data)
        assert not isinstance(err.value, tc.NonFiniteError)

    def test_casts_integer_data(self):
        t = Tensor(np.arange(4, dtype=np.int32).reshape(1, 1, 2, 2))
        assert t.data.dtype == np.float64 and t.data.flags.c_contiguous
        assert np.array_equal(t.data, np.arange(4.0).reshape(1, 1, 2, 2))

    def test_admits_a_transposed_array_as_c_contiguous(self, rng):
        a = rng.standard_normal((2, 3, 4, 5)).transpose(3, 2, 1, 0)
        t = Tensor(a)
        assert t.data.flags.c_contiguous and np.array_equal(t.data, a)


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


@pytest.fixture
def strict():
    """Every numpy floating-point warning raises, as does any warning."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with np.errstate(all="raise"):
            yield


def _layouts(rng):
    """name -> writable array of 16,384 elements: C-contiguous, a transposed
    copy and a strided view."""
    base = rng.standard_normal((2, 8, 32, 64))
    return {
        "contiguous": base[:, :, :, :32].copy(),
        "transposed": base[:, :, :, :32].copy().transpose(0, 1, 3, 2),
        "strided": base[:, :, :, ::2],
    }


LAYOUTS = ["contiguous", "transposed", "strided"]


class TestAllFinite:
    @pytest.mark.parametrize("layout", LAYOUTS)
    @pytest.mark.parametrize("where", ["first", "middle", "last"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "+inf", "-inf"])
    def test_non_finite_is_caught(self, strict, rng, layout, where, bad):
        a = _layouts(rng)[layout]
        assert a.flags.c_contiguous == (layout == "contiguous")
        flat = {"first": 0, "middle": a.size // 2, "last": a.size - 1}[where]
        a[np.unravel_index(flat, a.shape)] = bad
        assert tc._all_finite(a) is False

    @pytest.mark.parametrize("layout", LAYOUTS)
    @pytest.mark.parametrize("extreme", [1e200, -1e200, np.finfo(float).max, -np.finfo(float).max,
                                         1e-200, np.finfo(float).smallest_subnormal])
    def test_finite_values_whose_squares_overflow_or_underflow_pass(self, strict, rng, layout, extreme):
        a = _layouts(rng)[layout]
        assert tc._all_finite(a) is True
        a[np.unravel_index(a.size // 3, a.shape)] = extreme
        assert tc._all_finite(a) is True
        a[...] = extreme
        assert tc._all_finite(a) is True

    def test_other_dtypes(self, strict):
        assert tc._all_finite(np.arange(12).reshape(3, 4)) is True
        assert tc._all_finite(np.array([1.0, np.nan], dtype=np.float32)) is False
        assert tc._all_finite(np.array([np.finfo(np.float32).max] * 2, dtype=np.float32)) is True
        assert tc._all_finite(np.empty((0, 3))) is True


class TestExactFallback:
    """A finite value whose square overflows must pass every guard: a check
    by the sum of squares alone would refuse it."""

    def test_tensor_accepts_huge_finite_values(self, strict):
        a = np.ones((1, 2, 3, 3))
        a[0, 1, 2, 2] = 1e200
        assert np.array_equal(Tensor(a).data, a)

    @pytest.mark.parametrize("layout", LAYOUTS)
    def test_wrap_accepts_huge_finite_values(self, strict, rng, layout):
        a = _layouts(rng)[layout]
        a[0, 0, 0, 0] = -1e200
        assert np.array_equal(tc._wrap(a).data, a)
