"""Dense 4-D float64 tensors in (N, C, H, W) layout.

`Tensor` is the forward value every op takes and returns. Its backing
array is flagged read-only, so an accidental in-place edit fails loudly.
`_wrap` is how the ops wrap a freshly computed array: it keeps the
finiteness check, which is where NaN or Inf is first caught, but skips
the copy. `random_uniform` builds a tensor of a given shape
deterministically from a seed.

Every array handed in from outside passes one rule, `_admit`, in
`Tensor(data)`, the parameter-set constructors, `Layer.assign` and
`softmax_over_scales`. It takes a real floating or integer dtype only,
casts to C-contiguous float64, requires the expected shape and refuses
NaN or Inf (a `NonFiniteError` naming the entry) and a negative running
variance. It copies only to cast; a caller that must own its array
copies first.

Every finiteness guard in the package, on forward values, gradients,
parameters, updates and checkpoint entries, goes through `_all_finite`.
For a C-contiguous float64 array it takes the sum of squares `flat @
flat`: one BLAS dot, which runs on the BLAS threads and allocates no
temporary. The check is exact. Every square is non-negative, so no two
terms cancel: a NaN anywhere makes the sum NaN and an Inf makes it Inf,
while a sum of finite squares is finite unless it overflows (a single
|x| above about 1.3e154 is enough). Only when the sum is not finite does
it decide by the element-wise `np.isfinite(a).all()`, so a finite array
whose squares overflow is still accepted; any other layout or dtype goes
straight to that scan. Overflow and underflow in the dot are silenced, so
the check warns or raises under no `np.errstate`.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

__all__ = ["Tensor", "NonFiniteError", "random_uniform"]


class NonFiniteError(ValueError):
    """An array that must be finite holds NaN or Inf; a network run sets `layer` and `phase`."""

    layer: str | None = None
    phase: str | None = None


class Tensor:
    """Immutable 4-D float64 array in row-major (N, C, H, W) order.

    `Tensor(data)` admits data by `_admit`, then copies it: complex, bool,
    string or object data is a ValueError naming the dtype, integer data is
    cast, NaN or Inf is a NonFiniteError; a Tensor is copied unscanned.
    Every dimension must be positive.
    """

    __slots__ = ("_data",)

    def __init__(self, data, *, _trusted: np.ndarray | None = None):
        if _trusted is not None:
            # Freeze a view so the caller's own array keeps its flags.
            arr = _trusted.view()
        else:
            arr = np.array(_admit("tensor data", data, (None,) * 4))
            if min(arr.shape) <= 0:
                raise ValueError(f"tensor dimensions must be positive, got {arr.shape}")
        arr.setflags(write=False)
        self._data = arr

    @property
    def data(self) -> np.ndarray:
        """Read-only view of the backing array."""
        return self._data

    @property
    def shape(self) -> tuple[int, int, int, int]:
        return self._data.shape

    @property
    def n(self) -> int:
        return self._data.shape[0]

    @property
    def c(self) -> int:
        return self._data.shape[1]

    @property
    def h(self) -> int:
        return self._data.shape[2]

    @property
    def w(self) -> int:
        return self._data.shape[3]

    @property
    def size(self) -> int:
        return self._data.size

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape})"


def _all_finite(a: np.ndarray) -> bool:
    """Whether a holds no NaN or Inf, exactly; see the module docstring."""
    if a.dtype == np.float64 and a.flags.c_contiguous:
        flat = a.reshape(-1)
        with np.errstate(over="ignore", under="ignore"):
            if math.isfinite(flat @ flat):
                return True
    return bool(np.isfinite(a).all())


def _admit(name: str, value, shape: tuple) -> np.ndarray:
    """The one rule for an array handed in to be held: value as C-contiguous
    float64 (a copy only to cast) of shape, where None matches any length.
    A dtype that is not real floating or integer, another shape or a
    negative running_var is a ValueError; NaN or Inf a NonFiniteError with
    `layer` name. A Tensor's data passed this rule or `_wrap` when the Tensor
    was built, so it is not scanned again."""
    a = value.data if isinstance(value, Tensor) else np.asarray(value)
    if a.dtype.kind not in "fiu":
        raise ValueError(f"{name}: dtype {a.dtype} is not real floating or integer")
    a = np.ascontiguousarray(a, dtype=np.float64)
    if len(a.shape) != len(shape) or any(e not in (None, d) for d, e in zip(a.shape, shape)):
        raise ValueError(f"{name}: shape {a.shape} != {shape}")
    if not (isinstance(value, Tensor) or _all_finite(a)):
        err = NonFiniteError(f"{name} has NaN or Inf")
        err.layer = name
        raise err
    if name.rsplit(".", 1)[-1] == "running_var" and np.any(a < 0):
        raise ValueError(f"{name}: running_var must be non-negative")
    return a


def _wrap(arr: np.ndarray) -> Tensor:
    """Wrap a freshly computed array, copying it only if it is not contiguous
    float64. NaN or Inf raises NonFiniteError, where it first appears."""
    arr = np.ascontiguousarray(arr, dtype=np.float64)
    if not _all_finite(arr):
        raise NonFiniteError("operation produced NaN or Inf")
    return Tensor(None, _trusted=arr)


def random_uniform(shape: Sequence[int], seed: int, low: float = 0.0, high: float = 1.0) -> Tensor:
    """Deterministic uniform samples in [low, high) for a fixed seed."""
    if not low < high:
        raise ValueError(f"invalid range: low={low} must be < high={high}")
    if len(shape) != 4 or not all(isinstance(d, (int, np.integer)) and d > 0 for d in shape):
        raise ValueError(f"shape {tuple(shape)} must be four positive integers")
    rng = np.random.Generator(np.random.PCG64(seed))
    return _wrap(rng.uniform(low, high, size=tuple(shape)))
