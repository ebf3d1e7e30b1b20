"""Dense 4-D float64 tensors in (N, C, H, W) layout.

`Tensor` is the forward value every op takes and returns. Its backing
array is flagged read-only, so an accidental in-place edit fails loudly,
and constructing one from non-finite data raises `NonFiniteError`.
`_wrap` is how the ops wrap a freshly computed array: it keeps the
finiteness check, which is where NaN or Inf is first caught, but skips
the copy. `zeros` and `random_uniform` build tensors from a shape, the
latter deterministically from a seed, and `save_t4`/`load_t4` write and
read the `.t4` file format described above them.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

__all__ = [
    "Shape",
    "Tensor",
    "NonFiniteError",
    "zeros",
    "random_uniform",
    "save_t4",
    "load_t4",
]


@dataclass(frozen=True)
class Shape:
    """Four strictly positive dimensions: batch, channels, height, width."""

    n: int
    c: int
    h: int
    w: int

    def __post_init__(self) -> None:
        for name in ("n", "c", "h", "w"):
            v = getattr(self, name)
            if not isinstance(v, (int, np.integer)) or v <= 0:
                raise ValueError(f"shape dimension {name}={v!r} must be a positive integer")

    def as_tuple(self) -> tuple[int, int, int, int]:
        return (self.n, self.c, self.h, self.w)

    @property
    def size(self) -> int:
        return self.n * self.c * self.h * self.w


def _as_shape(shape: Shape | Sequence[int]) -> Shape:
    if isinstance(shape, Shape):
        return shape
    return Shape(*(int(d) for d in shape))


class NonFiniteError(ValueError):
    """An array that must be finite holds NaN or Inf; a network run sets `layer` and `phase`."""

    layer: str | None = None
    phase: str | None = None


class Tensor:
    """Immutable 4-D float64 array in row-major (N, C, H, W) order."""

    __slots__ = ("_data",)

    def __init__(self, data, *, _trusted: np.ndarray | None = None):
        if _trusted is not None:
            # Freeze a view so the caller's own array keeps its flags.
            arr = _trusted.view()
        else:
            arr = np.array(data, dtype=np.float64, order="C")
            if arr.ndim != 4:
                raise ValueError(f"tensor data must be 4-D, got ndim={arr.ndim}")
            if min(arr.shape) <= 0:
                raise ValueError(f"tensor dimensions must be positive, got {arr.shape}")
            if not np.all(np.isfinite(arr)):
                raise NonFiniteError("tensor data contains NaN or Inf")
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

    def equals(self, other: "Tensor") -> bool:
        """Bitwise equality of shape and contents."""
        return self.shape == other.shape and np.array_equal(self._data, other._data)

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape})"


def _wrap(arr: np.ndarray) -> Tensor:
    """Wrap a freshly computed array.

    Still validates finiteness: the cheap check is what turns silent numeric
    blow-ups (e.g. a diverging training run) into a catchable NonFiniteError.
    """
    if not np.all(np.isfinite(arr)):
        raise NonFiniteError("operation produced NaN or Inf")
    return Tensor(None, _trusted=np.ascontiguousarray(arr, dtype=np.float64))


def zeros(shape: Shape | Sequence[int]) -> Tensor:
    s = _as_shape(shape)
    return _wrap(np.zeros(s.as_tuple()))


def random_uniform(
    shape: Shape | Sequence[int], seed: int, low: float = 0.0, high: float = 1.0
) -> Tensor:
    """Deterministic uniform samples in [low, high) for a fixed seed."""
    if not low < high:
        raise ValueError(f"invalid range: low={low} must be < high={high}")
    s = _as_shape(shape)
    rng = np.random.Generator(np.random.PCG64(seed))
    return _wrap(rng.uniform(low, high, size=s.as_tuple()))


# Serialization: 4 little-endian uint32 shape fields, then the float64
# payload in row-major (N, C, H, W) order. Extension: .t4
_SHAPE_DTYPE = np.dtype("<u4")
_DATA_DTYPE = np.dtype("<f8")


def save_t4(x: Tensor, path: str | Path) -> None:
    path = Path(path)
    header = np.asarray(x.shape, dtype=_SHAPE_DTYPE)
    with open(path, "wb") as fh:
        fh.write(header.tobytes())
        fh.write(np.ascontiguousarray(x.data, dtype=_DATA_DTYPE).tobytes())


def load_t4(path: str | Path) -> Tensor:
    path = Path(path)
    raw = path.read_bytes()
    if len(raw) < 4 * _SHAPE_DTYPE.itemsize:
        raise ValueError(f"{path}: truncated header")
    header = np.frombuffer(raw[: 4 * _SHAPE_DTYPE.itemsize], dtype=_SHAPE_DTYPE)
    shape = tuple(int(v) for v in header)
    expected = 4 * _SHAPE_DTYPE.itemsize + int(np.prod(shape)) * _DATA_DTYPE.itemsize
    if len(raw) != expected:
        raise ValueError(f"{path}: expected {expected} bytes for shape {shape}, got {len(raw)}")
    data = np.frombuffer(raw[4 * _SHAPE_DTYPE.itemsize :], dtype=_DATA_DTYPE)
    return Tensor(data.reshape(shape).astype(np.float64))
