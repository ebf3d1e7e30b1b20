"""Neural operators with explicit backward passes.

Each differentiable operator returns a GradPair: the forward output plus a
closure mapping an upstream gradient to (input gradient, parameter
gradients). Backwards are hand-derived and validated against the central
finite-difference oracle that also lives here.

A parameter set is its leaf layer: `Conv2dParams`, `LinearParams` and
`BatchNormParams` implement `Layer`, the one layer protocol, and `apply`
runs their op. The composites in `psa` and `models` are trees of them.

Forward values are `Tensor`s: read-only, and checked finite as each op
wraps its output, so NaN or Inf raises `NonFiniteError` where it first
appears. That check, like every other finiteness guard in the package,
is `tensor._all_finite`: one BLAS dot of the output with itself, exact.
Gradients are plain float64 ndarrays: a backward takes dy with the
output's shape and returns dx with the input's shape, unwrapped and
unchecked (the layer chain in `models` checks each layer's dx once), and
parameter gradients are ndarrays keyed by parameter name. A GradPair
unpacks as (output, backward).

Every backward keeps nothing but the op's input, by reference (safe,
because tensors are read-only), and its own output; anything else it
needs it rebuilds: batch norm its centred input, the im2col conv its
columns and the narrowing conv its row stack. Relu keeps only its output
and masks dy with y > 0; max pool routes each window's dy to the first
tap whose input equals the output. After its forward an op so holds its
output and nothing else that scales with the activation; a 1x1 conv at
stride 1 without padding runs on a view of its input, not a copy.

No op pads its input. One edge rule, `_taps`, bounds every conv and pool
on both axes: a kernel tap reads straight from the input over the output
span whose inputs lie inside the map, without a padded copy. A conv's
taps read zero elsewhere; max pool's running maximum starts at -inf.

Convolutions pick one of two strategies in `_conv`, by one rule:

- A conv that narrows the channels (kernel > 1 and fewer output than input
  channels per group), such as every PSA branch conv (C -> C/4), runs
  weight-first: one matmul against the k input rows each output row reads,
  then k shifted adds on the narrow output, so at stride 1 the matmul does
  exactly the conv's MACs (about twice them at stride 2). Its backward is
  the adjoint of that forward: two matmuls against the output gradient
  shifted to each kernel column, one with the row stack for dW, one with
  the transposed weight for the row-stack gradient, whose k row slabs add
  back into the input. No buffer k*k times the input is built.
- Every other conv runs as grouped matmuls over an im2col buffer, with a
  col2im backward.

The rule reads only the per-group shape (kernel, input and output channels
per group), never the group count. A grouped conv therefore takes the same
strategy as its groups run one by one, and the two agree bitwise.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from .tensor import NonFiniteError, Tensor, _all_finite, _wrap

__all__ = [
    "Layer",
    "LayerRow",
    "Conv2dParams",
    "LinearParams",
    "BatchNormParams",
    "BN_EPS",
    "BN_MOMENTUM",
    "GradPair",
    "conv2d",
    "conv_output_size",
    "global_avg_pool",
    "linear",
    "relu",
    "sigmoid",
    "softmax_over_scales",
    "batch_norm",
    "max_pool",
    "finite_difference_array",
    "max_relative_error",
]

ParamGrads = dict[str, np.ndarray]


def _rng(seed_or_rng: int | np.random.Generator) -> np.random.Generator:
    if isinstance(seed_or_rng, np.random.Generator):
        return seed_or_rng
    return np.random.Generator(np.random.PCG64(seed_or_rng))


def fanin_uniform(shape: tuple[int, ...], fan_in: int, rng: np.random.Generator) -> np.ndarray:
    """Fan-in scaled uniform init: U(-b, b) with b = 1/sqrt(fan_in)."""
    bound = 1.0 / np.sqrt(fan_in)
    return rng.uniform(-bound, bound, size=shape)


@dataclass(frozen=True)
class LayerRow:
    """One line of the per-layer complexity ledger."""

    name: str
    params: int
    flops: int
    output_shape: tuple[int, int, int, int]


def _ledger(layers, shape) -> tuple[tuple, list[LayerRow]]:
    """Thread a shape through (name, layer) pairs; collect their rows under dotted names."""
    rows = []
    for name, layer in layers:
        shape, r = layer.complexity(shape)
        rows += [replace(row, name=f"{name}.{row.name}" if row.name else name) for row in r]
    return shape, rows


def _weight_bias(p) -> tuple[str, ...]:
    """Slots of a conv or linear parameter set: its weight, and its bias if any."""
    return ("weight",) if p.bias is None else ("weight", "bias")


class Layer:
    """Base of every layer. Every layer implements

        apply(x, training) -> (y, vjp)   vjp(dy) -> (dx, {param_name: grad})

    x and y are Tensors; dy, dx and the gradients are plain ndarrays. A
    composite lists its named `children()`, in the order its forward runs
    them. A leaf lists its parameter `slots()`, the names of the array
    attributes it reads (batch norm also lists its running statistics in
    `state_slots()`). Everything else derives from those lists:

        params()       {dotted name: array}, in forward order
        param_count    the total size of those arrays
        set_param()    replace one parameter with a finite real value of its shape
        state()        batch-norm running statistics (not trained)
        decay_names()  the parameters L2 decay applies to: every `*.weight`;
                       biases and batch-norm gamma/beta do not decay
        complexity()   (out_shape, [LayerRow]), the shape threaded through the
                       children; leaves add their own rows

    The parameter composites in `psa` (`PsaParams`, `SeWeightParams`) have
    no `apply`; they run through their subclasses in `models` (`Psa`,
    `SeScale`), which add it.

    Parameter names are dotted paths, unique within a network. Parameter
    updates rebind arrays (they never mutate tensors in place), so an
    eval-mode forward is safe to run concurrently. A layer is a tree node,
    not a value: layers compare by identity.
    """

    def children(self) -> list[tuple[str, "Layer"]]:
        return []

    def slots(self) -> tuple[str, ...]:
        """A leaf's own parameters, by attribute name."""
        return ()

    def state_slots(self) -> tuple[str, ...]:
        """A leaf's own running state, in the same form."""
        return ()

    def _walk(self, state: bool = False, prefix: str = ""):
        """Yield (dotted name, array) for every slot in this subtree."""
        for attr in self.state_slots() if state else self.slots():
            yield prefix + attr, getattr(self, attr)
        for name, child in self.children():
            yield from child._walk(state, f"{prefix}{name}.")

    def params(self) -> dict[str, np.ndarray]:
        return {name: v.data if isinstance(v, Tensor) else v for name, v in self._walk()}

    @property
    def param_count(self) -> int:
        return sum(v.size for _, v in self._walk())

    def state(self) -> dict[str, np.ndarray]:
        """Live running statistics; loading a checkpoint writes into them."""
        return dict(self._walk(state=True))

    def decay_names(self) -> set[str]:
        return {name for name, _ in self._walk() if name.rsplit(".", 1)[-1] == "weight"}

    def _slot(self, name: str) -> tuple["Layer", str] | None:
        """The leaf that owns parameter name and the attribute it sits in, or None."""
        for cname, child in self.children():
            if name.startswith(cname + "."):
                return child._slot(name[len(cname) + 1:])
        return (self, name) if name in self.slots() else None

    def set_param(self, name: str, value: np.ndarray) -> None:
        """Rebind one parameter to a float64 copy of value, which must be real
        floating or integer, keep its shape and be finite. A KeyError names
        the whole dotted name; a NonFiniteError names the parameter as its
        `layer`."""
        slot = self._slot(name)
        if slot is None:
            raise KeyError(name)
        owner, attr = slot
        old = getattr(owner, attr)
        value = np.asarray(value)
        if value.dtype.kind not in "fiu":
            raise ValueError(f"{name}: dtype {value.dtype} is not real floating or integer")
        value = np.array(value, dtype=np.float64)
        if value.shape != old.shape:
            raise ValueError(f"{name}: shape {value.shape} != {old.shape}")
        if not _all_finite(value):
            err = NonFiniteError(f"{name} has NaN or Inf")
            err.layer = name
            raise err
        setattr(owner, attr, _wrap(value) if isinstance(old, Tensor) else value)

    def complexity(self, in_shape) -> tuple[tuple, list[LayerRow]]:
        return _ledger(self.children(), in_shape)


@dataclass(eq=False)
class Conv2dParams(Layer):
    """Grouped 2-D convolution, a leaf layer.

    weight is (out_channels, in_channels // groups, k, k); output group g
    reads only input group g.
    """

    in_channels: int
    out_channels: int
    kernel: int
    stride: int = 1
    padding: int = 0
    groups: int = 1
    weight: Tensor | None = None
    bias: np.ndarray | None = None

    def __post_init__(self) -> None:
        if self.kernel <= 0 or self.kernel % 2 == 0:
            raise ValueError(f"kernel must be odd and positive, got {self.kernel}")
        if self.stride <= 0 or self.padding < 0 or self.groups < 1:
            raise ValueError(f"bad stride/padding/groups: {self.stride}/{self.padding}/{self.groups}")
        if self.in_channels % self.groups or self.out_channels % self.groups:
            raise ValueError(
                f"channels ({self.in_channels}, {self.out_channels}) "
                f"not divisible by groups {self.groups}"
            )
        wshape = (self.out_channels, self.in_channels // self.groups, self.kernel, self.kernel)
        if self.weight is None:
            self.weight = _wrap(np.zeros(wshape))
        elif self.weight.shape != wshape:
            raise ValueError(f"weight shape {self.weight.shape} != expected {wshape}")
        if self.bias is not None and self.bias.shape != (self.out_channels,):
            raise ValueError(f"bias length {self.bias.shape} != {self.out_channels}")

    @classmethod
    def init(
        cls,
        in_channels: int,
        out_channels: int,
        kernel: int,
        stride: int = 1,
        padding: int = 0,
        groups: int = 1,
        bias: bool = False,
        seed: int | np.random.Generator = 0,
    ) -> "Conv2dParams":
        rng = _rng(seed)
        fan_in = (in_channels // groups) * kernel * kernel
        w = fanin_uniform((out_channels, in_channels // groups, kernel, kernel), fan_in, rng)
        b = np.zeros(out_channels) if bias else None
        return cls(in_channels, out_channels, kernel, stride, padding, groups, _wrap(w), b)

    def slots(self):
        return _weight_bias(self)

    def apply(self, x: Tensor, training: bool) -> GradPair:
        return conv2d(x, self)

    def complexity(self, in_shape):
        n, _, h, w = in_shape
        ho = conv_output_size(h, self.kernel, self.stride, self.padding)
        wo = conv_output_size(w, self.kernel, self.stride, self.padding)
        out_shape = (n, self.out_channels, ho, wo)
        # each weight takes one MAC at every output position of its channel
        return out_shape, [LayerRow("", self.param_count, n * ho * wo * self.weight.size, out_shape)]


@dataclass(eq=False)
class LinearParams(Layer):
    """Affine map, a leaf layer: weight (out_features, in_features), optional
    bias. It maps a (N, C, 1, 1) tensor; its vjp also takes a (N, out) array."""

    weight: np.ndarray
    bias: np.ndarray | None = None

    def __post_init__(self) -> None:
        if self.weight.ndim != 2:
            raise ValueError(f"linear weight must be 2-D, got {self.weight.shape}")
        if self.bias is not None and self.bias.shape != (self.weight.shape[0],):
            raise ValueError(f"bias shape {self.bias.shape} != ({self.weight.shape[0]},)")

    @classmethod
    def init(
        cls,
        in_features: int,
        out_features: int,
        bias: bool = True,
        seed: int | np.random.Generator = 0,
    ) -> "LinearParams":
        rng = _rng(seed)
        w = fanin_uniform((out_features, in_features), in_features, rng)
        b = np.zeros(out_features) if bias else None
        return cls(w, b)

    @property
    def in_features(self) -> int:
        return self.weight.shape[1]

    @property
    def out_features(self) -> int:
        return self.weight.shape[0]

    def slots(self):
        return _weight_bias(self)

    def apply(self, x: Tensor, training: bool) -> GradPair:
        return linear(x, self)

    def complexity(self, in_shape):
        out_shape = (in_shape[0], self.out_features, 1, 1)
        return out_shape, [LayerRow("", self.param_count, in_shape[0] * self.weight.size, out_shape)]


# Batch norm's variance offset and running-statistics momentum (torch defaults).
BN_EPS = 1e-5
BN_MOMENTUM = 0.1


@dataclass(eq=False)
class BatchNormParams(Layer):
    """Per-channel affine normalization, a leaf layer: gamma and beta are its
    parameters, running_mean and running_var its state.

    Training mode mutates running_mean/running_var in place, so a parameter
    set being trained must not be shared across concurrent callers.
    """

    gamma: np.ndarray
    beta: np.ndarray
    running_mean: np.ndarray
    running_var: np.ndarray

    def __post_init__(self) -> None:
        c = self.gamma.shape[0]
        for name in ("beta", "running_mean", "running_var"):
            if getattr(self, name).shape != (c,):
                raise ValueError(f"batch-norm field {name} has wrong length")
        if np.any(self.running_var < 0):
            raise ValueError("running_var must be non-negative")

    @classmethod
    def init(cls, channels: int) -> "BatchNormParams":
        return cls(
            gamma=np.ones(channels),
            beta=np.zeros(channels),
            running_mean=np.zeros(channels),
            running_var=np.ones(channels),
        )

    def slots(self):
        return ("gamma", "beta")

    def state_slots(self):
        return ("running_mean", "running_var")

    def apply(self, x: Tensor, training: bool) -> GradPair:
        return batch_norm(x, self, training)

    def complexity(self, in_shape):
        return in_shape, [LayerRow("", self.param_count, 0, in_shape)]


@dataclass
class GradPair:
    """Forward output plus the matching vector-Jacobian product."""

    output: Tensor
    backward: Callable[[np.ndarray], tuple[np.ndarray, ParamGrads]]

    def __iter__(self):  # unpacks as a layer's (y, vjp)
        return iter((self.output, self.backward))


def conv_output_size(size: int, kernel: int, stride: int, padding: int) -> int:
    out = (size + 2 * padding - kernel) // stride + 1
    if out <= 0:
        raise ValueError(
            f"convolution output collapses: size={size} kernel={kernel} "
            f"stride={stride} padding={padding}"
        )
    return out


def _taps(k: int, size: int, out: int, s: int, pad: int) -> list[tuple[int, int, slice]]:
    """The edge rule along one axis: output o reads input s*o + t - pad
    through kernel tap t. Per tap, (lo, hi, inputs): the output span whose
    inputs lie inside the map, and those inputs, start == stop if none."""
    taps = []
    for t in range(k):
        lo = min(out, max(0, -((t - pad) // s)))
        hi = max(lo, min(out, (size - 1 + pad - t) // s + 1))
        first = s * lo + t - pad
        taps.append((lo, hi, slice(first, first + s * (hi - lo), s)))
    return taps


def _im2col(x: np.ndarray, k: int, stride: int, padding: int) -> np.ndarray:
    """The input's columns, shaped (N, C, k, k, Ho, Wo); only the cells
    outside each tap's span hold zero. For a 1x1 kernel at stride 1
    without padding, a view of x."""
    n, c, h, w = x.shape
    ho = conv_output_size(h, k, stride, padding)
    wo = conv_output_size(w, k, stride, padding)
    if k == 1 and stride == 1 and not padding:
        return x[:, :, None, None]
    cols = np.empty((n, c, k, k, ho, wo))
    col_taps = _taps(k, w, wo, stride, padding)
    for i, (r0, r1, rows) in enumerate(_taps(k, h, ho, stride, padding)):
        for j, (c0, c1, cs) in enumerate(col_taps):
            tap = cols[:, :, i, j]
            tap[:, :, r0:r1, c0:c1] = x[:, :, rows, cs]
            tap[:, :, :r0] = tap[:, :, r1:] = 0.0
            tap[:, :, r0:r1, :c0] = tap[:, :, r0:r1, c1:] = 0.0
    return cols


def _col2im(dcols: np.ndarray, in_hw: tuple[int, int], k: int, stride: int, padding: int):
    """Scatter-add each tap's span of the im2col gradient back to x's layout."""
    n, c, _, _, ho, wo = dcols.shape
    h, w = in_hw
    if k == 1 and stride == 1 and not padding:
        return dcols.reshape(n, c, h, w)
    dx = np.zeros((n, c, h, w))
    col_taps = _taps(k, w, wo, stride, padding)
    for i, (r0, r1, rows) in enumerate(_taps(k, h, ho, stride, padding)):
        for j, (c0, c1, cs) in enumerate(col_taps):
            dx[:, :, rows, cs] += dcols[:, :, i, j, r0:r1, c0:c1]
    return dx


def _conv(x: np.ndarray, w: np.ndarray, groups: int, stride: int, padding: int):
    """Run the forward of the strategy the rule in the module docstring
    picks; returns (out, vjp), where vjp maps dy to (dx, dw)."""
    cout, cin_g, k, _ = w.shape
    narrowing = k > 1 and cout // groups < cin_g
    return (_conv_rows if narrowing else _conv_im2col)(x, w, groups, stride, padding)


def _conv_im2col(x: np.ndarray, w: np.ndarray, g: int, s: int, pad: int):
    """One grouped matmul over a k*k*input im2col buffer; col2im backward,
    which rebuilds the buffer from x rather than keeping it."""
    n, _, h, wd = x.shape
    cout, cin_g, k, _ = w.shape
    cout_g = cout // g
    ho = conv_output_size(h, k, s, pad)
    wo = conv_output_size(wd, k, s, pad)
    loc = ho * wo

    def columns() -> np.ndarray:  # (N, G, Cg*k*k, L) for per-group matmuls
        return _im2col(x, k, s, pad).reshape(n, g, cin_g * k * k, loc)

    w_g = w.reshape(g, cout_g, cin_g * k * k)
    out = np.matmul(w_g[None], columns()).reshape(n, cout, ho, wo)

    def vjp(d: np.ndarray):
        dy_g = d.reshape(n, g, cout_g, loc)
        dw = np.matmul(dy_g, columns().transpose(0, 1, 3, 2)).sum(axis=0)  # (G, Og, Cg*k*k)
        dcols = np.matmul(w_g.transpose(0, 2, 1)[None], dy_g).reshape(n, g * cin_g, k, k, ho, wo)
        return _col2im(dcols, (h, wd), k, s, pad), dw.reshape(w.shape)

    return out, vjp


def _conv_rows(x: np.ndarray, w: np.ndarray, g: int, s: int, pad: int):
    """Weight-first conv for convs that narrow the channels.

    One matmul of the weight, with its k kernel columns as k*Og output
    rows, against the k input rows each output row reads, stacked:
    (G, k*Og, k*Cg) x (N, G, k*Cg, Ho*W); then k shifted adds on the
    narrow output sum the kernel columns. Both axes follow the tap rule:
    kernel row i's slab reads x over its span and is zero elsewhere, and
    kernel column j adds only into its span. The stack is k times the
    input, not k*k, and lives only inside one call.
    """
    n, cin, h, wd = x.shape
    cout, cin_g, k, _ = w.shape
    cout_g = cout // g
    ho = conv_output_size(h, k, s, pad)
    wo = conv_output_size(wd, k, s, pad)
    xg = x.reshape(n, g, cin_g, h, wd)
    row_taps = _taps(k, h, ho, s, pad)
    col_taps = _taps(k, wd, wo, s, pad)

    def row_stack() -> np.ndarray:
        stack = np.empty((n, g, k, cin_g, ho, wd))
        for i, (lo, hi, rows) in enumerate(row_taps):
            stack[:, :, i, :, lo:hi] = xg[:, :, :, rows]
            stack[:, :, i, :, :lo] = stack[:, :, i, :, hi:] = 0.0
        return stack.reshape(n, g, k * cin_g, ho * wd)

    # (G, O, C, i, j) -> (G, j*Og + o, i*Cg + c)
    w_cols = w.reshape(g, cout_g, cin_g, k, k).transpose(0, 4, 1, 3, 2)
    z = np.matmul(w_cols.reshape(g, k * cout_g, k * cin_g), row_stack())
    z = z.reshape(n, g, k, cout_g, ho, wd)
    out = np.zeros((n, g, cout_g, ho, wo))
    for j, (lo, hi, cols) in enumerate(col_taps):
        out[..., lo:hi] += z[:, :, j, :, :, cols]

    def vjp(d: np.ndarray):
        # dW is the adjoint of the forward: dy shifted to each kernel
        # column's input columns, times the row stack.
        shifted = np.zeros((n, g, k, cout_g, ho, wd))
        dg = d.reshape(n, g, cout_g, ho, wo)
        for j, (lo, hi, cols) in enumerate(col_taps):
            shifted[:, :, j, :, :, cols] = dg[..., lo:hi]
        shifted = shifted.reshape(n, g, k * cout_g, ho * wd)
        dw = np.matmul(shifted, row_stack().transpose(0, 1, 3, 2)).sum(axis=0)
        dw = dw.reshape(g, k, cout_g, k, cin_g).transpose(0, 2, 4, 3, 1).reshape(w.shape)
        # dx is the adjoint too: the weight transposed, times the same
        # shifted dy, gives the row-stack gradient; each row slab's span
        # adds back into the input rows it read.
        dstack = np.matmul(w_cols.reshape(g, k * cout_g, k * cin_g).transpose(0, 2, 1), shifted)
        dstack = dstack.reshape(n, g, k, cin_g, ho, wd)
        dx = np.zeros((n, g, cin_g, h, wd))
        for i, (lo, hi, rows) in enumerate(row_taps):
            dx[:, :, :, rows] += dstack[:, :, i, :, lo:hi]
        return dx.reshape(x.shape), dw

    return out.reshape(n, cout, ho, wo), vjp


def conv2d(x: Tensor, p: Conv2dParams) -> GradPair:
    """Grouped direct convolution; backward yields input/weight/bias grads."""
    if x.c != p.in_channels:
        raise ValueError(f"input has {x.c} channels, expected {p.in_channels}")
    out, vjp = _conv(x.data, p.weight.data, p.groups, p.stride, p.padding)
    if p.bias is not None:
        out = out + p.bias[None, :, None, None]
    out_shape = out.shape

    def backward(dy: np.ndarray):
        if dy.shape != out_shape:
            raise ValueError(f"upstream gradient shape {dy.shape} != {out_shape}")
        dx, dw = vjp(dy)
        grads: ParamGrads = {"weight": dw}
        if p.bias is not None:
            grads["bias"] = dy.sum(axis=(0, 2, 3))
        return dx, grads

    return GradPair(_wrap(out), backward)


def global_avg_pool(x: Tensor) -> GradPair:
    """Spatial mean per channel, shape (N, C, 1, 1)."""
    in_shape = x.shape  # the closure holds the shape, not the input

    def backward(dy: np.ndarray):
        return np.broadcast_to(dy / (in_shape[2] * in_shape[3]), in_shape).copy(), {}

    return GradPair(_wrap(x.data.mean(axis=(2, 3), keepdims=True)), backward)


def linear(x: Tensor, p: LinearParams) -> GradPair:
    """Affine map per sample, from a (N, C, 1, 1) tensor to (N, out, 1, 1);
    the backward takes dy and returns dx in those same shapes."""
    if (x.h, x.w) != (1, 1):
        raise ValueError(f"linear expects (N, C, 1, 1), got {x.shape}")
    if x.c != p.in_features:
        raise ValueError(f"input features {x.c} != {p.in_features}")
    flat = x.data.reshape(x.n, x.c)

    # The backward must use the weight this forward used, even if the
    # parameter is replaced in between.
    weight, has_bias = p.weight, p.bias is not None
    n, out_f = flat.shape[0], weight.shape[0]
    out = flat @ weight.T
    if has_bias:
        out = out + p.bias

    def backward(dy: np.ndarray):
        d2 = dy.reshape(n, out_f)
        grads: ParamGrads = {"weight": d2.T @ flat}
        if has_bias:
            grads["bias"] = d2.sum(axis=0)
        return (d2 @ weight).reshape(x.shape), grads

    return GradPair(_wrap(out.reshape(n, out_f, 1, 1)), backward)


def relu(x: Tensor) -> GradPair:
    y = _wrap(np.maximum(x.data, 0.0))

    def backward(dy: np.ndarray):
        return dy * (y.data > 0), {}

    return GradPair(y, backward)


def _sigmoid(z: np.ndarray) -> np.ndarray:
    # Split by sign to avoid exp overflow either direction.
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def sigmoid(x: Tensor) -> GradPair:
    y = _sigmoid(x.data)

    def backward(dy: np.ndarray):
        return dy * y * (1.0 - y), {}

    return GradPair(_wrap(y), backward)


def softmax_over_scales(z: np.ndarray) -> np.ndarray:
    """Softmax across axis 1 of a (N, S, C', 1, 1) stack of scale logits.

    Computed with max subtraction; per (n, c') position the S outputs are
    positive and sum to 1.
    """
    z = np.asarray(z, dtype=np.float64)
    if z.ndim != 5:
        raise ValueError(f"expected (N, S, C', 1, 1), got shape {z.shape}")
    m = z.max(axis=1, keepdims=True)
    e = np.exp(z - m)
    return e / e.sum(axis=1, keepdims=True)


def _softmax_over_scales_vjp(att: np.ndarray, datt: np.ndarray) -> np.ndarray:
    inner = (att * datt).sum(axis=1, keepdims=True)
    return att * (datt - inner)


def batch_norm(x: Tensor, p: BatchNormParams, training: bool) -> GradPair:
    """Batch normalization over (N, H, W) per channel.

    Training mode normalizes with batch statistics and updates the running
    statistics in place (torch-style: running <- (1-m)*running + m*batch,
    with the unbiased variance feeding the running update). It centres x
    once, out = x - mean, takes the variance from that buffer and finishes
    it in place, out = (x - mean)*scale + beta. Eval runs as one
    per-channel affine pass, out = x*scale + shift.

    Either backward is a per-channel affine map of dy and the centred input
    xc = x - mean, dx = scale*(dy + b*xc + c), whose b and c are zero in
    eval; it builds xc once and overwrites it with dx.
    """
    if x.c != p.gamma.shape[0]:
        raise ValueError(f"input has {x.c} channels, expected {p.gamma.shape[0]}")
    xd = x.data
    axes = (0, 2, 3)
    m = x.n * x.h * x.w

    if training:
        mean = xd.mean(axis=axes)
        out = np.subtract(xd, mean[None, :, None, None])
        var = np.einsum("nchw,nchw->c", out, out) / m
        corr = m / (m - 1) if m > 1 else 1.0
        p.running_mean[:] = (1 - BN_MOMENTUM) * p.running_mean + BN_MOMENTUM * mean
        p.running_var[:] = (1 - BN_MOMENTUM) * p.running_var + BN_MOMENTUM * var * corr
    else:
        # Copies: a later training forward updates the running statistics
        # in place, and this forward's backward must not see that.
        mean = p.running_mean.copy()
        var = p.running_var
        out = np.empty_like(xd)

    inv_std = 1.0 / np.sqrt(var + BN_EPS)
    # The backward uses the scale this forward computed, even if gamma is
    # replaced in between.
    scale = p.gamma * inv_std
    if training:
        out *= scale[None, :, None, None]
        out += p.beta[None, :, None, None]
    else:
        np.multiply(xd, scale[None, :, None, None], out=out)
        out += (p.beta - mean * scale)[None, :, None, None]

    def backward(d: np.ndarray):
        dx = np.subtract(xd, mean[None, :, None, None])  # xc until dgamma is taken
        dbeta = d.sum(axis=axes)
        dgamma = inv_std * np.einsum("nchw,nchw->c", d, dx)
        if training:
            # Batch statistics depend on x, so the Jacobian couples samples:
            # dx = scale*(dy + b*xc + c), b = -inv_std*dgamma/m, c = -dbeta/m.
            # Summing dy*xc, not dy*x - mean*dy, avoids cancellation when
            # mean >> std; overwriting xc keeps the backward to one buffer.
            dx *= (-inv_std * dgamma / m)[None, :, None, None]
            dx += (-dbeta / m)[None, :, None, None]
            dx += d
            dx *= scale[None, :, None, None]
        else:
            np.multiply(d, scale[None, :, None, None], out=dx)
        return dx, {"gamma": dgamma, "beta": dbeta}

    return GradPair(_wrap(out), backward)


def max_pool(x: Tensor, kernel: int = 3, stride: int = 2, padding: int = 1) -> GradPair:
    """Windowed max over the tap spans, read in place; the gradient routes
    to the first maximum in each window, in (row tap, column tap) order.
    Every window holds at least one input exactly when padding < kernel."""
    if padding >= kernel:
        raise ValueError(f"max pool padding {padding} must be less than kernel {kernel}")
    ho = conv_output_size(x.h, kernel, stride, padding)
    wo = conv_output_size(x.w, kernel, stride, padding)
    spans = [
        (np.s_[:, :, r0:r1, c0:c1], np.s_[:, :, rows, cs])
        for r0, r1, rows in _taps(kernel, x.h, ho, stride, padding)
        for c0, c1, cs in _taps(kernel, x.w, wo, stride, padding)
    ]
    out = np.full((x.n, x.c, ho, wo), -np.inf)
    for o, i in spans:
        np.maximum(out[o], x.data[i], out=out[o])

    def backward(dy: np.ndarray):
        dx = np.zeros(x.shape)
        taken = np.zeros(dy.shape, dtype=bool)  # windows an earlier tap took
        for o, i in spans:
            first = x.data[i] == out[o]
            first &= ~taken[o]
            taken[o] |= first
            dx[i] += np.where(first, dy[o], 0.0)
        return dx, {}

    return GradPair(_wrap(out), backward)


def finite_difference_array(
    f: Callable[[np.ndarray], float], a: np.ndarray, epsilon: float = 1e-5
) -> np.ndarray:
    """Central-difference gradient of a scalar function, coordinate by coordinate."""
    base = a.astype(np.float64).copy()
    grad = np.zeros_like(base)
    it = np.nditer(base, flags=["multi_index"])
    while not it.finished:
        ix = it.multi_index
        orig = base[ix]
        base[ix] = orig + epsilon
        fp = f(base)
        base[ix] = orig - epsilon
        fm = f(base)
        base[ix] = orig
        grad[ix] = (fp - fm) / (2.0 * epsilon)
        it.iternext()
    return grad


def max_relative_error(analytic: np.ndarray, numeric: np.ndarray, clamp: float = 1e-8) -> float:
    """Element-wise |a - n| / max(|n|, clamp), reduced with max."""
    if analytic.shape != numeric.shape:
        raise ValueError(f"shape mismatch {analytic.shape} vs {numeric.shape}")
    denom = np.maximum(np.abs(numeric), clamp)
    return float(np.max(np.abs(analytic - numeric) / denom))
