"""Outside-in span tracer for the traced benchmark run.

`Tracer.install()` replaces the module and class attributes that callers
actually look up with wrappers that record a span {name, start, end,
parent} per call, and wraps every returned backward closure so backward
passes get spans of their own. `Tracer.uninstall()` puts every original
back and reports any attribute it could not restore. Spans stay in memory;
`aggregate()` turns them into the per-layer metrics and `dump()` writes
them out at the end of the run.

With `memory = True` each span also records, from tracemalloc, the peak
bytes allocated while it was open and the bytes still held when it closed.
"""

from __future__ import annotations

import json
import re
import time
import tracemalloc

from epsakit import models, ops, psa, tensor, training

CONV_KINDS = ("k1g1", "k3g1", "k7g1", "k5g4", "k7g8", "k9g8", "k9g16")
SIMPLE_OPS = ("batch_norm", "relu", "max_pool", "linear")

# Ledger rows that come from a convolution: Conv layers and PSA branches.
_CONV_ROW = re.compile(r"(^|\.)(conv\d*|branch\d+)$")

MB = 1024.0 * 1024.0


class Span:
    __slots__ = ("name", "phase", "start", "end", "parent", "step", "macs", "mem0", "peak", "retained")

    def __init__(self, name, phase, parent, step, macs):
        self.name = name
        self.phase = phase
        self.parent = parent
        self.step = step
        self.macs = macs
        self.peak = self.retained = 0
        self.start = time.perf_counter()
        self.end = None

    @property
    def ms(self) -> float:
        return (self.end - self.start) * 1e3


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.stack: list[int] = []
        self.tensors = 0
        self.step: int | None = None  # set by the runner around each step
        self.memory = False
        self._patches: list[tuple[object, str, object]] = []

    # -- spans ---------------------------------------------------------

    def begin(self, name: str, phase: str, macs: int = 0) -> Span:
        parent = self.stack[-1] if self.stack else None
        span = Span(name, phase, parent, self.step, macs)
        if self.memory:
            cur, peak = tracemalloc.get_traced_memory()
            for i in self.stack:
                self.spans[i].peak = max(self.spans[i].peak, peak)
            tracemalloc.reset_peak()
            span.mem0 = span.peak = cur
        self.stack.append(len(self.spans))
        self.spans.append(span)
        return span

    def end(self, span: Span) -> None:
        if self.memory:
            cur, peak = tracemalloc.get_traced_memory()
            for i in self.stack:
                self.spans[i].peak = max(self.spans[i].peak, peak)
            span.retained = cur - span.mem0
            span.peak -= span.mem0
        self.stack.pop()
        span.end = time.perf_counter()

    # -- wrappers ------------------------------------------------------

    def _timed(self, name, fn):
        def wrapper(*args, **kwargs):
            span = self.begin(name, "call")
            try:
                return fn(*args, **kwargs)
            finally:
                self.end(span)

        return wrapper

    def _traced_vjp(self, name, vjp):
        def backward(dy):
            span = self.begin(name, "bwd")
            try:
                return vjp(dy)
            finally:
                self.end(span)

        return backward

    def _grad_op(self, name, fn):
        """Wrap an op returning a GradPair: forward span, then backward span."""

        def wrapper(*args, **kwargs):
            span = self.begin(name, "fwd")
            try:
                gp = fn(*args, **kwargs)
            finally:
                self.end(span)
            gp.backward = self._traced_vjp(name, gp.backward)
            return gp

        return wrapper

    def _conv(self, fn):
        def conv2d(x, p):
            name = f"ops.conv2d.k{p.kernel}g{p.groups}"
            span = self.begin(name, "fwd")
            try:
                gp = fn(x, p)
            finally:
                self.end(span)
            n, cout, ho, wo = gp.output.shape
            span.macs = n * cout * ho * wo * (p.in_channels // p.groups) * p.kernel * p.kernel
            gp.backward = self._traced_vjp(name, gp.backward)
            return gp

        return conv2d

    def _network_apply(self, fn):
        def apply(net, x, training=False):
            span = self.begin("models.Network.apply", "fwd")
            try:
                logits, vjp = fn(net, x, training)
            finally:
                self.end(span)
            return logits, self._traced_vjp("models.Network.apply", vjp)

        return apply

    def _tensor_init(self, fn):
        def __init__(t, *args, **kwargs):
            self.tensors += 1
            fn(t, *args, **kwargs)

        return __init__

    def _patch(self, owner, attr, wrapper) -> None:
        original = vars(owner)[attr]
        self._patches.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def install(self) -> None:
        """Wrap every call site the workloads reach; see README for the list."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        conv = self._conv(ops.conv2d)
        for owner in (ops, psa):
            self._patch(owner, "conv2d", conv)
        for op in SIMPLE_OPS:
            wrapper = self._grad_op(f"ops.{op}", vars(ops)[op])
            self._patch(ops, op, wrapper)
            if op in vars(psa):
                self._patch(psa, op, wrapper)
        self._patch(psa, "_se_weight_grad", self._grad_op("psa.se_weight", psa._se_weight_grad))
        self._patch(models, "psa_with_grad", self._grad_op("psa.psa_with_grad", psa.psa_with_grad))
        self._patch(models.Network, "apply", self._network_apply(models.Network.apply))
        for attr in ("params", "set_param"):
            self._patch(models.Network, attr, self._timed(f"models.Network.{attr}", vars(models.Network)[attr]))
        for fn in ("label_smoothed_ce", "sgd_step"):
            self._patch(training, fn, self._timed(f"training.{fn}", vars(training)[fn]))
        self._patch(tensor.Tensor, "__init__", self._tensor_init(tensor.Tensor.__init__))

    def uninstall(self) -> list[str]:
        """Restore every original; return the attributes left wrapped."""
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        left = [
            f"{getattr(owner, '__name__', owner)}.{attr}"
            for owner, attr, original in self._patches
            if vars(owner)[attr] is not original
        ]
        self._patches = []
        return left

def dump(path, passes: dict[str, list[Span]]) -> None:
    """Write each pass's spans as JSON rows; `parent` indexes its own pass."""
    out = {
        name: [{"name": s.name, "phase": s.phase, "start": s.start, "end": s.end,
                "parent": s.parent, "step": s.step, "macs": s.macs,
                "peak_bytes": s.peak, "retained_bytes": s.retained} for s in spans]
        for name, spans in passes.items()
    }
    with open(path, "w") as fh:
        json.dump(out, fh)


def self_ms(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part its child spans cover.

    Children of one span run one after another, so their durations add.
    """
    child = [0.0] * len(spans)
    for s in spans:
        if s.parent is not None:
            child[s.parent] += s.ms
    return [s.ms - c for s, c in zip(spans, child)]


def ledger_conv_macs(net, input_shape) -> int:
    """Conv MACs of one forward from `Network.complexity`."""
    _, rows = net.complexity(tuple(input_shape))
    return sum(r.flops for r in rows if _CONV_ROW.search(r.name))


def aggregate(timed: list[Span], steps: int, mem: list[Span], ledger_macs: int) -> dict[str, float]:
    """Per-layer metrics, per step, from spans of `steps` traced steps.

    `timed` and `mem` hold spans of the timing pass and of one memory
    pass; spans recorded outside a step (step is None) are left out.
    """
    metrics: dict[str, float] = {}
    own = self_ms(timed)
    fwd: dict[str, float] = {}
    bwd: dict[str, float] = {}
    self_fwd: dict[str, float] = {}
    self_bwd: dict[str, float] = {}
    calls: dict[str, float] = {}
    macs: dict[str, int] = {}
    for s, s_own in zip(timed, own):
        if s.step is None:
            continue
        if s.phase == "bwd":
            bwd[s.name] = bwd.get(s.name, 0.0) + s.ms
            self_bwd[s.name] = self_bwd.get(s.name, 0.0) + s_own
        elif s.phase == "fwd":
            fwd[s.name] = fwd.get(s.name, 0.0) + s.ms
            self_fwd[s.name] = self_fwd.get(s.name, 0.0) + s_own
            macs[s.name] = macs.get(s.name, 0) + s.macs
        else:
            calls[s.name] = calls.get(s.name, 0.0) + s.ms
    peak: dict[str, int] = {}
    retained: dict[str, int] = {}
    for s in mem:
        if s.step is None:
            continue
        peak[s.name] = max(peak.get(s.name, 0), s.peak)
        if s.phase == "fwd":
            retained[s.name] = retained.get(s.name, 0) + s.retained

    def per_step(table, name):
        return table.get(name, 0.0) / steps

    for kind in CONV_KINDS:
        name = f"ops.conv2d.{kind}"
        metrics[f"{name}.fwd_ms"] = per_step(fwd, name)
        metrics[f"{name}.bwd_ms"] = per_step(bwd, name)
        seconds = fwd.get(name, 0.0) / 1e3
        metrics[f"{name}.gmacs_per_s"] = macs.get(name, 0) / seconds / 1e9 if seconds else 0.0
        metrics[f"{name}.peak_mb"] = peak.get(name, 0) / MB
        metrics[f"{name}.retained_mb"] = retained.get(name, 0) / MB
    for op in SIMPLE_OPS:
        metrics[f"ops.{op}.fwd_ms"] = per_step(fwd, f"ops.{op}")
        metrics[f"ops.{op}.bwd_ms"] = per_step(bwd, f"ops.{op}")
    for name in ("psa.psa_with_grad", "psa.se_weight", "models.Network.apply"):
        metrics[f"{name}.fwd_ms"] = per_step(fwd, name)
        metrics[f"{name}.bwd_ms"] = per_step(bwd, name)
    for name in ("psa.psa_with_grad", "models.Network.apply"):
        metrics[f"{name}.self_fwd_ms"] = per_step(self_fwd, name)
        metrics[f"{name}.self_bwd_ms"] = per_step(self_bwd, name)
    metrics["psa.psa_with_grad.peak_mb"] = peak.get("psa.psa_with_grad", 0) / MB
    for name in ("models.Network.params", "models.Network.set_param",
                 "training.label_smoothed_ce", "training.sgd_step"):
        metrics[f"{name}.ms"] = per_step(calls, name)
    conv_macs = sum(v for k, v in macs.items() if k.startswith("ops.conv2d.")) / steps
    metrics["trace.conv_macs_ratio"] = conv_macs / ledger_macs
    return metrics
