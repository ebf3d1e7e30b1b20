"""Tests for the benchmark's tracer, output checks and wrapper removal.

    python3 -m pytest perfbench/tests -q
"""

import json
import shutil
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import run
import tracer as tr
import workloads
from epsakit import models, ops, psa, tensor, training

BENCH = Path(__file__).resolve().parents[1]


def _span(name, phase, start, end, parent=None, step=0, macs=0):
    s = tr.Span(name, phase, parent, step, macs)
    s.start, s.end = start, end
    return s


def _patched_attrs():
    """Every attribute the tracer replaces, mapped to its current value."""
    names = [(ops, "conv2d"), (psa, "conv2d"), (psa, "_se_weight_grad"), (models, "psa_with_grad"),
             (models.Network, "apply"), (models.Network, "params"), (models.Network, "set_param"),
             (training, "label_smoothed_ce"), (training, "sgd_step"), (tensor.Tensor, "__init__")]
    names += [(ops, op) for op in tr.SIMPLE_OPS] + [(psa, "relu"), (psa, "linear")]
    return {(owner, attr): vars(owner)[attr] for owner, attr in names}


@pytest.fixture(scope="module")
def toy_trace():
    """Spans of two traced train_toy steps, the last under tracemalloc."""
    w = workloads.make("train_toy", 3)
    w.prepare()
    before = _patched_attrs()
    t = tr.Tracer()
    t.install()
    try:
        t.step = 0
        w.step()
        timed = t.spans
        t.spans, t.memory = [], True
        t.step = 1
        tracemalloc.start()
        try:
            w.step()
        finally:
            tracemalloc.stop()
        mem = t.spans
    finally:
        left = t.uninstall()
    return {"w": w, "timed": timed, "mem": mem, "left": left, "before": before, "tracer": t}


def test_self_time_subtracts_children():
    spans = [_span("root", "fwd", 0.0, 1.0), _span("a", "fwd", 0.1, 0.3, parent=0),
             _span("b", "fwd", 0.4, 0.9, parent=0), _span("c", "fwd", 0.5, 0.6, parent=2)]
    own = tr.self_ms(spans)
    assert own == pytest.approx([300.0, 200.0, 400.0, 100.0])


def test_spans_nest_and_cover_backward(toy_trace):
    spans = toy_trace["timed"]
    assert all(s.end >= s.start for s in spans)
    for s in spans:
        if s.parent is not None:
            p = spans[s.parent]
            assert p.start <= s.start and s.end <= p.end
    phases = {(s.name, s.phase) for s in spans}
    assert ("models.Network.apply", "bwd") in phases
    assert ("ops.conv2d.k9g16", "bwd") in phases
    assert ("psa.psa_with_grad", "bwd") in phases
    psa_children = {spans[s.parent].name for s in spans if s.name.startswith("ops.conv2d.k5")}
    assert psa_children == {"psa.psa_with_grad"}


def test_conv_macs_match_ledger(toy_trace):
    w = toy_trace["w"]
    ledger = tr.ledger_conv_macs(w.model.net, w.input_shape)
    m = tr.aggregate(toy_trace["timed"], 1, toy_trace["mem"], ledger)
    assert m["trace.conv_macs_ratio"] == 1
    assert m["ops.conv2d.k9g8.fwd_ms"] > 0 and m["ops.conv2d.k9g8.bwd_ms"] > 0
    assert m["ops.conv2d.k9g8.retained_mb"] > 0
    assert m["psa.psa_with_grad.peak_mb"] >= m["ops.conv2d.k9g8.peak_mb"] > 0
    assert m["training.sgd_step.ms"] > 0


def test_wrappers_removed(toy_trace):
    assert toy_trace["left"] == []
    assert _patched_attrs() == toy_trace["before"]
    t, w = toy_trace["tracer"], toy_trace["w"]
    t.spans, count = [], t.tensors
    w.step()
    assert t.spans == [] and t.tensors == count


def test_train_toy_losses_match_training_loop():
    w = workloads.make("train_toy", 11)
    for _ in range(3):
        w.prepare()
        assert w.check(w.step())


def test_output_checks_tolerance():
    ref = np.array([2.0, -4.0, 1.0])
    assert workloads.logits_match(ref + 3e-9, ref)
    assert not workloads.logits_match(ref + 5e-9, ref)
    assert not workloads.logits_match(np.array([2.0, np.nan, 1.0]), ref)
    assert not workloads.logits_match(ref[:2], ref)
    assert workloads.loss_matches(1.0 + 5e-10, 1.0)
    assert not workloads.loss_matches(1.0 + 2e-9, 1.0)
    assert not workloads.loss_matches(float("nan"), 1.0)


def test_broken_model_fails_check():
    w = workloads.make("train_toy", 3)
    w.prepare()
    name = "stem.conv.weight"
    w.model.net.set_param(name, w.model.net.params()[name] + 1e-3)
    assert not w.check(w.step())


def test_refuses_directory_without_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "train_toy", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_declared_metrics_match_reported(toy_trace):
    declared = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    m = tr.aggregate(toy_trace["timed"], 1, toy_trace["mem"], 1)
    names = set(m) | {"tensor.Tensor.count", "trace.overhead_pct"}
    assert names == {d["name"] for d in declared["per_layer"]}
    units = {d["name"]: d["unit"] for d in declared["end_to_end"]}
    assert units == run.END_TO_END_UNITS


def test_end_to_end_pools_steps_of_all_processes():
    procs = [{"setup_s": s, "step_ms": steps, "batch": 2, "peak_rss_mb": 100.0 + s}
             for s, steps in ((0.1, [10.0, 30.0]), (0.3, [20.0]), (0.2, [40.0, 50.0]))]
    m = run.end_to_end(procs)
    assert m["setup_s"] == 0.2 and m["peak_rss_mb"] == 100.2
    assert m["step_ms_p50"] == 30.0
    assert m["images_per_s"] == pytest.approx(2 * 5 / 0.150)
