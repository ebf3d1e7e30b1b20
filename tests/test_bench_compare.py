"""tools/bench_compare.py against a throwaway git repository whose
`perfbench/run.py` prints fixed lines; no real benchmark runs here."""

import importlib.util
import json
import subprocess
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parents[1] / "tools" / "bench_compare.py"

FAKE_RUN = '''
import argparse, json, os, pathlib
ap = argparse.ArgumentParser()
for flag in ("--workload", "--seed", "--seconds", "--trace"):
    ap.add_argument(flag)
a = ap.parse_args()
side = pathlib.Path("SIDE").read_text().strip()
with open(os.environ["FAKE_BENCH_LOG"], "a") as log:
    log.write(f"{a.workload} {a.seed} {side} {a.seconds} {a.trace}\\n")
step = {"parent": 100.0, "child": 90.0}[side] + int(a.seed)
rss = {"parent": 50.0, "child": 50.0}[side]
rate = 1000.0 / step
bad = pathlib.Path("BAD").is_file() and a.workload == "eval_resnet50"
print(f"perfbench {a.workload} seed={a.seed}")
print("context: " + json.dumps({"blas": "fakeblas 1.0", "blas_threads": 2, "numpy": "9.9",
                                "nproc": 2, "load_start": 0.5, "load_end": 1.5,
                                "steal_pct": 0.25, "contended": False}))
metrics = {"step_ms_p50": {"value": step, "unit": "ms"},
           "peak_rss_mb": {"value": rss, "unit": "MB"},
           "images_per_s": {"value": rate, "unit": "img/s"}}
print(json.dumps({"correct": not bad, "attempted": 4, "failed": 0, "metrics": metrics}))
'''


def _load_tool():
    spec = importlib.util.spec_from_file_location("bench_compare", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _git(repo, *args):
    return subprocess.run(["git", "-c", "user.name=t", "-c", "user.email=t@example.com", *args],
                          cwd=repo, check=True, capture_output=True, text=True).stdout.strip()


@pytest.fixture
def fake_repo(tmp_path, monkeypatch):
    """(repo, parent sha, child sha): two commits that differ only in SIDE
    and in their src/epsakit/*.py, 3 + 2 lines in the parent, 3 + 4 in the child."""
    repo = tmp_path / "repo"
    (repo / "perfbench").mkdir(parents=True)
    (repo / "perfbench" / "run.py").write_text(FAKE_RUN)
    (repo / "src" / "epsakit").mkdir(parents=True)
    (repo / "src" / "epsakit" / "a.py").write_text("x = 1\ny = 2\nz = 3\n")
    (repo / "src" / "epsakit" / "notes.txt").write_text("not counted\n")
    _git(repo, "init", "-q")
    shas = []
    for side, extra in (("parent", 2), ("child", 4)):
        (repo / "SIDE").write_text(side + "\n")
        (repo / "src" / "epsakit" / "b.py").write_text("pass\n" * extra)
        _git(repo, "add", "-A")
        _git(repo, "commit", "-q", "-m", side)
        shas.append(_git(repo, "rev-parse", "HEAD"))
    monkeypatch.chdir(repo)
    monkeypatch.setenv("FAKE_BENCH_LOG", str(tmp_path / "calls.log"))
    return repo, *shas


def test_writes_medians_wins_and_raw_values(fake_repo, tmp_path):
    repo, parent, child = fake_repo
    tool = _load_tool()
    code = tool.main([parent, child, "--number", "7", "--workloads", "train_toy", "eval_resnet50",
                      "--pairs", "3", "--seconds", "2"])
    assert code == 0
    report = json.loads((repo / "BENCH_7.json").read_text())
    assert (report["parent_sha"], report["child_sha"]) == (parent, child)
    assert report["workloads"] == ["train_toy", "eval_resnet50"]
    assert report["pairs"] == 3 and report["failed_runs"] == []
    assert report["src_lines"] == {"parent": 5, "child": 7}
    assert report["host"]["nproc"] == [2] and report["host"]["blas"] == ["fakeblas 1.0"]
    assert (report["host"]["load_min"], report["host"]["load_max"]) == (0.5, 1.5)
    assert report["host"]["steal_pct_max"] == 0.25

    step = report["results"]["train_toy"]["metrics"]["step_ms_p50"]
    assert step["parent"] == [101.0, 102.0, 103.0] and step["child"] == [91.0, 92.0, 93.0]
    assert (step["parent_median"], step["child_median"]) == (102.0, 92.0)
    assert step["parent_iqr"] == pytest.approx(1.0)
    assert (step["child_won"], step["parent_won"], step["ties"]) == (3, 0, 0)
    assert step["outside_parent_iqr"] is True
    rate = report["results"]["train_toy"]["metrics"]["images_per_s"]
    assert rate["better"] == "higher" and rate["child_won"] == 3
    rss = report["results"]["eval_resnet50"]["metrics"]["peak_rss_mb"]
    assert (rss["child_won"], rss["parent_won"], rss["ties"]) == (0, 0, 3)
    assert rss["outside_parent_iqr"] is False

    calls = (tmp_path / "calls.log").read_text().split("\n")[:-1]
    firsts = [line.split()[2] for line in calls[::2]]
    assert firsts == ["parent", "parent", "child", "child", "parent", "parent"]
    assert all(line.endswith(" 2 0") for line in calls)
    assert [line.split()[1] for line in calls] == ["1"] * 4 + ["2"] * 4 + ["3"] * 4


def test_marks_an_incorrect_run_and_exits_non_zero(fake_repo):
    repo, parent, _ = fake_repo
    (repo / "BAD").write_text("")
    _git(repo, "add", "-A")
    _git(repo, "commit", "-q", "-m", "bad")
    code = _load_tool().main([parent, "HEAD", "--number", "8", "--workloads", "eval_resnet50",
                              "train_toy", "--pairs", "2", "--seconds", "1"])
    assert code == 1
    report = json.loads((repo / "BENCH_8.json").read_text())
    assert report["failed_runs"] == [{"workload": "eval_resnet50", "seed": s, "side": "child"}
                                     for s in (1, 2)]
    run = report["results"]["eval_resnet50"]["runs"][0]
    assert run["child"]["ok"] is False and run["child"]["correct"] is False
    assert run["parent"]["ok"] is True
    assert report["results"]["eval_resnet50"]["metrics"] == {}
    assert report["results"]["train_toy"]["metrics"]["step_ms_p50"]["pairs"] == 2


def test_a_run_without_a_result_is_not_ok():
    tool = _load_tool()
    assert tool.parse_run("Traceback ...\n", 1)["ok"] is False
    failed = json.dumps({"correct": True, "attempted": 4, "failed": 1, "metrics": {}})
    assert tool.parse_run(failed + "\n", 0)["ok"] is False
