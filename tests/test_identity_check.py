"""tools/identity_check.py against a throwaway git repository whose
`epsakit` package echoes its arguments; no model runs here."""

import importlib.util
import subprocess
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parents[1] / "tools" / "identity_check.py"

FAKE_MAIN = '''
import pathlib, sys
argv = sys.argv[1:]
here = pathlib.Path(__file__).resolve()
side = (here.parents[2] / "SIDE").read_text().strip()
print(" ".join(argv))
print(here, file=sys.stderr)  # a path inside the tree, the same once scrubbed
if argv == ["ablation", "--format", "json"]:
    print(side)
if "--output" in argv:
    out = pathlib.Path(argv[argv.index("--output") + 1])
    if argv[0] == "train-toy":
        out.mkdir()
        (out / "history.csv").write_text("epoch,step\\n")
        if side == "child" and "1e12" in argv:
            (out / "summary.json").write_text("{}\\n")
    else:
        out.write_text(str(pathlib.Path.cwd() / out) + "\\n")  # scrubbed too
sys.exit(3 if "psa" in argv else 0)
'''


def _load_tool():
    spec = importlib.util.spec_from_file_location("identity_check", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _git(repo, *args):
    return subprocess.run(["git", "-c", "user.name=t", "-c", "user.email=t@example.com", *args],
                          cwd=repo, check=True, capture_output=True, text=True).stdout.strip()


@pytest.fixture
def fake_repo(tmp_path, monkeypatch):
    """(repo, parent sha, child sha): two commits that differ only in SIDE."""
    repo = tmp_path / "repo"
    (repo / "src" / "epsakit").mkdir(parents=True)
    (repo / "src" / "epsakit" / "__init__.py").write_text("")
    (repo / "src" / "epsakit" / "__main__.py").write_text(FAKE_MAIN)
    _git(repo, "init", "-q")
    shas = []
    for side in ("parent", "child"):
        (repo / "SIDE").write_text(side + "\n")
        _git(repo, "add", "-A")
        _git(repo, "commit", "-q", "-m", side)
        shas.append(_git(repo, "rev-parse", "HEAD"))
    monkeypatch.chdir(repo)
    return repo, *shas


def test_names_each_entry_that_differs_and_exits_1(fake_repo, capsys):
    repo, parent, child = fake_repo
    tool = _load_tool()
    tool.PROBE = "import epsakit; print(epsakit.__file__)"
    assert tool.main([parent, child]) == 1
    out = capsys.readouterr().out.splitlines()
    assert out == [
        "differs: ablation json: stdout",
        "differs: train-toy diverged: file run/summary.json only in the child",
        f"{len(tool.MANIFEST) - 1} of {len(tool.MANIFEST) + 1} entries identical",
    ]
    assert sorted(p.name for p in repo.iterdir()) == [".git", "SIDE", "src"]


def test_a_revision_against_itself_exits_0(fake_repo, capsys):
    _, parent, _ = fake_repo
    tool = _load_tool()
    tool.MANIFEST = tool.MANIFEST[:2]  # the first test runs them all
    tool.PROBE = "import epsakit; print(epsakit.__file__)"
    assert tool.main([parent, parent]) == 0
    assert capsys.readouterr().out.splitlines() == ["3 of 3 entries identical"]
