"""scripts/setup_pairs.py end to end (one tree against itself, two pairs), and the
tree copies and child runner it shares with the other scripts in scripts/bench_pairs.py."""
import importlib.util
import json
import os
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SCRIPT = ROOT / "scripts" / "setup_pairs.py"


def source_tree(root):
    """A tree holding only the package's sources, so no bytecode."""
    package = root / "src" / "chpricing"
    package.mkdir(parents=True)
    for path in (ROOT / "src" / "chpricing").glob("*.py"):
        shutil.copy(path, package)
    return root


def load_bench_pairs():
    spec = importlib.util.spec_from_file_location(
        "bench_pairs", ROOT / "scripts" / "bench_pairs.py")
    bench_pairs = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench_pairs)
    return bench_pairs


def run_script(*args):
    return subprocess.run([sys.executable, str(SCRIPT), *map(str, args)],
                          capture_output=True, text=True, timeout=120)


def test_two_pairs_of_one_tree(tmp_path):
    tree = source_tree(tmp_path / "tree")
    out = tmp_path / "setup.json"
    done = run_script(tree, tree, "--pairs", "2", "--out", out)
    assert done.returncode == 0, done.stderr
    record = json.loads(out.read_text())
    assert record["runs"] == 2 and record["host"]["bytecode_writes"] == "off"
    for side in ("parent", "changed"):
        samples = record["samples"][side]
        assert [(s["pair"], s["position"]) for s in samples] == \
            ([(0, 0), (1, 1)] if side == "parent" else [(0, 1), (1, 0)])
        for figure in ("wall_s", "cpu_s"):
            assert all(s["metrics"][figure] > 0 for s in samples)
    for figure in ("wall_s", "cpu_s"):
        summary = record["summary"][figure]
        assert summary["changed_wins"] + summary["parent_wins"] <= 2
        assert summary["parent"]["q1"] <= summary["parent"]["median"] <= summary["parent"]["q3"]
    # the children compiled the package from source and wrote no bytecode
    assert not (tree / "src" / "chpricing" / "__pycache__").exists()
    # each tree named by its sources: no .git, so no commit
    source = {"git_commit": None,
              "src_sha256": load_bench_pairs().tree_source(ROOT)["src_sha256"]}
    assert record["sources"] == {"parent": source, "changed": source}


def test_tree_with_bytecode_is_measured_and_left_as_planted(tmp_path):
    # the runs read copies, which hold no bytecode
    tree = source_tree(tmp_path / "tree")
    cache = tree / "src" / "chpricing" / "__pycache__"
    cache.mkdir()
    (cache / "fleet.cpython-0.pyc").write_bytes(b"not bytecode")
    out = tmp_path / "setup.json"
    done = run_script(tree, tree, "--pairs", "2", "--out", out)
    assert done.returncode == 0, done.stderr
    assert json.loads(out.read_text())["trees"] == {"parent": "tree", "changed": "tree"}
    assert [(path.name, path.read_bytes()) for path in cache.iterdir()] == \
        [("fleet.cpython-0.pyc", b"not bytecode")]


def test_copies_sit_at_paths_of_equal_length(tmp_path):
    bench_pairs = load_bench_pairs()
    short, long = (source_tree(tmp_path / name) for name in ("p", "changed_tree"))
    for tree in (short, long):
        (tree / "src" / "chpricing" / "__pycache__").mkdir()
        (tree / ".git").mkdir()
    with bench_pairs.copied_trees(short, long) as trees:
        assert list(trees) == ["parent", "changed"]
        assert len(str(trees["parent"])) == len(str(trees["changed"]))
        for side, tree in trees.items():
            assert sorted(path.name for path in (tree / "src" / "chpricing").iterdir()) == \
                sorted(path.name for path in (ROOT / "src" / "chpricing").glob("*.py"))
            assert not (tree / ".git").exists()
    assert not any(tree.exists() for tree in trees.values())


def test_failing_child_names_its_tree(tmp_path):
    bench_pairs = load_bench_pairs()
    with pytest.raises(SystemExit) as exit_:
        bench_pairs.run_child(tmp_path, "-c", "import sys; sys.exit('no such fleet')")
    message = str(exit_.value.code)
    assert message.startswith(f"{tmp_path}: -c import sys; sys.exit('no such fleet') exited 1:")
    assert message.endswith("no such fleet\n")


def test_children_run_with_bytecode_off(monkeypatch):
    # whatever the caller set, a child compiles and never reads a cache prefix
    bench_pairs = load_bench_pairs()
    monkeypatch.delenv("PYTHONDONTWRITEBYTECODE", raising=False)
    monkeypatch.setenv("PYTHONPYCACHEPREFIX", "/nonexistent")
    env = bench_pairs.child_env(PYTHONPATH="src")
    assert env["PYTHONDONTWRITEBYTECODE"] == "1" and env["PYTHONPATH"] == "src"
    assert "PYTHONPYCACHEPREFIX" not in env
    assert bench_pairs.host()["bytecode_writes"] == "off"
    # glibc's mmap threshold is recorded as the children get it, null when unset
    monkeypatch.delenv("MALLOC_MMAP_THRESHOLD_", raising=False)
    assert bench_pairs.host()["malloc_mmap_threshold"] is None
    monkeypatch.setenv("MALLOC_MMAP_THRESHOLD_", "4194304")
    assert bench_pairs.host()["malloc_mmap_threshold"] == "4194304"
    assert bench_pairs.child_env()["MALLOC_MMAP_THRESHOLD_"] == "4194304"


def test_tree_source_is_what_perfbench_reports():
    bench_pairs = load_bench_pairs()
    code = ("import json, sys; sys.path.insert(0, 'perfbench'); import run; "
            "print(json.dumps(run.environment(0)))")
    stdout, _wall, _cpu = bench_pairs.run_child(ROOT, "-c", code, cwd=ROOT)
    environment = json.loads(stdout)
    assert bench_pairs.tree_source(ROOT) == {
        key: environment[key] for key in ("git_commit", "src_sha256")}


# an __init__.py that starts a grandchild, records both pids and waits
BLOCKING_INIT = """
import os, subprocess, sys, time
sleeper = subprocess.Popen([sys.executable, "-c", "import time; time.sleep(120)"])
pids = os.environ["BLOCKING_PIDS"]
with open(pids + ".part", "w") as handle:
    handle.write(f"{os.getpid()} {sleeper.pid}")
os.rename(pids + ".part", pids)
time.sleep(120)
"""


def running(pid):
    """Whether the process exists and is not a zombie waiting to be reaped."""
    try:
        stat = Path(f"/proc/{pid}/stat").read_text()
    except FileNotFoundError:
        return False
    return stat.rsplit(")", 1)[1].split()[0] != "Z"


@pytest.mark.skipif(not Path("/proc/self/stat").is_file(), reason="reads /proc/<pid>/stat")
def test_sigterm_ends_the_children_and_removes_the_copies(tmp_path):
    tree = tmp_path / "tree"
    (tree / "src" / "chpricing").mkdir(parents=True)
    (tree / "src" / "chpricing" / "__init__.py").write_text(BLOCKING_INIT)
    temp, pids_file = tmp_path / "tmp", tmp_path / "pids"
    temp.mkdir()
    tool = subprocess.Popen(
        [sys.executable, str(SCRIPT), tree, tree, "--pairs", "2", "--out", tmp_path / "out"],
        env=dict(os.environ, TMPDIR=str(temp), BLOCKING_PIDS=str(pids_file)),
        stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True)
    pids = []
    try:
        deadline = time.monotonic() + 60
        while not pids_file.exists():
            if tool.poll() is not None:
                pytest.fail(f"exited {tool.returncode} first: {tool.stderr.read()}")
            assert time.monotonic() < deadline, "no child started within 60 s"
            time.sleep(0.05)
        pids = [int(pid) for pid in pids_file.read_text().split()]
        assert list(temp.iterdir()) and all(running(pid) for pid in pids)
        tool.send_signal(signal.SIGTERM)
        assert tool.wait(timeout=30) == 128 + signal.SIGTERM
        assert list(temp.iterdir()) == []
        assert not any(running(pid) for pid in pids)
    finally:
        for pid in pids:
            if running(pid):
                os.kill(pid, signal.SIGKILL)
        tool.kill()
        tool.wait()
        tool.stderr.close()
