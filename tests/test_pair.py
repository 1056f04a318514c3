"""Self-test of tools/pair.py on stubs: each benchmark run prints one
result line, and each --identity case runs a stub ``edaem.cli`` that writes
a small trace, so no real benchmark or run happens here."""

from __future__ import annotations

import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

_spec = importlib.util.spec_from_file_location(
    "pair_tool", Path(__file__).resolve().parent.parent / "tools" / "pair.py"
)
pair_tool = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(pair_tool)

STUB = '''\
import json, sys
from pathlib import Path
seed = int(sys.argv[sys.argv.index("--seed") + 1])
scale = float(Path("scale.txt").read_text())
with open(Path.cwd().parent / "calls.log", "a") as fh:
    fh.write(Path.cwd().name + "\\n")
print("# stub machine")
print(json.dumps({"correct": True, "attempted": 3, "failed": 0, "metrics": {
    "run_s": {"value": scale * (1.0 + seed % 3), "unit": "s"},
    "success_rate": {"value": 100.0, "unit": "%"}}}))
'''

SPEC = {
    "command": [sys.executable, "stub.py"],
    "run_seconds": 1,
    "workloads": [{"name": "a"}, {"name": "b"}],
    "end_to_end": [
        {"name": "run_s", "unit": "s", "better": "lower", "bound": 0.25},
        {"name": "success_rate", "unit": "%", "better": "higher", "bound": 0.01},
    ],
}


def _tree(path: Path, scale: float) -> Path:
    path.mkdir()
    (path / "BENCHMARK.json").write_text(json.dumps(SPEC))
    (path / "stub.py").write_text(STUB)
    (path / "scale.txt").write_text(str(scale))
    return path


def test_pairs_alternate_and_a_faster_change_wins(tmp_path):
    parent, change = _tree(tmp_path / "parent", 1.0), _tree(tmp_path / "change", 0.5)
    rec = pair_tool.pair(parent, change, [1, 2, 3, 4], None, log=lambda s: None)
    assert rec["machine"] == ["# stub machine"] and "--seconds 1 " in rec["command"]
    assert rec["workloads"]["a"]["first_in_pair"] == ["parent", "change"] * 2
    assert rec["workloads"]["b"]["first_in_pair"] == ["change", "parent"] * 2
    # Pair 1 runs a parent first and b change first, pair 2 the reverse.
    pairs_1_2 = ["parent", "change", "change", "parent", "change", "parent", "parent", "change"]
    assert (tmp_path / "calls.log").read_text().split() == pairs_1_2 * 2
    a = rec["workloads"]["a"]
    assert a["operations_failed"] == {"parent": "0/12", "change": "0/12"}
    run_s = a["metrics"]["run_s"]
    assert run_s["parent"]["runs"] == [2.0, 3.0, 1.0, 2.0]
    assert run_s["ratios"] == [0.5] * 4
    assert (run_s["wins"], run_s["losses"], run_s["ties"]) == (4, 0, 0)
    assert run_s["sign_test_p"] == 2.0 / 16
    assert run_s["median_change_rel"] == -0.5
    assert run_s["gain_rule_met"]  # 4 of 4 wins, and the gap 1.0 exceeds the IQR 0.5
    rate = a["metrics"]["success_rate"]
    assert (rate["ties"], rate["sign_test_p"], rate["verdict"]) == (4, 1.0, "within bound")


def test_compare_verdicts_and_the_gain_rule():
    metric = {"unit": "ms", "better": "lower", "bound": 0.25}
    tight = pair_tool.compare(metric, [10.0] * 10, [8.0] * 10)
    assert tight["gain_rule_met"] and tight["verdict"] == "within bound"
    assert tight["sign_test_p"] == 2.0 / 2**10
    nine = pair_tool.compare(metric, [10.0] * 10, [8.0] * 9 + [10.0])
    assert nine["gain_rule_met"] and nine["ties"] == 1
    eight = pair_tool.compare(metric, [10.0] * 10, [8.0] * 8 + [11.0] * 2)
    assert not eight["gain_rule_met"]
    assert pair_tool.compare(metric, [10.0] * 10, [13.0] * 10)["verdict"] == "worse than the bound"
    wide = [5.0, 5.0, 5.0, 10.0, 10.0, 10.0, 10.0, 15.0, 15.0, 15.0]
    assert pair_tool.compare(metric, wide, wide)["verdict"].startswith("unresolved")
    assert "every change run reads better" in pair_tool.compare(metric, wide, [4.0] * 10)["verdict"]


def test_aa_pairs_two_exports_of_the_parent(tmp_path, monkeypatch):
    repo = _tree(tmp_path / "repo", 1.0)
    git = ["git", "-c", "user.name=t", "-c", "user.email=t@t", "-c", "commit.gpgsign=false"]
    for cmd in (["init", "-q"], ["add", "-A"], ["commit", "-q", "-m", "stub"]):
        subprocess.run(git + cmd, cwd=repo, check=True)
    (repo / "scale.txt").write_text("0.5")  # uncommitted: --aa must not read it
    monkeypatch.setattr(pair_tool, "REPO", repo)
    out = tmp_path / "aa.json"
    assert pair_tool.main(["--parent", "HEAD", "--aa", "--pairs", "3", "--workload", "a",
                           "--claim", "a:run_s", "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert list(doc["workloads"]) == ["a"] and doc["seeds"] == [1, 2, 3]
    run_s = doc["workloads"]["a"]["metrics"]["run_s"]
    assert run_s["ratios"] == [1.0] * 3 and run_s["ties"] == 3
    assert doc["claim"] == {"metric": "run_s", "workload": "a", "wins": 0, "pairs": 3,
                            "parent_iqr": 1.0, "median_gap": 0.0, "met": False}
    assert not (tmp_path / "calls.log").exists()  # no run in the working tree


def test_a_failing_run_stops_the_pairing(tmp_path):
    parent, change = _tree(tmp_path / "parent", 1.0), _tree(tmp_path / "change", 1.0)
    (change / "stub.py").write_text("import sys; sys.exit(3)\n")
    with pytest.raises(RuntimeError, match="exited 3"):
        pair_tool.pair(parent, change, [1], ["a"], log=lambda s: None)


NODE_STUB = """\
def test_ok():
    pass
"""


def test_pytest_node_pairs_alternate(tmp_path, monkeypatch):
    calls = []

    def fake_run(tree, node):  # parent runs take 2 s, change runs 1 s
        calls.append((tree.name, node))
        return 2.0 if tree.name == "parent" else 1.0

    monkeypatch.setattr(pair_tool, "pytest_once", fake_run)
    trees = [tmp_path / "parent", tmp_path / "change"]
    rec = pair_tool.pair_pytest(*trees, "t.py::test_ok", 3, log=lambda s: None)
    assert rec["pairs"] == 3 and rec["first_in_pair"] == ["parent", "change", "parent"]
    order = ["parent", "change", "change", "parent", "parent", "change"]
    assert calls == [(name, "t.py::test_ok") for name in order]
    wall = rec["metrics"]["wall_s"]
    assert wall["unit"] == "s" and wall["parent"]["runs"] == [2.0] * 3
    assert (wall["wins"], wall["losses"], wall["ratios"]) == (3, 0, [0.5] * 3)


def test_pytest_mode_runs_the_node_in_each_tree(tmp_path, monkeypatch):
    repo = tmp_path / "repo"
    repo.mkdir()
    (repo / "test_node.py").write_text(NODE_STUB)
    git = ["git", "-c", "user.name=t", "-c", "user.email=t@t", "-c", "commit.gpgsign=false"]
    for cmd in (["init", "-q"], ["add", "-A"], ["commit", "-q", "-m", "stub"]):
        subprocess.run(git + cmd, cwd=repo, check=True)
    monkeypatch.setattr(pair_tool, "REPO", repo)
    out = tmp_path / "node.json"
    argv = ["--parent", "HEAD", "--pairs", "1", "--pytest", "test_node.py::test_ok"]
    assert pair_tool.main(argv + ["--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["command"].endswith(" test_node.py::test_ok") and doc["seeds"] == []
    wall = doc["pytest"]["test_node.py::test_ok"]["metrics"]["wall_s"]
    assert wall["parent"]["runs"][0] > 0 and wall["change"]["runs"][0] > 0
    with pytest.raises(SystemExit):
        pair_tool.main(argv + ["--claim", "a:wall_s", "--out", str(out)])
    (repo / "test_node.py").write_text("def test_ok():\n    assert False\n")
    with pytest.raises(RuntimeError, match="exited 1"):
        pair_tool.pytest_once(repo, "test_node.py::test_ok")


CLI_STUB = '''\
import json, sys
from pathlib import Path
fe = (Path(__file__).parent / "fe.txt").read_text().strip()
if sys.argv[1] == "diagnose":
    Path("diagnostics.json").write_text(json.dumps([{"check_name": "c", "values": [0.0]}]))
    print("1/1 checks passed")
else:
    seed = json.loads(Path("config.json").read_text())["seed"]
    Path("trace.csv").write_text(f"iter,best_raw_f,free_energy_estimate\\n0,1.0,{fe}\\n1,2.0,0.5\\n")
    Path("summary.json").write_text(json.dumps({"seed": seed, "free_energy_map": [1.0, 2.0]}))
    print("wrote trace.csv")
'''


def _package_tree(path: Path, fe: float) -> Path:
    """A tree whose ``edaem.cli`` writes ``fe`` into one trace.csv cell."""
    pkg = path / "src" / "edaem"
    pkg.mkdir(parents=True)
    (pkg / "__init__.py").write_text("")
    (pkg / "cli.py").write_text(CLI_STUB)
    (pkg / "fe.txt").write_text(repr(fe))
    return path


def test_identity_names_the_column_of_a_one_ulp_change(tmp_path):
    ulp_up = float(np.nextafter(0.1, 1.0))
    parent = _package_tree(tmp_path / "parent", 0.1)
    change = _package_tree(tmp_path / "change", ulp_up)
    runs = {"r": {"seed": 0}, "diagnose": None}
    rec = pair_tool.identity(parent, change, runs, set(), tmp_path / "work", log=lambda s: None)
    assert rec["unexpected"] == ["r/trace.csv:free_energy_estimate"]
    fe = rec["runs"]["r"]["trace.csv"]["free_energy_estimate"]
    assert fe == {"entries": 1, "max_abs": ulp_up - 0.1, "max_rel": (ulp_up - 0.1) / ulp_up,
                  "non_numeric": 0, "expected": False}
    others = {(run, out) for run, outs in rec["runs"].items() for out, f in outs.items() if f}
    assert others == {("r", "trace.csv")}
    assert set(rec["runs"]["r"]) == {"exit", "stdout", "stderr", "trace.csv", "summary.json"}
    expected = {"trace.csv:free_energy_estimate"}
    rec = pair_tool.identity(parent, change, runs, expected, tmp_path / "again", log=lambda s: None)
    assert rec["unexpected"] == [] and rec["runs"]["r"]["trace.csv"]["free_energy_estimate"]["expected"]


def test_identity_fields_group_scalar_lists_and_flag_what_is_not_a_number():
    a = json.dumps({"final": {"params": [0.5, 0.25]}, "free_energy_map": [1.0, 2.0], "k": "x"})
    b = json.dumps({"final": {"params": [0.5, 0.25]}, "free_energy_map": [1.5, 2.0, 3.0], "k": "y"})
    diff = pair_tool.diff_output("summary.json", a, b)
    assert diff == {
        "free_energy_map": {"entries": 2, "max_abs": 0.5, "max_rel": 0.5 / 1.5, "non_numeric": 1},
        "k": {"entries": 1, "max_abs": None, "max_rel": None, "non_numeric": 1},
    }
    assert pair_tool.diff_output("stdout", "same\n", "same\n") == {}
    assert list(pair_tool.diff_output("exit", "0", "3")) == ["exit"]


def test_identity_mode_exits_one_on_an_unexpected_difference(tmp_path, monkeypatch):
    repo = _package_tree(tmp_path / "repo", 0.1)
    git = ["git", "-c", "user.name=t", "-c", "user.email=t@t", "-c", "commit.gpgsign=false"]
    for cmd in (["init", "-q"], ["add", "-A"], ["commit", "-q", "-m", "stub"]):
        subprocess.run(git + cmd, cwd=repo, check=True)
    monkeypatch.setattr(pair_tool, "REPO", repo)
    monkeypatch.setattr(pair_tool, "IDENTITY_RUNS", {"r": {"seed": 0}})
    argv = ["--parent", "HEAD", "--identity"]
    assert pair_tool.main(argv) == 0
    (repo / "src" / "edaem" / "fe.txt").write_text(repr(0.2))  # uncommitted
    out = tmp_path / "identity.json"
    assert pair_tool.main(argv + ["--out", str(out)]) == 1
    assert json.loads(out.read_text())["unexpected"] == ["r/trace.csv:free_energy_estimate"]
    assert pair_tool.main(argv + ["--expect", "trace.csv:free_energy_estimate"]) == 0
    assert pair_tool.main(argv + ["--aa"]) == 0  # two exports of the parent
    with pytest.raises(SystemExit):
        pair_tool.main(argv + ["--pytest"])
    with pytest.raises(SystemExit):
        pair_tool.main(["--parent", "HEAD", "--expect", "x:y", "--out", str(out)])
