"""Self-test of tools/uncovered.py on a throwaway module and its test."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "uncovered.py"

MODULE = '''\
"""A module docstring."""
import math


def reached(n):
    """A docstring."""
    total = 0
    for i in range(n):
        if i > 10:
            total += math.floor(i / 2)
        total += (
            i
        )
    return total


def never():
    return 1


class Holder:
    size = 3

    def grow(self):
        try:
            self.size += 1
        except TypeError:
            raise
'''

TEST = '''\
import sys
from mod import Holder, reached


def test_removes_the_tracer():
    sys.settrace(None)


def test_reached():
    assert reached(3) == 3
    Holder().grow()
'''


def test_lists_exactly_the_statements_that_never_ran(tmp_path):
    # The first test removes the tracer; the second is traced all the same.
    (tmp_path / "src").mkdir()
    (tmp_path / "src" / "mod.py").write_text(MODULE)
    (tmp_path / "test_mod.py").write_text(TEST)
    env = {**os.environ, "PYTHONPATH": str(tmp_path / "src")}
    proc = subprocess.run(
        [sys.executable, str(TOOL), "--root", "src", "-q", "-p", "no:cacheprovider",
         "test_mod.py"],
        cwd=tmp_path, env=env, capture_output=True, text=True, check=True,
    )
    lines = proc.stdout.splitlines()
    listed = [line for line in lines if line.startswith("src")]
    assert listed == [
        f"src{os.sep}mod.py:10: total += math.floor(i / 2)",
        f"src{os.sep}mod.py:18: return 1",
        f"src{os.sep}mod.py:28: raise",
    ]
    assert lines[-1] == "3 statements never ran (pytest exit code 0)"
