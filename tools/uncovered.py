"""List the statements of a source tree that a pytest run never executes.

    python tools/uncovered.py [--root DIR] [pytest args]

Runs pytest in this process under a ``sys.settrace`` tracer that records
the lines executed in files under ``--root`` (default ``src/edaem``), then
prints, file by file, every statement that never ran, as ``path:line:
source``, and their count.  A statement is an AST statement other than a
docstring, a ``def`` or ``class`` line, an import, a ``try:`` line or a
``global``/``nonlocal`` declaration.  A simple statement ran if any of its
lines did; a compound one if any line of its header did (``if`` and its
test, ``for`` and its iterable, ...).

Some code under test (hypothesis, for one) installs its own trace function
and restores another when it is done, so the tracer is installed again
before each test's setup, call and teardown.

Limits: code that runs only in a subprocess (the ``__main__`` line of a
module run with ``python -m``) shows as never run.  The tracer slows every
call, so a test that bounds time or memory may fail under it; the tool
reports lines, not test results, and exits 0 whatever the tests did (1 if
pytest could not run them).
"""

from __future__ import annotations

import argparse
import ast
import os
import sys
import threading
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parent.parent

# Statements that execute no line of their own.
_SKIPPED = (
    ast.FunctionDef,
    ast.AsyncFunctionDef,
    ast.ClassDef,
    ast.Import,
    ast.ImportFrom,
    ast.Try,
    ast.Global,
    ast.Nonlocal,
)


class LineTracer:
    """Marks every line executed in the ``.py`` files under ``root``.

    The table, one ``bytearray`` per file indexed by line number, is built
    before the run, so the tracer only sets entries: it allocates nothing
    while a traced test runs, except the first time it meets a code object
    of a file it has not seen (a test that bounds its ``tracemalloc`` peak
    sees no growing line set)."""

    def __init__(self, root: Path):
        self.table: dict[str, bytearray] = {}
        for file in Path(root).rglob("*.py"):
            n_lines = len(file.read_text(encoding="utf-8").splitlines())
            self.table[os.path.realpath(file)] = bytearray(n_lines + 2)
        # Plain functions, not methods: a bound method would be a new object
        # at every event.
        tables: dict[str, bytearray | None] = {}

        def local(frame, event, arg):
            if event == "line":
                tables[frame.f_code.co_filename][frame.f_lineno] = 1
            return local

        def global_(frame, event, arg):
            name = frame.f_code.co_filename
            if name not in tables:
                tables[name] = self.table.get(os.path.realpath(name))
            return local if tables[name] is not None else None

        self._global = global_

    def install(self) -> None:
        sys.settrace(self._global)
        threading.settrace(self._global)

    def remove(self) -> None:
        sys.settrace(None)
        threading.settrace(None)


class _Reinstall:
    """pytest plugin: the tracer goes back in before each test phase."""

    def __init__(self, tracer: LineTracer):
        self.tracer = tracer

    @pytest.hookimpl(tryfirst=True)
    def pytest_runtest_setup(self, item):
        self.tracer.install()

    @pytest.hookimpl(tryfirst=True)
    def pytest_runtest_call(self, item):
        self.tracer.install()

    @pytest.hookimpl(tryfirst=True)
    def pytest_runtest_teardown(self, item, nextitem):
        self.tracer.install()


def _is_docstring(node: ast.stmt) -> bool:
    return (
        isinstance(node, ast.Expr)
        and isinstance(node.value, ast.Constant)
        and isinstance(node.value.value, str)
    )


def _own_lines(node: ast.stmt) -> range:
    """The lines whose execution shows that ``node`` ran: all of a simple
    statement, the header of a compound one."""
    body = getattr(node, "body", None)
    if isinstance(body, list) and body:
        return range(node.lineno, max(node.lineno, body[0].lineno - 1) + 1)
    return range(node.lineno, node.end_lineno + 1)


def statements(source: str) -> list[ast.stmt]:
    """The statements of ``source`` that execute a line of their own."""
    return [
        node
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.stmt) and not isinstance(node, _SKIPPED) and not _is_docstring(node)
    ]


def unreached(root: Path, table: dict[str, bytearray]) -> list[tuple[Path, int, str]]:
    """(file, line, source line) of every statement under ``root`` that
    ran no line, by ``LineTracer.table``, in file and line order."""
    out = []
    for file in sorted(Path(root).rglob("*.py")):
        source = file.read_text(encoding="utf-8")
        text = source.splitlines()
        real = os.path.realpath(file)
        for node in statements(source):
            if not any(table[real][line] for line in _own_lines(node)):
                out.append((file, node.lineno, text[node.lineno - 1].strip()))
    return sorted(set(out))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0], allow_abbrev=False)
    parser.add_argument("--root", type=Path, default=REPO / "src" / "edaem")
    args, pytest_args = parser.parse_known_args(argv)
    tracer = LineTracer(args.root)
    tracer.install()
    try:
        code = pytest.main(pytest_args, plugins=[_Reinstall(tracer)])
    finally:
        tracer.remove()
    missed = unreached(args.root, tracer.table)
    for file, line, text in missed:
        print(f"{os.path.relpath(file)}:{line}: {text}")
    print(f"{len(missed)} statements never ran (pytest exit code {int(code)})")
    failed_to_run = (pytest.ExitCode.INTERRUPTED, pytest.ExitCode.INTERNAL_ERROR,
                     pytest.ExitCode.USAGE_ERROR, pytest.ExitCode.NO_TESTS_COLLECTED)
    return 1 if code in failed_to_run else 0


if __name__ == "__main__":
    sys.exit(main())
