"""Print every statement of ``src/obsforge`` that the tier-1 tests never run.

    python3 scripts/uncovered.py [PYTEST_ARGS ...]

Runs pytest in this process (the tier-1 suite under ``tests/`` by default,
or whatever PYTEST_ARGS select) under a ``sys.settrace`` line tracer that
follows only frames whose code lives in ``src/obsforge``, then prints one
``path:line: source`` line per statement none of whose lines ran, and a
count. It needs only the standard library and pytest, because ``coverage``
may not be installed.

A statement is a node of the module's ``ast``: a simple statement by all of
its lines, a compound one (``if``, ``for``, ``while``, ``with``, ``def``,
...) by its header, the lines before its first body statement. Statements
that compile to no code (a docstring inside a function, for one) are
neither counted nor printed.

Only this process is traced: statements reached only in child processes,
such as the tests that run the CLI as a fresh ``python -m`` process and the
demo scripts, are not seen and print as never run. Threads started while
the tests run are traced too. The tracer makes the suite take a third to a
half longer. The exit code is pytest's.
"""

from __future__ import annotations

import ast
import os
import sys
import threading
from collections import defaultdict

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PACKAGE = os.path.join(ROOT, "src", "obsforge") + os.sep


def code_lines(code):
    """Every line of ``code`` and its nested code objects that has bytecode."""
    lines = {line for _, _, line in code.co_lines() if line is not None}
    for const in code.co_consts:
        if hasattr(const, "co_lines"):
            lines |= code_lines(const)
    return lines


def statements(tree):
    """(first line, last line of the part that runs as this statement) per statement."""
    for node in ast.walk(tree):
        if not isinstance(node, ast.stmt):
            continue
        bodies = [getattr(node, name, None) for name in ("body", "handlers", "orelse", "finalbody")]
        inner = [stmt.lineno for body in bodies if body for stmt in body]
        end = min(inner) - 1 if inner else node.end_lineno
        start = min([node.lineno] + [d.lineno for d in getattr(node, "decorator_list", [])])
        yield start, max(start, end)


def uncovered(path, ran):
    """[(line, source)] of the statements of ``path`` with code none of whose lines ran."""
    with open(path, encoding="utf-8") as fh:
        source = fh.read()
    executable = code_lines(compile(source, path, "exec"))
    text = source.splitlines()
    out = []
    for start, end in sorted(set(statements(ast.parse(source)))):
        span = set(range(start, end + 1))
        if span & executable and not span & ran:
            out.append((start, text[start - 1].strip()))
    return out


def main(argv):
    ran = defaultdict(set)

    def local(frame, event, arg):
        if event == "line":
            ran[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def tracer(frame, event, arg):
        if frame.f_code.co_filename.startswith(PACKAGE):
            ran[frame.f_code.co_filename].add(frame.f_lineno)
            return local
        return None

    os.chdir(ROOT)
    threading.settrace(tracer)
    sys.settrace(tracer)
    try:
        code = pytest.main(["-q", "-p", "no:cacheprovider", "--continue-on-collection-errors"] + argv)
    finally:
        sys.settrace(None)
        threading.settrace(None)

    total = 0
    for name in sorted(os.listdir(PACKAGE)):
        if not name.endswith(".py"):
            continue
        path = os.path.join(PACKAGE, name)
        for line, text in uncovered(path, ran[path]):
            print("%s:%d: %s" % (os.path.relpath(path, ROOT), line, text))
            total += 1
    print("%d statement(s) of src/obsforge never ran in this process" % total)
    return int(code)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
