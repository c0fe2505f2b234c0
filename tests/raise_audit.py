"""Opt-in pytest plugin: list each `raise` in spurious_lens that no test executed.

Run the Tier-1 suite (tests and perfbench) under it from the repository root:

    PYTHONPATH=src:tests python -m pytest -p raise_audit

A sys.settrace line tracer records every line of the package that runs (no
coverage tool is needed). At the end of the session each `raise` statement
whose line never ran is listed as `file:line function ExceptionClass`, so a
list stays readable when line numbers shift, followed by the count. Code run
in a subprocess is not traced. The tracer makes the suite about twice as slow,
and pytest collects only test_*.py files, so a plain run never loads it.
"""

import ast
import os
import sys
import threading

import spurious_lens

ROOT = os.path.dirname(spurious_lens.__file__)
_ran: set[tuple[str, int]] = set()


def _line(frame, event, _arg):
    if event == "line":
        _ran.add((frame.f_code.co_filename, frame.f_lineno))
    return _line


def _call(frame, _event, _arg):
    return _line if os.path.dirname(frame.f_code.co_filename) == ROOT else None


def _raises(node, scope: tuple[str, ...] = ()):
    """(line, enclosing qualified name, raised class) of each raise under node."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, ast.Raise):
            exc = child.exc.func if isinstance(child.exc, ast.Call) else child.exc
            yield child.lineno, ".".join(scope) or "<module>", "(re-raise)" if exc is None else ast.unparse(exc)
        named = isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        yield from _raises(child, (*scope, child.name) if named else scope)


def unexecuted_raises() -> list[str]:
    """`file:line function ExceptionClass` of each raise in the package whose line never ran."""
    missed = []
    for name in sorted(n for n in os.listdir(ROOT) if n.endswith(".py")):
        path = os.path.join(ROOT, name)
        with open(path, encoding="utf-8") as f:
            tree = ast.parse(f.read())
        missed += [
            f"{name}:{line} {scope} {exc}"
            for line, scope, exc in sorted(_raises(tree))
            if (path, line) not in _ran
        ]
    return missed


def pytest_sessionstart(session):
    threading.settrace(_call)
    sys.settrace(_call)


def pytest_sessionfinish(session):
    sys.settrace(None)
    threading.settrace(None)


def pytest_terminal_summary(terminalreporter):
    missed = unexecuted_raises()
    terminalreporter.write_sep("=", "raise audit")
    for where in missed:
        terminalreporter.write_line(where)
    terminalreporter.write_line(f"{len(missed)} raise statements no test executed")
