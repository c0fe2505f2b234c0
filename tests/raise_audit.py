"""Opt-in pytest plugin: list each statement in spurious_lens that no test executed.

Run the Tier-1 suite (tests and perfbench) under it from the repository root:

    PYTHONPATH=src:tests python -m pytest -p raise_audit

A sys.settrace line tracer records every line of the package that runs (no
coverage tool is needed). The plugin finds the package without importing
it, so its module-level lines run under the tracer when the tests import
it. At the end of the session the report has two sections. The first lists
each `raise` statement whose line never ran as `file:line function
ExceptionClass`, so a list stays readable when line numbers shift, followed
by the count. The second lists every statement whose line never ran as
`file:line function statement`, the statement's first line as source text;
docstrings and `global`/`nonlocal` declarations compile to no code and are
not listed. Code run in a subprocess is not traced. The tracer makes the
suite about twice as slow, and pytest collects only test_*.py files, so a
plain run never loads it.
"""

import ast
import importlib.util
import os
import sys
import threading

ROOT = os.path.dirname(importlib.util.find_spec("spurious_lens").origin)
_ran: set[tuple[str, int]] = set()


def _line(frame, event, _arg):
    if event == "line":
        _ran.add((frame.f_code.co_filename, frame.f_lineno))
    return _line


def _call(frame, _event, _arg):
    return _line if os.path.dirname(frame.f_code.co_filename) == ROOT else None


def _statements(node, scope: tuple[str, ...] = ()):
    """(line, enclosing qualified name, statement) of each statement under node
    that compiles to code."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, ast.stmt) and not (
            isinstance(child, (ast.Global, ast.Nonlocal))
            or isinstance(child, ast.Expr) and isinstance(child.value, ast.Constant)
        ):
            yield child.lineno, ".".join(scope) or "<module>", child
        named = isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        yield from _statements(child, (*scope, child.name) if named else scope)


def _raised(stmt: ast.Raise) -> str:
    exc = stmt.exc.func if isinstance(stmt.exc, ast.Call) else stmt.exc
    return "(re-raise)" if exc is None else ast.unparse(exc)


def unexecuted() -> tuple[list[str], list[str]]:
    """`file:line function ExceptionClass` of each raise, and `file:line
    function statement` of each statement, in the package whose line never ran."""
    raises, statements = [], []
    for name in sorted(n for n in os.listdir(ROOT) if n.endswith(".py")):
        path = os.path.join(ROOT, name)
        with open(path, encoding="utf-8") as f:
            tree = ast.parse(f.read())
        for line, scope, stmt in sorted(_statements(tree), key=lambda s: s[0]):
            if (path, line) in _ran:
                continue
            if isinstance(stmt, ast.Raise):
                raises.append(f"{name}:{line} {scope} {_raised(stmt)}")
            statements.append(f"{name}:{line} {scope} {ast.unparse(stmt).splitlines()[0]}")
    return raises, statements


def pytest_sessionstart(session):
    threading.settrace(_call)
    sys.settrace(_call)


def pytest_sessionfinish(session):
    sys.settrace(None)
    threading.settrace(None)


def pytest_terminal_summary(terminalreporter):
    raises, statements = unexecuted()
    terminalreporter.write_sep("=", "raise audit")
    for where in raises:
        terminalreporter.write_line(where)
    terminalreporter.write_line(f"{len(raises)} raise statements no test executed")
    terminalreporter.write_sep("=", "statement audit")
    for where in statements:
        terminalreporter.write_line(where)
    terminalreporter.write_line(f"{len(statements)} statements no test executed")
