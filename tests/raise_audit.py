"""Opt-in pytest plugin: list each `raise` in spurious_lens that no test executed.

Run the Tier-1 suite (tests and perfbench) under it from the repository root:

    PYTHONPATH=src:tests python -m pytest -p raise_audit

A sys.settrace line tracer records every line of the package that runs (no
coverage tool is needed). At the end of the session each `raise` statement
whose line never ran is listed as file:line, followed by the count. Code run
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


def unexecuted_raises() -> list[str]:
    """file:line of each raise statement in the package whose line never ran."""
    missed = []
    for name in sorted(n for n in os.listdir(ROOT) if n.endswith(".py")):
        path = os.path.join(ROOT, name)
        with open(path, encoding="utf-8") as f:
            tree = ast.parse(f.read())
        lines = sorted(node.lineno for node in ast.walk(tree) if isinstance(node, ast.Raise))
        missed += [f"{name}:{line}" for line in lines if (path, line) not in _ran]
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
