"""Opt-in mutant runner: does the suite see a check's deletion?

Run from the repository root with one or more `file:line` sites, each naming
a `raise` statement in src/spurious_lens as `tests/raise_audit.py` prints it:

    python tests/mutants.py constructions.py:63 ovb.py:53

The repository is copied once to a temporary directory; the checkout is
never written. For each site, in turn, the copy gets one mutation:
- the `if` whose body holds the raise gets the test `False`;
- a raise inside an `except` clause becomes a bare `raise`;
- any other raise becomes `pass`.
Tier-1 then runs on the copy with `-x`, and the site is printed as
`DETECTED <site> <first failing test>` or `UNDETECTED <site>`. The module is
restored before the next site. The exit status is 1 when a site went
undetected. Each undetected site costs one full Tier-1 run.
"""

import ast
import os
import shutil
import subprocess
import sys
import tempfile

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PACKAGE = os.path.join("src", "spurious_lens")
TIER1 = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", "--continue-on-collection-errors"]
NOT_COPIED = shutil.ignore_patterns(".git", "__pycache__", ".pytest_cache", ".hypothesis", ".perfbench_work", ".benchmarks")


def mutate(source: str, line: int) -> str:
    """source with the raise statement that starts on line disabled."""
    tree = ast.parse(source)
    parents = {child: node for node in ast.walk(tree) for child in ast.iter_child_nodes(node)}
    node = next((n for n in ast.walk(tree) if isinstance(n, ast.Raise) and n.lineno == line), None)
    if node is None:
        raise ValueError(f"no raise statement starts on line {line}")
    up = parents[node]
    if isinstance(up, ast.If) and node in up.body:
        target, text = up.test, "False"
    elif isinstance(up, ast.ExceptHandler):
        target, text = node, "raise"
    else:
        target, text = node, "pass"
    # ast offsets count UTF-8 bytes within a line
    data = source.encode("utf-8")
    starts = [0]
    for row in data.splitlines(keepends=True):
        starts.append(starts[-1] + len(row))
    begin = starts[target.lineno - 1] + target.col_offset
    end = starts[target.end_lineno - 1] + target.end_col_offset
    return (data[:begin] + text.encode("utf-8") + data[end:]).decode("utf-8")


def first_failure(copy: str, site: str, mutated: str) -> str | None:
    """The first failing Tier-1 test on the copy with site's module replaced by mutated, or None."""
    path = os.path.join(copy, PACKAGE, site.rsplit(":", 1)[0])
    with open(path, encoding="utf-8") as f:
        original = f.read()
    with open(path, "w", encoding="utf-8") as f:
        f.write(mutated)
    try:
        env = dict(os.environ, PYTHONPATH=os.path.join(copy, "src"), PYTHONDONTWRITEBYTECODE="1")
        proc = subprocess.run(TIER1, cwd=copy, env=env, capture_output=True, text=True)
    finally:
        with open(path, "w", encoding="utf-8") as f:
            f.write(original)
    if proc.returncode == 0:
        return None
    lines = proc.stdout.splitlines()
    failed = [ln.split(" ", 1)[1].split(" - ", 1)[0] for ln in lines if ln.startswith(("FAILED ", "ERROR "))]
    return failed[0] if failed else f"(pytest exit {proc.returncode}: {lines[-1] if lines else ''})"


def main(sites: list[str]) -> int:
    if not sites:
        print(__doc__.strip().splitlines()[0], "\nusage: python tests/mutants.py FILE.py:LINE ...", file=sys.stderr)
        return 2
    # mutate every site before running anything, so a bad site fails at once
    mutants = []
    for site in sites:
        name, line = site.rsplit(":", 1)
        with open(os.path.join(REPO, PACKAGE, os.path.basename(name)), encoding="utf-8") as f:
            mutants.append((f"{os.path.basename(name)}:{line}", mutate(f.read(), int(line))))
    undetected = 0
    with tempfile.TemporaryDirectory() as tmp:
        copy = os.path.join(tmp, "repo")
        shutil.copytree(REPO, copy, ignore=NOT_COPIED)
        for site, mutated in mutants:
            failing = first_failure(copy, site, mutated)
            undetected += failing is None
            print(f"UNDETECTED {site}" if failing is None else f"DETECTED {site} {failing}", flush=True)
    return 1 if undetected else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
