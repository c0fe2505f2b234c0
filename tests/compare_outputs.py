"""Opt-in output comparer: does this checkout write what another one writes?

Run from anywhere, naming the other checkout (for example a `git archive`
of the parent commit):

    python tests/compare_outputs.py PARENT_CHECKOUT [--seed 7] [--numbers]

Every case of `tests/test_golden.py` (its CLI cases and the library-level
example2 report) and every command of every perfbench workload, on the
instance that `perfbench/workloads.py` generates from --seed, is run once
per checkout, each in its own subprocess with that checkout's `src/` first
on PYTHONPATH. Both checkouts get the same instance files, those of this
checkout. For each output (the exit code, stdout, stderr and the written
file) one line is printed: `identical`, the largest relative difference of
its numbers when only numbers differ, or `differs`. The exit status is 1
when any output is not identical.

With --numbers, stdout and the written file are compared by their values
instead of their text: each is parsed as JSON, else as CSV, and must have
the same structure, the same strings and the same floats bit for bit. The
exit code and stderr must still match exactly. Each line then reads
`identical`, `same numbers` or `differs`, and the exit status is 1 when any
output differs. This is the check for a change that rewrites how numbers
are printed but must not change one.
"""

import argparse
import csv
import io
import json
import os
import re
import struct
import subprocess
import sys
import tempfile
from collections import Counter
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(REPO / "src"), str(REPO / "tests"), str(REPO / "perfbench")]

from test_golden import CASES, GOLDEN  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

NUMBER = re.compile(rb"-?\d+(?:\.\d+)?(?:[eE][+-]?\d+)?")
# dumps_canonical returns text in older checkouts and bytes in newer ones
FORCE_T_ZERO = (
    "import sys, test_golden; t = test_golden.force_t_zero_text(); "
    "sys.stdout.buffer.write(t if isinstance(t, bytes) else t.encode())"
)


def run(checkout: Path, args: list[str], output: Path | None) -> tuple[int, bytes, bytes, bytes]:
    """Exit code of one subprocess, and its stdout, stderr and written file."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(checkout / "src"), str(REPO / "tests")]))
    if output is not None:
        output.unlink(missing_ok=True)
    proc = subprocess.run([sys.executable, *args], capture_output=True, env=env)
    written = output.read_bytes() if output is not None and output.exists() else b"<no file>"
    return proc.returncode, proc.stdout, proc.stderr, written


def compare(parent: tuple, change: tuple) -> str:
    """identical, the largest relative difference of the numbers, or differs."""
    (code_a, *a), (code_b, *b) = parent, change
    a, b = b"\0".join(a), b"\0".join(b)
    if (code_a, a) == (code_b, b):
        return "identical"
    if code_a != code_b or NUMBER.split(a) != NUMBER.split(b):
        return "differs"
    worst = 0.0
    for x, y in zip(map(float, NUMBER.findall(a)), map(float, NUMBER.findall(b))):
        if x != y:
            worst = max(worst, abs(x - y) / max(abs(x), abs(y)))
    return f"max rel diff {worst:.3g}"


def cell(text: str):
    """A CSV field as the int, float or string it spells."""
    for kind in (int, float):
        try:
            return kind(text)
        except ValueError:
            pass
    return text


def values(text: bytes):
    """The values of a JSON document, else of CSV rows (header included), else the bytes."""
    try:
        return json.loads(text)
    except ValueError:
        pass
    try:
        return [[cell(field) for field in row] for row in csv.reader(io.StringIO(text.decode("utf-8")))]
    except (UnicodeDecodeError, csv.Error):
        return text


def same_values(a, b) -> bool:
    """a and b have the same structure and types, floats the same bits."""
    if type(a) is not type(b):
        return False
    if isinstance(a, float):
        return struct.pack("<d", a) == struct.pack("<d", b)
    if isinstance(a, list):
        return len(a) == len(b) and all(map(same_values, a, b))
    if isinstance(a, dict):
        return a.keys() == b.keys() and all(same_values(a[k], b[k]) for k in a)
    return a == b


def compare_numbers(parent: tuple, change: tuple) -> str:
    """identical, same numbers (stdout and file by value), or differs."""
    if parent == change:
        return "identical"
    (code_a, out_a, err_a, file_a), (code_b, out_b, err_b, file_b) = parent, change
    if (code_a, err_a) != (code_b, err_b):
        return "differs"
    if all(x == y or same_values(values(x), values(y)) for x, y in ((out_a, out_b), (file_a, file_b))):
        return "same numbers"
    return "differs"


def cases(work: Path, seed: int):
    """(label, argv after the interpreter, output path or None) for every output."""
    for name, argv, instance, _ in CASES:
        extra = ["--instance", str(GOLDEN / f"{instance}.instance.json")] if instance else []
        yield f"golden {name}", ["-m", "spurious_lens", *argv, *extra, "--output", str(work / "out")], work / "out"
    yield "golden example2_force_t_zero", ["-c", FORCE_T_ZERO], None
    for workload in WORKLOADS.values():
        instance = work / f"{workload.name}.json"
        instance.write_text(workload.instance_text(seed))
        fill = {"instance": str(instance), "output": str(work / "out"), "seed": str(seed)}
        for cmd in workload.commands:
            argv = [part.format(**fill) for part in cmd.argv]
            yield f"perfbench {workload.name} {cmd.metric}", ["-m", "spurious_lens", *argv], work / "out"


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("parent", type=Path, help="the checkout to compare against")
    p.add_argument("--seed", type=int, default=7, help="seed of the perfbench instances (default 7)")
    p.add_argument("--numbers", action="store_true", help="compare stdout and files by value, floats by bits")
    args = p.parse_args(argv)
    verdicts = Counter()
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        for label, cmd, output in cases(work, args.seed):
            parent, change = run(args.parent.resolve(), cmd, output), run(REPO, cmd, output)
            verdict = compare_numbers(parent, change) if args.numbers else compare(parent, change)
            verdicts[verdict] += 1
            print(f"{verdict:24} {label}", flush=True)
    if args.numbers:
        print(f"{sum(verdicts.values())} outputs: {verdicts['identical']} identical, "
              f"{verdicts['same numbers']} same numbers, {verdicts['differs']} differ")
        return 1 if verdicts["differs"] else 0
    differing = sum(verdicts.values()) - verdicts["identical"]
    print(f"{differing} of the outputs are not identical")
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main())
