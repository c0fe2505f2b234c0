"""Opt-in output comparer: does this checkout write what another one writes?

Run from anywhere, naming the other checkout (for example a `git archive`
of the parent commit):

    python tests/compare_outputs.py PARENT_CHECKOUT [--seed 7]

Every case of `tests/test_golden.py` (its CLI cases and the library-level
example2 report) and every command of every perfbench workload, on the
instance that `perfbench/workloads.py` generates from --seed, is run once
per checkout, each in its own subprocess with that checkout's `src/` first
on PYTHONPATH. Both checkouts get the same instance files, those of this
checkout. For each output (the exit code, stdout, stderr and the written
file) one line is printed: `identical`, the largest relative difference of
its numbers when only numbers differ, or `differs`. The exit status is 1
when any output is not identical.
"""

import argparse
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(REPO / "src"), str(REPO / "tests"), str(REPO / "perfbench")]

from test_golden import CASES, GOLDEN  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

NUMBER = re.compile(rb"-?\d+(?:\.\d+)?(?:[eE][+-]?\d+)?")
FORCE_T_ZERO = "import sys, test_golden; sys.stdout.write(test_golden.force_t_zero_text())"


def run(checkout: Path, args: list[str], output: Path | None) -> tuple[int, bytes]:
    """Exit code of one subprocess, and its stdout, stderr and written file as one byte string."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(checkout / "src"), str(REPO / "tests")]))
    if output is not None:
        output.unlink(missing_ok=True)
    proc = subprocess.run([sys.executable, *args], capture_output=True, env=env)
    written = output.read_bytes() if output is not None and output.exists() else b"<no file>"
    return proc.returncode, b"\0".join([proc.stdout, proc.stderr, written])


def compare(parent: tuple[int, bytes], change: tuple[int, bytes]) -> str:
    """identical, the largest relative difference of the numbers, or differs."""
    (code_a, a), (code_b, b) = parent, change
    if (code_a, a) == (code_b, b):
        return "identical"
    if code_a != code_b or NUMBER.split(a) != NUMBER.split(b):
        return "differs"
    worst = 0.0
    for x, y in zip(map(float, NUMBER.findall(a)), map(float, NUMBER.findall(b))):
        if x != y:
            worst = max(worst, abs(x - y) / max(abs(x), abs(y)))
    return f"max rel diff {worst:.3g}"


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
    args = p.parse_args(argv)
    differing = 0
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        for label, cmd, output in cases(work, args.seed):
            verdict = compare(run(args.parent.resolve(), cmd, output), run(REPO, cmd, output))
            differing += verdict != "identical"
            print(f"{verdict:24} {label}", flush=True)
    print(f"{differing} of the outputs are not identical")
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main())
