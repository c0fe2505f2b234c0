"""Opt-in magnitude sweep: the CLI's exit contract at every decade of scale.

Run from the repository root:

    python tests/magnitude_sweep.py

Each block that `tests/test_cli.py::SCALED_FIELDS` names in the golden
one_beta instance is scaled in turn by every power of ten from 1e-300 to
1e300, and the seven commands of `test_scaled_field_keeps_exit_contract`
run on each scaled copy, in this process. A second, wider instance (a
40 x 100 design with 120 unlabeled rows, drawn from a fixed seed) has its
ground truth, design and unlabeled blocks scaled the same way and runs the
four fit commands: its R has 40 rows and the rst fit's R11 100, so both
are inverted by blocks, which the golden instance's 5-row R never is.
Every run must exit 0, 1, 2, 3 or 4, exit 1 only for a failed
verification, print nothing to stdout unless it exits 0, raise no
exception (a traceback) and issue no RuntimeWarning. Tier-1 runs four of
these scales on the golden instance; this script runs all 601 on both
(4,808 + 3,005 instances, 45,676 runs, about five minutes on two cores). It
prints the number of runs per (command, exit code) for each instance,
every failure, and the wall time, and exits 1 when a run failed.
"""

import collections
import contextlib
import io
import json
import os
import sys
import tempfile
import time
import traceback
import warnings
from pathlib import Path

import numpy as np

REPO = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(REPO / "src"), str(REPO / "tests")]

from spurious_lens.cli import main as cli_main  # noqa: E402
from test_cli import SCALED_FIELDS, golden_instance, scale_field  # noqa: E402

FITS = tuple(["fit", "--model", model] for model in ("core", "full", "multi", "rst"))
COMMANDS = (
    *FITS,
    ["analyze", "--seed", "3"],
    ["construct", "--mode", "disjoint", "--n", "4"],
    ["construct", "--mode", "balanced", "--d", "12"],
)
WIDE_FIELDS = [
    ("ground_truth", "theta_star"), ("ground_truth", "beta_stars"), ("train", "Z"),
    ("unlabeled", "Zu"), ("unlabeled", "Su"),
]
SCALES = [float(f"1e{e}") for e in range(-300, 301)]


def run(argv: list[str]) -> tuple[int | None, str, str, list[str]]:
    """(exit code or None, stdout, stderr or the traceback, RuntimeWarning texts) of one CLI call."""
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(record=True) as caught, contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        warnings.simplefilter("always")
        try:
            status = cli_main(argv)
        except Exception:  # any escape is a failure, reported with its traceback
            status = None
            err.write(traceback.format_exc())
    runtime = [str(w.message) for w in caught if issubclass(w.category, RuntimeWarning)]
    return status, out.getvalue(), err.getvalue(), runtime


def failure(status, out: str, err: str, runtime: list[str]) -> str | None:
    """Why one run breaks the exit contract, or None."""
    if status not in (0, 1, 2, 3, 4) or "Traceback" in err:
        return f"exit {status}: {err.strip().splitlines()[-1] if err.strip() else ''}"
    if status == 1 and not err.startswith("verification failed"):
        return f"exit 1 without a failed verification: {err.strip()}"
    if status != 0 and out:
        return f"exit {status} with output on stdout"
    if runtime:
        return f"RuntimeWarning: {runtime[0]}"
    return None


def wide_instance() -> dict:
    """A 40 x 100 design, one beta*, and 120 unlabeled rows with Su = Zu beta*."""
    rng = np.random.default_rng(40100)
    z, zu = rng.standard_normal((40, 100)), rng.standard_normal((120, 100))
    theta, beta = rng.standard_normal((2, 100))
    return {
        "ground_truth": {"theta_star": theta.tolist(), "beta_stars": [beta.tolist()]},
        "train": {"Z": z.tolist()},
        "unlabeled": {"Zu": zu.tolist(), "Su": (zu @ beta).tolist()},
    }


SWEEPS = (
    ("golden one_beta", golden_instance, SCALED_FIELDS, COMMANDS),
    ("wide 40 x 100", wide_instance, WIDE_FIELDS, FITS),
)


def main() -> int:
    start = time.perf_counter()
    failures, total = [], 0
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "instance.json")
        for name, instance, fields, commands in SWEEPS:
            counts = collections.Counter()
            for field in fields:
                for scale in SCALES:
                    doc = instance()
                    scale_field(doc, field, scale)
                    with open(path, "w") as fh:
                        json.dump(doc, fh)
                    for argv in commands:
                        status, out, err, runtime = run(argv + ["--instance", path])
                        command = " ".join(argv)
                        counts[command, status] += 1
                        why = failure(status, out, err, runtime)
                        if why:
                            failures.append(f"{name}, {'.'.join(map(str, field))} x {scale:g}, {command}: {why}")
            print(f"{name}:")
            for (command, status), count in sorted(counts.items(), key=lambda kv: (kv[0][0], str(kv[0][1]))):
                print(f"  {command:<40} exit {status}: {count}")
            total += sum(counts.values())
    for line in failures:
        print("FAILED", line)
    print(f"{total} runs, {len(failures)} failed, {time.perf_counter() - start:.1f} s")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
