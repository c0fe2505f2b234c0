"""Golden CLI outputs on small fixed instances (d=12, n=5).

The files under tests/golden/ hold each command's output as the CLI wrote
it (JSON, or CSV for the cases run with `--format csv`). `simulate`
reports must match byte for byte. Elsewhere numbers must
agree to 1e-12 relative (arrays by norm), booleans, strings and exit codes
exactly, and `train_residual`, which is round-off, to 1e-12 * ||Y||.

One library-level case, example2 with force_t_zero (a path no CLI command
reaches), is stored as the canonical JSON of its report and must match
byte for byte as well.

Regenerate the outputs from the current sources with

    PYTHONPATH=src python tests/test_golden.py
"""

import json
import sys
from pathlib import Path

import numpy as np
import pytest

from spurious_lens.cli import main
from spurious_lens.scenarios import example2_simulate
from spurious_lens.serialize import dumps_canonical

GOLDEN = Path(__file__).resolve().parent / "golden"
RTOL = 1e-12

# (case name, argv with {instance} standing for the instance path, instance, exit code)
CASES = [
    ("fit_core", ["fit", "--model", "core"], "one_beta", 0),
    ("fit_full", ["fit", "--model", "full"], "one_beta", 0),
    ("fit_multi", ["fit", "--model", "multi"], "one_beta", 0),
    ("fit_rst", ["fit", "--model", "rst"], "one_beta", 0),
    ("fit_multi_two_betas", ["fit", "--model", "multi"], "two_betas", 0),
    ("fit_core_two_betas", ["fit", "--model", "core"], "two_betas", 0),
    ("fit_full_two_betas", ["fit", "--model", "full"], "two_betas", 3),
    ("fit_core_rank_deficient", ["fit", "--model", "core"], "rank_deficient", 3),
    ("analyze_robust", ["analyze", "--seed", "3"], "one_beta", 0),
    ("analyze", ["analyze"], "one_beta_no_robust", 0),
    ("construct_disjoint", ["construct", "--mode", "disjoint", "--n", "4"], "one_beta", 0),
    ("construct_balanced", ["construct", "--mode", "balanced", "--d", "12"], "one_beta", 0),
    ("simulate_tables", ["simulate", "--scenario", "tables"], None, 0),
    ("simulate_tables_csv", ["simulate", "--scenario", "tables", "--format", "csv"], None, 0),
    ("simulate_example1", ["simulate", "--scenario", "example1", "--trials", "2000"], None, 0),
    ("simulate_example2", ["simulate", "--scenario", "example2", "--trials", "300"], None, 0),
    ("simulate_ovb_simple", ["simulate", "--scenario", "ovb-simple", "--trials", "20000"], None, 0),
]

FORCE_T_ZERO = GOLDEN / "example2_force_t_zero.report.json"


def force_t_zero_text() -> bytes:
    """Canonical JSON of every field of one example2 report with t pinned to zero."""
    report = example2_simulate(n=6, p_s=0.7, trials=200, seed=3, force_t_zero=True)
    return dumps_canonical({
        "name": report.name,
        "seed": report.seed,
        "params": report.params,
        "quantities": {
            label: {"closed_form": q.closed_form, "monte_carlo": q.monte_carlo, "stderr": q.stderr}
            for label, q in report.quantities.items()
        },
        "verdicts": report.verdicts,
    })


def golden_path(name, argv) -> Path:
    return GOLDEN / f"{name}.out.{'csv' if 'csv' in argv else 'json'}"


def run_case(argv, instance, out_path) -> int:
    args = list(argv) + ["--output", str(out_path)]
    if instance is not None:
        args += ["--instance", str(GOLDEN / f"{instance}.instance.json")]
    return main(args)


def _is_numeric(value) -> bool:
    if isinstance(value, list):
        return all(_is_numeric(v) for v in value)
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _y_norm(instance: str) -> float:
    doc = json.loads((GOLDEN / f"{instance}.instance.json").read_text())
    z = np.asarray(doc["train"]["Z"], float)
    return float(np.linalg.norm(z @ np.asarray(doc["ground_truth"]["theta_star"], float)))


def differences(got, want, path: str, y_norm: float) -> list[str]:
    """Every place where `got` departs from `want` beyond the golden tolerances."""
    if path.endswith(".train_residual"):
        ok = abs(got - want) <= RTOL * y_norm
        return [] if ok else [f"{path}: {got!r} vs {want!r}"]
    if isinstance(want, dict):
        if not isinstance(got, dict) or set(got) != set(want):
            return [f"{path}: keys differ"]
        return [d for k in want for d in differences(got[k], want[k], f"{path}.{k}", y_norm)]
    if _is_numeric(want) and _is_numeric(got):
        a, b = np.asarray(got, float), np.asarray(want, float)
        if a.shape != b.shape:
            return [f"{path}: shape {a.shape} vs {b.shape}"]
        scale = max(float(np.linalg.norm(a)), float(np.linalg.norm(b)))
        ok = float(np.linalg.norm(a - b)) <= RTOL * scale
        return [] if ok else [f"{path}: {got!r} vs {want!r}"]
    if isinstance(want, list):
        if not isinstance(got, list) or len(got) != len(want):
            return [f"{path}: list length differs"]
        return [d for i, (g, w) in enumerate(zip(got, want)) for d in differences(g, w, f"{path}[{i}]", y_norm)]
    return [] if got == want and type(got) is type(want) else [f"{path}: {got!r} vs {want!r}"]


@pytest.mark.parametrize("name,argv,instance,exit_code", CASES, ids=[c[0] for c in CASES])
def test_matches_golden_output(tmp_path, name, argv, instance, exit_code):
    out = tmp_path / "out.json"
    assert run_case(argv, instance, out) == exit_code
    golden = golden_path(name, argv)
    if exit_code != 0:
        assert not out.exists() and not golden.exists()
        return
    text, want = out.read_text(), golden.read_text()
    if argv[0] == "simulate":
        assert text == want
        return
    assert differences(json.loads(text), json.loads(want), name, _y_norm(instance)) == []


def test_example2_force_t_zero_matches_golden():
    assert force_t_zero_text() == FORCE_T_ZERO.read_bytes()


def test_comparison_flags_departures():
    want = {"theta_hat": [1.0, 2.0], "train_residual": 1e-15, "tie": False, "model": "full"}
    assert differences(dict(want), want, "x", 1.0) == []
    assert differences(dict(want, theta_hat=[1.0, 2.0 + 1e-9]), want, "x", 1.0)
    assert differences(dict(want, train_residual=2e-12), want, "x", 1.0)
    assert differences(dict(want, tie=0), want, "x", 1.0)
    assert differences(dict(want, model="core"), want, "x", 1.0)


def regenerate() -> None:
    for name, argv, instance, exit_code in CASES:
        out = golden_path(name, argv)
        out.unlink(missing_ok=True)
        code = run_case(argv, instance, out)
        if code != exit_code:
            raise SystemExit(f"{name}: exit code {code}, expected {exit_code}")
    FORCE_T_ZERO.write_bytes(force_t_zero_text())


if __name__ == "__main__":
    sys.exit(regenerate())
