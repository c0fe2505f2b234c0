"""Tests for the benchmark's own logic: span self time, the tail rule,
the output checkers, instance determinism and the tracer's wrappers."""

import copy
import json
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import spurious_lens  # noqa: E402
import spurious_lens.cli  # noqa: E402
from checks import Checker  # noqa: E402
from spans import Tracer, children_per_pass, per_pass_totals, self_times  # noqa: E402
from stats import tail  # noqa: E402
from workloads import WORKLOADS, construct_instance, wide_instance  # noqa: E402


def _spans(rows, names):
    """rows: (name_id, start, end, parent, pass_id)."""
    cols = list(zip(*rows))
    return {
        "names": np.array(names),
        "name_id": np.array(cols[0]),
        "start": np.array(cols[1], float),
        "end": np.array(cols[2], float),
        "parent": np.array(cols[3]),
        "pass_id": np.array(cols[4]),
        "value": np.zeros(len(rows)),
    }


def test_self_time_subtracts_direct_children_only():
    # root [0, 10] has children a [1, 4] and b [5, 9]; a has child c [2, 3].
    start = np.array([0.0, 1.0, 2.0, 5.0])
    end = np.array([10.0, 4.0, 3.0, 9.0])
    parent = np.array([-1, 0, 1, 0])
    np.testing.assert_allclose(self_times(start, end, parent), [3.0, 2.0, 1.0, 4.0])


def test_per_pass_totals_and_child_counts():
    names = ["cli.main", "linalg.svd", "analysis.removal_verdict", "constructions.construct_disjoint"]
    spans = _spans(
        [
            (0, 0.0, 1.0, -1, 0),
            (1, 0.1, 0.3, 0, 0),
            (1, 0.4, 0.5, 0, 0),
            (0, 2.0, 2.5, -1, 1),
            (3, 2.1, 2.4, 3, 1),
            (2, 2.2, 2.3, 4, 1),
            (2, 2.35, 2.38, 4, 1),
            (2, 2.45, 2.48, 3, 1),  # verdict under cli.main, not under the construction
        ],
        names,
    )
    totals = per_pass_totals(spans)
    np.testing.assert_allclose(totals["cli.main"]["self_ms"], [700.0, 500.0 - 300.0 - 30.0])
    np.testing.assert_allclose(totals["cli.main"]["incl_ms"], [1000.0, 500.0])
    np.testing.assert_allclose(totals["linalg.svd"]["calls"], [2, 0])
    np.testing.assert_allclose(
        totals["constructions.construct_disjoint"]["self_ms"], [0.0, 300.0 - 100.0 - 30.0]
    )
    under = children_per_pass(spans, {"analysis.removal_verdict"}, {"constructions.construct_disjoint"})
    np.testing.assert_allclose(under, [0, 2])


def test_tail_is_highest_percentile_with_ten_samples_beyond():
    assert tail(list(range(10))) is None
    assert tail([5.0] + [1.0] * 10) == (100.0 / 11, 1.0)
    assert tail(list(range(1, 21))) == (50.0, 10.0)
    p, v = tail(list(range(100, 0, -1)))
    assert (p, v) == (90.0, 90.0)
    assert sum(x > v for x in range(1, 101)) == 10


def _run_cli(tmp_path, argv, instance):
    inst = tmp_path / "instance.json"
    inst.write_text(json.dumps(instance))
    out = tmp_path / "out.json"
    code = spurious_lens.cli.main([*argv, "--instance", str(inst), "--output", str(out)])
    return code, json.loads(out.read_text())


@pytest.fixture
def small_wide():
    return wide_instance(np.random.default_rng(5), d=14, n=6, groups=3)


def test_checker_accepts_fit_and_analyze_and_flags_perturbations(tmp_path, small_wide):
    check = Checker(small_wide)
    code, fit = _run_cli(tmp_path, ["fit", "--model", "full"], small_wide)
    assert code == 0 and check("fit", code, fit) == []
    bad = copy.deepcopy(fit)
    bad["theta_hat"][3] *= 1.0 + 1e-6
    assert check("fit", 0, bad)

    code, an = _run_cli(tmp_path, ["analyze"], small_wide)
    assert code == 0 and check("analyze", code, an) == []
    bad = copy.deepcopy(an)
    bad["groups"][1]["error_full"] *= 1.0 + 1e-6
    assert check("analyze", 0, bad)
    bad = copy.deepcopy(an)
    bad["groups"][0]["full_better"] = not bad["groups"][0]["full_better"]
    assert check("analyze", 0, bad)


def test_checker_flags_nonzero_exit_and_missing_output(small_wide):
    check = Checker(small_wide)
    assert check("fit", 2, None) == ["fit: exit code 2"]
    assert check("simulate", "raised RuntimeError: boom", None)
    assert check("analyze", 0, None)


def test_checker_recomputes_construct_verdicts(tmp_path):
    instance = construct_instance(np.random.default_rng(2), d=12, n=4, unlabeled=14)
    check = Checker(instance)
    code, doc = _run_cli(tmp_path, ["construct", "--mode", "disjoint", "--n", "4"], instance)
    assert code == 0 and check("construct", code, doc) == []
    bad = copy.deepcopy(doc)
    bad["Z_test_full_wins"], bad["Z_test_core_wins"] = doc["Z_test_core_wins"], doc["Z_test_full_wins"]
    assert check("construct", 0, bad)
    code, rst = _run_cli(tmp_path, ["fit", "--model", "rst"], instance)
    assert code == 0 and check("fit", code, rst) == []


def test_checker_simulate_needs_three_sigma_and_table_gap(tmp_path):
    out = tmp_path / "tables.json"
    assert spurious_lens.cli.main(["simulate", "--scenario", "tables", "--output", str(out)]) == 0
    doc = json.loads(out.read_text())
    check = Checker(None)
    assert check("simulate", 0, doc) == []
    bad = copy.deepcopy(doc)
    next(iter(bad["quantities"].values()))["monte_carlo"] += 1e-6
    assert check("simulate", 0, bad)
    bad = dict(doc, three_sigma_ok=False)
    assert check("simulate", 0, bad)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_instances_are_byte_deterministic(name):
    w = WORKLOADS[name]
    first = w.instance_text(7)
    assert first == w.instance_text(7)
    assert first != w.instance_text(8)


def test_tracer_records_layers_and_restores_bindings(tmp_path, small_wide):
    originals = (spurious_lens.cli.projection, spurious_lens.minnorm.DesignMatrix.__post_init__, np.linalg.svd)
    tracer = Tracer()
    tracer.install(spurious_lens)
    try:
        assert spurious_lens.cli.projection is not originals[0]
        tracer.pass_no, tracer.active = 0, True
        code, _ = _run_cli(tmp_path, ["analyze"], small_wide)
        tracer.active = False
    finally:
        tracer.uninstall()
    assert code == 0
    assert (spurious_lens.cli.projection, spurious_lens.minnorm.DesignMatrix.__post_init__, np.linalg.svd) == originals
    totals = per_pass_totals(tracer.arrays())
    assert totals["cli.main"]["calls"][0] == 1
    assert totals["minnorm.projection"]["calls"][0] == 1
    assert totals["analysis.TestDistribution"]["calls"][0] == 3
    assert totals["analysis.removal_verdict"]["calls"][0] == 3
    assert totals["linalg.svd"]["calls"][0] >= 2
    assert totals["linalg.svd"]["value"][0] > 0
    assert totals["serialize.parse_instance"]["value"][0] == len(json.dumps(small_wide))
