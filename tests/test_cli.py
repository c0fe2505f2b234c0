import contextlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import spurious_lens
from spurious_lens.cli import main
from spurious_lens.serialize import csv_to_rows, dumps_canonical

GOLDEN = Path(__file__).resolve().parent / "golden"


def write_instance(tmp_path, doc, name="instance.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def table2_instance(tmp_path, **extra):
    doc = {
        "ground_truth": {"theta_star": [2.0, 2.0, 2.0], "beta_stars": [[1.0, 2.0, -2.0]]},
        "train": {"Z": [[1.0, 0.0, 0.0]], "S": [1.0], "Y": [2.0]},
        "groups": [
            {"label": "z2", "sigma": {"diag": [0.0, 1.0, 0.0]}},
            {"label": "z3", "sigma": [[0.0, 0.0, 0.0], [0.0, 0.0, 0.0], [0.0, 0.0, 1.0]]},
        ],
    }
    doc.update(extra)
    return write_instance(tmp_path, doc)


def run(capsys, argv):
    status = main(argv)
    out = capsys.readouterr()
    return status, out.out, out.err


def golden_instance():
    return json.loads((GOLDEN / "one_beta.instance.json").read_text())


# Edits under which `construct --mode balanced` reads S and Y from the
# scenario block: the train block then has no spurious column.
BALANCED_FROM_SCENARIO = {
    ("ground_truth", "beta_stars"): [],
    ("scenario", "Y"): [1.0, 2.0],
    ("scenario", "d"): 6,
}

# (id, {path into the golden one_beta instance: new value}, argv): each edit
# makes the input malformed; a missing block on the path is created empty
MALFORMED_INPUTS = [
    ("robust_samples_text", {("robust", "samples"): "abc"}, ["analyze"]),
    ("theta_star_nan", {("ground_truth", "theta_star", 0): float("nan")}, ["fit"]),
    ("train_S_text", {("train", "S"): "abc", ("train", "Y"): [1.0] * 5}, ["fit"]),
    ("construct_negative_x", {}, ["construct", "--mode", "disjoint", "--n", "4", "--x", "-1"]),
    ("train_Z_empty_row", {("train", "Z"): [[]]}, ["fit"]),
    ("group_sigma_not_square", {("groups", 0, "sigma"): [[1.0, 0.0]]}, ["analyze"]),
    ("beta_stars_number", {("ground_truth", "beta_stars"): 5}, ["fit"]),
    ("groups_number", {("groups",): 3}, ["analyze"]),
    ("scenario_trials_list", {("scenario", "trials"): [3]}, ["simulate", "--scenario", "example1"]),
    ("scenario_n_list", {("scenario", "n"): [3]}, ["simulate", "--scenario", "example1"]),
    ("scenario_threshold_9", {("scenario", "threshold"): 9}, ["simulate", "--scenario", "ovb-simple"]),
    (
        "scenario_S_text",
        {**BALANCED_FROM_SCENARIO, ("scenario", "S"): "abc"},
        ["construct", "--mode", "balanced"],
    ),
    (
        "scenario_S_nan",
        {**BALANCED_FROM_SCENARIO, ("scenario", "S"): [1.0, float("nan")]},
        ["construct", "--mode", "balanced"],
    ),
]


def set_field(doc, path, value):
    *parents, key = path
    target = doc
    for p in parents:
        target = target[p] if isinstance(target, list) else target.setdefault(p, {})
    target[key] = value


@pytest.mark.parametrize(
    "edits,argv", [c[1:] for c in MALFORMED_INPUTS], ids=[c[0] for c in MALFORMED_INPUTS]
)
def test_malformed_input_exits_2(capsys, tmp_path, edits, argv):
    doc = golden_instance()
    for path, value in edits.items():
        set_field(doc, path, value)
    status, out, err = run(capsys, argv + ["--instance", write_instance(tmp_path, doc)])
    assert status == 2
    assert out == ""
    assert err.startswith("input error") and "Traceback" not in err


# A valid scenario block for every command that reads one.
FUZZ_SCENARIO = {
    "n": 4, "x": 0.1, "d": 6, "S": [1.0, 2.0], "Y": [2.0, 1.0], "p": 0.5, "p_s": 0.5,
    "trials": 50, "sigma": 1.0, "gamma": 1.0, "threshold": 1.5,
}
FUZZ_FIELDS = [
    ("ground_truth",), ("ground_truth", "theta_star"), ("ground_truth", "beta_stars"),
    ("train",), ("train", "Z"), ("unlabeled",), ("unlabeled", "Zu"), ("unlabeled", "Su"),
    ("groups",), ("groups", 0), ("groups", 0, "sigma"), ("groups", 0, "label"),
    ("groups", 1, "sigma"), ("groups", 1, "sigma", "diag"),
    ("robust",), ("robust", "gamma"), ("robust", "norm_kind"), ("robust", "samples"),
    ("scenario",), *(("scenario", key) for key in FUZZ_SCENARIO),
]
FUZZ_COMMANDS = [
    *(["fit", "--model", m] for m in ("core", "full", "multi", "rst")),
    ["analyze"],
    ["construct", "--mode", "disjoint"],
    ["construct", "--mode", "balanced"],
    *(["simulate", "--scenario", s] for s in ("example1", "example2", "ovb-simple", "tables")),
]
JUNK = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-3, 8),
    st.sampled_from([float("nan"), float("inf"), -float("inf")]),
    st.text(max_size=3),
    st.sampled_from([[], [[]], [1.0, [2.0]], [[1.0], [2.0, 3.0]], [[1.0, 2.0], [3.0, 4.0]]]),
    st.dictionaries(st.sampled_from(["diag", "a"]), st.sampled_from([1.0, [1.0], [[1.0]]]), max_size=2),
)


@settings(max_examples=200, derandomize=True, deadline=None)
@given(field=st.sampled_from(FUZZ_FIELDS), junk=JUNK, argv=st.sampled_from(FUZZ_COMMANDS))
def test_junk_field_keeps_exit_contract(tmp_path_factory, field, junk, argv):
    doc = dict(golden_instance(), scenario=dict(FUZZ_SCENARIO))
    set_field(doc, field, junk)
    path = tmp_path_factory.getbasetemp() / "fuzz.instance.json"
    path.write_text(json.dumps(doc))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        status = main(argv + ["--instance", str(path)])
    assert status in (0, 2, 3, 4), err.getvalue()
    assert "Traceback" not in err.getvalue()
    assert status == 0 or out.getvalue() == ""


class TestFitCommand:
    def test_full_model_table2(self, capsys, tmp_path):
        path = table2_instance(tmp_path)
        status, out, _ = run(capsys, ["fit", "--instance", path, "--model", "full"])
        assert status == 0
        doc = json.loads(out)
        assert doc["theta_hat"] == pytest.approx([1.0, 0.0, 0.0])
        assert doc["w_hat"] == pytest.approx([1.0])
        assert doc["train_residual"] < 1e-10
        assert doc["seed"] == 0

    def test_core_model_without_groups(self, capsys, tmp_path):
        path = write_instance(
            tmp_path,
            {"train": {"Z": [[1.0, 0.0, 0.0]], "S": [1.0], "Y": [2.0]}},
        )
        status, out, _ = run(capsys, ["fit", "--instance", path, "--model", "core"])
        assert status == 0
        assert json.loads(out)["theta_hat"] == pytest.approx([2.0, 0.0, 0.0])

    def test_rst_model(self, capsys, tmp_path):
        path = write_instance(
            tmp_path,
            {
                "ground_truth": {"theta_star": [2.0, 2.0, 2.0], "beta_stars": [[1.0, 2.0, -2.0]]},
                "train": {"Z": [[1.0, 0.0, 0.0]]},
                "unlabeled": {
                    "Zu": [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0], [1.0, 1.0, 1.0]],
                    "Su": [1.0, 2.0, -2.0, 1.0],
                },
            },
        )
        status, out, _ = run(capsys, ["fit", "--instance", path, "--model", "rst"])
        assert status == 0
        assert json.loads(out)["theta_hat"] == pytest.approx([2.0, 2.0, -2.0])

    def test_multi_model(self, capsys, tmp_path):
        path = write_instance(
            tmp_path,
            {
                "ground_truth": {
                    "theta_star": [2.0, 2.0, 2.0],
                    "beta_stars": [[1.0, -3.0, 0.0], [1.0, 0.0, -3.0]],
                },
                "train": {"Z": [[1.0, 0.0, 0.0]]},
            },
        )
        status, out, _ = run(capsys, ["fit", "--instance", path, "--model", "multi"])
        assert status == 0
        doc = json.loads(out)
        assert doc["w_hat"] == pytest.approx([2 / 3, 2 / 3])
        assert doc["theta_hat"] == pytest.approx([2 / 3, 0.0, 0.0])

    def test_rank_precondition_exit_3(self, capsys, tmp_path):
        path = write_instance(
            tmp_path,
            {"train": {"Z": [[1.0, 0.0], [1.0, 0.0]], "S": [1.0, 1.0], "Y": [1.0, 2.0]}},
        )
        status, _, err = run(capsys, ["fit", "--instance", path, "--model", "core"])
        assert status == 3
        assert "rank" in err.lower()

    def test_inconsistent_truth_exit_2(self, capsys, tmp_path):
        # Y contradicts the attached ground truth: rejected at parse time
        path = write_instance(
            tmp_path,
            {
                "ground_truth": {"theta_star": [2.0, 2.0], "beta_stars": [[1.0, 0.0]]},
                "train": {"Z": [[1.0, 0.0]], "S": [1.0], "Y": [5.0]},
            },
        )
        status, _, err = run(capsys, ["fit", "--instance", path])
        assert status == 2

    def test_parse_error_exit_2(self, capsys, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        status, _, err = run(capsys, ["fit", "--instance", str(path)])
        assert status == 2
        assert "input error" in err

    def test_deeply_nested_json_exit_2(self, capsys, tmp_path):
        # json.loads gives up on this with a RecursionError
        path = tmp_path / "deep.json"
        path.write_text('{"scenario": {"n": ' + "[" * 100_000 + "]" * 100_000 + "}}")
        status, _, err = run(capsys, ["simulate", "--scenario", "tables", "--instance", str(path)])
        assert status == 2
        assert "input error" in err

    def test_missing_instance_exit_2(self, capsys):
        status, _, _ = run(capsys, ["fit"])
        assert status == 2

    def test_unknown_block_exit_2(self, capsys, tmp_path):
        path = write_instance(
            tmp_path, {"train": {"Z": [[1.0, 0.0]], "S": [1.0], "Y": [2.0]}, "bogus": {}}
        )
        status, _, err = run(capsys, ["fit", "--instance", path])
        assert status == 2
        assert "bogus" in err

    def test_group_dimension_mismatch_exit_2(self, capsys, tmp_path):
        path = write_instance(
            tmp_path,
            {
                "ground_truth": {"theta_star": [2.0, 2.0], "beta_stars": [[1.0, 0.0]]},
                "train": {"Z": [[1.0, 0.0]]},
                "groups": [{"label": "bad", "sigma": {"diag": [1.0, 1.0, 1.0]}}],
            },
        )
        status, _, _ = run(capsys, ["analyze", "--instance", path])
        assert status == 2

    def test_csv_projection_round_trips(self, capsys, tmp_path):
        path = table2_instance(tmp_path)
        status, out, _ = run(capsys, ["fit", "--instance", path, "--format", "csv"])
        assert status == 0
        rows = csv_to_rows(out)
        theta = [r["value"] for r in rows if r["name"] == "theta_hat"]
        assert theta == pytest.approx([1.0, 0.0, 0.0])


class TestAnalyzeCommand:
    def test_table2_groups(self, capsys, tmp_path):
        path = table2_instance(tmp_path)
        status, out, _ = run(capsys, ["analyze", "--instance", path])
        assert status == 0
        doc = json.loads(out)
        by_label = {g["group"]: g for g in doc["groups"]}
        assert by_label["z2"]["full_better"] is True
        assert by_label["z3"]["full_better"] is False
        assert by_label["z2"]["error_core"] == pytest.approx(4.0)
        assert by_label["z2"]["error_full"] == pytest.approx(0.0, abs=1e-12)
        assert by_label["z3"]["error_full"] == pytest.approx(16.0)
        assert by_label["z2"]["delta"] == pytest.approx(4.0)
        assert by_label["z3"]["delta"] == pytest.approx(-12.0)

    def test_zero_sigma_reports_tie(self, capsys, tmp_path):
        path = write_instance(
            tmp_path,
            {
                "ground_truth": {"theta_star": [2.0, 2.0, 2.0], "beta_stars": [[1.0, 2.0, -2.0]]},
                "train": {"Z": [[1.0, 0.0, 0.0]]},
                "groups": [{"label": "null", "sigma": {"diag": [0.0, 0.0, 0.0]}}],
            },
        )
        status, out, _ = run(capsys, ["analyze", "--instance", path])
        assert status == 0
        row = json.loads(out)["groups"][0]
        assert row["tie"] is True and row["full_better"] is False
        assert row["delta"] == pytest.approx(0.0, abs=1e-12)

    def test_robust_rows(self, capsys, tmp_path):
        path = table2_instance(tmp_path, robust={"gamma": 6.0, "norm_kind": "l2", "samples": 500})
        status, out, _ = run(capsys, ["analyze", "--instance", path, "--seed", "3"])
        assert status == 0
        doc = json.loads(out)
        for row in doc["robust"]:
            assert row["robust_core"] <= row["robust_full"] + 1e-9

    def test_csv_round_trip(self, capsys, tmp_path):
        path = table2_instance(tmp_path)
        status, csv_out, _ = run(capsys, ["analyze", "--instance", path, "--format", "csv"])
        assert status == 0
        status, json_out, _ = run(capsys, ["analyze", "--instance", path])
        doc = json.loads(json_out)
        rows = csv_to_rows(csv_out)
        assert len(rows) == len(doc["groups"])
        for row, ref in zip(rows, doc["groups"]):
            assert row["group"] == ref["group"]
            assert row["error_core"] == pytest.approx(ref["error_core"])
            assert row["full_better"] == ref["full_better"]

    def test_fifty_random_groups_verdicts_consistent(self, capsys, tmp_path):
        rng = np.random.default_rng(99)
        groups = []
        for i in range(50):
            a = rng.standard_normal((3, 3))
            groups.append({"label": f"g{i}", "sigma": (a @ a.T).tolist()})
        path = table2_instance(tmp_path)
        doc = json.loads((tmp_path / "instance.json").read_text())
        doc["groups"] = groups
        path = write_instance(tmp_path, doc, name="many_groups.json")
        status, out, _ = run(capsys, ["analyze", "--instance", path])
        assert status == 0
        for row in json.loads(out)["groups"]:
            if abs(row["delta"]) > 1e-9:
                assert row["full_better"] == (row["delta"] > 0)

    def test_missing_groups_exit_2(self, capsys, tmp_path):
        path = write_instance(
            tmp_path,
            {
                "ground_truth": {"theta_star": [2.0, 2.0], "beta_stars": [[1.0, 0.0]]},
                "train": {"Z": [[1.0, 0.0]]},
            },
        )
        status, _, _ = run(capsys, ["analyze", "--instance", path])
        assert status == 2

    def test_sampler_exhaustion_exit_3(self, capsys, tmp_path):
        doc = golden_instance()
        doc["robust"]["gamma"] = 1e-3
        status, _, err = run(capsys, ["analyze", "--instance", write_instance(tmp_path, doc)])
        assert status == 3
        assert "gamma is too small" in err


class TestConstructCommand:
    def test_balanced_mode(self, capsys, tmp_path):
        path = write_instance(
            tmp_path, {"scenario": {"S": [1.0, 1.0], "Y": [1.0, 0.0], "d": 4}}
        )
        status, out, _ = run(capsys, ["construct", "--mode", "balanced", "--instance", path])
        assert status == 0
        doc = json.loads(out)
        assert doc["verified"] is True
        assert doc["verdict_full_wins"]["full_better"] is True
        assert doc["verdict_core_wins"]["full_better"] is False
        z = np.asarray(doc["Z_test_full_wins"])
        beta = np.asarray(doc["beta_star"])
        assert z @ beta == pytest.approx([1.0, 1.0])

    def test_disjoint_mode_with_flags(self, capsys, tmp_path):
        path = write_instance(
            tmp_path,
            {"ground_truth": {"theta_star": [1.0, 0.0, 1.0, 0.0], "beta_stars": [[0.0, 1.0, 0.0, 1.0]]}},
        )
        status, out, _ = run(
            capsys,
            ["construct", "--mode", "disjoint", "--instance", path, "--n", "2", "--x", "0.1"],
        )
        assert status == 0
        doc = json.loads(out)
        assert doc["x_param"] == pytest.approx(0.1)
        assert doc["verdict_core_wins"]["error_full"] > doc["verdict_core_wins"]["error_core"]

    @pytest.mark.parametrize("x", ["1e160", "1e300"])
    def test_disjoint_mode_huge_scale(self, capsys, x):
        path = str(GOLDEN / "one_beta.instance.json")
        status, out, err = run(
            capsys, ["construct", "--mode", "disjoint", "--instance", path, "--n", "4", "--x", x]
        )
        assert status == 0 and err == ""
        doc = json.loads(out)
        assert doc["verified"] is True
        assert doc["x_param"] == float(x)

    def test_parallel_parameters_exit_4(self, capsys, tmp_path):
        path = write_instance(
            tmp_path,
            {"ground_truth": {"theta_star": [1.0, 0.0, 1.0, 0.0], "beta_stars": [[2.0, 0.0, 2.0, 0.0]]}},
        )
        status, _, err = run(capsys, ["construct", "--mode", "disjoint", "--instance", path, "--n", "2"])
        assert status == 4
        assert "construction precondition" in err

    def test_parallel_targets_exit_4(self, capsys, tmp_path):
        path = write_instance(tmp_path, {"scenario": {"S": [1.0, 2.0], "Y": [3.0, 6.0], "d": 4}})
        status, _, _ = run(capsys, ["construct", "--mode", "balanced", "--instance", path])
        assert status == 4

    def test_csv_projection(self, capsys, tmp_path):
        path = write_instance(tmp_path, {"scenario": {"S": [1.0, 1.0], "Y": [1.0, 0.0], "d": 4}})
        status, out, _ = run(
            capsys, ["construct", "--mode", "balanced", "--instance", path, "--format", "csv"]
        )
        assert status == 0
        rows = csv_to_rows(out)
        assert [r["which"] for r in rows] == ["full_wins", "core_wins"]
        assert rows[0]["full_better"] is True and rows[1]["full_better"] is False


class TestSimulateCommand:
    def test_tables_reproduce(self, capsys):
        status, out, _ = run(capsys, ["simulate", "--scenario", "tables"])
        assert status == 0
        doc = json.loads(out)
        assert doc["three_sigma_ok"] is True
        assert doc["quantities"]["table2.full.w"]["monte_carlo"] == 1.0

    def test_example1_report(self, capsys):
        status, out, _ = run(
            capsys, ["simulate", "--scenario", "example1", "--trials", "400", "--seed", "7"]
        )
        assert status == 0
        doc = json.loads(out)
        assert doc["three_sigma_ok"] is True
        assert doc["params"] == {"n": 20, "p": 0.9, "trials": 400}
        assert doc["seed"] == 7

    def test_example1_bad_probability_exit_2(self, capsys, tmp_path):
        path = write_instance(tmp_path, {"scenario": {"p": 1.5}})
        status, _, err = run(
            capsys, ["simulate", "--scenario", "example1", "--instance", path, "--trials", "10"]
        )
        assert status == 2
        assert "bad scenario parameters" in err

    def test_example2_and_ovb_simple(self, capsys):
        status, out, _ = run(
            capsys, ["simulate", "--scenario", "example2", "--trials", "150", "--seed", "2"]
        )
        assert status == 0
        assert "err_without" in json.loads(out)["quantities"]
        status, out, _ = run(
            capsys, ["simulate", "--scenario", "ovb-simple", "--trials", "20000", "--seed", "2"]
        )
        assert status == 0
        assert json.loads(out)["verdicts"]["group_prefers_core"] is True

    def test_unknown_scenario_exit_2(self, capsys):
        status, _, _ = run(capsys, ["simulate", "--scenario", "nope"])
        assert status == 2

    def test_csv_round_trip(self, capsys):
        status, out, _ = run(
            capsys,
            ["simulate", "--scenario", "example1", "--trials", "50", "--format", "csv"],
        )
        assert status == 0
        rows = csv_to_rows(out)
        labels = [r["label"] for r in rows]
        assert labels == ["E_w", "E_theta_i", "E_loss", "E_loss_s0", "E_loss_s1"]
        assert rows[2]["closed_form"] is None


class TestDeterminism:
    def test_byte_identical_json(self, capsys, tmp_path):
        path = table2_instance(tmp_path, robust={"gamma": 6.0, "samples": 300})
        argv = ["analyze", "--instance", path, "--seed", "13"]
        status1, out1, _ = run(capsys, argv)
        status2, out2, _ = run(capsys, argv)
        assert status1 == status2 == 0
        assert out1 == out2
        argv = ["simulate", "--scenario", "example1", "--trials", "300", "--seed", "42"]
        _, out1, _ = run(capsys, argv)
        _, out2, _ = run(capsys, argv)
        assert out1 == out2

    def test_output_file_matches_stdout(self, capsys, tmp_path):
        path = table2_instance(tmp_path)
        out_file = tmp_path / "report.json"
        status, _, _ = run(capsys, ["analyze", "--instance", path, "--output", str(out_file)])
        assert status == 0
        status, stdout, _ = run(capsys, ["analyze", "--instance", path])
        assert out_file.read_text() == stdout

    def test_canonical_float_formatting(self):
        text = dumps_canonical({"x": 0.1, "n": 3, "flag": True, "none": None})
        assert text == '{"flag": true, "n": 3, "none": null, "x": 0.10000000000000001}\n'
        assert json.loads(text)["x"] == 0.1


class TestModuleEntryPoint:
    def test_python_dash_m(self, tmp_path):
        doc = {"train": {"Z": [[1.0, 0.0]], "S": [1.0], "Y": [2.0]}}
        path = tmp_path / "inst.json"
        path.write_text(json.dumps(doc))
        # the child imports the same package as this process, installed or not
        src = str(Path(spurious_lens.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        proc = subprocess.run(
            [sys.executable, "-m", "spurious_lens", "fit", "--instance", str(path)],
            capture_output=True,
            text=True,
            env=env,
        )
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["w_hat"] == pytest.approx([1.0])
