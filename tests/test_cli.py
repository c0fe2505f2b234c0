import contextlib
import csv
import dataclasses
import io
import json
import os
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import spurious_lens
from spurious_lens import scenarios
from spurious_lens.cli import main
from spurious_lens.serialize import dumps_canonical

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


def csv_to_rows(text):
    """The rows of a CSV report, each cell read back as the value written:
    an empty cell as None, true/false as bools, a number as an int or float."""

    def cell(value):
        if value == "":
            return None
        if value in ("true", "false"):
            return value == "true"
        for kind in (int, float):
            with contextlib.suppress(ValueError):
                return kind(value)
        return value

    return [{key: cell(value) for key, value in row.items()} for row in csv.DictReader(io.StringIO(text))]


def child_env(**env):
    """This process's environment with env added, for a child that imports the
    same package as this process, installed or not."""
    src = str(Path(spurious_lens.__file__).resolve().parents[1])
    return dict(os.environ, **env, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))


def run_process(argv, text=True, **env):
    """python -m spurious_lens argv in a fresh process, with env added to this one's."""
    return subprocess.run(
        [sys.executable, "-m", "spurious_lens", *argv], capture_output=True, text=text, env=child_env(**env)
    )


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
# makes the input malformed; a missing block on the path is created empty.
# In place of the edits, bytes are the whole instance file.
MALFORMED_INPUTS = [
    ("instance_not_utf8", b"\xff{}", ["fit", "--model", "core"]),
    # a NaN or an overflowing number in an interior row of a matrix
    (
        "train_Z_row2_nan",
        b'{"train": {"Z": [[1.0, 0.0], [NaN, 0.0], [0.0, 1.0], [1.0, 1.0]], "S": [1, 2, 3, 4], "Y": [1, 2, 3, 4]}}',
        ["fit"],
    ),
    (
        "train_Z_row3_1e400",
        b'{"train": {"Z": [[1.0, 0.0], [0.0, 2.0], [1e400, 1.0], [1.0, 1.0]], "S": [1, 2, 3, 4], "Y": [1, 2, 3, 4]}}',
        ["fit"],
    ),
    ("robust_samples_text", {("robust", "samples"): "abc"}, ["analyze"]),
    ("robust_samples_1e300", {("robust", "samples"): 1e300}, ["analyze"]),
    ("robust_samples_1e9", {("robust", "samples"): 1e9}, ["analyze"]),
    ("group_diag_negative_analyze", {("groups", 1, "sigma", "diag", 11): -1e-3}, ["analyze"]),
    ("group_diag_negative_fit", {("groups", 1, "sigma", "diag", 11): -1e-3}, ["fit"]),
    ("theta_star_nan", {("ground_truth", "theta_star", 0): float("nan")}, ["fit"]),
    ("train_S_text", {("train", "S"): "abc", ("train", "Y"): [1.0] * 5}, ["fit"]),
    ("construct_negative_x", {}, ["construct", "--mode", "disjoint", "--n", "4", "--x", "-1"]),
    ("train_Z_empty_row", {("train", "Z"): [[]]}, ["fit"]),
    ("group_sigma_not_square", {("groups", 0, "sigma"): [[1.0, 0.0]]}, ["analyze"]),
    # only the {"diag": [...]} form is a diagonal; a list must spell out d x d
    ("group_sigma_flat_list", {("groups", 0, "sigma"): [1.0] * 12}, ["analyze"]),
    ("robust_samples_fractional", {("robust", "samples"): 4096.5}, ["analyze"]),
    ("scenario_n_fractional", {("scenario", "n"): 4.5}, ["construct", "--mode", "disjoint"]),
    ("scenario_trials_fractional", {("scenario", "trials"): 50.5}, ["simulate", "--scenario", "example1"]),
    ("beta_stars_number", {("ground_truth", "beta_stars"): 5}, ["fit"]),
    ("groups_number", {("groups",): 3}, ["analyze"]),
    ("scenario_trials_list", {("scenario", "trials"): [3]}, ["simulate", "--scenario", "example1"]),
    ("scenario_n_list", {("scenario", "n"): [3]}, ["simulate", "--scenario", "example1"]),
    ("scenario_threshold_9", {("scenario", "threshold"): 9}, ["simulate", "--scenario", "ovb-simple"]),
    (
        "balanced_d_1e300",
        {**BALANCED_FROM_SCENARIO, ("scenario", "S"): [2.0, 1.0], ("scenario", "d"): 1e300},
        ["construct", "--mode", "balanced"],
    ),
    (
        "balanced_d_1e12",
        {**BALANCED_FROM_SCENARIO, ("scenario", "S"): [2.0, 1.0], ("scenario", "d"): 1e12},
        ["construct", "--mode", "balanced"],
    ),
    (
        "scenario_d_fractional",
        {**BALANCED_FROM_SCENARIO, ("scenario", "S"): [2.0, 1.0], ("scenario", "d"): 6.5},
        ["construct", "--mode", "balanced"],
    ),
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
    (
        "scenario_S_Y_lengths",
        {**BALANCED_FROM_SCENARIO, ("scenario", "S"): [2.0, 1.0, 3.0]},
        ["construct", "--mode", "balanced"],
    ),
    # sizes past scenarios.MAX_DRAWS and MAX_IDENTITY_DIM, whose first allocation fails at once
    *(
        (f"{s}_trials_1e11", {}, ["simulate", "--scenario", s, "--trials", "100000000000"])
        for s in ("example1", "example2", "ovb-simple")
    ),
    *((f"{s}_n_1e11", {("scenario", "n"): 1e11}, ["simulate", "--scenario", s]) for s in ("example1", "example2")),
    # a block a command needs is missing, or the document is not an object
    ("instance_top_level_array", b"[1.0, 2.0]", ["fit"]),
    ("train_Z_only_without_truth", b'{"train": {"Z": [[1.0, 0.0]]}}', ["fit"]),
    ("fit_without_train", b'{"ground_truth": {"theta_star": [1.0, 0.0]}}', ["fit"]),
    (
        "fit_rst_without_unlabeled",
        b'{"train": {"Z": [[1.0, 0.0]], "S": [1.0], "Y": [2.0]}}',
        ["fit", "--model", "rst"],
    ),
    ("analyze_without_truth", b'{"train": {"Z": [[1.0, 0.0]], "S": [1.0], "Y": [2.0]}}', ["analyze"]),
    ("disjoint_without_truth", b'{"scenario": {"n": 4}}', ["construct", "--mode", "disjoint"]),
    ("disjoint_without_n", {}, ["construct", "--mode", "disjoint"]),
    ("balanced_without_S_Y", {("ground_truth", "beta_stars"): []}, ["construct", "--mode", "balanced", "--d", "12"]),
    # an unlabeled block whose columns do not match the training block
    (
        "rst_Zu_11_columns",
        {("unlabeled", "Zu"): [row[:11] for row in golden_instance()["unlabeled"]["Zu"]]},
        ["fit", "--model", "rst"],
    ),
    (
        "rst_Su_2_columns",
        {("unlabeled", "Su"): [[v, v] for v in golden_instance()["unlabeled"]["Su"]]},
        ["fit", "--model", "rst"],
    ),
    # train S and Y that the attached ground truth does not produce
    (
        "truth_wrong_dimension",
        b'{"ground_truth": {"theta_star": [1.0, 0.0, 0.0], "beta_stars": [[0.0, 1.0, 0.0]]}, '
        b'"train": {"Z": [[1.0, 0.0]], "S": [0.0], "Y": [1.0]}}',
        ["fit"],
    ),
    (
        "truth_wrong_beta_count",
        b'{"ground_truth": {"theta_star": [1.0, 0.0], "beta_stars": [[0.0, 1.0], [1.0, 1.0]]}, '
        b'"train": {"Z": [[1.0, 0.0]], "S": [0.0], "Y": [1.0]}}',
        ["fit"],
    ),
    (
        "truth_Y_not_Z_theta",
        b'{"ground_truth": {"theta_star": [1.0, 0.0], "beta_stars": [[0.0, 1.0]]}, '
        b'"train": {"Z": [[1.0, 0.0]], "S": [0.0], "Y": [5.0]}}',
        ["fit"],
    ),
]


def set_field(doc, path, value):
    *parents, key = path
    target = doc
    for p in parents:
        target = target[p] if isinstance(target, list) else target.setdefault(p, {})
    target[key] = value


def scale_field(doc, path, scale):
    value = doc
    for key in path:
        value = value[key]
    set_field(doc, path, (np.asarray(value) * scale).tolist())


@pytest.mark.parametrize(
    "path,argv",
    [
        (("robust", "samples"), ["analyze"]),
        (("scenario", "n"), ["construct", "--mode", "disjoint"]),
        (("scenario", "trials"), ["simulate", "--scenario", "example1"]),
    ],
)
def test_integer_valued_float_reads_as_its_integer(capsys, tmp_path, path, argv):
    outputs = []
    for value in (6, 6.0):
        doc = golden_instance()
        set_field(doc, path, value)
        status, out, err = run(capsys, argv + ["--instance", write_instance(tmp_path, doc)])
        assert status == 0, err
        outputs.append(out)
    assert outputs[0] == outputs[1]


@pytest.mark.parametrize(
    "edits,argv", [c[1:] for c in MALFORMED_INPUTS], ids=[c[0] for c in MALFORMED_INPUTS]
)
def test_malformed_input_exits_2(capsys, tmp_path, edits, argv):
    path = tmp_path / "instance.json"
    if isinstance(edits, bytes):
        path.write_bytes(edits)
    else:
        doc = golden_instance()
        for field, value in edits.items():
            set_field(doc, field, value)
        path.write_text(json.dumps(doc))
    status, out, err = run(capsys, argv + ["--instance", str(path)])
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
    st.sampled_from([1e300, -1e300, 1e-300, 5e-324, 1.7976931348623157e308]),
    st.text(max_size=3),
    st.sampled_from([[], [[]], [1.0, [2.0]], [[1.0], [2.0, 3.0]], [[1.0, 2.0], [3.0, 4.0]]]),
    st.dictionaries(st.sampled_from(["diag", "a"]), st.sampled_from([1.0, [1.0], [[1.0]]]), max_size=2),
)


# Exit 1 is a verification failure: the disjoint construction at an x so
# small that x * a1 loses its direction. The largest float overflows the
# ovb-simple decision rule, which must exit 3 without a RuntimeWarning.
@settings(max_examples=200, derandomize=True, deadline=None)
@given(field=st.sampled_from(FUZZ_FIELDS), junk=JUNK, argv=st.sampled_from(FUZZ_COMMANDS))
@example(field=("scenario", "x"), junk=5e-324, argv=["construct", "--mode", "disjoint"])
@example(field=("scenario", "sigma"), junk=1.7976931348623157e308, argv=["simulate", "--scenario", "ovb-simple"])
@example(field=("scenario", "gamma"), junk=1.7976931348623157e308, argv=["simulate", "--scenario", "ovb-simple"])
def test_junk_field_keeps_exit_contract(tmp_path_factory, field, junk, argv):
    doc = dict(golden_instance(), scenario=dict(FUZZ_SCENARIO))
    set_field(doc, field, junk)
    path = tmp_path_factory.getbasetemp() / "fuzz.instance.json"
    path.write_text(json.dumps(doc))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        status = main(argv + ["--instance", str(path)])
    assert status in (0, 2, 3, 4) or (
        status == 1 and err.getvalue().startswith("verification failed")
    ), err.getvalue()
    assert "Traceback" not in err.getvalue()
    assert status == 0 or out.getvalue() == ""


# Scaling one block of the golden instance far up or down keeps every fit,
# analyze and both constructions inside the exit contract: a number that
# leaves the float range ends in a typed error (exit 3, or exit 1 with a
# failed verification), never in a RuntimeWarning or a traceback.
SCALED_FIELDS = [
    ("ground_truth", "theta_star"), ("ground_truth", "beta_stars"), ("train", "Z"),
    ("unlabeled", "Zu"), ("unlabeled", "Su"), ("groups", 0, "sigma"),
    ("groups", 1, "sigma", "diag"), ("robust", "gamma"),
]


@pytest.mark.parametrize("scale", [1e160, 1e-200, 1e300, 1e-300])
@pytest.mark.parametrize("path", SCALED_FIELDS, ids=[".".join(map(str, p)) for p in SCALED_FIELDS])
def test_scaled_field_keeps_exit_contract(capsys, tmp_path, path, scale):
    doc = golden_instance()
    scale_field(doc, path, scale)
    instance = write_instance(tmp_path, doc)
    for argv in (
        *(["fit", "--model", model] for model in ("core", "full", "multi", "rst")),
        ["analyze", "--seed", "3"],
        ["construct", "--mode", "disjoint", "--n", "4"],
        ["construct", "--mode", "balanced", "--d", "12"],
    ):
        status, out, err = run(capsys, argv + ["--instance", instance])
        assert status in (0, 2, 3, 4) or err.startswith("verification failed"), err
        assert "Traceback" not in err
        assert status == 0 or out == ""


# Two blocks scaled at once, each case with its exit code and message. A
# product of two large blocks overflows while S and Y are generated (exit 2);
# large targets with a large spurious column overflow A'b (exit 3 from the
# report, not from the interpolation check); a column far below the design's
# scale beside a huge one is fitted (exit 0); overflowing pseudo-labels (a
# non-finite residual on both passes of the RST solve) and an overflowing
# robust slack exit 3. None prints a RuntimeWarning.
TWO_BLOCK_CASES = [
    ("Z_1e150_beta_1e300", "one_beta", {("train", "Z"): 1e150, ("ground_truth", "beta_stars"): 1e300},
     ["fit"], 2, "input error: train invalid: S contains non-finite entries"),
    ("Z_1e150_theta_1e300", "one_beta", {("train", "Z"): 1e150, ("ground_truth", "theta_star"): 1e300},
     ["fit"], 2, "input error: train invalid: Y contains non-finite entries"),
    ("theta_1e300_beta_1e150", "one_beta", {("ground_truth", "theta_star"): 1e300, ("ground_truth", "beta_stars"): 1e150},
     ["fit", "--model", "full"], 3, "numerical precondition failed: not finite in the fit report"),
    ("betas_1e200_1e-200", "two_betas", {("ground_truth", "beta_stars", 0): 1e200, ("ground_truth", "beta_stars", 1): 1e-200},
     ["fit", "--model", "multi"], 0, ""),
    ("betas_1e160_1e-160", "two_betas", {("ground_truth", "beta_stars", 0): 1e160, ("ground_truth", "beta_stars", 1): 1e-160},
     ["fit", "--model", "multi"], 0, ""),
    ("theta_1e300_Zu_1e150", "one_beta", {("ground_truth", "theta_star"): 1e300, ("unlabeled", "Zu"): 1e150},
     ["fit", "--model", "rst"], 3, "numerical precondition failed: labels and pseudo-labels cannot be interpolated"),
    ("theta_1e150_Su_1e300", "one_beta", {("ground_truth", "theta_star"): 1e150, ("unlabeled", "Su"): 1e300},
     ["fit", "--model", "rst"], 3, "numerical precondition failed: labels and pseudo-labels cannot be interpolated"),
    ("theta_1e150_gamma_1e300", "one_beta", {("ground_truth", "theta_star"): 1e150, ("robust", "gamma"): 1e300},
     ["analyze"], 3, "numerical precondition failed: robust full error is not finite"),
]


@pytest.mark.parametrize(
    "name,scales,argv,status,message", [c[1:] for c in TWO_BLOCK_CASES], ids=[c[0] for c in TWO_BLOCK_CASES]
)
def test_two_scaled_blocks_keep_exit_contract(capsys, tmp_path, name, scales, argv, status, message):
    doc = json.loads((GOLDEN / f"{name}.instance.json").read_text())
    for path, scale in scales.items():
        scale_field(doc, path, scale)
    got, out, err = run(capsys, argv + ["--instance", write_instance(tmp_path, doc)])
    assert got == status, err
    assert err.startswith(message) and (status == 0) == (err == "")
    if status == 0:
        w = np.asarray(json.loads(out)["w_hat"])
        assert np.all(np.isfinite(w)) and np.all(w != 0.0)


# A design is factored only where it is used: both constructions take their
# projector from an orthonormal basis they build (the disjoint one from its
# orthonormal training rows, the balanced one from e1 and e2). A fit reads
# its design's QR and takes no SVD where ||R||_F ||R^-1||_F <= 0.5 / RANK_RTOL
# settles the rank, as it does for the golden design and, in the RST fit, for
# R11 of its unlabeled block; the SVD rule decides everywhere else. analyze
# takes two SVDs of R: its values for the rank and, with its vectors, the
# projector's basis.
@pytest.mark.parametrize("argv,calls", [
    (["construct", "--mode", "disjoint", "--n", "4"], 0),
    (["construct", "--mode", "balanced", "--d", "12"], 0),
    (["analyze", "--seed", "3"], 2),
    (["fit", "--model", "rst"], 0),
    (["fit", "--model", "full"], 0),
    (["fit", "--model", "core"], 0),
])
def test_svd_calls_per_command(capsys, monkeypatch, argv, calls):
    svd = np.linalg.svd
    seen = []
    monkeypatch.setattr(np.linalg, "svd", lambda *a, **k: seen.append(a[0].shape) or svd(*a, **k))
    status, _, err = run(capsys, argv + ["--instance", str(GOLDEN / "one_beta.instance.json")])
    assert status == 0, err
    assert len(seen) == calls, seen


# Where ||R||_F ||R^-1||_F cannot be formed the SVD rule decides the rank, as
# it always did: an exactly singular R (a zero row of Z), a design with more
# rows than columns, and one whose norms overflow (entries near 1e300, with
# the third row twice the first) all exit 3 with the rank message.
RANK_EDGE_CASES = {
    "zero_row": ("one_beta", lambda z: [[0.0] * len(z[0])] + z[1:], "5x12"),
    "more_rows": ("one_beta", lambda z: [row[:4] for row in z], "5x4"),
    "huge_entries": ("rank_deficient", lambda z: (1e300 * np.asarray(z)).tolist(), "3x12"),
}


@pytest.mark.parametrize("case", sorted(RANK_EDGE_CASES))
@pytest.mark.parametrize("model", ["core", "full", "multi"])
def test_rank_edge_cases_exit_3(capsys, tmp_path, case, model):
    name, edit, shape = RANK_EDGE_CASES[case]
    doc = json.loads((GOLDEN / f"{name}.instance.json").read_text())
    doc["train"]["Z"] = edit(doc["train"]["Z"])
    if case == "more_rows":
        doc["ground_truth"] = {key: np.asarray(v)[..., :4].tolist() for key, v in doc["ground_truth"].items()}
    status, out, err = run(capsys, ["fit", "--model", model, "--instance", write_instance(tmp_path, doc)])
    assert (status, out) == (3, "")
    assert err == (
        f"numerical precondition failed: design matrix ({shape}) is rank-deficient or has more rows than columns\n"
    )


# One analyze draws each of the seed's normal batches once and hands it to
# every group. Five groups share one spectrum, so each keeps the same rows of
# the same B batches; the draws are B, not one set of B per group.
def test_normal_batches_per_analyze(capsys, tmp_path, monkeypatch):
    calls = []

    class CountingGenerator(np.random.Generator):
        def standard_normal(self, *args, **kwargs):
            calls.append(args)
            return super().standard_normal(*args, **kwargs)

    monkeypatch.setattr(np.random, "default_rng", lambda seed=None: CountingGenerator(np.random.PCG64(seed)))
    doc = golden_instance()
    diag = np.linspace(0.5, 2.0, 12)
    doc["robust"]["gamma"] = 3.6
    groups = [{"label": f"g{i}", "sigma": {"diag": np.roll(diag, i).tolist()}} for i in range(5)]
    draws = []
    for some in (groups[:1], groups):
        calls.clear()
        path = write_instance(tmp_path, dict(doc, groups=some))
        status, _, err = run(capsys, ["analyze", "--seed", "3", "--instance", path])
        assert status == 0, err
        draws.append(len(calls))
    assert draws == [3, 3]


# The RST fit reads theta and Zu's rank from one QR of [Zu | pseudo] (the
# second SVD above is of its leading block), with no least-squares solve.
def test_rst_fit_makes_no_lstsq_call(capsys, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("fit --model rst called lstsq")

    monkeypatch.setattr(np.linalg, "lstsq", refuse)
    status, _, err = run(capsys, ["fit", "--model", "rst", "--instance", str(GOLDEN / "one_beta.instance.json")])
    assert status == 0, err


# Each construction writes its vectors in closed form, with no least-squares solve.
@pytest.mark.parametrize("argv", [
    ["construct", "--mode", "disjoint", "--n", "4"],
    ["construct", "--mode", "balanced", "--d", "12"],
])
def test_construct_makes_no_lstsq_call(capsys, monkeypatch, argv):
    def refuse(*args, **kwargs):
        raise AssertionError("construct called lstsq")

    monkeypatch.setattr(np.linalg, "lstsq", refuse)
    status, _, err = run(capsys, argv + ["--instance", str(GOLDEN / "one_beta.instance.json")])
    assert status == 0, err


# The balanced construction decides rank on its stored columns S and Y - S.
# At sin(S, Y) = 1e-5 they span e1 and e2, so the bundle verifies; when Y is
# far below S, fl(Y - S) = -S and the training design has rank 1.
@pytest.mark.parametrize("s,y,status", [
    ([1.0, 0.0], [1e7, 100.0], 0),
    ([1.0, 0.0], [1e7, 1e-3], 0),
    ([1.0, 2.0], [3e-17, -1e-17], 4),
])
def test_balanced_rank_decided_on_stored_columns(capsys, tmp_path, s, y, status):
    path = write_instance(tmp_path, {"scenario": {"S": s, "Y": y}})
    got, out, err = run(capsys, ["construct", "--mode", "balanced", "--d", "6", "--instance", path])
    assert got == status, err
    if status == 0:
        assert json.loads(out)["verified"] is True
    else:
        assert out == "" and err.startswith("construction precondition failed: Y is a scalar multiple of S")


# fl(Y - S) + S must reproduce Y before the designs are built: with S = [1e20, 0]
# and Y = [1, 1e20], fl(1 - 1e20) = -1e20 absorbs Y's first entry. The test is
# relative to each entry, so the same absorption at any scale is refused.
def test_balanced_absorbed_target_is_a_precondition_failure(capsys, tmp_path):
    for s, y in ([1e20, 0.0], [1.0, 1e20]), ([1e-3, 0.0], [1e-20, 1e-3]), ([1.0, 0.0], [1e-17, 1.0]):
        path = write_instance(tmp_path, {"scenario": {"S": s, "Y": y}})
        got, out, err = run(capsys, ["construct", "--mode", "balanced", "--d", "6", "--instance", path])
        assert got == 4 and out == "", (s, y)
        assert err.startswith("construction precondition failed: Y - S rounds off an entry of Y")


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

    @staticmethod
    def rst_instance(tmp_path, zu, su=None):
        """A d = 6, n = 2 instance with unlabeled block (zu, su); su defaults to zu beta*."""
        rng = np.random.default_rng(23)
        d = zu.shape[1]
        beta = rng.standard_normal(d)
        su = zu @ beta if su is None else su
        return write_instance(tmp_path, {
            "ground_truth": {"theta_star": rng.standard_normal(d).tolist(), "beta_stars": [beta.tolist()]},
            "train": {"Z": rng.standard_normal((2, d)).tolist()},
            "unlabeled": {"Zu": zu.tolist(), "Su": su.tolist()},
        })

    # Pseudo-labels of order 1e200 square past the float range; their
    # inconsistency must still be caught, with no RuntimeWarning.
    def test_rst_inconsistent_at_huge_magnitude_exit_3(self, capsys, tmp_path):
        rng = np.random.default_rng(24)
        zu = 1e200 * rng.standard_normal((8, 6))
        path = self.rst_instance(tmp_path, zu, 1e200 * rng.standard_normal(8))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            status, out, err = run(capsys, ["fit", "--model", "rst", "--instance", path])
        assert status == 3 and out == ""
        assert "cannot be interpolated" in err

    # smin/smax = 3e-11 passes numpy's max(m, d) * eps rank rule but not
    # RANK_RTOL, so these consistent pseudo-labels are refused.
    def test_rst_unlabeled_rank_follows_rank_rtol_exit_3(self, capsys, tmp_path):
        rng = np.random.default_rng(25)
        u, _, vt = np.linalg.svd(rng.standard_normal((8, 6)), full_matrices=False)
        zu = u @ np.diag([1.0, 0.8, 0.6, 0.4, 0.2, 3e-11]) @ vt
        path = self.rst_instance(tmp_path, zu)
        status, out, err = run(capsys, ["fit", "--model", "rst", "--instance", path])
        assert status == 3 and out == ""
        assert "must have full column rank" in err

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

    def test_truth_dimension_mismatch_exit_2(self, capsys, tmp_path):
        # S and Y come from a truth in 3 dimensions on a design with 2 columns
        path = write_instance(
            tmp_path,
            {
                "ground_truth": {"theta_star": [2.0, 2.0, 2.0], "beta_stars": [[1.0, 0.0, 0.0]]},
                "train": {"Z": [[1.0, 0.0]]},
            },
        )
        status, out, err = run(capsys, ["fit", "--instance", path])
        assert (status, out) == (2, "")
        assert "truth dimension 3 does not match design with 2 columns" in err

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

    @pytest.mark.parametrize("instance", ["missing.json", "."], ids=["missing_file", "directory"])
    def test_unreadable_instance_exit_2(self, capsys, tmp_path, instance):
        status, out, err = run(capsys, ["fit", "--instance", str(tmp_path / instance)])
        assert status == 2 and out == ""
        assert err.startswith("input error: cannot read instance file") and "Traceback" not in err

    @pytest.mark.parametrize("output", ["missing/out.json", "."], ids=["missing_dir", "directory"])
    def test_unwritable_output_exit_2(self, capsys, tmp_path, output):
        argv = ["fit", "--instance", str(GOLDEN / "one_beta.instance.json"), "--output", str(tmp_path / output)]
        status, out, err = run(capsys, argv)
        assert status == 2 and out == ""
        assert err.startswith("input error: cannot write output file") and "Traceback" not in err

    # The reader closes the pipe before the child writes (the child is still
    # importing): one stderr line and exit 2, as for an unwritable --output,
    # not a BrokenPipeError traceback with exit 1. stdout is block-buffered,
    # as it is by default, so the small fit report reaches the pipe only when
    # flushed, inside main and not at exit (exit 120).
    @pytest.mark.parametrize(
        "argv",
        [["simulate", "--scenario", "tables"], ["fit", "--instance", str(GOLDEN / "one_beta.instance.json")]],
        ids=["tables", "fit"],
    )
    def test_closed_stdout_exit_2(self, argv):
        with subprocess.Popen(
            [sys.executable, "-m", "spurious_lens", *argv],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=child_env(PYTHONUNBUFFERED=""),
        ) as child:
            child.stdout.close()
            err = child.stderr.read().decode()
        assert child.returncode == 2
        assert err.startswith("input error: cannot write to stdout") and err.count("\n") == 1
        assert "Traceback" not in err

    # The same in this process, on a stdout over a pipe with no reader: the
    # devnull redirect lands on that pipe's descriptor, so closing it is quiet.
    def test_closed_stdout_in_process_exit_2(self, capsys, monkeypatch):
        read_fd, write_fd = os.pipe()
        os.close(read_fd)
        with open(write_fd, "w", encoding="utf-8") as stdout:
            monkeypatch.setattr(sys, "stdout", stdout)
            status = main(["simulate", "--scenario", "tables"])
        assert status == 2
        assert capsys.readouterr().err.startswith("input error: cannot write to stdout")

    # Two equal spurious columns at 1e100: I + A'A is singular in floating point.
    def test_equal_huge_spurious_columns_exit_3(self, capsys, tmp_path):
        doc = json.loads((GOLDEN / "two_betas.instance.json").read_text())
        beta = [1e100 * b for b in doc["ground_truth"]["beta_stars"][0]]
        doc["ground_truth"]["beta_stars"] = [beta, beta]
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            status, out, err = run(capsys, ["fit", "--model", "multi", "--instance", write_instance(tmp_path, doc)])
        assert status == 3 and out == ""
        assert "spurious-weight system is singular" in err

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

    # numpy's generators take only seeds >= 0, so a negative seed is an input
    # error before the robust sampler draws
    def test_robust_negative_seed_exit_2(self, capsys):
        instance = str(GOLDEN / "one_beta.instance.json")
        status, out, err = run(capsys, ["analyze", "--instance", instance, "--seed", "-1"])
        assert status == 2 and out == ""
        assert "seed must be an integer in [0, 2**64)" in err and "Traceback" not in err

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

    # json.loads reads the escape \ud800 as a lone surrogate, which no
    # UTF-8 report can hold: an input error naming the group, no traceback
    def test_lone_surrogate_label_exit_2(self, tmp_path):
        groups = [{"label": "\ud800x", "sigma": {"diag": [0.0, 1.0, 0.0]}}]
        proc = run_process(["analyze", "--instance", table2_instance(tmp_path, groups=groups)])
        assert (proc.returncode, proc.stdout) == (2, "")
        assert proc.stderr.startswith("input error: groups[0] invalid") and "Traceback" not in proc.stderr

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

    def test_overflowing_robust_loss_exit_3(self, capsys, tmp_path):
        doc = golden_instance()
        doc["robust"]["gamma"] = 1e300
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            status, out, err = run(capsys, ["analyze", "--instance", write_instance(tmp_path, doc)])
        assert status == 3 and out == ""
        assert "not finite" in err and "Traceback" not in err

    def test_overflowing_verdict_exit_3(self, capsys, tmp_path):
        path = write_instance(
            tmp_path,
            {
                "ground_truth": {"theta_star": [1e200, 1e200, 1e200], "beta_stars": [[1.0, 2.0, -2.0]]},
                "train": {"Z": [[1.0, 0.0, 0.0]]},
                "groups": [{"label": "z2", "sigma": {"diag": [0.0, 1.0, 1.0]}}],
            },
        )
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            status, out, err = run(capsys, ["analyze", "--instance", path])
        assert status == 3 and out == ""
        assert "not finite" in err and "Traceback" not in err

    def test_each_dense_group_is_decomposed_once(self, capsys, tmp_path, monkeypatch):
        doc = golden_instance()
        dense = doc["groups"][0]["sigma"]
        doc["groups"] = [{"label": f"g{i}", "sigma": dense} for i in range(3)]
        calls = []
        eigh = np.linalg.eigh
        monkeypatch.setattr(np.linalg, "eigh", lambda a: calls.append(a) or eigh(a))
        monkeypatch.setattr(np.linalg, "eigvalsh", lambda a: pytest.fail("eigvalsh was called"))
        status, out, err = run(capsys, ["analyze", "--instance", write_instance(tmp_path, doc)])
        assert status == 0, err
        assert len(json.loads(out)["robust"]) == 3
        assert len(calls) == 3

    def test_asymmetry_past_the_float_range_is_an_input_error(self, capsys, tmp_path):
        doc = golden_instance()
        d = len(doc["ground_truth"]["theta_star"])
        sigma = np.eye(d)
        sigma[0, 1], sigma[1, 0] = 1e308, -1e308
        doc["groups"][0]["sigma"] = sigma.tolist()
        status, out, err = run(capsys, ["analyze", "--instance", write_instance(tmp_path, doc)])
        assert (status, out) == (2, "")
        assert err == "input error: groups[0] invalid: sigma is not symmetric\n"

    def test_diagonal_groups_need_no_eigendecomposition(self, capsys, tmp_path, monkeypatch):
        doc = json.loads((GOLDEN / "one_beta_no_robust.instance.json").read_text())
        d = len(doc["ground_truth"]["theta_star"])
        doc["groups"][0]["sigma"] = {"diag": [float(i) for i in range(d)]}

        def refuse(*args, **kwargs):
            raise AssertionError("a diagonal sigma was eigendecomposed")

        monkeypatch.setattr(np.linalg, "eigvalsh", refuse)
        monkeypatch.setattr(np.linalg, "eigh", refuse)
        status, out, err = run(capsys, ["analyze", "--instance", write_instance(tmp_path, doc)])
        assert status == 0, err
        assert len(json.loads(out)["groups"]) == 2

    @pytest.mark.parametrize("robust", [True, False], ids=["robust", "no_robust"])
    @pytest.mark.parametrize("argv", [["analyze", "--seed", "3"], ["fit", "--model", "full"]])
    def test_diagonal_form_matches_its_dense_matrix_bytewise(self, capsys, tmp_path, argv, robust):
        doc = golden_instance()
        if not robust:
            del doc["robust"]
        d = len(doc["ground_truth"]["theta_star"])
        rng = np.random.default_rng(5)
        diags = [rng.uniform(0.0, 3.0, d) for _ in doc["groups"]]
        diags[0][[1, 4]] = 0.0
        diags[1][7] = -0.0
        outputs = []
        for form in (lambda v: {"diag": v.tolist()}, lambda v: np.diag(v).tolist()):
            for g, v in zip(doc["groups"], diags):
                g["sigma"] = form(v)
            status, out, err = run(capsys, argv + ["--instance", write_instance(tmp_path, doc)])
            assert status == 0, err
            outputs.append(out)
        assert outputs[0] == outputs[1]

    @pytest.mark.parametrize("argv", [["analyze"], ["fit", "--model", "full"]])
    def test_diagonal_groups_allocate_no_d_by_d_array(self, tmp_path, argv):
        d, n = 1000, 5
        rng = np.random.default_rng(11)
        doc = {
            "ground_truth": {
                "theta_star": rng.standard_normal(d).tolist(),
                "beta_stars": [rng.standard_normal(d).tolist()],
            },
            "train": {"Z": rng.standard_normal((n, d)).tolist()},
            "groups": [
                {"label": f"g{i}", "sigma": {"diag": rng.uniform(0.0, 2.0, d).tolist()}}
                for i in range(4)
            ],
        }
        path = write_instance(tmp_path, doc)
        out = io.StringIO()
        tracemalloc.start()
        try:
            with contextlib.redirect_stdout(out):
                status = main(argv + ["--instance", path])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert status == 0
        # one d x d float64 array is 8 MB at d = 1000
        assert peak < d * d * 8, f"peak {peak / 1e6:.1f} MB"


class TestConstructCommand:
    @pytest.mark.parametrize("argv", [
        ["construct", "--mode", "disjoint", "--n", "4"],
        ["construct", "--mode", "balanced", "--d", "12"],
    ])
    def test_constructions_need_no_eigendecomposition(self, capsys, tmp_path, monkeypatch, argv):
        doc = golden_instance()
        del doc["groups"], doc["robust"]  # dense groups are validated by eigh
        path = write_instance(tmp_path, doc)

        def refuse(*args, **kwargs):
            raise AssertionError("a test design's second moment was eigendecomposed")

        monkeypatch.setattr(np.linalg, "eigvalsh", refuse)
        monkeypatch.setattr(np.linalg, "eigh", refuse)
        status, out, err = run(capsys, argv + ["--instance", path])
        assert status == 0, err
        assert json.loads(out)["verified"] is True

    def test_small_angle_disjoint_instance_verifies(self, capsys, tmp_path):
        # the core-wins gap is 4.9e-10 on errors of 6.3e-10 and 1.1e-9: far
        # above rounding, though under the former absolute bound of 1e-9
        e1, beta = np.eye(6)[0], np.eye(6)[0] + 0.01 * np.eye(6)[1]
        doc = {"ground_truth": {"theta_star": e1.tolist(), "beta_stars": [beta.tolist()]}}
        argv = ["construct", "--mode", "disjoint", "--n", "2", "--instance", write_instance(tmp_path, doc)]
        status, out, err = run(capsys, argv)
        assert status == 0, err
        assert json.loads(out)["verified"] is True

    # each parameter is the --key flag, else scenario.key, else its default;
    # null counts as absent, and a flag hides a malformed scenario value
    @pytest.mark.parametrize(
        "flags,scenario",
        [(["--n", "4"], {"n": "abc"}), (["--x", "0.1"], {"n": 4, "x": "abc"}), ([], {"n": 4, "x": None})],
        ids=["n_flag", "x_flag", "x_null"],
    )
    def test_disjoint_parameter_rule(self, capsys, tmp_path, flags, scenario):
        path = write_instance(tmp_path, dict(golden_instance(), scenario=scenario))
        got = run(capsys, ["construct", "--mode", "disjoint", "--instance", path, *flags])
        golden = str(GOLDEN / "one_beta.instance.json")
        assert got == run(capsys, ["construct", "--mode", "disjoint", "--instance", golden, "--n", "4", "--x", "0.1"])
        assert got[0] == 0

    # the disjoint construction takes one beta vector, so it refuses an
    # instance with two rather than drop the second
    def test_disjoint_two_betas_exit_2(self, capsys):
        instance = str(GOLDEN / "two_betas.instance.json")
        status, out, err = run(capsys, ["construct", "--mode", "disjoint", "--n", "4", "--instance", instance])
        assert (status, out) == (2, "")
        assert err == "input error: construct --mode disjoint needs ground_truth with one beta vector\n"

    # the balanced construction takes one spurious column; with no scenario
    # S/Y to fall back on, two train.S columns are named as the reason
    def test_balanced_two_betas_exit_2(self, capsys):
        instance = str(GOLDEN / "two_betas.instance.json")
        status, out, err = run(capsys, ["construct", "--mode", "balanced", "--d", "12", "--instance", instance])
        assert (status, out) == (2, "")
        assert err == "input error: construct --mode balanced needs one spurious column, but train.S has 2\n"

    # a flag of the other mode is refused, not ignored; the instance's
    # scenario keys are not, since one scenario block may serve both modes
    @pytest.mark.parametrize("mode,flags,key", [
        ("disjoint", ["--n", "2", "--d", "9999"], "d"),
        ("balanced", ["--d", "8", "--n", "3"], "n"),
        ("balanced", ["--d", "8", "--x", "5"], "x"),
        ("balanced", ["--d", "8", "--n", "3", "--x", "5"], "n"),
    ])
    def test_other_mode_flag_exit_2(self, capsys, mode, flags, key):
        instance = str(GOLDEN / "one_beta.instance.json")
        status, out, err = run(capsys, ["construct", "--mode", mode, "--instance", instance, *flags])
        assert (status, out) == (2, "")
        assert err == f"input error: construct --mode {mode} takes no --{key}\n"

    @pytest.mark.parametrize("mode,flags", [("disjoint", ["--n", "4"]), ("balanced", ["--d", "12"])])
    def test_other_mode_scenario_keys_are_accepted(self, capsys, tmp_path, mode, flags):
        doc = dict(golden_instance(), scenario={"n": 4, "x": 0.1, "d": 12})
        status, out, err = run(capsys, ["construct", "--mode", mode, "--instance", write_instance(tmp_path, doc), *flags])
        assert status == 0, err
        assert json.loads(out)["verified"] is True

    @pytest.mark.parametrize("mode,key", [("disjoint", "n"), ("balanced", "d")])
    def test_missing_parameter_exit_2(self, capsys, tmp_path, mode, key):
        doc = dict(golden_instance(), scenario={key: None, "S": [1.0, 2.0], "Y": [2.0, 1.0]})
        status, out, err = run(capsys, ["construct", "--mode", mode, "--instance", write_instance(tmp_path, doc)])
        assert (status, out) == (2, "")
        assert err == f"input error: construct needs --{key} (or scenario.{key})\n"

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

    # at 1e-300, a1 = x * a1_unit is still a row of the training design; at
    # 1e-315 it is subnormal but keeps its direction, and at the largest
    # float its norm overflows unless a1 is scaled first
    @pytest.mark.parametrize("x", ["1e160", "1e300", "1e-300", "1e-315", "1.7976931348623157e308"])
    def test_disjoint_mode_huge_scale(self, capsys, x):
        path = str(GOLDEN / "one_beta.instance.json")
        status, out, err = run(
            capsys, ["construct", "--mode", "disjoint", "--instance", path, "--n", "4", "--x", x]
        )
        assert status == 0 and err == ""
        doc = json.loads(out)
        assert doc["verified"] is True
        assert doc["x_param"] == float(x)

    # x * a1_unit rounds to a few subnormals that no longer point along a1
    @pytest.mark.parametrize("x", ["5e-324", "1e-320"])
    def test_disjoint_mode_underflowed_x_fails_verification(self, capsys, x):
        path = str(GOLDEN / "one_beta.instance.json")
        status, out, err = run(
            capsys, ["construct", "--mode", "disjoint", "--instance", path, "--n", "4", "--x", x]
        )
        assert status == 1 and out == ""
        assert err.startswith("verification failed: a1 is not representable") and "Traceback" not in err

    # The preconditions are scale-free: parallel inputs exit 4 at any scale,
    # with no overflow or underflow on the way.
    @pytest.mark.parametrize("scale", [1.0, 1e160, 1e-200])
    def test_parallel_parameters_exit_4(self, capsys, tmp_path, scale):
        theta = [scale, 0.0, scale, 0.0]
        path = write_instance(
            tmp_path, {"ground_truth": {"theta_star": theta, "beta_stars": [[2.0 * t for t in theta]]}}
        )
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            status, _, err = run(capsys, ["construct", "--mode", "disjoint", "--instance", path, "--n", "2"])
        assert status == 4
        assert "construction precondition" in err and "scalar multiple" in err

    @pytest.mark.parametrize("scale", [1.0, 1e160, 1e-200])
    def test_parallel_targets_exit_4(self, capsys, tmp_path, scale):
        s = [scale, 2.0 * scale]
        path = write_instance(tmp_path, {"scenario": {"S": s, "Y": [3.0 * v for v in s], "d": 4}})
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            status, _, err = run(capsys, ["construct", "--mode", "balanced", "--instance", path])
        assert status == 4
        assert "scalar multiple" in err

    # Orthogonal parameters and non-parallel targets pass the preconditions
    # at every scale; a construction whose numbers leave the float range
    # ends in a typed error, never a traceback. The last input's S and Y are
    # finite but Y - S, a column of the balanced training design, overflows.
    @pytest.mark.parametrize("mode,scale", [
        *((mode, scale) for mode in ("balanced", "disjoint") for scale in (1.0, 1e160, 1e-200)),
        pytest.param("balanced", None, id="balanced-Y_minus_S_overflows"),
    ])
    def test_non_parallel_inputs_pass_preconditions(self, capsys, tmp_path, mode, scale):
        doc = {
            "ground_truth": {"theta_star": [scale, 0.0, 0.0, 0.0], "beta_stars": [[0.0, 2.0 * scale, 0.0, 0.0]]},
            "scenario": {"S": [scale, 2.0 * scale], "Y": [2.0 * scale, scale], "d": 6},
        } if scale else {"scenario": {"S": [1e308, 0.0], "Y": [-1e308, 1e308], "d": 6}}
        argv = ["construct", "--mode", mode, "--instance", write_instance(tmp_path, doc)]
        argv += ["--n", "1"] if mode == "disjoint" else []
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            status, out, err = run(capsys, argv)
        assert status != 4, err
        assert status in (0, 3) or err.startswith("verification failed"), err
        assert "Traceback" not in err
        if scale == 1.0:
            assert status == 0 and json.loads(out)["verified"] is True
        if scale is None:
            assert status == 3 and "Y - S overflows" in err

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
    # the --trials flag, else scenario.trials, else the default, as for
    # every scenario key; a null value counts as absent
    def test_parameter_rule(self, capsys, tmp_path):
        path = write_instance(tmp_path, {"scenario": {"trials": "abc", "p": None, "n": 6}})
        status, out, err = run(capsys, ["simulate", "--scenario", "example1", "--instance", path, "--trials", "50"])
        assert status == 0, err
        assert json.loads(out)["params"] == {"n": 6, "p": 0.9, "trials": 50}

    # the tables run no trials, so a --trials flag is refused, not ignored
    def test_tables_refuse_trials_exit_2(self, capsys):
        status, out, err = run(capsys, ["simulate", "--scenario", "tables", "--trials", "5"])
        assert (status, out) == (2, "")
        assert err == "input error: simulate --scenario tables takes no --trials\n"

    def test_tables_reproduce(self, capsys):
        status, out, _ = run(capsys, ["simulate", "--scenario", "tables"])
        assert status == 0
        doc = json.loads(out)
        assert doc["three_sigma_ok"] is True
        assert doc["quantities"]["table2.full.w"]["monte_carlo"] == 1.0

    # a full fit off by 1e-6 misses the tables: exit 1 with nothing written
    def test_tables_gap_above_tolerance_exit_1(self, capsys, monkeypatch, tmp_path):
        fit_full = scenarios.fit_full

        def off_by_1e6(data):
            model = fit_full(data)
            return dataclasses.replace(model, theta_hat=model.theta_hat + 1e-6)

        monkeypatch.setattr(scenarios, "fit_full", off_by_1e6)
        status, out, err = run(capsys, ["simulate", "--scenario", "tables"])
        assert (status, out) == (1, "")
        assert err.startswith("verification failed: table reproduction failed: table1[alpha=0].full.theta")
        path = tmp_path / "tables.csv"
        assert main(["simulate", "--scenario", "tables", "--format", "csv", "--output", str(path)]) == 1
        assert not path.exists()

    # a closed form more than 3 stderr from its Monte-Carlo mean is reported,
    # not refused
    def test_three_sigma_violation_reported(self, capsys, monkeypatch):
        report = scenarios.ScenarioReport(name="tables", quantities={"t": scenarios.Quantity(1.0, 1.0 + 5e-10, 1e-13)})
        monkeypatch.setattr(scenarios, "reference_tables", lambda: report)
        status, out, err = run(capsys, ["simulate", "--scenario", "tables"])
        assert status == 0, err
        assert json.loads(out)["three_sigma_ok"] is False

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

    def test_ovb_simple_overflowing_losses_exit_3(self, capsys, tmp_path):
        path = write_instance(tmp_path, {"scenario": {"gamma": 1e300}})
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            status, out, err = run(
                capsys, ["simulate", "--scenario", "ovb-simple", "--instance", path, "--trials", "1000"]
            )
        assert status == 3 and out == ""
        assert "not finite" in err and "Traceback" not in err

    # the decision rule overflows (the largest float), or a draw
    # sigma * N(0, 1) overflows (sigma 4e307)
    @pytest.mark.parametrize("scenario", [
        {"gamma": 1.7976931348623157e308},
        {"sigma": 1.7976931348623157e308},
        {"sigma": 4e307, "gamma": 1e-300},
    ])
    def test_ovb_simple_overflowing_rule_or_draw_exit_3(self, capsys, tmp_path, scenario):
        path = write_instance(tmp_path, {"scenario": scenario})
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            status, out, err = run(
                capsys, ["simulate", "--scenario", "ovb-simple", "--instance", path, "--trials", "100000"]
            )
        assert status == 3 and out == ""
        assert "not finite" in err and "Traceback" not in err

    # A report echoes the seed as a JSON integer, which holds 64 bits, and
    # numpy seeds only non-negative integers
    @pytest.mark.parametrize("seed,status", [
        (2**64 - 1, 0), (2**64, 2), (0, 0), (-1, 2), (-(2**63), 2), (-(2**63) - 1, 2), (10**23, 2),
        ("abc", 2),
    ])
    def test_seed_outside_64_bits_exit_2(self, capsys, seed, status):
        code, out, err = run(capsys, ["simulate", "--scenario", "tables", "--seed", str(seed)])
        assert code == status
        if status == 0:
            assert json.loads(out)["seed"] == seed
        else:
            assert out == "" and "seed must be an integer in [0, 2**64)" in err

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
        assert text == b'{"flag":true,"n":3,"none":null,"x":0.1}\n'
        assert json.loads(text)["x"] == 0.1

    # Reports are UTF-8 bytes whatever the locale: a label that ASCII cannot
    # encode is written raw, the same to a file and to stdout
    @pytest.mark.parametrize("fmt", ["json", "csv"])
    def test_non_ascii_label_same_bytes_under_ascii_stdout(self, tmp_path, fmt):
        groups = [{"label": "\u00e9", "sigma": {"diag": [0.0, 1.0, 0.0]}}]
        argv = ["analyze", "--instance", table2_instance(tmp_path, groups=groups), "--format", fmt]
        out_file = tmp_path / "report.out"
        to_file = run_process([*argv, "--output", str(out_file)], text=False, PYTHONIOENCODING="ascii")
        to_stdout = run_process(argv, text=False, PYTHONIOENCODING="ascii")
        assert (to_file.returncode, to_file.stderr, to_stdout.returncode, to_stdout.stderr) == (0, b"", 0, b"")
        assert out_file.read_bytes() == to_stdout.stdout
        assert "\u00e9".encode("utf-8") in to_stdout.stdout

    # Byte identity holds for one BLAS thread count: a wide fit's last
    # digits may change with it, but no more than rounding does
    def test_wide_fit_agrees_across_blas_thread_counts(self, tmp_path):
        rng = np.random.default_rng(11)
        n, d = 600, 1500
        truth = {"theta_star": rng.standard_normal(d).tolist(), "beta_stars": [rng.standard_normal(d).tolist()]}
        path = write_instance(tmp_path, {"ground_truth": truth, "train": {"Z": rng.standard_normal((n, d)).tolist()}})
        reports = []
        for threads in ("1", "2"):
            proc = run_process(["fit", "--model", "full", "--instance", path], OPENBLAS_NUM_THREADS=threads)
            assert proc.returncode == 0, proc.stderr
            reports.append(json.loads(proc.stdout))
        for key in ("theta_hat", "w_hat", "theta_norm_sq", "w_norm_sq", "total_norm_sq"):
            one, two = (np.asarray(r[key]) for r in reports)
            assert np.linalg.norm(one - two) <= 1e-12 * np.linalg.norm(two), key


class TestModuleEntryPoint:
    def test_python_dash_m(self, tmp_path):
        doc = {"train": {"Z": [[1.0, 0.0]], "S": [1.0], "Y": [2.0]}}
        proc = run_process(["fit", "--instance", write_instance(tmp_path, doc)])
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["w_hat"] == pytest.approx([1.0])

    def test_calls_in_turn_write_what_fresh_processes_write(self, capsys, monkeypatch):
        # main builds its parser once per process, so no call may see an
        # earlier one; argparse wraps its usage line to COLUMNS
        monkeypatch.setenv("COLUMNS", "80")
        instance = str(GOLDEN / "one_beta.instance.json")
        argvs = [
            ["fit", "--instance", instance],
            ["fit", "--instance", instance, "--model", "nope"],
            ["analyze", "--instance", instance],
            ["simulate", "--scenario", "example1", "--trials", "500"],
        ]
        in_turn = [run(capsys, argv) for argv in argvs]
        assert [status for status, _, _ in in_turn] == [0, 2, 0, 0]
        for argv, got in zip(argvs, in_turn):
            proc = run_process(argv)
            assert got == (proc.returncode, proc.stdout, proc.stderr)

    # orjson 3.8.3 builds nested values recursively and kills the process
    # (SIGSEGV) on either document; the reader gives orjson flat rows only,
    # and json.loads refuses the depth with a RecursionError
    @pytest.mark.parametrize("opening,closing", [("[", "]"), ('{"a": ', "}")], ids=["array", "object"])
    def test_million_deep_document_exit_2(self, tmp_path, opening, closing):
        depth = 1_000_000
        path = tmp_path / "deep.json"
        path.write_text('{"scenario": {"n": ' + opening * depth + "0" + closing * depth + "}}")
        proc = run_process(["simulate", "--scenario", "tables", "--instance", str(path)])
        assert (proc.returncode, proc.stdout) == (2, "")
        assert proc.stderr.startswith("input error") and "Traceback" not in proc.stderr
