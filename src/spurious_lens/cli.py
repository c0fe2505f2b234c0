"""Command-line front end.

    spurious-lens fit       --instance PATH [--model core|full|multi|rst]
    spurious-lens analyze   --instance PATH
    spurious-lens construct --mode disjoint|balanced [--instance PATH] [--n N] [--x X] [--d D]
    spurious-lens simulate  --scenario example1|example2|ovb-simple|tables [--trials N]

Common flags: --output PATH (default stdout), --format json|csv,
--seed N (0 <= N < 2**64). --trials N is simulate's alone, and the tables
scenario, which runs no trials, refuses it. construct takes --n and --x in
disjoint mode and --d in balanced mode, and refuses the other mode's flags
(an instance's scenario block may hold all three). Exit codes: 0 success,
1 verification failure, 2 input error or an unwritable --output or stdout
(such as a closed pipe), 3 numerical precondition failure, 4 construction
precondition failure.
Each command builds its report, a JSON document plus a CSV header and
rows, and main writes it once, in the --format asked for, as UTF-8 bytes
whatever the locale. JSON output is byte-deterministic for a fixed command
line, seed, BLAS build and BLAS thread count; other thread counts can
change a fit's last digits.
"""

from __future__ import annotations

import argparse
import functools
import math
import os
import sys
from dataclasses import asdict

import numpy as np

from . import analysis, constructions, estimators, scenarios
from .exceptions import (
    AbsorbedTargetsError,
    DimensionTooSmallError,
    NonFiniteResultError,
    ParallelParametersError,
    ParallelTargetsError,
    SpuriousLensError,
    VerificationError,
)
from .minnorm import _as_vector, projection
from .serialize import (
    MAX_BALANCED_DIM,
    Instance,
    InstanceError,
    _build,
    _integer,
    _number,
    dumps_canonical,
    parse_instance,
    rows_to_csv,
)

_CONSTRUCTION_ERRORS = (ParallelParametersError, ParallelTargetsError, AbsorbedTargetsError, DimensionTooSmallError)

# Each scenario's runner (seed, **parameters) and its (key, type, default)
# parameters, each read by _param in order.
# The runners look the scenario functions up when called, so a wrapper set
# on the scenarios module (perfbench's tracer) is the one that runs.
_SCENARIOS = {
    "example1": (
        lambda seed, **kw: scenarios.example1_simulate(seed=seed, **kw),
        (("n", _integer, 20), ("p", _number, 0.9), ("trials", _integer, 10_000)),
    ),
    "example2": (
        lambda seed, **kw: scenarios.example2_simulate(seed=seed, **kw),
        (("n", _integer, 20), ("p_s", _number, 0.9), ("trials", _integer, 10_000)),
    ),
    "ovb-simple": (
        lambda seed, **kw: scenarios.ovb_simple_scenario(seed=seed, **kw),
        (("trials", _integer, 100_000), ("sigma", _number, 1.0), ("gamma", _number, 1.0), ("threshold", _number, 1.5)),
    ),
    "tables": (lambda seed: scenarios.reference_tables(), ()),
}


def _seed(text: str) -> int:
    """--seed: an integer that numpy can seed and a report can echo, in [0, 2**64)."""
    try:
        value = int(text)
    except ValueError:
        value = None
    if value is None or not 0 <= value < 2**64:
        raise argparse.ArgumentTypeError(f"seed must be an integer in [0, 2**64), got {text!r}")
    return value


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI's parser, built once per process: parse_args leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="spurious-lens",
        description="Minimum-norm linear regression with spurious features: "
        "fits, group error analysis, counterexample construction, simulations.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser):
        p.add_argument("--instance", help="path to an instance JSON document")
        p.add_argument("--output", help="output path (default: stdout)")
        p.add_argument("--format", choices=("json", "csv"), default="json")
        p.add_argument("--seed", type=_seed, default=0)

    p_fit = sub.add_parser("fit", help="fit one model on the instance's training block")
    common(p_fit)
    p_fit.add_argument("--model", choices=estimators.MODEL_KINDS, default="full")

    p_an = sub.add_parser("analyze", help="per-group errors, removal verdicts, robust errors")
    common(p_an)

    p_co = sub.add_parser("construct", help="build a verified counterexample bundle")
    common(p_co)
    p_co.add_argument("--mode", choices=("disjoint", "balanced"), required=True)
    p_co.add_argument("--n", type=int, help="training rows (disjoint mode)")
    p_co.add_argument("--x", type=float, help="free scale of the training direction (disjoint mode)")
    p_co.add_argument("--d", type=int, help="ambient dimension (balanced mode)")

    p_si = sub.add_parser("simulate", help="run a named scenario")
    common(p_si)
    p_si.add_argument("--scenario", choices=tuple(_SCENARIOS), required=True)
    p_si.add_argument("--trials", type=int)
    return parser


def _load_instance(args) -> Instance:
    if not args.instance:
        raise InstanceError("this command needs --instance")
    try:
        with open(args.instance, "rb") as fh:
            data = fh.read()
    except OSError as exc:
        raise InstanceError(f"cannot read instance file: {exc}") from exc
    return parse_instance(data)


def _emit(args, document: dict, fieldnames: list[str], rows) -> None:
    """Write the JSON document, or with --format csv the rows, as UTF-8 bytes
    whatever the locale, to --output or to stdout's byte stream.
    An unwritable --output or a closed stdout raises InstanceError; a closed
    stdout is first pointed at os.devnull, so the flush at exit cannot fail."""
    if args.format == "csv":
        payload = rows_to_csv(fieldnames, rows).encode("utf-8")
    else:
        payload = dumps_canonical(document)
    if args.output:
        try:
            with open(args.output, "wb") as fh:
                fh.write(payload)
        except OSError as exc:
            raise InstanceError(f"cannot write output file: {exc}") from exc
    elif (stream := getattr(sys.stdout, "buffer", None)) is None:
        # a text stream with no bytes under it, such as io.StringIO
        sys.stdout.write(payload.decode("utf-8"))
    else:
        try:
            sys.stdout.flush()
            stream.write(payload)
            stream.flush()
        except BrokenPipeError as exc:
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, stream.fileno())
            os.close(devnull)
            raise InstanceError(f"cannot write to stdout: {exc}") from exc


def _fit_requested_model(inst: Instance, kind: str):
    if inst.data is None:
        raise InstanceError("fit needs a train block")
    if kind == "core":
        return estimators.fit_core(inst.data)
    if kind == "full":
        return estimators.fit_full(inst.data)
    if kind == "multi":
        return estimators.fit_multi(inst.data)
    u = inst.unlabeled
    if u is None:
        raise InstanceError("fit --model rst needs an unlabeled block")
    if u.Zu.shape[1] != inst.data.Z.cols or u.Su.shape[1] != inst.data.n_spurious:
        raise InstanceError(
            f"unlabeled Zu has {u.Zu.shape[1]} columns and Su {u.Su.shape[1]}, but train.Z has "
            f"{inst.data.Z.cols} and train.S {inst.data.n_spurious}"
        )
    full = estimators.fit_full(inst.data)
    return estimators.fit_rst(inst.data, u, full)


def cmd_fit(args):
    inst = _load_instance(args)
    model = _fit_requested_model(inst, args.model)
    residual = estimators.interpolation_residual(inst.data, model.theta_hat, model.w_hat)
    with np.errstate(over="ignore"):
        theta_sq, w_sq = float(model.theta_hat @ model.theta_hat), float(model.w_hat @ model.w_hat)
    norms = dict(theta_norm_sq=theta_sq, w_norm_sq=w_sq, total_norm_sq=theta_sq + w_sq, train_residual=residual)
    non_finite = [name for name, value in norms.items() if not math.isfinite(value)]
    if non_finite:
        raise NonFiniteResultError(f"not finite in the fit report: {', '.join(non_finite)}")
    doc = {
        "command": "fit",
        "model": model.kind,
        "seed": args.seed,
        "theta_hat": model.theta_hat,
        "w_hat": model.w_hat,
        **norms,
    }
    rows = [
        {"name": name, "index": i, "value": v} for name in ("theta_hat", "w_hat") for i, v in enumerate(doc[name])
    ]
    rows.append({"name": "train_residual", "index": None, "value": residual})
    return doc, ["name", "index", "value"], rows


def cmd_analyze(args):
    inst = _load_instance(args)
    if inst.truth is None or inst.data is None:
        raise InstanceError("analyze needs ground_truth and train blocks")
    if inst.truth.n_spurious != 1:
        raise InstanceError("analyze needs exactly one spurious vector in ground_truth")
    if not inst.groups:
        raise InstanceError("analyze needs a nonempty groups block")
    for g in inst.groups:
        if g.dim != inst.data.Z.cols:
            raise InstanceError(
                f"group {g.label!r} sigma is {g.dim}x{g.dim} but the design has "
                f"{inst.data.Z.cols} columns"
            )
    pi = projection(inst.data.Z)
    group_rows = []
    for g in inst.groups:
        verdict = analysis.removal_verdict(inst.truth, pi, g)
        group_rows.append(
            {
                "group": g.label,
                "error_core": verdict.error_core,
                "error_full": verdict.error_full,
                "delta": verdict.error_core - verdict.error_full,
                "sign_match": verdict.sign_match,
                "magnitude_holds": verdict.magnitude_holds,
                "full_better": verdict.full_better,
                "tie": verdict.tie,
            }
        )
    doc = {"command": "analyze", "seed": args.seed, "groups": group_rows}
    if inst.robust is not None:
        core = estimators.fit_core(inst.data)
        full = estimators.fit_full(inst.data)
        robust = analysis.robust_errors(
            [core, full], inst.truth, inst.groups, inst.robust, inst.robust_samples, seed=args.seed
        )
        doc["robust"] = [
            {
                "group": g.label,
                "robust_core": r_core,
                "robust_full": r_full,
                "samples": inst.robust_samples,
                "gamma": inst.robust.gamma,
                "norm_kind": inst.robust.norm_kind,
            }
            for g, (r_core, r_full) in zip(inst.groups, robust)
        ]
    fields = ["group", "error_core", "error_full", "delta", "sign_match", "magnitude_holds", "full_better"]
    return doc, fields, group_rows


def _param(args, scenario: dict, key: str, kind, default=None):
    """The --key flag, else scenario.key, else default (null counts as absent), as kind.

    A value kind cannot convert, and a missing key with no default, are input errors.
    """
    value = next((v for v in (getattr(args, key, None), scenario.get(key), default) if v is not None), None)
    if value is None:
        raise InstanceError(f"{args.command} needs --{key} (or scenario.{key})")
    return _build(f"scenario.{key}", lambda: kind(value))


def cmd_construct(args):
    for key in ("d",) if args.mode == "disjoint" else ("n", "x"):
        if getattr(args, key) is not None:
            raise InstanceError(f"construct --mode {args.mode} takes no --{key}")
    scenario = {}
    truth = None
    data = None
    if args.instance:
        inst = _load_instance(args)
        scenario = inst.scenario
        truth = inst.truth
        data = inst.data
    if args.mode == "disjoint":
        if truth is None or truth.n_spurious != 1:
            raise InstanceError("construct --mode disjoint needs ground_truth with one beta vector")
        n = _param(args, scenario, "n", _integer)
        x = _param(args, scenario, "x", _number, 0.1)
        if not (np.isfinite(x) and x > 0):
            raise InstanceError(f"x must be positive and finite, got {x}")
        bundle = constructions.construct_disjoint(truth.theta_star, truth.beta_stars[0], n, x)
    else:
        if data is not None and data.n_spurious == 1:
            s_vec, y_vec = data.S[:, 0], data.Y
        elif "S" in scenario and "Y" in scenario:
            s_vec = _build("scenario.S", lambda: _as_vector(scenario["S"], "S"))
            y_vec = _build("scenario.Y", lambda: _as_vector(scenario["Y"], "Y"))
            if s_vec.shape != y_vec.shape:
                raise InstanceError(f"scenario.S has {s_vec.shape[0]} entries but scenario.Y has {y_vec.shape[0]}")
        elif data is not None and data.n_spurious > 1:
            raise InstanceError(
                f"construct --mode balanced needs one spurious column, but train.S has {data.n_spurious}"
            )
        else:
            raise InstanceError("construct --mode balanced needs train.S/train.Y or scenario.S/Y")
        d = _param(args, scenario, "d", _integer)
        if d > MAX_BALANCED_DIM:
            raise InstanceError(f"d must be at most {MAX_BALANCED_DIM}")
        bundle = constructions.construct_balanced(s_vec, y_vec, d)

    doc = {
        "command": "construct",
        "mode": args.mode,
        "seed": args.seed,
        "theta_star": bundle.truth.theta_star,
        "beta_star": bundle.truth.beta_stars[0],
        "Z_train": bundle.Z_train.entries,
        "Z_test_full_wins": bundle.Z_test_full_wins.entries,
        "Z_test_core_wins": bundle.Z_test_core_wins.entries,
        "x_param": bundle.x_param,
        "b_vector": bundle.b_vector,
        "verdict_full_wins": asdict(bundle.verdict_full_wins),
        "verdict_core_wins": asdict(bundle.verdict_core_wins),
        "verified": True,
    }
    fields = [
        "which", "sign_match", "magnitude_holds", "full_better", "tie",
        "w_hat", "lhs_seen_corr", "rhs_unseen_corr", "error_core", "error_full",
    ]
    return doc, fields, [{"which": which, **doc[f"verdict_{which}"]} for which in ("full_wins", "core_wins")]


def cmd_simulate(args):
    scenario = _load_instance(args).scenario if args.instance else {}
    runner, spec = _SCENARIOS[args.scenario]
    if args.trials is not None and "trials" not in (key for key, _, _ in spec):
        raise InstanceError(f"simulate --scenario {args.scenario} takes no --trials")
    kwargs = {key: _param(args, scenario, key, kind, default) for key, kind, default in spec}
    try:
        report = runner(args.seed, **kwargs)
    except ValueError as exc:
        raise InstanceError(f"bad scenario parameters: {exc}") from exc

    violations = report.three_sigma_violations()
    doc = {
        "command": "simulate",
        "scenario": report.name,
        "seed": args.seed,
        "params": report.params,
        "quantities": {label: asdict(q) for label, q in report.quantities.items()},
        "verdicts": report.verdicts,
        "three_sigma_ok": not violations,
    }
    rows = [{"label": label, **q} for label, q in doc["quantities"].items()]
    return doc, ["label", "closed_form", "monte_carlo", "stderr"], rows


# Each command builds its report, (JSON document, CSV header, CSV rows), and
# main writes it.
_COMMANDS = {"fit": cmd_fit, "analyze": cmd_analyze, "construct": cmd_construct, "simulate": cmd_simulate}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        _emit(args, *_COMMANDS[args.command](args))
    except InstanceError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2
    except _CONSTRUCTION_ERRORS as exc:
        print(f"construction precondition failed: {exc}", file=sys.stderr)
        return 4
    except VerificationError as exc:
        print(f"verification failed: {exc}", file=sys.stderr)
        return 1
    except SpuriousLensError as exc:
        print(f"numerical precondition failed: {exc}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
