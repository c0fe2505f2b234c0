"""Command-line front end.

    spurious-lens fit       --instance PATH [--model core|full|multi|rst]
    spurious-lens analyze   --instance PATH
    spurious-lens construct --mode disjoint|balanced [--instance PATH] [--n N] [--x X] [--d D]
    spurious-lens simulate  --scenario example1|example2|ovb-simple|tables

Common flags: --output PATH (default stdout), --format json|csv, --trials N,
--seed N. Exit codes: 0 success, 1 verification failure, 2 input error,
3 numerical precondition failure, 4 construction precondition failure.
JSON output is byte-deterministic for a fixed command line and seed.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from . import analysis, constructions, estimators, scenarios
from .exceptions import (
    DimensionTooSmallError,
    ParallelParametersError,
    ParallelTargetsError,
    SpuriousLensError,
)
from .minnorm import projection
from .serialize import Instance, InstanceError, dumps_canonical, parse_instance, rows_to_csv

TABLES_TOL = 1e-9

_CONSTRUCTION_ERRORS = (ParallelParametersError, ParallelTargetsError, DimensionTooSmallError)


def build_parser() -> argparse.ArgumentParser:
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
        p.add_argument("--seed", type=int, default=0)

    p_fit = sub.add_parser("fit", help="fit one model on the instance's training block")
    common(p_fit)
    p_fit.add_argument("--model", choices=estimators.MODEL_KINDS, default="full")

    p_an = sub.add_parser("analyze", help="per-group errors, removal verdicts, robust errors")
    common(p_an)

    p_co = sub.add_parser("construct", help="build a verified counterexample bundle")
    common(p_co)
    p_co.add_argument("--mode", choices=("disjoint", "balanced"), required=True)
    p_co.add_argument("--n", type=int, help="training rows (disjoint mode)")
    p_co.add_argument("--x", type=float, help="free scale of the training direction")
    p_co.add_argument("--d", type=int, help="ambient dimension (balanced mode)")

    p_si = sub.add_parser("simulate", help="run a named scenario")
    common(p_si)
    p_si.add_argument(
        "--scenario", choices=("example1", "example2", "ovb-simple", "tables"), required=True
    )
    p_si.add_argument("--trials", type=int)
    return parser


def _load_instance(args) -> Instance:
    if not args.instance:
        raise InstanceError("this command needs --instance")
    try:
        with open(args.instance, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise InstanceError(f"cannot read instance file: {exc}") from exc
    return parse_instance(text)


def _emit(args, document: dict, csv_text: str | None) -> None:
    if args.format == "csv":
        if csv_text is None:
            raise InstanceError("this command has no CSV projection")
        payload = csv_text
    else:
        payload = dumps_canonical(document)
    if args.output:
        with open(args.output, "w", encoding="utf-8", newline="") as fh:
            fh.write(payload)
    else:
        sys.stdout.write(payload)


def _fit_requested_model(inst: Instance, kind: str):
    if inst.data is None:
        raise InstanceError("fit needs a train block")
    if kind == "core":
        return estimators.fit_core(inst.data)
    if kind == "full":
        return estimators.fit_full(inst.data)
    if kind == "multi":
        return estimators.fit_multi(inst.data)
    if inst.unlabeled is None:
        raise InstanceError("fit --model rst needs an unlabeled block")
    full = estimators.fit_full(inst.data)
    return estimators.fit_rst(inst.data, inst.unlabeled, full)


def cmd_fit(args) -> int:
    inst = _load_instance(args)
    model = _fit_requested_model(inst, args.model)
    residual = estimators.interpolation_residual(inst.data, model.theta_hat, model.w_hat)
    doc = {
        "command": "fit",
        "model": model.kind,
        "seed": args.seed,
        "theta_hat": model.theta_hat,
        "w_hat": model.w_hat,
        "theta_norm_sq": float(model.theta_hat @ model.theta_hat),
        "w_norm_sq": float(model.w_hat @ model.w_hat),
        "total_norm_sq": model.squared_norm,
        "train_residual": residual,
    }
    rows = [
        {"name": "theta_hat", "index": i, "value": float(v)}
        for i, v in enumerate(model.theta_hat)
    ]
    rows += [
        {"name": "w_hat", "index": i, "value": float(v)} for i, v in enumerate(model.w_hat)
    ]
    rows.append({"name": "train_residual", "index": None, "value": residual})
    return _finish(args, doc, rows_to_csv(["name", "index", "value"], rows))


def cmd_analyze(args) -> int:
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
        robust_rows = []
        for g in inst.groups:
            r_core = analysis.robust_error(
                core, inst.truth, g, inst.robust, inst.robust_samples, seed=args.seed
            )
            r_full = analysis.robust_error(
                full, inst.truth, g, inst.robust, inst.robust_samples, seed=args.seed
            )
            robust_rows.append(
                {
                    "group": g.label,
                    "robust_core": r_core,
                    "robust_full": r_full,
                    "samples": inst.robust_samples,
                    "gamma": inst.robust.gamma,
                    "norm_kind": inst.robust.norm_kind,
                }
            )
        doc["robust"] = robust_rows
    csv_text = rows_to_csv(
        ["group", "error_core", "error_full", "delta", "sign_match", "magnitude_holds", "full_better"],
        group_rows,
    )
    return _finish(args, doc, csv_text)


def _number(value, kind, name: str):
    try:
        return kind(value)
    except (TypeError, ValueError) as exc:
        raise InstanceError(f"{name} must be a number, got {value!r}") from exc


def cmd_construct(args) -> int:
    scenario = {}
    truth = None
    data = None
    if args.instance:
        inst = _load_instance(args)
        scenario = inst.scenario
        truth = inst.truth
        data = inst.data
    if args.mode == "disjoint":
        if truth is None or truth.n_spurious < 1:
            raise InstanceError("construct --mode disjoint needs ground_truth with one beta vector")
        n = args.n if args.n is not None else scenario.get("n")
        if n is None:
            raise InstanceError("construct --mode disjoint needs --n (or scenario.n)")
        x = _number(args.x if args.x is not None else scenario.get("x", 0.1), float, "x")
        if not (np.isfinite(x) and x > 0):
            raise InstanceError(f"x must be positive and finite, got {x}")
        bundle = constructions.construct_disjoint(
            truth.theta_star, truth.beta_stars[0], _number(n, int, "n"), x
        )
    else:
        if data is not None and data.n_spurious == 1:
            s_vec, y_vec = data.S[:, 0], data.Y
        elif "S" in scenario and "Y" in scenario:
            s_vec = np.asarray(scenario["S"], dtype=float)
            y_vec = np.asarray(scenario["Y"], dtype=float)
        else:
            raise InstanceError("construct --mode balanced needs train.S/train.Y or scenario.S/Y")
        d = args.d if args.d is not None else scenario.get("d")
        if d is None:
            raise InstanceError("construct --mode balanced needs --d (or scenario.d)")
        bundle = constructions.construct_balanced(s_vec, y_vec, _number(d, int, "d"))

    def verdict_doc(v):
        return {
            "sign_match": v.sign_match,
            "magnitude_holds": v.magnitude_holds,
            "full_better": v.full_better,
            "tie": v.tie,
            "w_hat": v.w_hat,
            "lhs_seen_corr": v.lhs_seen_corr,
            "rhs_unseen_corr": v.rhs_unseen_corr,
            "error_core": v.error_core,
            "error_full": v.error_full,
        }

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
        "verdict_full_wins": verdict_doc(bundle.verdict_full_wins),
        "verdict_core_wins": verdict_doc(bundle.verdict_core_wins),
        "verified": True,
    }
    rows = []
    for which, v in (
        ("full_wins", bundle.verdict_full_wins),
        ("core_wins", bundle.verdict_core_wins),
    ):
        rows.append(dict({"which": which}, **verdict_doc(v)))
    fields = [
        "which", "sign_match", "magnitude_holds", "full_better", "tie",
        "w_hat", "lhs_seen_corr", "rhs_unseen_corr", "error_core", "error_full",
    ]
    return _finish(args, doc, rows_to_csv(fields, rows))


def cmd_simulate(args) -> int:
    scenario_params = {}
    if args.instance:
        scenario_params = _load_instance(args).scenario
    name = args.scenario
    trials = args.trials if args.trials is not None else scenario_params.get("trials")
    try:
        if name == "tables":
            report = scenarios.reference_tables()
        elif name == "example1":
            spec = scenarios.Example1Spec(
                n=int(scenario_params.get("n", 20)),
                p=float(scenario_params.get("p", 0.9)),
                trials=int(trials if trials is not None else 10_000),
                seed=args.seed,
            )
            report = scenarios.example1_simulate(spec)
        elif name == "example2":
            report = scenarios.example2_simulate(
                n=int(scenario_params.get("n", 20)),
                p_s=float(scenario_params.get("p_s", 0.9)),
                trials=int(trials if trials is not None else 10_000),
                seed=args.seed,
            )
        else:
            report = scenarios.ovb_simple_scenario(
                trials=int(trials if trials is not None else 100_000),
                seed=args.seed,
                sigma=float(scenario_params.get("sigma", 1.0)),
                gamma=float(scenario_params.get("gamma", 1.0)),
                threshold=float(scenario_params.get("threshold", 1.5)),
            )
    except ValueError as exc:
        raise InstanceError(f"bad scenario parameters: {exc}") from exc

    violations = report.three_sigma_violations()
    doc = {
        "command": "simulate",
        "scenario": report.name,
        "seed": args.seed,
        "params": report.params,
        "quantities": {
            label: {
                "closed_form": q.closed_form,
                "monte_carlo": q.monte_carlo,
                "stderr": q.stderr,
            }
            for label, q in report.quantities.items()
        },
        "verdicts": report.verdicts,
        "three_sigma_ok": not violations,
    }
    rows = [
        {
            "label": label,
            "closed_form": q.closed_form,
            "monte_carlo": q.monte_carlo,
            "stderr": q.stderr,
        }
        for label, q in report.quantities.items()
    ]
    status = _finish(args, doc, rows_to_csv(["label", "closed_form", "monte_carlo", "stderr"], rows))
    if status == 0 and name == "tables" and report.max_closed_form_gap() > TABLES_TOL:
        print(
            f"table reproduction exceeded tolerance {TABLES_TOL}: "
            f"max gap {report.max_closed_form_gap():.3e}",
            file=sys.stderr,
        )
        return 1
    return status


def _finish(args, doc: dict, csv_text: str | None) -> int:
    _emit(args, doc, csv_text)
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        if args.command == "fit":
            return cmd_fit(args)
        if args.command == "analyze":
            return cmd_analyze(args)
        if args.command == "construct":
            return cmd_construct(args)
        return cmd_simulate(args)
    except InstanceError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2
    except _CONSTRUCTION_ERRORS as exc:
        print(f"construction precondition failed: {exc}", file=sys.stderr)
        return 4
    except SpuriousLensError as exc:
        print(f"numerical precondition failed: {exc}", file=sys.stderr)
        return 3
    except (ValueError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
