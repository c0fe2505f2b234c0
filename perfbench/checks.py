"""Output checks, run outside the timed region.

Each checker takes the instance document (as generated) and a command's
output document and returns a list of problems; an empty list means the
output is correct. Fits are compared with `minnorm.min_norm_solve` on the
stacked system, the library's own pseudoinverse oracle; errors are
recomputed as r' Sigma r from oracle fits.
"""

from __future__ import annotations

import numpy as np

from spurious_lens.minnorm import min_norm_solve

RTOL = 1e-8
# The CLI's own gap limit for the reference tables.
TABLES_TOL = 1e-9


def _close(a, b, rtol: float = RTOL) -> bool:
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    if a.shape != b.shape:
        return False
    scale = max(float(np.linalg.norm(a)), float(np.linalg.norm(b)))
    return float(np.linalg.norm(a - b)) <= rtol * scale


class Oracle:
    """Min-norm oracle fits of one training design, with spurious column Z beta*."""

    def __init__(self, z: np.ndarray, theta: np.ndarray, beta: np.ndarray):
        self.z, self.theta, self.beta = z, theta, beta
        y = z @ theta
        d = z.shape[1]
        self.theta_core = min_norm_solve(z, y).x
        joint = min_norm_solve(np.column_stack([z, z @ beta]), y).x
        self.theta_full, self.w_full = joint[:d], joint[d:]

    def residuals(self) -> tuple[np.ndarray, np.ndarray]:
        """Residual functionals of the core and full models on a test point z."""
        r_core = self.theta - self.theta_core
        r_full = self.theta - self.theta_full - self.w_full[0] * self.beta
        return r_core, r_full


def _truth(doc: dict) -> tuple[np.ndarray, np.ndarray]:
    block = doc["ground_truth"]
    return np.asarray(block["theta_star"], float), np.asarray(block["beta_stars"][0], float)


def _quad(r: np.ndarray, sigma) -> float:
    if isinstance(sigma, dict):
        return float(np.sum(np.asarray(sigma["diag"], float) * r * r))
    return float(r @ np.asarray(sigma, float) @ r)


def check_fit(instance: dict, output: dict, oracle: Oracle) -> list[str]:
    model = output.get("model")
    theta_hat = np.asarray(output["theta_hat"], float)
    w_hat = np.asarray(output["w_hat"], float)
    if model == "core":
        want_theta, want_w = oracle.theta_core, np.zeros(0)
    elif model == "full":
        want_theta, want_w = oracle.theta_full, oracle.w_full
    elif model == "rst":
        zu = np.asarray(instance["unlabeled"]["Zu"], float)
        su = np.asarray(instance["unlabeled"]["Su"], float).reshape(zu.shape[0], -1)
        pseudo = zu @ oracle.theta_full + su @ oracle.w_full
        stacked = np.vstack([oracle.z, zu])
        rhs = np.concatenate([oracle.z @ oracle.theta, pseudo])
        want_theta, want_w = min_norm_solve(stacked, rhs).x, np.zeros(0)
    else:
        return [f"unexpected model {model!r}"]
    problems = []
    if not _close(theta_hat, want_theta):
        problems.append(f"fit {model}: theta_hat differs from the min-norm oracle")
    if not _close(w_hat, want_w):
        problems.append(f"fit {model}: w_hat differs from the min-norm oracle")
    return problems


def check_analyze(instance: dict, output: dict, oracle: Oracle) -> list[str]:
    groups = instance["groups"]
    rows = output.get("groups", [])
    if len(rows) != len(groups):
        return [f"analyze: {len(rows)} group rows for {len(groups)} groups"]
    r_core, r_full = oracle.residuals()
    problems = []
    for g, row in zip(groups, rows):
        e_core, e_full = _quad(r_core, g["sigma"]), _quad(r_full, g["sigma"])
        if row["group"] != g["label"]:
            problems.append(f"analyze: group {row['group']!r} out of order")
        if not (_close(row["error_core"], e_core) and _close(row["error_full"], e_full)):
            problems.append(f"analyze: group {g['label']} errors differ from r'Sigma r")
        if not row["tie"] and row["full_better"] != (e_full < e_core):
            problems.append(f"analyze: group {g['label']} full_better disagrees with the error gap")
    if "robust" in instance:
        robust = output.get("robust", [])
        if len(robust) != len(groups) or not all(
            np.isfinite(r["robust_core"]) and np.isfinite(r["robust_full"]) for r in robust
        ):
            problems.append("analyze: robust rows missing or not finite")
    return problems


def check_construct(output: dict) -> list[str]:
    if output.get("verified") is not True:
        return ["construct: bundle not marked verified"]
    z_train = np.asarray(output["Z_train"], float)
    theta = np.asarray(output["theta_star"], float)
    beta = np.asarray(output["beta_star"], float)
    r_core, r_full = Oracle(z_train, theta, beta).residuals()
    problems = []
    for key, full_wins in (("full_wins", True), ("core_wins", False)):
        z = np.asarray(output[f"Z_test_{key}"], float)
        sigma = z.T @ z / z.shape[0]
        e_core, e_full = _quad(r_core, sigma), _quad(r_full, sigma)
        verdict = output[f"verdict_{key}"]
        if verdict["full_better"] != full_wins or (e_full < e_core) != full_wins:
            problems.append(f"construct: verdict on Z_test_{key} is not the promised one")
        if not (_close(verdict["error_core"], e_core) and _close(verdict["error_full"], e_full)):
            problems.append(f"construct: errors on Z_test_{key} differ from r'Sigma r")
    return problems


def check_simulate(output: dict) -> list[str]:
    problems = []
    if output.get("three_sigma_ok") is not True:
        problems.append(f"simulate {output.get('scenario')}: three_sigma_ok is not true")
    if output.get("scenario") == "tables":
        gap = max(
            abs(q["closed_form"] - q["monte_carlo"])
            for q in output["quantities"].values()
            if q["closed_form"] is not None
        )
        if gap > TABLES_TOL:
            problems.append(f"simulate tables: max gap {gap:.3e} exceeds {TABLES_TOL}")
    return problems


class Checker:
    """Checks command outputs against one instance; builds the oracle once."""

    def __init__(self, instance: dict | None):
        self.instance = instance
        self._oracle = None

    def oracle(self) -> Oracle:
        if self._oracle is None:
            z = np.asarray(self.instance["train"]["Z"], float)
            self._oracle = Oracle(z, *_truth(self.instance))
        return self._oracle

    def __call__(self, kind: str, exit_code, output: dict | None) -> list[str]:
        if exit_code != 0:
            return [f"{kind}: exit code {exit_code}"]
        if output is None:
            return [f"{kind}: no output document"]
        if kind == "fit":
            return check_fit(self.instance, output, self.oracle())
        if kind == "analyze":
            return check_analyze(self.instance, output, self.oracle())
        if kind == "construct":
            return check_construct(output)
        return check_simulate(output)
