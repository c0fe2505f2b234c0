"""The benchmark's workloads: seeded instance generators and command scripts.

Each workload is a fixed script of CLI commands run once per pass. Every
command line goes to `spurious_lens.cli.main`; `{instance}`, `{output}` and
`{seed}` are filled in by the runner. The sizes are ROADMAP item 1's
(40, 20), (400, 200) and (1500, 600).
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Callable

import numpy as np


@dataclass(frozen=True)
class Command:
    metric: str  # per-command end-to-end metric, in ms
    argv: tuple[str, ...]
    check: str  # "analyze", "fit", "construct" or "simulate"


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    tag: int  # mixed into the seed so workloads never share an instance
    make_instance: Callable[[np.random.Generator], dict]
    commands: tuple[Command, ...]
    # Monte-Carlo trials per pass of the scenarios that fit once per trial.
    fit_trials: int = 0
    # ROADMAP item 1's best-of-3 ms per call at this size, printed beside
    # the traced inclusive ms per call.
    roadmap_ms: tuple[tuple[str, float], ...] = ()

    def instance_text(self, seed: int) -> str:
        """The instance JSON document; byte-identical for a given seed."""
        rng = np.random.default_rng(np.random.SeedSequence([seed, self.tag]))
        return json.dumps(self.make_instance(rng))


def _truth(rng: np.random.Generator, d: int) -> tuple[np.ndarray, np.ndarray]:
    # beta* correlates with theta*, as a spurious feature does.
    theta = rng.standard_normal(d)
    beta = 0.6 * theta + 0.8 * rng.standard_normal(d)
    return theta, beta


def _truth_block(theta: np.ndarray, beta: np.ndarray) -> dict:
    return {"theta_star": theta.tolist(), "beta_stars": [beta.tolist()]}


def wide_instance(rng: np.random.Generator, d: int = 1500, n: int = 600, groups: int = 8) -> dict:
    """One wide design, diagonal group second moments, no robust block."""
    theta, beta = _truth(rng, d)
    z = rng.standard_normal((n, d))
    return {
        "ground_truth": _truth_block(theta, beta),
        "train": {"Z": z.tolist()},
        "groups": [
            {"label": f"g{i}", "sigma": {"diag": rng.uniform(0.1, 2.0, d).tolist()}}
            for i in range(groups)
        ],
    }


def robust_instance(
    rng: np.random.Generator, d: int = 40, n: int = 20, groups: int = 10, samples: int = 4096
) -> dict:
    """A small design with rotated group second moments and a robust block.

    Every group shares one spectrum, so ||z|| has one distribution; gamma is
    its median, estimated from seeded draws, and the rejection sampler
    keeps about half of what it draws.
    """
    theta, beta = _truth(rng, d)
    z = rng.standard_normal((n, d))
    spectrum = rng.uniform(0.5, 2.0, d)
    sigmas = []
    for _ in range(groups):
        q, _ = np.linalg.qr(rng.standard_normal((d, d)))
        sigma = (q * spectrum) @ q.T
        sigmas.append((sigma + sigma.T) / 2.0)
    norms = np.sqrt(rng.standard_normal((20_000, d)) ** 2 @ spectrum)
    return {
        "ground_truth": _truth_block(theta, beta),
        "train": {"Z": z.tolist()},
        "groups": [{"label": f"g{i}", "sigma": s.tolist()} for i, s in enumerate(sigmas)],
        "robust": {"gamma": float(np.median(norms)), "norm_kind": "l2", "samples": samples},
    }


def construct_instance(
    rng: np.random.Generator, d: int = 400, n: int = 200, unlabeled: int = 450
) -> dict:
    """Ground truth, a training design and an unlabeled block of full column rank."""
    theta, beta = _truth(rng, d)
    z = rng.standard_normal((n, d))
    zu = rng.standard_normal((unlabeled, d))
    return {
        "ground_truth": _truth_block(theta, beta),
        "train": {"Z": z.tolist()},
        "unlabeled": {"Zu": zu.tolist(), "Su": (zu @ beta).tolist()},
    }


def _cmd(metric: str, check: str, *argv: str) -> Command:
    return Command(metric, (*argv, "--output", "{output}"), check)


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="analyze-wide",
            why="dense O(d^3) parse, validation and projection at d=1500, n=600; "
            "no scenarios, constructions or Monte-Carlo",
            tag=1,
            make_instance=wide_instance,
            commands=(
                _cmd("analyze_ms", "analyze", "analyze", "--instance", "{instance}", "--seed", "{seed}"),
                _cmd("fit_ms", "fit", "fit", "--model", "full", "--instance", "{instance}", "--seed", "{seed}"),
            ),
            roadmap_ms=(
                ("minnorm.DesignMatrix", 136),
                ("minnorm.projection", 547),
                ("analysis.TestDistribution", 210),
                ("estimators.fit_core", 13),
                ("estimators.fit_full", 16),
                ("analysis.removal_verdict", 5),
            ),
        ),
        Workload(
            name="simulate-mc",
            why="tiny problems run ~2e4 times per pass: per-call validation, Python loops "
            "and Monte-Carlo sampling, with negligible large-d factorization",
            tag=2,
            make_instance=robust_instance,
            # Scenario seeds stay at the CLI default: the 3-sigma self-check
            # has a designed false-alarm rate, and seed 0 is its reference.
            # example1/example2 run a fifth of ROADMAP item 1's 1e5/1e4
            # trials: each trial costs the same, and shorter passes give a
            # run enough samples for a steady median on a shared machine.
            commands=(
                _cmd("simulate_example1_ms", "simulate", "simulate", "--scenario", "example1", "--trials", "20000"),
                _cmd("simulate_example2_ms", "simulate", "simulate", "--scenario", "example2", "--trials", "2000"),
                _cmd("simulate_ovb_ms", "simulate", "simulate", "--scenario", "ovb-simple", "--trials", "100000"),
                _cmd("simulate_tables_ms", "simulate", "simulate", "--scenario", "tables"),
                _cmd("analyze_ms", "analyze", "analyze", "--instance", "{instance}", "--seed", "{seed}"),
            ),
            fit_trials=20_000 + 2_000,
        ),
        Workload(
            name="construct-dump",
            why="output-heavy: ~3.5 MB of canonical JSON per bundle, minnorm through "
            "row_space_projection and min_norm_solve at d=400",
            tag=3,
            make_instance=construct_instance,
            commands=(
                _cmd("construct_disjoint_ms", "construct", "construct", "--mode", "disjoint", "--instance", "{instance}", "--n", "200", "--seed", "{seed}"),
                _cmd("construct_balanced_ms", "construct", "construct", "--mode", "balanced", "--instance", "{instance}", "--d", "400", "--seed", "{seed}"),
                _cmd("fit_ms", "fit", "fit", "--model", "rst", "--instance", "{instance}", "--seed", "{seed}"),
            ),
        ),
    )
}
