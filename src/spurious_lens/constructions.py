"""Constructive counterexample generators.

Given true parameters (or given observed spurious values and targets), build
a training design plus two test designs such that keeping the spurious
feature strictly helps on one test distribution and strictly hurts on the
other. This demonstrates that neither disjoint parameter supports nor a
balanced dataset can guarantee that feature removal is safe.

Both constructions embed their own verification: the returned bundle carries
the removal verdicts evaluated on the empirical second moments of the two
test designs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .analysis import RemovalVerdict, TestDistribution, removal_verdict
from .estimators import GroundTruth
from .exceptions import (
    DimensionTooSmallError,
    ParallelParametersError,
    ParallelTargetsError,
    VerificationError,
)
from .minnorm import DesignMatrix, _as_vector, min_norm_solve, row_space_projection

# Verdict error gaps below this are treated as verification failures.
GAP_TOL = 1e-9

_PARALLEL_TOL = 1e-10


@dataclass(frozen=True)
class CounterexampleBundle:
    """A verified train/test triple with opposite removal verdicts.

    verdict_full_wins and verdict_core_wins are evaluated on the empirical
    second moments of the two test designs; x_param and b_vector are the
    free scale and auxiliary orthogonal direction used by the
    disjoint-parameters construction (None for the balanced one).
    """

    Z_train: DesignMatrix
    Z_test_full_wins: DesignMatrix
    Z_test_core_wins: DesignMatrix
    truth: GroundTruth
    verdict_full_wins: RemovalVerdict
    verdict_core_wins: RemovalVerdict
    x_param: float | None = None
    b_vector: np.ndarray | None = None

    def __post_init__(self):
        failure = _verdict_pair_failure(self.verdict_full_wins, self.verdict_core_wins)
        if failure is not None:
            raise VerificationError(failure)


def _verdict_pair_failure(v1: RemovalVerdict, v2: RemovalVerdict) -> str | None:
    """Why v1 (full should win) and v2 (core should win) are not a
    counterexample pair, or None when they are."""
    if not v1.full_better:
        return "full model does not win on its test design"
    if v2.full_better or v2.error_full <= v2.error_core:
        return "core model does not win on its test design"
    if v1.error_core - v1.error_full <= GAP_TOL or v2.error_full - v2.error_core <= GAP_TOL:
        return "error gaps are not strictly positive"
    return None


def _empirical_second_moment(Z: np.ndarray, label: str) -> TestDistribution:
    n = Z.shape[0]
    sigma = Z.T @ Z / n
    return TestDistribution(sigma=(sigma + sigma.T) / 2.0, label=label)


def _unit(v: np.ndarray) -> np.ndarray:
    return v / np.linalg.norm(v)


def _orthonormal_complement(vectors: list[np.ndarray], d: int) -> np.ndarray:
    """Deterministic orthonormal basis of the complement of span(vectors)."""
    basis = np.column_stack(vectors)
    q, _ = np.linalg.qr(basis)
    proj = q @ q.T
    resid = np.eye(d) - proj
    # Orthonormalize the residuals of the canonical basis, largest first.
    order = np.argsort(-np.linalg.norm(resid, axis=0))
    out = []
    for idx in order:
        v = resid[:, idx].copy()
        for u in out:
            v -= (u @ v) * u
        norm = np.linalg.norm(v)
        if norm > 1e-8:
            out.append(v / norm)
    return np.array(out)


def construct_disjoint(
    theta_star, beta_star, n: int, x: float = 0.1
) -> CounterexampleBundle:
    """Counterexample for arbitrary non-parallel true parameters.

    Builds unit directions u_t = theta*/||theta*||, u_b = beta*/||beta*||, an
    auxiliary unit vector b orthogonal to both, the test directions
    a2 = u_t + u_b + 2b and a3 = u_t - u_b, and a training direction a1 with
    a1'b = -x, a1'u_t = x, a1'u_b = x (minimum-norm solution). Training rows
    are a1 plus n-1 unit rows orthogonal to everything above; the test
    designs are n copies of a2/n and a3/n. The scale x is halved (and a1 is
    inflated along a spare orthogonal direction when one exists) until the
    embedded verification passes.
    """
    theta = _as_vector(theta_star, "theta_star")
    beta = _as_vector(beta_star, "beta_star")
    d = theta.shape[0]
    if beta.shape[0] != d:
        raise DimensionTooSmallError("theta_star and beta_star must share a dimension")
    if d < 4:
        raise DimensionTooSmallError(f"construction needs dimension >= 4, got {d}")
    if not (1 <= n < d - 1):
        raise DimensionTooSmallError(f"construction needs 1 <= n < d - 1, got n={n}, d={d}")
    nt = np.linalg.norm(theta)
    nb = np.linalg.norm(beta)
    if nt == 0 or nb == 0:
        raise ParallelParametersError("theta_star and beta_star must be nonzero")
    u_t = theta / nt
    u_b = beta / nb
    resid = u_b - (u_t @ u_b) * u_t
    if np.linalg.norm(resid) <= _PARALLEL_TOL:
        raise ParallelParametersError("beta_star is a scalar multiple of theta_star")
    if not (np.isfinite(x) and x > 0):
        raise ValueError(f"x must be positive and finite, got {x}")

    comp = _orthonormal_complement([u_t, u_b], d)
    if comp.shape[0] < n:  # needs b plus n-1 padding rows
        raise RuntimeError("could not build enough orthogonal directions")
    b = comp[0]
    padding = comp[1 : n]  # n-1 unit rows, orthogonal to u_t, u_b, b
    spare = comp[n] if comp.shape[0] > n else None
    a2 = u_t + u_b + 2.0 * b
    a3 = u_t - u_b
    # a1 is linear in x: solve its constraints once, at x = 1
    a1_unit = min_norm_solve(np.vstack([b, u_t, u_b]), np.array([-1.0, 1.0, 1.0])).x
    # The proof's magnitude margin x^2/(a1'a1 + x^2) <= 2||theta*||/||beta*||,
    # taken as a square root so that no square of x overflows.
    margin = math.sqrt(2.0 * nt / nb)

    truth = GroundTruth(theta_star=theta, beta_stars=(beta,))
    z_full_wins = np.tile(a2 / n, (n, 1))
    z_core_wins = np.tile(a3 / n, (n, 1))
    sigma_prime = _empirical_second_moment(z_full_wins, "full-wins")
    sigma_second = _empirical_second_moment(z_core_wins, "core-wins")

    cur_x = float(x)
    for _ in range(64):
        a1 = cur_x * a1_unit
        # when the margin fails, widen a1 along a spare orthogonal direction
        if spare is not None:
            rho = 1.0
            for _ in range(64):
                if cur_x / math.hypot(cur_x, *a1) <= margin:
                    break
                a1 = a1 + rho * spare
                rho *= 2.0
        z_rows = np.vstack([a1, padding]) if padding.size else a1[None, :]
        z_train = DesignMatrix(z_rows)
        pi = row_space_projection(z_train.entries)
        v1 = removal_verdict(truth, pi, sigma_prime)
        v2 = removal_verdict(truth, pi, sigma_second)
        if _verdict_pair_failure(v1, v2) is None:
            return CounterexampleBundle(
                Z_train=z_train,
                Z_test_full_wins=DesignMatrix(z_full_wins),
                Z_test_core_wins=DesignMatrix(z_core_wins),
                truth=truth,
                verdict_full_wins=v1,
                verdict_core_wins=v2,
                x_param=cur_x,
                b_vector=b,
            )
        cur_x /= 2.0
    raise VerificationError("could not verify the counterexample after shrinking x")


def construct_balanced(S, Y, d: int) -> CounterexampleBundle:
    """Counterexample that keeps the observed (S, Y) identical at train and test.

    Uses reduced parameters [1, 1] and [1, 0] on the first two coordinates,
    training design [S, Y-S, 0], and perturbs the training rows by vectors
    annihilating both theta* and beta* so the spurious values and targets are
    reproduced exactly on both test designs while the verdicts flip.
    """
    s = _as_vector(S, "S")
    y = _as_vector(Y, "Y")
    n = s.shape[0]
    if y.shape[0] != n:
        raise DimensionTooSmallError("S and Y must have the same length")
    if d < 4:
        raise DimensionTooSmallError(f"construction needs dimension >= 4, got {d}")
    if np.linalg.norm(s) == 0 or np.linalg.norm(y) == 0:
        raise ParallelTargetsError("S and Y must be nonzero")
    resid = y - (y @ s) / (s @ s) * s
    if np.linalg.norm(resid) <= _PARALLEL_TOL * np.linalg.norm(y):
        raise ParallelTargetsError("Y is a scalar multiple of S")

    theta_bar = np.array([1.0, 1.0])
    beta_bar = np.array([1.0, 0.0])
    theta = np.zeros(d)
    theta[:2] = theta_bar
    theta[d - 2] = 1.0
    beta = np.zeros(d)
    beta[:2] = beta_bar
    beta[d - 1] = 1.0
    truth = GroundTruth(theta_star=theta, beta_stars=(beta,))

    z_train = np.zeros((n, d))
    z_train[:, 0] = s
    z_train[:, 1] = y - s

    def perturbed(direction: np.ndarray) -> np.ndarray:
        a = np.zeros(d)
        a[:2] = direction
        a[d - 2] = -(direction @ theta_bar)
        a[d - 1] = -(direction @ beta_bar)
        return z_train + np.tile(a / n, (n, 1))

    a_bar = _unit(theta_bar) + _unit(beta_bar)
    a_bar_prime = _unit(theta_bar) - _unit(beta_bar)
    z_prime = perturbed(a_bar)
    z_second = perturbed(a_bar_prime)

    pi = row_space_projection(z_train)
    v1 = removal_verdict(truth, pi, _empirical_second_moment(z_prime, "full-wins"))
    v2 = removal_verdict(truth, pi, _empirical_second_moment(z_second, "core-wins"))
    bundle = CounterexampleBundle(
        Z_train=DesignMatrix(z_train),
        Z_test_full_wins=DesignMatrix(z_prime),
        Z_test_core_wins=DesignMatrix(z_second),
        truth=truth,
        verdict_full_wins=v1,
        verdict_core_wins=v2,
    )
    for z in (z_train, z_prime, z_second):
        if not np.allclose(z @ theta, y, rtol=1e-9, atol=1e-9):
            raise VerificationError("constructed design does not reproduce the targets")
        if not np.allclose(z @ beta, s, rtol=1e-9, atol=1e-9):
            raise VerificationError("constructed design does not reproduce the spurious values")
    return bundle
