"""Constructive counterexample generators.

Given true parameters (or given observed spurious values and targets), build
a training design plus two test designs such that keeping the spurious
feature strictly helps on one test distribution and strictly hurts on the
other. This demonstrates that neither disjoint parameter supports nor a
balanced dataset can guarantee that feature removal is safe.

Both constructions embed their own verification: the returned bundle carries
the removal verdicts evaluated on the empirical second moments of the two
test designs, each kept as its sample factor (TestDistribution.from_samples),
so no d x d second moment is formed or eigendecomposed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .analysis import RemovalVerdict, TestDistribution, removal_verdict
from .estimators import GroundTruth
from .exceptions import (
    DimensionTooSmallError,
    NonFiniteResultError,
    ParallelParametersError,
    ParallelTargetsError,
    VerificationError,
)
from .minnorm import RANK_RTOL, DesignMatrix, Projection, _as_vector, _scaled, min_norm_solve, row_space_projection

# Verdict error gaps below this are treated as verification failures.
GAP_TOL = 1e-9


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
        v1, v2 = self.verdict_full_wins, self.verdict_core_wins
        if not v1.full_better:
            raise VerificationError("full model does not win on its test design")
        if v2.full_better or v2.error_full <= v2.error_core:
            raise VerificationError("core model does not win on its test design")
        if v1.error_core - v1.error_full <= GAP_TOL or v2.error_full - v2.error_core <= GAP_TOL:
            raise VerificationError("error gaps are not strictly positive")


def _unit(v: np.ndarray) -> np.ndarray:
    """v / ||v||, the plain quotient while max|v| lies in [2^-450, 2^450]."""
    u, _ = _scaled(v)
    return u / np.linalg.norm(u)


def _parallel(u: np.ndarray, v: np.ndarray) -> bool:
    """Whether the unit vectors u and v are parallel: sin(u, v) <= RANK_RTOL."""
    return bool(np.linalg.norm(v - (u @ v) * u) <= RANK_RTOL)


def _orthonormal_complement(vectors: list[np.ndarray], d: int, count: int) -> np.ndarray:
    """Deterministic orthonormal basis of the complement of span(vectors), its first count rows."""
    basis = np.column_stack(vectors)
    q, _ = np.linalg.qr(basis)
    resid = np.eye(d) - q @ q.T
    # Orthonormalize the residuals of the canonical basis, largest first.
    order = np.argsort(-np.linalg.norm(resid, axis=0))
    out = np.empty((count, d))
    k = 0
    for idx in order:
        if k == count:
            break
        v = resid[:, idx] - out[:k].T @ (out[:k] @ resid[:, idx])
        norm = np.linalg.norm(v)
        if norm > 1e-8:
            out[k] = v / norm
            k += 1
    return out[:k]


def _widening(need: float) -> float:
    """Smallest c = 2^k - 1 (k >= 0) with c >= need, or inf past the float range.

    These are the partial sums 1 + 2 + 4 + ... of a doubling widening step.
    """
    if need <= 0.0:
        return 0.0
    if need >= 2.0**1023:
        return math.inf
    return 2.0 ** max(1, math.ceil(math.log2(need + 1.0))) - 1.0


def construct_disjoint(
    theta_star, beta_star, n: int, x: float = 0.1
) -> CounterexampleBundle:
    """Counterexample for arbitrary non-parallel true parameters.

    Builds unit directions u_t = theta*/||theta*||, u_b = beta*/||beta*||, an
    auxiliary unit vector b orthogonal to both, the test directions
    a2 = u_t + u_b + 2b and a3 = u_t - u_b, and a training direction a1 with
    a1'b = -x, a1'u_t = x, a1'u_b = x (minimum-norm solution). Training rows
    are a1 plus n-1 unit rows orthogonal to everything above; the test
    designs are n copies of a2/n and a3/n. When a spare orthogonal direction
    exists, a1 is widened along it by the smallest c = 2^k - 1 that meets
    the proof's magnitude margin, computed in closed form; x itself is kept.
    The rows a1/||a1|| and the padding are orthonormal, so they are the
    projector's basis as they stand. The bundle checks its verdict pair once
    and raises VerificationError when it does not verify, as does an x so
    small that x * a1 rounds to subnormals off a1's direction.
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
    if not theta.any() or not beta.any():
        raise ParallelParametersError("theta_star and beta_star must be nonzero")
    (ts, et), (bs, eb) = _scaled(theta), _scaled(beta)
    nt, nb = np.linalg.norm(ts), np.linalg.norm(bs)
    u_t, u_b = ts / nt, bs / nb
    if _parallel(u_t, u_b):
        raise ParallelParametersError("beta_star is a scalar multiple of theta_star")
    if not (np.isfinite(x) and x > 0):
        raise ValueError(f"x must be positive and finite, got {x}")

    comp = _orthonormal_complement([u_t, u_b], d, n + 1)  # d - 2 >= n rows
    b = comp[0]
    padding = comp[1 : n]  # n-1 unit rows, orthogonal to u_t, u_b, b
    a2 = u_t + u_b + 2.0 * b
    a3 = u_t - u_b
    # a1 is linear in x: solve its constraints once, at x = 1
    a1_unit = min_norm_solve(np.vstack([b, u_t, u_b]), np.array([-1.0, 1.0, 1.0])).x
    a1 = x * a1_unit
    if comp.shape[0] > n:
        # The proof's magnitude margin x^2/(x^2 + a1'a1) <= 2||theta*||/||beta*||,
        # with a1'a1 = x^2 ||a1_unit||^2 + c^2 once a1 is widened by c along
        # the spare direction, comp[n], which is orthogonal to a1_unit.
        # ||beta*|| / ||theta*|| from the scaled norms; inf past the float range.
        with np.errstate(over="ignore"):
            ratio = float(np.ldexp(nb / nt, eb - et))
        slack = ratio / 2.0 - 1.0 - float(a1_unit @ a1_unit)
        c = _widening(x * math.sqrt(max(0.0, slack)))
        if not math.isfinite(c):
            raise VerificationError(f"the widening of a1 overflows at x={x}")
        if c > 0.0:
            a1 = a1 + c * comp[n]

    truth = GroundTruth(theta_star=theta, beta_stars=(beta,))
    z_full_wins = np.tile(a2 / n, (n, 1))
    z_core_wins = np.tile(a3 / n, (n, 1))
    # hypot neither overflows nor underflows on the scaled a1; an a1 rounded
    # to subnormals has lost its direction.
    a1_dir, _ = _scaled(a1)
    try:
        pi = Projection(basis=np.vstack([a1_dir / math.hypot(*a1_dir), padding]).T)
    except ValueError as exc:
        raise VerificationError(f"a1 is not representable at x={x}: {exc}") from exc
    return CounterexampleBundle(
        Z_train=DesignMatrix(np.vstack([a1, padding])),
        Z_test_full_wins=DesignMatrix(z_full_wins),
        Z_test_core_wins=DesignMatrix(z_core_wins),
        truth=truth,
        verdict_full_wins=removal_verdict(truth, pi, TestDistribution.from_samples(z_full_wins, "full-wins")),
        verdict_core_wins=removal_verdict(truth, pi, TestDistribution.from_samples(z_core_wins, "core-wins")),
        x_param=float(x),
        b_vector=b,
    )


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
    if not s.any() or not y.any():
        raise ParallelTargetsError("S and Y must be nonzero")
    if _parallel(_unit(s), _unit(y)):
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

    with np.errstate(over="ignore"):
        y_minus_s = y - s
    if not np.isfinite(y_minus_s).all():
        raise NonFiniteResultError("the training column Y - S overflows")
    z_train = np.zeros((n, d))
    z_train[:, 0] = s
    z_train[:, 1] = y_minus_s

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
    v1 = removal_verdict(truth, pi, TestDistribution.from_samples(z_prime, "full-wins"))
    v2 = removal_verdict(truth, pi, TestDistribution.from_samples(z_second, "core-wins"))
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
