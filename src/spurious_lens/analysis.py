"""Population and group error analysis for the fitted models.

Closed-form population errors under a test second-moment matrix, the
sign/magnitude removal verdict that decides whether using the spurious
feature lowers error, a Monte-Carlo robust (worst-case-perturbation) error,
per-group error tables, and the two-group spurious-function estimator and
its group error expansion.

Every population error is one quadratic form. Once each spurious value is
beta*' z, a model predicts e'z with e = implicit_weights(model, truth), so its
residual is the functional r'z with r = theta* - e, and its error under the
test second moment Sigma is

    E[(theta*' z - e' z)^2] = r' Sigma r.

With P the training row-space projector and Q = I - P, the minimum-norm fits
give r = Q theta* for the core model and r = Q theta* - w Q beta* for the full
model, w = beta*' P theta* / (1 + beta*' P beta*). The full model beats the
core model exactly when the seen-space correlation beta*' P theta* and the
unseen-space correlation beta*' Q Sigma Q theta* share a sign and

    | beta*' P theta* / (1 + beta*' P beta*) |
        < | 2 beta*' Q Sigma Q theta* / beta*' Q Sigma Q beta* |.

P and Q are applied through the projector's orthonormal basis V, as V(V'x)
and x - V(V'x); Sigma is the only d x d matrix involved.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .exceptions import (
    DimensionMismatchError,
    NonOrthogonalGroupsError,
    NonPositiveGammaError,
    SamplerExhaustedError,
)
from .estimators import GroundTruth, LinearModel, implicit_weights
from .minnorm import (
    DesignMatrix,
    Projection,
    _as_matrix,
    _as_vector,
    _freeze,
    min_norm_solve,
    projection,
)

# Below this, the seen-space weight or unseen-direction variance counts as zero
# and the verdict is a tie.
TIE_TOL = 1e-12

NORM_KINDS = ("l2", "linf")


@dataclass(frozen=True)
class TestDistribution:
    """A test population given by its second-moment matrix E[zz'] and a label."""

    __test__ = False  # not a pytest class, despite the name

    sigma: np.ndarray
    label: str = ""

    def __post_init__(self):
        m = _as_matrix(self.sigma, "sigma")
        if m.shape[0] != m.shape[1]:
            raise DimensionMismatchError(f"sigma must be square, got {m.shape}")
        if np.max(np.abs(m - m.T)) >= 1e-10:
            raise ValueError("sigma is not symmetric")
        if float(np.min(np.linalg.eigvalsh(m))) < -1e-10:
            raise ValueError("sigma is not positive semidefinite")
        _freeze(self, sigma=m)

    @property
    def dim(self) -> int:
        return self.sigma.shape[0]


@dataclass(frozen=True)
class RemovalVerdict:
    """Outcome of the spurious-feature removal test for one test distribution.

    full_better is True exactly when keeping the spurious feature yields
    strictly lower population error; ties (zero spurious weight or zero
    unseen-direction variance) report full_better False with tie set.
    """

    sign_match: bool
    magnitude_holds: bool
    full_better: bool
    tie: bool
    lhs_seen_corr: float
    rhs_unseen_corr: float
    w_hat: float
    error_core: float
    error_full: float

    def __post_init__(self):
        if self.full_better != (self.sign_match and self.magnitude_holds):
            raise ValueError("full_better must equal sign_match AND magnitude_holds")


@dataclass(frozen=True)
class RobustSpec:
    """Perturbation budget: ||z|| <= gamma in the given norm; the spurious
    value then ranges over [-gamma * dual_norm(beta*), +gamma * dual_norm(beta*)]."""

    gamma: float
    norm_kind: str = "l2"

    def __post_init__(self):
        if not (np.isfinite(self.gamma) and self.gamma > 0):
            raise NonPositiveGammaError(f"gamma must be positive and finite, got {self.gamma}")
        if self.norm_kind not in NORM_KINDS:
            raise ValueError(f"norm_kind must be one of {NORM_KINDS}, got {self.norm_kind!r}")

    def spurious_halfwidth(self, beta_star: np.ndarray) -> float:
        """Half-width of the spurious perturbation interval (dual norm of beta*)."""
        if self.norm_kind == "l2":
            dual = float(np.linalg.norm(beta_star))
        else:
            dual = float(np.sum(np.abs(beta_star)))
        return self.gamma * dual


@dataclass(frozen=True)
class GroupErrorTable:
    """Per-(group, model) population errors plus per-group core-minus-full deltas."""

    entries: tuple[tuple[str, str, float], ...]
    deltas: tuple[tuple[str, float], ...]


def _check_dims(truth: GroundTruth, pi: Projection, dist: TestDistribution):
    if not (truth.dim == pi.dim == dist.dim):
        raise DimensionMismatchError(
            f"dimensions disagree: truth {truth.dim}, projection {pi.dim}, sigma {dist.dim}"
        )


def _error(r: np.ndarray, dist: TestDistribution) -> float:
    """r' Sigma r: the expected square of the residual functional r'z."""
    return float(r @ dist.sigma @ r)


def population_error(
    model: LinearModel, truth: GroundTruth, dist: TestDistribution, pi: Projection
) -> float:
    """Expected squared prediction error under the test second moment.

    The expectation is over test points z with each spurious value generated
    as beta*' z, so the error is r' Sigma r with r = theta* -
    implicit_weights(model, truth), whatever design the model was fitted on.
    pi, the training row-space projector, only enters the dimension check.
    """
    _check_dims(truth, pi, dist)
    return _error(truth.theta_star - implicit_weights(model, truth), dist)


def removal_verdict(
    truth: GroundTruth, pi: Projection, dist: TestDistribution
) -> RemovalVerdict:
    """Decide whether keeping the single spurious feature lowers population error.

    Compares the sign and relative magnitude of the seen-space correlation
    beta*' P theta* against the unseen-space correlation
    beta*' (I-P) Sigma (I-P) theta*; also reports both errors, as the
    quadratic forms of the core and full residuals Q theta* and
    Q theta* - w Q beta*.
    """
    if truth.n_spurious != 1:
        raise DimensionMismatchError(
            f"removal verdict needs exactly one spurious vector, got {truth.n_spurious}"
        )
    _check_dims(truth, pi, dist)
    theta = truth.theta_star
    beta = truth.beta_stars[0]
    pb = pi.project(beta)
    qt = pi.complement(theta)
    qb = beta - pb
    lhs = float(pb @ theta)
    denom = 1.0 + float(pb @ beta)
    w = lhs / denom
    sq = dist.sigma @ qb
    rhs = float(qt @ sq)
    bqb = float(qb @ sq)
    error_core = _error(qt, dist)
    error_full = _error(qt - w * qb, dist)

    tie = abs(w) <= TIE_TOL or abs(bqb) <= TIE_TOL
    if tie:
        sign_match = False
        magnitude_holds = False
    else:
        sign_match = (lhs > 0) == (rhs > 0) and lhs != 0 and rhs != 0
        magnitude_holds = abs(lhs / denom) < abs(2.0 * rhs / bqb)
    return RemovalVerdict(
        sign_match=sign_match,
        magnitude_holds=magnitude_holds,
        full_better=sign_match and magnitude_holds,
        tie=tie,
        lhs_seen_corr=lhs,
        rhs_unseen_corr=rhs,
        w_hat=w,
        error_core=error_core,
        error_full=error_full,
    )


def _sample_bounded_gaussian(
    dist: TestDistribution, spec: RobustSpec, samples: int, rng: np.random.Generator
) -> np.ndarray:
    """Draw z ~ N(0, Sigma) rejected to ||z|| <= gamma, as a samples x d array."""
    eigval, eigvec = np.linalg.eigh(dist.sigma)
    factor = eigvec * np.sqrt(np.clip(eigval, 0.0, None))
    d = dist.dim
    out = np.empty((samples, d))
    filled = 0
    attempts = 0
    batch = max(samples, 512)
    while filled < samples:
        attempts += 1
        if attempts > 1000:
            raise SamplerExhaustedError(
                f"rejection sampling kept exceeding ||z|| <= {spec.gamma}; "
                "gamma is too small for this second moment"
            )
        g = rng.standard_normal((batch, d))
        z = g @ factor.T
        if spec.norm_kind == "l2":
            norms = np.linalg.norm(z, axis=1)
        else:
            norms = np.max(np.abs(z), axis=1)
        z = z[norms <= spec.gamma]
        take = min(samples - filled, z.shape[0])
        out[filled : filled + take] = z[:take]
        filled += take
    return out


def robust_error(
    model: LinearModel,
    truth: GroundTruth,
    dist: TestDistribution,
    spec: RobustSpec,
    samples: int,
    seed: int = 0,
) -> float:
    """Monte-Carlo worst-case error over spurious perturbations.

    For each sampled z the per-point loss is maximized over spurious values
    in [-gamma ||beta*||_dual, +gamma ||beta*||_dual]; the maximum of the
    resulting convex parabola sits at an interval endpoint, so the loss is
    (|theta*'z - theta_hat'z| + sum_i |w_i| gamma ||beta*||_dual)^2. Models
    without spurious weights get their plain squared error on the same
    sample, so comparisons at a shared seed are paired.
    """
    if model.kind not in ("core", "full", "rst"):
        raise ValueError(f"robust error is defined for core/full/rst models, got {model.kind!r}")
    if truth.n_spurious != 1:
        raise DimensionMismatchError(
            f"robust error needs exactly one spurious vector, got {truth.n_spurious}"
        )
    if model.theta_hat.shape[0] != truth.dim or dist.dim != truth.dim:
        raise DimensionMismatchError("model, truth and sigma dimensions disagree")
    if model.kind == "full" and model.w_hat.shape[0] != 1:
        raise DimensionMismatchError(
            f"full model must carry one spurious weight, got {model.w_hat.shape[0]}"
        )
    if samples < 1:
        raise ValueError("samples must be >= 1")
    rng = np.random.default_rng(seed)
    z = _sample_bounded_gaussian(dist, spec, samples, rng)
    y = z @ truth.theta_star
    base = z @ model.theta_hat
    half = spec.spurious_halfwidth(truth.beta_stars[0])
    slack = sum(abs(w) * half for w in model.w_hat)
    return float(np.mean((np.abs(y - base) + slack) ** 2))


def groupwise_report(
    models: list[LinearModel],
    truth: GroundTruth,
    groups: list[TestDistribution],
    pi: Projection,
) -> GroupErrorTable:
    """Population error of every model on every group, with core-minus-full deltas."""
    entries = []
    deltas = []
    for g in groups:
        by_kind = {}
        for m in models:
            err = population_error(m, truth, g, pi)
            entries.append((g.label, m.kind, err))
            by_kind.setdefault(m.kind, err)
        if "core" in by_kind and "full" in by_kind:
            deltas.append((g.label, by_kind["core"] - by_kind["full"]))
    return GroupErrorTable(entries=tuple(entries), deltas=tuple(deltas))


def groupwise_spurious_fit(Z1: DesignMatrix, Z2: DesignMatrix, alpha1, alpha2) -> np.ndarray:
    """Minimum-norm vector acting like alpha1 on group 1's rows and alpha2 on group 2's.

    The stacked minimum-norm solve of [Z1; Z2] x = [Z1 alpha1; Z2 alpha2].
    """
    a1 = _as_vector(alpha1, "alpha1")
    a2 = _as_vector(alpha2, "alpha2")
    d = Z1.cols
    if Z2.cols != d or a1.shape[0] != d or a2.shape[0] != d:
        raise DimensionMismatchError("group designs and alphas must share one dimension")
    stacked = np.vstack([Z1.entries, Z2.entries])
    rhs = np.concatenate([Z1.entries @ a1, Z2.entries @ a2])
    return min_norm_solve(stacked, rhs).x


def groupwise_spurious_error(
    Z1: DesignMatrix,
    Z2: DesignMatrix,
    theta,
    alpha1,
    alpha2,
    w: float,
    dist: TestDistribution,
) -> float:
    """Group-1 population error of the full model when the two groups generate
    the spurious feature with different coefficients (orthogonal row spaces).

    The residual functional on a group-1 point is
        theta'(I-P)z - w alpha1'(I-P1)z + w alpha2' P2 z
    with P the combined row-space projector, so the error is its quadratic
    form under Sigma.
    """
    t = _as_vector(theta, "theta")
    a1 = _as_vector(alpha1, "alpha1")
    a2 = _as_vector(alpha2, "alpha2")
    d = Z1.cols
    if Z2.cols != d or t.shape[0] != d or a1.shape[0] != d or a2.shape[0] != d or dist.dim != d:
        raise DimensionMismatchError("group designs, parameters and sigma must share one dimension")
    pi1 = projection(Z1)
    pi2 = projection(Z2)
    if np.max(np.abs(pi1.basis.T @ pi2.basis)) >= 1e-10:
        raise NonOrthogonalGroupsError("group row spaces are not orthogonal")
    v = pi1.complement(t) - pi2.project(t) - w * pi1.complement(a1) + w * pi2.project(a2)
    return _error(v, dist)
