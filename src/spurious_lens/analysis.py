"""Population and group error analysis for the fitted models.

Closed-form population errors under a test second-moment matrix, the
sign/magnitude removal verdict that decides whether using the spurious
feature lowers error, a Monte-Carlo robust (worst-case-perturbation) error,
and the two-group spurious-function estimator and its group error expansion.

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
and x - V(V'x). Sigma is kept in the form it was given: a diagonal as its
diagonal v, an empirical second moment Z'Z/n as its sample factor Z/sqrt(n),
and anything else as a d x d matrix. TestDistribution.quad and apply carry
the arithmetic of all three, so outside the robust sampler a d x d array
exists only where one was given. A dense Sigma is eigendecomposed once, by
TestDistribution.eigh, which its PSD check and the robust sampler read.

The robust sampler draws each batch of a seed's standard normals once per
robust_errors call for every group still short of samples. A group accepts
rows by its own Sigma factor and keeps only their values on theta* and each
model's weights, so it keeps the rows it would keep if sampled alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .exceptions import (
    DimensionMismatchError,
    NonFiniteResultError,
    NonOrthogonalGroupsError,
    NonPositiveGammaError,
    SamplerExhaustedError,
)
from .estimators import GroundTruth, LinearModel, implicit_weights
from .minnorm import (
    RANK_RTOL,
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

# Sigma is symmetric when max|S - S'| <= SYM_C eps max|S| and PSD when
# lambda_min >= -PSD_C d eps max|lambda|. By Weyl's bound, a symmetric E moves
# each eigenvalue by at most ||E||_2: forming a second moment rounds by a few
# d eps ||Sigma||_2 (Higham, §3.1), and eigh, reading one triangle, sees an
# asymmetry as ||E||_2 <= d SYM_C/2 eps max|S|, the PSD bound. Over ~3,000
# rank-deficient Grams and R S R' (d = 3 to 400) the largest were 0.5 d eps
# and 4.3 eps; 16 keeps a factor of 32 and refuses -4e-11 at unit scale.
EPS = float(np.finfo(float).eps)
PSD_C = 16
SYM_C = 2 * PSD_C

NORM_KINDS = ("l2", "linf")


@dataclass(frozen=True)
class TestDistribution:
    """A test population given by its second moment Sigma = E[zz'] and a label.

    sigma holds Sigma in one of three forms, each validated in the form it
    is kept in:
    - a d x d matrix, which must be finite, square, symmetric to SYM_C eps
      max|S| and positive semidefinite to PSD_C d eps max|lambda|; one with
      no off-diagonal nonzero has its diagonal as eigenvalues, so it is
      validated with no eigendecomposition, and any other matrix is checked
      on eigh, which the robust sampler then reuses;
    - a length-d vector v standing for diag(v), held to the same PSD rule
      entrywise, in O(d);
    - an m x d factor F with Sigma = F'F (factored), made by from_samples.
      F'F is positive semidefinite by construction, so F is only checked
      for shape and finiteness, in O(md).
    quad and apply give r' Sigma r and Sigma x in every form, matrix the
    dense Sigma, formed on first read, and eigh its one eigendecomposition.
    """

    __test__ = False  # not a pytest class, despite the name

    sigma: np.ndarray
    label: str = ""
    factored: bool = field(default=False, kw_only=True)

    def __post_init__(self):
        s = np.asarray(self.sigma, dtype=float)
        if self.factored:
            _freeze(self, sigma=_as_matrix(s, "sigma factor"))
            return
        if s.ndim == 1 and s.size:
            _freeze(self, sigma=_as_vector(s, "sigma"))
            eigval = self.sigma
        else:
            s = _as_matrix(s, "sigma")
            if s.shape[0] != s.shape[1]:
                raise DimensionMismatchError(f"sigma must be square, got {s.shape}")
            _freeze(self, sigma=s)
            eigval = np.diagonal(s)
            if np.count_nonzero(s) != np.count_nonzero(eigval):
                with np.errstate(over="ignore"):  # a gap past the float range is inf
                    gap = np.max(np.abs(s - s.T)) / max(s.max(), -s.min())
                if gap > SYM_C * EPS:
                    raise ValueError("sigma is not symmetric")
                eigval = self.eigh[0]
                if not np.isfinite(eigval).all():
                    raise NonFiniteResultError("sigma has a non-finite eigenvalue")
        smallest = eigval.min()
        if smallest < 0 and smallest / max(eigval.max(), -smallest) < -PSD_C * eigval.size * EPS:
            raise ValueError("sigma is not positive semidefinite")

    @classmethod
    def from_samples(cls, Z, label: str = "") -> "TestDistribution":
        """The empirical second moment Z'Z/n of the n rows of Z, kept as F = Z/sqrt(n)."""
        z = _as_matrix(Z, "samples")
        return cls(z / math.sqrt(z.shape[0]), label, factored=True)

    @property
    def dim(self) -> int:
        return self.sigma.shape[-1]

    def quad(self, r: np.ndarray) -> float:
        """r' Sigma r."""
        s = self.sigma
        if self.factored:
            f = s @ r
            return float(f @ f)
        if s.ndim == 1:  # r * v holds the values of r @ diag(v)
            return float((r * s) @ r)
        return float(r @ s @ r)

    def apply(self, x: np.ndarray) -> np.ndarray:
        """Sigma x."""
        s = self.sigma
        if self.factored:
            return s.T @ (s @ x)
        return s * x if s.ndim == 1 else s @ x

    @cached_property
    def matrix(self) -> np.ndarray:
        """The dense d x d Sigma."""
        s = self.sigma
        if self.factored:
            m = s.T @ s
        elif s.ndim == 1:
            m = np.diag(s)
        else:
            return s
        m.setflags(write=False)
        return m

    @cached_property
    def eigh(self) -> tuple[np.ndarray, np.ndarray]:
        """Ascending eigenvalues and orthonormal eigenvectors of matrix, read-only.
        A diagonal is decomposed as diag(v), so its robust draws are its matrix's."""
        eigval, eigvec = np.linalg.eigh(self.matrix)
        eigval.flags.writeable = eigvec.flags.writeable = False
        return eigval, eigvec


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

    def row_norms(self, x: np.ndarray, eigval: np.ndarray, factor: np.ndarray, squares=None) -> np.ndarray:
        """Norm of each row of z = x F' in this budget's norm, for the factor
        F = Q sqrt(diag(eigval)) of an eigendecomposition. Q is orthonormal,
        so ||F x||_2^2 = sum_j eigval_j x_j^2 needs no product by F. A caller
        that measures one batch for several factors passes its squares x * x."""
        if self.norm_kind == "l2":
            return np.sqrt((x * x if squares is None else squares) @ eigval)
        z = x @ factor.T
        return np.max(np.abs(z, out=z), axis=1)

    def spurious_halfwidth(self, beta_star: np.ndarray) -> float:
        """Half-width of the spurious perturbation interval (dual norm of beta*)."""
        if self.norm_kind == "l2":
            dual = float(np.linalg.norm(beta_star))
        else:
            dual = float(np.sum(np.abs(beta_star)))
        return self.gamma * dual


def _check_dims(truth: GroundTruth, pi: Projection, dist: TestDistribution):
    if not (truth.dim == pi.dim == dist.dim):
        raise DimensionMismatchError(
            f"dimensions disagree: truth {truth.dim}, projection {pi.dim}, sigma {dist.dim}"
        )


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
    return dist.quad(truth.theta_star - implicit_weights(model, truth))


def removal_verdict(
    truth: GroundTruth, pi: Projection, dist: TestDistribution
) -> RemovalVerdict:
    """Decide whether keeping the single spurious feature lowers population error.

    Compares the sign and relative magnitude of the seen-space correlation
    beta*' P theta* against the unseen-space correlation
    beta*' (I-P) Sigma (I-P) theta*; also reports both errors, as the
    quadratic forms of the core and full residuals Q theta* and
    Q theta* - w Q beta*. A number that overflows raises NonFiniteResultError.
    """
    if truth.n_spurious != 1:
        raise DimensionMismatchError(
            f"removal verdict needs exactly one spurious vector, got {truth.n_spurious}"
        )
    _check_dims(truth, pi, dist)
    theta = truth.theta_star
    beta = truth.beta_stars[0]
    with np.errstate(over="ignore", invalid="ignore"):
        pb = pi.project(beta)
        qt = pi.complement(theta)
        qb = beta - pb
        lhs = float(pb @ theta)
        denom = 1.0 + float(pb @ beta)
        w = lhs / denom
        sq = dist.apply(qb)
        rhs = float(qt @ sq)
        bqb = float(qb @ sq)
        error_core = dist.quad(qt)
        error_full = dist.quad(qt - w * qb)
    if not np.all(np.isfinite([lhs, rhs, w, bqb, error_core, error_full])):
        raise NonFiniteResultError(f"removal verdict is not finite on test distribution {dist.label!r}")

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


def robust_errors(
    models: list[LinearModel],
    truth: GroundTruth,
    groups: list[TestDistribution],
    spec: RobustSpec,
    samples: int,
    seed: int = 0,
) -> list[list[float]]:
    """Monte-Carlo worst-case error of each model on each group over spurious
    perturbations, as one list of per-model errors per group.

    For each sampled z the per-point loss is maximized over spurious values
    in [-gamma ||beta*||_dual, +gamma ||beta*||_dual]; the maximum of the
    resulting convex parabola sits at an interval endpoint, so the loss is
    (|theta*'z - theta_hat'z| + sum_i |w_i| gamma ||beta*||_dual)^2. Models
    without spurious weights get their plain squared error.

    A group's z ~ N(0, Sigma) is x F' for standard-normal rows x and
    F = Q sqrt(Lambda) from dist.eigh, kept while ||z|| <= gamma. Each
    max(samples, 512) x d batch of the seed's normals is drawn once, into one
    buffer, and for l2 squared once, for every group still short of samples;
    a group keeps only z'v = x F'v for v = theta* and each theta_hat, each
    from its own matrix-vector product.
    So each group's errors equal robust_error's for it alone at this seed,
    bit for bit, and all models are evaluated on one draw per group. After
    1000 batches a group still short raises SamplerExhaustedError; a loss
    that overflows raises NonFiniteResultError.
    """
    if truth.n_spurious != 1:
        raise DimensionMismatchError(
            f"robust error needs exactly one spurious vector, got {truth.n_spurious}"
        )
    if any(g.dim != truth.dim for g in groups):
        raise DimensionMismatchError("truth and sigma dimensions disagree")
    for model in models:
        if model.kind not in ("core", "full", "rst"):
            raise ValueError(
                f"robust error is defined for core/full/rst models, got {model.kind!r}"
            )
        if model.theta_hat.shape[0] != truth.dim:
            raise DimensionMismatchError("model and truth dimensions disagree")
        if model.kind == "full" and model.w_hat.shape[0] != 1:
            raise DimensionMismatchError(
                f"full model must carry one spurious weight, got {model.w_hat.shape[0]}"
            )
    if samples < 1:
        raise ValueError("samples must be >= 1")
    vectors = [truth.theta_star] + [m.theta_hat for m in models]
    samplers = []
    for dist in groups:
        eigval, eigvec = dist.eigh
        eigval = np.clip(eigval, 0.0, None)
        factor = eigvec * np.sqrt(eigval)
        samplers.append((eigval, factor, [factor.T @ v for v in vectors], [[] for _ in vectors]))
    need = [samples] * len(groups)
    rng = np.random.default_rng(seed)
    x = np.empty((max(samples, 512), truth.dim))
    squares = np.empty_like(x) if spec.norm_kind == "l2" else None
    for _ in range(1000):
        if not any(need):
            break
        rng.standard_normal(out=x)
        if squares is not None:
            np.multiply(x, x, out=squares)
        for i, (eigval, factor, directions, kept) in enumerate(samplers):
            if need[i]:
                idx = np.flatnonzero(spec.row_norms(x, eigval, factor, squares) <= spec.gamma)[: need[i]]
                for u, values in zip(directions, kept):
                    values.append((x @ u)[idx])
                need[i] -= idx.size
    if any(need):
        raise SamplerExhaustedError(
            f"rejection sampling kept exceeding ||z|| <= {spec.gamma}; "
            "gamma is too small for this second moment"
        )
    half = spec.spurious_halfwidth(truth.beta_stars[0])
    errors = []
    for *_, kept in samplers:
        y, *predictions = (np.concatenate(values) for values in kept)
        row = []
        for model, p in zip(models, predictions):
            with np.errstate(over="ignore", invalid="ignore"):
                slack = sum(abs(w) * half for w in model.w_hat)
                err = float(np.mean((np.abs(y - p) + slack) ** 2))
            if not np.isfinite(err):
                raise NonFiniteResultError(
                    f"robust {model.kind} error is not finite at gamma {spec.gamma}"
                )
            row.append(err)
        errors.append(row)
    return errors


def robust_error(
    model: LinearModel,
    truth: GroundTruth,
    dist: TestDistribution,
    spec: RobustSpec,
    samples: int,
    seed: int = 0,
) -> float:
    """Monte-Carlo worst-case error of one model on one group; see robust_errors."""
    return robust_errors([model], truth, [dist], spec, samples, seed)[0][0]


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
    if np.max(np.abs(pi1.basis.T @ pi2.basis)) >= RANK_RTOL:
        raise NonOrthogonalGroupsError("group row spaces are not orthogonal")
    v = pi1.complement(t) - pi2.project(t) - w * pi1.complement(a1) + w * pi2.project(a2)
    return dist.quad(v)
