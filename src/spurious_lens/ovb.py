"""Omitted-variable-bias analysis at the population level.

With observed covariates X, unobserved covariates Z entering the response
with coefficients delta, least squares is biased by (X'X)^{-1} E[X'Z|X] delta.
For a single extra feature s (coefficient beta) and unobserved z
(coefficients gamma), a group g prefers the model WITHOUT s exactly when

    gamma' (lambda - 2 lambda_g) >= beta,

where lambda = Sigma_ss^{-1} Sigma_sz is the population correlation of s
with z and lambda_g its in-group counterpart. All moments refer to
variables centered at the population level (the observed covariates are
conditioned away by the caller). estimate_group_losses checks the rule by
Monte-Carlo on draws of (s, z) that the caller has made and restricted to
the group.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .exceptions import (
    DimensionMismatchError,
    EmptyGroupError,
    NonFiniteResultError,
    SignAssumptionError,
    SingularGramError,
)
from .minnorm import _as_matrix, _as_vector, _freeze, _rank


@dataclass(frozen=True)
class OvbPopulation:
    """Population-level coefficients and second moments for the extra feature s.

    gamma: coefficients of the unobserved covariates z (length q);
    beta_s: coefficient of s; sigma_ss = E[s^2] > 0; sigma_sz = E[s z].
    mean_s / mean_z center raw draws before the loss formulas apply.
    """

    gamma: np.ndarray
    beta_s: float
    sigma_ss: float
    sigma_sz: np.ndarray
    mean_s: float = 0.0
    mean_z: np.ndarray | None = None

    def __post_init__(self):
        g = _as_vector(self.gamma, "gamma")
        sz = _as_vector(self.sigma_sz, "sigma_sz")
        if sz.shape[0] != g.shape[0]:
            raise DimensionMismatchError(
                f"sigma_sz has length {sz.shape[0]}, expected {g.shape[0]}"
            )
        if not (np.isfinite(self.sigma_ss) and self.sigma_ss > 0):
            raise ValueError(f"sigma_ss must be positive, got {self.sigma_ss}")
        mz = np.zeros(g.shape[0]) if self.mean_z is None else _as_vector(self.mean_z, "mean_z")
        if mz.shape[0] != g.shape[0]:
            raise DimensionMismatchError("mean_z length must match gamma")
        _freeze(self, gamma=g, sigma_sz=sz, mean_z=mz)

    @property
    def lam(self) -> np.ndarray:
        """Population correlation coefficient lambda = sigma_sz / sigma_ss."""
        return self.sigma_sz / self.sigma_ss


@dataclass(frozen=True)
class GroupMoments:
    """In-group second moments of the population-centered (s, z).

    sigma_ss_g > 0 and sigma_sz_g define lambda_g = sigma_sz_g / sigma_ss_g.
    """

    sigma_ss_g: float
    sigma_sz_g: np.ndarray

    def __post_init__(self):
        sz = _as_vector(self.sigma_sz_g, "sigma_sz_g")
        if not (np.isfinite(self.sigma_ss_g) and self.sigma_ss_g > 0):
            raise ValueError(f"sigma_ss_g must be positive, got {self.sigma_ss_g}")
        _freeze(self, sigma_sz_g=sz)

    @property
    def lam_g(self) -> np.ndarray:
        return self.sigma_sz_g / self.sigma_ss_g


@dataclass(frozen=True)
class GroupLossEstimate:
    """Monte-Carlo in-group losses of the with-s and without-s predictors."""

    loss_with_s: float
    loss_without_s: float
    stderr_with_s: float
    stderr_without_s: float
    difference: float
    stderr_difference: float
    n_group: int


def _mean_stderr(values: np.ndarray) -> tuple[float, float]:
    """Sample mean and its standard error (0 for a single value)."""
    m = values.shape[0]
    stderr = float(np.std(values, ddof=1) / np.sqrt(m)) if m > 1 else 0.0
    return float(np.mean(values)), stderr


def ovb_bias(X, cross_moment, delta) -> np.ndarray:
    """Least-squares coefficient bias (X'X)^{-1} * cross_moment * delta.

    cross_moment is E[X'Z | X] (p x q); delta the unobserved coefficients.
    """
    x = _as_matrix(X, "X")
    cm = _as_matrix(cross_moment, "cross_moment")
    dv = _as_vector(delta, "delta")
    p = x.shape[1]
    if cm.shape != (p, dv.shape[0]):
        raise DimensionMismatchError(
            f"cross_moment must be {p} x {dv.shape[0]}, got {cm.shape}"
        )
    gram = x.T @ x
    if _rank(np.linalg.svd(gram, compute_uv=False)) < p:
        raise SingularGramError("X'X is singular")
    return np.linalg.solve(gram, cm @ dv)


def _check_sign_assumption(pop: OvbPopulation) -> float:
    margin = float(pop.lam @ pop.gamma) + pop.beta_s
    if margin <= 0:
        raise SignAssumptionError(
            f"decision rule requires lambda'gamma + beta > 0, got {margin:.6g}"
        )
    return margin


def group_prefers_core(pop: OvbPopulation, grp: GroupMoments) -> bool:
    """True when the group's loss is no worse without the extra feature s.

    Equivalent to the condition gamma' (lambda - 2 lambda_g) >= beta under
    the standing assumption lambda' gamma + beta > 0. A left side that
    overflows raises NonFiniteResultError.
    """
    if grp.sigma_sz_g.shape[0] != pop.gamma.shape[0]:
        raise DimensionMismatchError("group moments dimension does not match gamma")
    _check_sign_assumption(pop)
    with np.errstate(over="ignore", invalid="ignore"):
        lhs = float(pop.gamma @ (pop.lam - 2.0 * grp.lam_g))
    if not np.isfinite(lhs):
        raise NonFiniteResultError(f"decision rule is not finite at gamma {pop.gamma}")
    return lhs >= pop.beta_s


def estimate_group_losses(pop: OvbPopulation, s, z) -> GroupLossEstimate:
    """Monte-Carlo in-group losses of the two population predictors.

    s (length m) and z (m x q, or length m when q = 1) are the raw draws of
    the group's members; DimensionMismatchError unless their shapes agree
    with each other and with gamma, EmptyGroupError when m = 0. Losses are
    evaluated on the population-centered variables:
        with s:    (gamma' z - gamma' lambda s)^2
        without s: (gamma' z + beta s)^2
    A draw, loss or standard error that overflows raises
    NonFiniteResultError.
    """
    s = np.asarray(s, dtype=float)
    z = np.asarray(z, dtype=float)
    if z.ndim == 1:
        z = z[:, None]
    if s.ndim != 1 or z.shape != (s.shape[0], pop.gamma.shape[0]):
        raise DimensionMismatchError(
            f"draws have s {s.shape} and z {z.shape}, expected (m,) and (m, {pop.gamma.shape[0]})"
        )
    m = s.shape[0]
    if m == 0:
        raise EmptyGroupError("no group members among the draws")
    sc = s - pop.mean_s
    zc = z - pop.mean_z
    with np.errstate(over="ignore", invalid="ignore"):
        gz = zc @ pop.gamma
        with_s = (gz - float(pop.gamma @ pop.lam) * sc) ** 2
        without_s = (gz + pop.beta_s * sc) ** 2
        lw, ew = _mean_stderr(with_s)
        lo, eo = _mean_stderr(without_s)
        ld, ed = _mean_stderr(with_s - without_s)
    if not np.all(np.isfinite([lw, ew, lo, eo, ld, ed])):
        raise NonFiniteResultError(f"in-group losses are not finite at gamma {pop.gamma}")
    return GroupLossEstimate(
        loss_with_s=lw,
        loss_without_s=lo,
        stderr_with_s=ew,
        stderr_without_s=eo,
        difference=ld,
        stderr_difference=ed,
        n_group=m,
    )
