"""Minimum-norm estimators for the core, full, multi-spurious and RST models.

The core model interpolates the targets using only the core features; the
full model additionally spends weight on spurious feature columns to reach a
smaller parameter norm; the RST model refits without the spurious features
under pseudo-label constraints on unlabeled points and recovers an
s-oblivious model with the full model's predictions.

Closed forms (with P the row-space projector of Z, theta*/beta* the true
parameters):

    core:   theta = P theta*
    full:   w = theta*' P beta* / (1 + beta*' P beta*),  theta = P(theta* - w beta*)
    multi:  (I + G) w = c  with  G_ij = beta_i' P beta_j,  c_i = theta*' P beta_i
    rst:    theta = P theta* + w (I - P) beta*

Every fit also has an (S, Y)-data form used when no ground truth is attached.
The core, full and multi fits share one solver reading Z and R of Z' = Q R:
theta = Z'R^-1 c with R'c = Y - S w, corrected by one step when the residual
the interpolation check reads is above rounding level, and taken as Q c when
that step leaves it above INTERP_RTOL (near the rank cutoff). The RST fit
reads theta off R of [Zu | pseudo] or, near the cutoff, of [Z Y; Zu pseudo],
and forms no Q. No fit takes a rank SVD where ||R||_F ||R^-1||_F <=
0.5 / RANK_RTOL settles the rank (for R of Z' and for R11 of Zu); the SVD
rule decides everywhere else.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .exceptions import (
    DimensionMismatchError,
    InconsistentConstraintsError,
    InconsistentSystemError,
    RankDeficientError,
    VerificationError,
)
from .minnorm import (
    INTERP_RTOL,
    DesignMatrix,
    _as_columns,
    _as_matrix,
    _as_vector,
    _bound_settles_rank,
    _freeze,
    _full_rank_inverse,
    _inverse,
    _rank,
    _relative_residual,
    _require_full_row_rank,
    _scaled,
)

MODEL_KINDS = ("core", "full", "multi", "rst")

_PAIRING_TOL = 1e-9
# Largest normwise backward error of a stacked fit's k x k solve, in k * eps:
# about 9 times the worst over the test suite (0.45, at k = 1).
_STATIONARITY_TOL = 4.0
# Largest relative residual a stacked fit keeps without a correction step.
_REFINE_RTOL = 1e-12


def _reproduces(z: np.ndarray, abs_z: np.ndarray, v: np.ndarray, t: np.ndarray) -> bool:
    """Whether |Z v - t| <= _PAIRING_TOL |Z| |v| row by row, with a finite gap.

    The bound is a multiple of fl(Z v)'s rounding bound (Higham, §3.1) with no
    absolute term, so the decision does not depend on scale. abs_z is |Z|.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        gap = np.abs(z @ v - t)
    return bool(np.isfinite(gap).all() and (gap <= abs_z @ (_PAIRING_TOL * np.abs(v))).all())


@dataclass(frozen=True)
class GroundTruth:
    """True target parameters theta* and spurious parameters beta*_1..beta*_k."""

    theta_star: np.ndarray
    beta_stars: tuple[np.ndarray, ...] = ()

    def __post_init__(self):
        theta = _as_vector(self.theta_star, "theta_star")
        betas = tuple(_as_vector(b, f"beta_stars[{j}]") for j, b in enumerate(self.beta_stars))
        for j, bv in enumerate(betas):
            if bv.shape[0] != theta.shape[0]:
                raise DimensionMismatchError(
                    f"beta_stars[{j}] has dimension {bv.shape[0]}, expected {theta.shape[0]}"
                )
        _freeze(self, theta_star=theta, beta_stars=betas)

    @property
    def dim(self) -> int:
        return self.theta_star.shape[0]

    @property
    def n_spurious(self) -> int:
        return len(self.beta_stars)


def _check_truth_dim(Z: DesignMatrix, truth: GroundTruth) -> None:
    if truth.dim != Z.cols:
        raise DimensionMismatchError(f"truth dimension {truth.dim} does not match design with {Z.cols} columns")


@dataclass(frozen=True)
class LabeledData:
    """Training triple (Z, S, Y), optionally paired with its generating truth."""

    Z: DesignMatrix
    S: np.ndarray
    Y: np.ndarray
    truth: GroundTruth | None = None

    def __post_init__(self):
        s = _as_columns(self.S, "S")
        y = _as_vector(self.Y, "Y")
        n = self.Z.rows
        if s.shape[0] != n or y.shape[0] != n:
            raise DimensionMismatchError(
                f"row counts disagree: Z has {n}, S has {s.shape[0]}, Y has {y.shape[0]}"
            )
        _freeze(self, S=s, Y=y)
        if self.truth is not None:
            self._check_truth_pairing()

    def _check_truth_pairing(self):
        t = self.truth
        z = self.Z.entries
        _check_truth_dim(self.Z, t)
        if t.n_spurious != self.n_spurious:
            raise DimensionMismatchError(
                f"truth provides {t.n_spurious} spurious vectors but S has {self.n_spurious} columns"
            )
        abs_z = np.abs(z)
        if not _reproduces(z, abs_z, t.theta_star, self.Y):
            raise InconsistentSystemError("Y does not equal Z theta_star for the attached truth")
        for j, b in enumerate(t.beta_stars):
            if not _reproduces(z, abs_z, b, self.S[:, j]):
                raise InconsistentSystemError(
                    f"S column {j} does not equal Z beta_star[{j}] for the attached truth"
                )

    @classmethod
    def from_truth(cls, Z: DesignMatrix, truth: GroundTruth) -> "LabeledData":
        """Generate S and Y from the truth on the given design."""
        _check_truth_dim(Z, truth)
        z = Z.entries
        with np.errstate(over="ignore", invalid="ignore"):
            s = np.column_stack([z @ b for b in truth.beta_stars]) if truth.beta_stars else np.zeros((Z.rows, 0))
            y = z @ truth.theta_star
        return cls(Z=Z, S=s, Y=y, truth=truth)

    @property
    def n_spurious(self) -> int:
        return self.S.shape[1]


@dataclass(frozen=True)
class UnlabeledData:
    """Unlabeled points (Zu, Su) used for robust self-training."""

    Zu: np.ndarray
    Su: np.ndarray

    def __post_init__(self):
        zu = _as_matrix(self.Zu, "Zu")
        su = _as_columns(self.Su, "Su")
        if su.shape[0] != zu.shape[0]:
            raise DimensionMismatchError(
                f"row counts disagree: Zu has {zu.shape[0]}, Su has {su.shape[0]}"
            )
        _freeze(self, Zu=zu, Su=su)


@dataclass(frozen=True)
class LinearModel:
    """Fitted parameters: core-feature weights plus spurious-feature weights."""

    theta_hat: np.ndarray
    w_hat: np.ndarray
    kind: str

    def __post_init__(self):
        theta = _as_vector(self.theta_hat, "theta_hat")
        w = _as_vector(self.w_hat, "w_hat")
        if self.kind not in MODEL_KINDS:
            raise ValueError(f"unknown model kind {self.kind!r}")
        if self.kind in ("core", "rst") and w.shape[0] != 0:
            raise ValueError(f"{self.kind} models carry no spurious weights")
        _freeze(self, theta_hat=theta, w_hat=w)

    @property
    def squared_norm(self) -> float:
        return float(self.theta_hat @ self.theta_hat + self.w_hat @ self.w_hat)


def interpolation_residual(data: LabeledData, theta: np.ndarray, w: np.ndarray) -> float:
    """Norm of the training residual Y - S w - Z theta (w empty for core and rst models),
    scaled by _scaled; inf or nan, with no warning, when it is not representable."""
    with np.errstate(over="ignore", invalid="ignore"):
        r, e = _scaled(_residual(data.Z, data.S[:, : w.size], data.Y, theta, w)[0])
        return float(np.ldexp(np.linalg.norm(r), e))


def _residual(Z: DesignMatrix, cols: np.ndarray, Y: np.ndarray, theta, w) -> tuple[np.ndarray, float]:
    """Y - cols w - Z theta and the worst block's relative residual; theta, w and
    cols carry the same leading (stack) dimensions, or none."""
    res = Y - np.einsum("...nk,...k->...n", cols, w) - theta @ Z.entries.T
    return res, _relative_residual(res, Y)


def _check_interpolation(rel: float) -> None:
    """Raise unless a relative residual from _residual is at most INTERP_RTOL (a non-finite one fails)."""
    if not rel <= INTERP_RTOL:
        raise InconsistentSystemError(
            f"fitted model does not interpolate its training targets (relative residual {rel:.3e})"
        )


def _check_stationarity(m: np.ndarray, x: np.ndarray, rhs: np.ndarray) -> None:
    """Raise unless every block's x solves its k x k system m x = rhs to a normwise
    backward error ||m x - rhs|| / (||m|| ||x|| + ||rhs||) of at most
    _STATIONARITY_TOL * k * eps, in the infinity norm (Rigal & Gaches; Higham, §7.1)."""
    with np.errstate(over="ignore", invalid="ignore"):
        r = np.abs(np.einsum("tij,tj->ti", m, x) - rhs).max(axis=1, initial=0.0)
        bound = np.abs(m).sum(axis=2).max(axis=1, initial=0.0) * np.abs(x).max(axis=1, initial=0.0)
        bound += np.abs(rhs).max(axis=1, initial=0.0)
    ok = r <= _STATIONARITY_TOL * x.shape[1] * np.finfo(float).eps * bound
    if not ok.all():
        raise VerificationError(f"block {int(np.argmin(ok))}'s spurious weights do not solve (I + A'A) w = A'b")


def _through_z(c: np.ndarray, rinv: np.ndarray, z: np.ndarray) -> np.ndarray:
    """c R'^-1 Z for T x n rows c (so each row is Z'R^-1 c_i), in the cheaper order."""
    return c @ rinv.T @ z if c.shape[0] < z.shape[1] else c @ (rinv.T @ z)


def fit_min_norm_stack(Z: DesignMatrix, cols, Y) -> tuple[np.ndarray, np.ndarray]:
    """Joint minimum-norm interpolants of Z theta_i + cols_i w_i = Y for a stack.

    cols is T x n x k (k >= 0): T column blocks sharing one design and one
    target. Returns theta (T x d) and w (T x k). The design's full row rank is
    settled by ||R||_F ||R^-1||_F <= 0.5 / RANK_RTOL with no SVD, and recorded
    on the design, or else by the SVD rule. With R of the design's QR
    Z' = Q R, theta_i = Z'R^-1 c_i where c_i = b - A_i w_i, A_i = R'^{-1} cols_i
    and b = R'^{-1} Y; minimizing ||c_i||^2 + ||w_i||^2 gives
    (I + A_i'A_i) w_i = A_i'b, solved for all blocks by one stacked solve.
    R^-1 is formed once (R is triangular, so LU exchanges no rows); all
    A_i' = cols_i'R^-1 and all A_i'b each come from one 2-D product over the
    T blocks, and all theta_i from two (_through_z). Only when A'A or A'b
    overflows is each column of A with max|a_j| >= 0.5 scaled by the power of
    two that brings it into [0.5, 1): with A~ = A 2^-E, (2^-2E + A~'A~) x = A~'b
    and w = 2^-E x. This seminormal theta's residual grows with cond(Z); above
    _REFINE_RTOL (Gaussian designs up to 300 x 700 stay below 1.7e-15) one
    corrected step theta_i += Z'R^-1 R'^-1 res_i (Bjorck 1996) scales it by
    about cond(Z)^2 eps. Where it is still above INTERP_RTOL (near the rank
    cutoff), theta_i = Q c_i from a reduced QR of Z', whose R is the cached R
    bit for bit. w is never corrected. Raises RankDeficientError when the
    k x k system is singular in floating point (collinear columns so large
    that the identity is lost next to A'A), InconsistentSystemError when the
    worst block's final residual exceeds INTERP_RTOL, and VerificationError
    when x fails _check_stationarity.
    """
    cols = np.asarray(cols, dtype=float)
    y = _as_vector(Y, "Y")
    if cols.ndim != 3 or cols.shape[1] != Z.rows or y.shape[0] != Z.rows:
        raise DimensionMismatchError(
            f"need T x {Z.rows} x k column blocks and {Z.rows} targets, "
            f"got shapes {cols.shape} and {y.shape}"
        )
    rinv = _full_rank_inverse(Z)
    t, n, k = cols.shape
    b = y @ rinv
    # row j of at[i] is (R'^-1 cols_i[:, j])', so at[i] = A_i'
    at = (cols.transpose(0, 2, 1).reshape(t * k, n) @ rinv).reshape(t, k, n)
    with np.errstate(over="ignore", invalid="ignore"):
        gram, atb = at @ at.transpose(0, 2, 1), (at.reshape(t * k, n) @ b).reshape(t, k)
    try:
        if np.isfinite(gram).all() and np.isfinite(atb).all():
            m, rhs, e = np.eye(k) + gram, atb, 0
        else:
            e = np.maximum(np.frexp(np.max(np.abs(at), axis=2))[1], 0)
            at_s = np.ldexp(at, -e[..., None])
            m = np.ldexp(np.eye(k), -2 * e[:, None, :]) + at_s @ at_s.transpose(0, 2, 1)
            rhs = (at_s.reshape(t * k, n) @ b).reshape(t, k)
        x = np.linalg.solve(m, rhs[..., None])[..., 0]
    except np.linalg.LinAlgError as exc:
        raise RankDeficientError(f"the spurious-weight system is singular: {exc}") from exc
    w = np.ldexp(x, -e)
    c = b - np.einsum("tkn,tk->tn", at, w)
    theta = _through_z(c, rinv, Z.entries)
    res, rel = _residual(Z, cols, y, theta, w)
    if _REFINE_RTOL < rel < np.inf:
        theta += _through_z(res @ rinv, rinv, Z.entries)
        res, rel = _residual(Z, cols, y, theta, w)
        if not rel <= INTERP_RTOL:
            # one step converges only while cond(Z)^2 eps < 1; Q c does not square cond(Z)
            theta = c @ np.linalg.qr(Z.entries.T)[0].T
            rel = _residual(Z, cols, y, theta, w)[1]
    _check_interpolation(rel)
    _check_stationarity(m, x, rhs)
    return theta, w


def _fit_min_norm(data: LabeledData, cols: np.ndarray, kind: str) -> LinearModel:
    """One-block call of fit_min_norm_stack."""
    theta, w = fit_min_norm_stack(data.Z, cols[None], data.Y)
    return LinearModel(theta_hat=theta[0], w_hat=w[0], kind=kind)


def fit_core(data: LabeledData) -> LinearModel:
    """Minimum-norm interpolant of Z theta = Y, ignoring the spurious columns."""
    return _fit_min_norm(data, data.S[:, :0], "core")


def fit_full(data: LabeledData) -> LinearModel:
    """Joint minimum-norm interpolant of Z theta + S w = Y with one spurious column."""
    if data.n_spurious != 1:
        raise DimensionMismatchError(
            f"full model needs exactly one spurious column, got {data.n_spurious}"
        )
    return _fit_min_norm(data, data.S, "full")


def fit_multi(data: LabeledData) -> LinearModel:
    """Joint minimum-norm interpolant with k >= 1 spurious columns.

    The spurious weights solve the k x k system (I + A'A) w = A'b with
    A = R'^{-1} S_cols and b = R'^{-1} Y from the design's QR Z' = Q R
    (A'A is S_cols'(ZZ')^{-1}S_cols, never formed from ZZ'): the
    stationarity condition of the strictly convex joint norm objective.
    """
    if data.n_spurious < 1:
        raise DimensionMismatchError("multi model needs at least one spurious column")
    return _fit_min_norm(data, data.S, "multi")


def fit_rst(labeled: LabeledData, unlabeled: UnlabeledData, full: LinearModel) -> LinearModel:
    """Self-trained s-oblivious model: min-norm theta interpolating the labels
    and the full model's pseudo-labels on the unlabeled points.

    Solves min ||theta||^2 s.t. Z theta = Y and Zu theta = Zu theta_full + Su w.
    Zu must have full column rank (minnorm's rank rule), so Zu theta = pseudo
    has at most one solution, and when the stacked system is consistent it is
    the minimum-norm one, P theta* + w (I - P) beta*. theta is read off R =
    [R11 r; 0 rho] of [Zu | pseudo] as R11^-1 r, with no Q formed (Bjorck 1996,
    §2.4); R11 is R of Zu, and ||R11||_F ||R11^-1||_F <= 0.5 / RANK_RTOL
    settles the rank with no SVD, else R11's singular values decide it. The
    labeled design's row rank is checked by the SVD rule, which reads the
    rank a fit on the same design has already recorded. When that theta
    misses the labels (near the rank cutoff) it is read the same way off
    [Z Y; Zu pseudo]. Raises InconsistentConstraintsError when the stacked
    system's relative residual exceeds INTERP_RTOL.
    """
    if full.kind != "full":
        raise ValueError(f"fit_rst needs a full-model fit, got kind={full.kind!r}")
    _require_full_row_rank(labeled.Z)
    if labeled.n_spurious != full.w_hat.shape[0]:
        raise DimensionMismatchError(
            f"labeled data has {labeled.n_spurious} spurious columns but the full model "
            f"carries {full.w_hat.shape[0]} weights"
        )
    # full must come from this data
    _check_interpolation(_residual(labeled.Z, labeled.S, labeled.Y, full.theta_hat, full.w_hat)[1])
    zu = unlabeled.Zu
    su = unlabeled.Su
    m, d = zu.shape[0], labeled.Z.cols
    if zu.shape[1] != d:
        raise DimensionMismatchError(f"unlabeled design has {zu.shape[1]} columns, expected {d}")
    if su.shape[1] != full.w_hat.shape[0]:
        raise DimensionMismatchError(
            f"Su has {su.shape[1]} columns but the full model has {full.w_hat.shape[0]} spurious weights"
        )
    # Pseudo-labels or a solution past the float range give a non-finite
    # residual, which the check below refuses.
    with np.errstate(over="ignore", invalid="ignore"):
        pseudo = zu @ full.theta_hat + su @ full.w_hat
        augmented = np.column_stack([zu, pseudo])
        r = np.linalg.qr(augmented, mode="r")
        r11 = r[:d, :d]
        if not _bound_settles_rank(r11, _inverse(r11)) and _rank(np.linalg.svd(r11, compute_uv=False)) < d:
            raise RankDeficientError(f"unlabeled design ({m}x{d}) must have full column rank")
        rhs = np.concatenate([labeled.Y, pseudo])
        theta = np.linalg.solve(r11, r[:d, d])
        rel = _relative_residual(np.concatenate([labeled.Z.entries @ theta, zu @ theta]) - rhs, rhs)
        if not rel <= INTERP_RTOL:
            # near the rank cutoff theta's forward error (about cond(Zu) eps) shows in the labels
            stacked = np.vstack([np.column_stack([labeled.Z.entries, labeled.Y]), augmented])
            r = np.linalg.qr(stacked, mode="r")
            theta = np.linalg.solve(r[:d, :d], r[:d, d])
            rel = _relative_residual(stacked[:, :d] @ theta - rhs, rhs)
    if not rel <= INTERP_RTOL:
        raise InconsistentConstraintsError(
            "labels and pseudo-labels cannot be interpolated by one parameter vector "
            f"(relative residual {rel:.3e})"
        )
    return LinearModel(theta_hat=theta, w_hat=np.zeros(0), kind="rst")


def predict(model: LinearModel, z, s=None) -> float:
    """Model output theta' z + w' s (s must be omitted/empty for core and rst)."""
    zv = _as_vector(z, "z")
    if zv.shape[0] != model.theta_hat.shape[0]:
        raise DimensionMismatchError(
            f"z has dimension {zv.shape[0]}, model expects {model.theta_hat.shape[0]}"
        )
    k = model.w_hat.shape[0]
    if s is None:
        sv = np.zeros(0)
    else:
        sv = np.atleast_1d(np.asarray(s, dtype=float))
    if sv.shape[0] != k:
        raise DimensionMismatchError(
            f"s has {sv.shape[0]} entries but the {model.kind} model expects {k}"
        )
    out = float(model.theta_hat @ zv)
    if k:
        out += float(model.w_hat @ sv)
    return out


def implicit_weights(model: LinearModel, truth: GroundTruth) -> np.ndarray:
    """Effective linear functional of z once each spurious value is beta*' z.

    Returns theta_hat + sum_i w_i beta*_i; for models with no spurious
    weights this is theta_hat itself. theta* minus this vector is the
    model's residual functional, whose quadratic form under a test second
    moment is analysis.population_error. Raises DimensionMismatchError when
    the model's dimension or its nonzero weight count disagrees with truth.
    """
    if model.theta_hat.shape[0] != truth.dim:
        raise DimensionMismatchError(
            f"model dimension {model.theta_hat.shape[0]} does not match truth dimension {truth.dim}"
        )
    eff = model.theta_hat.copy()
    k = model.w_hat.shape[0]
    if k == 0:
        return eff
    if k != truth.n_spurious:
        raise DimensionMismatchError(
            f"model has {k} spurious weights but truth provides {truth.n_spurious} beta vectors"
        )
    for w, b in zip(model.w_hat, truth.beta_stars):
        eff = eff + w * b
    return eff
