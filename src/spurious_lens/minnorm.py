"""Minimum-norm linear algebra primitives.

A full-row-rank design is factored once, by a thin SVD Z = U S V' cached on
the design. Its orthonormal row basis V backs the row-space projector
P = V V', which is applied as V(V'x) and formed densely only on request;
the same factors give every minimum-norm fit. Also here: the least-norm
solver by pseudoinverse (the oracle everything else is checked against),
and complement and intersection projectors taken from orthonormal bases by
a complete QR and by principal angles. One rule, _rank, decides every rank.

All functions are pure and operate on immutable inputs; tolerances are the
module constants below.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .exceptions import DimensionMismatchError, InconsistentSystemError, RankDeficientError

# A matrix is treated as rank-deficient when smin/smax falls below this.
RANK_RTOL = 1e-10
# Ax = y is declared consistent when the relative residual is below this.
INTERP_RTOL = 1e-8
# Singular values below smax * PINV_RTOL are zeroed in pseudoinverses.
PINV_RTOL = 1e-12

_SYM_TOL = 1e-10
_ORTHO_TOL = 1e-9
_EIG_TOL = 1e-8


def _rank(s: np.ndarray) -> int:
    """Numerical rank from descending singular values: the count above s[0] * RANK_RTOL."""
    return int(np.count_nonzero(s > s[0] * RANK_RTOL))


def _finite(a: np.ndarray, name: str) -> np.ndarray:
    if not np.all(np.isfinite(a)):
        raise ValueError(f"{name} contains non-finite entries")
    return a


def _as_matrix(a, name: str) -> np.ndarray:
    m = np.asarray(a, dtype=float)
    if m.ndim != 2 or m.size == 0:
        raise DimensionMismatchError(f"{name} must be a nonempty 2-D array, got shape {m.shape}")
    return _finite(m, name)


def _as_vector(a, name: str) -> np.ndarray:
    v = np.asarray(a, dtype=float)
    if v.ndim != 1:
        raise DimensionMismatchError(f"{name} must be a 1-D array, got shape {v.shape}")
    return _finite(v, name)


def _as_columns(a, name: str) -> np.ndarray:
    """A flat list (one column) or an n x k matrix, as a finite n x k array."""
    c = np.asarray(a, dtype=float)
    if c.ndim == 1:
        c = c[:, None]
    if c.ndim != 2:
        raise DimensionMismatchError(
            f"{name} must be a flat list or an n x k matrix, got shape {c.shape}"
        )
    return _finite(c, name)


def _read_only(a) -> np.ndarray:
    a = np.array(a, dtype=float)
    a.setflags(write=False)
    return a


def _freeze(obj, **arrays) -> None:
    """Store a read-only copy of each array (or tuple of arrays) on the frozen dataclass obj."""
    for name, a in arrays.items():
        frozen = tuple(map(_read_only, a)) if isinstance(a, tuple) else _read_only(a)
        object.__setattr__(obj, name, frozen)


@dataclass(frozen=True)
class DesignMatrix:
    """An n x d matrix of observed core-feature rows (n points, d features).

    Building one only validates and freezes the entries. full_row_rank is
    decided by its own singular-value SVD when it is first read, and the
    thin SVD Z = U diag(s) V' with singular vectors when a fit or a
    projection first needs it; both are cached, so a design that is only
    carried around never takes an SVD.
    """

    entries: np.ndarray

    def __post_init__(self):
        _freeze(self, entries=_as_matrix(self.entries, "design matrix"))

    @cached_property
    def full_row_rank(self) -> bool:
        """n <= d and every singular value counts toward the rank (_rank)."""
        if self.rows > self.cols:
            return False
        return _rank(np.linalg.svd(self.entries, compute_uv=False)) == self.rows

    @property
    def rows(self) -> int:
        return self.entries.shape[0]

    @property
    def cols(self) -> int:
        return self.entries.shape[1]

    @cached_property
    def svd(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(U, s, V) with Z = U diag(s) V': U is n x n, V the d x n orthonormal row basis.

        Raises RankDeficientError unless the design has full row rank.
        """
        _require_full_row_rank(self)
        v, s, ut = np.linalg.svd(self.entries.T, full_matrices=False)
        factors = (ut.T, s, v)
        for f in factors:
            f.setflags(write=False)
        return factors


def _require_full_row_rank(Z: DesignMatrix) -> None:
    if not Z.full_row_rank:
        raise RankDeficientError(
            f"design matrix ({Z.rows}x{Z.cols}) is rank-deficient or has more rows than columns"
        )


@dataclass(frozen=True)
class Projection:
    """Orthogonal projector V V' onto the span of an orthonormal d x r basis V.

    rank and dim come from the basis. The projector is applied as V(V'x);
    the dense d x d matrix is formed only when `matrix` is read.
    """

    basis: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.basis, dtype=float)
        if v.ndim != 2 or v.shape[0] == 0 or v.shape[1] > v.shape[0]:
            raise DimensionMismatchError(
                f"projection basis must be d x r with 0 <= r <= d, got shape {v.shape}"
            )
        _finite(v, "projection basis")
        if np.max(np.abs(v.T @ v - np.eye(v.shape[1])), initial=0.0) >= _ORTHO_TOL:
            raise ValueError("projection basis is not orthonormal")
        _freeze(self, basis=v)

    @classmethod
    def from_matrix(cls, m) -> "Projection":
        """Projection given as a dense matrix, which must be symmetric with
        eigenvalues in {0, 1} (and is then idempotent)."""
        m = _as_matrix(m, "projection matrix")
        if m.shape[0] != m.shape[1]:
            raise DimensionMismatchError(f"projection matrix must be square, got {m.shape}")
        if np.max(np.abs(m - m.T)) >= _SYM_TOL:
            raise ValueError("projection matrix is not symmetric")
        eig, vecs = np.linalg.eigh(m)
        if np.max(np.minimum(np.abs(eig), np.abs(eig - 1.0))) >= _EIG_TOL:
            raise ValueError("projection eigenvalues are not in {0, 1}")
        return cls(basis=vecs[:, eig > 0.5])

    @property
    def dim(self) -> int:
        return self.basis.shape[0]

    @property
    def rank(self) -> int:
        return self.basis.shape[1]

    @cached_property
    def matrix(self) -> np.ndarray:
        p = self.basis @ self.basis.T
        p.setflags(write=False)
        return p

    def project(self, x: np.ndarray) -> np.ndarray:
        """P x, computed as V(V'x)."""
        return self.basis @ (self.basis.T @ x)

    def complement(self, x: np.ndarray) -> np.ndarray:
        """(I - P) x, computed as x - V(V'x)."""
        return x - self.project(x)


def _scaled(v: np.ndarray) -> tuple[np.ndarray, int]:
    """(v 2^-e, e) such that no square of v 2^-e overflows or underflows: e = 0 while
    max|v| lies in [2^-450, 2^450], else the exponent that brings it into [0.5, 1)."""
    e = math.frexp(float(max(v.max(), -v.min())))[1]
    if abs(e) <= 450:
        return v, 0
    return np.ldexp(v, -e), e


def _relative_residual(res: np.ndarray, b: np.ndarray) -> float:
    """max ||res_i|| / ||b|| over the rows res_i of res (||res_i|| when b is 0).

    res and b are scaled together by _scaled(b), so the ratio is right
    wherever it is representable. A residual far above b gives inf, a
    non-finite one inf or nan.
    """
    b, e = _scaled(b)
    with np.errstate(over="ignore"):
        residual = float(np.max(np.linalg.norm(np.ldexp(res, -e) if e else res, axis=-1)))
    scale = float(np.linalg.norm(b))
    return residual / scale if scale > 0 else residual


@dataclass(frozen=True)
class MinNormSolution:
    """Least-norm interpolant of a consistent linear system."""

    x: np.ndarray
    residual_norm: float
    solution_norm: float


def projection(Z: DesignMatrix) -> Projection:
    """Orthogonal projector onto the row space of a full-row-rank design.

    Backed by the row basis V of the design's cached thin SVD, so P = V V'
    equals Z'(ZZ')^{-1}Z without forming ZZ'.
    """
    return Projection(basis=Z.svd[2])


def row_space_projection(M: np.ndarray) -> Projection:
    """Projector onto the row space of an arbitrary (possibly rank-deficient) matrix.

    Unlike :func:`projection` this never raises on rank deficiency; singular
    values below smax * RANK_RTOL are treated as zero.
    """
    m = _as_matrix(M, "matrix")
    v, s, _ = np.linalg.svd(m.T, full_matrices=False)
    return Projection(basis=v[:, : _rank(s)])


def min_norm_solve(A, y) -> MinNormSolution:
    """Unique least-l2-norm x with Ax = y, via the pseudoinverse.

    Raises InconsistentSystemError when y is not in the column space of A
    (relative residual above INTERP_RTOL).
    """
    a = _as_matrix(A, "system matrix")
    b = _as_vector(y, "right-hand side")
    if a.shape[0] != b.shape[0]:
        raise DimensionMismatchError(f"system has {a.shape[0]} rows but rhs has {b.shape[0]}")
    x, _, _, _ = np.linalg.lstsq(a, b, rcond=PINV_RTOL)
    res = a @ x - b
    rel = _relative_residual(res, b)
    if not rel <= INTERP_RTOL:
        raise InconsistentSystemError(
            f"system Ax = y is inconsistent (relative residual {rel:.3e})"
        )
    # hypot scales its arguments, so neither norm overflows on a huge system
    return MinNormSolution(x=x, residual_norm=math.hypot(*res), solution_norm=math.hypot(*x))


def null_projection(pi: Projection) -> Projection:
    """Projector onto the orthogonal complement, I - pi, from a complete QR of pi's basis."""
    return Projection(basis=np.linalg.qr(pi.basis, mode="complete")[0][:, pi.rank :])


def intersection_projection(pi1: Projection, pi2: Projection) -> Projection:
    """Projector onto range(pi1) intersected with range(pi2), from principal angles.

    The singular values of (I - pi1) V2, V2 pi2's basis, are the sines of the
    principal angles (Bjorck & Golub, 1973); V2 times the right singular
    vectors with sine <= RANK_RTOL spans the intersection, possibly rank 0.
    """
    if pi1.dim != pi2.dim:
        raise DimensionMismatchError(f"projection dims differ: {pi1.dim} vs {pi2.dim}")
    _, sines, vt = np.linalg.svd(pi1.complement(pi2.basis), full_matrices=False)
    return Projection(basis=pi2.basis @ vt[sines <= RANK_RTOL].T)
