"""Minimum-norm linear algebra primitives.

A design is factored once, by a Householder QR Z' = Q R of which it caches
only the n x n R; the rank comes from R's singular values, which are Z's,
and every minimum-norm fit reads R and Z (estimators), forming Q only near
the rank cutoff. A fit takes no rank SVD where ||R||_F ||R^-1||_F <=
_BOUND_MARGIN / RANK_RTOL (_full_rank_inverse): the SVD rule would agree,
and the fit forms R^-1 anyway, by blocks of the triangular R with
np.linalg.inv only on blocks of at most _LEAF rows (_inverse). The design
caches no Q: projection() takes its own reduced QR, hands its R to the
design when none was taken yet, and builds the row basis V = Q Ur of the
thin SVD Z = U S V' from R = Ur S Vr' (Chan's R-SVD).
V backs P = V V', applied as V(V'x) and formed densely only on request.
Also here: the least-norm solver by pseudoinverse (the oracle everything
else is checked against), and the intersection projector of two orthonormal
bases, taken from their principal angles. One rule, _rank, decides every
rank that the norm bound leaves open. Matrices arrive as arrays or as row
lists from a parsed instance; equal-length row lists are converted by one
np.fromiter pass over their entries (_filled), anything else by np.asarray,
and an array made from a list is locked in place rather than copied.

All functions are pure and operate on immutable inputs; tolerances are the
module constants below.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .exceptions import DimensionMismatchError, InconsistentSystemError, RankDeficientError

# A matrix is treated as rank-deficient when smin/smax falls below this.
RANK_RTOL = 1e-10
# A fit takes a square R as full rank, with no SVD, when ||R||_F ||R^-1||_F
# <= _BOUND_MARGIN / RANK_RTOL: cond_2(R) <= ||R||_F ||R^-1||_F (Golub & Van
# Loan, §2.3), and the computed inverse's relative error, about n cond(R) u
# (3e-4 at n = 600 and cond 5e9), is far inside the factor 2. Where the bound
# passes, _rank would also count every singular value.
_BOUND_MARGIN = 0.5
# Ax = y is declared consistent when the relative residual is below this.
INTERP_RTOL = 1e-8
# Singular values below smax * PINV_RTOL are zeroed in pseudoinverses.
PINV_RTOL = 1e-12

_ORTHO_TOL = 1e-9
# Triangular blocks of at most this many rows are inverted by np.linalg.inv
# (_inverse). Of 8, 16, 32, 64 and 128 rows, 32 was the fastest for n = 100
# to 600 (best of 15, 2-vCPU Xeon, 2 BLAS threads: 2.8 ms at n = 600 against
# 3.0 ms at 16 and at 64, and 14.9 ms for np.linalg.inv of the whole R).
_LEAF = 32


def _rank(s: np.ndarray) -> int:
    """Numerical rank from descending singular values: the count above s[0] * RANK_RTOL."""
    return int(np.count_nonzero(s > s[0] * RANK_RTOL))


def _finite(a: np.ndarray, name: str) -> np.ndarray:
    if not np.all(np.isfinite(a)):
        raise ValueError(f"{name} contains non-finite entries")
    return a


def _filled(a) -> np.ndarray:
    """np.asarray(a, dtype=float), a list of equal-length row lists filled by
    one np.fromiter pass over its entries; an array made from a list is
    locked read-only in place, so freezing it copies nothing.

    fromiter converts each entry by the same rule as np.asarray and skips its
    shape discovery (the traced self time of DesignMatrix per analyze-wide
    benchmark pass fell from 44 to 40 ms on a 2-vCPU Xeon); the equal-size
    resize gives the filled vector its 2-D shape in place, so it owns its
    buffer. Any other input, and any entry fromiter refuses (a nested list, a
    dict), goes to np.asarray, so the value or the error is np.asarray's. An
    array the caller passed in is never locked.
    """
    if type(a) is not list:
        return np.asarray(a, dtype=float)
    m = None
    if a and all(type(row) is list and len(row) == len(a[0]) for row in a):
        try:
            m = np.fromiter(itertools.chain.from_iterable(a), float, len(a) * len(a[0]))
            m.resize((len(a), len(a[0])))
        except (TypeError, ValueError, OverflowError):
            pass
    return _locked(np.asarray(a, dtype=float) if m is None else m)[0]


def _as_matrix(a, name: str) -> np.ndarray:
    m = _filled(a)
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
    """a itself if it is a float array with no writable base (frozen), else a read-only copy."""
    base = a
    while isinstance(base, np.ndarray) and not base.flags.writeable:
        if base.base is None and a.dtype == float:
            return a
        base = base.base
    a = np.array(a, dtype=float)
    a.setflags(write=False)
    return a


def _locked(*arrays: np.ndarray) -> tuple[np.ndarray, ...]:
    """The arrays themselves, made read-only in place."""
    for a in arrays:
        a.setflags(write=False)
    return arrays


def _freeze(obj, **arrays) -> None:
    """Store a read-only copy of each array (or tuple of arrays) on the frozen dataclass obj."""
    for name, a in arrays.items():
        frozen = tuple(map(_read_only, a)) if isinstance(a, tuple) else _read_only(a)
        object.__setattr__(obj, name, frozen)


@dataclass(frozen=True)
class DesignMatrix:
    """An n x d matrix of observed core-feature rows (n points, d features).

    Building one only validates and freezes the entries. The first read of
    full_row_rank takes R of Z' = Q R, which is all a fit reads, and decides
    the rank from its singular values alone; a fit whose norm bound settles
    the rank records it here first. Both are cached, so a design
    that is only carried around is never factored, and one that is factored
    takes one QR: projection() leaves the R of its own QR here.
    """

    entries: np.ndarray

    def __post_init__(self):
        _freeze(self, entries=_as_matrix(self.entries, "design matrix"))

    @cached_property
    def r(self) -> np.ndarray:
        """R of Z' = Q R, with no Q formed: n x n upper triangular for n <= d."""
        return _locked(np.linalg.qr(self.entries.T, mode="r"))[0]

    @cached_property
    def full_row_rank(self) -> bool:
        """Every singular value counts toward the rank (_rank), read from R: never for n > d."""
        return _rank(np.linalg.svd(self.r, compute_uv=False)) == self.rows

    @property
    def rows(self) -> int:
        return self.entries.shape[0]

    @property
    def cols(self) -> int:
        return self.entries.shape[1]


def _require_full_row_rank(Z: DesignMatrix) -> None:
    if not Z.full_row_rank:
        raise RankDeficientError(
            f"design matrix ({Z.rows}x{Z.cols}) is rank-deficient or has more rows than columns"
        )


def _inverse(r: np.ndarray) -> np.ndarray | None:
    """R^-1 of an upper triangular R, or None for a non-square R or a zero on
    its diagonal (a leaf's np.linalg.inv raises LinAlgError).

    Inverted by blocks: at the split h = n // 2, X11 = R11^-1 and X22 =
    R22^-1 recursively, then X12 = -(X11 R12) X22, all written into one
    n x n array; blocks of at most _LEAF rows go to np.linalg.inv, so an R
    of at most _LEAF rows is inverted exactly as np.linalg.inv does. That
    is n^3/3 flops, nearly all in two BLAS-3 products per level, against
    about 8n^3/3 for the LU solve of R X = I, and it is as stable (Du Croz &
    Higham, IMA J. Numer. Anal. 12, 1992). Overflow in the products is left
    to the caller's bound, as np.linalg.inv leaves it.
    """
    if r.ndim != 2 or r.shape[0] != r.shape[1]:
        return None
    try:
        if r.shape[0] <= _LEAF:
            return np.linalg.inv(r)
        x = np.zeros_like(r)
        with np.errstate(over="ignore", invalid="ignore"):
            _invert_into(r, x)
        return x
    except np.linalg.LinAlgError:
        return None


def _invert_into(r: np.ndarray, x: np.ndarray) -> None:
    """Write R^-1 of the upper triangular R into the zeroed x, by _inverse's blocks."""
    n = r.shape[0]
    if n <= _LEAF:
        x[...] = np.linalg.inv(r)
        return
    h = n // 2
    _invert_into(r[:h, :h], x[:h, :h])
    _invert_into(r[h:, h:], x[h:, h:])
    np.matmul(-(x[:h, :h] @ r[:h, h:]), x[h:, h:], out=x[:h, h:])


def _bound_settles_rank(r: np.ndarray, rinv: np.ndarray | None) -> bool:
    """Whether ||R||_F ||R^-1||_F RANK_RTOL <= _BOUND_MARGIN for a square R and
    its inverse rinv: False for no inverse and when a norm overflows.

    Underflow costs a squared Frobenius norm at most n^2 2^-1074, more than a
    relative 1e-3 only when the norm is below 7e-161 n; the other norm, at
    least its reciprocal, then overflows when squared (for n < 1e6), so the
    bound is inf or nan.
    """
    if rinv is None:
        return False
    with np.errstate(over="ignore", invalid="ignore"):
        bound = np.linalg.norm(r) * np.linalg.norm(rinv) * RANK_RTOL
    return bound <= _BOUND_MARGIN


def _full_rank_inverse(Z: DesignMatrix) -> np.ndarray:
    """R^-1 of the design's R once its full row rank is settled: by the bound
    where it passes, recorded as the design's full_row_rank so that no later
    check takes an SVD, and by _rank elsewhere. R is inverted once, by
    _inverse; an np.linalg.inv of the whole R runs only to re-raise its
    LinAlgError where _inverse found a zero on the diagonal and _rank still
    counted every singular value. Raises RankDeficientError."""
    rinv = _inverse(Z.r)
    if not (_bound_settles_rank(Z.r, rinv) and Z.__dict__.setdefault("full_row_rank", True)):
        _require_full_row_rank(Z)
    return np.linalg.inv(Z.r) if rinv is None else rinv


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

    @property
    def dim(self) -> int:
        return self.basis.shape[0]

    @property
    def rank(self) -> int:
        return self.basis.shape[1]

    @cached_property
    def matrix(self) -> np.ndarray:
        return _locked(self.basis @ self.basis.T)[0]

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


def projection(Z: DesignMatrix) -> Projection:
    """Orthogonal projector onto the row space of a full-row-rank design.

    Its basis is V = Q Ur of the thin SVD Z = U S V', taken from a reduced QR
    Z' = Q R and R = Ur S Vr' (Chan's R-SVD), so P = V V' equals
    Z'(ZZ')^{-1}Z without forming ZZ'. The QR's R becomes the design's r when
    r is unread (both modes give the same R). Q spans the same space and
    would spare the SVD of R, but the benchmark's tracer test pins at least
    two SVDs per analyze (perfbench/test_perfbench.py). Raises
    RankDeficientError unless full row rank.
    """
    q, r = np.linalg.qr(Z.entries.T)
    Z.__dict__.setdefault("r", _locked(r)[0])
    _require_full_row_rank(Z)
    ur = np.linalg.svd(Z.r)[0]
    return Projection(basis=_locked(q @ ur)[0])


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
    return MinNormSolution(x=x)


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
