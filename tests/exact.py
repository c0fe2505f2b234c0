"""Exact rational oracle for the fits and the removal verdict.

Every float64 is a rational, so the minimum-norm fits, the stacked RST
solution and the verdict's quadratic forms can be computed with no rounding
at all. Each matrix product is a set of Python-integer dot products over a
common power-of-two denominator, and each linear system is solved by
Gauss-Jordan elimination in fractions.Fraction. Nothing here imports
spurious_lens; the tests compare the library's floating-point results
against these values.

The cost grows quickly with the number of unknowns, so keep the systems
small: a 5 x 14 minimum-norm fit solves one 5 x 5 system, a 12-column
stacked RST solve one 12 x 12 system (about 20 ms on one core).
"""

from fractions import Fraction

import numpy as np


def rational(a) -> list:
    """a (a float array of any shape) as nested lists of exact Fractions."""
    a = np.asarray(a, dtype=float)
    if a.ndim == 0:
        return Fraction(float(a))
    return [rational(x) for x in a]


def _integers(a) -> tuple[list, int]:
    """(N, D) with the rows of the 2-D float array a equal to N / D exactly:
    N a list of rows of Python ints, D a power of two."""
    ratios = [[x.as_integer_ratio() for x in row] for row in np.asarray(a, dtype=float).tolist()]
    den = max(d for row in ratios for _, d in row)
    return [[n * (den // d) for n, d in row] for row in ratios], den


def products(a, b) -> list:
    """The exact p x q matrix a b' for float arrays a (p x k) and b (q x k):
    each entry is one integer dot product over the common denominators."""
    (na, da), (nb, db) = _integers(a), _integers(b)
    return [[Fraction(sum(x * y for x, y in zip(r, s)), da * db) for s in nb] for r in na]


def _dot(u: list, v: list) -> Fraction:
    return sum((x * y for x, y in zip(u, v)), Fraction(0))


def _through_rows(a, c: list) -> list:
    """a' c exactly, for a float array a (p x k) and p Fractions c."""
    return [_dot(col, c) for col in zip(*rational(a))]


def solve(m: list, b: list) -> list:
    """x with m x = b for a nonsingular square m, by Gauss-Jordan elimination."""
    rows = [row[:] + [bi] for row, bi in zip(m, b)]
    k = len(rows)
    for j in range(k):
        p = next(i for i in range(j, k) if rows[i][j] != 0)
        rows[j], rows[p] = rows[p], rows[j]
        pivot = rows[j]
        inv = 1 / pivot[j]
        pivot[j:] = [x * inv for x in pivot[j:]]
        for i in range(k):
            f = rows[i][j]
            if i != j and f != 0:
                rows[i][j:] = [x - f * y for x, y in zip(rows[i][j:], pivot[j:])]
    return [row[k] for row in rows]


def min_norm(a, y) -> list:
    """The minimum-norm x with A x = y, A'(AA')^-1 y, for A of full row rank."""
    return _through_rows(a, solve(products(a, a), rational(y)))


def fit(z, s, y) -> np.ndarray:
    """The exact core (S with no column), full or multi fit: the float64
    nearest to each entry of the joint minimum-norm [theta; w] of [Z S] x = Y."""
    return to_float(min_norm(np.hstack([z, s]), y))


def stacked(z, y, zu, pseudo) -> np.ndarray:
    """The least-squares theta of [Z; Zu] theta = [Y; pseudo] (the RST fit when
    the system is consistent), from its normal equations, for [Z; Zu] of
    full column rank."""
    at = np.vstack([z, zu]).T
    atb = products(at, np.concatenate([y, pseudo])[None])
    return to_float(solve(products(at, at), [row[0] for row in atb]))


def verdict(z, theta_star, beta_star, sigma_diag) -> dict:
    """The exact removal verdict for one spurious vector under diag(sigma_diag),
    with P = Z'(ZZ')^-1 Z and Q = I - P: tie, sign_match and magnitude_holds
    as RemovalVerdict defines them, where a tie is w = 0 or
    beta*'Q Sigma Q beta* = 0, exactly."""
    gram = products(z, z)

    def project(x):
        return _through_rows(z, solve(gram, [row[0] for row in products(z, np.asarray(x)[None])]))

    theta, beta, sigma = rational(theta_star), rational(beta_star), rational(sigma_diag)
    pb, pt = project(beta_star), project(theta_star)
    qb = [x - y for x, y in zip(beta, pb)]
    qt = [x - y for x, y in zip(theta, pt)]
    lhs = _dot(pb, theta)
    denom = 1 + _dot(pb, beta)
    rhs = sum((q * v * t for q, v, t in zip(qb, sigma, qt)), Fraction(0))
    bqb = sum((q * v * q for q, v in zip(qb, sigma)), Fraction(0))
    tie = lhs == 0 or bqb == 0
    sign_match = not tie and rhs != 0 and (lhs > 0) == (rhs > 0)
    magnitude_holds = not tie and abs(lhs / denom) < abs(2 * rhs / bqb)
    return {"tie": tie, "sign_match": sign_match, "magnitude_holds": magnitude_holds}


def to_float(v: list) -> np.ndarray:
    """Fractions as the nearest float64s."""
    return np.array([float(x) for x in v])
