import math
import warnings

import numpy as np
import pytest
from numpy.testing import assert_allclose

from spurious_lens import minnorm
from spurious_lens import (
    DesignMatrix,
    Projection,
    fit_min_norm_stack,
    intersection_projection,
    min_norm_solve,
    projection,
    row_space_projection,
)
from spurious_lens.exceptions import (
    DimensionMismatchError,
    InconsistentSystemError,
    RankDeficientError,
)


def random_projection(rng, d, r):
    q, _ = np.linalg.qr(rng.standard_normal((d, r)))
    return Projection(basis=q)


def axes_projection(d, axes):
    """Projector onto the coordinate axes listed."""
    return Projection(basis=np.eye(d)[:, axes])


def intersection_by_basis(p1, p2):
    """Oracle: intersection = null space of [(I-P1); (I-P2)]."""
    d = p1.shape[0]
    stacked = np.vstack([np.eye(d) - p1, np.eye(d) - p2])
    _, s, vt = np.linalg.svd(stacked)
    null = vt[np.concatenate([s, np.zeros(max(0, d - s.size))]) < 1e-10]
    return null.T @ null


def line_pair(angle):
    """Two lines in R^3 at the given principal angle."""
    u2 = np.array([[math.cos(angle)], [math.sin(angle)], [0.0]])
    return Projection(basis=np.eye(3)[:, :1]), Projection(basis=u2)


def refuse_dense_algebra(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("dense projector algebra")

    monkeypatch.setattr(np.linalg, "pinv", refuse)
    monkeypatch.setattr(np.linalg, "eigh", refuse)


def kkt_min_norm(a, y):
    """Oracle: solve the KKT system [I A'; A 0][x; mu] = [0; y]."""
    m, k = a.shape
    kkt = np.block([[np.eye(k), a.T], [a, np.zeros((m, m))]])
    rhs = np.concatenate([np.zeros(k), y])
    return np.linalg.solve(kkt, rhs)[:k]


class TestProjection:
    def test_axis_aligned_single_row(self):
        pi = projection(DesignMatrix(np.array([[1.0, 0.0]])))
        assert_allclose(pi.matrix, [[1.0, 0.0], [0.0, 0.0]], atol=1e-12)
        assert pi.rank == 1

    def test_two_canonical_rows(self):
        z = DesignMatrix(np.array([[1.0, 0, 0, 0], [0, 1.0, 0, 0]]))
        assert_allclose(projection(z).matrix, np.diag([1.0, 1.0, 0.0, 0.0]), atol=1e-12)

    def test_ones_row_by_hand(self):
        # Z'(ZZ')^{-1}Z with ZZ' = 2
        pi = projection(DesignMatrix(np.array([[1.0, 1.0]])))
        assert_allclose(pi.matrix, [[0.5, 0.5], [0.5, 0.5]], atol=1e-12)

    def test_rows_are_fixed_points(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            d = int(rng.integers(2, 30))
            n = int(rng.integers(1, d))
            z = rng.standard_normal((n, d))
            pi = projection(DesignMatrix(z))
            assert_allclose(pi.matrix @ z.T, z.T, atol=1e-9)

    def test_symmetric_idempotent_rank(self):
        rng = np.random.default_rng(1)
        for _ in range(25):
            d = int(rng.integers(2, 40))
            n = int(rng.integers(1, d))
            pi = projection(DesignMatrix(rng.standard_normal((n, d))))
            m = pi.matrix
            assert np.max(np.abs(m - m.T)) < 1e-10
            assert np.max(np.abs(m @ m - m)) < 1e-9
            assert pi.rank == n
            assert abs(np.trace(m) - n) < 1e-8

    def test_rank_deficient_raises(self):
        with pytest.raises(RankDeficientError):
            projection(DesignMatrix(np.array([[1.0, 0.0], [2.0, 0.0]])))

    def test_more_rows_than_cols_raises(self):
        with pytest.raises(RankDeficientError):
            projection(DesignMatrix(np.array([[1.0], [0.0]])))


class TestRowSpaceProjection:
    def test_handles_rank_deficiency(self):
        z = np.array([[1.0, 0.0, 0.0], [2.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
        pi = row_space_projection(z)
        assert pi.rank == 2
        assert_allclose(pi.matrix, np.diag([1.0, 1.0, 0.0]), atol=1e-12)

    def test_zero_matrix(self):
        pi = row_space_projection(np.zeros((2, 3)))
        assert pi.rank == 0
        assert_allclose(pi.matrix, np.zeros((3, 3)))


class TestMinNormSolve:
    def test_identity(self):
        sol = min_norm_solve(np.eye(2), [3.0, 4.0])
        assert_allclose(sol.x, [3.0, 4.0], atol=1e-12)

    def test_augmented_single_row(self):
        sol = min_norm_solve(np.array([[1.0, 0.0, 0.0, 1.0]]), [2.0])
        assert_allclose(sol.x, [1.0, 0.0, 0.0, 1.0], atol=1e-12)

    def test_row_pseudoinverse_by_hand(self):
        sol = min_norm_solve(np.array([[1.0, 1.0]]), [2.0])
        assert_allclose(sol.x, [1.0, 1.0], atol=1e-12)

    def test_inconsistent_raises(self):
        with pytest.raises(InconsistentSystemError):
            min_norm_solve(np.array([[1.0, 0.0], [1.0, 0.0]]), [1.0, 2.0])

    def test_shape_mismatch_raises(self):
        with pytest.raises(DimensionMismatchError):
            min_norm_solve(np.eye(2), [1.0, 2.0, 3.0])

    # ||y||^2 overflows past about 1e154: the residual check scales before
    # it takes norms, so the decision and the reported residual hold up to
    # the largest floats, with no RuntimeWarning.
    @pytest.mark.parametrize("scale", [1e150, 1e160, 1e300])
    def test_inconsistent_raises_when_norms_overflow(self, scale):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InconsistentSystemError, match="relative residual 3.333e-01"):
                min_norm_solve(np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]]), np.array([1.0, 1.0, 5.0]) * scale)

    @pytest.mark.parametrize("scale", [1e-300, 1e200, 1e300])
    def test_consistent_accepted_at_extreme_magnitudes(self, scale):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            sol = min_norm_solve(np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]]), np.array([1.0, 1.0, 2.0]) * scale)
        assert_allclose(sol.x, [scale, scale], rtol=1e-14)

    def test_against_kkt_oracle(self):
        rng = np.random.default_rng(2)
        for _ in range(30):
            k = int(rng.integers(2, 41))
            m = int(rng.integers(1, min(k, 21)))
            a = rng.standard_normal((m, k))
            y = a @ rng.standard_normal(k)  # consistent by construction
            sol = min_norm_solve(a, y)
            assert_allclose(sol.x, kkt_min_norm(a, y), atol=1e-8)

    def test_solution_in_row_space(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            a = rng.standard_normal((4, 9))
            y = a @ rng.standard_normal(9)
            sol = min_norm_solve(a, y)
            pi = row_space_projection(a)
            assert np.linalg.norm((np.eye(9) - pi.matrix) @ sol.x) < 1e-9


class TestIntersectionProjection:
    def test_identical_subspaces(self):
        pi = axes_projection(2, [0])
        assert_allclose(intersection_projection(pi, pi).matrix, np.diag([1.0, 0.0]), atol=1e-10)

    def test_orthogonal_subspaces(self):
        p1 = axes_projection(2, [0])
        p2 = axes_projection(2, [1])
        assert_allclose(intersection_projection(p1, p2).matrix, np.zeros((2, 2)), atol=1e-10)

    def test_one_dimensional_overlap(self):
        p1 = axes_projection(3, [0, 1])
        p2 = axes_projection(3, [1, 2])
        out = intersection_projection(p1, p2)
        assert_allclose(out.matrix, np.diag([0.0, 1.0, 0.0]), atol=1e-9)
        assert out.rank == 1

    def test_against_basis_oracle(self):
        rng = np.random.default_rng(5)
        for _ in range(15):
            d = int(rng.integers(4, 12))
            p1 = random_projection(rng, d, int(rng.integers(1, d)))
            p2 = random_projection(rng, d, int(rng.integers(1, d)))
            out = intersection_projection(p1, p2)
            oracle = intersection_by_basis(p1.matrix, p2.matrix)
            assert_allclose(out.matrix, oracle, atol=1e-7)
        # rank-0 and full-rank inputs, on either side
        d = 6
        some = random_projection(rng, d, 3)
        for p1, p2 in [
            (random_projection(rng, d, 0), some),
            (some, random_projection(rng, d, 0)),
            (random_projection(rng, d, d), some),
            (some, random_projection(rng, d, d)),
            (random_projection(rng, d, d), random_projection(rng, d, d)),
            (random_projection(rng, d, 0), random_projection(rng, d, 0)),
        ]:
            out = intersection_projection(p1, p2)
            oracle = intersection_by_basis(p1.matrix, p2.matrix)
            assert out.rank == round(float(np.trace(oracle)))
            assert_allclose(out.matrix, oracle, atol=1e-7)

    def test_no_pinv_or_eigh(self, monkeypatch):
        rng = np.random.default_rng(9)
        p1, p2 = random_projection(rng, 9, 6), random_projection(rng, 9, 5)
        oracle = intersection_by_basis(p1.matrix, p2.matrix)
        refuse_dense_algebra(monkeypatch)
        out = intersection_projection(p1, p2)
        assert out.rank == 2
        assert_allclose(out.matrix, oracle, atol=1e-10)

    def test_dimensions_must_agree(self):
        with pytest.raises(DimensionMismatchError, match="projection dims differ: 3 vs 4"):
            intersection_projection(axes_projection(3, [0]), axes_projection(4, [0]))

    # Lines at an angle above RANK_RTOL do not meet, as the basis oracle says;
    # a cutoff on the squared sines, as pinv(P1 + P2) applies, would merge
    # them up to an angle of about 1e-6.
    @pytest.mark.parametrize("angle,rank", [(1e-6, 0), (1e-7, 0), (1e-9, 0), (1e-12, 1)])
    def test_nearly_parallel_lines(self, angle, rank):
        p1, p2 = line_pair(angle)
        out = intersection_projection(p1, p2)
        assert out.rank == rank
        assert_allclose(out.matrix, intersection_by_basis(p1.matrix, p2.matrix), atol=1e-12)

    def test_shared_direction_recovered(self):
        rng = np.random.default_rng(6)
        d = 8
        q, _ = np.linalg.qr(rng.standard_normal((d, 5)))
        shared, extra1, extra2 = q[:, :1], q[:, 1:3], q[:, 3:5]
        p1 = row_space_projection(np.hstack([shared, extra1]).T)
        p2 = row_space_projection(np.hstack([shared, extra2]).T)
        out = intersection_projection(p1, p2)
        assert out.rank == 1
        assert_allclose(out.matrix, shared @ shared.T, atol=1e-8)

    def test_symmetric_in_arguments_and_idempotent(self):
        rng = np.random.default_rng(7)
        for _ in range(10):
            d = 9
            p1 = random_projection(rng, d, 4)
            p2 = random_projection(rng, d, 6)
            a = intersection_projection(p1, p2).matrix
            b = intersection_projection(p2, p1).matrix
            assert np.max(np.abs(a - b)) < 1e-8
            assert np.max(np.abs(a @ a - a)) < 1e-8


class TestDesignMatrixInvariants:
    def test_flags(self):
        assert DesignMatrix(np.array([[1.0, 0.0]])).full_row_rank
        assert not DesignMatrix(np.array([[1.0, 0.0], [1.0, 0.0]])).full_row_rank
        assert not DesignMatrix(np.zeros((1, 3))).full_row_rank
        assert not DesignMatrix(np.eye(3)[:, :2]).full_row_rank

    def test_rank_svd_on_first_read_only(self, monkeypatch):
        svd = np.linalg.svd
        seen = []
        monkeypatch.setattr(np.linalg, "svd", lambda *a, **k: seen.append((a[0].shape, k)) or svd(*a, **k))
        z = DesignMatrix(np.array([[1.0, 2.0, 0.0], [0.0, 1.0, 3.0]]))
        assert seen == []
        assert z.full_row_rank and z.full_row_rank
        # the values of the 2 x 2 factor R, not of the 3 x 2 matrix Z'
        assert seen == [((2, 2), {"compute_uv": False})]

    # A design that is only fit takes R alone (mode="r": LAPACK forms no Q).
    # One that is projected first takes one reduced QR, whose R the fit then
    # reads: every design is factored once.
    def test_one_qr_then_svds_of_r(self, monkeypatch):
        qr, svd = np.linalg.qr, np.linalg.svd
        seen, factors = [], []

        def recording_qr(a, **k):
            seen.append(("qr", a.shape, k))
            factors.append(qr(a, **k))
            return factors[-1]

        monkeypatch.setattr(np.linalg, "qr", recording_qr)
        monkeypatch.setattr(np.linalg, "svd", lambda *a, **k: seen.append(("svd", a[0].shape, k)) or svd(*a, **k))
        rng = np.random.default_rng(4)
        entries, cols, y = rng.standard_normal((6, 15)), rng.standard_normal((1, 6, 1)), rng.standard_normal(6)
        z = DesignMatrix(entries)
        assert z.full_row_rank
        assert seen == [("qr", (15, 6), {"mode": "r"}), ("svd", (6, 6), {"compute_uv": False})]
        fit_min_norm_stack(z, cols, y)
        assert len(seen) == 2
        seen.clear()
        z = DesignMatrix(entries)
        projection(z)
        assert seen == [("qr", (15, 6), {}), ("svd", (6, 6), {"compute_uv": False}), ("svd", (6, 6), {})]
        seen.clear()
        fit_min_norm_stack(z, cols, y)
        assert seen == [] and z.r is factors[-1][1]
        assert z.r.shape == (6, 6) and not z.r.flags.writeable and np.array_equal(z.r, factors[0])

    # A frozen float array, or a view whose bases are all read-only, is kept
    # as it stands; a read-only view of a writable array is copied.
    def test_frozen_entries_are_kept_and_others_copied(self):
        frozen = np.random.default_rng(6).standard_normal((3, 7))
        frozen.setflags(write=False)
        for entries in (frozen, frozen.T, frozen[1:]):
            z = DesignMatrix(entries)
            assert z.entries is entries and not z.entries.flags.writeable
        writable = np.ones((2, 5))
        view = writable[:]
        view.setflags(write=False)
        z = DesignMatrix(view)
        assert not np.shares_memory(z.entries, writable) and not z.entries.flags.writeable
        writable[0, 0] = 7.0
        assert z.entries[0, 0] == 1.0
        integers = np.eye(2, dtype=int)
        integers.setflags(write=False)
        assert DesignMatrix(integers).entries.dtype == float

    def test_rejects_bad_input(self):
        with pytest.raises(DimensionMismatchError):
            DesignMatrix(np.zeros(3))
        with pytest.raises(ValueError):
            DesignMatrix(np.array([[np.nan, 1.0]]))

    def test_entries_read_only(self):
        z = DesignMatrix(np.eye(2))
        with pytest.raises(ValueError):
            z.entries[0, 0] = 5.0

    def test_projection_arrays_read_only(self):
        pi = projection(DesignMatrix(np.array([[1.0, 2.0, 0.0], [0.0, 1.0, 3.0]])))
        for a in (pi.basis, pi.matrix):
            with pytest.raises(ValueError):
                a[0, 0] = 5.0

    def test_projection_invariant_validation(self):
        with pytest.raises(ValueError, match="not orthonormal"):
            Projection(basis=np.array([[1.0, 0.1], [0.0, 1.0]]))
        with pytest.raises(DimensionMismatchError):
            Projection(basis=np.eye(3)[:2])
        with pytest.raises(ValueError, match="non-finite"):
            Projection(basis=np.array([[1.0], [np.nan]]))


def conditioned(rng, rows, cols, cond):
    """A rows x cols matrix U diag(s) V' with s spread geometrically from 1 to 1/cond."""
    k = min(rows, cols)
    u, _ = np.linalg.qr(rng.standard_normal((rows, k)))
    v, _ = np.linalg.qr(rng.standard_normal((cols, k)))
    return (u * np.geomspace(1.0, 1.0 / cond, k)) @ v.T


class TestRankBound:
    CONDS = (1e2, 1e5, 1e8, 1e9, 5e9, 1e10, 2e10)

    @staticmethod
    def factors(shape, cond):
        """R of ten designs of one shape and condition number: of Z' for a wide
        n x d design, as a fit takes it, and R11 of [Zu | pseudo] for a tall
        m x d Zu, as fit_rst takes it."""
        rows, cols = shape
        rng = np.random.default_rng([rows, cols, int(cond)])
        for _ in range(10):
            a = conditioned(rng, rows, cols, cond)
            if rows < cols:
                yield np.linalg.qr(a.T, mode="r")
            else:
                yield np.linalg.qr(np.column_stack([a, a @ rng.standard_normal(cols)]), mode="r")[:cols, :cols]

    # Wherever ||R||_F ||R^-1||_F settles the rank, the SVD rule also counts
    # every singular value: the bound changes how a rank is decided, never
    # the decision. It settles every design up to cond 1e9, where the bound is
    # at most 2 cond(R) for these spectra (7 cond(R) at cond 1e2).
    @pytest.mark.parametrize("shape", [(5, 12), (60, 150), (20, 12), (150, 60)])
    def test_bound_never_contradicts_the_rank_rule(self, shape):
        for cond in self.CONDS:
            for r in self.factors(shape, cond):
                if minnorm._bound_settles_rank(r, minnorm._inverse(r)):
                    assert minnorm._rank(np.linalg.svd(r, compute_uv=False)) == r.shape[0]
                else:
                    assert cond > 1e9

    # Where the bound cannot be formed the SVD rule decides: an exactly
    # singular R (a zero row of Z makes a zero column of R, and the inverse
    # raises LinAlgError), the d x n R of a design with n > d (not square),
    # and an R whose Frobenius norm overflows. None warns.
    def test_no_bound_without_a_finite_inverse_and_norms(self):
        singular = np.linalg.qr(np.vstack([np.zeros(12), np.ones((2, 12)) + np.eye(2, 12)]).T, mode="r")
        tall = np.linalg.qr(np.ones((2, 3)), mode="r")
        huge = np.linalg.qr(1e300 * np.random.default_rng(8).standard_normal((12, 5)), mode="r")
        for r in (singular, tall):
            with pytest.raises(np.linalg.LinAlgError):
                np.linalg.inv(r)
            assert minnorm._inverse(r) is None
        with np.errstate(over="ignore"):
            assert np.linalg.norm(huge) == np.inf
        for r in (singular, tall, huge):
            assert not minnorm._bound_settles_rank(r, minnorm._inverse(r))
        assert minnorm._rank(np.linalg.svd(huge, compute_uv=False)) == 5


def factor_test_designs():
    """Random designs with d/n from 1.2 to 5, and designs U diag(s) V' with cond up to 1e9."""
    rng = np.random.default_rng(23)
    for n in (2, 7, 30, 80):
        for ratio in (1.2, 2.0, 3.5, 5.0):
            yield rng.standard_normal((n, round(n * ratio)))
    for cond in (1e3, 1e6, 1e9):
        for n, d in ((6, 9), (25, 60), (40, 200)):
            yield conditioned(rng, n, d, cond)


# The projector's basis V = Q Ur, taken through Z' = Q R, spans Z's row
# space to a small multiple of n eps: V is orthonormal, Z P reproduces Z, and
# the singular values of the design's R, which the rank rule reads, are the
# ones LAPACK gives for Z itself. Over these designs the worst ratios to
# n eps were 1.0, 1.12 and 0.43 (the last two relative to s[0] = ||Z||_2).
def test_svd_through_qr_is_an_svd_of_z():
    eps = np.finfo(float).eps
    for z in factor_test_designs():
        n = z.shape[0]
        design = DesignMatrix(z)
        pi = projection(design)
        ref = np.linalg.svd(z, compute_uv=False)
        assert pi.basis.shape == (z.shape[1], n)
        assert np.max(np.abs(pi.basis.T @ pi.basis - np.eye(n))) <= 4 * n * eps
        assert np.linalg.norm(pi.project(z.T).T - z) <= 10 * n * eps * ref[0]
        assert np.max(np.abs(np.linalg.svd(design.r, compute_uv=False) - ref)) <= 2 * n * eps * ref[0]
