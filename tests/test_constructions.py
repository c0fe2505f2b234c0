import dataclasses
import tracemalloc

import numpy as np
import pytest
from numpy.testing import assert_allclose

from spurious_lens import (
    CounterexampleBundle,
    DesignMatrix,
    GroundTruth,
    RemovalVerdict,
    TestDistribution,
    construct_balanced,
    construct_disjoint,
    min_norm_solve,
    population_error,
    projection,
    removal_verdict,
    row_space_projection,
)
from spurious_lens.constructions import _orthonormal_complement, _widening
from spurious_lens.estimators import LabeledData, fit_core, fit_full
from spurious_lens.exceptions import (
    AbsorbedTargetsError,
    DimensionMismatchError,
    DimensionTooSmallError,
    ParallelParametersError,
    ParallelTargetsError,
    VerificationError,
)

GAP = 1e-9


def assert_bundle_verified(bundle):
    v1, v2 = bundle.verdict_full_wins, bundle.verdict_core_wins
    assert v1.full_better
    assert not v2.full_better
    assert v1.error_core - v1.error_full > GAP
    assert v2.error_full - v2.error_core > GAP


def recheck_with_fresh_verdicts(bundle):
    """Recompute both verdicts from the bundle's raw pieces."""
    pi = row_space_projection(bundle.Z_train.entries)
    for design, expect_full in (
        (bundle.Z_test_full_wins, True),
        (bundle.Z_test_core_wins, False),
    ):
        z = design.entries
        sigma = TestDistribution(z.T @ z / z.shape[0])
        v = removal_verdict(bundle.truth, pi, sigma)
        assert v.full_better == expect_full


class TestConstructDisjoint:
    def test_disjoint_supports(self):
        bundle = construct_disjoint(
            np.array([1.0, 0.0, 1.0, 0.0]), np.array([0.0, 1.0, 0.0, 1.0]), n=2, x=0.1
        )
        assert_bundle_verified(bundle)
        recheck_with_fresh_verdicts(bundle)
        assert bundle.x_param == pytest.approx(0.1)

    def test_orthogonal_parameters_d4(self):
        bundle = construct_disjoint(
            np.array([1.0, 1.0, 0.0, 0.0]), np.array([1.0, -1.0, 0.0, 0.0]), n=2, x=0.1
        )
        assert_bundle_verified(bundle)
        recheck_with_fresh_verdicts(bundle)

    def test_parallel_parameters_rejected(self):
        theta = np.array([1.0, 2.0, 0.0, 1.0])
        with pytest.raises(ParallelParametersError):
            construct_disjoint(theta, 2.0 * theta, n=2)
        with pytest.raises(ParallelParametersError):
            construct_disjoint(theta, -0.5 * theta, n=2)

    def test_dimension_constraints(self):
        with pytest.raises(DimensionTooSmallError):
            construct_disjoint(np.array([1.0, 0.0, 1.0]), np.array([0.0, 1.0, 0.0]), n=1)
        with pytest.raises(DimensionTooSmallError):
            construct_disjoint(np.ones(4), np.array([1.0, -1.0, 1.0, -1.0]), n=3)  # n >= d-1

    def test_zero_parameters_rejected(self):
        beta = np.array([1.0, -1.0, 1.0, -1.0])
        for theta, b in ((np.zeros(4), beta), (beta, np.zeros(4))):
            with pytest.raises(ParallelParametersError, match="must be nonzero"):
                construct_disjoint(theta, b, n=2)

    @pytest.mark.parametrize("x", [0.0, -0.1, np.inf, np.nan])
    def test_x_must_be_positive_and_finite(self, x):
        with pytest.raises(ValueError, match="x must be positive and finite"):
            construct_disjoint(np.array([1.0, 0.0, 1.0, 0.0]), np.array([0.0, 1.0, 0.0, 1.0]), n=2, x=x)

    def test_parameter_lengths_differ(self):
        with pytest.raises(DimensionMismatchError, match="must share a dimension"):
            construct_disjoint(np.ones(5), np.array([1.0, -1.0, 1.0, -1.0]), n=2)

    def test_orthogonality_bookkeeping(self):
        rng = np.random.default_rng(40)
        for _ in range(20):
            d = int(rng.integers(4, 12))
            n = int(rng.integers(1, d - 1))
            theta = rng.standard_normal(d)
            beta = rng.standard_normal(d)
            bundle = construct_disjoint(theta, beta, n=n)
            a1 = bundle.Z_train.entries[0]
            b = bundle.b_vector
            u_t, u_b = theta / np.linalg.norm(theta), beta / np.linalg.norm(beta)
            a2 = u_t + u_b + 2.0 * b
            a3 = u_t - u_b
            x = bundle.x_param
            assert abs(a1 @ a2) < 1e-9
            assert abs(a1 @ a3) < 1e-9
            assert a1 @ theta == pytest.approx(x * np.linalg.norm(theta), abs=1e-9)
            assert a1 @ beta == pytest.approx(x * np.linalg.norm(beta), abs=1e-9)
            assert abs(b @ theta) < 1e-9 and abs(b @ beta) < 1e-9
            assert np.linalg.norm(b) == pytest.approx(1.0)

    def test_a1_is_the_min_norm_oracle_solution(self):
        # d - 2 == n leaves no spare direction, so a1 is not widened
        rng = np.random.default_rng(45)
        for d in (4, 5, 9):
            theta, beta = rng.standard_normal(d), rng.standard_normal(d)
            bundle = construct_disjoint(theta, beta, n=d - 2, x=0.3)
            u_t, u_b = theta / np.linalg.norm(theta), beta / np.linalg.norm(beta)
            oracle = min_norm_solve(np.vstack([bundle.b_vector, u_t, u_b]), [-0.3, 0.3, 0.3]).x
            assert_allclose(bundle.Z_train.entries[0], oracle, rtol=1e-12, atol=1e-14)

    def test_training_design_full_row_rank(self):
        bundle = construct_disjoint(
            np.array([1.0, 0.0, 1.0, 0.0, 2.0]), np.array([0.0, 1.0, 0.0, 1.0, 0.0]), n=3
        )
        assert bundle.Z_train.full_row_rank
        # padding rows do not disturb the seen-space quantities
        pi_full = projection(bundle.Z_train)
        pi_first = row_space_projection(bundle.Z_train.entries[:1])
        theta, beta = bundle.truth.theta_star, bundle.truth.beta_stars[0]
        assert beta @ pi_full.matrix @ theta == pytest.approx(
            beta @ pi_first.matrix @ theta, abs=1e-10
        )

    def test_wide_norm_ratio_still_verifies(self):
        # |beta| >> |theta| exercises the magnitude-margin handling
        bundle = construct_disjoint(
            np.array([0.05, 0.0, 0.05, 0.0]), np.array([0.0, 40.0, 0.0, 35.0]), n=2
        )
        assert_bundle_verified(bundle)

    def test_widened_a1_meets_the_margin(self):
        # d - 2 > n leaves a spare direction, along which a1 is widened
        theta, beta = np.array([0.05, 0.0, 0.05, 0.0, 0.0, 0.0]), np.array([0.0, 40.0, 0.0, 35.0, 1.0, 0.0])
        bundle = construct_disjoint(theta, beta, n=2, x=3.0)
        assert_bundle_verified(bundle)
        a1 = bundle.Z_train.entries[0]
        margin_sq = 2.0 * np.linalg.norm(theta) / np.linalg.norm(beta)
        assert 3.0**2 / (3.0**2 + a1 @ a1) <= margin_sq
        assert bundle.x_param == 3.0

    def test_overflowing_widening_raises(self):
        theta, beta = np.array([1e-10, 0.0, 1e-10, 0.0, 0.0, 0.0]), np.array([0.0, 1e10, 0.0, 1e10, 0.0, 0.0])
        with pytest.raises(VerificationError, match="overflows"):
            construct_disjoint(theta, beta, n=2, x=1e300)
        # ||beta*|| / ||theta*|| itself past the float range
        theta, beta = 1e-290 * theta, 1e290 * beta
        with pytest.raises(VerificationError, match="overflows"):
            construct_disjoint(theta, beta, n=2)

    @pytest.mark.parametrize("need", [0.0, 1e-300, 0.5, 1.0, 1.5, 3.0, 3.5, 7.0, 1e6, 2.0**60, 1e300])
    def test_widening_matches_the_doubling_loop(self, need):
        c, rho = 0.0, 1.0
        while c < need:
            c, rho = c + rho, 2.0 * rho
        assert _widening(need) == c
        assert _widening(2.0**1023) == _widening(np.inf) == np.inf

    def test_complement_matches_modified_gram_schmidt(self):
        rng = np.random.default_rng(42)
        d = 30
        vectors = [rng.standard_normal(d), rng.standard_normal(d)]
        q, _ = np.linalg.qr(np.column_stack(vectors))
        resid = np.eye(d) - q @ q.T
        reference = []
        for idx in np.argsort(-np.linalg.norm(resid, axis=0)):
            v = resid[:, idx].copy()
            for u in reference:
                v -= (u @ v) * u
            if np.linalg.norm(v) > 1e-8:
                reference.append(v / np.linalg.norm(v))
        assert len(reference) == d - 2
        assert_allclose(_orthonormal_complement(vectors, d, d), np.array(reference), atol=1e-12)
        assert_allclose(_orthonormal_complement(vectors, d, 5), np.array(reference[:5]), atol=1e-12)

    def test_no_dense_d_by_d_temporaries(self):
        # One d x d double at d = 4000 is 128 MB; the complement is built from
        # O(d) vectors, so the traced peak stays a few MB.
        rng = np.random.default_rng(46)
        theta, beta = rng.standard_normal(4000), rng.standard_normal(4000)
        tracemalloc.start()
        try:
            assert_bundle_verified(construct_disjoint(theta, beta, n=4))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 50e6

    def test_random_invocations(self):
        rng = np.random.default_rng(41)
        for _ in range(30):
            d = int(rng.integers(4, 14))
            n = int(rng.integers(1, d - 1))
            bundle = construct_disjoint(rng.standard_normal(d), rng.standard_normal(d), n=n)
            assert_bundle_verified(bundle)


class TestConstructBalanced:
    def test_reference_case(self):
        bundle = construct_balanced(np.array([1.0, 1.0]), np.array([1.0, 0.0]), d=4)
        assert_bundle_verified(bundle)
        recheck_with_fresh_verdicts(bundle)
        assert_allclose(
            bundle.Z_train.entries,
            [[1.0, 0.0, 0.0, 0.0], [1.0, -1.0, 0.0, 0.0]],
            atol=1e-12,
        )
        assert bundle.x_param is None and bundle.b_vector is None

    def test_spurious_and_targets_preserved(self):
        rng = np.random.default_rng(42)
        for _ in range(20):
            n = int(rng.integers(2, 7))
            d = int(rng.integers(4, 10))
            s = rng.standard_normal(n)
            y = rng.standard_normal(n)
            bundle = construct_balanced(s, y, d=d)
            theta, beta = bundle.truth.theta_star, bundle.truth.beta_stars[0]
            for design in (bundle.Z_train, bundle.Z_test_full_wins, bundle.Z_test_core_wins):
                assert_allclose(design.entries @ theta, y, atol=1e-8)
                assert_allclose(design.entries @ beta, s, atol=1e-8)
            assert_bundle_verified(bundle)

    # The reproduction checks are relative to |Z| |theta*|, with no absolute
    # term, so the construction verifies at every scale of S and Y.
    @pytest.mark.parametrize("scale", [1e-200, 1e-10, 1.0, 1e100])
    def test_reproduction_checks_are_scale_free(self, scale):
        rng = np.random.default_rng(45)
        bundle = construct_balanced(scale * rng.standard_normal(5), scale * rng.standard_normal(5), d=7)
        assert_bundle_verified(bundle)

    def test_identical_observables_yet_core_wins_somewhere(self):
        # Same (S, Y) at train and test, yet the core model is strictly better
        # on one test design: a balanced dataset cannot certify removal.
        bundle = construct_balanced(np.array([1.0, 1.0]), np.array([1.0, 0.0]), d=4)
        v2 = bundle.verdict_core_wins
        assert v2.error_core < v2.error_full

    def test_parallel_targets_rejected(self):
        s = np.array([1.0, 2.0])
        with pytest.raises(ParallelTargetsError):
            construct_balanced(s, 3.0 * s, d=4)
        with pytest.raises(ParallelTargetsError):
            construct_balanced(s, np.zeros(2), d=4)
        with pytest.raises(ParallelTargetsError):
            construct_balanced(s, s, d=4)  # Y - S = 0
        # Y far below S: fl(Y - S) = -S, so the stored columns are parallel
        with pytest.raises(ParallelTargetsError):
            construct_balanced(s, np.array([3e-17, -1e-17]), d=4)

    def test_absorbed_target_rejected(self):
        # fl(Y0 - S0) = -S0, so row 0 of [S, Y - S] gives Y0 = 0, at any scale
        for s, y in ([1e20, 0.0], [1.0, 1e20]), ([1e-3, 0.0], [1e-20, 1e-3]), ([1.0, 0.0], [1e-17, 1.0]):
            with pytest.raises(AbsorbedTargetsError):
                construct_balanced(np.array(s), np.array(y), d=6)

    def test_nearly_parallel_targets_verify(self):
        # sin(S, Y) = 1e-5: the stored S and Y - S still span e1 and e2, though
        # the training design's condition number (1e12) is past RANK_RTOL. The
        # verdicts depend on n and d only, not on S and Y.
        bundle = construct_balanced(np.array([1.0, 0.0]), np.array([1e7, 100.0]), d=6)
        assert_bundle_verified(bundle)
        reference = construct_balanced(np.array([1.0, 1.0]), np.array([1.0, 0.0]), d=6)
        assert bundle.verdict_full_wins == reference.verdict_full_wins
        assert bundle.verdict_core_wins == reference.verdict_core_wins

    def test_dimension_too_small(self):
        with pytest.raises(DimensionTooSmallError):
            construct_balanced(np.array([1.0, 1.0]), np.array([1.0, 0.0]), d=3)

    def test_target_lengths_differ(self):
        with pytest.raises(DimensionMismatchError, match="must have the same length"):
            construct_balanced(np.array([1.0, 1.0]), np.array([1.0, 0.0, 2.0]), d=4)


class TestParallelCaseGuarantees:
    def test_collinear_parameters_full_never_worse(self):
        rng = np.random.default_rng(43)
        for _ in range(60):
            d = int(rng.integers(4, 12))
            n = int(rng.integers(1, d))
            theta = rng.standard_normal(d)
            c = float(rng.normal()) or 0.7
            truth = GroundTruth(theta, (c * theta,))
            pi = projection(DesignMatrix(rng.standard_normal((n, d))))
            a = rng.standard_normal((d, d))
            v = removal_verdict(truth, pi, TestDistribution(a @ a.T))
            assert v.error_full <= v.error_core + 1e-9

    def test_proportional_targets_full_never_worse(self):
        # Y = cS realized via Pi theta* = c Pi beta*; the guarantee covers test
        # designs that reproduce the same S and Y, i.e. Z' = Z + A with rows of
        # A annihilating theta* and beta*.
        rng = np.random.default_rng(44)
        for _ in range(60):
            d = int(rng.integers(4, 12))
            n = int(rng.integers(1, d))
            z = rng.standard_normal((n, d))
            pi = projection(DesignMatrix(z))
            beta = rng.standard_normal(d)
            c = float(rng.normal()) or 1.3
            theta = c * beta + (np.eye(d) - pi.matrix) @ rng.standard_normal(d)
            truth = GroundTruth(theta, (beta,))
            data = LabeledData.from_truth(DesignMatrix(z), truth)
            assert np.allclose(data.Y, c * data.S[:, 0], atol=1e-9)
            basis = np.linalg.svd(np.vstack([theta, beta]))[2][2:]
            a = rng.standard_normal((n, d - 2)) @ basis
            z_test = z + a
            assert np.allclose(z_test @ theta, data.Y, atol=1e-8)
            assert np.allclose(z_test @ beta, data.S[:, 0], atol=1e-8)
            dist = TestDistribution(z_test.T @ z_test / n)
            err_full = population_error(fit_full(data), truth, dist, pi)
            err_core = population_error(fit_core(data), truth, dist, pi)
            assert err_full <= err_core + 1e-9


def verdict(full_better, error_core, error_full):
    """A consistent RemovalVerdict with the given outcome and errors."""
    return RemovalVerdict(
        sign_match=full_better, magnitude_holds=True, full_better=full_better, tie=False,
        lhs_seen_corr=0.0, rhs_unseen_corr=0.0, w_hat=0.0, error_core=error_core, error_full=error_full,
    )


class TestEmbeddedChecks:
    """Each check a construction embeds refuses a bundle that breaks it, and
    no later check catches the break in its place."""

    @pytest.fixture
    def bundle(self):
        return construct_balanced(np.array([1.0, 1.0]), np.array([1.0, 0.0]), d=4)

    @pytest.mark.parametrize("which,bad,message", [
        # the full model loses but keeps its error gap, so only the win check sees it
        ("verdict_full_wins", verdict(False, 2.0, 1.0), "full model does not win"),
        ("verdict_core_wins", verdict(True, 2.0, 1.0), "core model does not win"),
        ("verdict_core_wins", verdict(False, 1.0, 1.0), "core model does not win"),
        # gaps of 1e-14 at errors of 1, under the rounding bound 2 GAP_C d eps (2.8e-14 at d = 4)
        ("verdict_full_wins", verdict(True, 1.0 + 1e-14, 1.0), "error gaps are not strictly positive"),
        ("verdict_core_wins", verdict(False, 1.0, 1.0 + 1e-14), "error gaps are not strictly positive"),
    ], ids=["full_loses", "full_wins_both", "core_ties", "full_gap", "core_gap"])
    def test_bundle_refuses_verdicts(self, bundle, which, bad, message):
        with pytest.raises(VerificationError, match=message):
            dataclasses.replace(bundle, **{which: bad})

    # the gap is judged relative to the errors, at any scale
    @pytest.mark.parametrize("scale", [1e-200, 1e-9, 1.0, 1e200])
    def test_bundle_accepts_gaps_above_rounding(self, bundle, scale):
        for gap in (1e-12, 0.5):
            dataclasses.replace(
                bundle,
                verdict_full_wins=verdict(True, scale * (1.0 + gap), scale),
                verdict_core_wins=verdict(False, scale, scale * (1.0 + gap)),
            )

    # theta* alone reads column d-2 and beta* alone column d-1, so nudging
    # one of them in the full-wins test design breaks one reproduction only
    @pytest.mark.parametrize("column,message", [(-2, "the targets"), (-1, "the spurious values")], ids=["y", "s"])
    def test_balanced_refuses_a_design_that_misses_the_data(self, monkeypatch, column, message):
        verified = CounterexampleBundle.verified

        def nudged(truth, pi, z_train, z_full, z_core, **construction):
            bundle = verified(truth, pi, z_train, z_full, z_core, **construction)
            z_full[:, column] += 1e-3
            return bundle

        monkeypatch.setattr(CounterexampleBundle, "verified", nudged)
        with pytest.raises(VerificationError, match=f"does not reproduce {message}"):
            construct_balanced(np.array([1.0, 1.0]), np.array([1.0, 0.0]), d=4)
