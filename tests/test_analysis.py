import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from spurious_lens import (
    DesignMatrix,
    GroundTruth,
    LabeledData,
    LinearModel,
    RemovalVerdict,
    RobustSpec,
    TestDistribution,
    fit_core,
    fit_full,
    fit_multi,
    fit_rst,
    UnlabeledData,
    groupwise_spurious_error,
    groupwise_spurious_fit,
    implicit_weights,
    min_norm_solve,
    population_error,
    projection,
    removal_verdict,
    robust_error,
    robust_errors,
)
from spurious_lens.analysis import TIE_TOL
from spurious_lens.exceptions import (
    DimensionMismatchError,
    NonFiniteResultError,
    NonOrthogonalGroupsError,
    NonPositiveGammaError,
    SamplerExhaustedError,
)


def table2_setup():
    truth = GroundTruth(np.array([2.0, 2.0, 2.0]), (np.array([1.0, 2.0, -2.0]),))
    data = LabeledData.from_truth(DesignMatrix(np.array([[1.0, 0.0, 0.0]])), truth)
    return truth, data, projection(data.Z)


def random_verdict_instance(rng, d_max=12):
    d = int(rng.integers(3, d_max + 1))
    n = int(rng.integers(1, d))
    z = rng.standard_normal((n, d))
    truth = GroundTruth(rng.standard_normal(d), (rng.standard_normal(d),))
    a = rng.standard_normal((d, d))
    dist = TestDistribution(sigma=a @ a.T, label="g")
    return truth, projection(DesignMatrix(z)), dist


def documented_draw(dist, spec, samples, seed):
    """The robust sampler's draw, rebuilt as robust_errors documents it.

    F = Q sqrt(Lambda) comes from eigh of Sigma. Each max(samples, 512) x d
    batch x of default_rng(seed) is paired with the indices of the rows it
    gives: those RobustSpec.row_norms accepts, up to the samples still
    needed. Returns F and the (x, indices) pairs."""
    eigval, eigvec = np.linalg.eigh(dist.matrix)
    eigval = np.clip(eigval, 0.0, None)
    factor = eigvec * np.sqrt(eigval)
    rng = np.random.default_rng(seed)
    draws, need = [], samples
    while need:
        x = rng.standard_normal((max(samples, 512), dist.dim))
        idx = np.flatnonzero(spec.row_norms(x, eigval, factor) <= spec.gamma)[:need]
        draws.append((x, idx))
        need -= idx.size
    return factor, draws


class TestPopulationError:
    def test_table2_unit_variance_on_second_feature(self):
        truth, data, pi = table2_setup()
        dist = TestDistribution(np.diag([0.0, 1.0, 0.0]))
        assert population_error(fit_core(data), truth, dist, pi) == pytest.approx(4.0)
        assert population_error(fit_full(data), truth, dist, pi) == pytest.approx(0.0, abs=1e-12)

    def test_table2_unit_variance_on_third_feature(self):
        truth, data, pi = table2_setup()
        dist = TestDistribution(np.diag([0.0, 0.0, 1.0]))
        assert population_error(fit_core(data), truth, dist, pi) == pytest.approx(4.0)
        assert population_error(fit_full(data), truth, dist, pi) == pytest.approx(16.0)

    def test_degenerate_distribution(self):
        truth, data, pi = table2_setup()
        dist = TestDistribution(np.zeros((3, 3)))
        for model in (fit_core(data), fit_full(data)):
            assert population_error(model, truth, dist, pi) == pytest.approx(0.0, abs=1e-15)

    def test_nonnegative(self):
        rng = np.random.default_rng(20)
        for _ in range(50):
            truth, pi, dist = random_verdict_instance(rng)
            data = LabeledData.from_truth(
                DesignMatrix(rng.standard_normal((pi.rank, pi.dim))), truth
            )
            # reuse the drawn design's projector to stay consistent
            pi = projection(data.Z)
            for model in (fit_core(data), fit_full(data)):
                assert population_error(model, truth, dist, pi) >= -1e-10

    def test_matches_monte_carlo(self):
        rng = np.random.default_rng(21)
        d, n = 6, 3
        truth = GroundTruth(rng.standard_normal(d), (rng.standard_normal(d),))
        data = LabeledData.from_truth(DesignMatrix(rng.standard_normal((n, d))), truth)
        pi = projection(data.Z)
        a = rng.standard_normal((d, d))
        dist = TestDistribution(sigma=a @ a.T)
        chol = np.linalg.cholesky(dist.sigma + 1e-12 * np.eye(d))
        zs = rng.standard_normal((100_000, d)) @ chol.T
        for model in (fit_core(data), fit_full(data)):
            closed = population_error(model, truth, dist, pi)
            s_vals = zs @ truth.beta_stars[0]
            preds = zs @ model.theta_hat
            if model.w_hat.size:
                preds = preds + model.w_hat[0] * s_vals
            losses = (zs @ truth.theta_star - preds) ** 2
            mc, se = losses.mean(), losses.std(ddof=1) / np.sqrt(losses.size)
            assert abs(closed - mc) <= 3 * se

    def test_rst_error_via_implicit_weights(self):
        rng = np.random.default_rng(22)
        d, n, m = 5, 2, 7
        truth = GroundTruth(rng.standard_normal(d), (rng.standard_normal(d),))
        data = LabeledData.from_truth(DesignMatrix(rng.standard_normal((n, d))), truth)
        full = fit_full(data)
        zu = rng.standard_normal((m, d))
        rst = fit_rst(data, UnlabeledData(Zu=zu, Su=zu @ truth.beta_stars[0]), full)
        pi = projection(data.Z)
        a = rng.standard_normal((d, d))
        dist = TestDistribution(sigma=a @ a.T)
        e = rst.theta_hat
        expected = (truth.theta_star - e) @ dist.sigma @ (truth.theta_star - e)
        assert population_error(rst, truth, dist, pi) == pytest.approx(expected, rel=1e-12)


    @pytest.mark.parametrize(
        "make_model",
        [
            lambda data, other: LinearModel(np.zeros(6), np.zeros(0), "core"),
            lambda data, other: LinearModel(
                fit_full(data).theta_hat + 1.0, fit_full(data).w_hat, "full"
            ),
            lambda data, other: fit_core(other),
        ],
        ids=["zero_core", "shifted_full", "core_fit_on_other_design"],
    )
    def test_error_of_the_models_own_weights(self, make_model):
        # the error belongs to the weights the model carries, not to the
        # minimum-norm fit on pi's design
        rng = np.random.default_rng(27)
        d, n = 6, 3
        truth = GroundTruth(rng.standard_normal(d), (rng.standard_normal(d),))
        data = LabeledData.from_truth(DesignMatrix(rng.standard_normal((n, d))), truth)
        other = LabeledData.from_truth(DesignMatrix(rng.standard_normal((n, d))), truth)
        model = make_model(data, other)
        r = truth.theta_star - implicit_weights(model, truth)
        dist = TestDistribution(np.eye(d))
        error = population_error(model, truth, dist, projection(data.Z))
        assert error == pytest.approx(r @ r, rel=1e-12)


class TestRemovalVerdict:
    def test_table2_second_feature_full_wins(self):
        truth, _, pi = table2_setup()
        v = removal_verdict(truth, pi, TestDistribution(np.diag([0.0, 1.0, 0.0])))
        assert v.full_better and v.sign_match and v.magnitude_holds and not v.tie
        assert v.lhs_seen_corr == pytest.approx(2.0)
        assert v.rhs_unseen_corr == pytest.approx(4.0)
        assert v.w_hat == pytest.approx(1.0)

    # full_better must be sign_match AND magnitude_holds, whatever the errors say
    @pytest.mark.parametrize("sign_match,magnitude_holds,full_better", [
        (True, False, True), (False, True, True), (False, False, True), (True, True, False),
    ])
    def test_inconsistent_outcome_rejected(self, sign_match, magnitude_holds, full_better):
        with pytest.raises(ValueError, match="full_better must equal"):
            RemovalVerdict(sign_match, magnitude_holds, full_better, False, 0.0, 0.0, 0.0, 1.0, 1.0)

    def test_table2_third_feature_sign_mismatch(self):
        truth, _, pi = table2_setup()
        v = removal_verdict(truth, pi, TestDistribution(np.diag([0.0, 0.0, 1.0])))
        assert not v.full_better and not v.sign_match
        assert v.rhs_unseen_corr == pytest.approx(-4.0)

    def test_collinear_never_leaves_core_strictly_ahead(self):
        rng = np.random.default_rng(23)
        for _ in range(50):
            d = int(rng.integers(3, 10))
            n = int(rng.integers(1, d))
            theta = rng.standard_normal(d)
            truth = GroundTruth(theta, (3.0 * theta,))
            pi = projection(DesignMatrix(rng.standard_normal((n, d))))
            a = rng.standard_normal((d, d))
            v = removal_verdict(truth, pi, TestDistribution(a @ a.T))
            assert v.full_better or v.tie or v.error_full <= v.error_core + 1e-9

    def test_tie_when_unseen_variance_vanishes(self):
        truth, _, pi = table2_setup()
        # second moment supported on the seen direction only
        v = removal_verdict(truth, pi, TestDistribution(np.diag([1.0, 0.0, 0.0])))
        assert v.tie and not v.full_better and not v.sign_match
        assert v.error_core == pytest.approx(v.error_full, abs=1e-12)

    def test_matches_error_comparison(self):
        rng = np.random.default_rng(24)
        disagreements = 0
        for _ in range(300):
            truth, pi, dist = random_verdict_instance(rng)
            v = removal_verdict(truth, pi, dist)
            gap = v.error_core - v.error_full
            if abs(gap) > 1e-9 and v.full_better != (gap > 0):
                disagreements += 1
        assert disagreements == 0

    def test_error_difference_identity(self):
        rng = np.random.default_rng(25)
        for _ in range(100):
            truth, pi, dist = random_verdict_instance(rng)
            v = removal_verdict(truth, pi, dist)
            q = np.eye(pi.dim) - pi.matrix
            beta, theta = truth.beta_stars[0], truth.theta_star
            b = beta @ q @ dist.sigma @ q @ beta
            t = theta @ q @ dist.sigma @ q @ beta
            expected = v.w_hat**2 * b - 2 * v.w_hat * t
            scale = max(1.0, abs(v.error_core), abs(v.error_full))
            assert abs((v.error_full - v.error_core) - expected) <= 1e-9 * scale

    def test_disjoint_supports_identity_sigma_removal_never_hurts(self):
        # With disjoint supports, beta'theta = 0 forces the unseen-space
        # correlation to be minus the seen-space one under identity Sigma, so
        # the error difference w^2 B + 2(theta'P beta)^2/(1+beta'P beta) is
        # nonnegative: the core model is never strictly worse.
        rng = np.random.default_rng(26)
        for _ in range(50):
            d = int(rng.integers(4, 12))
            n = int(rng.integers(1, d))
            mask = rng.random(d) < 0.5
            if mask.all() or not mask.any():
                continue
            theta = rng.standard_normal(d) * mask
            beta = rng.standard_normal(d) * ~mask
            truth = GroundTruth(theta, (beta,))
            pi = projection(DesignMatrix(rng.standard_normal((n, d))))
            v = removal_verdict(truth, pi, TestDistribution(np.eye(d)))
            assert v.error_core <= v.error_full + 1e-10
            assert not v.full_better


    def test_full_error_nonnegative_when_full_residual_vanishes(self):
        # theta* = p + w Q beta* with p in the row space gives Q theta* = w Q beta*
        # for the fitted w, so the full model's residual is zero and its error
        # must not come out below zero
        rng = np.random.default_rng(28)
        for _ in range(300):
            d = int(rng.integers(3, 13))
            n = int(rng.integers(1, d))
            pi = projection(DesignMatrix(rng.standard_normal((n, d))))
            beta = rng.standard_normal(d)
            p = pi.project(rng.standard_normal(d))
            pb = pi.project(beta)
            w = (pb @ p) / (1.0 + pb @ beta)
            truth = GroundTruth(p + w * pi.complement(beta), (beta,))
            a = rng.standard_normal((d, d))
            v = removal_verdict(truth, pi, TestDistribution(a @ a.T))
            assert v.error_full >= 0.0

    def test_errors_are_population_errors_of_the_fits(self):
        rng = np.random.default_rng(29)
        for _ in range(200):
            d = int(rng.integers(3, 13))
            n = int(rng.integers(1, d))
            truth = GroundTruth(rng.standard_normal(d), (rng.standard_normal(d),))
            data = LabeledData.from_truth(DesignMatrix(rng.standard_normal((n, d))), truth)
            pi = projection(data.Z)
            a = rng.standard_normal((d, d))
            dist = TestDistribution(a @ a.T)
            v = removal_verdict(truth, pi, dist)
            core = population_error(fit_core(data), truth, dist, pi)
            full = population_error(fit_full(data), truth, dist, pi)
            assert v.error_core == pytest.approx(core, rel=1e-12)
            assert v.error_full == pytest.approx(full, rel=1e-12)


class TestRobustError:
    def setup_method(self):
        self.truth, self.data, self.pi = table2_setup()
        self.dist = TestDistribution(np.eye(3) * 0.25)
        self.spec = RobustSpec(gamma=4.0, norm_kind="l2")

    def test_core_equals_standard_error_on_shared_sample(self):
        core = fit_core(self.data)
        r = robust_error(core, self.truth, self.dist, self.spec, samples=2000, seed=5)
        factor, draws = documented_draw(self.dist, self.spec, 2000, 5)

        def values(v):
            u = factor.T @ v
            return np.concatenate([(x @ u)[idx] for x, idx in draws])

        plain = np.mean((values(self.truth.theta_star) - values(core.theta_hat)) ** 2)
        assert r == pytest.approx(plain, rel=0, abs=0)

    @pytest.mark.parametrize("norm_kind", ["l2", "linf"])
    @pytest.mark.parametrize("diagonal", [False, True])
    def test_matches_explicit_z_reference(self, norm_kind, diagonal):
        # The sampler never forms z = x F' for l2, and keeps only z'v for
        # linf; a reference that forms z and takes its norms directly must
        # accept the same rows of each batch and give the same errors to
        # rounding.
        rng = np.random.default_rng(17)
        d = 6
        truth = GroundTruth(rng.standard_normal(d), (rng.standard_normal(d),))
        data = LabeledData.from_truth(DesignMatrix(rng.standard_normal((3, d))), truth)
        if diagonal:
            dist = TestDistribution(rng.uniform(0.2, 2.0, d))
        else:
            a = rng.standard_normal((d, d))
            dist = TestDistribution(a @ a.T / d)
        spec = RobustSpec(1.5 if norm_kind == "l2" else 0.8, norm_kind)
        models = [fit_core(data), fit_full(data)]
        errors = robust_errors(models, truth, [dist], spec, samples=900, seed=4)[0]

        factor, draws = documented_draw(dist, spec, 900, 4)
        zs, need = [], 900
        for x, idx in draws:
            z = x @ factor.T
            norms = np.linalg.norm(z, axis=1) if norm_kind == "l2" else np.max(np.abs(z), axis=1)
            ok = np.flatnonzero(norms <= spec.gamma)[:need]
            assert np.array_equal(ok, idx)
            zs.append(z[ok])
            need -= ok.size
        z = np.concatenate(zs)
        assert z.shape[0] == 900
        half = spec.spurious_halfwidth(truth.beta_stars[0])
        for model, err in zip(models, errors):
            slack = sum(abs(w) * half for w in model.w_hat)
            ref = np.mean((np.abs(z @ truth.theta_star - z @ model.theta_hat) + slack) ** 2)
            assert err == pytest.approx(ref, rel=1e-12, abs=0)

    @pytest.mark.parametrize("gamma", [1.0, 4.0])
    def test_full_dominates_core(self, gamma):
        spec = RobustSpec(gamma=gamma, norm_kind="l2")
        core, full = fit_core(self.data), fit_full(self.data)
        r_core = robust_error(core, self.truth, self.dist, spec, samples=3000, seed=6)
        r_full = robust_error(full, self.truth, self.dist, spec, samples=3000, seed=6)
        assert r_core <= r_full + 1e-9

    def test_zero_weight_full_model_equals_standard(self):
        truth = GroundTruth(np.array([0.0, 1.0]), (np.array([1.0, 0.0]),))
        data = LabeledData.from_truth(DesignMatrix(np.eye(2)), truth)
        full = fit_full(data)
        assert full.w_hat[0] == pytest.approx(0.0, abs=1e-14)
        dist = TestDistribution(np.eye(2) * 0.1)
        spec = RobustSpec(gamma=3.0)
        r = robust_error(full, truth, dist, spec, samples=1000, seed=7)
        zs_loss = robust_error(fit_core(data), truth, dist, spec, samples=1000, seed=7)
        assert r == pytest.approx(zs_loss, abs=1e-12)

    def test_linf_norm_supported(self):
        full = fit_full(self.data)
        r = robust_error(full, self.truth, self.dist, RobustSpec(4.0, "linf"), samples=500, seed=8)
        assert np.isfinite(r) and r >= 0

    def test_bad_gamma(self):
        with pytest.raises(NonPositiveGammaError):
            RobustSpec(gamma=0.0)
        with pytest.raises(NonPositiveGammaError):
            RobustSpec(gamma=-1.0)

    def test_hopeless_truncation_fails_loudly(self):
        full = fit_full(self.data)
        wide = TestDistribution(np.eye(3) * 1e6)
        with pytest.raises(RuntimeError, match="gamma is too small"):
            robust_error(full, self.truth, wide, RobustSpec(gamma=1e-6), samples=100, seed=1)

    def test_multi_model_rejected(self):
        truth, data, _ = table2_setup()
        multi = fit_multi(data)
        with pytest.raises(ValueError):
            robust_error(multi, truth, self.dist, self.spec, samples=10)

    @pytest.mark.parametrize(
        "sigma", [np.eye(3) * 0.25, np.array([[0.3, 0.1, 0.0], [0.1, 0.2, 0.0], [0.0, 0.0, 0.1]])]
    )
    def test_one_draw_gives_each_models_robust_error(self, sigma):
        dist = TestDistribution(sigma)
        models = [fit_core(self.data), fit_full(self.data)]
        together = robust_errors(models, self.truth, [dist], self.spec, samples=700, seed=9)
        alone = [robust_error(m, self.truth, dist, self.spec, samples=700, seed=9) for m in models]
        assert together == [alone]

    def test_one_draw_gives_each_groups_robust_error(self, monkeypatch):
        batches = []

        class CountingGenerator(np.random.Generator):
            def standard_normal(self, *args, **kwargs):
                batches.append(args)
                return super().standard_normal(*args, **kwargs)

        monkeypatch.setattr(np.random, "default_rng", lambda seed=None: CountingGenerator(np.random.PCG64(seed)))
        # At gamma 1 the groups keep from about 98% to 8% of their draws, so
        # alone they need from 2 to 12 batches of 600.
        spec = RobustSpec(gamma=1.0)
        groups = [
            TestDistribution(np.full(3, 0.5)),
            TestDistribution(np.full(3, 2.0)),
            TestDistribution(np.full(3, 0.1)),
            TestDistribution(np.array([[0.3, 0.1, 0.0], [0.1, 0.2, 0.0], [0.0, 0.0, 0.1]])),
        ]
        models = [fit_core(self.data), fit_full(self.data)]
        alone, drawn = [], []
        for g in groups:
            batches.clear()
            alone.append([robust_error(m, self.truth, g, spec, samples=600, seed=11) for m in models])
            drawn.append(len(batches) // len(models))
        assert min(drawn) == 2 and max(drawn) == 12
        batches.clear()
        together = robust_errors(models, self.truth, groups, spec, samples=600, seed=11)
        assert together == alone
        assert len(batches) == max(drawn)  # each batch is drawn once for every group
        hopeless = TestDistribution(np.eye(3) * 1e6)
        with pytest.raises(SamplerExhaustedError):
            robust_errors(models, self.truth, [groups[0], hopeless, groups[1]], spec, samples=600, seed=11)

    def test_group_dimensions_are_checked_before_sampling(self):
        with pytest.raises(DimensionMismatchError):
            robust_errors([], self.truth, [self.dist, TestDistribution(np.ones(5))], self.spec, samples=10)

    # Each argument check refuses its input before any draw, with a typed error.
    def test_arguments_are_checked_before_sampling(self):
        core, full = fit_core(self.data), fit_full(self.data)
        two_betas = GroundTruth(self.truth.theta_star, self.truth.beta_stars * 2)
        with pytest.raises(DimensionMismatchError, match="exactly one spurious vector, got 2"):
            robust_errors([core], two_betas, [self.dist], self.spec, samples=10)
        short = LinearModel(theta_hat=np.zeros(2), w_hat=np.zeros(0), kind="core")
        with pytest.raises(DimensionMismatchError, match="model and truth dimensions"):
            robust_errors([core, short], self.truth, [self.dist], self.spec, samples=10)
        two_weights = LinearModel(theta_hat=full.theta_hat, w_hat=np.ones(2), kind="full")
        with pytest.raises(DimensionMismatchError, match="one spurious weight, got 2"):
            robust_errors([full, two_weights], self.truth, [self.dist], self.spec, samples=10)
        for samples in (0, -3):
            with pytest.raises(ValueError, match="samples must be >= 1"):
                robust_errors([core, full], self.truth, [self.dist], self.spec, samples=samples)

    def test_replayed_batches_bound_the_memory(self):
        # Six groups need 3, 5, 11, 27, 64 and 201 batches of 4096 x 40. The
        # sampler holds one batch of normals, its squares and each group's
        # kept values of z'theta* and z'theta_hat: a peak of 2.7 batches
        # (3.6 MB), bounded at 4 for allocator and numpy temporaries. Keeping
        # each group's accepted rows would add 6 batches, and keeping every
        # batch drawn 201 (263 MB).
        rng = np.random.default_rng(0)
        d = 40
        truth = GroundTruth(rng.standard_normal(d), (rng.standard_normal(d),))
        data = LabeledData.from_truth(DesignMatrix(rng.standard_normal((20, d))), truth)
        groups = [TestDistribution(np.full(d, v)) for v in (1.0, 1.1, 1.25, 1.4, 1.55, 1.74)]
        batch = 4096 * d * 8
        tracemalloc.start()
        try:
            robust_errors([fit_core(data), fit_full(data)], truth, groups, RobustSpec(6.0), 4096, seed=0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 4 * batch, f"peak {peak / 1e6:.1f} MB"

    def test_overflowing_loss_raises_typed_error(self):
        full = fit_full(self.data)
        with pytest.raises(NonFiniteResultError, match="not finite"):
            robust_error(full, self.truth, self.dist, RobustSpec(gamma=1e300), samples=50, seed=1)


class TestGroupErrors:
    def test_table2_deltas(self):
        truth, data, pi = table2_setup()
        core, full = fit_core(data), fit_full(data)
        for sigma, delta in ((np.diag([0.0, 1.0, 0.0]), 4.0), (np.diag([0.0, 0.0, 1.0]), -12.0)):
            g = TestDistribution(sigma)
            gap = population_error(core, truth, g, pi) - population_error(full, truth, g, pi)
            assert gap == pytest.approx(delta)

    def test_zero_group(self):
        truth, data, pi = table2_setup()
        null = TestDistribution(np.zeros((3, 3)))
        for model in (fit_core(data), fit_full(data)):
            assert abs(population_error(model, truth, null, pi)) < 1e-15

    def test_errors_match_monte_carlo(self):
        rng = np.random.default_rng(27)
        d, n = 5, 2
        truth = GroundTruth(rng.standard_normal(d), (rng.standard_normal(d),))
        data = LabeledData.from_truth(DesignMatrix(rng.standard_normal((n, d))), truth)
        pi = projection(data.Z)
        models = [fit_core(data), fit_full(data)]
        for _ in range(20):
            a = rng.standard_normal((d, d))
            g = TestDistribution(a @ a.T)
            for m in models:
                err = population_error(m, truth, g, pi)
                chol = np.linalg.cholesky(g.sigma + 1e-12 * np.eye(d))
                zs = rng.standard_normal((40_000, d)) @ chol.T
                preds = zs @ m.theta_hat
                if m.w_hat.size:
                    preds = preds + m.w_hat[0] * (zs @ truth.beta_stars[0])
                losses = (zs @ truth.theta_star - preds) ** 2
                se = losses.std(ddof=1) / np.sqrt(losses.size)
                assert abs(err - losses.mean()) <= 3 * se + 1e-12


def schur_complement_fit(z1, z2, a1, a2):
    """Reference: with row spaces meeting only at the origin,
        M = Z1'(Z1 (I - P2) Z1')^{-1} Z1,   N = Z2'(Z2 (I - P1) Z2')^{-1} Z2,
        alpha_hat = (I - P2) M alpha1 + (I - P1) N alpha2."""
    q1 = np.eye(z1.cols) - projection(z1).matrix
    q2 = np.eye(z2.cols) - projection(z2).matrix
    m1, m2 = z1.entries, z2.entries
    m_term = q2 @ (m1.T @ np.linalg.solve(m1 @ q2 @ m1.T, m1 @ a1))
    n_term = q1 @ (m2.T @ np.linalg.solve(m2 @ q1 @ m2.T, m2 @ a2))
    return m_term + n_term


class TestGroupwiseSpuriousFit:
    def test_two_axis_groups(self):
        z1 = DesignMatrix(np.array([[1.0, 0.0]]))
        z2 = DesignMatrix(np.array([[0.0, 1.0]]))
        out = groupwise_spurious_fit(z1, z2, np.array([2.0, 2.0]), np.array([-1.0, -1.0]))
        assert_allclose(out, [2.0, -1.0], atol=1e-12)

    def test_consistent_groups_preserve_action(self):
        rng = np.random.default_rng(28)
        d = 6
        z1 = DesignMatrix(rng.standard_normal((2, d)))
        z2 = DesignMatrix(rng.standard_normal((2, d)))
        alpha = rng.standard_normal(d)
        out = groupwise_spurious_fit(z1, z2, alpha, alpha)
        assert_allclose(z1.entries @ out, z1.entries @ alpha, atol=1e-9)
        assert_allclose(z2.entries @ out, z2.entries @ alpha, atol=1e-9)

    def test_matches_stacked_oracle_on_random_orthogonal_groups(self):
        rng = np.random.default_rng(29)
        for _ in range(20):
            d = 6
            q, _ = np.linalg.qr(rng.standard_normal((d, 4)))
            z1 = DesignMatrix(rng.standard_normal((2, 2)) @ q[:, :2].T)
            z2 = DesignMatrix(rng.standard_normal((2, 2)) @ q[:, 2:].T)
            a1, a2 = rng.standard_normal(d), rng.standard_normal(d)
            out = groupwise_spurious_fit(z1, z2, a1, a2)
            assert_allclose(out, schur_complement_fit(z1, z2, a1, a2), atol=1e-8)

    def test_dimensions_must_agree(self):
        z1, z2 = DesignMatrix(np.array([[1.0, 0.0]])), DesignMatrix(np.array([[0.0, 1.0]]))
        z3 = DesignMatrix(np.array([[0.0, 1.0, 0.0]]))
        for args in (
            (z1, z3, np.ones(2), np.ones(2)),
            (z1, z2, np.ones(3), np.ones(2)),
            (z1, z2, np.ones(2), np.ones(3)),
        ):
            with pytest.raises(DimensionMismatchError, match="share one dimension"):
                groupwise_spurious_fit(*args)

    def test_overlapping_row_spaces_fall_back(self):
        shared = np.array([[1.0, 1.0, 0.0]])
        z1 = DesignMatrix(np.vstack([shared, [[0.0, 0.0, 1.0]]]))
        z2 = DesignMatrix(shared)
        alpha = np.array([1.0, 2.0, 3.0])
        out = groupwise_spurious_fit(z1, z2, alpha, alpha)
        stacked = np.vstack([z1.entries, z2.entries])
        rhs = np.concatenate([z1.entries @ alpha, z2.entries @ alpha])
        assert_allclose(out, min_norm_solve(stacked, rhs).x, atol=1e-8)


class TestGroupwiseSpuriousError:
    def worked_example(self):
        z1 = DesignMatrix(np.array([[1.0, 0.0]]))
        z2 = DesignMatrix(np.array([[0.0, 1.0]]))
        theta = np.array([1.0, 1.0])
        alpha1 = np.array([2.0, 2.0])
        alpha2 = np.array([-1.0, -1.0])
        return z1, z2, theta, alpha1, alpha2

    def test_point_from_other_group(self):
        z1, z2, theta, alpha1, alpha2 = self.worked_example()
        w = 1.0 / 6.0
        # e1 belongs to group 1's row space; as a group-2 test point its error
        # comes from the same expansion with the group roles swapped.
        err = groupwise_spurious_error(
            z2, z1, theta, alpha2, alpha1, w, TestDistribution(np.diag([1.0, 0.0]))
        )
        assert err == pytest.approx((3 * w) ** 2)
        assert err == pytest.approx(0.25)

    def test_group1_point_on_other_axis(self):
        z1, z2, theta, alpha1, alpha2 = self.worked_example()
        w = 1.0 / 6.0
        err = groupwise_spurious_error(
            z1, z2, theta, alpha1, alpha2, w, TestDistribution(np.diag([0.0, 1.0]))
        )
        assert err == pytest.approx((3 * w) ** 2)

    def test_zero_weight_reduces_to_core_error(self):
        rng = np.random.default_rng(30)
        d = 6
        q, _ = np.linalg.qr(rng.standard_normal((d, 4)))
        z1 = DesignMatrix(rng.standard_normal((2, 2)) @ q[:, :2].T)
        z2 = DesignMatrix(rng.standard_normal((2, 2)) @ q[:, 2:].T)
        theta = rng.standard_normal(d)
        a = rng.standard_normal((d, d))
        dist = TestDistribution(a @ a.T)
        err = groupwise_spurious_error(z1, z2, theta, rng.standard_normal(d), rng.standard_normal(d), 0.0, dist)
        pi = projection(DesignMatrix(np.vstack([z1.entries, z2.entries])))
        q_mat = np.eye(d) - pi.matrix
        expected = theta @ q_mat @ dist.sigma @ q_mat @ theta
        assert err == pytest.approx(expected, rel=1e-9, abs=1e-12)

    def test_matches_monte_carlo_over_group1_points(self):
        rng = np.random.default_rng(31)
        d = 6
        q, _ = np.linalg.qr(rng.standard_normal((d, 4)))
        z1 = DesignMatrix(rng.standard_normal((2, 2)) @ q[:, :2].T)
        z2 = DesignMatrix(rng.standard_normal((2, 2)) @ q[:, 2:].T)
        theta = rng.standard_normal(d)
        alpha1, alpha2 = rng.standard_normal(d), rng.standard_normal(d)
        # fit the full model on the combined groups
        z = np.vstack([z1.entries, z2.entries])
        s = np.concatenate([z1.entries @ alpha1, z2.entries @ alpha2])
        y = z @ theta
        full = fit_full(LabeledData(Z=DesignMatrix(z), S=s, Y=y))
        w = float(full.w_hat[0])
        a = rng.standard_normal((d, d))
        dist = TestDistribution(a @ a.T)
        closed = groupwise_spurious_error(z1, z2, theta, alpha1, alpha2, w, dist)
        chol = np.linalg.cholesky(dist.sigma + 1e-12 * np.eye(d))
        zs = rng.standard_normal((200_000, d)) @ chol.T
        preds = zs @ full.theta_hat + w * (zs @ alpha1)  # group-1 points carry s = alpha1'z
        losses = (zs @ theta - preds) ** 2
        se = losses.std(ddof=1) / np.sqrt(losses.size)
        assert abs(closed - losses.mean()) <= 3 * se

    def test_dimensions_must_agree(self):
        z1, z2, theta, alpha1, alpha2 = self.worked_example()
        z3 = DesignMatrix(np.array([[0.0, 1.0, 0.0]]))
        dist = TestDistribution(np.eye(2))
        for args in (
            (z1, z3, theta, alpha1, alpha2, 0.5, dist),
            (z1, z2, np.ones(3), alpha1, alpha2, 0.5, dist),
            (z1, z2, theta, np.ones(3), alpha2, 0.5, dist),
            (z1, z2, theta, alpha1, np.ones(3), 0.5, dist),
            (z1, z2, theta, alpha1, alpha2, 0.5, TestDistribution(np.eye(3))),
        ):
            with pytest.raises(DimensionMismatchError, match="share one dimension"):
                groupwise_spurious_error(*args)

    def test_non_orthogonal_groups_rejected(self):
        z1 = DesignMatrix(np.array([[1.0, 0.0, 0.0]]))
        z2 = DesignMatrix(np.array([[1.0, 1.0, 0.0]]))
        with pytest.raises(NonOrthogonalGroupsError):
            groupwise_spurious_error(
                z1, z2, np.zeros(3), np.zeros(3), np.zeros(3), 0.5, TestDistribution(np.eye(3))
            )


# Where a diagonal Sigma's PSD decision could go either way: signed zeros,
# subnormals, the 1e-10 tolerance and its neighbours, and extreme magnitudes.
BELOW_TOL = float(np.nextafter(-1e-10, -1.0))
ABOVE_TOL = float(np.nextafter(-1e-10, 0.0))
DIAGONAL_EDGE_VALUES = [
    0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, -2.2250738585072014e-308,
    -1e-10, BELOW_TOL, ABOVE_TOL, 1e-10, float(np.nextafter(1e-10, 0.0)),
    float(np.nextafter(1e-10, 1.0)), 1e300, -1e300, 1e-300, -1e-300,
]


# LAPACK's symmetric eigensolver rescales a matrix whose largest entry
# exceeds sqrt(eps / tiny), about 1e146, and scales the eigenvalues back,
# which can move a small eigenvalue by an ulp; a diagonal's is exact.
LAPACK_RMAX = float(np.sqrt(np.finfo(float).eps / np.finfo(float).tiny))


class TestValidation:
    def test_sigma_must_be_psd(self):
        with pytest.raises(ValueError):
            TestDistribution(np.array([[1.0, 0.0], [0.0, -1.0]]))
        with pytest.raises(ValueError):
            TestDistribution(np.array([[1.0, 0.5], [0.0, 1.0]]))

    @settings(max_examples=100, derandomize=True, deadline=None)
    @given(
        v=st.lists(
            st.one_of(
                st.sampled_from(DIAGONAL_EDGE_VALUES),
                st.floats(allow_nan=False, allow_infinity=False),
            ),
            min_size=1,
            max_size=6,
        )
    )
    @example(v=[1.0, -1e-10])
    @example(v=[1.0, BELOW_TOL])
    @example(v=[1.0, ABOVE_TOL])
    # eigvalsh rescales this one and returns -1.0000000000000002e-10
    @example(v=[2.0901618131163305e191, -1e-10])
    def test_diagonal_sigma_decision_is_exact_and_matches_eigvalsh(self, v):
        m = np.diag(v)
        decisions = []
        for sigma in (m, np.array(v)):
            try:
                TestDistribution(sigma)
                decisions.append(True)
            except ValueError as exc:
                assert str(exc) == "sigma is not positive semidefinite"
                decisions.append(False)
        # A diagonal matrix's eigenvalues are its diagonal, exactly, and the
        # vector form decides from the same entries.
        assert decisions == [min(v) >= -1e-10] * 2
        if np.max(np.abs(m)) <= LAPACK_RMAX:
            assert decisions[0] == (float(np.min(np.linalg.eigvalsh(m))) >= -1e-10)

    def test_one_off_diagonal_entry_takes_the_dense_path(self, monkeypatch):
        calls = []
        eigvalsh = np.linalg.eigvalsh
        monkeypatch.setattr(np.linalg, "eigvalsh", lambda a: calls.append(a) or eigvalsh(a))
        TestDistribution(np.diag([1.0, 2.0, 3.0]))
        assert calls == []
        # positive diagonal, but the off-diagonal pair makes an eigenvalue -1
        with pytest.raises(ValueError, match="not positive semidefinite"):
            TestDistribution(np.array([[1.0, 2.0, 0.0], [2.0, 1.0, 0.0], [0.0, 0.0, 1.0]]))
        assert len(calls) == 1
        asymmetric = np.diag([1.0, 2.0, 3.0])
        asymmetric[0, 2] = 1e-3
        with pytest.raises(ValueError, match="not symmetric"):
            TestDistribution(asymmetric)

    def test_vector_form_gives_the_dense_diagonal_results_exactly(self):
        rng = np.random.default_rng(3)
        d, n = 9, 4
        truth = GroundTruth(rng.standard_normal(d), (rng.standard_normal(d),))
        data = LabeledData.from_truth(DesignMatrix(rng.standard_normal((n, d))), truth)
        pi = projection(data.Z)
        models = [fit_core(data), fit_full(data)]
        v = rng.uniform(0.0, 2.0, d)
        v[[2, 5]] = 0.0
        spec = RobustSpec(gamma=2.0 * float(np.sqrt(v.sum())))
        results = []
        for dist in (TestDistribution(v), TestDistribution(np.diag(v))):
            results.append((
                dist.dim,
                removal_verdict(truth, pi, dist),
                [population_error(m, truth, dist, pi) for m in models],
                robust_errors(models, truth, [dist], spec, 256, seed=1),
            ))
        assert results[0] == results[1]

    def test_dimension_checks(self):
        truth, data, pi = table2_setup()
        with pytest.raises(DimensionMismatchError):
            population_error(fit_core(data), truth, TestDistribution(np.eye(2)), pi)
        with pytest.raises(DimensionMismatchError):
            removal_verdict(GroundTruth(np.zeros(3), ()), pi, TestDistribution(np.eye(3)))


# An empirical second moment Z'Z/n kept as its factor F = Z/sqrt(n), against
# the dense symmetrized matrix. The two round differently, so the numbers
# agree to 1e-12 of ||F||^2 ||r||^2, the scale of a quadratic form r' Sigma r,
# and the booleans wherever no decision margin is within rounding of zero.
class TestSampleFactor:
    @staticmethod
    def forms(z):
        sigma = z.T @ z / z.shape[0]
        return TestDistribution.from_samples(z), TestDistribution((sigma + sigma.T) / 2.0)

    @settings(max_examples=150, derandomize=True, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        d=st.integers(3, 10),
        n=st.integers(1, 12),
        scale=st.sampled_from([1e-3, 1.0, 30.0]),
        repeated=st.booleans(),
    )
    def test_factor_matches_dense_second_moment(self, seed, d, n, scale, repeated):
        rng = np.random.default_rng(seed)
        z = scale * rng.standard_normal((n, d))
        if repeated:  # n copies of one row, as in the disjoint construction
            z = np.tile(z[:1], (n, 1))
        factored, dense = self.forms(z)
        f2 = float(np.sum(factored.sigma**2))
        assert factored.dim == dense.dim == d
        for _ in range(3):
            r = rng.standard_normal(d)
            assert abs(factored.quad(r) - dense.quad(r)) <= 1e-12 * f2 * float(r @ r)
            assert float(np.linalg.norm(factored.apply(r) - dense.apply(r))) <= (
                1e-12 * f2 * float(np.linalg.norm(r))
            )

        truth = GroundTruth(rng.standard_normal(d), (rng.standard_normal(d),))
        pi = projection(DesignMatrix(rng.standard_normal((int(rng.integers(1, d)), d))))
        vf, vd = removal_verdict(truth, pi, factored), removal_verdict(truth, pi, dense)
        assert (vf.lhs_seen_corr, vf.w_hat) == (vd.lhs_seen_corr, vd.w_hat)
        theta, beta = truth.theta_star, truth.beta_stars[0]
        norm_r = float(np.linalg.norm(theta)) + abs(vd.w_hat) * float(np.linalg.norm(beta))
        tol = 1e-12 * f2 * norm_r**2
        for name in ("rhs_unseen_corr", "error_core", "error_full"):
            assert abs(getattr(vf, name) - getattr(vd, name)) <= tol, name
        bqb = dense.quad(pi.complement(beta))
        ratio = abs(2.0 * vd.rhs_unseen_corr / bqb) if bqb else np.inf
        near_tie = (
            abs(abs(bqb) - TIE_TOL) <= 1e6 * tol
            or abs(vd.rhs_unseen_corr) <= 1e6 * tol
            or abs(abs(vd.w_hat) - ratio) <= 1e-3 * ratio
        )
        if not near_tie:
            assert (vf.tie, vf.sign_match, vf.magnitude_holds) == (
                vd.tie, vd.sign_match, vd.magnitude_holds
            )

    def test_factor_is_validated_for_shape_and_finiteness_only(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("a sample factor was eigendecomposed")

        monkeypatch.setattr(np.linalg, "eigvalsh", refuse)
        z = np.array([[1.0, 2.0, 0.0, -1.0], [0.5, 0.0, 3.0, 1.0]])
        dist = TestDistribution.from_samples(z, "g")
        assert dist.factored and dist.label == "g" and dist.dim == 4
        assert_allclose(dist.matrix, z.T @ z / 2.0, rtol=1e-15)
        assert not dist.matrix.flags.writeable
        with pytest.raises(ValueError, match="non-finite"):
            TestDistribution.from_samples(np.array([[1.0, np.nan]]))
        with pytest.raises(DimensionMismatchError):
            TestDistribution.from_samples(np.ones(3))
        # a non-square matrix is no second moment unless it is a factor
        with pytest.raises(DimensionMismatchError, match="square"):
            TestDistribution(z)

    def test_diagonal_and_dense_forms_give_their_matrix(self):
        v = np.array([1.0, 0.0, 2.5])
        assert TestDistribution(v).matrix.tolist() == np.diag(v).tolist()
        m = np.array([[2.0, 1.0], [1.0, 2.0]])
        assert TestDistribution(m).matrix.tolist() == m.tolist()
