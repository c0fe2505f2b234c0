import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from spurious_lens import (
    GroupMoments,
    OvbPopulation,
    estimate_group_losses,
    group_prefers_core,
    ovb_bias,
)
from spurious_lens.exceptions import (
    DimensionMismatchError,
    EmptyGroupError,
    SignAssumptionError,
    SingularGramError,
)
from spurious_lens.scenarios import ovb_simple_moments, ovb_simple_scenario


def halfspace_conditioned_moments(sigma_full, u, c):
    """Closed-form E[xx' | u'x > c] for x ~ N(0, sigma_full) with u'Sigma u = 1.

    Writing x = (Sigma u) t + r with t = u'x ~ N(0,1) independent of r, the
    conditional second moment is Sigma + (Sigma u)(Sigma u)' (E[t^2|t>c] - 1),
    where E[t^2 | t > c] = 1 + c phi(c) / (1 - Phi(c)).
    """
    phi = math.exp(-0.5 * c * c) / math.sqrt(2 * math.pi)
    tail = 0.5 * math.erfc(c / math.sqrt(2))
    et2 = 1.0 + c * phi / tail
    su = sigma_full @ u
    return sigma_full + np.outer(su, su) * (et2 - 1.0)


def random_gaussian_population(rng, q):
    """Jointly Gaussian (s, z) with a half-space group of computable moments."""
    a = rng.standard_normal((1 + q, 1 + q))
    sigma_full = a @ a.T + 0.5 * np.eye(1 + q)
    u = rng.standard_normal(1 + q)
    u = u / math.sqrt(u @ sigma_full @ u)
    c = float(rng.uniform(-1.0, 1.0))
    cond = halfspace_conditioned_moments(sigma_full, u, c)
    gamma = rng.standard_normal(q)
    beta = float(rng.normal())
    lam = sigma_full[0, 1:] / sigma_full[0, 0]
    if lam @ gamma + beta <= 0:
        gamma, beta = -gamma, -beta
    pop = OvbPopulation(
        gamma=gamma, beta_s=beta, sigma_ss=sigma_full[0, 0], sigma_sz=sigma_full[0, 1:]
    )
    grp = GroupMoments(sigma_ss_g=cond[0, 0], sigma_sz_g=cond[0, 1:])
    return pop, grp, sigma_full, u, c


def gaussian_draws(sigma_full, m, seed):
    """m draws of (s, z) ~ N(0, sigma_full) from default_rng(seed): s (m,) and z (m, q)."""
    x = np.random.default_rng(seed).standard_normal((m, sigma_full.shape[0])) @ np.linalg.cholesky(sigma_full).T
    return x[:, 0], x[:, 1:]


class TestInputChecks:
    # sigma_sz and mean_z must match gamma's length, and sigma_ss must be positive and finite
    @pytest.mark.parametrize("fields,error,message", [
        ({"sigma_sz": [0.5]}, DimensionMismatchError, "sigma_sz has length 1, expected 2"),
        ({"mean_z": [0.0]}, DimensionMismatchError, "mean_z length must match gamma"),
        *(({"sigma_ss": v}, ValueError, "sigma_ss must be positive") for v in (0.0, -1.0, math.nan, math.inf)),
    ], ids=["sigma_sz_length", "mean_z_length", "sigma_ss_zero", "sigma_ss_negative", "sigma_ss_nan", "sigma_ss_inf"])
    def test_population_refuses(self, fields, error, message):
        kwargs = {"gamma": [1.0, -1.0], "beta_s": 1.0, "sigma_ss": 1.0, "sigma_sz": [0.5, 0.5], **fields}
        with pytest.raises(error, match=message):
            OvbPopulation(**kwargs)

    @pytest.mark.parametrize("sigma_ss_g", [0.0, -1.0, math.nan, math.inf])
    def test_group_moments_refuse_a_non_positive_variance(self, sigma_ss_g):
        with pytest.raises(ValueError, match="sigma_ss_g must be positive"):
            GroupMoments(sigma_ss_g=sigma_ss_g, sigma_sz_g=[1.0])

    def test_bias_refuses_a_misshapen_cross_moment(self):
        with pytest.raises(DimensionMismatchError, match="cross_moment must be 3 x 1"):
            ovb_bias(np.eye(3), np.zeros((2, 1)), np.zeros(1))

    def test_decision_refuses_group_moments_of_another_dimension(self):
        pop = OvbPopulation(gamma=[1.0], beta_s=1.0, sigma_ss=1.0, sigma_sz=[0.5])
        with pytest.raises(DimensionMismatchError, match="group moments dimension"):
            group_prefers_core(pop, GroupMoments(sigma_ss_g=1.0, sigma_sz_g=[0.5, 0.5]))


class TestOvbBias:
    def test_zero_delta(self):
        rng = np.random.default_rng(50)
        x = rng.standard_normal((10, 3))
        cm = rng.standard_normal((3, 2))
        assert_allclose(ovb_bias(x, cm, np.zeros(2)), np.zeros(3), atol=1e-14)

    def test_identity_gram(self):
        cm = np.array([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]])
        delta = np.array([1.0, -1.0])
        assert_allclose(ovb_bias(np.eye(3), cm, delta), cm @ delta, atol=1e-12)

    def test_linearity(self):
        rng = np.random.default_rng(51)
        x = rng.standard_normal((12, 4))
        cm = rng.standard_normal((4, 3))
        d1, d2 = rng.standard_normal(3), rng.standard_normal(3)
        lhs = ovb_bias(x, cm, d1 + d2)
        rhs = ovb_bias(x, cm, d1) + ovb_bias(x, cm, d2)
        assert np.max(np.abs(lhs - rhs)) < 1e-10

    def test_singular_gram_raises(self):
        x = np.array([[1.0, 2.0], [2.0, 4.0], [3.0, 6.0]])
        with pytest.raises(SingularGramError):
            ovb_bias(x, np.zeros((2, 1)), np.zeros(1))

    def test_matches_monte_carlo_regression(self):
        rng = np.random.default_rng(52)
        n, p, q = 30, 3, 2
        x = rng.standard_normal((n, p))
        cm = rng.standard_normal((p, q))
        delta = rng.standard_normal(q)
        beta = rng.standard_normal(p)
        bias = ovb_bias(x, cm, delta)
        # unobserved covariates with E[X'Z | X] = cm: Z0 + mean-zero noise
        z0 = x @ np.linalg.solve(x.T @ x, cm)
        gram_inv_xt = np.linalg.solve(x.T @ x, x.T)
        draws = np.empty((10_000, p))
        for i in range(draws.shape[0]):
            z = z0 + rng.standard_normal((n, q))
            y = x @ beta + z @ delta + 0.1 * rng.standard_normal(n)
            draws[i] = gram_inv_xt @ y
        mean = draws.mean(axis=0) - beta
        se = draws.std(axis=0, ddof=1) / math.sqrt(draws.shape[0])
        assert np.all(np.abs(mean - bias) <= 3 * se + 1e-12)


class TestGroupPrefersCore:
    def test_population_typical_group_prefers_full(self):
        # lambda_g = lambda reduces the condition to -gamma'lambda >= beta,
        # impossible under the standing sign assumption unless gamma'lambda <= -beta.
        rng = np.random.default_rng(53)
        for _ in range(30):
            q = int(rng.integers(1, 4))
            gamma = rng.standard_normal(q)
            lam = rng.standard_normal(q)
            beta = float(rng.normal())
            if lam @ gamma + beta <= 0:
                gamma, beta = -gamma, -beta
            pop = OvbPopulation(gamma=gamma, beta_s=beta, sigma_ss=1.0, sigma_sz=lam)
            grp = GroupMoments(sigma_ss_g=1.0, sigma_sz_g=lam)
            expected = float(-gamma @ lam) >= beta
            assert group_prefers_core(pop, grp) == expected

    def test_zero_gamma(self):
        pop = OvbPopulation(gamma=np.zeros(2), beta_s=1.0, sigma_ss=1.0, sigma_sz=np.zeros(2))
        grp = GroupMoments(sigma_ss_g=1.0, sigma_sz_g=np.array([5.0, -5.0]))
        assert group_prefers_core(pop, grp) == (0.0 >= 1.0)
        pop_neg = OvbPopulation(
            gamma=np.zeros(2), beta_s=0.5, sigma_ss=1.0, sigma_sz=np.zeros(2)
        )
        assert not group_prefers_core(pop_neg, grp)

    def test_sign_assumption_enforced(self):
        pop = OvbPopulation(
            gamma=np.array([1.0]), beta_s=-2.0, sigma_ss=1.0, sigma_sz=np.array([1.0])
        )
        grp = GroupMoments(sigma_ss_g=1.0, sigma_sz_g=np.array([0.0]))
        with pytest.raises(SignAssumptionError):
            group_prefers_core(pop, grp)

    def test_decision_agrees_with_raw_difference_formula(self):
        # The rule is the sign of ((gamma'lambda)^2 - beta^2) E[s^2|g]
        # - 2 gamma'E[zs|g] (lambda'gamma + beta) after the positive divisions.
        rng = np.random.default_rng(54)
        checked = 0
        for _ in range(200):
            q = int(rng.integers(1, 5))
            gamma = rng.standard_normal(q)
            lam = rng.standard_normal(q)
            lam_g = rng.standard_normal(q)
            beta = float(rng.normal())
            if lam @ gamma + beta <= 0:
                gamma, beta = -gamma, -beta
            s2_g = float(rng.uniform(0.1, 3.0))
            pop = OvbPopulation(gamma=gamma, beta_s=beta, sigma_ss=1.0, sigma_sz=lam)
            grp = GroupMoments(sigma_ss_g=s2_g, sigma_sz_g=lam_g * s2_g)
            zs_g = grp.lam_g * s2_g
            diff = ((gamma @ lam) ** 2 - beta**2) * s2_g - 2 * (gamma @ zs_g) * (
                lam @ gamma + beta
            )
            assert group_prefers_core(pop, grp) == (diff >= 0)
            checked += 1
        assert checked == 200

    def test_simple_example_group_prefers_core(self):
        pop = OvbPopulation(
            gamma=np.array([1.0]),
            beta_s=1.0,
            sigma_ss=0.25,
            sigma_sz=np.array([0.25]),
            mean_s=0.5,
            mean_z=np.array([0.5]),
        )
        grp, _ = ovb_simple_moments(sigma=1.0, threshold=1.5)
        assert group_prefers_core(pop, grp)


class TestEstimateGroupLosses:
    def test_trivial_group_matches_population_case(self):
        rng_seed = 55
        q = 2
        rng = np.random.default_rng(rng_seed)
        a = rng.standard_normal((1 + q, 1 + q))
        sigma_full = a @ a.T + 0.5 * np.eye(1 + q)
        gamma = rng.standard_normal(q)
        beta = float(rng.normal())
        lam = sigma_full[0, 1:] / sigma_full[0, 0]
        if lam @ gamma + beta <= 0:
            gamma, beta = -gamma, -beta
        pop = OvbPopulation(gamma=gamma, beta_s=beta, sigma_ss=sigma_full[0, 0], sigma_sz=sigma_full[0, 1:])
        grp = GroupMoments(sigma_ss_g=sigma_full[0, 0], sigma_sz_g=sigma_full[0, 1:])
        est = estimate_group_losses(pop, *gaussian_draws(sigma_full, 100_000, seed=9))
        prefers = group_prefers_core(pop, grp)
        if abs(est.difference) > 3 * est.stderr_difference:
            assert prefers == (est.difference >= 0)

    def test_degenerate_z(self):
        pop = OvbPopulation(
            gamma=np.array([2.0]), beta_s=1.0, sigma_ss=1.0, sigma_sz=np.array([0.5])
        )
        s = np.random.default_rng(10).standard_normal(50_000)
        est = estimate_group_losses(pop, s, np.zeros((50_000, 1)))
        lam = 0.5
        s2 = 1.0  # E[s^2] for standard normal draws
        assert est.loss_with_s == pytest.approx((2.0 * lam) ** 2 * s2, rel=0.05)
        assert est.loss_without_s == pytest.approx(1.0**2 * s2, rel=0.05)

    def test_empty_group(self):
        pop = OvbPopulation(
            gamma=np.array([1.0]), beta_s=1.0, sigma_ss=1.0, sigma_sz=np.array([0.0])
        )
        rng = np.random.default_rng(11)
        s, z = rng.standard_normal(100), rng.standard_normal((100, 1))
        nobody = np.zeros(100, dtype=bool)
        with pytest.raises(EmptyGroupError):
            estimate_group_losses(pop, s[nobody], z[nobody])

    # z with the wrong column count, z with too few rows, s with too many rows, s not a vector
    @pytest.mark.parametrize(
        "shape_s,shape_z",
        [((10,), (10, 2)), ((10,), (9, 1)), ((11,), (10, 1)), ((10, 1), (10, 1))],
        ids=["z_cols", "z_rows", "s_rows", "s_matrix"],
    )
    def test_misshapen_draws_raise(self, shape_s, shape_z):
        pop = OvbPopulation(
            gamma=np.array([1.0]), beta_s=1.0, sigma_ss=1.0, sigma_sz=np.array([0.0])
        )
        rng = np.random.default_rng(11)
        s, z = rng.standard_normal(shape_s), rng.standard_normal(shape_z)
        with pytest.raises(DimensionMismatchError, match=r"draws have s"):
            estimate_group_losses(pop, s, z)

    def test_deterministic_given_seed(self):
        pop = OvbPopulation(
            gamma=np.array([1.0, -1.0]), beta_s=1.5, sigma_ss=1.0, sigma_sz=np.array([0.3, 0.1])
        )

        def estimate():
            rng = np.random.default_rng(12)
            s, z = rng.standard_normal(5000), rng.standard_normal((5000, 2))
            return estimate_group_losses(pop, s[s > 0], z[s > 0])

        assert estimate() == estimate()

    def test_simple_example_losses(self):
        rep = ovb_simple_scenario(trials=60_000, seed=13)
        q = rep.quantities
        assert rep.verdicts["group_prefers_core"]
        assert q["loss_without_s"].monte_carlo < q["loss_with_s"].monte_carlo
        assert rep.three_sigma_violations() == []


class TestGaussianPopulations:
    def test_halfspace_moments_match_samples(self):
        rng = np.random.default_rng(56)
        pop, grp, sigma_full, u, c = random_gaussian_population(rng, q=3)
        s, z = gaussian_draws(sigma_full, 200_000, seed=14)
        pts = np.column_stack([s, z])
        mask = pts @ u > c
        sel = pts[mask]
        emp = sel.T @ sel / sel.shape[0]
        closed = halfspace_conditioned_moments(sigma_full, u, c)
        se = np.abs(emp) * 3 / math.sqrt(mask.sum()) + 0.05
        assert np.all(np.abs(emp - closed) <= se)

    def test_decision_matches_monte_carlo_sign(self):
        rng = np.random.default_rng(57)
        checked = disagreements = 0
        for _ in range(40):
            pop, grp, sigma_full, u, c = random_gaussian_population(rng, q=int(rng.integers(1, 4)))
            s, z = gaussian_draws(sigma_full, 40_000, seed=int(rng.integers(1 << 30)))
            group = np.column_stack([s, z]) @ u > c
            est = estimate_group_losses(pop, s[group], z[group])
            if abs(est.difference) <= 3 * est.stderr_difference:
                continue
            checked += 1
            if group_prefers_core(pop, grp) != (est.difference >= 0):
                disagreements += 1
        assert checked >= 10
        assert disagreements == 0
