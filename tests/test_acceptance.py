"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion lines.
"""

import json
import math
import time
from contextlib import contextmanager

import numpy as np
import pytest

from spurious_lens import (
    DesignMatrix,
    GroundTruth,
    GroupMoments,
    LabeledData,
    OvbPopulation,
    RobustSpec,
    TestDistribution,
    UnlabeledData,
    construct_balanced,
    construct_disjoint,
    estimate_group_losses,
    example1_closed_form,
    example1_simulate,
    fit_core,
    fit_full,
    fit_multi,
    fit_rst,
    group_prefers_core,
    intersection_projection,
    min_norm_solve,
    reference_tables,
    population_error,
    projection,
    removal_verdict,
    robust_error,
    row_space_projection,
)
from spurious_lens.cli import main
from spurious_lens.scenarios import ovb_simple_moments


@contextmanager
def criterion(num, description):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {num:2d} FAIL  {description}")
        raise
    print(f"ACCEPTANCE {num:2d} PASS  {description}")


def test_criterion_1_table_reproduction():
    with criterion(1, "tables scenario reproduces every printed value within 1e-9 in < 1 s"):
        start = time.monotonic()
        report = reference_tables()
        elapsed = time.monotonic() - start
        assert report.max_closed_form_gap() < 1e-9
        # every expected quantity group is present
        labels = set(report.quantities)
        for needed in (
            "table1[alpha=0].full.implicit[1]",
            "table1[alpha=1].full.implicit[1]",
            "table1[alpha=2].full.implicit[1]",
            "table2.full.implicit[2]",
            "table3.pred0.core",
            "table3.pred1.full",
            "table4.both.w[1]",
            "table4.only_s1.implicit[1]",
        ):
            assert needed in labels
        assert elapsed < 1.0


def test_criterion_2_oracle_equivalence():
    with criterion(2, "500 random instances: closed-form fits match the min-norm oracle (1e-8)"):
        start = time.monotonic()
        rng = np.random.default_rng(2024)
        for _ in range(500):
            d = int(rng.integers(3, 41))
            n = int(rng.integers(1, d))
            k = int(rng.integers(1, 4))
            z = rng.standard_normal((n, d))
            truth = GroundTruth(
                rng.standard_normal(d), tuple(rng.standard_normal(d) for _ in range(k))
            )
            data = LabeledData.from_truth(DesignMatrix(z), truth)
            core_oracle = min_norm_solve(z, data.Y)
            np.testing.assert_allclose(fit_core(data).theta_hat, core_oracle.x, atol=1e-8)
            oracle = min_norm_solve(np.hstack([z, data.S]), data.Y)
            model = fit_multi(data)
            np.testing.assert_allclose(model.theta_hat, oracle.x[:d], atol=1e-8)
            np.testing.assert_allclose(model.w_hat, oracle.x[d:], atol=1e-8)
            if k == 1:
                full = fit_full(data)
                np.testing.assert_allclose(full.theta_hat, oracle.x[:d], atol=1e-8)
                np.testing.assert_allclose(full.w_hat, oracle.x[d:], atol=1e-8)
        assert time.monotonic() - start < 30.0


def test_criterion_3_removal_verdict_consistency():
    with criterion(3, "1000 random instances: verdict equals the sign of the error gap"):
        rng = np.random.default_rng(3033)
        disagreements = 0
        decided = 0
        for _ in range(1000):
            d = int(rng.integers(3, 13))
            n = int(rng.integers(1, d))
            truth = GroundTruth(rng.standard_normal(d), (rng.standard_normal(d),))
            pi = projection(DesignMatrix(rng.standard_normal((n, d))))
            a = rng.standard_normal((d, d))
            v = removal_verdict(truth, pi, TestDistribution(a @ a.T))
            gap = v.error_core - v.error_full
            if abs(gap) > 1e-9:
                decided += 1
                if v.full_better != (gap > 0):
                    disagreements += 1
        assert decided > 800  # the generator must actually exercise the rule
        assert disagreements == 0


def test_criterion_4_corollary_constructions():
    with criterion(4, "100 random disjoint + 100 random balanced bundles verify"):
        rng = np.random.default_rng(4044)
        for _ in range(100):
            d = int(rng.integers(4, 14))
            n = int(rng.integers(1, d - 1))
            bundle = construct_disjoint(rng.standard_normal(d), rng.standard_normal(d), n=n)
            v1, v2 = bundle.verdict_full_wins, bundle.verdict_core_wins
            assert v1.full_better and not v2.full_better
            assert v1.error_core - v1.error_full > 1e-9
            assert v2.error_full - v2.error_core > 1e-9
        for _ in range(100):
            n = int(rng.integers(2, 7))
            d = int(rng.integers(4, 11))
            s = rng.standard_normal(n)
            y = rng.standard_normal(n)
            bundle = construct_balanced(s, y, d=d)
            v1, v2 = bundle.verdict_full_wins, bundle.verdict_core_wins
            assert v1.full_better and not v2.full_better
            assert v1.error_core - v1.error_full > 1e-9
            assert v2.error_full - v2.error_core > 1e-9
            theta, beta = bundle.truth.theta_star, bundle.truth.beta_stars[0]
            for design in (bundle.Z_train, bundle.Z_test_full_wins, bundle.Z_test_core_wins):
                np.testing.assert_allclose(design.entries @ theta, y, atol=1e-8)
                np.testing.assert_allclose(design.entries @ beta, s, atol=1e-8)


def test_criterion_5_parallel_case_guarantees():
    with criterion(5, "200 collinear-parameter and 200 proportional-target instances: full <= core"):
        rng = np.random.default_rng(5055)
        for _ in range(200):
            d = int(rng.integers(4, 12))
            n = int(rng.integers(1, d))
            theta = rng.standard_normal(d)
            c = float(rng.normal()) or 0.9
            truth = GroundTruth(theta, (c * theta,))
            pi = projection(DesignMatrix(rng.standard_normal((n, d))))
            a = rng.standard_normal((d, d))
            v = removal_verdict(truth, pi, TestDistribution(a @ a.T))
            assert v.error_full <= v.error_core + 1e-9
        for _ in range(200):
            d = int(rng.integers(4, 12))
            n = int(rng.integers(1, d))
            z = rng.standard_normal((n, d))
            pi = projection(DesignMatrix(z))
            beta = rng.standard_normal(d)
            c = float(rng.normal()) or 1.1
            theta = c * beta + (np.eye(d) - pi.matrix) @ rng.standard_normal(d)
            truth = GroundTruth(theta, (beta,))
            data = LabeledData.from_truth(DesignMatrix(z), truth)
            assert np.allclose(data.Y, c * data.S[:, 0], atol=1e-8)
            # test moments that preserve the same observed (S, Y)
            basis = np.linalg.svd(np.vstack([theta, beta]))[2][2:]
            z_test = z + rng.standard_normal((n, d - 2)) @ basis
            dist = TestDistribution(z_test.T @ z_test / n)
            err_full = population_error(fit_full(data), truth, dist, pi)
            err_core = population_error(fit_core(data), truth, dist, pi)
            assert err_full <= err_core + 1e-9


def test_criterion_6_robust_error_dominance():
    with criterion(6, "200 random instances: robust error of core <= full on shared samples"):
        rng = np.random.default_rng(6066)
        for i in range(200):
            d = int(rng.integers(2, 8))
            n = int(rng.integers(1, d))
            truth = GroundTruth(rng.standard_normal(d), (rng.standard_normal(d),))
            data = LabeledData.from_truth(DesignMatrix(rng.standard_normal((n, d))), truth)
            a = rng.standard_normal((d, d)) / math.sqrt(d)
            dist = TestDistribution(a @ a.T)
            gamma = 3.0 * math.sqrt(np.trace(dist.sigma)) + 1.0
            spec = RobustSpec(gamma=gamma, norm_kind="l2")
            seed = int(rng.integers(1 << 30))
            r_core = robust_error(fit_core(data), truth, dist, spec, samples=300, seed=seed)
            r_full = robust_error(fit_full(data), truth, dist, spec, samples=300, seed=seed)
            assert r_core <= r_full + 1e-9


def test_criterion_7_self_training_equivalence():
    with criterion(7, "100 random instances: RST predictions match the full model (1e-8)"):
        rng = np.random.default_rng(7077)
        for _ in range(100):
            d = int(rng.integers(3, 11))
            n = int(rng.integers(1, d))
            m = int(rng.integers(d + 1, d + 9))
            truth = GroundTruth(rng.standard_normal(d), (rng.standard_normal(d),))
            data = LabeledData.from_truth(DesignMatrix(rng.standard_normal((n, d))), truth)
            full = fit_full(data)
            zu = rng.standard_normal((m, d))
            rst = fit_rst(data, UnlabeledData(Zu=zu, Su=zu @ truth.beta_stars[0]), full)
            pi = projection(data.Z).matrix
            w = float(full.w_hat[0])
            closed = pi @ truth.theta_star + w * (np.eye(d) - pi) @ truth.beta_stars[0]
            np.testing.assert_allclose(rst.theta_hat, closed, atol=1e-8)
            zs = rng.standard_normal((100, d))
            svals = zs @ truth.beta_stars[0]
            gap = np.abs(zs @ rst.theta_hat - (zs @ full.theta_hat + w * svals))
            assert float(np.max(gap)) < 1e-8


def test_criterion_8_example1_closed_forms():
    with criterion(8, "example1 closed forms match 1e5-trial Monte-Carlo at 3 sigma; exact at p=0,1"):
        for n in (1, 5, 20):
            assert example1_closed_form(n, 1.0)[0] == n / (n + 1)
        assert example1_closed_form(20, 0.0) == (0.0, 1.0)
        for p in (0.5, 0.9, 0.99):
            report = example1_simulate(n=20, p=p, trials=100_000, seed=88)
            for label in ("E_w", "E_theta_i"):
                q = report.quantities[label]
                assert abs(q.closed_form - q.monte_carlo) <= 3 * q.stderr


def test_criterion_9_ovb_decision_rule():
    with criterion(9, "200 Gaussian populations: decision rule matches Monte-Carlo at 3 sigma"):
        rng = np.random.default_rng(9099)
        decided = disagreements = 0
        for _ in range(200):
            q = int(rng.integers(1, 5))
            a = rng.standard_normal((1 + q, 1 + q))
            sigma_full = a @ a.T + 0.5 * np.eye(1 + q)
            u = rng.standard_normal(1 + q)
            u = u / math.sqrt(u @ sigma_full @ u)
            c = float(rng.uniform(-1.0, 1.0))
            # conditional second moment given the half-space group u'x > c
            phi = math.exp(-0.5 * c * c) / math.sqrt(2 * math.pi)
            tail = 0.5 * math.erfc(c / math.sqrt(2))
            su = sigma_full @ u
            cond = sigma_full + np.outer(su, su) * (c * phi / tail)
            gamma = rng.standard_normal(q)
            beta = float(rng.normal())
            lam = sigma_full[0, 1:] / sigma_full[0, 0]
            if lam @ gamma + beta <= 0:
                gamma, beta = -gamma, -beta
            pop = OvbPopulation(
                gamma=gamma, beta_s=beta, sigma_ss=sigma_full[0, 0], sigma_sz=sigma_full[0, 1:]
            )
            grp = GroupMoments(sigma_ss_g=cond[0, 0], sigma_sz_g=cond[0, 1:])
            draws = np.random.default_rng(int(rng.integers(1 << 30))).standard_normal((30_000, 1 + q))
            x = draws @ np.linalg.cholesky(sigma_full).T
            group = x @ u > c
            est = estimate_group_losses(pop, x[group, 0], x[group, 1:])
            if abs(est.difference) <= 3 * est.stderr_difference:
                continue
            decided += 1
            if group_prefers_core(pop, grp) != (est.difference >= 0):
                disagreements += 1
        assert decided >= 100
        assert disagreements == 0
        # the mixed Bernoulli/Gaussian group prefers dropping the feature
        pop = OvbPopulation(
            gamma=np.array([1.0]), beta_s=1.0, sigma_ss=0.25, sigma_sz=np.array([0.25]),
            mean_s=0.5, mean_z=np.array([0.5]),
        )
        grp, _ = ovb_simple_moments()
        assert group_prefers_core(pop, grp)


def test_criterion_10_property_suites(tmp_path, capsys):
    with criterion(10, "property suites: projections, interpolation, norms, intersection, CLI"):
        rng = np.random.default_rng(1010)
        # projection symmetry/idempotence and fit properties
        for _ in range(50):
            d = int(rng.integers(2, 30))
            n = int(rng.integers(1, d))
            pi = projection(DesignMatrix(rng.standard_normal((n, d))))
            assert np.max(np.abs(pi.matrix - pi.matrix.T)) < 1e-10
            assert np.max(np.abs(pi.matrix @ pi.matrix - pi.matrix)) < 1e-9
            truth = GroundTruth(
                rng.standard_normal(d), tuple(rng.standard_normal(d) for _ in range(2))
            )
            data = LabeledData.from_truth(DesignMatrix(rng.standard_normal((n, d))), truth)
            model = fit_multi(data)
            pred = data.Z.entries @ model.theta_hat + data.S @ model.w_hat
            assert np.linalg.norm(pred - data.Y) <= 1e-8 * max(1.0, np.linalg.norm(data.Y))
            assert model.squared_norm <= fit_core(data).squared_norm + 1e-10
        # intersection projector against the null-space basis oracle
        for _ in range(25):
            d = int(rng.integers(4, 10))
            q1, _ = np.linalg.qr(rng.standard_normal((d, int(rng.integers(1, d)))))
            q2, _ = np.linalg.qr(rng.standard_normal((d, int(rng.integers(1, d)))))
            p1 = row_space_projection(q1.T)
            p2 = row_space_projection(q2.T)
            out = intersection_projection(p1, p2)
            stacked = np.vstack([np.eye(d) - p1.matrix, np.eye(d) - p2.matrix])
            _, svals, vt = np.linalg.svd(stacked)
            null = vt[np.concatenate([svals, np.zeros(max(0, d - svals.size))]) < 1e-10]
            oracle = null.T @ null
            np.testing.assert_allclose(out.matrix, oracle, atol=1e-7)
        # CLI determinism and the exit-code contract
        inst = tmp_path / "inst.json"
        inst.write_text(json.dumps({
            "ground_truth": {"theta_star": [2.0, 2.0, 2.0], "beta_stars": [[1.0, 2.0, -2.0]]},
            "train": {"Z": [[1.0, 0.0, 0.0]]},
            "groups": [{"label": "g", "sigma": {"diag": [0.3, 0.5, 0.2]}}],
        }))
        argv = ["analyze", "--instance", str(inst), "--seed", "5"]
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert main(argv) == 0
        assert capsys.readouterr().out == first

        assert main(["simulate", "--scenario", "tables"]) == 0
        capsys.readouterr()
        bad = tmp_path / "bad.json"
        bad.write_text("{")
        assert main(["fit", "--instance", str(bad)]) == 2
        rank_deficient = tmp_path / "rank.json"
        rank_deficient.write_text(
            json.dumps({"train": {"Z": [[1.0, 0.0], [1.0, 0.0]], "S": [1.0, 1.0], "Y": [1.0, 2.0]}})
        )
        assert main(["fit", "--instance", str(rank_deficient), "--model", "core"]) == 3
        parallel = tmp_path / "parallel.json"
        parallel.write_text(json.dumps({"scenario": {"S": [1.0, 2.0], "Y": [2.0, 4.0], "d": 4}}))
        assert main(["construct", "--mode", "balanced", "--instance", str(parallel)]) == 4
        capsys.readouterr()


if __name__ == "__main__":
    pytest.main([__file__, "-s", "-v"])
