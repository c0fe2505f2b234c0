import math

import pytest

from spurious_lens import scenarios
from spurious_lens import (
    Example1Spec,
    example1_closed_form,
    example1_simulate,
    example2_simulate,
    ovb_simple_scenario,
    reference_tables,
)
from spurious_lens.cli import main
from spurious_lens.exceptions import VerificationError


def binomial_expectation(n, p, f):
    """Oracle: E[f(u)] for u ~ Binomial(n, p), by exact enumeration."""
    total = 0.0
    for k in range(n + 1):
        total += math.comb(n, k) * p**k * (1 - p) ** (n - k) * f(k)
    return total


@pytest.fixture
def perturbed_third_fit(monkeypatch):
    """Nudge one weight of example1's third stacked fit by 1e-9; yields each fit's trial count."""
    real = scenarios.fit_min_norm_stack
    calls = []

    def perturbed(z, cols, y):
        theta, w = real(z, cols, y)
        calls.append(cols.shape[0])
        if len(calls) == 3:
            w = w.copy()
            w[cols.shape[0] // 2, 0] += 1e-9
        return theta, w

    monkeypatch.setattr(scenarios, "fit_min_norm_stack", perturbed)
    return calls


class TestExample1ClosedForm:
    def test_p_one_deterministic(self):
        for n in (1, 5, 20):
            e_w, e_theta = example1_closed_form(n, 1.0)
            assert e_w == n / (n + 1)
            assert e_theta == pytest.approx(e_w / n, abs=1e-15)

    def test_p_zero_limit(self):
        assert example1_closed_form(7, 0.0) == (0.0, 1.0)

    @pytest.mark.parametrize("n,p", [(20, 0.9), (20, 0.5), (5, 0.3), (3, 0.99)])
    def test_matches_enumeration_oracle(self, n, p):
        e_w, e_theta = example1_closed_form(n, p)
        oracle_w = binomial_expectation(n, p, lambda u: u / (1 + u))
        oracle_theta = 1 - binomial_expectation(n, p, lambda u: u**2 / (1 + u)) / n
        assert e_w == pytest.approx(oracle_w, abs=1e-12)
        assert e_theta == pytest.approx(oracle_theta, abs=1e-12)

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            example1_closed_form(0, 0.5)
        with pytest.raises(ValueError):
            example1_closed_form(5, 1.5)


class TestExample1Simulate:
    def test_deterministic_draw_p_one(self):
        rep = example1_simulate(Example1Spec(n=5, p=1.0, trials=1))
        assert rep.quantities["E_w"].monte_carlo == pytest.approx(5 / 6)
        assert rep.quantities["E_loss_s1"].monte_carlo == 0.0
        assert rep.quantities["E_loss"].monte_carlo == 0.0

    def test_p_zero_all_losses_vanish(self):
        rep = example1_simulate(Example1Spec(n=8, p=0.0, trials=50, seed=1))
        for label in ("E_loss", "E_loss_s0", "E_loss_s1"):
            assert rep.quantities[label].monte_carlo == 0.0
        assert rep.quantities["E_w"].monte_carlo == 0.0
        assert rep.quantities["E_theta_i"].monte_carlo == 1.0

    def test_three_sigma_agreement(self):
        rep = example1_simulate(Example1Spec(n=20, p=0.9, trials=4000, seed=7))
        assert rep.three_sigma_violations() == []

    def test_losses_match_enumeration_oracle(self):
        n, p = 12, 0.7
        rep = example1_simulate(Example1Spec(n=n, p=p, trials=6000, seed=3))
        # conditional losses are deterministic functions of the count u
        expect_s0 = binomial_expectation(n, p, lambda u: (u / (1 + u)) ** 2 * u / n)
        expect_s1 = binomial_expectation(n, p, lambda u: (u / (1 + u)) ** 2 * (n - u) / n)
        for label, expect in (("E_loss_s0", expect_s0), ("E_loss_s1", expect_s1)):
            q = rep.quantities[label]
            assert abs(q.monte_carlo - expect) <= 3 * q.stderr

    def test_group_s0_bears_the_loss_at_high_p(self):
        rep = example1_simulate(Example1Spec(n=20, p=0.9, trials=2000, seed=8))
        assert rep.quantities["E_loss_s0"].monte_carlo > rep.quantities["E_loss_s1"].monte_carlo

    def test_per_trial_weight_matches_generic_fit(self):
        # every run cross-checks every trial against the generic fitter
        example1_simulate(Example1Spec(n=6, p=0.5, trials=300, seed=4))

    def test_verification_catches_one_perturbed_trial(self, perturbed_third_fit):
        # the check compares every trial: nudging one fitted weight (in the
        # last, partial block) by 1e-9 must fail it
        block = scenarios._VERIFY_BLOCK
        with pytest.raises(VerificationError, match="disagrees with fitted weight"):
            example1_simulate(Example1Spec(n=6, p=0.5, trials=2 * block + 100, seed=4))
        assert perturbed_third_fit == [block, block, 100]

    def test_cli_exits_1_on_a_perturbed_trial(self, perturbed_third_fit, capsys):
        trials = 2 * scenarios._VERIFY_BLOCK + 100
        status = main(["simulate", "--scenario", "example1", "--trials", str(trials)])
        err = capsys.readouterr().err
        assert status == 1
        assert err.startswith("verification failed: direct weight")
        assert err.count("\n") == 1

    def test_bit_identical_reports(self):
        a = example1_simulate(Example1Spec(n=10, p=0.6, trials=500, seed=5))
        b = example1_simulate(Example1Spec(n=10, p=0.6, trials=500, seed=5))
        assert a == b

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            Example1Spec(n=0, p=0.5, trials=1)
        with pytest.raises(ValueError):
            Example1Spec(n=5, p=-0.1, trials=1)
        with pytest.raises(ValueError):
            Example1Spec(n=5, p=0.5, trials=0)


class TestExample2Simulate:
    def test_zero_probability_feature_changes_nothing(self):
        rep = example2_simulate(n=10, p_s=0.0, trials=200, seed=6)
        q = rep.quantities
        assert q["w_s_with"].monte_carlo == 0.0
        assert q["w_t_with"].monte_carlo == pytest.approx(q["w_t_without"].monte_carlo, abs=1e-12)
        assert q["err_with"].monte_carlo == pytest.approx(q["err_without"].monte_carlo, abs=1e-12)

    def test_forced_zero_t_reduces_to_example1(self):
        n, p_s, trials, seed = 9, 0.8, 400, 7
        rep = example2_simulate(n=n, p_s=p_s, trials=trials, seed=seed, force_t_zero=True)
        assert rep.quantities["w_t_with"].monte_carlo == 0.0
        # with t pinned to zero the with-s model is the single-feature model:
        # E[w_s] approaches the example1 closed form
        e_w, _ = example1_closed_form(n, p_s)
        q = rep.quantities["w_s_with"]
        assert abs(q.monte_carlo - e_w) <= 4 * q.stderr

    def test_removing_s_shifts_weight_to_t_and_raises_average_error(self):
        rep = example2_simulate(n=20, p_s=0.9, trials=10_000, seed=9)
        q = rep.quantities
        assert q["w_t_without"].monte_carlo > q["w_t_with"].monte_carlo
        assert q["err_without"].monte_carlo > q["err_with"].monte_carlo
        assert q["err_without_s0"].monte_carlo < q["err_with_s0"].monte_carlo
        assert q["err_without_s1"].monte_carlo > q["err_with_s1"].monte_carlo

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            example2_simulate(n=1, p_s=0.5, trials=10)
        with pytest.raises(ValueError):
            example2_simulate(n=5, p_s=2.0, trials=10)


class TestReferenceTables:
    def test_every_value_reproduced(self):
        rep = reference_tables()
        assert rep.max_closed_form_gap() < 1e-9
        assert rep.three_sigma_violations() == []

    # a shape mismatch, a NaN and a gap of 2e-9 each refuse the entry
    @pytest.mark.parametrize("computed,expected,message", [
        ([1.0, 2.0], [1.0], "has shape"), ([math.nan], [0.0], "is off by nan"), ([1.0 + 2e-9], [1.0], "is off by"),
    ], ids=["shape", "nan", "gap"])
    def test_entry_mismatch_raises(self, computed, expected, message):
        with pytest.raises(VerificationError, match=f"table reproduction failed: t {message}"):
            scenarios._table_entries("t", computed, expected)

    def test_key_entries_present(self):
        rep = reference_tables()
        q = rep.quantities
        assert q["table1[alpha=2].full.implicit[1]"].closed_form == 2.0
        assert q["table2.full.w"].monte_carlo == pytest.approx(1.0)
        assert q["table3.full.w"].monte_carlo == pytest.approx(1 / 3)
        assert q["table3.pred0.full"].monte_carlo == pytest.approx(-1 / 3)
        assert q["table4.both.w[0]"].monte_carlo == pytest.approx(2 / 3)
        assert q["table4.only_s1.w"].monte_carlo == pytest.approx(1.0)


class TestScenarioReport:
    def test_three_sigma_violations(self):
        rep = scenarios.ScenarioReport(name="r", quantities={
            "near": scenarios.Quantity(1.0, 1.25, 0.1),
            "far": scenarios.Quantity(1.0, 1.35, 0.1),
            "mc_only": scenarios.Quantity(None, 9.0, 0.0),
        })
        assert rep.three_sigma_violations() == ["far"]
        assert rep.max_closed_form_gap() == pytest.approx(0.35)


class TestOvbSimpleScenario:
    def test_runs_and_prefers_core(self):
        rep = ovb_simple_scenario(trials=30_000, seed=2)
        assert rep.verdicts["group_prefers_core"]
        assert rep.three_sigma_violations() == []

    def test_seed_determinism(self):
        a = ovb_simple_scenario(trials=5000, seed=11)
        b = ovb_simple_scenario(trials=5000, seed=11)
        assert a == b

    def test_invalid_trials(self):
        with pytest.raises(ValueError):
            ovb_simple_scenario(trials=0)
