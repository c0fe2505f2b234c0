"""Worked scenarios: exact table reproductions and seeded simulations.

* reference_tables: the four small worked regression setups, every printed
  quantity recomputed through the estimators and compared to its reference
  value.
* example1: identity design, all-ones target, a random binary extra feature
  per point; closed-form expectations of the extra-feature weight and the
  per-coordinate estimate versus Monte-Carlo, plus per-group losses.
* example2: identity design with two random binary extra features; compares
  the model that uses both against the model that drops one.
* ovb-simple: the Bernoulli/Gaussian missing-information example with the
  mixed group that prefers dropping the extra feature.

The identity-design examples never fit one trial at a time: their trials
share one design and one target, so each fit is a stacked call of
estimators.fit_min_norm_stack over many trials' spurious columns.

Every simulation takes plain parameters and a seed, draws its own samples
from default_rng(seed) and hands arrays to the estimators, so it is
deterministic given (parameters, seed). Sizes are bounded by
MAX_IDENTITY_DIM and MAX_DRAWS; past them a simulation raises ValueError
before it draws.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .estimators import (
    GroundTruth,
    LabeledData,
    fit_core,
    fit_full,
    fit_min_norm_stack,
    fit_multi,
    implicit_weights,
    predict,
)
from .exceptions import VerificationError
from .minnorm import DesignMatrix
from .ovb import (
    GroupMoments,
    OvbPopulation,
    _mean_stderr,
    estimate_group_losses,
    group_prefers_core,
)

# Slack added to the 3-sigma closed-form/Monte-Carlo agreement check so that
# zero-variance (deterministic) quantities only need float-level equality.
_THREE_SIGMA_ABS = 1e-12
# Trials per stacked fit when example1 verifies its closed-form weights: the
# stack's temporaries stay a few MB however many trials are drawn.
_VERIFY_BLOCK = 2048
# Largest gap between a recomputed table entry and its printed value.
TABLES_TOL = 1e-9
# Largest n of the identity-design examples, which build the n x n design and
# factor it, and most random values one simulation may draw: trials x n
# for example1, trials x 2n for example2, trials x 2 for ovb-simple. Time and
# memory grow with the draws. At the bounds, on a 2-vCPU Xeon, a process peaks
# at 309 MB in 1.9 s (example1, n = 1), 344 MB in 1.5 s (example2, n = 2),
# 141 MB in 0.2 s (ovb-simple) and at most 240 MB in 1.3 s at n = 1024. An
# unbounded size ends in numpy's MemoryError instead of an input error.
MAX_IDENTITY_DIM = 1_024
MAX_DRAWS = 5_000_000


@dataclass(frozen=True)
class Quantity:
    """One reported number: optional closed form, Monte-Carlo mean, stderr."""

    closed_form: float | None
    monte_carlo: float
    stderr: float


@dataclass(frozen=True)
class ScenarioReport:
    """Named collection of quantities (plus optional boolean verdicts)."""

    name: str
    quantities: dict[str, Quantity]
    verdicts: dict[str, bool] = field(default_factory=dict)
    seed: int | None = None
    params: dict = field(default_factory=dict)

    def three_sigma_violations(self) -> list[str]:
        """Labels whose closed form strays beyond 3 stderr of the Monte-Carlo mean."""
        bad = []
        for label, q in self.quantities.items():
            if q.closed_form is None:
                continue
            if abs(q.closed_form - q.monte_carlo) > 3.0 * q.stderr + _THREE_SIGMA_ABS:
                bad.append(label)
        return bad

    def max_closed_form_gap(self) -> float:
        gaps = [
            abs(q.closed_form - q.monte_carlo)
            for q in self.quantities.values()
            if q.closed_form is not None
        ]
        return max(gaps, default=0.0)


def _check_sizes(trials: int, per_trial: int, n: int = 0) -> None:
    """ValueError unless n <= MAX_IDENTITY_DIM, trials >= 1 and trials * per_trial <= MAX_DRAWS."""
    if n > MAX_IDENTITY_DIM:
        raise ValueError(f"n must be at most {MAX_IDENTITY_DIM}, got {n}")
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    if trials * per_trial > MAX_DRAWS:
        raise ValueError(f"trials x {per_trial} draws per trial must be at most {MAX_DRAWS}, got {trials * per_trial}")


def example1_closed_form(n: int, p: float) -> tuple[float, float]:
    """Expected extra-feature weight and per-coordinate estimate.

    With u ~ Binomial(n, p) counting the points carrying the extra feature,
    the fitted weight is u/(1+u), so
        E[w]       = 1 - (1 - (1-p)^(n+1)) / ((n+1) p)
        E[theta_i] = 1 - p + E[w]/n
    (at p = 0 the analytic limits are 0 and 1).
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"p must be in [0, 1], got {p}")
    if p == 0.0:
        return 0.0, 1.0
    e_w = 1.0 - (1.0 - (1.0 - p) ** (n + 1)) / ((n + 1) * p)
    e_theta = 1.0 - p + e_w / n
    return e_w, e_theta


def example1_simulate(n: int, p: float, trials: int, seed: int = 0) -> ScenarioReport:
    """Simulate the identity-design example with n points (= n features) and
    extra-feature probability p.

    Each trial draws the binary extra-feature vector, takes the weight
    u/(1+u) of the model that uses it, then evaluates the expected squared
    loss over the n coordinate points with freshly drawn extra-feature
    values, overall and conditioned on the test point's feature value. Every
    trial's weight is compared (to 1e-10) with the generic fitter's, run as
    stacked fits of _VERIFY_BLOCK trials each.
    """
    cf_w, cf_theta = example1_closed_form(n, p)
    _check_sizes(trials, n, n)
    rng = np.random.default_rng(seed)
    s = rng.random((trials, n)) < p
    u = s.sum(axis=1).astype(float)
    w = u / (1.0 + u)
    # Test point i predicts 1 + w (s_test - s_train[i]); conditioning on the
    # test value makes the per-trial conditional losses exact.
    loss_s1 = w**2 * (n - u) / n
    loss_s0 = w**2 * u / n
    loss_avg = p * loss_s1 + (1.0 - p) * loss_s0
    theta_mean = 1.0 - w * u / n

    design = DesignMatrix(np.eye(n))
    y = np.ones(n)
    for lo in range(0, trials, _VERIFY_BLOCK):
        _, w_fit = fit_min_norm_stack(design, s[lo : lo + _VERIFY_BLOCK, :, None], y)
        bad = np.flatnonzero(np.abs(w_fit[:, 0] - w[lo : lo + _VERIFY_BLOCK]) > 1e-10)
        if bad.size:
            i = lo + int(bad[0])
            raise VerificationError(
                f"direct weight {w[i]} disagrees with fitted weight {w_fit[bad[0], 0]}"
            )

    mc_w, se_w = _mean_stderr(w)
    mc_t, se_t = _mean_stderr(theta_mean)
    mc_l, se_l = _mean_stderr(loss_avg)
    mc_l0, se_l0 = _mean_stderr(loss_s0)
    mc_l1, se_l1 = _mean_stderr(loss_s1)
    return ScenarioReport(
        name="example1",
        quantities={
            "E_w": Quantity(cf_w, mc_w, se_w),
            "E_theta_i": Quantity(cf_theta, mc_t, se_t),
            "E_loss": Quantity(None, mc_l, se_l),
            "E_loss_s0": Quantity(None, mc_l0, se_l0),
            "E_loss_s1": Quantity(None, mc_l1, se_l1),
        },
        seed=seed,
        params={"n": n, "p": p, "trials": trials},
    )


def example2_simulate(
    n: int, p_s: float, trials: int, seed: int = 0, force_t_zero: bool = False
) -> ScenarioReport:
    """Identity design with two binary extra features.

    Feature s appears with probability p_s, feature t with probability 1/2.
    All trials' features come from one draw of shape (trials, 2, n), or
    (trials, n) for s alone, the same stream as drawing s then t per trial.
    The with-s model is fit on both columns and the without-s model on the
    t column only, each as one stacked fit over all trials; losses are
    evaluated over the n coordinate points with fresh test draws, grouped by
    the test point's s value.
    force_t_zero pins t to zero (testing hook: the with-s model then reduces
    to the example1 model).
    """
    if n < 2:
        raise ValueError(f"n must be >= 2, got {n}")
    if not 0.0 <= p_s <= 1.0:
        raise ValueError(f"p_s must be in [0, 1], got {p_s}")
    _check_sizes(trials, 2 * n, n)
    rng = np.random.default_rng(seed)
    cols = np.zeros((trials, 2, n))
    if force_t_zero:
        np.less(rng.random((trials, n)), p_s, out=cols[:, 0])
    else:
        np.less(rng.random((trials, 2, n)), [[p_s], [0.5]], out=cols)
    s, t = cols[:, 0], cols[:, 1]
    design = DesignMatrix(np.eye(n))
    y = np.ones(n)
    _, w_with = fit_min_norm_stack(design, cols.transpose(0, 2, 1), y)
    _, w_without = fit_min_norm_stack(design, t[:, :, None], y)
    w_s, w_t = w_with[:, :1], w_with[:, 1:]

    def cond_err(v: float) -> np.ndarray:
        # residual on point i at test draw (v, t'): w_s(s_i - v) + w_t(t_i - t')
        base = w_s * (s - v)
        return np.mean(((base + w_t * t) ** 2 + (base + w_t * (t - 1.0)) ** 2) / 2.0, axis=1)

    e0, e1 = cond_err(0.0), cond_err(1.0)
    e_wo = w_without[:, 0] ** 2 / 2.0
    cols = {
        "w_s_with": w_s[:, 0], "w_t_with": w_t[:, 0], "w_t_without": w_without[:, 0],
        "err_with": p_s * e1 + (1.0 - p_s) * e0, "err_with_s0": e0, "err_with_s1": e1,
        "err_without": e_wo, "err_without_s0": e_wo, "err_without_s1": e_wo,
    }
    quantities = {label: Quantity(None, *_mean_stderr(values)) for label, values in cols.items()}
    return ScenarioReport(
        name="example2",
        quantities=quantities,
        seed=seed,
        params={"n": n, "p_s": p_s, "trials": trials, "force_t_zero": force_t_zero},
    )


def _table_entries(label: str, computed, expected: list[float]) -> dict[str, Quantity]:
    """One quantity per entry of `computed`; VerificationError unless each is within TABLES_TOL of `expected`."""
    comp = np.atleast_1d(np.asarray(computed, dtype=float))
    exp = np.asarray(expected, dtype=float)
    if comp.shape != exp.shape:
        raise VerificationError(f"table reproduction failed: {label} has shape {comp.shape}, expected {exp.shape}")
    gap = float(np.max(np.abs(comp - exp)))
    if not gap <= TABLES_TOL:
        raise VerificationError(f"table reproduction failed: {label} is off by {gap:.3e} (tolerance {TABLES_TOL})")
    if comp.shape == (1,):
        return {label: Quantity(float(exp[0]), float(comp[0]), 0.0)}
    return {f"{label}[{i}]": Quantity(float(e), float(c), 0.0) for i, (e, c) in enumerate(zip(exp, comp))}


def _table_data(rows, theta, *betas) -> LabeledData:
    """Training data on the design `rows`, generated from theta* and beta*_1..beta*_k."""
    return LabeledData.from_truth(DesignMatrix(rows), GroundTruth(theta_star=theta, beta_stars=betas))


def _model_entries(tag, model, truth, theta, w=None, implicit=None) -> dict[str, Quantity]:
    """A fitted model's theta entries, then its w and implicit-weight entries where given."""
    q = _table_entries(f"{tag}.theta", model.theta_hat, theta)
    if w is not None:
        q.update(_table_entries(f"{tag}.w", model.w_hat, w))
    if implicit is not None:
        q.update(_table_entries(f"{tag}.implicit", implicit_weights(model, truth), implicit))
    return q


def reference_tables() -> ScenarioReport:
    """Recompute every printed value of the four worked regression tables.

    Each quantity stores the reference value as closed_form and the
    recomputed value as monte_carlo (stderr 0). Raises VerificationError
    ("table reproduction failed: ...") when an entry's shape differs from its
    reference or its value is not within TABLES_TOL of it, so a returned
    report reproduces every table.
    """
    q: dict[str, Quantity] = {}

    # Table 1: one training row [1, 0]; implicit second weight is alpha.
    for alpha in (0.0, 1.0, 2.0):
        data = _table_data([[1.0, 0.0]], [2.0, 2.0], [1.0, alpha])
        tag = f"table1[alpha={alpha:g}]"
        q.update(_model_entries(f"{tag}.core", fit_core(data), data.truth, [2.0, 0.0]))
        q.update(_model_entries(f"{tag}.full", fit_full(data), data.truth, [1.0, 0.0], [1.0], [2.0, alpha]))

    # Table 2: one training row in three dimensions.
    data = _table_data([[1.0, 0.0, 0.0]], [2.0, 2.0, 2.0], [1.0, 2.0, -2.0])
    q.update(_model_entries("table2.core", fit_core(data), data.truth, [2.0, 0.0, 0.0]))
    q.update(_model_entries("table2.full", fit_full(data), data.truth, [1.0, 0.0, 0.0], [1.0], [2.0, 2.0, -2.0]))

    # Table 3: identical (s, y) at train and test, predictions on two test points.
    data = _table_data([[1.0, 0.0, 0.0, 0.0], [0.0, 1.0, 0.0, 0.0]], [1.0, 0.0, 1.0, 0.0], [1.0, 1.0, -1.0, -1.0])
    core, full = fit_core(data), fit_full(data)
    q.update(_model_entries("table3.core", core, data.truth, [1.0, 0.0, 0.0, 0.0]))
    q.update(_model_entries("table3.full", full, data.truth, [2 / 3, -1 / 3, 0.0, 0.0], [1 / 3]))
    for j, z in enumerate(([0.0, 2.0, 1.0, 0.0], [0.0, 2.0, 0.0, 1.0])):
        q.update(_table_entries(f"table3.pred{j}.core", predict(core, z), [0.0]))
        q.update(_table_entries(f"table3.pred{j}.full", predict(full, z, [1.0]), [-1 / 3]))

    # Table 4: two extra features; dropping one raises the weight on the other.
    data = _table_data([[1.0, 0.0, 0.0]], [2.0, 2.0, 2.0], [1.0, -3.0, 0.0], [1.0, 0.0, -3.0])
    both = fit_multi(data)
    q.update(_model_entries("table4.both", both, data.truth, [2 / 3, 0.0, 0.0], [2 / 3, 2 / 3], [2.0, -2.0, -2.0]))
    data = _table_data([[1.0, 0.0, 0.0]], [2.0, 2.0, 2.0], [1.0, -3.0, 0.0])
    q.update(_model_entries("table4.only_s1", fit_full(data), data.truth, [1.0, 0.0, 0.0], [1.0], [2.0, -3.0, 0.0]))
    return ScenarioReport(name="tables", quantities=q)


def _phi(x: float) -> float:
    return math.exp(-0.5 * x * x) / math.sqrt(2.0 * math.pi)


def _ncdf(x: float) -> float:
    return 0.5 * (1.0 + math.erf(x / math.sqrt(2.0)))


def ovb_simple_moments(
    sigma: float = 1.0, threshold: float = 1.5
) -> tuple[GroupMoments, dict[str, float]]:
    """Closed-form in-group moments for the Bernoulli/Gaussian example.

    The extra feature s is Bernoulli(1/2), the unobserved covariate is
    x ~ N(s, sigma^2), and the group collects the points that defy the
    correlation: {s=0, x > threshold} union {s=1, x < threshold}. Moments
    are of the population-centered variables and come from truncated-normal
    identities. Raises ValueError when either branch has no probability mass
    in double precision (a threshold many sigmas out).
    """
    c0 = threshold / sigma
    c1 = (threshold - 1.0) / sigma
    tail0, head1 = 1.0 - _ncdf(c0), _ncdf(c1)
    if not (tail0 > 0.0 and head1 > 0.0):
        raise ValueError(
            f"threshold {threshold} and sigma {sigma} leave a branch of the group "
            "with no probability mass in double precision"
        )
    p0 = 0.5 * tail0
    p1 = 0.5 * head1
    prob = p0 + p1
    # Branch s=0: x ~ N(0, sigma^2) truncated to x > threshold.
    m0 = sigma * _phi(c0) / tail0
    m0_sq = sigma * sigma * (1.0 + c0 * _phi(c0) / tail0)
    # Branch s=1: x = 1 + sigma * eps with eps truncated to eps < c1.
    r1 = _phi(c1) / head1
    e_eps = -r1
    e_eps_sq = 1.0 - c1 * _phi(c1) / head1
    w0, w1 = p0 / prob, p1 / prob
    zc0 = m0 - 0.5
    zc1 = 0.5 + sigma * e_eps
    e_sz = w0 * (-0.5) * zc0 + w1 * 0.5 * zc1
    e_z2 = w0 * (m0_sq - m0 + 0.25) + w1 * (0.25 + sigma * e_eps + sigma * sigma * e_eps_sq)
    grp = GroupMoments(sigma_ss_g=0.25, sigma_sz_g=np.array([e_sz]))
    extras = {"group_prob": prob, "E_sz_g": e_sz, "E_z2_g": e_z2, "E_s2_g": 0.25}
    return grp, extras


def ovb_simple_scenario(
    trials: int = 100_000,
    seed: int = 0,
    sigma: float = 1.0,
    gamma: float = 1.0,
    threshold: float = 1.5,
) -> ScenarioReport:
    """Run the Bernoulli/Gaussian example end to end.

    Builds the population, evaluates the closed-form decision rule on the
    mixed group, and cross-checks both group losses by Monte-Carlo on the
    group members among `trials` draws of (s, x).
    """
    _check_sizes(trials, 2)
    if not (math.isfinite(sigma) and sigma > 0):
        raise ValueError(f"sigma must be positive and finite, got {sigma}")
    pop = OvbPopulation(
        gamma=np.array([gamma]),
        beta_s=1.0,
        sigma_ss=0.25,
        sigma_sz=np.array([0.25]),
        mean_s=0.5,
        mean_z=np.array([0.5]),
    )
    grp, extras = ovb_simple_moments(sigma=sigma, threshold=threshold)
    prefers = group_prefers_core(pop, grp)

    rng = np.random.default_rng(seed)
    s = (rng.random(trials) < 0.5).astype(float)
    with np.errstate(over="ignore"):
        x = s + sigma * rng.standard_normal(trials)
    group = ((s == 0.0) & (x > threshold)) | ((s == 1.0) & (x < threshold))
    est = estimate_group_losses(pop, s[group], x[group])
    lam = float(pop.lam[0])
    lam_g = float(grp.lam_g[0])
    # Closed-form losses from the in-group second moments.
    cf_with = gamma * gamma * (extras["E_z2_g"] - 2.0 * lam * extras["E_sz_g"] + lam * lam * 0.25)
    cf_without = gamma * gamma * extras["E_z2_g"] + 2.0 * gamma * pop.beta_s * extras["E_sz_g"] + pop.beta_s**2 * 0.25
    return ScenarioReport(
        name="ovb-simple",
        quantities={
            "loss_with_s": Quantity(cf_with, est.loss_with_s, est.stderr_with_s),
            "loss_without_s": Quantity(cf_without, est.loss_without_s, est.stderr_without_s),
            "loss_difference": Quantity(cf_with - cf_without, est.difference, est.stderr_difference),
            "lambda_pop": Quantity(lam, lam, 0.0),
            "lambda_group": Quantity(lam_g, lam_g, 0.0),
            "group_prob": Quantity(extras["group_prob"], est.n_group / trials,
                                   math.sqrt(extras["group_prob"] * (1 - extras["group_prob"]) / trials)),
        },
        verdicts={"group_prefers_core": prefers},
        seed=seed,
        params={"trials": trials, "sigma": sigma, "gamma": gamma, "threshold": threshold},
    )
