"""spurious-lens: closed-form analysis of minimum-norm linear regression
with spurious features.

Fits minimum-norm interpolators with and without spurious feature columns,
decides exactly when removing a spurious feature helps or hurts on a given
test distribution (overall and per group), builds counterexample datasets,
analyzes worst-case perturbation error, recovers spurious-feature-free
models by self-training, and runs omitted-variable-bias group analysis.
"""

from .analysis import (
    RemovalVerdict,
    RobustSpec,
    TestDistribution,
    groupwise_spurious_error,
    groupwise_spurious_fit,
    population_error,
    removal_verdict,
    robust_error,
    robust_errors,
)
from .constructions import CounterexampleBundle, construct_balanced, construct_disjoint
from .estimators import (
    GroundTruth,
    LabeledData,
    LinearModel,
    UnlabeledData,
    fit_core,
    fit_full,
    fit_min_norm_stack,
    fit_multi,
    fit_rst,
    implicit_weights,
    predict,
)
from .minnorm import (
    DesignMatrix,
    MinNormSolution,
    Projection,
    intersection_projection,
    min_norm_solve,
    projection,
    row_space_projection,
)
from .ovb import (
    GroupLossEstimate,
    GroupMoments,
    OvbPopulation,
    estimate_group_losses,
    group_prefers_core,
    ovb_bias,
)
from .scenarios import (
    Quantity,
    ScenarioReport,
    example1_closed_form,
    example1_simulate,
    example2_simulate,
    ovb_simple_scenario,
    reference_tables,
)

__all__ = [
    "CounterexampleBundle",
    "DesignMatrix",
    "GroundTruth",
    "GroupLossEstimate",
    "GroupMoments",
    "LabeledData",
    "LinearModel",
    "MinNormSolution",
    "OvbPopulation",
    "Projection",
    "Quantity",
    "RemovalVerdict",
    "RobustSpec",
    "ScenarioReport",
    "TestDistribution",
    "UnlabeledData",
    "construct_balanced",
    "construct_disjoint",
    "estimate_group_losses",
    "example1_closed_form",
    "example1_simulate",
    "example2_simulate",
    "fit_core",
    "fit_full",
    "fit_min_norm_stack",
    "fit_multi",
    "fit_rst",
    "group_prefers_core",
    "groupwise_spurious_error",
    "groupwise_spurious_fit",
    "implicit_weights",
    "intersection_projection",
    "min_norm_solve",
    "ovb_bias",
    "ovb_simple_scenario",
    "reference_tables",
    "population_error",
    "predict",
    "projection",
    "removal_verdict",
    "robust_error",
    "robust_errors",
    "row_space_projection",
]

__version__ = "0.1.0"
