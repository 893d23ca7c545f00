"""Interacting-particle numerics for SDEs whose coefficients see their own law.

The package splits along the lifecycle of an experiment: ``model`` declares
coefficients, domains and measure functionals; ``simulate`` runs the
localized Euler scheme on particle clouds; ``measure`` evaluates empirical
functionals and transport distances; ``lyapunov`` certifies drift
inequalities and moment envelopes; ``lions`` differentiates functions of
measures and tests chain-rule residuals; ``analysis`` runs the contraction,
probe and occupation-measure experiments; ``scenarios`` ships ready-made
model/Lyapunov bundles; ``cli`` drives everything from flat-text configs.
"""

from .analysis import (
    OccupationMeasure,
    StabilityReport,
    scheutzow_probe,
    stability_experiment,
    stationary_estimate,
)
from .lions import (
    MeasureFunction,
    REGISTRY,
    check_structure,
    ito_residual_full,
    ito_residual_measure,
    lift_gradient,
    mean_square_function,
    moment_function,
    registry_function,
)
from .lyapunov import (
    CheckReport,
    CheckRow,
    LyapunovSpec,
    MeasureKernelFactor,
    Rate,
    check_floor,
    check_local_bound,
    check_lyapunov_condition,
    envelope_M,
    envelope_Mplus,
    exit_probability_bound,
    generator_values,
)
from .measure import (
    SemiWassersteinResult,
    VBarKernel,
    evaluate_functionals,
    expected_shortfall,
    moment,
    quantile,
    semi_wasserstein_vbar,
    vbar_power,
    wasserstein_exact,
    wasserstein_p_1d,
)
from .model import DomainLadder, MeasureFunctionalTag, ModelSpec
from .scenarios import Scenario, builtin_scenario, scenario_names
from .simulate import (
    BlowUpError,
    DiagnosticsSeries,
    InitialLaw,
    NoiseStream,
    ParticleCloud,
    PointMass,
    Samples,
    SimConfig,
    UniformBox,
    coupled_simulate,
    euler_step,
    simulate,
)

__version__ = "0.1.0"

__all__ = [
    "BlowUpError",
    "CheckReport",
    "CheckRow",
    "DiagnosticsSeries",
    "DomainLadder",
    "InitialLaw",
    "LyapunovSpec",
    "MeasureFunction",
    "MeasureFunctionalTag",
    "MeasureKernelFactor",
    "ModelSpec",
    "NoiseStream",
    "OccupationMeasure",
    "ParticleCloud",
    "PointMass",
    "REGISTRY",
    "Rate",
    "Samples",
    "Scenario",
    "SemiWassersteinResult",
    "SimConfig",
    "StabilityReport",
    "UniformBox",
    "VBarKernel",
    "builtin_scenario",
    "check_floor",
    "check_local_bound",
    "check_lyapunov_condition",
    "check_structure",
    "coupled_simulate",
    "envelope_M",
    "envelope_Mplus",
    "euler_step",
    "evaluate_functionals",
    "exit_probability_bound",
    "expected_shortfall",
    "generator_values",
    "ito_residual_full",
    "ito_residual_measure",
    "lift_gradient",
    "mean_square_function",
    "moment",
    "moment_function",
    "quantile",
    "registry_function",
    "scenario_names",
    "scheutzow_probe",
    "semi_wasserstein_vbar",
    "simulate",
    "stability_experiment",
    "stationary_estimate",
    "vbar_power",
    "wasserstein_exact",
    "wasserstein_p_1d",
]
