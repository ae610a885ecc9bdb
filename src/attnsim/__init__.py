"""Simulator and verification suite for continuous-time self-attention
token dynamics."""

from . import analyze, dynamics, integrate, params, quadspace
from .analyze import (
    CheckResult,
    MetricSeries,
    Regime,
    SkippedCheck,
    VerificationReport,
    classify_regime,
    trajectory_metrics,
)
from .dynamics import (
    rhs_absolute,
    rhs_rotary,
    rhs_vanilla,
    sinusoidal_encoding,
)
from .integrate import IntegratorConfig, Termination, Trajectory, integrate as integrate_rhs, region_step, rk4_step, stable_step
from .params import (
    LambdaKind,
    LambdaMod,
    ModelParams,
    RopeParams,
    Scenario,
    ScenarioSpec,
    SpectrumStats,
    build_scenario,
    derive_W_A,
    eigen_stats,
    params_from_w_and_a,
    params_from_w_and_v,
    random_params,
    softplus,
)
from .quadspace import (
    Definiteness,
    classify_definiteness,
    invert,
    matexp,
    quad_form,
    sym,
)

__version__ = "0.1.0"
