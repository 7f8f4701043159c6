"""fracasym: fractional-order initial value problems on uniform grids.

The package solves two shapes of Caputo-type problems through their
Volterra integral reformulations, evaluates the matching a-priori growth
and boundedness constructions (Gronwall/Bihari machinery), and verifies
power-type asymptotics numerically.  A CLI harness (`fracasym`) drives
reproducible, config-described experiment runs.
"""

from .asymptotics import (SlopeEstimate, TailEstimate, boundedness_verdict,
                          improper_tail, integrable_limit_check, lhopital_lemma_term,
                          lhopital_residual, power_slope)
from .bounds import (BoundReport, ComparisonFunction, LipschitzClassFunction,
                     bihari_bound, bihari_inverse, bihari_transform,
                     convolution_holder_constant, growth_envelope_constants,
                     linear_class_bound, lipschitz_growth_constant, lq_bihari_bound,
                     singular_convolution_constant, uniform_bound_constant)
from .errors import (ClassViolation, ConfigError, DomainError, FracasymError,
                     HypothesisViolation, StepFailure)
from .fracops import (caputo_derivative, composition_residual, exact_power_rule,
                      rl_integral, semigroup_residual)
from .gamma import gamma_fn
from .grid import GridFunction
from .solvers import (ProblemKind, ProblemSpec, RightHandSide, Solution,
                      residual_check, solve_direct, solve_sequential)

__version__ = "0.1.0"


def backend_name() -> str:
    """Name of the kernel implementation, for benchmark environment stamps:
    always 'python'."""
    return "python"


__all__ = [
    "__version__",
    "backend_name",
    "GridFunction",
    "gamma_fn",
    "rl_integral",
    "caputo_derivative",
    "exact_power_rule",
    "semigroup_residual",
    "composition_residual",
    "ProblemKind",
    "ProblemSpec",
    "RightHandSide",
    "Solution",
    "solve_direct",
    "solve_sequential",
    "residual_check",
    "ComparisonFunction",
    "LipschitzClassFunction",
    "BoundReport",
    "bihari_transform",
    "bihari_inverse",
    "bihari_bound",
    "linear_class_bound",
    "convolution_holder_constant",
    "lq_bihari_bound",
    "growth_envelope_constants",
    "lipschitz_growth_constant",
    "singular_convolution_constant",
    "uniform_bound_constant",
    "SlopeEstimate",
    "TailEstimate",
    "power_slope",
    "lhopital_residual",
    "lhopital_lemma_term",
    "improper_tail",
    "integrable_limit_check",
    "boundedness_verdict",
    "FracasymError",
    "DomainError",
    "ConfigError",
    "HypothesisViolation",
    "ClassViolation",
    "StepFailure",
]
