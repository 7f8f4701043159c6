"""Exception hierarchy shared across the package.

The CLI maps these onto exit codes: hypothesis violations are reported but
do not abort a run (exit 2), solver failures abort it (exit 1).  A solve
that fails at a node raises one StepFailure, which names that node.
"""


class FracasymError(Exception):
    """Base class for all package-specific errors."""


class DomainError(FracasymError, ValueError):
    """A parameter is outside the mathematical domain of an operation."""


class ConfigError(FracasymError, ValueError):
    """An experiment configuration is malformed (unknown keys, bad values)."""


class HypothesisViolation(FracasymError):
    """A bound's integrability/divergence hypothesis fails, so the bound
    construction is inapplicable (not a programming error)."""


class ClassViolation(HypothesisViolation):
    """A sampled membership check for a comparison-function or
    Lipschitz-majorant class failed."""


class StepFailure(FracasymError, RuntimeError):
    """A solve failed at some node: a value of the right-hand side or of a
    solved quantity was not finite there, or its corrector did not converge."""

    def __init__(self, node: int, tau: float, message: str):
        self.node = node
        self.tau = tau
        super().__init__(f"step {node} (tau={tau:.6g}): {message}")
