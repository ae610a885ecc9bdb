"""Exception hierarchy shared across the package."""


class AttnSimError(Exception):
    """Base class for all package errors."""


class ShapeError(AttnSimError, ValueError):
    """Operand dimensions are inconsistent (non-square, mismatched, ...)."""


class DomainError(AttnSimError, ValueError):
    """Input is outside the mathematical domain of the operation."""


class ContractError(AttnSimError, ValueError):
    """A documented precondition was violated (asymmetry, non-finite data)."""


class SingularMatrixError(AttnSimError):
    """Pivot fell below the singularity threshold during elimination."""


class GenerationError(AttnSimError):
    """Random construction exhausted its retry budget."""


class HypothesisError(AttnSimError):
    """A theorem checker's hypothesis does not hold for the given inputs."""


class IntegrationError(AttnSimError):
    """Right-hand-side evaluation failed during integration."""


class ConfigError(AttnSimError, ValueError):
    """Run configuration is malformed or inconsistent."""
