"""Exception hierarchy shared across the package."""

import math


class CdtubeError(Exception):
    """Base class for all package errors."""


class DomainError(CdtubeError, ValueError):
    """An argument violates a documented precondition."""


def require_finite_non_negative(name: str, value: float) -> None:
    """Raise :class:`DomainError` for a negative, NaN or infinite ``value``."""
    if not (value >= 0.0 and math.isfinite(value)):
        raise DomainError(f"{name} must be finite and non-negative, got {value}")


class DegenerateParameterError(CdtubeError, ValueError):
    """Hypergeometric parameters hit a pole or vanishing denominator.

    Callers are expected to fall back to numerical integration.
    """


class ConvergenceError(CdtubeError, RuntimeError):
    """An iterative evaluation failed to converge within its caps.

    ``best_estimate`` carries the last iterate when one is available.
    """

    def __init__(self, message, best_estimate=None):
        super().__init__(message)
        self.best_estimate = best_estimate


class EvaluationError(CdtubeError, RuntimeError):
    """Both the analytic route and the quadrature fallback failed."""
