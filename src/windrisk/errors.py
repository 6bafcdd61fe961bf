"""Semantic exception hierarchy shared by all windrisk modules."""


class WindriskError(Exception):
    """Base class for all windrisk errors."""


class DomainError(WindriskError, ValueError):
    """An argument lies outside the mathematical domain of an operation."""


class UnsupportedVariogramError(WindriskError, ValueError):
    """The variogram kind cannot be used by the requested operation
    (e.g. a radial evaluation of an anisotropic model)."""


class ConvergenceError(WindriskError, RuntimeError):
    """A numerical procedure failed to reach its accuracy target.

    Carries the best available estimate so callers can decide whether
    the partial result is still usable.
    """

    def __init__(self, message, best_estimate=None, err_estimate=None):
        super().__init__(message)
        self.best_estimate = best_estimate
        self.err_estimate = err_estimate


class ConfigError(WindriskError, ValueError):
    """A run configuration failed validation (CLI exit code 2)."""
