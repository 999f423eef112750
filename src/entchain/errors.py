"""Exception types shared across the package.

The CLI maps these onto exit codes: configuration problems exit with 1,
numerical contract violations (unphysical values, failed convergence,
inadequate grids) exit with 2.
"""


class EntchainError(Exception):
    """Base class for all package-specific errors."""


class ConfigError(EntchainError):
    """A run configuration is malformed: unknown key, bad type, bad value."""


class NumericsError(EntchainError):
    """A numerical contract was violated (non-positive-definite matrix,
    out-of-range spectrum value, oracle disagreement, ...)."""


class IntegrationError(NumericsError):
    """An integration self-check failed: a scale factor's Wronskian
    drifted past its tolerance, or the covariance oracle's step refinement
    hit its limit.  ``time`` is where the failure showed."""

    def __init__(self, message: str, time: float | None = None):
        super().__init__(message)
        self.time = time


class GridError(NumericsError):
    """A discretization grid is too small or too coarse for the requested
    computation."""
