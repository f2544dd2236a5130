"""Exception taxonomy shared across the package.

The command line maps these onto exit codes: parse errors exit with 2,
domain errors with 3, and numeric failures with 4.
"""

from __future__ import annotations

__all__ = ["ParseError", "DomainError", "DivergenceError", "NumericError"]


class ParseError(ValueError):
    """Malformed textual input: model specs, estimator specs, sample files."""


class DomainError(ValueError):
    """Structurally valid input whose values fall outside the supported domain."""


class DivergenceError(DomainError):
    """The requested measure is infinite for the given parameters."""


class NumericError(ArithmeticError):
    """A numerical routine failed to reach its required tolerance."""
