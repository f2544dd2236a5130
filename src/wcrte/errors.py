"""Exception taxonomy shared across the package, and its one warning rule.

The command line maps these onto exit codes: parse errors exit with 2,
domain errors with 3, and numeric failures with 4.
"""

from __future__ import annotations

import sys
import warnings

__all__ = ["ParseError", "DomainError", "DivergenceError", "NumericError"]


class ParseError(ValueError):
    """Malformed textual input: model specs, estimator specs, sample files."""


class DomainError(ValueError):
    """Structurally valid input whose values fall outside the supported domain."""


class DivergenceError(DomainError):
    """The requested measure is infinite for the given parameters."""


class NumericError(ArithmeticError):
    """A numerical routine failed to reach its required tolerance."""


def _warn(message: str) -> None:
    """Warn with ``message`` at the innermost frame outside the library.

    The library is every ``wcrte`` module but ``wcrte.cli`` and
    ``wcrte.__main__``, told apart by the module a frame runs in (a
    dataclass's generated ``__init__`` has the file ``<string>``), so a
    command's warning names the ``cli`` line that called the library. On a
    pool worker thread the next frame out is ``concurrent.futures``; there
    the warning names the library line that ran the task.
    """
    frame, level = sys._getframe(1), 2  # level 2 names the caller of _warn
    while frame.f_back is not None and _in_library(frame):
        frame, level = frame.f_back, level + 1
    if frame.f_globals.get("__name__", "").startswith("concurrent.futures"):
        level -= 1
    warnings.warn(message, stacklevel=level)


def _in_library(frame) -> bool:
    name = frame.f_globals.get("__name__", "")
    return name.split(".")[0] == "wcrte" and name not in ("wcrte.cli", "wcrte.__main__")
