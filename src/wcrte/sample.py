"""Sample container and plain-text sample reader."""

from __future__ import annotations

import os

import numpy as np

from .errors import DomainError, ParseError

__all__ = ["Sample", "read_sample"]


class Sample:
    """A batch of nonnegative observations, kept in draw order.

    The sorted copy is computed once up front because every estimator in this
    package works on order statistics; the estimators use it instead of
    validating and sorting again. Both arrays are marked read-only.
    """

    __slots__ = ("values", "sorted_values")

    def __init__(self, values) -> None:
        arr = np.asarray(values, dtype=float).reshape(-1).copy()
        srt = _sorted_rows(arr)[0][0]
        arr.setflags(write=False)
        srt.setflags(write=False)
        object.__setattr__(self, "values", arr)
        object.__setattr__(self, "sorted_values", srt)

    def __setattr__(self, name, value):
        raise AttributeError("Sample is immutable")

    @property
    def n(self) -> int:
        return int(self.values.size)

    def __len__(self) -> int:
        return self.n

    def __repr__(self) -> str:
        return f"Sample(n={self.n}, min={self.values.min():g}, max={self.values.max():g})"


def _sorted_rows(x, min_n: int = 2, upper: float | None = None) -> tuple[np.ndarray, bool]:
    """Validate observations and sort them: the one input check of the package.

    ``x`` is a :class:`Sample`, one sample (1-D) or a batch of samples (2-D,
    one per row). Returns the rows sorted ascending, shape (B, n), and
    whether ``x`` was a single sample. Raises DomainError unless every row
    holds at least ``min_n`` finite, nonnegative values, none above ``upper``.
    """
    if isinstance(x, Sample):
        rows, single = x.sorted_values[np.newaxis], True
    else:
        arr = np.asarray(x, dtype=float)
        if arr.ndim > 2:
            raise DomainError(f"sample must be 1-D or 2-D, got shape {arr.shape}")
        rows, single = np.atleast_2d(arr), arr.ndim == 1
        if rows.shape[1] < min_n:
            raise DomainError(
                f"need at least {min_n} observations per sample, got {rows.shape[1]}"
            )
        rows = np.sort(rows, axis=1)
        # Sorting moves NaN and +inf to the end of a row and -inf to its start.
        if not (np.isfinite(rows[:, 0]).all() and np.isfinite(rows[:, -1]).all()):
            raise DomainError("sample contains non-finite values")
        if rows[:, 0].min() < 0.0:
            raise DomainError("sample values must be nonnegative")
    if upper is not None and rows[:, -1].max() > upper:
        raise DomainError(f"sample values must not exceed {upper:g}")
    return rows, single


def read_sample(path: str | os.PathLike) -> Sample:
    """Read one observation per line; blank lines and ``#`` comments are skipped.

    Raises ParseError naming the offending line for non-numeric content, and
    also for files that end up with fewer than two observations (the command
    line treats a too-short file as malformed input).
    """
    values: list[float] = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            text = raw.split("#", 1)[0].strip()
            if not text:
                continue
            try:
                values.append(float(text))
            except ValueError:
                raise ParseError(f"{path}:{lineno}: not a number: {text!r}") from None
    if len(values) < 2:
        raise ParseError(f"{path}: need n >= 2, found {len(values)} value(s)")
    # Negative or non-finite values parsed fine but are out of domain, so the
    # DomainError from the constructor is allowed through unchanged.
    return Sample(values)
