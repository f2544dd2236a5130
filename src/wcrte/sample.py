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
        if arr.size < 2:
            raise DomainError(f"a sample needs at least 2 observations, got {arr.size}")
        if not np.all(np.isfinite(arr)):
            raise DomainError("sample contains non-finite values")
        if arr.min() < 0.0:
            raise DomainError("sample values must be nonnegative")
        arr.setflags(write=False)
        srt = np.sort(arr)
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
