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


def _check_size(n, min_n: int = 2, name: str = "n") -> int:
    """The rule of sizes and counts: an integral ``name`` >= min_n; returns it as an int.

    Integral floats such as 10.0 and numpy integers are accepted; 10.7 is
    rejected rather than truncated. It also holds for the master seed
    (``min_n=0``).
    """
    try:
        k = int(n)
    except (TypeError, ValueError, OverflowError):
        k = None
    if k is None or k != n:
        raise DomainError(f"{name} must be an integer, got {n!r}")
    if k < min_n:
        if min_n == 0:
            raise DomainError(f"{name} must be nonnegative, got {k}")
        raise DomainError(f"need {name} >= {min_n}, got {k}")
    return k


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
        _check_size(rows.shape[1], min_n)
        rows = _check_sorted(np.sort(rows, axis=1))
    if upper is not None and rows[:, -1].max() > upper:
        raise DomainError(f"sample values must not exceed {upper:g}")
    return rows, single


def _check_sorted(rows: np.ndarray) -> np.ndarray:
    """The checks of :func:`_sorted_rows` on rows already sorted ascending; returns them.

    Sorting moves NaN and +inf to the end of a row and -inf to its start, so
    the row ends decide.
    """
    if not (np.isfinite(rows[:, 0]).all() and np.isfinite(rows[:, -1]).all()):
        raise DomainError("sample contains non-finite values")
    if rows[:, 0].min() < 0.0:
        raise DomainError("sample values must be nonnegative")
    return rows


def read_sample(path: str | os.PathLike) -> Sample:
    """The observations of a text file (see :func:`_read_values`) as a :class:`Sample`.

    Raises ParseError as :func:`_read_values` does, and DomainError for
    negative or non-finite values, which parse fine but are out of domain.
    """
    return Sample(_read_values(path))


def _read_values(path: str | os.PathLike) -> np.ndarray:
    """One observation per line, into a new float array; blanks and ``#`` comments are skipped.

    Raises ParseError naming the offending line for non-numeric content,
    naming the file for content that is not UTF-8 text, and also for files
    that end up with fewer than two observations (the command line treats a
    too-short file as malformed input). The values are not checked further:
    the caller owns the array, and ``wcrte estimate`` sorts and squares it
    in place instead of copying it into a :class:`Sample`.

    A file of plain numbers is parsed in one pass over its bytes. Any line
    that pass cannot parse (a comment, a bad token, a lone-CR line ending,
    non-ASCII text) sends the whole file through :func:`_read_lines`, which
    defines the format and reports every error; a file the fast pass accepts
    is ASCII, so it parses to the same values in either pass.
    """
    try:
        with open(path, "rb") as fh:
            values = np.fromiter(map(float, filter(bytes.strip, fh)), dtype=float)
    except ValueError:
        values = np.array(_read_lines(path), dtype=float)
    try:
        _check_size(len(values))
    except DomainError as exc:
        raise ParseError(f"{path}: {exc}") from None
    return values


def _read_lines(path) -> list[float]:
    """The observations of a text file, line by line: the definition of the format."""
    values: list[float] = []
    try:
        with open(path, "r", encoding="utf-8") as fh:
            for lineno, raw in enumerate(fh, start=1):
                text = raw.split("#", 1)[0].strip()
                if not text:
                    continue
                try:
                    values.append(float(text))
                except ValueError:
                    raise ParseError(f"{path}:{lineno}: not a number: {text!r}") from None
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: not UTF-8 text ({exc.reason})") from None
    return values
