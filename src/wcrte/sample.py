"""Sample container and plain-text sample reader."""

from __future__ import annotations

import os
import warnings

import numpy as np

from .errors import DomainError, ParseError

__all__ = ["Sample", "read_sample"]


class Sample:
    """One sample of nonnegative observations, kept in draw order.

    The sorted copy is computed once up front because every estimator in this
    package works on order statistics; the estimators use it instead of
    validating and sorting again. Both arrays are marked read-only.
    ``Sample(values)`` copies what it is given; an input of more than one
    dimension raises DomainError rather than being flattened, since the
    estimators read a 2-D array as a batch of samples.
    """

    __slots__ = ("values", "sorted_values")

    def __init__(self, values) -> None:
        arr = _real_array(values, copy=True)
        if arr.ndim > 1:
            raise DomainError(f"a Sample holds one sample, got shape {arr.shape}")
        self._hold(arr.reshape(-1))

    @classmethod
    def _adopt(cls, arr: np.ndarray) -> Sample:
        """A Sample holding the 1-D float array ``arr`` itself, for a caller that owns it."""
        sample = cls.__new__(cls)
        sample._hold(arr)
        return sample

    def _hold(self, arr: np.ndarray) -> None:
        srt = _sorted_rows(arr)
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


def _sorted_rows(x, min_n: int = 2, upper: float | None = None) -> np.ndarray:
    """Validate observations and sort them: the one input check of the package.

    ``x`` is a :class:`Sample`, one sample (1-D) or a batch of samples (2-D,
    one per row); a scalar is a batch of one sample of one value. Returns
    the values sorted ascending in the shape they came in: a Sample's
    read-only ``sorted_values``, otherwise a new array the caller owns.
    Raises DomainError unless ``x`` holds real numbers (:func:`_real_array`)
    and every sample holds at least ``min_n`` finite, nonnegative values,
    none above ``upper``.
    """
    if isinstance(x, Sample):
        srt = x.sorted_values
    else:
        arr = _real_array(x)
        if arr.ndim == 0:
            arr = arr.reshape(1, 1)
        elif arr.ndim > 2:
            raise DomainError(f"sample must be 1-D or 2-D, got shape {arr.shape}")
        _check_size(arr.shape[-1], min_n)
        srt = _check_sorted(np.sort(arr, axis=-1))
    if upper is not None and srt[..., -1].max() > upper:
        raise DomainError(f"sample values must not exceed {upper:g}")
    return srt


def _real_array(x, copy: bool = False) -> np.ndarray:
    """``x`` as a float array, a new one when ``copy``.

    Raises DomainError for what is not an array of real numbers: a string
    that is not a number, a ragged nesting, a complex value (which numpy
    would cast to its real part).
    """
    try:
        arr = np.asarray(x)
        if arr.dtype.kind != "c":
            return arr.astype(float, copy=copy)
    except (TypeError, ValueError):
        pass
    raise DomainError("sample values must be real numbers")


def _check_sorted(srt: np.ndarray) -> np.ndarray:
    """The checks of :func:`_sorted_rows` on a sample or batch sorted ascending; returns it.

    Sorting moves NaN and +inf to the end of a row and -inf to its start, so
    the row ends decide.
    """
    if not (np.isfinite(srt[..., 0]).all() and np.isfinite(srt[..., -1]).all()):
        raise DomainError("sample contains non-finite values")
    if srt[..., 0].min() < 0.0:
        raise DomainError("sample values must be nonnegative")
    return srt


def read_sample(path: str | os.PathLike) -> Sample:
    """The observations of a text file (see :func:`_read_values`) as a :class:`Sample`.

    The Sample holds the array the file was read into, uncopied, so the read
    keeps two n-length vectors: the values in file order and their sorted
    copy. Raises ParseError as :func:`_read_values` does, and DomainError for
    negative or non-finite values, which parse fine but are out of domain.
    """
    return Sample._adopt(_read_values(path))


def _read_values(path: str | os.PathLike) -> np.ndarray:
    """One observation per line, into a new float array; blanks and ``#`` comments are skipped.

    Raises ParseError naming the offending line for non-numeric content,
    naming the file for content that is not UTF-8 text, and also for files
    that end up with fewer than two observations (the command line treats a
    too-short file as malformed input). The values are not checked further:
    the caller owns the array, and ``wcrte estimate`` sorts and squares it
    in place instead of copying it into a :class:`Sample`.

    A file is parsed first by numpy's C text reader (:func:`_read_column`).
    Whatever that reader does not take goes through :func:`_read_lines`,
    which defines the format and reports every error, so both give the same
    values for every file either accepts.
    """
    values = _read_column(path)
    if values is None:
        values = np.array(_read_lines(path), dtype=float)
    try:
        _check_size(len(values))
    except DomainError as exc:
        raise ParseError(f"{path}: {exc}") from None
    return values


#: The suffixes ``np.loadtxt`` decompresses instead of reading as text.
_COMPRESSED = (".gz", ".bz2", ".xz", ".lzma")


def _read_column(path) -> np.ndarray | None:
    """The file's values as numpy's C text reader parses them, or None for the line reader.

    ``np.loadtxt`` splits fields on whitespace, so it skips blank and
    whitespace-only lines as the format does, and its result counts only
    when it is one column (a line ``1 2`` is two fields, not two values).
    None is returned for a field the C reader rejects (a bad token such as
    ``1,2``, or a ``1_000`` or a non-ASCII digit that the format accepts),
    content that is not UTF-8, a line of several fields, a path that is not
    a regular file or cannot be opened (so ``open`` names it in the error as
    given), and a name with a suffix ``np.loadtxt`` would decompress. The
    reader gets the absolute path, which numpy never takes for a URL. Its
    "input contained no data" warning for an empty or comment-only file is
    silenced: the size rule reports that file.
    """
    name = os.path.abspath(os.fsdecode(path))
    if not os.path.isfile(name) or name.endswith(_COMPRESSED):
        return None
    try:
        with warnings.catch_warnings():
            warnings.filterwarnings("ignore", "loadtxt: input contained no data")
            table = np.loadtxt(name, dtype=float, comments="#", encoding="utf-8", ndmin=2)
    except (ValueError, OSError):
        return None
    return table[:, 0] if table.shape[1] == 1 else None


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
