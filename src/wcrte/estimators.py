"""Nonparametric estimators of the weighted cumulative residual measures.

All estimators work on order statistics of a nonnegative sample. Each public
function takes one sample (1-D array or :class:`Sample`) and returns a float,
or a batch of samples as a 2-D array of shape (B, n) and returns a length-B
vector. Five kinds estimate the order-``a`` measure and its order -> 1 limit
(the WCRE):

* ``empirical``: the empirical survival function plugged into the defining
  integral;
* ``vasicek``: symmetric differences of squared order statistics over a
  window of half-width ``m``, clamped to the sample extremes at the edges;
* ``ebrahimi``: the same spacing sum with boundary-corrected denominators;
* ``modified_n``: boundary correction with squared denominators;
* ``lstat``: a linear combination of squared order statistics with smooth
  coefficients, the only kind with a variance companion.

Every kind, at every order, window and plotting position, is a fixed linear
functional of the sorted squares ``s2``: the L-statistic weighs ``s2``, the
other kinds weigh the spacings ``d = diff(s2)``. :func:`_build_coefficients`
is the one maker of coefficient rows. A prepared batch
(:class:`_SortedSquares`) is validated, sorted and squared once and contracts
the rows it is handed: by ``np.einsum`` (:meth:`~_SortedSquares.contract`)
for a standalone call, ``wcrte estimate`` and the uniformity tests, and by
fixed-shape BLAS products (:meth:`~_SortedSquares.chunk`) for a Monte Carlo
study, whose rows come from :func:`_coefficient_rows` by the plan rule of
:mod:`wcrte.mc`.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from enum import Enum
from typing import Literal, get_args

import numpy as np

from .distributions import (
    _check_order_above_one,
    _parse_number,
    _split_spec,
    check_order,
    order_label,
)
from .errors import DomainError, NumericError, ParseError
from .sample import _check_size, _sorted_rows

__all__ = [
    "EstimatorKind",
    "EstimatorSpec",
    "parse_estimator",
    "parse_kind",
    "estimate",
    "heuristic_window",
    "ebrahimi_weights",
    "clamp_order_stat",
    "max_window",
    "wcrte_empirical",
    "wcrte_vasicek",
    "wcrte_ebrahimi",
    "wcrte_modified_n",
    "wcrte_lstat",
    "wcrte_lstat_variance",
    "wcre_empirical",
    "wcre_vasicek",
    "wcre_ebrahimi",
    "wcre_modified_n",
    "wcre_lstat",
    "wcre_lstat_variance",
]

PlottingPosition = Literal["n", "n+1"]

#: Samples reaching this value would overflow when squared; they are scaled
#: down by an exact power of two first.
_SQUARE_LIMIT = 2.0**511


class EstimatorKind(str, Enum):
    EMPIRICAL = "empirical"
    VASICEK = "vasicek"
    EBRAHIMI = "ebrahimi"
    MODIFIED_N = "modified_n"
    LSTAT = "lstat"

    @property
    def needs_window(self) -> bool:
        return self in (
            EstimatorKind.VASICEK,
            EstimatorKind.EBRAHIMI,
            EstimatorKind.MODIFIED_N,
        )


#: W, the lanes of a chunk and the column count of every chunk product, the
#: unused columns zero. A study promises that adding cells or threads never
#: moves a cell, and BLAS rounds by shape: with OpenBLAS 0.3.31 (Haswell
#: kernels) a product's bits changed with its column count at 3 columns or
#: fewer, so every product has W columns.
_CHUNK_WIDTH = 16
#: Most multiply-adds (rows x W x K) in one tile product: OpenBLAS runs a
#: product of at most 65536 * 4 on the calling thread, so a tile neither
#: depends on the BLAS thread count nor competes with the study's workers.
_TILE_MACS = 262_144
#: Entries of i/n the variance companion makes at a time (16 KiB).
_HEAD_BLOCK = 2048
#: Spacings a batch makes over its squares at a time (256 KiB).
_SPACING_BLOCK = 32768


def _chunks(specs) -> list[list[EstimatorSpec]]:
    """The distinct ``specs`` in chunks of at most W that weigh one row kind.

    Spacing specs and L-statistic specs fill separate chunks, each in order
    of first appearance; a repeated spec keeps its first lane. The
    L-statistic chunks come first, by the one-buffer rule of
    :class:`_SortedSquares`.
    """
    chunks: dict[bool, list[list[EstimatorSpec]]] = {True: [], False: []}
    for spec in dict.fromkeys(specs):
        group = chunks[spec.kind is EstimatorKind.LSTAT]
        if not group or len(group[-1]) == _CHUNK_WIDTH:
            group.append([])
        group[-1].append(spec)
    return chunks[True] + chunks[False]


class _SortedSquares:
    """Sorted squares ``s2`` of validated samples, or, once read, their spacings ``d``.

    The batch is data only: it builds no coefficients. :meth:`contract` and
    :meth:`chunk` take the coefficient rows the caller built with
    :func:`_build_coefficients`; a row of n entries weighs ``s2``, one of
    n - 1 entries weighs ``d``. A batch whose largest value reaches 2**511 is
    stored as the squares of ``x * 2**-shift``; :meth:`unscale` and
    :meth:`finish` scale results back exactly. ``tails`` is the tail-weight
    memo (see :func:`_tail_weights`) of the callers that build rows for this
    batch alone. ``srt`` is one sorted sample
    (1-D) or a batch of them (2-D), and ``shape`` is its shape. The scaling
    and the squares are taken in ``srt`` itself unless it is read-only or
    not contiguous, so a caller hands over an array it no longer reads as
    sorted values.

    The one-buffer rule: the batch holds one buffer, and the first read of
    ``d`` turns the squares into their spacings in it, in place. ``s2`` is
    gone after that (reading it is an internal error), so a caller contracts
    every row that weighs ``s2`` first. ``d`` is a view, the first n - 1
    columns of the buffer; its values are those of ``np.diff(s2)``.
    """

    __slots__ = ("s2", "d", "shape", "shift", "tails")

    def __init__(self, srt: np.ndarray) -> None:
        top = float(srt[..., -1].max())
        self.shift = math.frexp(top)[1] if top >= _SQUARE_LIMIT else 0
        own = srt.flags.writeable and srt.flags.c_contiguous
        if self.shift:
            srt = np.ldexp(srt, -self.shift, out=srt if own else None)
            own = True
        self.s2 = np.multiply(srt, srt, out=srt if own else None)
        self.shape = srt.shape
        self.tails = {}

    def __getattr__(self, name: str):
        """``d`` on its first read, made over ``s2``; only an unset slot comes here."""
        if name != "d":
            raise AttributeError(f"{type(self).__name__} has no {name!r}"
                                 + (" once its spacings are read" if name == "s2" else ""))
        # One subtraction over the flattened rows (np.diff would run one short
        # loop per row), a block at a time: each spacing is written over the
        # square it subtracts, and numpy copies the block of next squares it
        # reads. Each row's last entry spans two rows and is left out of the view.
        flat = self.s2.reshape(-1)
        for lo in range(0, flat.size - 1, _SPACING_BLOCK):
            hi = min(lo + _SPACING_BLOCK, flat.size - 1)
            np.subtract(flat[lo + 1 : hi + 1], flat[lo:hi], out=flat[lo:hi])
        self.d = self.s2[..., :-1]
        del self.s2
        return self.d

    def _weighed(self, coef: np.ndarray) -> np.ndarray:
        """What ``coef`` weighs, as rows: ``s2`` for n entries, the spacings ``d`` for n - 1."""
        return np.atleast_2d(self.s2 if coef.shape[-1] == self.shape[-1] else self.d)

    def contract(self, coefs) -> np.ndarray:
        """Rows of (len(coefs), R), row ``j`` contracted with ``coefs[j]``, before :meth:`finish`.

        Each row is its own ``einsum`` written in place, so a coefficient row
        gives the same bits alone or among others.
        """
        out = np.empty((len(coefs), math.prod(self.shape[:-1])))
        for row, coef in zip(out, coefs):
            np.einsum("ij,j->i", self._weighed(coef), coef, out=row)
        return out

    def chunk(self, coefs) -> np.ndarray:
        """Rows of (len(coefs), R) for one chunk (see :func:`_chunks`), before :meth:`unscale`.

        Lane ``j`` is contracted with ``coefs[j]``; all of them weigh one row
        kind. Each tile of rows (at most ``_TILE_MACS`` multiply-adds) is one
        product ``tile @ C.T`` of W columns, lanes along the columns: along
        the rows (``C @ tile.T``) lanes 12 and up rounded differently at
        R = 301 and 334, along the columns no lane or neighbour moved a
        result, at 1 and at 2 BLAS threads. Only the real lanes are copied
        out of each product, so the result owns its len(coefs) rows.
        """
        rows = self._weighed(coefs[0])
        r, k = rows.shape
        coef = np.zeros((_CHUNK_WIDTH, k))
        coef[: len(coefs)] = coefs
        out = np.empty((len(coefs), r))
        step = max(1, _TILE_MACS // (_CHUNK_WIDTH * k))
        for lo in range(0, r, step):
            out[:, lo : lo + step] = (rows[lo : lo + step] @ coef.T)[:, : len(coefs)].T
        return out

    def unscale(self, out: np.ndarray, power: int = 1) -> np.ndarray:
        """Undo the scaling of ``out``, a result of degree ``power`` in ``s2``, in place.

        A value scaled back past the float range becomes inf, for the
        caller's finiteness check. Returns ``out``.
        """
        if self.shift:
            with np.errstate(over="ignore"):
                np.ldexp(out, 2 * power * self.shift, out=out)
        return out

    def finish(self, out: np.ndarray, power: int = 1):
        """:meth:`unscale` ``out``, then check it: one estimator's vector or a chunk's rows.

        Each row is checked on its own: an estimate that leaves the float
        range raises. A result of degree 2 is a variance estimate, and the
        message says so. The result of a 1-D sample is returned as a float.
        """
        self.unscale(out, power)
        # A finite row sum proves every entry of the row finite; only a sum
        # that is not finite (an entry that is not, or an overflow) needs the scan.
        with np.errstate(over="ignore", invalid="ignore"):
            total = np.add.reduce(out, axis=-1)
        if not np.isfinite(total).all() and not np.isfinite(out).all():
            what = "variance estimate" if power == 2 else "estimate"
            raise NumericError(f"the {what} is not finite: it leaves the float range")
        return float(out[0]) if len(self.shape) == 1 else out


def _prepare(x) -> _SortedSquares:
    """Validate, sort and square once; every estimator starts here.

    A :class:`Sample` contributes its validated sorted copy; an already
    prepared batch is returned as it is. Callers holding rows that are
    already validated and sorted build a :class:`_SortedSquares` directly.
    """
    if isinstance(x, _SortedSquares):
        return x
    return _SortedSquares(_sorted_rows(x))


def max_window(n: int) -> int:
    """Largest admissible spacing half-width for a sample of size n."""
    return (int(n) - 1) // 2


def _check_window(m, n: int | None = None) -> int:
    """The window rule: an integer m with 1 <= m < n/2, i.e. 2 * m < n.

    Without ``n`` only 1 <= m is checked; the sample size is checked later.
    """
    try:
        mi = int(m)
    except (TypeError, ValueError, OverflowError):
        mi = 0  # fails the rule below
    if mi != m or mi < 1 or (n is not None and mi > max_window(n)):
        where = "" if n is None else f" for n={n}"
        raise DomainError(f"window m must be an integer with 1 <= m < n/2, got m={m!r}{where}")
    return mi


def _clamp_window(m: int, n: int) -> int:
    """``m`` moved into [1, max_window(n)]; a window needs n >= 3."""
    return max(1, min(m, max_window(_check_size(n, 3))))


def heuristic_window(kind, n: int) -> int:
    """Window rule of thumb, clamped into the admissible range.

    Vasicek and Ebrahimi kinds: floor(n/2) - 1 up to n = 20, floor(n/3)
    beyond. Modified-N: floor(n/4) + 1. Exported by :mod:`wcrte.mc`.
    """
    kind = EstimatorKind(kind)
    n = _check_size(n, 3)
    if kind in (EstimatorKind.VASICEK, EstimatorKind.EBRAHIMI):
        m = n // 2 - 1 if n <= 20 else n // 3
    elif kind is EstimatorKind.MODIFIED_N:
        m = n // 4 + 1
    else:
        raise DomainError(f"estimator kind {kind.value} takes no window")
    return _clamp_window(m, n)


def clamp_order_stat(sample, i) -> float:
    """Order statistic with the index clamped to the sample range.

    For a 1-based index i, returns the sorted value at position
    max(1, min(n, i)).  Out-of-range indices therefore map to the
    sample minimum or maximum, which is the convention the windowed
    estimators use near the edges.
    """
    srt = _sorted_rows(sample, min_n=1)
    if srt.ndim != 1:
        raise DomainError("need a nonempty 1-D sample")
    try:
        ii = int(i)
    except (TypeError, ValueError):
        raise DomainError(f"index must be an integer, got {i!r}") from None
    if ii != i:
        raise DomainError(f"index must be an integer, got {i!r}")
    return float(srt[max(1, min(srt.size, ii)) - 1])


def ebrahimi_weights(n: int, m) -> np.ndarray:
    """Boundary-corrected denominators c_i for the spacing estimators.

    c_i ramps linearly from 1 + (i-1)/m near the lower edge up to 2 in the
    interior, and back down symmetrically near the upper edge.
    """
    return _edge_weights(n, (_check_window(m, n),))[0]


def _edge_weights(n: int, windows) -> np.ndarray:
    """Rows of c_1..c_n (see :func:`ebrahimi_weights`), one per checked window."""
    c = np.full((len(windows), n), 2.0)
    for row, m in zip(c, windows):
        ramp = 1.0 + np.arange(m, dtype=float) / m  # i = 1..m; the top edge mirrors it
        row[:m] = ramp
        row[n - m :] = ramp[::-1]
    return c


# --- the linear core ------------------------------------------------------------


def _tail_weights(tails: dict, order, n: int) -> np.ndarray:
    """Tail weights w_1..w_{n-1} of ``order`` (None for the WCRE), memoized in ``tails``.

    With t_i = 1 - i/n, w_i is -t_i log t_i or (t_i - t_i**order) / (order - 1);
    the i = n term of the windowed sums is always 0, so both stop at n - 1.
    Every spacing kind weighs these, and none writes to them. ``tails`` holds
    one (order, n) at a time: a new one clears it, so a caller that runs its
    specs order by order builds each order's weights once and holds one
    vector of them.
    """
    w = tails.get((order, n))
    if w is None:
        tails.clear()
        tail = 1.0 - np.arange(1, n, dtype=float) / n
        if order is None:
            w = np.log(tail)
            w *= tail
            np.negative(w, out=w)
        else:
            w = tail**order
            np.subtract(tail, w, out=w)
            w /= order - 1.0
        tails[(order, n)] = w
    return w


def _build_coefficients(kind: EstimatorKind, order, windows, plotting, n: int,
                        tails: dict) -> np.ndarray:
    """Coefficients over ``s2`` (L-statistic) or over ``d`` (other kinds), one row per window.

    The one maker of coefficient rows: every contraction in the package
    weighs rows built here. ``windows`` lists a spacing kind's windows, each
    checked against n; a kind without a window takes ``(None,)`` and gets
    one row. Spacing kinds take their order's tail weights from ``tails``
    (see :func:`_tail_weights`). The L-statistic row is built in place in
    the buffer of its plotting positions. A clamped difference
    ``s2[hi] - s2[lo]`` is a sum of consecutive spacings, so the coefficient
    of a spacing is a windowed sum of scaled tail weights, read off one
    nondecreasing cumulative sum: no spacing coefficient is negative, so tied
    samples give exactly 0 and no spacing estimate is negative.
    """
    if kind is EstimatorKind.LSTAT:
        # The plotting default: i/(n+1) for the WCRE, i/n for other orders.
        plotting = plotting or ("n+1" if order is None else "n")
        c = np.arange(1, n + 1, dtype=float)
        c /= n if plotting == "n" else n + 1  # p_i
        np.subtract(1.0, c, out=c)
        if order is not None:
            # (1 - order * (1 - p)**(order - 1)) / (2 (order - 1) n)
            c **= order - 1.0
            c *= order
            np.subtract(1.0, c, out=c)
            c /= 2.0 * (order - 1.0) * n
            return c[None]
        # -(1 + log(1 - p)) / (2n)
        with np.errstate(divide="ignore"):
            np.log(c, out=c)
        c += 1.0
        np.negative(c, out=c)
        c /= 2.0 * n
        if plotting == "n":
            c[-1] = 0.0  # the log(0) term is dropped
        return c[None]
    w = _tail_weights(tails, order, n)
    if kind is EstimatorKind.EMPIRICAL:
        return (w / 2.0)[None]
    ms = [_check_window(m, n) for m in windows]
    m = np.array(ms, dtype=float)[:, None]
    if kind is EstimatorKind.VASICEK:
        w = w / (4.0 * m)
    else:
        # The denominators, then the weights divided by them, in one buffer.
        den = _edge_weights(n, ms)[:, :-1]
        if kind is EstimatorKind.EBRAHIMI:
            den *= 2.0 * m
        else:
            den **= 2
            den *= m
        w = np.divide(w, den, out=den)
    # Spacing j (0-based) lies inside the clamped window of every 1-based i
    # with j - m + 2 <= i <= j + m + 1. With C[k] = w_1 + ... + w_k = cum[k - 1]
    # and C[0] = 0, its coefficient is C[min(j + m + 1, n - 1)] - C[max(j - m + 1, 0)].
    cum = np.cumsum(w, axis=1, out=w)
    out = np.empty_like(cum)
    for row, c, mi in zip(out, cum, ms):
        row[: n - 1 - mi] = c[mi:]
        row[n - 1 - mi :] = c[-1]
        row[mi:] -= c[: n - 1 - mi]
    return out


def _coefficient_rows(keys) -> dict:
    """The coefficient row of each ``(EstimatorSpec, n)`` of ``keys``, keyed by it.

    One matrix is built per (kind, order, plotting, n), with one row per
    window its specs use, and one tail-weight vector per (order, n), each
    kept in its own ``tails`` dict; each row is a row of a matrix.
    """
    groups: dict[tuple, list[EstimatorSpec]] = {}
    for spec, n in dict.fromkeys(keys):
        groups.setdefault((spec.kind, spec.order, spec.plotting, n), []).append(spec)
    rows, tails = {}, {}
    for (kind, order, plotting, n), specs in groups.items():
        windows = [s.window for s in specs]
        built = _build_coefficients(kind, order, windows, plotting, n,
                                    tails.setdefault((order, n), {}))
        rows.update(((spec, n), row) for spec, row in zip(specs, built))
    return rows


def _warn_order(spec: EstimatorSpec, stacklevel: int) -> None:
    """The warnings an evaluation of ``spec`` gives, whatever its sample."""
    if spec.kind.needs_window and spec.order is not None and spec.order < 1.0:
        warnings.warn(
            f"order {spec.order:g} is below 1; the underlying measure may be infinite "
            "and the spacing estimate need not stabilize",
            stacklevel=stacklevel + 1,
        )
    if spec.order is None and spec.plotting == "n":
        warnings.warn(
            "plotting position i/n makes the last WCRE L-statistic term "
            "log(0); dropping the i = n term",
            stacklevel=stacklevel + 1,
        )


def _evaluate(spec: EstimatorSpec, x):
    """``spec`` on ``x``; every public estimator ends here."""
    _warn_order(spec, stacklevel=3)
    sq = _prepare(x)
    n = sq.shape[-1]
    coef = _build_coefficients(spec.kind, spec.order, (spec.window,), spec.plotting, n, sq.tails)
    return sq.finish(sq.contract(coef)[0])


# --- WCRTE estimators --------------------------------------------------------
# ``check_order`` keeps ``order=None``, which would select the WCRE, out.


def wcrte_empirical(x, order):
    """Plug-in estimate of the order-``order`` measure.

    Sum over i = 1..n-1 of (x2_(i+1) - x2_(i)) * ((1-i/n) - (1-i/n)**a),
    divided by 2(a - 1). Nonnegative for every order.
    """
    return _evaluate(EstimatorSpec(EstimatorKind.EMPIRICAL, check_order(order)), x)


def wcrte_vasicek(x, order, m):
    """Spacing estimate with symmetric m-step differences, sum over i = 1..n."""
    return _evaluate(EstimatorSpec(EstimatorKind.VASICEK, check_order(order), m), x)


def wcrte_ebrahimi(x, order, m):
    """Spacing estimate with boundary-corrected denominators c_i."""
    return _evaluate(EstimatorSpec(EstimatorKind.EBRAHIMI, check_order(order), m), x)


def wcrte_modified_n(x, order, m):
    """Spacing estimate with squared boundary-corrected denominators."""
    return _evaluate(EstimatorSpec(EstimatorKind.MODIFIED_N, check_order(order), m), x)


def wcrte_lstat(x, order, plotting: PlottingPosition | None = None):
    """L-statistic: sum of x2_(i) * (1 - a*(1 - p_i)**(a-1)) / (2 (a-1) n).

    Plotting positions p_i default to i/n; ``plotting="n+1"`` uses i/(n+1).
    Requires order > 1.
    """
    spec = EstimatorSpec(EstimatorKind.LSTAT, check_order(order), plotting=plotting)
    return _evaluate(spec, x)


def _lstat_variance(x, order):
    """Shared body of the two variance companions (n >= 3; ``order=None`` for the WCRE).

    The double sum over ordered index pairs is evaluated in O(n) via a
    cumulative sum; a literal O(n^2) version is kept in the test suite as an
    oracle. The companion holds two (n - 1)-length buffers beside the batch:
    the tail t_i = 1 - i/n, then its coefficient c(t_i) beside it, is turned
    into t_i c(t_i) in the first; the second turns c(t_i) into c(t_i) i/n
    with i/n made in blocks of ``_HEAD_BLOCK`` entries. Both are multiplied
    by the spacings ``d`` in place (a batch of more rows gets new products),
    and the cumulative sum and the pair product follow in place.
    """
    sq = _prepare(x)
    n = _check_size(sq.shape[-1], 3)
    tail = np.arange(1, n, dtype=float)
    tail /= n  # i/n for the spacing index i = 1..n-1
    np.subtract(1.0, tail, out=tail)
    if order is None:
        coef = np.log(tail)
        coef += 1.0
        # Twice the ordered-pair sum estimates the variance of -2 times the
        # estimate, so the net constant is 2/4 = 1/2.
        denominator = 2.0
    else:
        coef = tail ** (order - 1.0)
        coef *= order
        np.subtract(1.0, coef, out=coef)
        # Twice the ordered-pair sum covers the symmetric index square and
        # estimates the variance of the auxiliary statistic 2(order - 1)
        # times the estimate; dividing by (2(order - 1))^2 rescales to the
        # estimate.
        denominator = 2.0 * (order - 1.0) ** 2
    tail *= coef  # the factor carrying the larger index
    for lo in range(0, n - 1, _HEAD_BLOCK):  # the factor carrying the smaller index
        hi = min(lo + _HEAD_BLOCK, n - 1)
        head = np.arange(lo + 1, hi + 1, dtype=float)
        head /= n
        coef[lo:hi] *= head
        del head  # before the next block is made
    d = np.atleast_2d(sq.d)
    own = d.shape[0] == 1  # one row: the products fit the buffers
    upper = np.multiply(tail[None], d, out=tail[None] if own else None)
    del tail
    cum = np.multiply(coef[None], d, out=coef[None] if own else None)
    del coef
    cum = np.cumsum(cum, axis=1, out=cum)
    # A product overflows only when the variance itself is out of range,
    # which finish() reports.
    with np.errstate(over="ignore", invalid="ignore"):
        pairs = np.multiply(upper[:, 1:], cum[:, :-1], out=upper[:, 1:])
        inner = pairs.sum(axis=1)
    out = sq.finish(inner / denominator, power=2)
    if np.any(np.asarray(out) < 0.0):
        warnings.warn("negative variance estimate (small-sample artifact)", stacklevel=3)
    return out


def wcrte_lstat_variance(x, order):
    """Variance estimator attached to the L-statistic (order > 1, n >= 3).

    Estimates the variance of sqrt(n) * (estimate - target). Small samples
    can produce a negative value, which is reported with a warning rather
    than clipped.
    """
    return _lstat_variance(x, _check_order_above_one(order))


# --- WCRE estimators (order -> 1 limit) ---------------------------------------


def wcre_empirical(x):
    """Plug-in estimate of the WCRE; nonnegative by construction."""
    return _evaluate(EstimatorSpec(EstimatorKind.EMPIRICAL), x)


def wcre_vasicek(x, m):
    """Symmetric-difference estimate of the WCRE, sum over i = 1..n-1."""
    return _evaluate(EstimatorSpec(EstimatorKind.VASICEK, window=m), x)


def wcre_ebrahimi(x, m):
    return _evaluate(EstimatorSpec(EstimatorKind.EBRAHIMI, window=m), x)


def wcre_modified_n(x, m):
    return _evaluate(EstimatorSpec(EstimatorKind.MODIFIED_N, window=m), x)


def wcre_lstat(x, plotting: PlottingPosition | None = None):
    """L-statistic for the WCRE: -sum of x2_(i) * (1 + log(1 - p_i)) / (2n).

    Defaults to plotting positions i/(n+1), which keep every term finite.
    With ``plotting="n"`` the i = n term contains log(0) and is dropped,
    with a diagnostic warning.
    """
    return _evaluate(EstimatorSpec(EstimatorKind.LSTAT, plotting=plotting), x)


def wcre_lstat_variance(x):
    """Variance estimator attached to the WCRE L-statistic (n >= 3)."""
    return _lstat_variance(x, None)


# --- estimator specs and dispatch ---------------------------------------------

_KIND_TOKENS = {
    "e": EstimatorKind.EMPIRICAL,
    "empirical": EstimatorKind.EMPIRICAL,
    "v": EstimatorKind.VASICEK,
    "vasicek": EstimatorKind.VASICEK,
    "eb": EstimatorKind.EBRAHIMI,
    "ebrahimi": EstimatorKind.EBRAHIMI,
    "n": EstimatorKind.MODIFIED_N,
    "mn": EstimatorKind.MODIFIED_N,
    "modified": EstimatorKind.MODIFIED_N,
    "modified_n": EstimatorKind.MODIFIED_N,
    "l": EstimatorKind.LSTAT,
    "lstat": EstimatorKind.LSTAT,
}


def parse_kind(token) -> EstimatorKind:
    """Resolve an estimator-kind token or enum member."""
    if isinstance(token, EstimatorKind):
        return token
    key = str(token).strip().lower()
    if key not in _KIND_TOKENS:
        known = ", ".join(sorted(set(_KIND_TOKENS)))
        raise ParseError(f"unknown estimator kind {token!r} (known: {known})")
    return _KIND_TOKENS[key]


@dataclass(frozen=True)
class EstimatorSpec:
    """A fully resolved estimator choice.

    ``order=None`` selects the WCRE limit. ``window`` must be present exactly
    for the three spacing kinds (it may be left None and resolved against a
    concrete sample size by the caller). ``plotting`` applies to the
    L-statistic only; None means the kind's default.

    Construction checks order, window and plotting position; every estimator
    function builds one, so it is the single check of those parameters. The
    window is checked against the sample size when the estimator runs.
    """

    kind: EstimatorKind
    order: float | None = None
    window: int | None = None
    plotting: str | None = None

    def __post_init__(self):
        kind = EstimatorKind(self.kind)
        object.__setattr__(self, "kind", kind)
        if self.order is not None:
            check = _check_order_above_one if kind is EstimatorKind.LSTAT else check_order
            object.__setattr__(self, "order", check(self.order))
        if self.window is not None:
            if not kind.needs_window:
                raise DomainError(f"estimator kind {kind.value} takes no window")
            object.__setattr__(self, "window", _check_window(self.window))
        if self.plotting is not None:
            if kind is not EstimatorKind.LSTAT:
                raise DomainError("plotting positions apply to the L-statistic only")
            if self.plotting not in get_args(PlottingPosition):
                known = " or ".join(map(repr, get_args(PlottingPosition)))
                raise DomainError(f"plotting must be {known}, got {self.plotting!r}")

    @property
    def measure(self) -> str:
        return "wcre" if self.order is None else "wcrte"

    def label(self) -> str:
        parts = [f"{self.measure}:{self.kind.value}"]
        if self.order is not None:
            parts.append(f"alpha={order_label(self.order)}")
        if self.window is not None:
            parts.append(f"m={self.window}")
        if self.plotting is not None:
            parts.append(f"plotting={self.plotting}")
        return ",".join(parts)


#: Estimator spec heads and their keys; the kind is the positional token.
_SPEC_KEYS = {"wcrte": ("alpha", "m", "plotting"), "wcre": ("m", "plotting")}


def parse_estimator(text: str) -> EstimatorSpec:
    """Parse an estimator spec such as ``wcrte:l,alpha=2`` or ``wcre:eb,m=3``.

    The head picks the measure (``wcrte`` needs ``alpha=...``, ``wcre``
    forbids it), the positional token the kind (single-letter aliases are
    accepted), and the remaining ``key=value`` pairs set ``m`` and
    ``plotting``.
    """
    spec = text.strip()
    measure, token, fields = _split_spec(spec, _SPEC_KEYS, positional=tuple(_SPEC_KEYS))
    if token is None:
        raise ParseError(f"{spec!r}: missing estimator kind")
    try:
        kind = parse_kind(token)
    except ParseError as exc:
        raise ParseError(f"{spec!r}: {exc}") from None
    if measure == "wcrte" and "alpha" not in fields:
        raise ParseError(f"{spec!r}: wcrte requires alpha=<order>")
    order = _parse_number(fields["alpha"], spec) if "alpha" in fields else None
    window = _parse_number(fields["m"], spec, int) if "m" in fields else None
    plotting = fields.get("plotting")
    try:
        return EstimatorSpec(kind=kind, order=order, window=window, plotting=plotting)
    except DomainError as exc:
        raise ParseError(f"{spec!r}: {exc}") from None


def estimate(spec: EstimatorSpec, x):
    """Evaluate the estimator selected by ``spec`` on ``x``.

    Goes through the public function of the spec's measure and kind, so its
    argument checks and warnings apply. Windowed kinds need ``spec.window``
    resolved; callers that want an automatic choice resolve it first (see
    :func:`heuristic_window`).
    """
    if spec.kind.needs_window and spec.window is None:
        raise DomainError(
            f"estimator {spec.label()} needs a window; set m or resolve one first"
        )
    fn = globals()[f"{spec.measure}_{spec.kind.value}"]
    return fn(x, *(v for v in (spec.order, spec.window, spec.plotting) if v is not None))
