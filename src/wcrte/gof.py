"""Uniformity tests built on the weighted residual measures, plus competitors.

The entropy-band tests (``wcrte``, ``wcre``) reject the standard uniform
hypothesis when the plug-in statistic falls outside a two-sided band of
simulated quantiles: both tails get half of the level, and the band endpoints
themselves reject. The statistic is bounded above by a closed-form constant
(:func:`statistic_bound`). Four classical competitors serve the power study:
Kolmogorov-Smirnov, Cramer-von Mises and Anderson-Darling reject large
values, the spacing-entropy test (``ent``) small ones. All are calibrated on
the same null draws and replication budget, so the power columns are
size-matched.

One or several: :func:`critical_values` takes one size and one order or a
list or tuple of either, :func:`power_study` one size or a list, and
:func:`uniformity_test` one test or a list. One value gives one result (for
power, the cells of one size), a list gives a list, as the estimators treat
one sample and a batch; the commands and ``verify_table(7)`` and ``(8)``
pass lists. Every entry checks its grid first: each size (or the sample) in
turn, then the level, then the replication count. Then it checks its specs,
parsed and then resolved against each size; a power study parses its tests,
then its alternatives, then checks the alternatives' range. ``threads`` is
checked last, by the pool, and all of it before any draw. Several sizes then
run on one pool, larger sizes first.

Null draws are keyed by (seed, n) only: a critical pair computed standalone
is identical to the one computed inside a sweep over sizes, orders or tests.
Within one call each (seed, n, replications) null batch is drawn, sorted and
squared once and every test reads it, and a power study sorts and squares
each alternative's draws once. Nothing is kept between calls.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass, replace

import numpy as np

from . import estimators as est
from .distributions import (
    Uniform,
    _check_order_above_one,
    _parse_number,
    _split_spec,
    closed_wcrte,
    order_label,
    parse_model,
)
from .errors import DomainError, ParseError, _warn
from .mc import (
    _RUN_COLUMNS, DEFAULT_SEED, _columns, _pool_map, gof_alternative_stream, gof_null_stream,
)
from .sample import _check_size, _sorted_rows

__all__ = [
    "WCRE_STATISTIC_BOUND",
    "ORDER_CENTERED",
    "statistic_bound",
    "null_statistic_value",
    "test_statistic_wcrte",
    "test_statistic_wcre",
    "competitor_statistic",
    "default_spacing_window",
    "GofTest",
    "parse_test",
    "CriticalPair",
    "CriticalValue",
    "critical_values",
    "competitor_critical_value",
    "GofResult",
    "uniformity_test",
    "PowerCell",
    "power_study",
]

#: Upper bound of the WCRE statistic on [0, 1] samples: 1/(2e).
WCRE_STATISTIC_BOUND = 0.5 / math.e

#: Order at which the null statistic value sits exactly at half the
#: statistic bound, centering the statistic's null position in its range.
ORDER_CENTERED = 6.586506

#: Clamp for the Anderson-Darling logarithms.
_AD_EPS = 1e-12
#: Log floor substituted for zero spacings in the spacing-entropy statistic.
_ENT_LOG_FLOOR = -745.0


def statistic_bound(order=None) -> float:
    """Closed-form upper bound of the test statistic on [0, 1] samples.

    1/(2 * a**(a/(a-1))) for order a > 1; 1/(2e) for the WCRE limit.
    """
    if order is None:
        return WCRE_STATISTIC_BOUND
    a = _check_order_above_one(order)
    return 0.5 * a ** (-a / (a - 1.0))


def null_statistic_value(order=None) -> float:
    """Population value of the statistic under uniformity.

    (a+4)/(6(a+1)(a+2)) for order a; 5/36 for the WCRE limit: the closed
    form of the uniform law on (0, 1).
    """
    return closed_wcrte(Uniform(1.0), order)


def test_statistic_wcrte(x, order):
    """Plug-in statistic of the given order for a [0, 1] sample."""
    return est.wcrte_empirical(est._SortedSquares(_sorted_rows(x, upper=1.0)), order)


def test_statistic_wcre(x):
    return est.wcre_empirical(est._SortedSquares(_sorted_rows(x, upper=1.0)))


def default_spacing_window(n: int) -> int:
    """Default window of the spacing-entropy competitor: floor(sqrt(n)) + 1.

    Clamped into the admissible range, which changes it for n = 3..6 only.
    """
    n = _check_size(n)
    return est._clamp_window(math.isqrt(n) + 1, n)


def _ks_stat(sorted_rows: np.ndarray) -> np.ndarray:
    """Kolmogorov-Smirnov statistic of each sorted row: a max, exact in any order.

    The deviations are laid out in column order, so each max runs across rows.
    """
    n = sorted_rows.shape[1]
    i = np.arange(1, n + 1, dtype=float)
    dev = np.subtract(i / n, sorted_rows, order="F")
    out = dev.max(axis=1)
    np.subtract(sorted_rows, (i - 1.0) / n, out=dev)
    return np.maximum(out, dev.max(axis=1), out=out)


def _cvm_stat(sorted_rows: np.ndarray) -> np.ndarray:
    """Cramer-von Mises statistic of each sorted row.

    Each row is summed over its own contiguous terms, as one row alone is.
    """
    n = sorted_rows.shape[1]
    grid = (2.0 * np.arange(1, n + 1, dtype=float) - 1.0) / (2.0 * n)
    return ((sorted_rows - grid) ** 2).sum(axis=1) + 1.0 / (12.0 * n)


def _ad_stat(sorted_rows: np.ndarray) -> np.ndarray:
    """Anderson-Darling statistic of each sorted row.

    Each row is summed over its own contiguous terms, as one row alone is.
    Values within ``_AD_EPS`` of 0 or 1 are clamped, with a warning.
    """
    n = sorted_rows.shape[1]
    # Rows are sorted, so only a row's ends can fall outside the clamp.
    if sorted_rows[:, 0].min() < _AD_EPS or sorted_rows[:, -1].max() > 1.0 - _AD_EPS:
        _warn("observations at 0 or 1 clamped for the Anderson-Darling logs")
        sorted_rows = np.clip(sorted_rows, _AD_EPS, 1.0 - _AD_EPS)
    terms = np.negative(sorted_rows[:, ::-1])
    np.log1p(terms, out=terms)
    terms += np.log(sorted_rows)
    terms *= 2.0 * np.arange(1, n + 1, dtype=float) - 1.0
    return -n - terms.sum(axis=1) / n


def _row_sums(terms: np.ndarray) -> np.ndarray:
    """Each row of ``terms`` summed left to right, alone or in a batch.

    A tile with more rows than columns adds its columns in turn; any other
    takes the last column of the running sum, so a long lone row is one
    numpy call. Both add in index order and give the same bits (numpy's own
    sum would add a lone row pairwise).
    """
    r, n = terms.shape
    if r <= n:
        return np.cumsum(terms, axis=1)[:, -1]
    out = terms[:, 0].copy()
    for j in range(1, n):
        out += terms[:, j]
    return out


def _ent_stat(sorted_rows: np.ndarray, m: int) -> np.ndarray:
    """Spacing-entropy statistic of window m, already checked against n.

    Each row's logs are summed by :func:`_row_sums`. A zero spacing's log is
    replaced by ``_ENT_LOG_FLOOR``, with a warning.
    """
    n = sorted_rows.shape[1]
    idx = np.arange(1, n + 1)
    hi = np.minimum(idx + m, n) - 1
    lo = np.maximum(idx - m, 1) - 1
    # The gather lays the spacings out one spacing index per column; the log
    # works in that buffer.
    logs = sorted_rows[:, hi]
    logs -= sorted_rows[:, lo]
    logs *= n / (2.0 * m)
    with np.errstate(divide="ignore"):
        np.log(logs, out=logs)
    out = _row_sums(logs) / n
    # Spacings are never negative, and only a zero one makes a mean -inf.
    if np.isneginf(out).any():
        _warn("zero spacings in the spacing-entropy statistic; using a log floor")
        logs[np.isneginf(logs)] = _ENT_LOG_FLOOR
        out = _row_sums(logs) / n
    return out


def competitor_statistic(name: str, x, m: int | None = None):
    """One of the classical statistics: ``ks``, ``cvm``, ``ad`` or ``ent``.

    ``m`` applies to ``ent`` only and defaults to floor(sqrt(n)) + 1.
    """
    test = GofTest(name=name, m=m)
    if test.is_entropy_band:
        raise DomainError(f"unknown competitor {name!r} (known: ks, cvm, ad, ent)")
    srt = _sorted_rows(x, min_n=1, upper=1.0)
    out = _competitor_null_stats(test.resolved(srt.shape[-1]), np.atleast_2d(srt))
    return float(out[0]) if srt.ndim == 1 else out


# --- test descriptors ----------------------------------------------------------

#: Test names and the keys of their specs.
_TEST_KEYS = {"wcrte": ("alpha",), "wcre": (), "ks": (), "cvm": (), "ad": (), "ent": ("m",)}


@dataclass(frozen=True)
class GofTest:
    """A single uniformity test choice.

    ``name`` is one of wcrte, wcre, ks, cvm, ad, ent. ``order`` is required
    for wcrte (must exceed 1), forbidden elsewhere. ``m`` applies to ent only.
    """

    name: str
    order: float | None = None
    m: int | None = None

    def __post_init__(self):
        key = str(self.name).strip().lower()
        if key not in _TEST_KEYS:
            raise DomainError(f"unknown test {self.name!r}")
        object.__setattr__(self, "name", key)
        if key == "wcrte":
            if self.order is None:
                raise DomainError("test wcrte requires an order")
            object.__setattr__(self, "order", _check_order_above_one(self.order))
        elif self.order is not None:
            raise DomainError(f"test {key} takes no order")
        if self.m is not None:
            if key != "ent":
                raise DomainError(f"test {key} takes no window")
            object.__setattr__(self, "m", est._check_window(self.m))

    @property
    def is_entropy_band(self) -> bool:
        """True for the two-sided weighted-measure tests."""
        return self.name in ("wcrte", "wcre")

    @property
    def rejects_low(self) -> bool:
        """True when small statistic values are evidence against uniformity."""
        return self.name == "ent"

    def resolved(self, n: int) -> GofTest:
        """This test at sample size n: ``ent`` with its window filled in and checked against n.

        Every scoring path takes its tests resolved, so a window lives in the test alone.
        """
        if self.name != "ent":
            return self
        m = default_spacing_window(n) if self.m is None else est._check_window(self.m, n)
        return replace(self, m=m)

    def label(self) -> str:
        if self.name == "wcrte":
            return f"wcrte:alpha={order_label(self.order)}"
        if self.name == "ent" and self.m is not None:
            return f"ent:m={self.m}"
        return self.name


def parse_test(text: str) -> GofTest:
    """Parse a test spec: ``wcrte:alpha=2``, ``wcre``, ``ks``, ``ent:m=5``, ..."""
    spec = text.strip()
    name, _, fields = _split_spec(spec, _TEST_KEYS)
    order = _parse_number(fields["alpha"], spec) if "alpha" in fields else None
    m = _parse_number(fields["m"], spec, int) if "m" in fields else None
    try:
        return GofTest(name=name, order=order, m=m)
    except DomainError as exc:
        raise ParseError(f"{spec!r}: {exc}") from None


# --- critical values -----------------------------------------------------------


@dataclass(frozen=True)
class CriticalPair:
    """Two-sided simulated critical values for an entropy-band test."""

    n: int
    order: float | None
    gamma: float
    lower: float
    upper: float
    replications: int

    def __post_init__(self):
        if not (0.0 < self.lower < self.upper):
            raise DomainError(
                f"critical pair must satisfy 0 < lower < upper, got "
                f"({self.lower!r}, {self.upper!r})"
            )
        # The statistic is bounded by a closed-form constant, so a simulated
        # upper quantile beyond it (plus slack for float noise) is a bug.
        bound = statistic_bound(self.order)
        if self.upper > bound + 1e-3:
            raise DomainError(
                f"upper critical value {self.upper!r} exceeds the statistic bound {bound!r}"
            )


#: The ``critical-values`` table: one row per :class:`CriticalPair`.
CRITICAL_COLUMNS = _columns(
    "n", ("alpha", lambda pair, _: order_label(pair.order)), "gamma", "lower", "upper",
    *_RUN_COLUMNS,
)


@dataclass(frozen=True)
class CriticalValue:
    """One-sided simulated critical value for a competitor test."""

    test: str
    n: int
    gamma: float
    value: float
    rejects_low: bool
    m: int | None
    replications: int


def _check_null_grid(sizes, gamma, replications, min_replications: int = 1000):
    """Validated (sizes, level, replications) of a calibration run, checked in that order."""
    sizes = [_check_size(n) for n in sizes]
    try:
        g = float(gamma)
    except (TypeError, ValueError):
        g = math.nan  # fails the rule below
    if not (0.0 < g < 1.0):
        raise DomainError(f"level gamma must lie in (0, 1), got {gamma!r}")
    return sizes, g, _check_size(replications, min_replications, "replications")


#: Values (rows x n) in one tile of a batch. A batch is drawn, transformed,
#: sorted and scored one tile of rows at a time, so its working set does not
#: grow with the replication count; only the statistic vectors do.
_TILE_VALUES = 65_536


def _tiles(replications: int, n: int):
    """``(lo, hi)`` row bounds of the tiles of a (replications, n) batch.

    A tile has max(1, _TILE_VALUES // n) rows, the last one fewer.
    """
    bounds = [*range(0, replications, max(1, _TILE_VALUES // n)), replications]
    return zip(bounds[:-1], bounds[1:])


def _band_rows(tests, n: int) -> list[np.ndarray]:
    """The coefficient row of each entropy-band test of ``tests`` at size n, in order.

    Each test's statistic is the plug-in estimate of its order.
    """
    specs = [est.EstimatorSpec(est.EstimatorKind.EMPIRICAL, t.order) for t in tests
             if t.is_entropy_band]
    rows = est._coefficient_rows((spec, n) for spec in specs)
    return [rows[(spec, n)] for spec in specs]


def _score_rows(rows: np.ndarray, tests, band_rows) -> np.ndarray:
    """Statistics of the resolved ``tests`` on sorted [0, 1] ``rows``: row k for ``tests[k]``.

    The competitors read the sorted rows first. Then, if an entropy-band test
    is scored, the rows are squared once (in place, unless they are
    read-only: a caller that reads them afterwards passes a copy) and the
    band tests are scored in one pass: each is one row of one
    :meth:`~wcrte.estimators._SortedSquares.contract` with its row of
    ``band_rows`` (see :func:`_band_rows`), and all of them get a single
    ``finish``: the contraction and checks of a standalone estimate, so each
    statistic keeps its bits.
    """
    out = np.empty((len(tests), rows.shape[0]))
    band = []
    for k, test in enumerate(tests):
        if test.is_entropy_band:
            band.append(k)
        else:
            out[k] = _competitor_null_stats(test, rows)
    if band:
        squares = est._SortedSquares(rows)
        out[band] = squares.finish(squares.contract(band_rows))
    return out


def _score(stream, n: int, replications: int, tests, transform=None) -> np.ndarray:
    """Statistics of a (replications, n) batch of ``stream``: row k for ``tests[k]``.

    The band rows are built once, before the first tile (:func:`_tiles`).
    Each tile of draws is mapped by ``transform`` (an alternative's in-place
    quantile formula; None keeps the uniform null), sorted and scored; the
    tile is this call's own, so it is mapped and squared in place. Draws,
    transforms, sorts and statistics act row by row, so any tile height, down
    to one row, gives the bits of the whole batch.
    """
    out = np.empty((len(tests), replications))
    band_rows = _band_rows(tests, n)
    for lo, hi in _tiles(replications, n):
        rows = stream.random((hi - lo, n))
        if transform is not None:
            rows = transform(rows)
        rows.sort(axis=1)
        out[:, lo:hi] = _score_rows(rows, tests, band_rows)
    return out


def _competitor_null_stats(test: GofTest, sorted_null: np.ndarray) -> np.ndarray:
    """The statistic of the resolved competitor ``test`` on each sorted row."""
    if test.name == "ks":
        return _ks_stat(sorted_null)
    if test.name == "cvm":
        return _cvm_stat(sorted_null)
    if test.name == "ad":
        return _ad_stat(sorted_null)
    return _ent_stat(sorted_null, test.m)


def _quantile(stats: np.ndarray, q: float) -> float:
    """``np.quantile(stats, q)`` (numpy's default ``linear`` rule), from one partition.

    ``np.quantile`` partitions on several ranks at once; this one needs only
    rank k = floor((R - 1) q), whose successor is the least value above it,
    and it interpolates as numpy does, so the bits are numpy's. NaN, or a
    rank at the top end, goes to ``np.quantile`` itself. ``q`` lies in (0, 1).
    """
    r = stats.size
    v = (r - 1) * q
    k = math.floor(v)
    if k < r - 1:
        part = np.partition(stats, k)
        a, b = part[k], part[k + 1 :].min()
        # NaN sorts last, so any NaN is at rank k or above it.
        if not (math.isnan(a) or math.isnan(b)):
            t = v - k
            diff = b - a
            return float(b - diff * (1 - t) if t >= 0.5 else a + diff * t)
    return float(np.quantile(stats, q))


def _calibrate(test: GofTest, stats: np.ndarray, g: float):
    """Critical values ``(lo, hi)`` of ``test`` at level ``g`` from its null ``stats``.

    Entropy-band tests split the level over both tails; ks, cvm and ad have
    only an upper value, ent only a lower one. A side given as None never
    rejects.
    """
    if test.is_entropy_band:
        return _quantile(stats, g / 2.0), _quantile(stats, 1.0 - g / 2.0)
    if test.rejects_low:
        return _quantile(stats, g), None
    return None, _quantile(stats, 1.0 - g)


def _null_bands(n: int, tests, g: float, replications: int, seed: int) -> list[tuple]:
    """``(lo, hi)`` of each resolved test of ``tests``, all from the (seed, n) null batch."""
    stats = _score(gof_null_stream(seed, n), n, replications, tests)
    return [_calibrate(test, row, g) for test, row in zip(tests, stats)]


def _reject(stats, lo, hi):
    """Inclusive rejection: at or below ``lo``, or at or above ``hi``."""
    return (False if lo is None else stats <= lo) | (False if hi is None else stats >= hi)


def _is_list(value) -> bool:
    """True for a list or tuple: several sizes, orders or tests, not one."""
    return isinstance(value, (list, tuple))


def _listed(value, what: str) -> list:
    """``value`` as a list: a list's or tuple's items, or one value alone.

    An empty list raises DomainError naming ``what``.
    """
    if not _is_list(value):
        return [value]
    if not value:
        raise DomainError(f"need at least one {what}")
    return list(value)


def critical_values(
    n,
    order=None,
    gamma: float = 0.05,
    replications: int = 10_000,
    seed: int = DEFAULT_SEED,
    threads: int | None = None,
) -> CriticalPair | list[CriticalPair]:
    """Simulated two-sided critical pairs for the entropy-band statistic.

    Empirical gamma/2 and 1-gamma/2 quantiles of the null statistic over
    ``replications`` uniform samples of size ``n``. ``n`` and ``order`` each
    take one value or a list or tuple: one of each gives one pair, else a
    list, n by n, each n's pairs in the order of ``order``. Each n's null
    batch is drawn once and scored by every order, as one task on
    ``threads`` threads, largest n first.
    """
    sizes, g, reps = _check_null_grid(_listed(n, "sample size"), gamma, replications)
    tests = [GofTest(name="wcre" if a is None else "wcrte", order=a)
             for a in _listed(order, "order")]

    def calibrate(size: int) -> list[CriticalPair]:
        return [
            CriticalPair(n=size, order=t.order, gamma=g, lower=lo, upper=hi, replications=reps)
            for t, (lo, hi) in zip(tests, _null_bands(size, tests, g, reps, seed))
        ]

    parts = _pool_map(calibrate, sizes, threads, cost=lambda size: size)
    pairs = [pair for part in parts for pair in part]
    return pairs if _is_list(n) or _is_list(order) else pairs[0]


def competitor_critical_value(
    name: str,
    n: int,
    gamma: float = 0.05,
    replications: int = 10_000,
    seed: int = DEFAULT_SEED,
    m: int | None = None,
) -> CriticalValue:
    """Simulated one-sided critical value for ks/cvm/ad/ent.

    Shares its null draws with :func:`critical_values` (see the module docstring).
    """
    [n], g, reps = _check_null_grid([n], gamma, replications)
    test = GofTest(name=name, m=m)
    if test.is_entropy_band:
        raise DomainError("use critical_values for the entropy-band tests")
    test = test.resolved(n)
    [(lo, hi)] = _null_bands(n, [test], g, reps, seed)
    return CriticalValue(
        test=test.name, n=n, gamma=g, value=hi if lo is None else lo,
        rejects_low=test.rejects_low, m=test.m, replications=reps,
    )


# --- running a test -------------------------------------------------------------


@dataclass(frozen=True)
class GofResult:
    """Outcome of one uniformity test on one sample."""

    test: str
    n: int
    order: float | None
    m: int | None
    gamma: float
    statistic: float
    lower: float | None
    upper: float | None
    reject: bool
    replications: int


#: The ``alpha`` and ``m`` columns of a test's row, each blank unless the test
#: reads it: the entropy-band tests read the order (the WCRE's prints as 1),
#: ``ent`` its window.
_TEST_PARAM_COLUMNS = (
    ("alpha", lambda row, _: order_label(row.order) if row.test in ("wcrte", "wcre") else ""),
    ("m", lambda row, _: "" if row.m is None else row.m),
)

#: The ``critical-values --data`` table: one row per :class:`GofResult`, a
#: side without a critical value blank.
GOF_COLUMNS = _columns(
    "test", "n", *_TEST_PARAM_COLUMNS, "gamma",
    ("lower", lambda result, _: "" if result.lower is None else result.lower),
    ("upper", lambda result, _: "" if result.upper is None else result.upper),
    "statistic", "reject",
)


def uniformity_test(
    x,
    test,
    gamma: float = 0.05,
    replications: int = 10_000,
    seed: int = DEFAULT_SEED,
) -> GofResult | list[GofResult]:
    """Run tests on one sample; critical values are simulated on the fly.

    ``test`` is one :class:`GofTest` or spec string, giving one result, or a
    list or tuple of them, giving a list. All of them are calibrated on one
    null batch. Rejection is inclusive at the critical values. Entropy-band
    tests reject outside [lower, upper]; ks/cvm/ad reject at or above their
    value; ent rejects at or below its value.
    """
    srt = _sorted_rows(x, upper=1.0)
    if srt.ndim != 1:
        raise DomainError("uniformity_test takes a single 1-D sample")
    [n], g, reps = _check_null_grid([srt.size], gamma, replications)
    tests = [parse_test(t) if isinstance(t, str) else t for t in _listed(test, "test")]
    scored = [t.resolved(n) for t in tests]
    bands = _null_bands(n, scored, g, reps, seed)
    stats = _score_rows(np.atleast_2d(srt), scored, _band_rows(scored, n))
    results = [
        GofResult(
            test=t.name, n=n, order=t.order, m=t.m, gamma=g,
            statistic=float(stat[0]), lower=lo, upper=hi,
            reject=bool(_reject(stat[0], lo, hi)), replications=reps,
        )
        for t, (lo, hi), stat in zip(scored, bands, stats)
    ]
    return results if _is_list(test) else results[0]


# --- power study -----------------------------------------------------------------


@dataclass(frozen=True)
class PowerCell:
    """Rejection rate of one test against one alternative."""

    alternative: str
    n: int
    test: str
    order: float | None
    m: int | None
    power: float
    replications: int


#: The ``power`` table: one row per :class:`PowerCell`.
POWER_COLUMNS = _columns("alternative", "n", "test", *_TEST_PARAM_COLUMNS, "power", *_RUN_COLUMNS)


def power_study(
    alternatives,
    n,
    tests,
    gamma: float = 0.05,
    replications: int = 10_000,
    seed: int = DEFAULT_SEED,
    threads: int | None = None,
) -> list[PowerCell]:
    """Rejection rates of every test against every alternative at size n.

    ``n`` is one size or a list or tuple of them; the cells come back n by
    n, and within an n one per (alternative, test), alternatives outermost.
    One null batch per n calibrates every test; each alternative gets its
    own stream keyed by n and its position in the list. Passing
    the uniform model as an alternative estimates the empirical size, since
    its draws are independent of the null calibration draws. An alternative
    whose largest draw, ``quantile(nextafter(1, 0))``, exceeds 1 raises
    DomainError.

    The calibration of every n and every (n, alternative) are tasks on
    ``threads`` worker threads (``None`` or 1 runs them in the calling
    thread): the calibrations first, then the alternatives, each group
    largest n first. An alternative's task scores its batch, then takes its
    n's bands, waiting while that n's calibration runs (or making it, if no
    task has started it), and reduces its statistics to cells; so no more
    than ``threads`` alternatives' statistic vectors are held at once. No
    value depends on the thread count.
    """
    sizes, g, reps = _check_null_grid(_listed(n, "sample size"), gamma, replications,
                                      min_replications=100)
    tests = [parse_test(t) if isinstance(t, str) else t for t in tests]
    alternatives = [parse_model(a) if isinstance(a, str) else a for a in alternatives]
    if not tests or not alternatives:
        raise DomainError("need at least one test and one alternative")
    for model in alternatives:
        # The largest uniform draw is nextafter(1, 0), so this bounds every draw.
        top = model.quantile(np.nextafter(1.0, 0.0))
        if not top <= 1.0:
            raise DomainError(
                f"alternative {model.spec_string()} draws values up to {top:g}; "
                "sample values must not exceed 1"
            )
    grids = [(size, [test.resolved(size) for test in tests]) for size in sizes]

    bands: dict[int, list[tuple]] = {}
    locks = [threading.Lock() for _ in grids]

    def bands_of(j: int) -> list[tuple]:
        with locks[j]:
            if j not in bands:
                n, scored = grids[j]
                bands[j] = _null_bands(n, scored, g, reps, seed)
            return bands[j]

    def run(task) -> list[PowerCell]:
        j, ai = task
        if ai is None:
            bands_of(j)
            return []
        n, scored = grids[j]
        model = alternatives[ai]
        stats = _score(gof_alternative_stream(seed, n, ai), n, reps, scored, model._transform)
        return [
            PowerCell(
                alternative=model.spec_string(),
                n=n,
                test=test.name,
                order=test.order,
                m=test.m,
                power=float(_reject(row, lo, hi).mean()),
                replications=reps,
            )
            for test, (lo, hi), row in zip(scored, bands_of(j), stats)
        ]

    # Calibrations before alternatives, then larger n first; the serial run
    # takes the tasks in this list's order, which also puts calibrations first.
    tasks = [(j, None) for j in range(len(grids))]
    tasks += [(j, ai) for j in range(len(grids)) for ai in range(len(alternatives))]
    parts = _pool_map(run, tasks, threads, cost=lambda t: (t[1] is None, grids[t[0]][0]))
    return [cell for part in parts for cell in part]
