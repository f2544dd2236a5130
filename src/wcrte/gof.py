"""Uniformity tests built on the weighted residual measures, plus competitors.

The entropy-based tests reject the standard uniform hypothesis when the
plug-in statistic falls outside a two-sided band of simulated quantiles;
both tails get half of the level, and the band endpoints themselves reject
(closed critical region). The statistic is bounded above by a closed-form
constant, so the upper critical value can never exceed that bound.

Four classical competitors are included for the power study: Kolmogorov-
Smirnov, Cramer-von Mises, Anderson-Darling (all reject for large values)
and a spacing-entropy test (rejects for small values). Their critical
values are simulated under the null with the same draws and replication
budget as the entropy tests, so the power columns are size-matched.

Null draws are keyed by (seed, n) only: a critical pair computed standalone
is identical to the one computed inside a sweep over orders or test kinds.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from . import estimators as est
from .distributions import Model, _parse_number, _split_spec, check_order, order_label, parse_model
from .errors import DomainError, ParseError
from .mc import DEFAULT_SEED, gof_alternative_stream, gof_null_stream
from .sample import _sorted_rows

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
    a = check_order(order)
    if a <= 1.0:
        raise DomainError(f"the statistic bound requires order > 1, got {a:g}")
    return 0.5 * a ** (-a / (a - 1.0))


def null_statistic_value(order=None) -> float:
    """Population value of the statistic under uniformity.

    (a+4)/(6(a+1)(a+2)) for order a; 5/36 for the WCRE limit.
    """
    if order is None:
        return 5.0 / 36.0
    a = check_order(order)
    return (a + 4.0) / (6.0 * (a + 1.0) * (a + 2.0))


def test_statistic_wcrte(x, order):
    """Plug-in statistic of the given order for a [0, 1] sample."""
    return est.wcrte_empirical(est._SortedSquares(*_sorted_rows(x, upper=1.0)), order)


def test_statistic_wcre(x):
    return est.wcre_empirical(est._SortedSquares(*_sorted_rows(x, upper=1.0)))


def default_spacing_window(n: int) -> int:
    """Default window of the spacing-entropy competitor: floor(sqrt(n)) + 1."""
    n = int(n)
    if n < 2:
        raise DomainError(f"need n >= 2, got {n}")
    return int(math.isqrt(n)) + 1


def _ks_stat(sorted_rows: np.ndarray) -> np.ndarray:
    n = sorted_rows.shape[1]
    i = np.arange(1, n + 1, dtype=float)
    d_plus = (i / n - sorted_rows).max(axis=1)
    d_minus = (sorted_rows - (i - 1.0) / n).max(axis=1)
    return np.maximum(d_plus, d_minus)


def _cvm_stat(sorted_rows: np.ndarray) -> np.ndarray:
    n = sorted_rows.shape[1]
    grid = (2.0 * np.arange(1, n + 1, dtype=float) - 1.0) / (2.0 * n)
    return ((sorted_rows - grid) ** 2).sum(axis=1) + 1.0 / (12.0 * n)


def _ad_stat(sorted_rows: np.ndarray) -> np.ndarray:
    n = sorted_rows.shape[1]
    clamped = np.clip(sorted_rows, _AD_EPS, 1.0 - _AD_EPS)
    if np.any(clamped != sorted_rows):
        warnings.warn(
            "observations at 0 or 1 clamped for the Anderson-Darling logs",
            stacklevel=3,
        )
    coef = 2.0 * np.arange(1, n + 1, dtype=float) - 1.0
    inner = (coef * (np.log(clamped) + np.log1p(-clamped[:, ::-1]))).sum(axis=1)
    return -n - inner / n


def _ent_stat(sorted_rows: np.ndarray, m: int) -> np.ndarray:
    n = sorted_rows.shape[1]
    mi = est._check_window(n, m)
    idx = np.arange(1, n + 1)
    hi = np.minimum(idx + mi, n) - 1
    lo = np.maximum(idx - mi, 1) - 1
    gaps = sorted_rows[:, hi] - sorted_rows[:, lo]
    scaled = gaps * (n / (2.0 * mi))
    with np.errstate(divide="ignore"):
        logs = np.log(scaled)
    if np.any(gaps <= 0.0):
        warnings.warn(
            "zero spacings in the spacing-entropy statistic; using a log floor",
            stacklevel=3,
        )
        logs = np.where(gaps > 0.0, logs, _ENT_LOG_FLOOR)
    return logs.mean(axis=1)


def competitor_statistic(name: str, x, m: int | None = None):
    """One of the classical statistics: ``ks``, ``cvm``, ``ad`` or ``ent``.

    ``m`` applies to ``ent`` only and defaults to floor(sqrt(n)) + 1.
    """
    test = GofTest(name=name, m=m)
    if test.is_entropy_band:
        raise DomainError(f"unknown competitor {name!r} (known: ks, cvm, ad, ent)")
    rows, single = _sorted_rows(x, min_n=1, upper=1.0)
    out = _competitor_null_stats(test, rows, test.resolved_m(rows.shape[1]))
    return float(out[0]) if single else out


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
                raise DomainError("test wcrte requires an order above 1")
            a = check_order(self.order)
            if a <= 1.0:
                raise DomainError(f"test wcrte requires order > 1, got {a:g}")
            object.__setattr__(self, "order", a)
        elif self.order is not None:
            raise DomainError(f"test {key} takes no order")
        if self.m is not None:
            if key != "ent":
                raise DomainError(f"test {key} takes no window")
            mi = int(self.m)
            if mi != self.m or mi < 1:
                raise DomainError(f"window must be a positive integer, got {self.m!r}")
            object.__setattr__(self, "m", mi)

    @property
    def is_entropy_band(self) -> bool:
        """True for the two-sided weighted-measure tests."""
        return self.name in ("wcrte", "wcre")

    @property
    def rejects_low(self) -> bool:
        """True when small statistic values are evidence against uniformity."""
        return self.name == "ent"

    def resolved_m(self, n: int) -> int | None:
        if self.name != "ent":
            return None
        return self.m if self.m is not None else default_spacing_window(n)

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


def _check_null_grid(n, gamma, replications, min_replications: int = 1000):
    """Validated (n, level, replications) of a calibration run."""
    n = int(n)
    if n < 2:
        raise DomainError(f"need n >= 2, got {n}")
    g = float(gamma)
    if not (0.0 < g < 1.0):
        raise DomainError(f"level gamma must lie in (0, 1), got {gamma!r}")
    reps = int(replications)
    if reps < min_replications:
        raise DomainError(
            f"need at least {min_replications} replications, got {replications!r}"
        )
    return n, g, reps


def _null_sorted_draws(n: int, replications: int, seed: int) -> np.ndarray:
    stream = gof_null_stream(seed, n)
    draws = stream.random((replications, n))
    draws.sort(axis=1)
    return draws


def _statistics(test: GofTest, sorted_rows: np.ndarray, m: int | None) -> np.ndarray:
    """Statistic of ``test`` on each row of sorted [0, 1] observations."""
    if test.is_entropy_band:
        spec = est.EstimatorSpec(est.EstimatorKind.EMPIRICAL, test.order)
        return est.estimate(spec, est._SortedSquares(sorted_rows, False))
    return _competitor_null_stats(test, sorted_rows, m)


def _competitor_null_stats(test: GofTest, sorted_null: np.ndarray, m: int | None) -> np.ndarray:
    if test.name == "ks":
        return _ks_stat(sorted_null)
    if test.name == "cvm":
        return _cvm_stat(sorted_null)
    if test.name == "ad":
        return _ad_stat(sorted_null)
    return _ent_stat(sorted_null, m)


def _calibrate(test: GofTest, sorted_null: np.ndarray, g: float, m: int | None):
    """Critical values ``(lo, hi)`` of ``test`` at level ``g``.

    Entropy-band tests split the level over both tails; ks, cvm and ad have
    only an upper value, ent only a lower one. A side given as None never
    rejects.
    """
    stats = _statistics(test, sorted_null, m)
    if test.is_entropy_band:
        lo, hi = np.quantile(stats, [g / 2.0, 1.0 - g / 2.0])
        return float(lo), float(hi)
    if test.rejects_low:
        return float(np.quantile(stats, g)), None
    return None, float(np.quantile(stats, 1.0 - g))


def _reject(stats, lo, hi):
    """Inclusive rejection: at or below ``lo``, or at or above ``hi``."""
    return (False if lo is None else stats <= lo) | (False if hi is None else stats >= hi)


def critical_values(
    n: int,
    order=None,
    gamma: float = 0.05,
    replications: int = 10_000,
    seed: int = DEFAULT_SEED,
) -> CriticalPair:
    """Simulated two-sided critical pair for the entropy-band statistic.

    Empirical gamma/2 and 1-gamma/2 quantiles of the null statistic over
    ``replications`` uniform samples of size ``n``. The draws depend only on
    (seed, n), so pairs for different orders share them.
    """
    n, g, reps = _check_null_grid(n, gamma, replications)
    test = GofTest(name="wcre") if order is None else GofTest(name="wcrte", order=order)
    lower, upper = _calibrate(test, _null_sorted_draws(n, reps, seed), g, None)
    return CriticalPair(
        n=n, order=test.order, gamma=g, lower=lower, upper=upper, replications=reps,
    )


def competitor_critical_value(
    name: str,
    n: int,
    gamma: float = 0.05,
    replications: int = 10_000,
    seed: int = DEFAULT_SEED,
    m: int | None = None,
) -> CriticalValue:
    """Simulated one-sided critical value for ks/cvm/ad/ent.

    Shares its null draws with :func:`critical_values` for the same
    (seed, n, replications).
    """
    test = GofTest(name=name, m=m)
    if test.is_entropy_band:
        raise DomainError("use critical_values for the entropy-band tests")
    n, g, reps = _check_null_grid(n, gamma, replications)
    resolved_m = test.resolved_m(n)
    lo, hi = _calibrate(test, _null_sorted_draws(n, reps, seed), g, resolved_m)
    return CriticalValue(
        test=test.name, n=n, gamma=g, value=hi if lo is None else lo,
        rejects_low=test.rejects_low, m=resolved_m, replications=reps,
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


def uniformity_test(
    x,
    test: GofTest | str,
    gamma: float = 0.05,
    replications: int = 10_000,
    seed: int = DEFAULT_SEED,
) -> GofResult:
    """Run one test on one sample; critical values are simulated on the fly.

    Rejection is inclusive at the critical values. Entropy-band tests reject
    outside [lower, upper]; ks/cvm/ad reject at or above their value; ent
    rejects at or below its value.
    """
    if isinstance(test, str):
        test = parse_test(test)
    rows, single = _sorted_rows(x, upper=1.0)
    if not single:
        raise DomainError("uniformity_test takes a single 1-D sample")
    n, g, reps = _check_null_grid(rows.shape[1], gamma, replications)
    m = test.resolved_m(n)
    lo, hi = _calibrate(test, _null_sorted_draws(n, reps, seed), g, m)
    stat = float(_statistics(test, rows, m)[0])
    return GofResult(
        test=test.name, n=n, order=test.order, m=m, gamma=g,
        statistic=stat, lower=lo, upper=hi,
        reject=bool(_reject(stat, lo, hi)), replications=reps,
    )


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


def power_study(
    alternatives,
    n: int,
    tests,
    gamma: float = 0.05,
    replications: int = 10_000,
    seed: int = DEFAULT_SEED,
) -> list[PowerCell]:
    """Rejection rates of every test against every alternative at size n.

    Null draws are shared across tests (keyed by (seed, n)); each alternative
    gets its own stream keyed by its position in the list. Passing the
    uniform model as an alternative estimates the empirical size, since its
    draws are independent of the null calibration draws.
    """
    n, g, reps = _check_null_grid(n, gamma, replications, min_replications=100)
    tests = [parse_test(t) if isinstance(t, str) else t for t in tests]
    alternatives = [parse_model(a) if isinstance(a, str) else a for a in alternatives]
    if not tests or not alternatives:
        raise DomainError("need at least one test and one alternative")

    # Calibrate every test once on the shared null draws.
    sorted_null = _null_sorted_draws(n, reps, seed)
    bands = []
    for test in tests:
        m = test.resolved_m(n)
        bands.append((test, m, *_calibrate(test, sorted_null, g, m)))

    cells: list[PowerCell] = []
    for ai, alt in enumerate(alternatives):
        model: Model = alt
        stream = gof_alternative_stream(seed, n, ai)
        draws = model.quantile(stream.random((reps, n)))
        draws = np.sort(draws, axis=1)
        for test, m, lo, hi in bands:
            reject = _reject(_statistics(test, draws, m), lo, hi)
            cells.append(
                PowerCell(
                    alternative=model.spec_string(),
                    n=n,
                    test=test.name,
                    order=test.order,
                    m=m,
                    power=float(reject.mean()),
                    replications=reps,
                )
            )
    return cells
