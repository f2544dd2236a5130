"""Independent reference computations for the benchmark's correctness gate.

Nothing here calls into ``wcrte``. Samples are regenerated from the
package's documented stream keying (a Philox generator per
``(seed, purpose, *key)``: purpose 1 for study blocks keyed by model position
and n, 2 for uniformity-test null draws keyed by n, 3 for power-study
alternatives keyed by n and alternative position). Every estimator is
evaluated as a linear functional of the sorted squares, built from its
defining sum, so a disagreement with the package means one of the two
computes the wrong quantity.

Each ``expect_*`` function returns reference values for one pass of a
workload and each ``compare_*`` function returns the outputs that disagree.
"""

from __future__ import annotations

import math
import re
from functools import lru_cache

import numpy as np

from spec import TOL, TOL_ESTIMATE, TOL_SE

_PURPOSE_MC, _PURPOSE_NULL, _PURPOSE_ALT = 1, 2, 3


def close(got, want, tol: float = TOL, floor: float = 1.0) -> bool:
    """``got`` lies within ``tol * max(floor, |want|)`` of ``want``."""
    return math.isfinite(got) and abs(got - want) <= tol * max(floor, abs(want))


def uniforms(seed: int, key: tuple[int, ...], shape) -> np.ndarray:
    ss = np.random.SeedSequence(entropy=int(seed), spawn_key=tuple(int(k) for k in key))
    return np.random.Generator(np.random.Philox(seed=ss)).random(shape)


# --- models -------------------------------------------------------------------


def _parse_spec(text: str) -> tuple[str, list[str], dict[str, float]]:
    head, _, rest = text.partition(":")
    flags, params = [], {}
    for piece in filter(None, (p.strip() for p in rest.split(","))):
        key, eq, val = piece.partition("=")
        if eq:
            params[key] = float(val)
        else:
            flags.append(piece)
    return head, flags, params


def quantile(model: str, u: np.ndarray) -> np.ndarray:
    """Inverse CDF of a model spec such as ``exp:lambda=1`` or ``alt:B,j=2``."""
    family, flags, p = _parse_spec(model)
    if family == "exp":
        return -np.log1p(-u) / p["lambda"]
    if family == "uniform":
        return u * p["theta"]
    if family == "weibull":
        return (-np.log1p(-u)) ** (1.0 / p["p"]) / p["lambda"]
    if family == "rayleigh":
        return p["sigma"] * np.sqrt(-2.0 * np.log1p(-u))
    if family == "alt":
        j = p["j"]
        c = 2.0 ** (j - 1.0)
        if flags == ["A"]:
            return 1.0 - (1.0 - u) ** (1.0 / j)
        if flags == ["B"]:
            lo = (u / c) ** (1.0 / j)
            hi = 1.0 - (np.maximum(1.0 - u, 0.0) / c) ** (1.0 / j)
        else:
            lo = 0.5 - (np.maximum(0.5 - u, 0.0) / c) ** (1.0 / j)
            hi = 0.5 + (np.maximum(u - 0.5, 0.0) / c) ** (1.0 / j)
        return np.where(u <= 0.5, lo, hi)
    raise ValueError(f"no oracle quantile for {model!r}")


def published_truth(model: str, a: float) -> float:
    """Closed-form order-``a`` measure in the published tables' convention."""
    family, _, p = _parse_spec(model)
    if family == "exp":
        return (a + 1.0) / (a * p["lambda"] ** 2)
    if family == "uniform":
        return p["theta"] ** 2 * (a + 4.0) / (6.0 * (a + 1.0) * (a + 2.0))
    if family == "weibull":
        q = p["p"]
        return math.gamma(2.0 / q) * (1.0 - a ** (-2.0 / q)) / (q * p["lambda"] ** 2 * (a - 1.0))
    if family == "rayleigh":
        return p["sigma"] ** 2 / a
    raise ValueError(f"no closed form for {model!r}")


# --- estimators as functionals of the sorted squares --------------------------


def _tail_weights(n: int, order) -> np.ndarray:
    """w_i for i = 1..n with t = 1 - i/n: t - t**a, or -t log t for the WCRE."""
    t = 1.0 - np.arange(1, n + 1, dtype=float) / n
    if order is not None:
        return t - t**order
    w = np.zeros(n)
    w[:-1] = -t[:-1] * np.log(t[:-1])
    return w


def estimator_values(kind: str, order, m, s2: np.ndarray) -> np.ndarray:
    """Estimates for each row of sorted squares ``s2`` (shape (B, n))."""
    n = s2.shape[1]
    scale = 1.0 if order is None else order - 1.0
    if kind == "empirical":
        return (np.diff(s2, axis=1) * _tail_weights(n, order)[:-1]).sum(axis=1) / (2.0 * scale)
    if kind == "lstat":
        i = np.arange(1, n + 1, dtype=float)
        if order is None:
            return -(s2 * (1.0 + np.log(1.0 - i / (n + 1)))).sum(axis=1) / (2.0 * n)
        coef = 1.0 - order * (1.0 - i / n) ** (order - 1.0)
        return (s2 * coef).sum(axis=1) / (2.0 * scale * n)
    i = np.arange(1, n + 1)
    gaps = s2[:, np.minimum(i + m, n) - 1] - s2[:, np.maximum(i - m, 1) - 1]
    edge = np.where(i <= m, 1.0 + (i - 1.0) / m, np.where(i >= n - m + 1, 1.0 + (n - i) / m, 2.0))
    denom = {"vasicek": 4.0 * m, "ebrahimi": 2.0 * m * edge, "modified_n": m * edge * edge}[kind]
    return (gaps * _tail_weights(n, order) / denom).sum(axis=1) / scale


@lru_cache(maxsize=None)
def coefficients(kind: str, order, m, n: int) -> np.ndarray:
    """The estimator as a vector c with estimate = sorted_squares @ c."""
    return estimator_values(kind, order, m, np.eye(n))


def lstat_variance(order, s2: np.ndarray) -> float:
    """Variance companion of the L-statistic for one sample of sorted squares.

    sum over 1 <= j < i <= n-1 of (j/n)(1-i/n) c_i c_j d_i d_j, with
    d_i = s2_(i+1) - s2_(i), divided by 2(a-1)^2 (by 2 for the WCRE).
    """
    n = s2.size
    i = np.arange(1, n, dtype=float)
    c = 1.0 + np.log(1.0 - i / n) if order is None else 1.0 - order * (1.0 - i / n) ** (order - 1.0)
    cd = c * np.diff(s2)
    below = np.concatenate(([0.0], np.cumsum(i / n * cd)[:-1]))  # sum over j < i
    total = float(((1.0 - i / n) * cd * below).sum())
    return total / 2.0 if order is None else total / (2.0 * (order - 1.0) ** 2)


def _moments(values: np.ndarray) -> tuple[float, float]:
    mean = float(values.mean())
    return mean, float(((values - mean) ** 2).mean())


def _windows(kind: str, n: int):
    if kind in ("empirical", "lstat"):
        return (None,)
    return tuple(range(1, math.ceil(n / 2)))


def study_moments(models, sizes, orders, kinds, replications: int, seed: int) -> dict:
    """(model, n, order, kind, window) -> (mean, variance) of the estimates.

    Windowed kinds cover every admissible window (the "sweep" setting).
    """
    out = {}
    for mi, model in enumerate(models):
        for n in sizes:
            x = np.sort(quantile(model, uniforms(seed, (_PURPOSE_MC, mi, n), (replications, n))), axis=1)
            s2 = x * x
            for order in orders:
                for kind in kinds:
                    for m in _windows(kind, n):
                        values = s2 @ coefficients(kind, order, m, n)
                        out[(model, n, order, kind, m)] = _moments(values)
    return out


# --- sweep --------------------------------------------------------------------


def cell_moments(cells) -> dict:
    """Truth-free view of ``run_study`` cells: mean estimate and variance.

    bias + truth is the mean estimate and mse - bias**2 its variance, so a
    change of the truth a cell is scored against does not read as an error.
    """
    return {
        (c.model, c.n, c.order, c.kind.value, c.window): (c.bias + c.truth, c.mse - c.bias * c.bias)
        for c in cells
    }


def compare_moments(got: dict, want: dict) -> set:
    """Keys of expected cells that are missing or off, plus unexpected keys."""
    bad = {key for key in got if key not in want}
    for key, (mean, var) in want.items():
        g = got.get(key)
        if g is None or not (close(g[0], mean) and close(g[1], var)):
            bad.add(key)
    return bad


# --- verify -------------------------------------------------------------------


def _first(rows, field):
    return tuple(dict.fromkeys(r[field] for r in rows))


def _null_sorted(seed: int, n: int, replications: int) -> np.ndarray:
    return np.sort(uniforms(seed, (_PURPOSE_NULL, n), (replications, n)), axis=1)


def _entropy_stat(order, sorted_rows: np.ndarray) -> np.ndarray:
    s2 = sorted_rows * sorted_rows
    return s2 @ coefficients("empirical", order, None, sorted_rows.shape[1])


def competitor_stat(name: str, u: np.ndarray) -> np.ndarray:
    """ks, cvm, ad or ent (window floor(sqrt(n)) + 1) on sorted [0, 1] rows."""
    n = u.shape[1]
    i = np.arange(1, n + 1, dtype=float)
    if name == "ks":
        return np.maximum((i / n - u).max(axis=1), (u - (i - 1.0) / n).max(axis=1))
    if name == "cvm":
        return 1.0 / (12.0 * n) + ((u - (2.0 * i - 1.0) / (2.0 * n)) ** 2).sum(axis=1)
    if name == "ad":
        v = np.clip(u, 1e-12, 1.0 - 1e-12)
        return -n - ((2.0 * i - 1.0) * (np.log(v) + np.log(1.0 - v[:, ::-1]))).sum(axis=1) / n
    if name == "ent":
        m = math.isqrt(n) + 1
        k = np.arange(1, n + 1)
        gaps = u[:, np.minimum(k + m, n) - 1] - u[:, np.maximum(k - m, 1) - 1]
        with np.errstate(divide="ignore"):
            logs = np.where(gaps > 0.0, np.log(n * gaps / (2.0 * m)), -745.0)
        return logs.mean(axis=1)
    raise ValueError(f"unknown competitor {name!r}")


def _order(alpha) -> float | None:
    a = float(alpha)
    return None if a == 1.0 else a


def _test_order(label: str):
    """Order of an entropy-band test label, or the label itself for competitors."""
    if label == "wcre":
        return None
    if label.startswith("wcrte:alpha="):
        return float(label.split("=", 1)[1])
    return label


def _power_bounds(test: str, null: np.ndarray, alt: np.ndarray, gamma: float) -> tuple[int, int]:
    """Fewest and most rejections consistent with round-off near the band."""
    order = _test_order(test)
    if isinstance(order, str):
        stat_null, stat_alt = competitor_stat(order, null), competitor_stat(order, alt)
        if order == "ent":  # rejects small values
            lo, hi = float(np.quantile(stat_null, gamma)), math.inf
        else:
            lo, hi = -math.inf, float(np.quantile(stat_null, 1.0 - gamma))
    else:
        stat_null, stat_alt = _entropy_stat(order, null), _entropy_stat(order, alt)
        lo, hi = (float(q) for q in np.quantile(stat_null, [gamma / 2.0, 1.0 - gamma / 2.0]))
    margin = 1e-10 * max(1.0, np.abs(stat_null).max())
    sure = (stat_alt < lo - margin) | (stat_alt > hi + margin)
    maybe = (np.abs(stat_alt - lo) <= margin) | (np.abs(stat_alt - hi) <= margin)
    return int(sure.sum()), int(sure.sum() + maybe.sum())


def expect_verify(tables: dict, table_ids, seed: int) -> list[tuple]:
    """Expected report rows in the package's order: (table, n, metric, check).

    ``check`` is ("value", x) for bias, MSE and critical values, and
    ("count", low, high, R) for a power, whose rejection count k = power * R
    must lie in [low, high].
    """
    out: list[tuple] = []
    for tid in table_ids:
        group = tables[str(tid)]
        rows, R = group["rows"], int(group["replications"])
        if group["kind"] in ("bias_mse_plain", "bias_mse_windowed"):
            a = float(group["order"])
            if group["kind"] == "bias_mse_plain":
                models, kinds = _first(rows, "model"), _first(rows, "estimator")
            else:
                models, kinds = (group["model"],), ("vasicek", "ebrahimi", "modified_n")
            moments = study_moments(models, _first(rows, "n"), (a,), kinds, R, seed)
            for r in rows:
                model = r.get("model", group.get("model"))
                kind = r.get("estimator", r.get("kind"))
                mean, var = moments[(model, int(r["n"]), a, kind, r.get("m"))]
                bias = mean - published_truth(model, a)
                out.append((tid, int(r["n"]), "bias", ("value", bias)))
                out.append((tid, int(r["n"]), "mse", ("value", var + bias * bias)))
        elif group["kind"] == "critical_values":
            g = float(group["gamma"])
            for r in rows:
                n = int(r["n"])
                stats = _entropy_stat(_order(r["alpha"]), _null_sorted(seed, n, R))
                lower, upper = np.quantile(stats, [g / 2.0, 1.0 - g / 2.0])
                out.append((tid, n, "lower", ("value", float(lower))))
                out.append((tid, n, "upper", ("value", float(upper))))
        else:
            g = float(group["gamma"])
            alts = _first(rows, "alternative")
            bounds = {}
            for n in _first(rows, "n"):
                null = _null_sorted(seed, n, R)
                for ai, alt in enumerate(alts):
                    u = uniforms(seed, (_PURPOSE_ALT, n, ai), (R, n))
                    x = np.sort(quantile(alt, u), axis=1)
                    for test in _first(rows, "test"):
                        bounds[(n, alt, test)] = _power_bounds(test, null, x, g)
            for r in rows:
                low, high = bounds[(int(r["n"]), r["alternative"], r["test"])]
                out.append((tid, int(r["n"]), "power", ("count", low, high, R)))
    return out


def _row_ok(row: dict, want: tuple) -> bool:
    tid, n, metric, check = want
    if int(row["table"]) != tid or int(row["n"]) != n or row["metric"] != metric:
        return False
    got = float(row["computed"])
    if check[0] == "value":
        return close(got, check[1])
    _, low, high, R = check
    k = round(got * R)
    return abs(got - k / R) <= 1e-12 and low <= k <= high


def compare_rows(rows: list[dict], expected: list[tuple]) -> set[int]:
    """Positions of rows that disagree; a missing or extra row counts too."""
    bad = set(range(min(len(rows), len(expected)), max(len(rows), len(expected))))
    return bad | {i for i, (row, want) in enumerate(zip(rows, expected)) if not _row_ok(row, want)}


# --- estimate -----------------------------------------------------------------

_LINE = re.compile(r"^(?P<label>\S+)\s+estimate=(?P<est>\S+)(?:.*?\bse=(?P<se>\S+))?")


def parse_estimate_output(text: str) -> list[tuple[str, float, float | None]]:
    """(label, estimate, se or None) per line of `wcrte estimate` output."""
    out = []
    for line in text.splitlines():
        match = _LINE.match(line)
        if match is None:
            raise ValueError(f"unparsed estimate line: {line!r}")
        se = match["se"]
        out.append((match["label"], float(match["est"]), None if se is None else float(se)))
    return out


def _parse_label(label: str) -> tuple[str, float | None, int | None]:
    measure, _, rest = label.partition(":")
    kind, *pairs = rest.split(",")
    params = dict(p.split("=", 1) for p in pairs)
    order = float(params["alpha"]) if measure == "wcrte" else None
    return kind, order, int(params["m"]) if "m" in params else None


def expect_estimates(values: np.ndarray, labels) -> list[tuple[str, float, float | None]]:
    """Reference (label, estimate, se) for the labels `wcrte estimate` printed."""
    x = np.sort(values)
    s2 = (x * x)[None, :]
    out = []
    for label in labels:
        kind, order, m = _parse_label(label)
        est = float(estimator_values(kind, order, m, s2)[0])
        se = math.sqrt(lstat_variance(order, s2[0]) / x.size) if kind == "lstat" else None
        out.append((label, est, se))
    return out


def compare_estimates(got, want) -> set[int]:
    """Positions of printed estimates that disagree, missing or extra ones too."""
    bad = set(range(min(len(got), len(want)), max(len(got), len(want))))
    for i, ((label, est, se), (wlabel, west, wse)) in enumerate(zip(got, want)):
        # Printed values carry relative, not absolute, precision.
        ok = label == wlabel and close(est, west, TOL_ESTIMATE, floor=0.0)
        if wse is not None:
            ok = ok and se is not None and close(se, wse, TOL_SE, floor=0.0)
        if not ok:
            bad.add(i)
    return bad
