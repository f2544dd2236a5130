"""Independent direct-summation oracles, deliberately written the slow way.

Every function here transcribes a summation formula literally with plain
Python loops and lists, with none of the vectorization or algebraic
factoring the package uses, so agreement is meaningful evidence that the
fast implementations compute the right quantity.

The last section is different: it keeps the earlier whole-batch numpy forms
of the four competitor statistics and of the two-branch alternative quantile
verbatim, and the earlier study-cell reduction, coefficient builder and
per-test tile scorer, so that the leaner kernels can be held to their exact
bits.
"""

import math

import numpy as np


def _sorted_squares(xs):
    return [v * v for v in sorted(xs)]


def _clamped(s2, i):
    """s2 entry for 1-based index i pulled into [1, n]."""
    n = len(s2)
    return s2[max(1, min(n, i)) - 1]


def _c_weight(n, m, i):
    """Ebrahimi edge coefficient for 1-based index i."""
    if i <= m:
        return 1.0 + (i - 1) / m
    if i >= n - m + 1:
        return 1.0 + (n - i) / m
    return 2.0


def wcrte_empirical(xs, a):
    s2 = _sorted_squares(xs)
    n = len(xs)
    total = 0.0
    for i in range(1, n):
        tail = 1.0 - i / n
        total += (s2[i] - s2[i - 1]) * (tail - tail ** a)
    return total / (2.0 * (a - 1.0))


def wcrte_vasicek(xs, a, m):
    s2 = _sorted_squares(xs)
    n = len(xs)
    total = 0.0
    for i in range(1, n + 1):
        tail = 1.0 - i / n
        gap = _clamped(s2, i + m) - _clamped(s2, i - m)
        total += gap * (tail - tail ** a)
    return total / (4.0 * m * (a - 1.0))


def wcrte_ebrahimi(xs, a, m):
    s2 = _sorted_squares(xs)
    n = len(xs)
    total = 0.0
    for i in range(1, n + 1):
        tail = 1.0 - i / n
        gap = _clamped(s2, i + m) - _clamped(s2, i - m)
        total += gap / _c_weight(n, m, i) * (tail - tail ** a)
    return total / (2.0 * m * (a - 1.0))


def wcrte_modified_n(xs, a, m):
    s2 = _sorted_squares(xs)
    n = len(xs)
    total = 0.0
    for i in range(1, n + 1):
        tail = 1.0 - i / n
        gap = _clamped(s2, i + m) - _clamped(s2, i - m)
        total += gap / _c_weight(n, m, i) ** 2 * (tail - tail ** a)
    return total / (m * (a - 1.0))


def wcrte_lstat(xs, a, plotting="n"):
    s2 = _sorted_squares(xs)
    n = len(xs)
    total = 0.0
    for i in range(1, n + 1):
        p = i / n if plotting == "n" else i / (n + 1)
        total += s2[i - 1] * (1.0 - a * (1.0 - p) ** (a - 1.0))
    return total / (2.0 * (a - 1.0) * n)


def wcre_empirical(xs):
    s2 = _sorted_squares(xs)
    n = len(xs)
    total = 0.0
    for i in range(1, n):
        tail = 1.0 - i / n
        total += (s2[i] - s2[i - 1]) * tail * math.log(tail)
    return -total / 2.0


def wcre_vasicek(xs, m):
    s2 = _sorted_squares(xs)
    n = len(xs)
    total = 0.0
    for i in range(1, n):
        tail = 1.0 - i / n
        gap = _clamped(s2, i + m) - _clamped(s2, i - m)
        total += gap * tail * math.log(tail)
    return -total / (4.0 * m)


def wcre_ebrahimi(xs, m):
    s2 = _sorted_squares(xs)
    n = len(xs)
    total = 0.0
    for i in range(1, n):
        tail = 1.0 - i / n
        gap = _clamped(s2, i + m) - _clamped(s2, i - m)
        total += gap / _c_weight(n, m, i) * tail * math.log(tail)
    return -total / (2.0 * m)


def wcre_modified_n(xs, m):
    s2 = _sorted_squares(xs)
    n = len(xs)
    total = 0.0
    for i in range(1, n):
        tail = 1.0 - i / n
        gap = _clamped(s2, i + m) - _clamped(s2, i - m)
        total += gap / _c_weight(n, m, i) ** 2 * tail * math.log(tail)
    return -total / m


def wcre_lstat(xs, plotting="n+1"):
    s2 = _sorted_squares(xs)
    n = len(xs)
    total = 0.0
    for i in range(1, n + 1):
        p = i / n if plotting == "n" else i / (n + 1)
        if p >= 1.0:
            continue
        total += s2[i - 1] * (1.0 + math.log(1.0 - p))
    return -total / (2.0 * n)


def wcrte_lstat_variance(xs, a):
    s2 = _sorted_squares(xs)
    n = len(xs)
    d = [s2[i] - s2[i - 1] for i in range(1, n)]
    total = 0.0
    for j in range(1, n):
        for i in range(j + 1, n):
            ci = 1.0 - a * (1.0 - i / n) ** (a - 1.0)
            cj = 1.0 - a * (1.0 - j / n) ** (a - 1.0)
            total += (j / n) * (1.0 - i / n) * ci * cj * d[i - 1] * d[j - 1]
    return total / (2.0 * (a - 1.0) ** 2)


def wcre_lstat_variance(xs):
    s2 = _sorted_squares(xs)
    n = len(xs)
    d = [s2[i] - s2[i - 1] for i in range(1, n)]
    total = 0.0
    for j in range(1, n):
        for i in range(j + 1, n):
            ci = 1.0 + math.log(1.0 - i / n)
            cj = 1.0 + math.log(1.0 - j / n)
            total += (j / n) * (1.0 - i / n) * ci * cj * d[i - 1] * d[j - 1]
    return total / 2.0


def ks_statistic(xs):
    s = sorted(xs)
    n = len(s)
    best = 0.0
    for i in range(1, n + 1):
        best = max(best, i / n - s[i - 1], s[i - 1] - (i - 1) / n)
    return best


def cvm_statistic(xs):
    s = sorted(xs)
    n = len(s)
    total = 1.0 / (12.0 * n)
    for i in range(1, n + 1):
        total += (s[i - 1] - (2.0 * i - 1.0) / (2.0 * n)) ** 2
    return total


def ad_statistic(xs):
    s = sorted(xs)
    n = len(s)
    total = 0.0
    for i in range(1, n + 1):
        total += (2.0 * i - 1.0) * (math.log(s[i - 1]) + math.log(1.0 - s[n - i]))
    return -n - total / n


def ent_statistic(xs, m):
    s = sorted(xs)
    n = len(s)
    total = 0.0
    for k in range(1, n + 1):
        gap = s[min(k + m, n) - 1] - s[max(k - m, 1) - 1]
        total += math.log(n * gap / (2.0 * m))
    return total / n


def read_sample(path):
    """Observations of a data file, read line by line in text mode.

    The format's literal definition: ``#`` starts a comment, blank lines are
    skipped, and each other line is one ``float``. Raises ParseError with the
    messages of ``wcrte.read_sample`` for a bad line or fewer than two values.
    """
    from wcrte.errors import ParseError

    values = []
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
        raise ParseError(f"{path}: need n >= 2, got {len(values)}")
    return values


# --- bitwise references: the earlier whole-batch kernels, verbatim ------------


def ks_rows(sorted_rows):
    n = sorted_rows.shape[1]
    i = np.arange(1, n + 1, dtype=float)
    d_plus = (i / n - sorted_rows).max(axis=1)
    d_minus = (sorted_rows - (i - 1.0) / n).max(axis=1)
    return np.maximum(d_plus, d_minus)


def cvm_rows(sorted_rows):
    n = sorted_rows.shape[1]
    grid = (2.0 * np.arange(1, n + 1, dtype=float) - 1.0) / (2.0 * n)
    return ((sorted_rows - grid) ** 2).sum(axis=1) + 1.0 / (12.0 * n)


def ad_rows(sorted_rows, eps=1e-12):
    n = sorted_rows.shape[1]
    clamped = np.clip(sorted_rows, eps, 1.0 - eps)
    coef = 2.0 * np.arange(1, n + 1, dtype=float) - 1.0
    inner = (coef * (np.log(clamped) + np.log1p(-clamped[:, ::-1]))).sum(axis=1)
    return -n - inner / n


def ent_rows(sorted_rows, m, floor=-745.0):
    n = sorted_rows.shape[1]
    idx = np.arange(1, n + 1)
    hi = np.minimum(idx + m, n) - 1
    lo = np.maximum(idx - m, 1) - 1
    gaps = sorted_rows[:, hi] - sorted_rows[:, lo]
    scaled = gaps * (n / (2.0 * m))
    with np.errstate(divide="ignore"):
        logs = np.log(scaled)
    if np.any(gaps <= 0.0):
        logs = np.where(gaps > 0.0, logs, floor)
    # Each row adds its logs in index order, alone or in a batch.
    total = logs[:, 0].copy()
    for j in range(1, n):
        total += logs[:, j]
    return total / n


def stephens_quantile(family, j, u):
    """Families B and C of the power-study alternatives, one branch per half."""
    v = np.asarray(u, dtype=float)
    c = 2.0 ** (j - 1.0)
    if family == "B":
        out = np.where(
            v <= 0.5,
            (v / c) ** (1.0 / j),
            1.0 - np.maximum((1.0 - v) / c, 0.0) ** (1.0 / j),
        )
    else:
        out = np.where(
            v <= 0.5,
            0.5 - (np.maximum(0.5 - v, 0.0) / c) ** (1.0 / j),
            0.5 + (np.maximum(v - 0.5, 0.0) / c) ** (1.0 / j),
        )
    return out.item() if out.ndim == 0 else out


def study_cell(estimates, truth, replications):
    """(bias, mse, mse_se) of one study cell: the earlier per-cell reduction.

    ``estimates`` is the cell's vector of R estimates; it is not modified.
    """
    # The steps of ndarray.mean and ndarray.std, without their wrappers
    # (same bits), in one buffer: the error, its square, the deviation.
    err = estimates - truth
    bias = float(np.add.reduce(err) / replications)
    sq = np.multiply(err, err, out=err)
    mse = float(np.add.reduce(sq) / replications)
    dev = np.subtract(sq, mse, out=sq)
    var = float(np.add.reduce(np.multiply(dev, dev, out=dev)) / replications)
    return bias, mse, math.sqrt(var) / math.sqrt(replications)


def ebrahimi_weights(n, m):
    i = np.arange(1, n + 1, dtype=float)
    c = np.full(n, 2.0)
    head = i <= m
    c[head] = 1.0 + (i[head] - 1.0) / m
    tail = i >= n - m + 1
    c[tail] = 1.0 + (n - i[tail]) / m
    return c


def coefficients(kind, order, m, plotting, n):
    """The earlier one-vector builder: coefficients over s2 (L-statistic) or d.

    ``kind`` is the kind's token ("empirical", ..., "lstat").
    """
    if kind == "lstat":
        plotting = plotting or ("n+1" if order is None else "n")
        p = np.arange(1, n + 1, dtype=float) / (n if plotting == "n" else n + 1)
        if order is not None:
            return (1.0 - order * (1.0 - p) ** (order - 1.0)) / (2.0 * (order - 1.0) * n)
        with np.errstate(divide="ignore"):
            c = -(1.0 + np.log(1.0 - p)) / (2.0 * n)
        if plotting == "n":
            c[-1] = 0.0
        return c
    tail = 1.0 - np.arange(1, n, dtype=float) / n
    if order is None:
        w = -tail * np.log(tail)
    else:
        w = (tail - tail**order) / (order - 1.0)
    if kind == "empirical":
        return w / 2.0
    if kind == "vasicek":
        w /= 4.0 * m
    elif kind == "ebrahimi":
        w /= ebrahimi_weights(n, m)[:-1] * (2.0 * m)
    else:
        w /= m * ebrahimi_weights(n, m)[:-1] ** 2
    cum = np.cumsum(w, out=w)
    out = np.full(n - 1, cum[-1])
    out[: n - 1 - m] = cum[m:]
    out[m:] -= cum[: n - 1 - m]
    return out


def score_rows(rows, tests):
    """The earlier tile scorer: one public ``estimate`` call per entropy-band test.

    Returns one statistic vector per resolved test of ``tests``; ``rows`` is
    not modified.
    """
    from wcrte import estimators as est
    from wcrte.gof import _competitor_null_stats

    squares = None
    out = []
    for test in tests:
        if test.is_entropy_band:
            if squares is None:
                squares = est._SortedSquares(rows, False)
            spec = est.EstimatorSpec(est.EstimatorKind.EMPIRICAL, test.order)
            out.append(est.estimate(spec, squares))
        else:
            out.append(_competitor_null_stats(test, rows))
    return out
