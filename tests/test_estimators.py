"""Estimators against hand values, the literal oracle, and their invariants."""

import gzip
import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import naive
from wcrte import (
    DomainError,
    EstimatorKind,
    EstimatorSpec,
    Exponential,
    NumericError,
    ParseError,
    Sample,
    clamp_order_stat,
    derive_stream,
    ebrahimi_weights,
    estimate,
    max_window,
    parse_estimator,
    parse_kind,
    read_sample,
    wcre_ebrahimi,
    wcre_empirical,
    wcre_lstat,
    wcre_lstat_variance,
    wcre_modified_n,
    wcre_vasicek,
    wcrte_ebrahimi,
    wcrte_empirical,
    wcrte_lstat,
    wcrte_lstat_variance,
    wcrte_modified_n,
    wcrte_vasicek,
)
from wcrte import sample as sample_module
from wcrte.estimators import (
    _CHUNK_WIDTH,
    _SPACING_BLOCK,
    _TILE_MACS,
    _build_coefficients,
    _coefficient_rows,
    _SortedSquares,
)


# --- hand-computed values -----------------------------------------------------


def test_wcrte_hand_values_on_pairs():
    assert wcrte_empirical([1.0, 2.0], 2.0) == pytest.approx(0.375, abs=1e-12)
    assert wcrte_lstat([1.0, 2.0], 2.0) == pytest.approx(1.0, abs=1e-12)


def test_wcre_hand_values_on_pairs():
    # -(1/4) * [1*(1/2)log(1/2)*(-1) ... ] worked out term by term offline.
    assert wcre_empirical([1.0, 2.0]) == pytest.approx(0.5198603854199589, abs=1e-12)
    assert wcre_lstat([1.0, 2.0]) == pytest.approx(-0.05002143430484937, abs=1e-12)


def test_hand_values_on_one_to_five():
    v = [1.0, 2.0, 3.0, 4.0, 5.0]
    assert wcrte_empirical(v, 2.0) == pytest.approx(2.4, abs=1e-12)
    assert wcrte_lstat(v, 2.0) == pytest.approx(3.5, abs=1e-12)
    assert wcrte_vasicek(v, 2.0, 1) == pytest.approx(1.96, abs=1e-12)


def test_variance_hand_value_single_pair():
    # n = 3 leaves exactly one ordered pair (j=1, i=2); the double sum is
    # (1/3)(1/3) * (1/3)(-1/3) * 5 * 3 = -5/27 and the estimate halves it.
    with pytest.warns(UserWarning):
        got = wcrte_lstat_variance([1.0, 2.0, 3.0], 2.0)
    assert got == pytest.approx(-5.0 / 54.0, abs=1e-12)


def test_wcre_variance_hand_value():
    with pytest.warns(UserWarning):
        got = wcre_lstat_variance([1.0, 2.0, 3.0])
    assert got == pytest.approx(-0.048857038652084184, abs=1e-12)


def test_variance_of_degenerate_sample_is_zero():
    assert wcrte_lstat_variance([2.0, 2.0, 2.0], 2.0) == 0.0
    assert wcre_lstat_variance([2.0, 2.0, 2.0]) == 0.0


def test_variance_needs_three_points():
    with pytest.raises(DomainError):
        wcrte_lstat_variance([1.0, 2.0], 2.0)
    with pytest.raises(DomainError):
        wcre_lstat_variance([1.0, 2.0])


# --- agreement with the literal reference implementation -----------------------


def _random_samples(count, rng):
    """Small float samples, some with heavy ties, some containing zeros."""
    out = []
    for k in range(count):
        n = int(rng.integers(2, 13))
        x = rng.exponential(scale=2.0, size=n)
        if k % 3 == 0:
            x = np.round(x, 1)  # force ties
        if k % 4 == 0:
            x[0] = 0.0
        out.append(np.asarray(x, dtype=float))
    return out


def test_matches_naive_oracle():
    rng = np.random.default_rng(2024)
    for x in _random_samples(40, rng):
        n = x.size
        for a in (0.5, 2.0, 3.5):
            assert wcrte_empirical(x, a) == pytest.approx(naive.wcrte_empirical(x, a), abs=1e-12)
        assert wcre_empirical(x) == pytest.approx(naive.wcre_empirical(x), abs=1e-12)
        if n >= 3:
            for m in range(1, max_window(n) + 1):
                assert wcrte_vasicek(x, 2.0, m) == pytest.approx(
                    naive.wcrte_vasicek(x, 2.0, m), abs=1e-12
                )
                assert wcrte_ebrahimi(x, 2.0, m) == pytest.approx(
                    naive.wcrte_ebrahimi(x, 2.0, m), abs=1e-12
                )
                assert wcrte_modified_n(x, 2.0, m) == pytest.approx(
                    naive.wcrte_modified_n(x, 2.0, m), abs=1e-12
                )
                assert wcre_vasicek(x, m) == pytest.approx(naive.wcre_vasicek(x, m), abs=1e-12)
                assert wcre_ebrahimi(x, m) == pytest.approx(naive.wcre_ebrahimi(x, m), abs=1e-12)
                assert wcre_modified_n(x, m) == pytest.approx(
                    naive.wcre_modified_n(x, m), abs=1e-12
                )
        for plotting in ("n", "n+1"):
            assert wcrte_lstat(x, 2.0, plotting) == pytest.approx(
                naive.wcrte_lstat(x, 2.0, plotting), abs=1e-12
            )
        assert wcrte_lstat(x, 4.0) == pytest.approx(naive.wcrte_lstat(x, 4.0), abs=1e-12)
        assert wcre_lstat(x) == pytest.approx(naive.wcre_lstat(x), abs=1e-12)
        if n >= 3:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")  # tiny samples go negative
                assert wcrte_lstat_variance(x, 2.0) == pytest.approx(
                    naive.wcrte_lstat_variance(x, 2.0), abs=1e-12
                )
                assert wcre_lstat_variance(x) == pytest.approx(
                    naive.wcre_lstat_variance(x), abs=1e-12
                )


ORDERS = (0.5, 1.5, 2.0, 5.0, None)
SPACING_KINDS = (
    EstimatorKind.EMPIRICAL,
    EstimatorKind.VASICEK,
    EstimatorKind.EBRAHIMI,
    EstimatorKind.MODIFIED_N,
)


def _naive_value(spec, x):
    name = f"{spec.measure}_{spec.kind.value}"
    args = [v for v in (spec.order, spec.window, spec.plotting) if v is not None]
    return getattr(naive, name)(x, *args)


def _every_spec(n):
    """Every admissible estimator spec at sample size n over ORDERS."""
    for order in ORDERS:
        yield EstimatorSpec(EstimatorKind.EMPIRICAL, order)
        for kind in SPACING_KINDS[1:]:
            for m in range(1, max_window(n) + 1):
                yield EstimatorSpec(kind, order, m)
        if order is None or order > 1.0:
            for plotting in ("n", "n+1"):
                yield EstimatorSpec(EstimatorKind.LSTAT, order, plotting=plotting)


@pytest.mark.parametrize("n", [3, 10, 20, 30, 50, 201])
def test_every_kind_order_window_and_plotting_matches_naive(n):
    rng = np.random.default_rng(n)
    x = rng.exponential(scale=2.0, size=n)
    tied = np.round(x, 0)
    for spec in _every_spec(n):
        for sample in (x, tied):
            want = _naive_value(spec, sample)
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")  # orders below 1, plotting="n"
                got = estimate(spec, sample)
                assert estimate(spec, Sample(sample)) == got
            assert abs(got - want) <= 1e-12 * max(1.0, abs(want)), (spec, got, want)


def test_spacing_coefficients_are_nonnegative():
    for n in (3, 10, 50, 201):
        for spec in _every_spec(n):
            if spec.kind is not EstimatorKind.LSTAT:
                (c,) = _build_coefficients(spec.kind, spec.order, (spec.window,), None, n, {})
                assert (c >= 0.0).all(), spec


def _one_row(spec, n):
    """The coefficient row of ``spec`` at size n, built alone by the one builder."""
    (row,) = _build_coefficients(spec.kind, spec.order, (spec.window,), spec.plotting, n, {})
    return row


def test_coefficient_rows_equal_the_one_window_vectors():
    """One matrix per (kind, order, plotting, n) gives the earlier builder's bits."""
    orders = (None, 0.5, 2.0, 7.0)
    for n in range(3, 102):
        windows = tuple(range(1, max_window(n) + 1))
        keys = [(EstimatorSpec(kind, order, m), n)
                for kind in EstimatorKind if kind is not EstimatorKind.LSTAT
                for order in orders
                for m in (windows if kind.needs_window else (None,))]
        keys += [(EstimatorSpec(EstimatorKind.LSTAT, order, plotting=plotting), n)
                 for order in (None, 2.0, 7.0) for plotting in (None, "n", "n+1")]
        rows = _coefficient_rows(keys)
        assert len(rows) == len(keys)
        for key in keys:
            spec = key[0]
            want = naive.coefficients(spec.kind.value, spec.order, spec.window, spec.plotting, n)
            assert rows[key].tobytes() == want.tobytes(), key
            assert _one_row(spec, n).tobytes() == want.tobytes(), key


def test_each_contracted_row_is_the_plain_einsum_of_its_key():
    """A coefficient row's result from ``contract`` gives the bits of ``einsum``
    on that row alone, whatever rows share the call, one-row batches at large
    n included."""
    rng = np.random.default_rng(41)
    for n, r in ((2, 1), (3, 7), (100, 655), (9000, 1), (9000, 7), (20_000, 2)):
        srt = np.sort(rng.random((r, n)), axis=1)
        specs = [EstimatorSpec(EstimatorKind.EMPIRICAL, order) for order in (2.0, None, 7.0, 1.5)]
        specs.append(EstimatorSpec(EstimatorKind.LSTAT, 2.0))
        if n >= 3:
            specs.append(EstimatorSpec(EstimatorKind.VASICEK, 2.0, 1))
        # The squares become the spacings once these are read: one batch per row kind.
        for lstat in (True, False):
            kind_specs = [spec for spec in specs if (spec.kind is EstimatorKind.LSTAT) == lstat]
            squares = _SortedSquares(srt.copy())
            coefs = [_one_row(spec, n) for spec in kind_specs]
            got = squares.contract(coefs)
            assert got.shape == (len(kind_specs), r)
            for row, spec, coef in zip(got, kind_specs, coefs):
                plain = squares.s2 if spec.kind is EstimatorKind.LSTAT else squares.d
                want = np.einsum("ij,j->i", plain, coef)
                assert row.tobytes() == want.tobytes(), (n, r, spec)


def _batches():
    """Sorted batches for the spacing kernels: one row, n = 2 and 1, wide, and shifted."""
    rng = np.random.default_rng(43)
    for r, n in ((1, 10), (5, 2), (4, 1), (301, 13), (7, 500), (1000, 50)):
        yield np.sort(rng.random((r, n)), axis=1)
    yield np.sort(rng.random((6, 9)), axis=1) * 2.0**520  # stored shifted


def test_batch_spacings_equal_np_diff_of_the_squares():
    """``d``, a view of one flat subtraction, has the bits of ``np.diff`` on
    the (possibly shifted) squares of a batch or of its first row alone,
    read-only input included."""
    for srt in (b for batch in _batches() for b in (batch, batch[0])):
        for readonly in (False, True):
            rows = srt.copy()
            rows.flags.writeable = not readonly
            squares = _SortedSquares(rows)
            scaled = np.ldexp(srt, -squares.shift)
            want = np.diff(scaled * scaled)
            assert squares.d.shape == want.shape, srt.shape
            assert squares.d.tobytes() == want.tobytes(), (srt.shape, readonly)
            assert (squares.shift > 0) == (srt.max() >= 2.0**511)


def test_the_spacings_replace_the_squares_in_their_buffer():
    """A batch holds one buffer: the squares are taken in the array it is
    given, the first read of ``d`` turns them into their spacings there,
    across blocks of ``_SPACING_BLOCK`` values, and ``s2`` is gone after it."""
    rows = np.sort(np.random.default_rng(44).random((1000, 40)), axis=1)
    assert rows.size > _SPACING_BLOCK
    want = np.diff(rows * rows)
    squares = _SortedSquares(rows)
    assert np.shares_memory(squares.s2, rows)
    assert squares.d.tobytes() == want.tobytes()
    assert np.shares_memory(squares.d, rows)
    with pytest.raises(AttributeError, match="once its spacings are read"):
        squares.s2


def test_contractions_over_the_spacing_view_equal_a_contiguous_copy():
    """``chunk`` and ``contract`` give the same bits on the strided ``d`` as on
    a C-contiguous copy of it."""
    for srt in _batches():
        n = srt.shape[1]
        if n < 3:
            continue
        specs = [EstimatorSpec(EstimatorKind.VASICEK, 2.0, 1),
                 EstimatorSpec(EstimatorKind.EBRAHIMI, None, max_window(n)),
                 EstimatorSpec(EstimatorKind.EMPIRICAL, 7.0)]
        coefs = [_one_row(spec, n) for spec in specs]
        squares = _SortedSquares(srt.copy())
        assert squares.d.flags.c_contiguous == (len(srt) == 1)
        copy = _SortedSquares(srt.copy())
        copy.d = np.ascontiguousarray(copy.d)
        for method in ("chunk", "contract"):
            got = getattr(squares, method)(coefs)
            want = getattr(copy, method)(coefs)
            assert got.tobytes() == want.tobytes(), (srt.shape, method)


@pytest.mark.parametrize("n", [10, 50])
@pytest.mark.parametrize("lanes", [1, 2, 15, 16])
def test_a_chunk_returns_only_its_lanes(n, lanes):
    """``chunk`` returns one row per coefficient row, owning its data, with the
    bits of the first rows of the product padded to W lanes, tile by tile."""
    srt = np.sort(np.random.default_rng(45).random((2000, n)), axis=1)
    specs = [EstimatorSpec(EstimatorKind.VASICEK, order, m)
             for order in (2.0, None, 7.0, 0.5) for m in range(1, max_window(n) + 1)]
    coefs = [_one_row(spec, n) for spec in specs[:lanes]]
    squares = _SortedSquares(srt)
    got = squares.chunk(coefs)
    padded = np.zeros((_CHUNK_WIDTH, n - 1))
    padded[:lanes] = coefs
    step = max(1, _TILE_MACS // (_CHUNK_WIDTH * (n - 1)))
    assert step < len(srt)
    want = np.concatenate([(squares.d[lo : lo + step] @ padded.T).T
                           for lo in range(0, len(srt), step)], axis=1)
    assert got.shape == (lanes, len(srt))
    assert got.base is None and got.flags.owndata
    assert got.tobytes() == want[:lanes].tobytes()


@pytest.mark.parametrize("n", [2, 3, 10, 31])
def test_constant_samples_give_exact_zero(n):
    rows = np.array([np.full(n, v) for v in (0.0, 1e-300, 3.0, 1e200, 1.7e308)])
    for spec in _every_spec(n):
        if spec.kind is EstimatorKind.LSTAT or (spec.kind.needs_window and n < 3):
            continue
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            assert (estimate(spec, rows) == 0.0).all(), spec
            for row in rows:
                assert estimate(spec, row) == 0.0


def test_huge_values_are_rescaled_instead_of_overflowing():
    # The squares of 3e154 overflow; the estimate itself does not.
    got = wcrte_empirical([1e154, 2e154, 3e154], 2.0)
    assert got == pytest.approx(1e308 * wcrte_empirical([1.0, 2.0, 3.0], 2.0), rel=1e-14)
    with pytest.raises(NumericError):
        wcrte_empirical([1e160, 2e160, 3e160, 5e160], 2.0)


_PROPERTY_SPECS = list(_every_spec(3))  # window m = 1 fits every n >= 3
_VARIANCES = [lambda z: wcrte_lstat_variance(z, 2.0), wcre_lstat_variance]


@settings(max_examples=150, deadline=None)
@given(
    xs=st.lists(st.one_of(st.just(0.0), st.floats(0.01, 100.0)), min_size=3, max_size=12),
    k=st.integers(-300, 505),
    spec=st.sampled_from(_PROPERTY_SPECS),
)
def test_power_of_two_scaling_is_exact(xs, k, spec):
    x = np.array(xs)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        base = estimate(spec, x)
        with np.errstate(over="ignore"):
            want = float(np.ldexp(base, 2 * k))
        if math.isfinite(want):
            assert estimate(spec, np.ldexp(x, k)) == want
        else:
            with pytest.raises(NumericError):
                estimate(spec, np.ldexp(x, k))


@settings(max_examples=150, deadline=None)
@given(
    xs=st.lists(st.floats(0.0, 1.7976931348623157e308), min_size=2, max_size=12),
    which=st.integers(0, len(_PROPERTY_SPECS) + len(_VARIANCES) - 1),
)
@example(xs=[1e100, 2e100, 3e100], which=len(_PROPERTY_SPECS))  # squares of spacings overflow
@example(xs=[1e160, 2e160, 3e160, 5e160], which=0)  # the estimate overflows
def test_huge_finite_inputs_give_a_finite_value_or_numeric_error(xs, which):
    x = np.array(xs)
    if which < len(_PROPERTY_SPECS):
        spec = _PROPERTY_SPECS[which]
        assume(x.size >= 3 or not spec.kind.needs_window)
        fn = lambda z: estimate(spec, z)  # noqa: E731
    else:
        assume(x.size >= 3)
        fn = _VARIANCES[which - len(_PROPERTY_SPECS)]
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)  # no numpy overflow noise
        warnings.simplefilter("ignore", UserWarning)
        try:
            got = fn(x)
        except NumericError:
            return
    assert math.isfinite(got)


# --- invariants -----------------------------------------------------------------


def test_batch_rows_match_scalar_calls():
    rng = np.random.default_rng(5)
    xs = rng.exponential(size=(6, 15))
    calls = [
        (lambda z: wcrte_empirical(z, 2.0)),
        (lambda z: wcrte_vasicek(z, 2.0, 3)),
        (lambda z: wcrte_ebrahimi(z, 2.0, 3)),
        (lambda z: wcrte_modified_n(z, 2.0, 3)),
        (lambda z: wcrte_lstat(z, 2.0)),
        wcre_empirical,
        (lambda z: wcre_vasicek(z, 3)),
        (lambda z: wcre_ebrahimi(z, 3)),
        (lambda z: wcre_modified_n(z, 3)),
        wcre_lstat,
        (lambda z: wcrte_lstat_variance(z, 2.0)),
        wcre_lstat_variance,
    ]
    for fn in calls:
        batch = fn(xs)
        assert batch.shape == (6,)
        for row, value in zip(xs, batch):
            assert fn(row) == pytest.approx(value, abs=1e-12)


def test_scale_equivariance_is_quadratic():
    rng = np.random.default_rng(9)
    x = rng.exponential(size=25)
    theta = 2.0
    pairs = [
        (lambda z: wcrte_empirical(z, 2.0)),
        (lambda z: wcrte_vasicek(z, 2.0, 4)),
        (lambda z: wcrte_ebrahimi(z, 2.0, 4)),
        (lambda z: wcrte_modified_n(z, 2.0, 4)),
        (lambda z: wcrte_lstat(z, 2.0)),
        wcre_empirical,
        (lambda z: wcre_vasicek(z, 4)),
        (lambda z: wcre_ebrahimi(z, 4)),
        (lambda z: wcre_modified_n(z, 4)),
        wcre_lstat,
    ]
    for fn in pairs:
        assert fn(theta * x) == pytest.approx(theta**2 * fn(x), rel=1e-10)


def test_permutation_invariance():
    rng = np.random.default_rng(3)
    x = rng.exponential(size=12)
    shuffled = rng.permutation(x)
    assert wcrte_vasicek(shuffled, 2.0, 2) == pytest.approx(wcrte_vasicek(x, 2.0, 2), abs=1e-12)
    assert wcre_lstat(shuffled) == pytest.approx(wcre_lstat(x), abs=1e-12)
    assert wcrte_lstat_variance(shuffled, 2.0) == pytest.approx(
        wcrte_lstat_variance(x, 2.0), abs=1e-12
    )


def test_windowed_kinds_agree_when_edges_carry_no_mass():
    """If every nonzero spacing term has full interior weight, the three
    windowed estimators are the same number."""
    x = np.array([1.0, 1.0, 1.0, 1.0, 3.0, 5.0, 9.0, 9.0, 9.0, 9.0])
    v = wcrte_vasicek(x, 2.0, 2)
    assert wcrte_ebrahimi(x, 2.0, 2) == pytest.approx(v, abs=1e-12)
    assert wcrte_modified_n(x, 2.0, 2) == pytest.approx(v, abs=1e-12)
    w = wcre_vasicek(x, 2)
    assert wcre_ebrahimi(x, 2) == pytest.approx(w, abs=1e-12)
    assert wcre_modified_n(x, 2) == pytest.approx(w, abs=1e-12)


def test_ebrahimi_weights_ramp():
    got = ebrahimi_weights(10, 2)
    want = np.array([1.0, 1.5, 2.0, 2.0, 2.0, 2.0, 2.0, 2.0, 1.5, 1.0])
    assert np.array_equal(got, want)
    assert np.array_equal(ebrahimi_weights(5, 1), [1.0, 2.0, 2.0, 2.0, 1.0])


def test_max_window_and_clamp():
    assert max_window(5) == 2
    assert max_window(10) == 4
    assert max_window(3) == 1
    x = [3.0, 1.0, 2.0]
    assert clamp_order_stat(x, 0) == 1.0
    assert clamp_order_stat(x, 1) == 1.0
    assert clamp_order_stat(x, 3) == 3.0
    assert clamp_order_stat(x, 99) == 3.0


def test_clamp_order_stat_validates_like_the_estimators():
    for bad in ([1.0, float("nan"), -3.0], [1.0, -3.0], [1.0, float("inf")]):
        with pytest.raises(DomainError) as want:
            wcre_empirical(bad)
        for i in (1, 2, 3):
            with pytest.raises(DomainError) as got:
                clamp_order_stat(bad, i)
            assert str(got.value) == str(want.value)
    assert clamp_order_stat(Sample([2.0, 0.5]), 1) == 0.5
    assert clamp_order_stat([4.0], 7) == 4.0


def test_window_validation():
    x = [1.0, 2.0, 3.0, 4.0]
    for m in (0, -1, 2, 5):
        with pytest.raises(DomainError):
            wcrte_vasicek(x, 2.0, m)
        with pytest.raises(DomainError):
            wcre_ebrahimi(x, m)


def test_lstat_needs_order_above_one():
    for a in (1.0, 0.5):
        with pytest.raises(DomainError):
            wcrte_lstat([1.0, 2.0, 3.0], a)
        with pytest.raises(DomainError):
            wcrte_lstat_variance([1.0, 2.0, 3.0], a)


def test_small_order_warns_but_computes():
    with pytest.warns(UserWarning):
        got = wcrte_vasicek([1.0, 2.0, 3.0], 0.5, 1)
    assert math.isfinite(got)


def test_wcre_lstat_plotting_n_warns_and_drops_last_term():
    with pytest.warns(UserWarning):
        got = wcre_lstat([1.0, 2.0], "n")
    assert got == pytest.approx(-0.25 * (1.0 + math.log(0.5)), abs=1e-12)


# --- memory of the L-statistic and its companion ----------------------------------


def _traced_peak(fn):
    """``fn()`` and the peak bytes traced while it ran."""
    tracemalloc.start()
    try:
        result = fn()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return result, peak


@pytest.mark.parametrize("order, plotting", [(None, "n+1"), (None, "n"), (2.0, "n"), (3.5, "n+1")])
def test_lstat_row_is_built_in_its_plotting_position_buffer(order, plotting):
    """At n = 200 000 an L-statistic row takes 1.2 n-length vectors at most,
    with the bits of the formula evaluated out of place."""
    n = 200_000
    row, peak = _traced_peak(
        lambda: _build_coefficients(EstimatorKind.LSTAT, order, (None,), plotting, n, {}))
    assert peak <= 1.2 * 8 * n, peak / (8 * n)
    p = np.arange(1, n + 1, dtype=float) / (n if plotting == "n" else n + 1)
    if order is None:
        with np.errstate(divide="ignore"):
            want = -(1.0 + np.log(1.0 - p)) / (2.0 * n)
        if plotting == "n":
            want[-1] = 0.0
    else:
        want = (1.0 - order * (1.0 - p) ** (order - 1.0)) / (2.0 * (order - 1.0) * n)
    np.testing.assert_array_equal(row, want[None])


@pytest.mark.parametrize("order", [None, 2.0, 3.5])
def test_variance_companion_holds_two_vectors_beside_its_batch(order):
    """On a prepared batch at n = 200 000 the companion takes 2.2 n-length
    vectors at most, and gives the bits of a call on the raw sample."""
    n = 200_000
    x = Exponential(1.0).quantile(derive_stream(23, n).random(n))
    sq = _SortedSquares(np.sort(x))
    if order is None:
        got, peak = _traced_peak(lambda: wcre_lstat_variance(sq))
        want = wcre_lstat_variance(x)
    else:
        got, peak = _traced_peak(lambda: wcrte_lstat_variance(sq, order))
        want = wcrte_lstat_variance(x, order)
    assert peak <= 2.2 * 8 * n, peak / (8 * n)
    assert got == want


# --- spec objects, parsing, dispatch --------------------------------------------


def test_parse_kind_aliases():
    assert parse_kind("e") is EstimatorKind.EMPIRICAL
    assert parse_kind("V") is EstimatorKind.VASICEK
    assert parse_kind("eb") is EstimatorKind.EBRAHIMI
    assert parse_kind("n") is EstimatorKind.MODIFIED_N
    assert parse_kind("lstat") is EstimatorKind.LSTAT
    with pytest.raises(ParseError):
        parse_kind("zzz")


def test_spec_labels():
    spec = EstimatorSpec(kind=EstimatorKind.VASICEK, order=2.0, window=4)
    assert spec.label() == "wcrte:vasicek,alpha=2,m=4"
    assert spec.measure == "wcrte"
    spec = EstimatorSpec(kind=EstimatorKind.LSTAT)
    assert spec.label() == "wcre:lstat"
    assert spec.measure == "wcre"


def test_spec_validation():
    with pytest.raises(DomainError):
        EstimatorSpec(kind=EstimatorKind.EMPIRICAL, window=3)
    with pytest.raises(DomainError):
        EstimatorSpec(kind=EstimatorKind.VASICEK, plotting="n")
    with pytest.raises(DomainError):
        EstimatorSpec(kind=EstimatorKind.LSTAT, order=0.5)
    with pytest.raises(DomainError):
        EstimatorSpec(kind=EstimatorKind.VASICEK, order=2.0, window=0)
    with pytest.raises(DomainError):
        EstimatorSpec(kind=EstimatorKind.LSTAT, order=2.0, plotting="n+2")


def test_parse_estimator_round_trip():
    spec = parse_estimator("wcrte:vasicek,alpha=2,m=4")
    assert spec == EstimatorSpec(kind=EstimatorKind.VASICEK, order=2.0, window=4)
    assert parse_estimator("wcre:eb,m=3") == EstimatorSpec(kind=EstimatorKind.EBRAHIMI, window=3)
    assert parse_estimator("wcrte:l,alpha=2,plotting=n+1") == EstimatorSpec(
        kind=EstimatorKind.LSTAT, order=2.0, plotting="n+1"
    )
    assert parse_estimator(spec.label()) == spec
    close = EstimatorSpec(kind=EstimatorKind.VASICEK, order=2.0000001, window=4)
    assert close.label() == "wcrte:vasicek,alpha=2.0000001,m=4"
    assert parse_estimator(close.label()) == close


def test_parse_estimator_errors():
    for bad in (
        "wcrte:empirical",  # missing alpha
        "wcre:empirical,alpha=2",  # alpha forbidden
        "entropy:empirical",
        "wcrte:",
        "wcrte:zzz,alpha=2",
        "wcrte:e,alpha=abc",
        "wcrte:v,alpha=2,m=x",
        "wcrte:v,alpha=2,foo=1",
        "wcrte:v alpha=2",
        "wcrte:l,alpha=1",  # lstat needs order above 1
        "wcrte:l,alpha=2,alpha=3",
        "wcrte:v,alpha=2,m=2,M=3",
    ):
        with pytest.raises(ParseError):
            parse_estimator(bad)


def test_estimate_dispatch():
    x = np.array([0.3, 1.1, 0.7, 2.4, 0.9, 1.6])
    table = [
        ("wcrte:e,alpha=2", wcrte_empirical(x, 2.0)),
        ("wcrte:v,alpha=2,m=2", wcrte_vasicek(x, 2.0, 2)),
        ("wcrte:eb,alpha=2,m=2", wcrte_ebrahimi(x, 2.0, 2)),
        ("wcrte:n,alpha=2,m=2", wcrte_modified_n(x, 2.0, 2)),
        ("wcrte:l,alpha=2", wcrte_lstat(x, 2.0)),
        ("wcre:e", wcre_empirical(x)),
        ("wcre:v,m=2", wcre_vasicek(x, 2)),
        ("wcre:l", wcre_lstat(x)),
        ("wcre:l,plotting=n+1", wcre_lstat(x, "n+1")),
    ]
    for text, want in table:
        assert estimate(parse_estimator(text), x) == pytest.approx(want, abs=1e-12)


def test_estimate_requires_resolved_window():
    with pytest.raises(DomainError):
        estimate(parse_estimator("wcrte:vasicek,alpha=2"), [1.0, 2.0, 3.0])


# --- sampling consistency --------------------------------------------------------


def test_lstat_converges_on_large_exponential_sample():
    xs = Exponential(1.0).quantile(derive_stream(777, 1).random(100_000))
    got = wcrte_lstat(xs, 2.0)
    assert got == pytest.approx(0.7633257297764585, abs=1e-12)  # frozen draw
    assert abs(got - 0.75) < 0.05  # the L-statistic targets a quarter of 3 here


def test_wcre_lstat_converges_on_large_uniform_sample():
    ys = derive_stream(777, 2).random(100_000)
    got = wcre_lstat(ys)
    assert got == pytest.approx(0.1390554104898035, abs=1e-12)  # frozen draw
    assert abs(got - 5.0 / 36.0) < 0.01


def test_error_shrinks_with_sample_size():
    reps = 400
    errs = {}
    for n in (50, 1000):
        u = derive_stream(55, n).random((reps, n))
        x = Exponential(1.0).quantile(u)
        errs[n] = float(np.mean(np.abs(wcrte_lstat(x, 2.0) - 0.75)))
    assert errs[1000] < errs[50] / 2.0


# --- sample container and reader --------------------------------------------------


def test_sample_is_immutable_and_sorted():
    s = Sample([3.0, 1.0, 2.0])
    assert s.n == 3
    assert len(s) == 3
    assert list(s.sorted_values) == [1.0, 2.0, 3.0]
    assert list(s.values) == [3.0, 1.0, 2.0]
    with pytest.raises(AttributeError):
        s.values = np.zeros(3)
    with pytest.raises(ValueError):
        s.values[0] = 9.0


def test_sample_copies_what_its_caller_passes():
    arr = np.array([3.0, 1.0, 2.0])
    s = Sample(arr)
    arr[:] = -1.0
    assert list(s.values) == [3.0, 1.0, 2.0]
    assert list(s.sorted_values) == [1.0, 2.0, 3.0]
    assert arr.flags.writeable


def test_sample_rejects_a_batch_naming_its_shape():
    """A 2-D batch is one sample per row to the estimators; a Sample holds one."""
    with pytest.raises(DomainError, match=r"shape \(2, 2\)"):
        Sample([[1.0, 2.0], [3.0, 4.0]])
    with pytest.raises(DomainError, match=r"shape \(1, 3\)"):
        Sample(np.ones((1, 3)))
    assert list(Sample(np.array([2.0, 1.0])).values) == [2.0, 1.0]
    with pytest.raises(DomainError, match="n >= 2, got 1"):
        Sample(np.float64(2.0))


def test_sample_validation():
    with pytest.raises(DomainError):
        Sample([1.0])
    with pytest.raises(DomainError):
        Sample([1.0, -2.0])
    with pytest.raises(DomainError):
        Sample([1.0, float("nan")])
    with pytest.raises(DomainError):
        Sample([1.0, float("inf")])


def test_sorted_rows_keep_the_shape_they_are_given():
    """One sample comes back 1-D and a batch 2-D, a scalar as a 1 x 1 batch;
    a Sample gives its read-only sorted values, anything else a sorted copy."""
    sample = Sample([3.0, 1.0, 2.0])
    assert sample_module._sorted_rows(sample) is sample.sorted_values
    one = np.array([3.0, 1.0, 2.0])
    srt = sample_module._sorted_rows(one)
    assert srt.shape == (3,) and srt.flags.writeable and not np.shares_memory(srt, one)
    assert sample_module._sorted_rows(np.ones((4, 3))).shape == (4, 3)
    assert sample_module._sorted_rows(2.0, min_n=1).shape == (1, 1)
    assert isinstance(wcrte_empirical(one, 2.0), float)
    assert wcrte_empirical(one[np.newaxis], 2.0).shape == (1,)


def test_estimators_leave_a_sample_and_a_callers_array_unchanged():
    """Squares are taken in the sorted copy a call makes, never in the
    caller's array nor in a Sample's sorted values, scaled samples included."""
    x = Exponential(1.0).quantile(derive_stream(29, 40).random(40))
    big = x / x.max() * 2.0**511  # squared through the exact scaling
    calls = (lambda v: wcrte_empirical(v, 2.0), lambda v: wcre_vasicek(v, 3),
             lambda v: wcrte_lstat(v, 2.0), lambda v: wcrte_modified_n(v, 2.0, 4))
    for arr in (x, np.sort(x), big, np.stack([x, big]), Sample(x), Sample(big)):
        seen = arr.sorted_values if isinstance(arr, Sample) else arr
        kept = seen.copy()
        for call in calls:
            call(arr)
        assert np.array_equal(seen, kept)


def test_a_standalone_batch_call_squares_in_its_sorted_copy():
    """At 10 000 x 50 a batch call peaks at its sorted copy, squared in
    place, and the spacings: 2.01 batch-sized arrays (3.01 with separate
    squares)."""
    x = derive_stream(37, 50).random((10_000, 50))
    wcrte_empirical(x, 2.0)  # first-call allocations
    got, peak = _traced_peak(lambda: wcrte_empirical(x, 2.0))
    assert peak <= 2.1 * x.nbytes, peak / x.nbytes
    assert got.shape == (10_000,)


def test_read_sample(tmp_path):
    path = tmp_path / "obs.txt"
    path.write_text("# header comment\n1.5\n\n2.5  # trailing note\n0\n")
    s = read_sample(path)
    assert list(s.values) == [1.5, 2.5, 0.0]


def test_read_sample_reports_bad_lines(tmp_path):
    path = tmp_path / "obs.txt"
    path.write_text("1.0\nbanana\n")
    with pytest.raises(ParseError, match="banana"):
        read_sample(path)
    path.write_text("1.0\n")
    with pytest.raises(ParseError, match="n >= 2"):
        read_sample(path)
    path.write_text("1.0\n-4.0\n")
    with pytest.raises(DomainError):
        read_sample(path)


def test_read_sample_rejects_undecodable_files(tmp_path):
    path = tmp_path / "obs.txt"
    path.write_bytes(b"1.5\n\xff\xfe2.0\n3.0\n")
    with pytest.raises(ParseError, match="obs.txt: not UTF-8 text"):
        read_sample(path)


_NUMBERS = st.floats(min_value=0.0, allow_infinity=False).map(repr)
_LINES = st.one_of(
    _NUMBERS,
    st.tuples(st.sampled_from([" ", "\t", "  "]), _NUMBERS, st.sampled_from(["", " ", "\t"])).map("".join),
    _NUMBERS.map(lambda v: v + "  # trailing note"),
    st.sampled_from(["", "   ", "# comment", "  # indented comment"]),
    st.sampled_from(["\x1c", "\u20031.5", "\ufeff2.5", "\u0661\u0662", "\u0663.\u0665",
                     "1_0", "nan", "1 2", "banana", "-1.0"]),
    st.sampled_from(["1,2", "1,", ",", "1;2", '"1.5"', "'1.5'", "\x00", "\x85", "\x0b", "\x0c",
                     "-nan", "Infinity", "1e-400", "4.9e-324", "+.5"]),
)


def _outcome(read):
    try:
        return read().values.tobytes()
    except (ParseError, DomainError) as exc:
        return type(exc), str(exc)


@settings(max_examples=300, deadline=None)
@given(
    lines=st.lists(_LINES, max_size=10),
    ends=st.lists(st.sampled_from(["\n", "\r\n", "\r", ""]), min_size=10, max_size=10),
)
@example(lines=["1,2"], ends=["\n"] * 10)  # numpy reads this file as one row of two
@example(lines=["1.5", "   ", "2.5", " \t "], ends=["\n"] * 10)  # whitespace-only lines
def test_read_sample_matches_the_line_by_line_reference(tmp_path_factory, lines, ends):
    """Same values bit for bit, or the same exception and message, as the literal reader."""
    path = tmp_path_factory.getbasetemp() / "differential.txt"
    path.write_bytes("".join(line + end for line, end in zip(lines, ends)).encode("utf-8"))
    want = _outcome(lambda: Sample(naive.read_sample(path)))
    assert _outcome(lambda: read_sample(path)) == want


def test_a_file_with_a_header_comment_takes_the_c_reader(tmp_path, monkeypatch):
    path = tmp_path / "obs.txt"
    path.write_text("# header comment\n1.5\n2.5  # trailing note\n\n0\n")
    monkeypatch.setattr(sample_module, "_read_lines", lambda path: pytest.fail("line reader"))
    assert list(read_sample(path).values) == [1.5, 2.5, 0.0]


def test_a_whitespace_only_line_keeps_the_c_reader(tmp_path, monkeypatch):
    path = tmp_path / "obs.txt"
    path.write_text("   \n1.5\n\t\n2.5  # trailing note\n \t \n0\n")
    monkeypatch.setattr(sample_module, "_read_lines", lambda path: pytest.fail("line reader"))
    assert list(read_sample(path).values) == [1.5, 2.5, 0.0]


@pytest.mark.parametrize("text", ["", "# only a comment\n", "\n# two\n# comments\n"])
def test_a_file_without_values_fails_the_size_rule_and_warns_nothing(tmp_path, text):
    path = tmp_path / "obs.txt"
    path.write_text(text)
    filters = list(warnings.filters)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ParseError, match="obs.txt: need n >= 2, got 0"):
            read_sample(path)
    assert warnings.filters == filters


def test_the_line_reader_reads_what_numpy_would_open_otherwise(tmp_path):
    """Names numpy decompresses are read as text; a missing file fails as ``open`` does."""
    gz = tmp_path / "obs.gz"
    gz.write_bytes(gzip.compress(b"1.5\n2.5\n"))
    with pytest.raises(ParseError, match="obs.gz: not UTF-8 text"):
        read_sample(gz)
    gz.write_text("1.5\n2.5\n")
    assert list(read_sample(gz).values) == [1.5, 2.5]
    missing = tmp_path / "missing.txt"
    (tmp_path / "missing.txt.gz").write_bytes(gzip.compress(b"1.5\n2.5\n"))
    with pytest.raises(FileNotFoundError) as caught:
        read_sample(missing)
    assert str(caught.value) == f"[Errno 2] No such file or directory: {str(missing)!r}"


def test_read_sample_keeps_the_read_array_uncopied(tmp_path):
    """At n = 200 000 the read plus the Sample peak at 2.25 n-length vectors:
    the values in file order and their sorted copy."""
    n = 200_000
    path = tmp_path / "obs.txt"
    values = Exponential(1.0).quantile(derive_stream(20, n).random(n))
    path.write_text("".join(f"{v!r}\n" for v in values.tolist()))
    s, peak = _traced_peak(lambda: read_sample(path))
    assert s.values.tobytes() == values.tobytes()
    assert peak <= 2.25 * 8 * n, peak / (8 * n)
