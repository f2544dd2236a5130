"""Uniformity tests: statistics, bands, critical values, and power."""

import math
import re
import sys
import threading
import time
import tracemalloc
import warnings

import numpy as np
import pytest
from scipy.optimize import brentq

import naive
from wcrte import cli
from wcrte import estimators as est
from wcrte import gof
from wcrte import (
    ORDER_CENTERED,
    WCRE_STATISTIC_BOUND,
    CriticalPair,
    DomainError,
    GofTest,
    ParseError,
    Sample,
    StephensAlternative,
    competitor_critical_value,
    competitor_statistic,
    critical_values,
    default_spacing_window,
    derive_stream,
    max_window,
    null_statistic_value,
    parse_model,
    parse_test,
    power_study,
    statistic_bound,
    uniformity_test,
    verify_table,
)

# Aliased so pytest does not collect the library functions as tests.
from wcrte import test_statistic_wcre as statistic_wcre
from wcrte import test_statistic_wcrte as statistic_wcrte


# --- bounds and null values ------------------------------------------------------


def test_statistic_bound_hand_values():
    assert statistic_bound(2.0) == pytest.approx(0.125, abs=1e-15)
    assert statistic_bound(None) == pytest.approx(0.5 / math.e, abs=1e-15)
    assert statistic_bound(None) == WCRE_STATISTIC_BOUND
    for bad in (1.0, 0.5):
        with pytest.raises(DomainError):
            statistic_bound(bad)


def test_null_statistic_hand_values():
    assert null_statistic_value(2.0) == pytest.approx(1.0 / 12.0, abs=1e-15)
    assert null_statistic_value(None) == pytest.approx(5.0 / 36.0, abs=1e-15)


def test_null_statistic_value_is_the_uniform_closed_form_bit_for_bit():
    """The null value is the closed form of Uniform(0, 1): the bits of
    (a+4)/(6(a+1)(a+2)), and of 5/36 at the WCRE limit."""
    assert null_statistic_value(None) == 5.0 / 36.0
    orders = [1e-9, 1e300, *np.random.default_rng(21).uniform(0.01, 50.0, 2009).tolist()]
    for a in orders:
        assert null_statistic_value(a) == (a + 4.0) / (6.0 * (a + 1.0) * (a + 2.0)), a


def test_order_centered_is_the_half_bound_crossing():
    # The constant is where the null value sits exactly at half the bound.
    # The exported figure keeps the reference rounding, which is about 2e-5
    # above the exact root 6.5864876.
    root = brentq(lambda a: null_statistic_value(a) - statistic_bound(a) / 2.0, 5.0, 8.0)
    assert abs(root - ORDER_CENTERED) < 5e-5
    assert null_statistic_value(ORDER_CENTERED) == pytest.approx(
        statistic_bound(ORDER_CENTERED) / 2.0, abs=1e-6
    )


def test_statistic_stays_under_bound_on_simulated_draws():
    u = derive_stream(123, 9).random((200, 25))
    for a in (2.0, 5.0):
        stats = statistic_wcrte(u, a)
        assert (stats >= 0.0).all()
        assert (stats <= statistic_bound(a)).all()
    stats = statistic_wcre(u)
    assert (stats >= 0.0).all()
    assert (stats <= WCRE_STATISTIC_BOUND).all()


def test_statistics_require_unit_interval():
    with pytest.raises(DomainError):
        statistic_wcrte([0.1, 1.2], 2.0)
    with pytest.raises(DomainError):
        statistic_wcre([-0.1, 0.5])
    with pytest.raises(DomainError):
        competitor_statistic("ks", [0.5, 2.0])


# --- competitor statistics ---------------------------------------------------------


def test_competitor_hand_values():
    assert competitor_statistic("ks", [0.25, 0.75]) == pytest.approx(0.25, abs=1e-15)
    # At the minimizing lattice (2i-1)/(2n) only the constant term remains.
    n = 4
    lattice = (2.0 * np.arange(1, n + 1) - 1.0) / (2.0 * n)
    assert competitor_statistic("cvm", lattice) == pytest.approx(1.0 / (12.0 * n), abs=1e-15)
    assert competitor_statistic("ad", [0.25, 0.75]) == pytest.approx(
        0.24934057847523317, abs=1e-12
    )
    # n=3, m=1: clamped gaps are 0.25, 0.5, 0.25 scaled by n/(2m) = 1.5.
    want = (2.0 * math.log(0.375) + math.log(0.75)) / 3.0
    assert competitor_statistic("ent", [0.25, 0.5, 0.75], m=1) == pytest.approx(
        want, abs=1e-15
    )


def test_competitors_match_naive():
    rng = np.random.default_rng(77)
    for _ in range(25):
        # n >= 8 keeps the default spacing window admissible (2m < n)
        n = int(rng.integers(8, 30))
        u = np.sort(rng.random(n))
        assert competitor_statistic("ks", u) == pytest.approx(naive.ks_statistic(u), abs=1e-12)
        assert competitor_statistic("cvm", u) == pytest.approx(naive.cvm_statistic(u), abs=1e-12)
        assert competitor_statistic("ad", u) == pytest.approx(naive.ad_statistic(u), abs=1e-12)
        m = default_spacing_window(n)
        assert competitor_statistic("ent", u, m=m) == pytest.approx(
            naive.ent_statistic(u, m), abs=1e-12
        )


def test_ad_clamps_boundary_observations():
    with pytest.warns(UserWarning, match="clamped"):
        got = competitor_statistic("ad", [0.0, 0.5, 0.9])
    assert math.isfinite(got)


def test_ent_floors_zero_spacings():
    with pytest.warns(UserWarning, match="zero spacings"):
        got = competitor_statistic("ent", [0.3, 0.3, 0.3, 0.3, 0.3], m=1)
    assert got < -100.0  # hugely negative, so the test rejects low


def test_competitor_validation():
    with pytest.raises(DomainError):
        competitor_statistic("watson", [0.1, 0.9])
    with pytest.raises(DomainError):
        competitor_statistic("ks", [0.1, 0.9], m=3)
    with pytest.raises(DomainError):
        competitor_statistic("wcre", [0.1, 0.9])


def test_default_spacing_window():
    assert default_spacing_window(10) == 4
    assert default_spacing_window(100) == 11
    with pytest.raises(DomainError):
        default_spacing_window(1)


def test_default_spacing_window_is_admissible_for_small_n():
    assert [default_spacing_window(n) for n in range(3, 11)] == [1, 1, 2, 2, 3, 3, 4, 4]
    for n in range(7, 200):
        assert default_spacing_window(n) == math.isqrt(n) + 1
    result = uniformity_test(np.linspace(0.1, 0.9, 5), "ent", replications=1000)
    assert result.m == 2
    cells = power_study(["alt:A,j=2"], 4, ["ent"], replications=100)
    assert cells[0].m == 1


# --- test descriptors ----------------------------------------------------------------


def test_gof_test_validation():
    assert GofTest(name="wcrte", order=2.0).label() == "wcrte:alpha=2"
    assert GofTest(name="wcre").label() == "wcre"
    assert GofTest(name="ent", m=5).label() == "ent:m=5"
    assert GofTest(name="ent").resolved(10).m == 4
    assert GofTest(name="ent", m=2).resolved(10).m == 2
    assert GofTest(name="ks").resolved(10).m is None
    with pytest.raises(DomainError):
        GofTest(name="wcrte")  # needs an order
    with pytest.raises(DomainError):
        GofTest(name="wcrte", order=1.0)
    with pytest.raises(DomainError):
        GofTest(name="wcre", order=2.0)
    with pytest.raises(DomainError):
        GofTest(name="ks", m=3)
    with pytest.raises(DomainError):
        GofTest(name="entropy")


def test_gof_test_flags():
    assert GofTest(name="wcrte", order=2.0).is_entropy_band
    assert GofTest(name="wcre").is_entropy_band
    assert not GofTest(name="ks").is_entropy_band
    assert GofTest(name="ent").rejects_low
    assert not GofTest(name="ad").rejects_low


def test_parse_test():
    assert parse_test("wcrte:alpha=2") == GofTest(name="wcrte", order=2.0)
    assert parse_test("WCRE") == GofTest(name="wcre")
    assert parse_test("ent:m=5") == GofTest(name="ent", m=5)
    assert parse_test("ks") == GofTest(name="ks")
    close = GofTest(name="wcrte", order=2.0000001)
    assert parse_test(close.label()) == close
    for bad in (
        "wcrte",
        "wcrte:alpha=1",
        "ks:m=2",
        "nope",
        "ent:m=x",
        "wcrte:alpha",
        "ent:m=2,m=3",
        "wcrte:alpha=2,ALPHA=3",
    ):
        with pytest.raises(ParseError):
            parse_test(bad)


# --- critical values -------------------------------------------------------------------


def test_critical_pair_validation():
    CriticalPair(n=10, order=2.0, gamma=0.05, lower=0.05, upper=0.1, replications=1000)
    with pytest.raises(DomainError):
        CriticalPair(n=10, order=2.0, gamma=0.05, lower=0.1, upper=0.05, replications=1000)
    with pytest.raises(DomainError):
        CriticalPair(n=10, order=2.0, gamma=0.05, lower=0.0, upper=0.05, replications=1000)
    with pytest.raises(DomainError):
        # beyond the closed-form bound 0.125
        CriticalPair(n=10, order=2.0, gamma=0.05, lower=0.05, upper=0.2, replications=1000)


def test_critical_values_guards():
    with pytest.raises(DomainError):
        critical_values(1, order=2.0)
    with pytest.raises(DomainError):
        critical_values(10, order=2.0, replications=500)
    with pytest.raises(DomainError):
        critical_values(10, order=2.0, gamma=1.5)


@pytest.mark.parametrize("gamma", ["x", None, [0.05]])
def test_a_non_numeric_level_raises_the_level_rule(gamma, monkeypatch):
    """A level that is not a number fails the level rule, before anything is drawn."""
    monkeypatch.setattr("wcrte.mc.derive_stream", lambda *key: pytest.fail(f"drew {key}"))
    message = f"^level gamma must lie in \\(0, 1\\), got {re.escape(repr(gamma))}$"
    with pytest.raises(DomainError, match=message):
        critical_values(10, gamma=gamma, replications=1000)
    with pytest.raises(DomainError, match=message):
        power_study(["alt:A,j=2"], 10, ["ks"], gamma=gamma, replications=100)


def test_critical_values_deterministic_and_ordered():
    a = critical_values(20, order=2.0, replications=2000, seed=42)
    b = critical_values(20, order=2.0, replications=2000, seed=42)
    assert a == b
    assert 0.0 < a.lower < a.upper <= statistic_bound(2.0)
    c = critical_values(20, order=2.0, replications=2000, seed=43)
    assert c != a


def test_critical_values_near_published_small_sample():
    pair = critical_values(10, order=None, replications=2000, seed=11)
    assert abs(pair.lower - 0.06755) < 0.01
    assert abs(pair.upper - 0.1572) < 0.01


def test_competitor_critical_value_sides():
    ks = competitor_critical_value("ks", 20, replications=2000, seed=3)
    assert not ks.rejects_low
    assert 0.0 < ks.value < 1.0
    ent = competitor_critical_value("ent", 20, replications=2000, seed=3)
    assert ent.rejects_low
    assert ent.m == default_spacing_window(20)
    with pytest.raises(DomainError):
        competitor_critical_value("wcre", 20, replications=2000)
    with pytest.raises(DomainError):
        competitor_critical_value("ks", 20, replications=500)


# --- single-sample testing ----------------------------------------------------------


def test_uniformity_test_leaves_a_sample_and_a_callers_array_unchanged():
    u = derive_stream(31, 20).random(20)
    sample = Sample(u)
    kept, sorted_kept = u.copy(), sample.sorted_values.copy()
    for x in (u, sample):
        uniformity_test(x, "wcrte:alpha=2", replications=1000)
        uniformity_test(x, "ks", replications=1000)
    assert np.array_equal(u, kept)
    assert np.array_equal(sample.sorted_values, sorted_kept)


ALL_TESTS = ["wcre", "wcrte:alpha=2", "ks", "cvm", "ad", "ent"]


def test_uniform_fixture_is_accepted_by_every_test():
    u = derive_stream(9000, 40).random(20)
    for name in ALL_TESTS:
        result = uniformity_test(u, name, gamma=0.05, replications=2000, seed=17)
        assert not result.reject, name
        assert result.n == 20
        assert result.replications == 2000


def test_clustered_sample_is_rejected_by_every_test():
    bad = np.linspace(0.01, 0.05, 20)
    for name in ALL_TESTS:
        result = uniformity_test(bad, name, gamma=0.05, replications=2000, seed=17)
        assert result.reject, name


def test_uniformity_result_band_fields():
    u = derive_stream(9000, 40).random(20)
    band = uniformity_test(u, "wcrte:alpha=2", replications=2000, seed=17)
    assert band.test == "wcrte"
    assert band.order == 2.0
    assert band.lower is not None and band.upper is not None
    assert band.lower < band.statistic < band.upper
    one_sided = uniformity_test(u, "ad", replications=2000, seed=17)
    assert one_sided.lower is None
    assert one_sided.upper is not None
    assert one_sided.order is None
    low_sided = uniformity_test(u, "ent", replications=2000, seed=17)
    assert low_sided.lower is not None
    assert low_sided.upper is None
    assert low_sided.m == default_spacing_window(20)


def test_uniformity_rejection_is_inclusive_at_the_band():
    u = derive_stream(9000, 40).random(20)
    band = uniformity_test(u, "wcre", replications=2000, seed=17)
    # Feed a synthetic sample whose statistic lands exactly on the upper
    # critical value: scale the statistic by shifting all mass. Simpler and
    # exact: re-invoke with gamma such that the band collapses onto the
    # observed statistic is not possible, so check the documented convention
    # through the comparison operators instead.
    assert band.reject == (band.statistic <= band.lower or band.statistic >= band.upper)


def test_uniformity_test_takes_one_sample_only():
    u = derive_stream(9000, 40).random((3, 20))
    with pytest.raises(DomainError):
        uniformity_test(u, "ks", replications=2000)


def test_uniformity_tests_score_a_read_only_sample_without_writing_it():
    """A Sample's sorted values are a read-only view: the tests read and square
    a copy, never the view itself."""
    u = derive_stream(9000, 41).random(30)
    sample = Sample(u)
    before = sample.sorted_values.copy()
    tests = ["wcre", "ks", "wcrte:alpha=2", "ent"]
    got = uniformity_test(sample, tests, 0.05, 1000, 3)
    assert got == uniformity_test(u, tests, 0.05, 1000, 3)
    assert np.array_equal(sample.sorted_values, before)


# --- power study -----------------------------------------------------------------------


def test_power_study_guards():
    with pytest.raises(DomainError):
        power_study(["alt:B,j=2"], 20, ["ks"], replications=50)


@pytest.mark.parametrize("model", ["exp:lambda=1", "uniform:theta=2", "uniform:theta=1.0001"])
def test_power_study_rejects_alternatives_that_leave_the_unit_interval(null_draws, model):
    """An alternative is judged by its largest draw, quantile(nextafter(1, 0)),
    before anything is drawn, so uniform:theta=1.0001 is refused even where a
    sample of it stays below 1; uniformity_test rejects a sample that does not."""
    with pytest.raises(DomainError, match=f"alternative {model} draws values up to"):
        power_study(["alt:A,j=2", model], 20, ["wcre", "ad"], replications=100)
    assert null_draws == []
    sample = parse_model(model).quantile(derive_stream(4, 20).random(200))
    if sample.max() > 1.0:
        with pytest.raises(DomainError, match="must not exceed 1"):
            uniformity_test(sample, "wcre", replications=1000)


def test_power_study_admits_alternatives_inside_the_unit_interval():
    top = np.nextafter(1.0, 0.0)
    assert parse_model("alt:C,j=1.5").quantile(top) == 1.0  # reaches 1 exactly: allowed
    models = ["uniform:theta=1", "uniform:theta=0.5", "alt:A,j=1.5", "alt:A,j=2",
              "alt:B,j=1.5", "alt:B,j=2", "alt:B,j=3", "alt:C,j=1.5", "alt:C,j=2"]
    cells = power_study(models, 10, ["wcre"], replications=100, seed=2)
    assert [c.alternative for c in cells] == models


def test_power_study_null_size_and_ordering():
    cells = power_study(
        ["uniform:theta=1", "alt:A,j=2"],
        20,
        ["wcre", "ks"],
        gamma=0.05,
        replications=2000,
        seed=29,
    )
    assert [c.alternative for c in cells] == [
        "uniform:theta=1",
        "uniform:theta=1",
        "alt:A,j=2",
        "alt:A,j=2",
    ]
    size = {c.test: c.power for c in cells if c.alternative == "uniform:theta=1"}
    power = {c.test: c.power for c in cells if c.alternative == "alt:A,j=2"}
    for name in ("wcre", "ks"):
        assert abs(size[name] - 0.05) < 0.02
        assert power[name] > size[name] + 0.1
    for c in cells:
        assert c.n == 20
        assert c.replications == 2000


def test_power_cells_do_not_depend_on_later_alternatives():
    first = power_study(["alt:A,j=2"], 15, ["cvm"], replications=500, seed=8)
    both = power_study(["alt:A,j=2", "alt:C,j=2"], 15, ["cvm"], replications=500, seed=8)
    assert both[: len(first)] == first


def test_power_of_entropy_tests_does_not_depend_on_competitors():
    # A test's power does not depend on which other tests share its batches.
    alternatives = ["alt:A,j=2", "alt:C,j=1.5"]
    alone = power_study(alternatives, 15, ["wcre", "wcrte:alpha=2"], replications=500, seed=8)
    mixed = power_study(alternatives, 15, ["wcre", "ks", "wcrte:alpha=2"], replications=500, seed=8)
    assert alone == [c for c in mixed if c.test != "ks"]


@pytest.mark.parametrize("threads", [1, 2, 3])
def test_power_over_sizes_equals_one_power_study_per_size(threads, null_draws):
    """The one pool for a list of sizes gives, bit for bit and in the same
    order, the cells of one ``power_study`` call per size, and draws each
    size's null batch once."""
    alternatives = ["alt:A,j=2", "uniform:theta=1", "alt:C,j=1.5"]
    tests = ["wcre", "wcrte:alpha=2", "ks", "ad", "ent"]
    sizes = (20, 10, 30, 10)
    cells = power_study(alternatives, sizes, tests, 0.05, 300, 11, threads)
    assert sorted(null_draws) == sorted((11, n) for n in sizes)
    want = [cell for n in sizes for cell in power_study(alternatives, n, tests, replications=300,
                                                        seed=11)]
    assert cells == want


def test_power_over_sizes_under_thread_switching_draws_each_null_once(null_draws, monkeypatch):
    """Six threads, switching every microsecond, with calibrations slower
    than the alternatives: every alternative waits for the one calibration
    of its size, and the run finishes."""
    alternatives = ["alt:A,j=2", "alt:B,j=2", "alt:C,j=2", "uniform:theta=1"]
    sizes = (10, 12, 14, 16, 18, 20)
    want = power_study(alternatives, sizes, ["wcre", "ks"], 0.05, 100, 5, 1)
    null_draws.clear()
    bands = gof._null_bands
    monkeypatch.setattr(gof, "_null_bands", lambda *a: time.sleep(0.05) or bands(*a))
    got = []
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        worker = threading.Thread(target=lambda: got.append(
            power_study(alternatives, sizes, ["wcre", "ks"], 0.05, 100, 5, 6)))
        worker.start()
        worker.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not worker.is_alive()
    assert got == [want]
    assert sorted(null_draws) == [(5, n) for n in sizes]


def test_power_over_sizes_checks_every_size_before_any_draw(null_draws):
    """A window that a later size does not admit fails before any size is
    drawn, with the error one call per size would raise."""
    with pytest.raises(DomainError, match="m=5 for n=10"):
        power_study(["alt:A,j=2"], (30, 10), ["ent:m=5"], 0.05, 300, 11, 2)
    assert null_draws == []


# --- one null batch per call -------------------------------------------------------


@pytest.fixture
def null_draws(monkeypatch):
    """The (seed, n) of every null batch drawn while the test runs."""
    keys = []
    draw = gof.gof_null_stream

    def counting(seed, n):
        keys.append((seed, n))
        return draw(seed, n)

    monkeypatch.setattr(gof, "gof_null_stream", counting)
    return keys


@pytest.mark.parametrize("n", [10, 37, 100])
def test_critical_pairs_equal_one_order_calls(n):
    orders = (None, 1.5, 2.0, 10.0)
    pairs = critical_values((n,), orders, 0.05, 1000, 17)
    assert pairs == [critical_values(n, a, 0.05, 1000, 17) for a in orders]


@pytest.mark.parametrize("threads", [1, 2, 3])
def test_critical_pairs_over_sizes_equal_one_call_per_pair(threads, null_draws):
    """Several sizes on one pool give, n by n, the pairs of one
    critical_values call each, and draw each size's null batch once."""
    sizes, orders = (20, 10, 30), (None, 1.5, 7.0)
    pairs = critical_values(sizes, orders, 0.05, 1000, 17, threads)
    assert sorted(null_draws) == [(17, n) for n in sorted(sizes)]
    assert pairs == [critical_values(n, a, 0.05, 1000, 17) for n in sizes for a in orders]


def test_verify_tables_draw_each_null_batch_once(null_draws):
    verify_table(7, replications=1000)
    assert len(null_draws) == len(set(null_draws)) == 14
    null_draws.clear()
    # One null batch per n = 10, 20, 30, each calibrating every test.
    verify_table(8, replications=1000)
    assert len(null_draws) == 3


def test_one_value_gives_one_result_and_a_list_a_list():
    u = derive_stream(9000, 42).random(20)
    pair = critical_values(10, 2.0, replications=1000)
    assert critical_values([10], 2.0, replications=1000) == [pair]
    assert critical_values(10, (2.0,), replications=1000) == [pair]
    assert critical_values(10, [None, 2.0], replications=1000) == [
        critical_values(10, a, replications=1000) for a in (None, 2.0)]
    result = uniformity_test(u, "ks", replications=1000)
    assert uniformity_test(u, ["ks"], replications=1000) == [result]
    assert uniformity_test(u, (parse_test("ks"),), replications=1000) == [result]
    # One size already gives a list of cells; a list of sizes gives each size's in turn.
    cells = power_study(["alt:A,j=2"], 10, ["ks", "wcre"], replications=100)
    assert power_study(["alt:A,j=2"], [10], ["ks", "wcre"], replications=100) == cells


@pytest.fixture
def public_calls(monkeypatch):
    """The names of the ``gof.critical_values`` and ``gof.power_study`` calls made.

    Each is wrapped wherever a loaded ``wcrte`` module binds it, as a tracer
    that wraps functions by identity would see the calls.
    """
    calls = []
    modules = [m for key, m in list(sys.modules.items())
               if m is not None and (key == "wcrte" or key.startswith("wcrte."))]
    for name in ("critical_values", "power_study"):
        orig = getattr(gof, name)

        def counting(*args, _orig=orig, _name=name, **kwargs):
            calls.append(_name)
            return _orig(*args, **kwargs)

        for module in modules:
            for attr, value in list(vars(module).items()):
                if value is orig:
                    monkeypatch.setattr(module, attr, counting)
    return calls


@pytest.mark.parametrize("run, name", [
    pytest.param(lambda: verify_table(7, replications=1000), "critical_values", id="table 7"),
    pytest.param(lambda: verify_table(8, replications=1000), "power_study", id="table 8"),
    pytest.param(lambda: cli.main(["critical-values", "--n", "10,20", "--reps", "1000"]),
                 "critical_values", id="critical-values"),
    pytest.param(lambda: cli.main(["power", "--alternative", "alt:A,j=2", "--test", "ks",
                                   "--reps", "100"]), "power_study", id="power"),
])
def test_commands_call_the_public_gof_functions_once(public_calls, run, name, capsys):
    run()
    assert public_calls == [name]


def test_critical_pairs_hold_two_batches_at_peak():
    # Each tile of draws (655 rows of 100) is squared in place, so the peak
    # is about one tile's squares and their spacings plus the statistic
    # vectors: 1.15 MB, or 1.44 whole batches, with numpy 2.4. Squares kept
    # beside the sorted tile would add one more tile (0.52 MB). The bound is
    # two and a half whole batches.
    n, reps = 100, 1000
    orders = (None, 2.0, 5.0, 7.0, 10.0)
    critical_values((n,), orders, 0.05, reps, 3)  # first-call allocations
    tracemalloc.start()
    try:
        critical_values((n,), orders, 0.05, reps, 3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2.5 * reps * n * 8


@pytest.mark.parametrize("table", [2, 7, 8])
@pytest.mark.parametrize(
    "reps, message",
    [(1000.7, "replications must be an integer, got 1000.7"), (0, "need replications >= .*, got 0")],
)
def test_verify_table_replication_count_goes_through_the_size_rule(table, reps, message):
    """Only ``None`` selects the published count; nothing is truncated."""
    with pytest.raises(DomainError, match=message):
        verify_table(table, replications=reps)


# --- kernels and tiles: the bits of the whole-batch forms ---------------------------


def _kernel_inputs(n, rng):
    """Sorted [0, 1) batches of size n: plain, one row, tied, and touching 0 and 1 - eps."""
    top = np.nextafter(1.0, 0.0)
    plain = np.sort(rng.random((7, n)), axis=1)
    tied = np.sort(rng.integers(0, 3, (5, n)) / 4.0, axis=1)
    ends = plain.copy()
    ends[0, 0], ends[1, -1], ends[2, :] = 0.0, top, np.linspace(0.0, top, n)
    ends.sort(axis=1)
    return [plain, plain[:1], plain[:2], tied, tied[:1], ends, ends[:1]]


def test_competitor_kernels_match_the_reference_bits():
    rng = np.random.default_rng(2024)
    for n in range(1, 201):
        windows = sorted({1, max_window(n), default_spacing_window(n)}) if n >= 3 else []
        for rows in _kernel_inputs(n, rng):
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                pairs = [
                    (gof._ks_stat(rows), naive.ks_rows(rows)),
                    (gof._cvm_stat(rows), naive.cvm_rows(rows)),
                    (gof._ad_stat(rows), naive.ad_rows(rows)),
                    *((gof._ent_stat(rows, m), naive.ent_rows(rows, m)) for m in windows),
                ]
            for k, (got, want) in enumerate(pairs):
                assert np.array_equal(got, want), (n, rows.shape, k)


QUANTILE_LEVELS = (0.0005, 0.005, 0.025, 0.05, 0.1, 0.5, 0.9, 0.95, 0.975, 0.9995)


def test_one_rank_quantile_has_the_bits_of_np_quantile():
    """One partition and numpy's linear rule give ``np.quantile``'s bits, at
    sizes 1 to 20 000, with and without ties, at the levels the tests use."""
    rng = np.random.default_rng(7)
    sizes = (1, 2, 3, 4, 5, 9, 10, 11, 99, 100, 101, 999, 1000, 1001, 4096, 9999, 10_000, 20_000)
    cases = 0
    for r in sizes:
        for values in (rng.random(r), rng.integers(0, 7, r) / 8.0, np.full(r, 0.25)):
            for q in QUANTILE_LEVELS:
                got = gof._quantile(values, q)
                want = float(np.quantile(values, q))
                assert got.hex() == want.hex(), (r, q)
                cases += 1
            lo, hi = np.quantile(values, [0.025, 0.975])  # one call for a band, as before
            assert (gof._quantile(values, 0.025), gof._quantile(values, 0.975)) == (lo, hi)
    assert cases == len(sizes) * 3 * len(QUANTILE_LEVELS)


def test_one_rank_quantile_leaves_nan_to_np_quantile(monkeypatch):
    values = np.random.default_rng(8).random(1000)
    values[[17, 400]] = np.nan
    called = []
    quantile = np.quantile
    monkeypatch.setattr(gof.np, "quantile", lambda a, q: called.append(q) or quantile(a, q))
    for q in (0.025, 0.975):
        assert math.isnan(gof._quantile(values, q))
    assert called == [0.025, 0.975]
    # No NaN: one partition, no call.
    assert gof._quantile(values[:17], 0.5) == quantile(values[:17], 0.5)
    assert called == [0.025, 0.975]


def test_stephens_quantile_matches_the_two_branch_bits():
    half = [0.0, 0.5, np.nextafter(0.5, 0.0), np.nextafter(0.5, 1.0), np.nextafter(1.0, 0.0), 5e-324]
    u = np.concatenate([np.random.default_rng(5).random(20_000), half])
    for family, j in (("B", 1.5), ("B", 2.0), ("B", 3.0), ("C", 1.5), ("C", 2.0)):
        model = StephensAlternative(family, j)
        assert np.array_equal(model.quantile(u), naive.stephens_quantile(family, j, u))
        grid = u[:200].reshape(20, 10)
        assert np.array_equal(model.quantile(grid), naive.stephens_quantile(family, j, grid))
        for v in half + [0.3, 0.9]:
            got = model.quantile(v)
            assert isinstance(got, float)
            assert got == naive.stephens_quantile(family, j, v), (family, j, v)


def test_one_row_tile_gives_the_bits_of_the_batch():
    """Every statistic scores a lone row as it scores that row inside a batch,
    so a tile of one row keeps the bits of the whole batch."""
    tests = [parse_test(t) for t in ("wcre", "wcrte:alpha=2", "ks", "cvm", "ad", "ent", "ent:m=1")]
    for n in range(3, 200):
        scored = [t.resolved(n) for t in tests]
        band = gof._band_rows(scored, n)
        rows = np.sort(derive_stream(8, n).random((5, n)), axis=1)
        whole = gof._score_rows(rows.copy(), scored, band)
        for k in range(len(rows)):
            alone = gof._score_rows(rows[k : k + 1], scored, band)
            for test, got, want in zip(scored, alone, whole):
                assert got[0] == want[k], (n, k, test.label())
    for n in (1, 7, 50, 70_000):
        for reps in (100, 1001, 1310 * 3 + 1, 65_537):
            tiles = list(gof._tiles(reps, n))
            assert tiles[0][0] == 0 and tiles[-1][1] == reps
            assert all(a[1] == b[0] for a, b in zip(tiles, tiles[1:]))


def test_one_pass_tile_scoring_matches_the_per_test_scorer():
    """All entropy-band tests of a tile in one pass give the bits of one
    public estimate per test, in place or on a read-only tile, down to
    one-row tiles."""
    names = ("wcrte:alpha=2", "ks", "wcre", "cvm", "wcrte:alpha=7", "ad", "ent", "wcrte:alpha=1.5")
    tests = [parse_test(t) for t in names]
    rng = np.random.default_rng(15)
    for n in [*range(2, 201), 9000]:
        scored = [t.resolved(n) for t in tests if n >= 3 or t.name != "ent"]
        band = gof._band_rows(scored, n)
        full = max(1, gof._TILE_VALUES // n)
        for r in sorted({1, 2, 7, full}):
            rows = np.sort(rng.random((r, n)), axis=1)
            read_only = rows.copy()
            read_only.setflags(write=False)
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                want = naive.score_rows(rows, scored)
                in_place = gof._score_rows(rows.copy(), scored, band)
                copied = gof._score_rows(read_only, scored, band)
            assert in_place.shape == copied.shape == (len(scored), r)
            assert np.array_equal(read_only, rows)
            for k, test in enumerate(scored):
                assert np.array_equal(in_place[k], want[k]), (n, r, test.label())
                assert np.array_equal(copied[k], want[k]), (n, r, test.label())


def test_ent_row_sums_match_the_reference_on_both_branches():
    """Tiles taller than wide add their logs column by column, the others take
    the running sum; both give the index-order bits, zero spacings included."""
    rng = np.random.default_rng(16)
    for n in (3, 4, 10, 30, 200):
        for r in sorted({1, n - 1, n, n + 1, 3 * n, gof._TILE_VALUES // n}):
            plain = np.sort(rng.random((r, n)), axis=1)
            tied = np.sort(rng.integers(0, 4, (r, n)) / 4.0, axis=1)
            for rows in (plain, tied):
                for m in sorted({1, default_spacing_window(n), max_window(n)}):
                    with warnings.catch_warnings():
                        warnings.simplefilter("ignore")
                        got = gof._ent_stat(rows, m)
                    assert np.array_equal(got, naive.ent_rows(rows, m)), (n, r, m)
            logs = rng.standard_normal((r, n))
            want = []
            for row in logs.tolist():
                total = row[0]
                for value in row[1:]:
                    total += value
                want.append(total)
            assert np.array_equal(gof._row_sums(logs), want), (n, r)


@pytest.mark.parametrize("n, reps", [(13, 4 * 25 + 1), (13, 103), (7, 100)])
def test_tiled_scoring_equals_one_tile(monkeypatch, n, reps):
    tests = [parse_test(t) for t in ("wcre", "wcrte:alpha=2", "ks", "cvm", "ad", "ent", "ent:m=1")]
    scored = [t.resolved(n) for t in tests]
    alt = StephensAlternative("C", 1.5)

    def score(quantile):
        stream = derive_stream(6, 2, n)
        return gof._score(stream, n, reps, scored, quantile)

    whole = [score(None), score(alt.quantile)]
    for rows in (4, 1):
        monkeypatch.setattr(gof, "_TILE_VALUES", rows * n)
        assert len(list(gof._tiles(reps, n))) > 20
        tiled = [score(None), score(alt.quantile)]
        for got, want in zip(tiled, whole):
            assert np.array_equal(got, want), rows


def test_score_builds_each_band_row_once_per_call(monkeypatch):
    """``_score`` builds the coefficient row of each entropy-band test once,
    before its first tile, whatever its tile count."""
    n, reps = 13, 103
    names = ("wcre", "ks", "wcrte:alpha=2", "ent", "wcrte:alpha=7")
    tests = [parse_test(t).resolved(n) for t in names]
    built = []
    build = est._build_coefficients

    def counted(kind, order, windows, plotting, n, tails):
        out = build(kind, order, windows, plotting, n, tails)
        built.append((kind, order, len(out)))
        return out

    monkeypatch.setattr(est, "_build_coefficients", counted)
    want = [(est.EstimatorKind.EMPIRICAL, order, 1) for order in (None, 2.0, 7.0)]
    whole = gof._score(derive_stream(6, 2, n), n, reps, tests)
    assert built == want
    for rows in (4, 1):
        built.clear()
        monkeypatch.setattr(gof, "_TILE_VALUES", rows * n)
        assert len(list(gof._tiles(reps, n))) > 20
        tiled = gof._score(derive_stream(6, 2, n), n, reps, tests)
        assert built == want, rows
        assert np.array_equal(tiled, whole), rows


@pytest.mark.parametrize(
    "run",
    [
        pytest.param(lambda threads: verify_table(3, replications=1000, threads=threads), id="3"),
        pytest.param(lambda threads: verify_table(7, replications=1000, threads=threads), id="7"),
        pytest.param(lambda threads: verify_table(8, replications=1000, threads=threads), id="8"),
        pytest.param(
            lambda threads: power_study(
                ["alt:A,j=2", "alt:B,j=3", "alt:C,j=1.5"], 20, ["wcre", "wcrte:alpha=2", "ks", "ent"],
                replications=1000, seed=5, threads=threads,
            ),
            id="power_study",
        ),
    ],
)
def test_verify_groups_do_not_depend_on_threads(run):
    assert run(3) == run(2) == run(1)


def test_power_holds_two_alternatives_statistics_at_two_threads():
    """An alternative reduces its statistics to cells in its own task, so at
    two threads the peak is at most twice one thread's working set (tiles and
    one task's statistic vectors) plus the statistics of two alternatives and
    one calibration, not those of every alternative."""
    tests = ["wcre", "wcrte:alpha=2", "ks", "cvm", "ad", "ent"]
    alternatives = ["alt:A,j=1.5", "alt:A,j=2", "alt:B,j=1.5", "alt:B,j=2", "alt:C,j=2"]
    reps = 20_000
    vectors = len(tests) * reps * 8
    peaks = {}
    for threads in (1, 2):
        # First-call allocations.
        power_study(alternatives[:1], (50,), tests, 0.05, reps, 3, threads)
        tracemalloc.start()
        try:
            power_study(alternatives, (50, 40), tests, 0.05, reps, 3, threads)
            peaks[threads] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    # One thread: one task's statistics and a few tile-sized arrays (0.5 MB
    # each); the statistics of all ten alternatives would be 9.6 MB.
    assert peaks[1] <= vectors + 6 * gof._TILE_VALUES * 8, peaks[1] / vectors
    assert peaks[2] <= 2 * (peaks[1] - vectors) + 3 * vectors, (peaks[1], peaks[2], vectors)


def test_power_study_peak_grows_only_by_its_statistic_vectors():
    """Batches are scored in tiles: only the R-long statistic vectors grow with R."""
    tests = ["wcre", "wcrte:alpha=2", "ks", "cvm", "ad", "ent"]
    peaks = {}
    for reps in (2_000, 20_000):
        power_study(["alt:B,j=2"], 50, tests, replications=reps, seed=3)  # first-call allocations
        tracemalloc.start()
        try:
            power_study(["alt:B,j=2", "alt:A,j=2"], 50, tests, replications=reps, seed=3)
            peaks[reps] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    vectors = len(tests) * (20_000 - 2_000) * 8
    assert peaks[20_000] - peaks[2_000] <= 1.25 * vectors
    # One whole (R, n) batch alone would be 8 MB at R = 20 000.
    assert peaks[20_000] <= 0.6 * 20_000 * 50 * 8
