"""Uniformity tests: statistics, bands, critical values, and power."""

import math

import numpy as np
import pytest
from scipy.optimize import brentq

import naive
from wcrte import (
    ORDER_CENTERED,
    WCRE_STATISTIC_BOUND,
    CriticalPair,
    DomainError,
    GofTest,
    ParseError,
    competitor_critical_value,
    competitor_statistic,
    critical_values,
    default_spacing_window,
    derive_stream,
    null_statistic_value,
    parse_test,
    power_study,
    statistic_bound,
    uniformity_test,
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


# --- test descriptors ----------------------------------------------------------------


def test_gof_test_validation():
    assert GofTest(name="wcrte", order=2.0).label() == "wcrte:alpha=2"
    assert GofTest(name="wcre").label() == "wcre"
    assert GofTest(name="ent", m=5).label() == "ent:m=5"
    assert GofTest(name="ent").resolved_m(10) == 4
    assert GofTest(name="ent", m=2).resolved_m(10) == 2
    assert GofTest(name="ks").resolved_m(10) is None
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


# --- power study -----------------------------------------------------------------------


def test_power_study_guards():
    with pytest.raises(DomainError):
        power_study(["alt:B,j=2"], 20, ["ks"], replications=50)


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
