"""Model families, closed forms, quadrature routes, and the spec-string grammar."""

import math
import warnings

import numpy as np
import pytest

import naive
from test_cli import run_cli
from wcrte import (
    DivergenceError,
    DomainError,
    Exponential,
    NumericError,
    ParetoOne,
    ParseError,
    Rayleigh,
    StephensAlternative,
    Uniform,
    Weibull,
    check_order,
    closed_wcre,
    closed_wcrte,
    entropy_bound_offset,
    order_from_label,
    order_label,
    parse_model,
    wcrte_by_quadrature,
    wcrte_lower_bound,
)
from wcrte.distributions import _unit_quad

EULER_GAMMA = 0.5772156649015329


# --- closed forms ------------------------------------------------------------


def test_closed_wcrte_hand_values():
    assert math.isclose(closed_wcrte(Uniform(1.0), 2.0), 1.0 / 12.0, rel_tol=0, abs_tol=1e-12)
    assert math.isclose(closed_wcrte(Exponential(1.0), 2.0), 1.5, rel_tol=0, abs_tol=1e-12)
    assert math.isclose(closed_wcrte(Rayleigh(1.0), 2.0), 0.5, rel_tol=0, abs_tol=1e-12)
    assert math.isclose(closed_wcrte(Weibull(1.0, 2.0), 2.0), 0.25, rel_tol=0, abs_tol=1e-12)
    # Weibull with shape 2 is a Rayleigh in disguise.
    assert math.isclose(
        closed_wcrte(Weibull(1.0, 2.0), 2.0),
        closed_wcrte(Rayleigh(1.0 / math.sqrt(2.0)), 2.0),
        rel_tol=0,
        abs_tol=1e-12,
    )
    assert math.isclose(closed_wcrte(ParetoOne(1.0, 3.0), 2.0), 0.75, rel_tol=0, abs_tol=1e-12)


def test_closed_wcrte_scales_with_theta_squared():
    base = closed_wcrte(Uniform(1.0), 3.0)
    assert math.isclose(closed_wcrte(Uniform(5.0), 3.0), 25.0 * base, rel_tol=1e-12)
    base = closed_wcrte(Exponential(1.0), 2.5)
    assert math.isclose(closed_wcrte(Exponential(2.0), 2.5), base / 4.0, rel_tol=1e-12)


@pytest.mark.parametrize(
    "spec",
    ["uniform:theta=1e200", "rayleigh:sigma=1e200", "exp:lambda=1e-200",
     "weibull:lambda=1e-200,p=2", "pareto1:k=1e200,delta=3", "uniform:theta=1e154"],
)
def test_closed_forms_out_of_float_range_raise_numeric_error(spec, capsys):
    for order in (2.0, None):
        with pytest.raises(NumericError, match="leaves the float range"):
            closed_wcrte(parse_model(spec), order)
    code, out, err = run_cli(
        ["mse-study", "--model", spec, "--n", "10", "--estimator", "empirical", "--reps", "10"],
        capsys,
    )
    assert (code, out) == (4, "")
    assert "leaves the float range" in err


def test_closed_wcre_hand_values():
    assert math.isclose(closed_wcre(Uniform(1.0)), 5.0 / 36.0, abs_tol=1e-8)
    assert math.isclose(closed_wcre(Exponential(1.0)), 2.0, abs_tol=1e-8)
    assert math.isclose(closed_wcre(Exponential(2.0)), 0.5, abs_tol=1e-8)
    assert math.isclose(closed_wcre(Rayleigh(1.0)), 1.0, abs_tol=1e-8)
    assert math.isclose(closed_wcre(Weibull(1.0, 2.0)), 0.5, abs_tol=1e-8)
    assert math.isclose(closed_wcre(ParetoOne(1.0, 3.0)), 3.0, abs_tol=1e-8)


def test_closed_wcre_is_the_order_none_route():
    assert closed_wcrte(Exponential(1.0), None) == closed_wcre(Exponential(1.0))


def test_quadrature_route_agrees_except_for_the_exponential():
    """The defining integral and the closed table agree for four families.

    For the exponential family the closed table is exactly order times the
    integral; that discrepancy is pinned here so it cannot be silently
    reconciled in either direction later. At the WCRE (order None, that is
    order 1) all five families agree.
    """
    for model in (Uniform(2.0), Rayleigh(0.7), Weibull(1.5, 2.5), ParetoOne(1.0, 4.0)):
        for a in (1.5, 2.0, 3.0, None):
            assert math.isclose(
                closed_wcrte(model, a), wcrte_by_quadrature(model, a), rel_tol=1e-9
            ), model.spec_string()
    for a in (1.5, 2.0, 3.0, None):
        q = wcrte_by_quadrature(Exponential(1.3), a)
        assert math.isclose(closed_wcrte(Exponential(1.3), a), (a or 1.0) * q, rel_tol=1e-9)


def test_quadrature_passes_domain_errors_through():
    # A sampling-only alternative has no quantile slope: that is a domain
    # fault (exit 3) on both routes, not a numerical failure (exit 4).
    alt = parse_model("alt:A,j=2")
    with pytest.raises(DomainError):
        closed_wcrte(alt, 2.0)
    with pytest.raises(DomainError, match="sampling-only"):
        wcrte_by_quadrature(alt, 2.0)
    # Any other failure inside the integration is still a numerical one.
    with pytest.raises(NumericError, match="quadrature failed"):
        _unit_quad(lambda u: 1.0 / 0.0, 1e-8, "a failing integrand")


#: WCRE formulas: 5 theta^2/36, 2/lambda^2, sigma^2, Gamma(2/p + 1)/(p lambda^2),
#: delta k^2/(delta - 2)^2, at large or heavy-tailed truths where a 1e-10
#: quadrature gives up.
LARGE_WCRE = {
    "pareto1:k=1,delta=2.05": 2.05 / 0.05**2,
    "pareto1:k=1,delta=2.2": 2.2 / 0.2**2,
    "pareto1:k=1,delta=2.5": 2.5 / 0.5**2,
    "exp:lambda=0.001": 2.0 / 0.001**2,
    "uniform:theta=1000": 5.0 * 1000.0**2 / 36.0,
    "weibull:lambda=1,p=0.3": math.gamma(2.0 / 0.3 + 1.0) / 0.3,
    "weibull:lambda=1,p=0.5": math.gamma(5.0) / 0.5,
}


@pytest.mark.parametrize("spec", LARGE_WCRE)
def test_large_wcre_truths_are_their_formulas(spec):
    assert math.isclose(closed_wcre(parse_model(spec)), LARGE_WCRE[spec], rel_tol=1e-13)


def test_wcre_study_of_a_heavy_pareto_runs(capsys):
    code, out, err = run_cli(["mse-study", "--model", "pareto1:k=1,delta=2.2", "--n", "10",
                              "--alpha", "1", "--reps", "100", "--estimator", "e"], capsys)
    assert (code, err) == (0, "")
    assert "pareto1:k=1,delta=2.2" in out


def test_pareto_divergence_regimes():
    with pytest.raises(DivergenceError):
        closed_wcrte(ParetoOne(1.0, 1.5), 2.0)  # infinite variance
    with pytest.raises(DivergenceError):
        closed_wcrte(ParetoOne(1.0, 3.0), 0.5)  # delta * alpha = 1.5 <= 2
    with pytest.raises(DivergenceError):
        closed_wcre(ParetoOne(1.0, 2.0))
    # Just inside the valid region everything is finite.
    assert closed_wcrte(ParetoOne(1.0, 2.1), 2.0) > 0.0


# --- order helpers -----------------------------------------------------------


def test_check_order_rejects_one_and_nonpositive():
    assert check_order(2.0) == 2.0
    for bad in (1.0, 1.0 + 1e-13, 0.0, -2.0):
        with pytest.raises(DomainError):
            check_order(bad)


def test_order_label_round_trip():
    assert order_from_label(1) is None
    assert order_from_label("1") is None
    assert order_from_label(None) is None
    assert order_from_label(2) == 2.0
    assert order_label(None) == "1"
    assert order_label(2.0) == "2"
    assert order_label(6.5) == "6.5"
    # %g would print 2; labels keep every digit %g drops.
    assert order_label(2.0000001) == "2.0000001"
    assert order_from_label(order_label(2.0000001)) == 2.0000001


# --- model mechanics ---------------------------------------------------------


def test_quantile_cdf_round_trip():
    rng = np.random.default_rng(11)
    u = rng.random(200)
    for model in (
        Uniform(3.0),
        Exponential(0.5),
        Rayleigh(2.0),
        ParetoOne(1.5, 3.0),
        Weibull(2.0, 1.5),
    ):
        x = model.quantile(u)
        assert np.allclose(model.cdf(x), u, atol=1e-12), model.spec_string()
        assert np.allclose(model.survival(x), 1.0 - u, atol=1e-12)


def test_quantile_slope_matches_finite_differences():
    u = np.linspace(0.05, 0.9, 18)
    h = 1e-6
    for model in (Uniform(2.0), Exponential(1.5), Rayleigh(0.8), Weibull(1.0, 2.0)):
        approx = (model.quantile(u + h) - model.quantile(u - h)) / (2.0 * h)
        assert np.allclose(model.quantile_slope(u), approx, rtol=1e-5)


#: One model per family and shape of formula, alternatives included.
EVERY_FAMILY = (
    Uniform(2.5), Exponential(1.7), Rayleigh(0.8), ParetoOne(1.5, 3.0), Weibull(1.3, 2.0),
    Weibull(0.7, 1.5), StephensAlternative("A", 2.0), StephensAlternative("A", 1.5),
    StephensAlternative("B", 1.5), StephensAlternative("B", 3.0), StephensAlternative("C", 2.0),
    StephensAlternative("C", 1.5),
)


@pytest.mark.parametrize("model", EVERY_FAMILY, ids=str)
def test_quantile_has_the_bits_of_the_out_of_place_formula(model):
    """Each family's in-place formula gives the bits of its earlier
    out-of-place expression (``naive.quantile``) on arrays of every layout,
    the ends 0 and nextafter(1, 0) included, and on 0-d arguments, whose pow
    is numpy's scalar one; the argument is never modified."""
    ends = [0.0, np.nextafter(1.0, 0.0), 0.5, np.nextafter(0.5, 0.0), np.nextafter(0.5, 1.0), 5e-324]
    u = np.concatenate([np.random.default_rng(12).random(30_000), ends])
    for arg in (u, u.reshape(-1, 6), u.reshape(-1, 6)[:, ::-1], u.reshape(6, -1).T):
        before = arg.copy()
        readonly = arg.copy()
        readonly.flags.writeable = False
        for given in (arg, readonly):
            got = model.quantile(given)
            assert got.shape == arg.shape
            assert got.tobytes() == naive.quantile(model, arg).tobytes()
        assert np.array_equal(arg, before)
    for value in [*u[:300].tolist(), *ends]:
        for given in (value, np.array(value)):
            got = model.quantile(given)
            assert isinstance(got, float)
            assert got == naive.quantile(model, value), value
    assert model.quantile(u[:2].tolist()).tobytes() == naive.quantile(model, u[:2]).tobytes()


def test_quantile_domain():
    m = Exponential(1.0)
    assert m.quantile(0.0) == 0.0
    assert Uniform(2.0).quantile(0.0) == 0.0
    for bad in (1.0, 1.5, -0.1):
        with pytest.raises(DomainError):
            m.quantile(bad)


@pytest.mark.parametrize(
    "spec",
    ["uniform:theta=2", "exp:lambda=1", "rayleigh:sigma=1", "pareto1:k=1,delta=3",
     "weibull:lambda=1,p=1.5", "alt:A,j=2", "alt:B,j=2", "alt:C,j=1.5"],
)
def test_quantile_rejects_nan(spec):
    model = parse_model(spec)
    for bad in (float("nan"), [0.2, float("nan")], np.array([[0.5], [np.nan]])):
        with pytest.raises(DomainError, match=r"\[0, 1\)"):
            model.quantile(bad)
    assert model.quantile(np.empty(0)).shape == (0,)


def test_sample_shape_and_support():
    stream = np.random.default_rng(4)
    x = ParetoOne(2.0, 3.0).sample(64, stream)
    assert x.shape == (64,)
    assert (x >= 2.0).all()


def test_positive_parameter_validation():
    for make in (
        lambda: Uniform(0.0),
        lambda: Exponential(-1.0),
        lambda: Rayleigh(0.0),
        lambda: ParetoOne(0.0, 3.0),
        lambda: Weibull(1.0, -2.0),
    ):
        with pytest.raises(DomainError):
            make()


@pytest.mark.parametrize(
    "spec, key",
    [
        ("uniform:theta=-1", "theta"),
        ("exp:lambda=-1", "lambda"),
        ("rayleigh:sigma=-1", "sigma"),
        ("pareto1:k=-1,delta=3", "k"),
        ("pareto1:k=1,delta=-1", "delta"),
        ("weibull:lambda=-1,p=1", "lambda"),
        ("weibull:lambda=1,p=-1", "p"),
        ("alt:A,j=-1", "j"),
    ],
)
def test_positivity_errors_name_the_spec_key(spec, key):
    with pytest.raises(DomainError, match=f"^parameter {key} must be positive, got -1.0$"):
        parse_model(spec)


# --- spec-string grammar ------------------------------------------------------


def test_parse_model_families_and_round_trip():
    cases = {
        "uniform:theta=1": Uniform(1.0),
        "exp:lambda=2": Exponential(2.0),
        "rayleigh:sigma=1.5": Rayleigh(1.5),
        "pareto1:k=1,delta=3": ParetoOne(1.0, 3.0),
        "weibull:lambda=1,p=2": Weibull(1.0, 2.0),
        "exp:lambda=1.00000001": Exponential(1.00000001),
    }
    for text, expected in cases.items():
        model = parse_model(text)
        assert model == expected
        assert parse_model(model.spec_string()) == model


def test_parse_model_is_case_insensitive():
    assert parse_model("EXP:Lambda=2") == Exponential(2.0)
    assert parse_model("alt:b,j=2") == StephensAlternative("B", 2.0)


def test_parse_model_errors():
    for bad in (
        "gamma:k=1",
        "exp",
        "exp:lambda=2,lambda=3",
        "weibull:lambda=1",
        "exp:rate=2",
        "exp:lambda=abc",
        "exp:lambda",
        "exp:2",
        "alt:B,j=1.5,j=2",
        "alt:B,J=1.5,j=2",
    ):
        with pytest.raises(ParseError):
            parse_model(bad)
    # Constructor-level domain problems pass through unchanged.
    with pytest.raises(DomainError):
        parse_model("alt:D,j=2")
    with pytest.raises(DomainError):
        parse_model("exp:lambda=-1")


# --- alternatives for the power study -----------------------------------------


def test_stephens_b2_quantile_hand_value():
    assert StephensAlternative("B", 2.0).quantile(0.125) == pytest.approx(0.25, abs=1e-12)


def test_stephens_quantile_inverts_cdf():
    rng = np.random.default_rng(7)
    u = rng.random(100)
    for family, j in (("A", 1.5), ("A", 2.0), ("B", 1.5), ("B", 3.0), ("C", 1.5), ("C", 2.0)):
        model = StephensAlternative(family, j)
        x = model.quantile(u)
        assert ((x >= 0.0) & (x <= 1.0)).all()
        assert np.allclose(model.cdf(x), u, atol=1e-10), f"{family}{j}"


def test_stephens_j_one_is_uniform():
    u = np.linspace(0.0, 0.999, 31)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for family in ("A", "B", "C"):
            assert np.allclose(StephensAlternative(family, 1.0).quantile(u), u, atol=1e-12)


def test_stephens_off_grid_warns():
    with pytest.warns(UserWarning):
        StephensAlternative("A", 7.0)


def test_stephens_mass_direction():
    """A pushes mass toward 0, B toward the center, C toward the endpoints."""
    u = np.linspace(0.001, 0.999, 999)
    a = StephensAlternative("A", 2.0).quantile(u)
    b = StephensAlternative("B", 2.0).quantile(u)
    c = StephensAlternative("C", 2.0).quantile(u)
    assert a.mean() < u.mean()
    assert np.abs(b - 0.5).mean() < np.abs(u - 0.5).mean()
    assert np.abs(c - 0.5).mean() > np.abs(u - 0.5).mean()


def test_stephens_has_no_quantile_slope():
    with pytest.raises(DomainError):
        StephensAlternative("B", 2.0).quantile_slope(0.3)


# --- lower bound ---------------------------------------------------------------


def test_entropy_bound_offset_at_order_two():
    assert entropy_bound_offset(2.0) == pytest.approx(-2.0, abs=1e-8)


def test_lower_bound_hand_values():
    got = wcrte_lower_bound(Exponential(1.0), 2.0)
    assert got == pytest.approx(math.exp(-1.0 - EULER_GAMMA), rel=1e-6)
    assert wcrte_lower_bound(Uniform(1.0), 2.0) == pytest.approx(math.exp(-3.0), rel=1e-6)


def test_lower_bound_sits_below_the_measure():
    for model in (Uniform(1.0), Exponential(1.0), Rayleigh(1.0), Weibull(1.0, 2.0)):
        for a in (1.5, 2.0, 4.0):
            assert wcrte_lower_bound(model, a) <= wcrte_by_quadrature(model, a) + 1e-12
