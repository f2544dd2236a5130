"""Each parameter rule raises one message from every entry point.

A library entry raises the rule's DomainError, or a ParseError naming the
spec at a parser; a command exits 3 or 2 with the same message. Each warning
names the line that called the library.
"""

import ast
import os
import warnings
from pathlib import Path

import numpy as np
import pytest

import wcrte
from test_cli import run_cli
from wcrte import (
    DomainError,
    EstimatorKind,
    EstimatorSpec,
    Exponential,
    GofTest,
    McStudyConfig,
    ParseError,
    Sample,
    StephensAlternative,
    competitor_critical_value,
    competitor_statistic,
    critical_values,
    default_spacing_window,
    derive_stream,
    ebrahimi_weights,
    estimate,
    heuristic_window,
    parse_estimator,
    parse_model,
    parse_test,
    power_study,
    statistic_bound,
    study_config_from_json,
    uniformity_test,
    verify_table,
    wcre_ebrahimi,
    wcre_empirical,
    wcre_lstat,
    wcre_modified_n,
    wcre_vasicek,
    wcrte_ebrahimi,
    wcrte_empirical,
    wcrte_lstat,
    wcrte_lstat_variance,
    wcrte_modified_n,
    wcrte_vasicek,
)

X10 = np.arange(1.0, 11.0)
U10 = np.linspace(0.05, 0.95, 10)
EXP = (Exponential(1.0),)
L = EstimatorKind.LSTAT
V = EstimatorKind.VASICEK


@pytest.fixture
def files(tmp_path):
    paths = {}
    for name, values in (("one", [0.5]), ("x50", np.linspace(0.1, 5.0, 50)),
                         ("u20", np.linspace(0.02, 0.98, 20))):
        path = tmp_path / f"{name}.txt"
        path.write_text("".join(f"{float(v)!r}\n" for v in values))
        paths[name] = str(path)
    return paths


def check_entry(entry, message, files, capsys):
    """Run one entry: ``(exception class, callable)`` or ``(exit code, argv)``."""
    expected, target = entry
    if callable(target):
        with pytest.raises(expected) as info:
            target()
        assert type(info.value) is expected
        assert message in str(info.value)
    else:
        argv = [files.get(a, a) for a in target]
        code, out, err = run_cli(argv, capsys)
        assert (code, out) == (expected, "")
        assert err.startswith("error: ") and message in err


ORDER = "the L-statistic and the uniformity tests need order > 1, got 0.5"

ORDER_ENTRIES = {
    "EstimatorSpec": (DomainError, lambda: EstimatorSpec(L, 0.5)),
    "parse_estimator": (ParseError, lambda: parse_estimator("wcrte:l,alpha=0.5")),
    "wcrte_lstat": (DomainError, lambda: wcrte_lstat(X10, 0.5)),
    "wcrte_lstat_variance": (DomainError, lambda: wcrte_lstat_variance(X10, 0.5)),
    "GofTest": (DomainError, lambda: GofTest("wcrte", 0.5)),
    "parse_test": (ParseError, lambda: parse_test("wcrte:alpha=0.5")),
    "statistic_bound": (DomainError, lambda: statistic_bound(0.5)),
    "critical_values": (DomainError, lambda: critical_values(10, 0.5, replications=1000)),
    "cli estimate": (2, ["estimate", "--data", "x50", "--estimator", "wcrte:l,alpha=0.5"]),
    "cli critical-values table": (3, ["critical-values", "--n", "10", "--alpha", "0.5",
                                      "--reps", "1000"]),
    "cli critical-values test": (2, ["critical-values", "--data", "u20", "--test",
                                     "wcrte:alpha=0.5", "--reps", "1000"]),
    "cli power": (2, ["power", "--alternative", "alt:A,j=2", "--test", "wcrte:alpha=0.5",
                      "--n", "10", "--reps", "100"]),
}


@pytest.mark.parametrize("entry", ORDER_ENTRIES.values(), ids=ORDER_ENTRIES)
def test_order_above_one_rule(entry, files, capsys):
    check_entry(entry, ORDER, files, capsys)


WINDOW = "window m must be an integer with 1 <= m < n/2, got m="

WINDOW_ENTRIES = {
    "EstimatorSpec": (DomainError, lambda: EstimatorSpec(V, 2.0, 0)),
    "parse_estimator": (ParseError, lambda: parse_estimator("wcrte:v,alpha=2,m=0")),
    "wcrte_vasicek": (DomainError, lambda: wcrte_vasicek(X10, 2.0, 5)),
    "wcrte_ebrahimi": (DomainError, lambda: wcrte_ebrahimi(X10, 2.0, 5)),
    "wcrte_modified_n": (DomainError, lambda: wcrte_modified_n(X10, 2.0, 5)),
    "wcre_vasicek": (DomainError, lambda: wcre_vasicek(X10, None)),
    "wcre_ebrahimi": (DomainError, lambda: wcre_ebrahimi(X10, 2.5)),
    "wcre_modified_n": (DomainError, lambda: wcre_modified_n(X10, 0)),
    "estimate": (DomainError, lambda: estimate(EstimatorSpec(V, window=5), X10)),
    "ebrahimi_weights": (DomainError, lambda: ebrahimi_weights(10, 5)),
    "GofTest": (DomainError, lambda: GofTest("ent", m=0)),
    "parse_test": (ParseError, lambda: parse_test("ent:m=0")),
    "competitor_statistic": (DomainError, lambda: competitor_statistic("ent", U10, m=5)),
    "competitor_critical_value": (
        DomainError, lambda: competitor_critical_value("ent", 10, replications=1000, m=5)),
    "uniformity_test": (DomainError, lambda: uniformity_test(U10, "ent:m=5", replications=1000)),
    "McStudyConfig": (DomainError, lambda: McStudyConfig(EXP, (20, 10), (2.0,), (V,), (5,))),
    "study_config_from_json": (
        DomainError, lambda: study_config_from_json({"models": ["exp:lambda=1"], "n": [10],
                                                     "estimators": ["v"], "m": [5]})),
    "cli estimate spec": (2, ["estimate", "--data", "x50", "--estimator", "wcrte:v,alpha=2,m=0"]),
    "cli estimate sample": (3, ["estimate", "--data", "x50", "--estimator", "wcre:v,m=25"]),
    "cli critical-values spec": (2, ["critical-values", "--data", "u20", "--test", "ent:m=0",
                                     "--reps", "1000"]),
    "cli critical-values sample": (3, ["critical-values", "--data", "u20", "--test", "ent:m=10",
                                       "--reps", "1000"]),
    "cli mse-study": (3, ["mse-study", "--model", "exp:lambda=1", "--n", "10", "--m", "5",
                          "--reps", "100"]),
}


@pytest.mark.parametrize("entry", WINDOW_ENTRIES.values(), ids=WINDOW_ENTRIES)
def test_window_rule(entry, files, capsys):
    check_entry(entry, WINDOW, files, capsys)


PLOTTING = "plotting must be 'n' or 'n+1', got 'x'"

PLOTTING_ENTRIES = {
    "EstimatorSpec wcrte": (DomainError, lambda: EstimatorSpec(L, 2.0, plotting="x")),
    "EstimatorSpec wcre": (DomainError, lambda: EstimatorSpec(L, plotting="x")),
    "parse_estimator": (ParseError, lambda: parse_estimator("wcre:l,plotting=x")),
    "wcrte_lstat": (DomainError, lambda: wcrte_lstat(X10, 2.0, "x")),
    "wcre_lstat": (DomainError, lambda: wcre_lstat(X10, "x")),
    "cli estimate": (2, ["estimate", "--data", "x50", "--estimator", "wcre:l,plotting=x"]),
}


@pytest.mark.parametrize("entry", PLOTTING_ENTRIES.values(), ids=PLOTTING_ENTRIES)
def test_plotting_rule(entry, files, capsys):
    check_entry(entry, PLOTTING, files, capsys)


ALT_J = "needs j < 1025, got "

ALT_J_ENTRIES = {
    "StephensAlternative": (DomainError, lambda: StephensAlternative("B", 1025.0)),
    "parse_model": (DomainError, lambda: parse_model("alt:C,j=1100")),
    "power_study": (DomainError, lambda: power_study(["alt:B,j=2000"], 10, ["ad"],
                                                     replications=100)),
    "cli power B": (3, ["power", "--alternative", "alt:B,j=2000", "--test", "ad", "--n", "10",
                        "--reps", "100"]),
    "cli power C": (3, ["power", "--alternative", "alt:C,j=1100", "--test", "ad", "--n", "10",
                        "--reps", "100"]),
}


@pytest.mark.parametrize("entry", ALT_J_ENTRIES.values(), ids=ALT_J_ENTRIES)
def test_alternative_scale_rule(entry, files, capsys):
    """Families B and C scale by 2**(j - 1), which leaves the float range from j = 1025."""
    check_entry(entry, ALT_J, files, capsys)


def test_family_a_takes_any_j(capsys):
    """Family A has no scale, so a j past B's and C's bound still draws."""
    with pytest.warns(UserWarning, match="outside the standard"):
        alt = StephensAlternative("A", 2000.0)
        below = StephensAlternative("C", 1024.5)
    assert alt.quantile(0.5) == pytest.approx(1.0 - 0.5 ** (1.0 / 2000.0), rel=1e-12)
    assert 0.5 < below.quantile(0.75) < 1.0
    argv = ["power", "--alternative", "alt:A,j=2000", "--test", "ad", "--n", "10", "--reps", "100"]
    code, out, err = run_cli(argv, capsys)
    assert (code, err) == (0, "") and '\n"alt:A,j=2000",10,ad,' in out


def test_default_windows_need_three_observations():
    for call in (lambda: heuristic_window(V, 2), lambda: default_spacing_window(2),
                 lambda: uniformity_test([0.2, 0.7], "ent", replications=1000)):
        with pytest.raises(DomainError, match="^need n >= 3, got 2$"):
            call()
    assert heuristic_window(V, 3) == default_spacing_window(3) == 1


def test_plotting_defaults():
    assert wcrte_lstat(X10, 2.0) == wcrte_lstat(X10, 2.0, "n")
    assert wcre_lstat(X10) == wcre_lstat(X10, "n+1")
    assert estimate(EstimatorSpec(L), X10) == wcre_lstat(X10, "n+1")


SIZE = "need n >= 2, got 1"

SIZE_ENTRIES = {
    "wcrte_empirical": (DomainError, lambda: wcrte_empirical([1.0], 2.0)),
    "wcre_empirical": (DomainError, lambda: wcre_empirical([[1.0], [2.0]])),
    "wcre_lstat": (DomainError, lambda: wcre_lstat([1.0])),
    "estimate": (DomainError, lambda: estimate(EstimatorSpec(L, 2.0), [1.0])),
    "Sample": (DomainError, lambda: Sample([1.0])),
    "critical_values": (DomainError, lambda: critical_values(1, 2.0, replications=1000)),
    "competitor_critical_value": (
        DomainError, lambda: competitor_critical_value("ks", 1, replications=1000)),
    "uniformity_test": (DomainError, lambda: uniformity_test([0.5], "ks", replications=1000)),
    "power_study": (DomainError, lambda: power_study(["alt:A,j=2"], 1, ["ks"], replications=100)),
    "default_spacing_window": (DomainError, lambda: default_spacing_window(1)),
    "McStudyConfig": (DomainError, lambda: McStudyConfig(EXP, (10, 1), (2.0,), (L,))),
    "study_config_from_json": (
        DomainError, lambda: study_config_from_json({"models": ["exp:lambda=1"], "n": [1]})),
    "cli estimate (read_sample)": (2, ["estimate", "--data", "one", "--estimator", "wcre:e"]),
    "cli mse-study": (3, ["mse-study", "--model", "exp:lambda=1", "--n", "1", "--reps", "100"]),
    "cli critical-values": (3, ["critical-values", "--n", "1", "--reps", "1000"]),
    "cli power": (3, ["power", "--alternative", "alt:A,j=2", "--test", "ks", "--n", "1",
                      "--reps", "100"]),
}


@pytest.mark.parametrize("entry", SIZE_ENTRIES.values(), ids=SIZE_ENTRIES)
def test_sample_size_rule(entry, files, capsys):
    check_entry(entry, SIZE, files, capsys)


EMPTY_ENTRIES = {
    "critical_values sizes": (DomainError, lambda: critical_values((), (2.0,), 7, 5, 1),
                              "need at least one sample size"),
    "critical_values orders": (DomainError, lambda: critical_values((10,), ()),
                               "need at least one order"),
    "uniformity_test": (DomainError, lambda: uniformity_test(U10, []), "need at least one test"),
    "power_study sizes": (DomainError, lambda: power_study(["alt:A,j=2"], (), ["ks"], 7, 5, 1),
                          "need at least one sample size"),
    "power_study tests": (DomainError, lambda: power_study(["alt:A,j=2"], (10,), []),
                          "need at least one test"),
    "cli critical-values sizes": (2, ["critical-values", "--n", ",", "--reps", "1000"],
                                  "n: empty list"),
    "cli critical-values orders": (2, ["critical-values", "--n", "10", "--alpha", ",",
                                       "--reps", "1000"], "alpha: empty list"),
    "cli critical-values tests": (2, ["critical-values", "--data", "u20", "--reps", "1000"],
                                  "needs at least one --test"),
    "cli power sizes": (2, ["power", "--alternative", "alt:A,j=2", "--test", "ks", "--n", ",",
                            "--reps", "100"], "n: empty list"),
    "cli power tests": (2, ["power", "--alternative", "alt:A,j=2", "--n", "10", "--reps", "100"],
                        "needs at least one --test"),
}


@pytest.mark.parametrize("entry", EMPTY_ENTRIES.values(), ids=EMPTY_ENTRIES)
def test_empty_lists_are_refused_before_any_draw(entry, files, capsys, monkeypatch):
    """An empty list of sizes, orders or tests raises before any draw; empty
    sizes raise before the (invalid) level and replications are checked."""
    monkeypatch.setattr("wcrte.mc.derive_stream", lambda *key: pytest.fail(f"drew {key}"))
    *entry, message = entry
    check_entry(entry, message, files, capsys)


COUNT_ENTRIES = {
    "critical_values n": (lambda: critical_values(10.7, 2.0, replications=1500), "n", 10.7),
    "critical_values replications": (
        lambda: critical_values(10, 2.0, replications=1500.9), "replications", 1500.9),
    "competitor_critical_value n": (
        lambda: competitor_critical_value("ks", 10.5, replications=1000), "n", 10.5),
    "uniformity_test replications": (
        lambda: uniformity_test(U10, "ks", replications=1000.5), "replications", 1000.5),
    "power_study n": (
        lambda: power_study(["alt:A,j=2"], 10.5, ["ks"], replications=100), "n", 10.5),
    "power_study replications": (
        lambda: power_study(["alt:A,j=2"], 10, ["ks"], replications=100.5),
        "replications", 100.5),
    "McStudyConfig n": (lambda: McStudyConfig(EXP, (10.9,), (2.0,), (L,)), "n", 10.9),
    "McStudyConfig replications": (
        lambda: McStudyConfig(EXP, (10,), (2.0,), (L,), replications=500.5),
        "replications", 500.5),
    "critical_values seed": (
        lambda: critical_values(10, 2.0, replications=1000, seed=5.9), "seed", 5.9),
    "McStudyConfig seed": (
        lambda: McStudyConfig(EXP, (10,), (2.0,), (L,), seed=10.7), "seed", 10.7),
    "derive_stream seed": (lambda: derive_stream(10.7, 1), "seed", 10.7),
    "verify_table table": (lambda: verify_table(2.5), "table", 2.5),
}


@pytest.mark.parametrize("entry", COUNT_ENTRIES.values(), ids=COUNT_ENTRIES)
def test_sizes_and_counts_must_be_integral(entry):
    call, name, value = entry
    with pytest.raises(DomainError, match=f"^{name} must be an integer, got {value!r}$"):
        call()


REAL = "sample values must be real numbers"

REAL_ENTRIES = {
    "wcrte_empirical string": lambda: wcrte_empirical("abc", 2.0),
    "wcrte_empirical ragged": lambda: wcrte_empirical([[1, 2], [3]], 2.0),
    "wcrte_empirical complex": lambda: wcrte_empirical([1 + 2j, 3], 2.0),
    "wcre_lstat complex array": lambda: wcre_lstat(np.array([1 + 2j, 3.0, 4.0])),
    "Sample string": lambda: Sample("abc"),
    "Sample dict": lambda: Sample({"a": 1}),
    "uniformity_test": lambda: uniformity_test([1, "x"], "ks", replications=1000),
    "competitor_statistic": lambda: competitor_statistic("ks", [0.5, 1j]),
    "Sample numeric strings": lambda: Sample(["1.5", "2.5"]),
    "Sample numeric string objects": lambda: Sample(np.array(["1.5", "2.5"], dtype=object)),
    "wcrte_empirical bytes": lambda: wcrte_empirical([b"1", b"2"], 2.0),
}


@pytest.mark.parametrize("call", REAL_ENTRIES.values(), ids=REAL_ENTRIES)
def test_samples_must_hold_real_numbers(call):
    """What numpy cannot read as real floats is the one input check's
    DomainError, not numpy's ValueError or TypeError, and a complex value is
    not cast to its real part."""
    with pytest.raises(DomainError, match=f"^{REAL}$"):
        call()


@pytest.mark.parametrize("values", [[10**400, 1], [1e400, 1]], ids=["int", "float"])
def test_a_number_beyond_the_float_range_is_a_non_finite_value(values):
    """An integer too large for a float is refused as a float overflowing
    to inf is, not with numpy's OverflowError."""
    for call in (lambda: wcrte_empirical(values, 2), lambda: Sample(values)):
        with pytest.raises(DomainError, match="^sample contains non-finite values$"):
            call()


def test_integral_floats_and_numpy_integers_are_sizes():
    config = McStudyConfig(EXP, (10.0, np.int64(12)), (2.0,), (L,), replications=np.int32(500))
    assert config.sample_sizes == (10, 12) and config.replications == 500
    assert all(type(v) is int for v in (*config.sample_sizes, config.replications))
    assert critical_values(10.0, 2.0, replications=1000.0) == critical_values(
        np.int64(10), 2.0, replications=1000)


def test_numpy_integer_seeds_are_seeds():
    assert critical_values(10, 2.0, replications=1000, seed=np.int64(5)) == critical_values(
        10, 2.0, replications=1000, seed=5)
    assert McStudyConfig(EXP, (10,), (2.0,), (L,), seed=np.int64(5)).seed == 5
    with pytest.raises(DomainError, match="^seed must be nonnegative, got -1$"):
        critical_values(10, 2.0, replications=1000, seed=-1)


@pytest.mark.parametrize("call", [
    lambda: wcrte_empirical(X10, None),
    lambda: wcrte_vasicek(X10, None, 2),
    lambda: wcrte_ebrahimi(X10, None, 2),
    lambda: wcrte_modified_n(X10, None, 2),
    lambda: wcrte_lstat(X10, None),
    lambda: wcrte_lstat_variance(X10, None),
], ids=["empirical", "vasicek", "ebrahimi", "modified_n", "lstat", "lstat_variance"])
def test_wcrte_functions_never_take_the_wcre_limit(call):
    with pytest.raises(DomainError, match="order must be a positive real, got None"):
        call()


PACKAGE = os.path.dirname(wcrte.__file__)


def _here(filename):
    return filename == __file__


def _in_package(filename):
    return os.path.dirname(filename) == PACKAGE


WARNINGS = {
    "StephensAlternative": ("outside the standard", lambda: StephensAlternative("A", 3.0), _here),
    "parse_model": ("outside the standard", lambda: parse_model("alt:B,j=4"), _here),
    "power_study spec": ("outside the standard",
                         lambda: power_study(["alt:C,j=3"], 10, ["ks"], replications=100), _here),
    "estimate order": ("is below 1", lambda: estimate(EstimatorSpec(V, 0.5, 2), X10), _here),
    "estimate plotting": ("plotting position i/n",
                          lambda: estimate(parse_estimator("wcre:l,plotting=n"), X10), _here),
    "wcrte_lstat_variance": ("negative variance",
                             lambda: wcrte_lstat_variance([1.0, 1.1, 5.0], 2.0), _here),
    **{f"power_study clamp threads={t}": (
        "clamped",
        lambda t=t: power_study(["alt:A,j=1e13"], [10, 20], ["ad"], replications=100, threads=t),
        _in_package if t > 1 else _here) for t in (1, 2)},
}


@pytest.mark.parametrize("message, call, where", WARNINGS.values(), ids=WARNINGS)
def test_each_warning_names_its_caller(message, call, where):
    """A warning names the line that called the library; on a pool worker
    thread, the package line that ran the task."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        call()
    found = [w.filename for w in caught if message in str(w.message)]
    assert found and all(map(where, found)), found


def test_only_errors_warns_and_no_function_counts_frames():
    """``errors._warn`` is the package's one call of ``warnings.warn``, and no
    function takes a ``stacklevel`` to pass on."""
    for path in sorted(Path(PACKAGE).glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            where = f"{path.name}:{getattr(node, 'lineno', '')}"
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
                called = f"{node.value.id}.{node.attr}"
                assert path.name == "errors.py" or called != "warnings.warn", where
            if isinstance(node, ast.ImportFrom) and node.module == "warnings":
                assert "warn" not in [alias.name for alias in node.names], where
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                args = node.args
                params = [a.arg for a in (*args.posonlyargs, *args.args, *args.kwonlyargs)]
                assert "stacklevel" not in params, where
