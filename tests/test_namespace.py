"""The package namespace is the union of its modules' ``__all__`` lists, and what it loads.

A public name is read from the module that defines it on every lookup, and
loads only the modules up to that one; ``__all__`` and ``dir`` load them
all. The load checks run in fresh interpreters.
"""

import importlib
import os
import subprocess
import sys
import types
from pathlib import Path

import pytest

import wcrte

PUBLIC = {
    "__version__", "WCRE_LIMIT", "DEFAULT_SEED", "WCRE_STATISTIC_BOUND", "ORDER_CENTERED",
    "Model", "Uniform", "Exponential", "Rayleigh", "ParetoOne", "Weibull",
    "StephensAlternative", "check_order", "order_from_label", "order_label", "parse_model",
    "closed_wcrte", "closed_wcre", "wcrte_by_quadrature", "wcrte_lower_bound",
    "entropy_bound_offset", "ParseError", "DomainError", "DivergenceError", "NumericError",
    "Sample", "read_sample", "EstimatorKind", "EstimatorSpec", "parse_estimator", "parse_kind",
    "estimate", "clamp_order_stat", "ebrahimi_weights", "max_window", "wcrte_empirical",
    "wcrte_vasicek", "wcrte_ebrahimi", "wcrte_modified_n", "wcrte_lstat",
    "wcrte_lstat_variance", "wcre_empirical", "wcre_vasicek", "wcre_ebrahimi",
    "wcre_modified_n", "wcre_lstat", "wcre_lstat_variance", "McStudyConfig", "McCell",
    "McStudyResult", "run_study", "heuristic_window", "derive_stream",
    "study_config_from_json", "GofTest", "parse_test", "CriticalPair", "CriticalValue",
    "critical_values", "competitor_critical_value", "competitor_statistic",
    "default_spacing_window", "statistic_bound", "null_statistic_value",
    "test_statistic_wcrte", "test_statistic_wcre", "GofResult", "uniformity_test",
    "PowerCell", "power_study", "load_reference_tables", "available_tables", "verify_table",
}


def test_public_names_are_unchanged_and_resolve():
    assert len(wcrte.__all__) == len(set(wcrte.__all__))
    assert set(wcrte.__all__) == PUBLIC
    namespace = {}
    exec("from wcrte import *", namespace)
    for name in PUBLIC:
        assert namespace[name] is getattr(wcrte, name), name
    assert wcrte.read_sample is wcrte.sample.read_sample
    assert wcrte.DomainError is wcrte.errors.DomainError


def test_names_moved_out_of_mc_still_resolve_there():
    """``heuristic_window`` lives in estimators and ``DEFAULT_SEED`` in
    distributions; mc still exports both."""
    assert wcrte.mc.heuristic_window is wcrte.estimators.heuristic_window
    assert wcrte.mc.DEFAULT_SEED == wcrte.distributions.DEFAULT_SEED == 0xC0FFEE
    assert {"heuristic_window", "DEFAULT_SEED"} <= set(wcrte.mc.__all__)
    assert wcrte.heuristic_window is wcrte.mc.heuristic_window


LOAD_GUARD = """
import sys
import wcrte

before = set(sys.modules)
{lookup}
loaded = {{m for m in set(sys.modules) - before if m.startswith("wcrte.")}}
assert loaded == set(sys.argv[1:]), sorted(loaded)
"""


@pytest.mark.parametrize("lookup, loads", [
    ("wcrte.parse_estimator", ["wcrte.estimators"]),
    ("wcrte.EstimatorSpec", ["wcrte.estimators"]),
    ("wcrte.McStudyConfig", ["wcrte.estimators", "wcrte.mc"]),
    ("wcrte.heuristic_window", ["wcrte.estimators"]),
    ("wcrte.DEFAULT_SEED", []),
    ("assert not hasattr(wcrte, '__wrapped__')", []),
    ("wcrte.load_reference_tables",
     ["wcrte.estimators", "wcrte.mc", "wcrte.gof", "wcrte.reference"]),
], ids=["parse_estimator", "EstimatorSpec", "McStudyConfig", "heuristic_window", "DEFAULT_SEED",
     "dunder-probe", "everything"])
def test_a_name_loads_only_the_modules_up_to_its_own(lookup, loads):
    """A name loads its defining module and those before it in dependency
    order; a dunder probe loads nothing."""
    done = subprocess.run([sys.executable, "-c", LOAD_GUARD.format(lookup=lookup), *loads],
                          capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)})
    assert done.returncode == 0, done.stderr


def test_an_unknown_name_raises_attribute_error_naming_it():
    with pytest.raises(AttributeError, match="no_such_name"):
        wcrte.no_such_name  # noqa: B018


def test_a_name_patched_in_its_module_is_what_the_package_returns(monkeypatch):
    original = wcrte.mc.run_study

    def fake(*args, **kwargs):
        raise AssertionError("not to be called")

    monkeypatch.setattr(wcrte.mc, "run_study", fake)
    assert wcrte.run_study is fake
    monkeypatch.undo()
    assert wcrte.run_study is original


IMPORT_GUARD = """
import sys
import numpy as np
import wcrte
from wcrte import cli

path = sys.argv[1]
with open(path, "w") as fh:
    fh.write("\\n".join(repr(float(v)) for v in np.linspace(0.1, 3.0, 40)))
assert cli.main(["estimate", "--data", path, "--estimator", "wcrte:l,alpha=2",
                 "--estimator", "wcre:e"]) in (0, None)
models = [wcrte.parse_model(s) for s in ("uniform:theta=2", "exp:lambda=1", "rayleigh:sigma=1",
                                         "pareto1:k=1,delta=3", "weibull:lambda=1,p=1.5")]
config = wcrte.McStudyConfig(models, (10,), (2.0, None), ("empirical", "lstat"), replications=50)
assert len(wcrte.run_study(config).cells) == 20
wcrte.critical_values(10, 2.0, replications=1000)
wcrte.power_study(["alt:A,j=2"], 10, ["wcrte:alpha=2", "ks"], replications=100)
loaded = sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))
assert not loaded, loaded
assert abs(wcrte.wcrte_by_quadrature(wcrte.Exponential(1.0), None) - 2.0) < 1e-9
assert "scipy" in sys.modules
"""


def test_no_scipy_on_the_run_path(tmp_path):
    """Every route but quadrature runs without loading scipy; quadrature then loads it."""
    done = subprocess.run([sys.executable, "-c", IMPORT_GUARD, str(tmp_path / "x.txt")],
                          capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)})
    assert done.returncode == 0, done.stderr


ESTIMATE_GUARD = """
import sys
import wcrte
from wcrte import cli

path = sys.argv[1]
with open(path, "w") as fh:
    fh.write("".join(f"{0.1 * k!r}\\n" for k in range(1, 41)))
assert cli.main(["estimate", "--data", path, "--estimator", "wcrte:l,alpha=2",
                 "--estimator", "wcre:v"]) == 0
unused = sorted({"wcrte.mc", "wcrte.gof", "wcrte.reference", "concurrent.futures", "json", "csv"}
                & set(sys.modules))
assert not unused, unused
assert wcrte.McStudyConfig is wcrte.mc.McStudyConfig
missing = set(sys.argv[2:]) - set(dir(wcrte))
assert not missing, missing
"""


def test_estimate_loads_only_what_it_runs(tmp_path):
    """`estimate` loads neither mc, gof, reference, a thread pool nor the JSON and CSV
    writers; the namespace still builds."""
    done = subprocess.run([sys.executable, "-c", ESTIMATE_GUARD, str(tmp_path / "x.txt"), *PUBLIC],
                          capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)})
    assert done.returncode == 0, done.stderr


def test_an_estimate_launch_imports_only_what_it_runs(tmp_path):
    """``python -X importtime -m wcrte estimate``, the process entry included,
    imports neither mc, gof, reference nor a thread pool."""
    path = tmp_path / "x.txt"
    path.write_text("".join(f"{0.1 * k!r}\n" for k in range(1, 41)))
    done = subprocess.run([sys.executable, "-X", "importtime", "-m", "wcrte", "estimate",
                           "--data", str(path), "--estimator", "wcrte:l,alpha=2",
                           "--estimator", "wcre:v"],
                          capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)})
    assert done.returncode == 0, done.stderr
    imported = {line.rsplit("|", 1)[1].strip() for line in done.stderr.splitlines()
                if line.startswith("import time:")}
    assert {"numpy", "wcrte.cli", "wcrte.estimators"} <= imported, sorted(imported)
    unused = sorted({"wcrte.mc", "wcrte.gof", "wcrte.reference", "concurrent.futures"} & imported)
    assert not unused, unused


def test_gof_and_reference_load_no_thread_pool():
    """The pool is imported when a call first uses more than one thread, not at import."""
    guard = (
        "import sys, wcrte.gof, wcrte.reference; "
        "assert 'concurrent.futures' not in sys.modules, 'concurrent.futures'"
    )
    done = subprocess.run([sys.executable, "-c", guard], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)})
    assert done.returncode == 0, done.stderr


def _tracing_module():
    """``perfbench/tracing.py`` (standard library only), run from its source
    without writing bytecode next to it."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
    module = types.ModuleType("perfbench_tracing")
    module.__file__ = str(path)
    sys.modules[module.__name__] = module  # dataclasses resolve the module's names
    try:
        exec(compile(path.read_text(encoding="utf-8"), str(path), "exec"), module.__dict__)
    finally:
        del sys.modules[module.__name__]
    return module


def test_every_perfbench_hook_target_resolves():
    """The benchmark tracer skips a hook whose target is gone, which would read
    as a zero per-layer metric; every hooked name must still be a callable."""
    tracing = _tracing_module()
    assert tracing._HOOKS and tracing._STREAMS
    for modname, attr, *_ in tracing._HOOKS:
        target = getattr(importlib.import_module(modname), attr, None)
        assert callable(target), f"{modname}.{attr}"
    for attr, _ in tracing._STREAMS:
        assert callable(getattr(wcrte.mc, attr, None)), f"wcrte.mc.{attr}"
