"""The package namespace is the union of its modules' ``__all__`` lists, and what it loads."""

import os
import subprocess
import sys

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
    "McStudyResult", "run_study", "best_window", "heuristic_window", "derive_stream",
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
unused = sorted({"wcrte.mc", "wcrte.gof", "wcrte.reference", "concurrent.futures"}
                & set(sys.modules))
assert not unused, unused
assert wcrte.McStudyConfig is wcrte.mc.McStudyConfig
missing = set(sys.argv[2:]) - set(dir(wcrte))
assert not missing, missing
"""


def test_estimate_loads_only_what_it_runs(tmp_path):
    """`estimate` loads neither mc, gof, reference nor a thread pool; the namespace still builds."""
    done = subprocess.run([sys.executable, "-c", ESTIMATE_GUARD, str(tmp_path / "x.txt"), *PUBLIC],
                          capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)})
    assert done.returncode == 0, done.stderr


def test_gof_and_reference_load_no_thread_pool():
    """The pool is imported when a call first uses more than one thread, not at import."""
    guard = (
        "import sys, wcrte.gof, wcrte.reference; "
        "assert 'concurrent.futures' not in sys.modules, 'concurrent.futures'"
    )
    done = subprocess.run([sys.executable, "-c", guard], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)})
    assert done.returncode == 0, done.stderr
