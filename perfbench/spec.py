"""Workload constants shared by the runner, the set-up probe and the oracle.

Standard library only, so the set-up probe can import this module before it
starts its clock and charge only ``import wcrte`` and the configuration build
to ``setup_s``.
"""

from __future__ import annotations

#: Seed used when ``--seed`` is omitted; the package's own CLI default.
DEFAULT_SEED = 0xC0FFEE
#: Seeds with outputs recorded in reference/: the default and a held-out
#: seed for confirmation runs.
REFERENCE_SEEDS = (DEFAULT_SEED, 0x5EED)

#: Worker threads (and BLAS threads) each workload is allowed.
THREADS = {"sweep": 1, "verify": 2, "estimate": 1}

# --- sweep: bias/MSE window sweep, run_study in process -------------------------
SWEEP_MODELS = ("exp:lambda=1", "uniform:theta=1", "weibull:lambda=1,p=2", "rayleigh:sigma=1")
SWEEP_SIZES = (10, 20, 30, 50)
SWEEP_ORDERS = (2.0, None)  # None is the WCRE limit
SWEEP_KINDS = ("empirical", "vasicek", "ebrahimi", "modified_n", "lstat")
SWEEP_REPLICATIONS = 10_000

# --- verify: published groups 2-8 at their published replication count --------
VERIFY_TABLES = (2, 3, 4, 5, 6, 7, 8)

# --- estimate: cold `python -m wcrte estimate` launches --------------------------
ESTIMATE_N = 200_000
ESTIMATE_SPECS = (
    "wcrte:e,alpha=2",
    "wcrte:v,alpha=2",
    "wcrte:eb,alpha=2",
    "wcrte:n,alpha=2",
    "wcrte:l,alpha=2",
    "wcre:e",
    "wcre:v",
    "wcre:eb",
    "wcre:n",
    "wcre:l",
)

#: Relative tolerance (against max(1, |reference|)) for in-process outputs.
TOL = 1e-12
#: `wcrte estimate` prints estimates with 10 and standard errors with 6
#: significant digits, so its parsed values are compared at that precision.
TOL_ESTIMATE = 1e-9
TOL_SE = 1e-5


def sweep_config(wcrte, seed: int, models=SWEEP_MODELS, sizes=SWEEP_SIZES):
    return wcrte.McStudyConfig(
        models=tuple(wcrte.parse_model(m) for m in models),
        sample_sizes=sizes,
        orders=SWEEP_ORDERS,
        kinds=tuple(wcrte.parse_kind(k) for k in SWEEP_KINDS),
        windows="sweep",
        replications=SWEEP_REPLICATIONS,
        seed=seed,
    )


def build_config(wcrte, workload: str, seed: int):
    """What each workload builds before its timed phase, given the package."""
    if workload == "sweep":
        return sweep_config(wcrte, seed)
    if workload == "verify":
        return wcrte.load_reference_tables()
    if workload == "estimate":
        return [wcrte.parse_estimator(s) for s in ESTIMATE_SPECS]
    raise ValueError(f"unknown workload {workload!r}")
