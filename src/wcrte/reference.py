"""Side-by-side comparison against bundled published reference values.

The package ships a read-only JSON file of previously published simulation
results: bias/MSE grids for the estimator comparison (groups 2 through 6),
two-sided critical values (group 7) and power estimates (group 8). Each
group records the grid it was produced on; ``verify_table`` recomputes that
grid with this package and reports published value, computed value and
absolute difference per cell.

Some published cells carry flags. ``sign_suspect`` marks bias entries whose
printed sign contradicts both the column's own trend and direct simulation;
those are compared by absolute value. ``suspect`` marks power entries that
disagree grossly with their neighbors; they are reported as printed.
``min_mse`` marks each column's published minimum-MSE window. ENT power
rows carry a note because the published study never states the window it
used.
"""

from __future__ import annotations

import itertools
import json
from functools import lru_cache
from importlib import resources

from .distributions import order_from_label, order_label, parse_model
from .errors import DomainError
from .gof import _TEST_PARAM_COLUMNS, _critical_pairs, power_study
from .mc import DEFAULT_SEED, McStudyConfig, _check_threads, _pool_map, run_study

__all__ = [
    "load_reference_tables",
    "available_tables",
    "verify_table",
]

#: Column order of the comparison rows produced by :func:`verify_table`.
REPORT_FIELDS = (
    "table",
    "model",
    "n",
    "alpha",
    "estimator",
    "m",
    "test",
    "alternative",
    "metric",
    "published",
    "computed",
    "abs_diff",
    "note",
)


@lru_cache(maxsize=1)
def load_reference_tables() -> dict:
    """Parsed contents of the bundled reference-value file."""
    path = resources.files("wcrte").joinpath("data/reference_tables.json")
    with path.open("r", encoding="utf-8") as fh:
        return json.load(fh)


def available_tables() -> tuple[int, ...]:
    """Numeric ids of the bundled reference groups, ascending."""
    return tuple(sorted(int(k) for k in load_reference_tables()["tables"]))


def _row(table_id: int, published, computed, absolute: bool = False, **fields) -> dict:
    """One comparison row: ``fields`` filled in, every other column blank.

    ``abs_diff`` compares magnitudes when ``absolute`` is set.
    """
    if absolute:
        diff = abs(abs(published) - abs(computed))
    else:
        diff = abs(published - computed)
    row = dict.fromkeys(REPORT_FIELDS, "")
    row.update(fields, table=table_id, published=published, computed=computed, abs_diff=diff)
    return row


def _verify_bias_mse(table_id: int, group: dict, reps, seed, threads) -> list[dict]:
    rows = group["rows"]
    order = float(group["order"])
    sizes = tuple(dict.fromkeys(int(r["n"]) for r in rows))
    if group["kind"] == "bias_mse_plain":
        models = tuple(dict.fromkeys(r["model"] for r in rows))
        kinds = tuple(dict.fromkeys(r["estimator"] for r in rows))
        windows = "auto"
    else:
        models = (group["model"],)
        kinds = ("vasicek", "ebrahimi", "modified_n")
        windows = "sweep"
    config = McStudyConfig(
        models=tuple(parse_model(m) for m in models),
        sample_sizes=sizes,
        orders=(order,),
        kinds=kinds,
        windows=windows,
        replications=reps,
        seed=seed,
    )
    result = run_study(config, threads=threads)
    computed = {
        (cell.model, cell.n, cell.kind.value, cell.window): cell for cell in result.cells
    }

    report: list[dict] = []
    for ref in rows:
        model = ref.get("model", group.get("model"))
        key = (
            parse_model(model).spec_string(),
            int(ref["n"]),
            ref.get("estimator", ref.get("kind")),
            int(ref["m"]) if "m" in ref else None,
        )
        if key[2] in ("empirical", "lstat"):
            key = key[:3] + (None,)
        cell = computed[key]
        model, n, kind, m = key
        for metric in ("bias", "mse"):
            suspect = metric == "bias" and ref.get("sign_suspect", False)
            best = metric == "mse" and ref.get("min_mse", False)
            report.append(_row(
                table_id, ref[metric], getattr(cell, metric), suspect,
                model=model, n=n, alpha=order_label(order), estimator=kind,
                m="" if m is None else m, metric=metric,
                note="sign_suspect" if suspect else "min_mse" if best else "",
            ))
    return report


def _verify_critical_values(table_id: int, group: dict, reps, seed, threads) -> list[dict]:
    gamma = float(group["gamma"])
    # One null batch per n calibrates every order of that n; each n is a task.
    orders_by_n: dict[int, list] = {}
    for ref in group["rows"]:
        orders_by_n.setdefault(int(ref["n"]), []).append(order_from_label(ref["alpha"]))

    def calibrate(item):
        return _critical_pairs(*item, gamma, reps, seed)

    pairs = {
        (pair.n, pair.order): pair
        for part in _pool_map(calibrate, orders_by_n.items(), threads)
        for pair in part
    }

    report: list[dict] = []
    for ref in group["rows"]:
        n = int(ref["n"])
        order = order_from_label(ref["alpha"])
        pair = pairs[(n, order)]
        for metric in ("lower", "upper"):
            report.append(_row(table_id, ref[metric], getattr(pair, metric),
                               n=n, alpha=order_label(order), metric=metric))
    return report


def _verify_power(table_id: int, group: dict, reps, seed, threads) -> list[dict]:
    gamma = float(group["gamma"])
    rows = group["rows"]
    tests = tuple(dict.fromkeys(r["test"] for r in rows))
    alternatives = tuple(dict.fromkeys(r["alternative"] for r in rows))
    sizes = tuple(dict.fromkeys(int(r["n"]) for r in rows))

    # Cells come back one per (alternative, test), alternatives outermost, and
    # are keyed by the group's own (n, alternative, test) strings.
    computed = {}
    for n in sizes:
        cells = power_study(alternatives, n, tests, gamma, reps, seed, threads)
        computed.update(zip(itertools.product([n], alternatives, tests), cells, strict=True))

    report: list[dict] = []
    for ref in rows:
        cell = computed[(int(ref["n"]), ref["alternative"], ref["test"])]
        notes = ["suspect"] if ref.get("suspect", False) else []
        if cell.test == "ent":
            notes.append("published_window_unstated")
        report.append(_row(
            table_id, ref["power"], cell.power,
            n=cell.n, test=cell.test, alternative=cell.alternative, metric="power",
            note=";".join(notes), **{name: read(cell, seed) for name, read in _TEST_PARAM_COLUMNS},
        ))
    return report


def verify_table(
    table_id: int,
    replications: int | None = None,
    seed: int = DEFAULT_SEED,
    threads: int | None = None,
) -> list[dict]:
    """Recompute one bundled reference group and compare cell by cell.

    ``replications`` defaults to the group's published count (``None``);
    any other value goes through the package's size rule, so 0 or 1000.7
    raises DomainError. ``threads`` worker threads share each group: the
    (model, n) blocks of groups 2-6, the sample sizes of group 7, and the
    alternatives of each sample size of group 8, after that size's null
    calibration. No value depends on the thread count. Rows follow
    :data:`REPORT_FIELDS`; ``abs_diff`` compares absolute values when the
    published sign is flagged as suspect.
    """
    _check_threads(threads)
    tables = load_reference_tables()["tables"]
    key = str(int(table_id))
    if key not in tables:
        raise DomainError(
            f"unknown table id {table_id!r} (available: "
            f"{', '.join(str(t) for t in available_tables())})"
        )
    group = tables[key]
    reps = group["replications"] if replications is None else replications
    if group["kind"] in ("bias_mse_plain", "bias_mse_windowed"):
        return _verify_bias_mse(int(key), group, reps, seed, threads)
    if group["kind"] == "critical_values":
        return _verify_critical_values(int(key), group, reps, seed, threads)
    return _verify_power(int(key), group, reps, seed, threads)
