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

import json
from functools import lru_cache
from importlib import resources

from .distributions import order_from_label, order_label, parse_model
from .errors import DomainError
from .gof import critical_values, parse_test, power_study
from .mc import DEFAULT_SEED, McStudyConfig, run_study

__all__ = [
    "REPORT_FIELDS",
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


def _blank_row(table_id: int) -> dict:
    row = dict.fromkeys(REPORT_FIELDS, "")
    row["table"] = table_id
    return row


def _diff(published: float, computed: float, absolute: bool) -> float:
    if absolute:
        return abs(abs(published) - abs(computed))
    return abs(published - computed)


def _verify_bias_mse(table_id: int, group: dict, replications, seed, threads) -> list[dict]:
    rows = group["rows"]
    reps = int(replications or group["replications"])
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
        for metric, flag in (("bias", "sign_suspect"), ("mse", "min_mse")):
            out = _blank_row(table_id)
            out["model"] = key[0]
            out["n"] = key[1]
            out["alpha"] = order_label(order)
            out["estimator"] = key[2]
            out["m"] = "" if key[3] is None else key[3]
            out["metric"] = metric
            out["published"] = ref[metric]
            out["computed"] = getattr(cell, metric)
            suspect = metric == "bias" and ref.get("sign_suspect", False)
            out["abs_diff"] = _diff(ref[metric], getattr(cell, metric), suspect)
            notes = []
            if suspect:
                notes.append("sign_suspect")
            if metric == "mse" and ref.get("min_mse", False):
                notes.append("min_mse")
            out["note"] = ";".join(notes)
            report.append(out)
    return report


def _verify_critical_values(table_id: int, group: dict, replications, seed) -> list[dict]:
    reps = int(replications or group["replications"])
    gamma = float(group["gamma"])
    report: list[dict] = []
    for ref in group["rows"]:
        n = int(ref["n"])
        order = order_from_label(ref["alpha"])
        pair = critical_values(n, order, gamma, reps, seed)
        for metric in ("lower", "upper"):
            out = _blank_row(table_id)
            out["n"] = n
            out["alpha"] = order_label(order)
            out["metric"] = metric
            out["published"] = ref[metric]
            out["computed"] = getattr(pair, metric)
            out["abs_diff"] = _diff(ref[metric], getattr(pair, metric), False)
            report.append(out)
    return report


def _verify_power(table_id: int, group: dict, replications, seed) -> list[dict]:
    reps = int(replications or group["replications"])
    gamma = float(group["gamma"])
    rows = group["rows"]
    tests = tuple(dict.fromkeys(r["test"] for r in rows))
    alternatives = tuple(dict.fromkeys(r["alternative"] for r in rows))
    sizes = tuple(dict.fromkeys(int(r["n"]) for r in rows))

    computed: dict[tuple[int, str, str], object] = {}
    for n in sizes:
        for cell in power_study(alternatives, n, tests, gamma, reps, seed):
            label = cell.test if cell.order is None else f"wcrte:alpha={order_label(cell.order)}"
            computed[(n, cell.alternative, label)] = cell

    report: list[dict] = []
    for ref in rows:
        test = parse_test(ref["test"])
        alt = parse_model(ref["alternative"]).spec_string()
        cell = computed[(int(ref["n"]), alt, test.label())]
        out = _blank_row(table_id)
        out["n"] = int(ref["n"])
        out["alpha"] = order_label(test.order) if test.is_entropy_band else ""
        out["test"] = test.name
        out["alternative"] = alt
        out["m"] = "" if cell.m is None else cell.m
        out["metric"] = "power"
        out["published"] = ref["power"]
        out["computed"] = cell.power
        out["abs_diff"] = _diff(ref["power"], cell.power, False)
        notes = []
        if ref.get("suspect", False):
            notes.append("suspect")
        if test.name == "ent":
            notes.append("published_window_unstated")
        out["note"] = ";".join(notes)
        report.append(out)
    return report


def verify_table(
    table_id: int,
    replications: int | None = None,
    seed: int = DEFAULT_SEED,
    threads: int | None = None,
) -> list[dict]:
    """Recompute one bundled reference group and compare cell by cell.

    ``replications`` defaults to the group's published count. Rows follow
    :data:`REPORT_FIELDS`; ``abs_diff`` compares absolute values when the
    published sign is flagged as suspect.
    """
    tables = load_reference_tables()["tables"]
    key = str(int(table_id))
    if key not in tables:
        raise DomainError(
            f"unknown table id {table_id!r} (available: "
            f"{', '.join(str(t) for t in available_tables())})"
        )
    group = tables[key]
    if group["kind"] in ("bias_mse_plain", "bias_mse_windowed"):
        return _verify_bias_mse(int(key), group, replications, seed, threads)
    if group["kind"] == "critical_values":
        return _verify_critical_values(int(key), group, replications, seed)
    return _verify_power(int(key), group, replications, seed)
