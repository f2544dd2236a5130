"""Command line front end.

Subcommands: ``estimate`` (measures on a data file), ``mse-study`` (bias/MSE
grid), ``critical-values`` (two-sided table, or single tests on a data
file), ``power`` (rejection rates against alternatives) and ``verify-tables``
(side-by-side comparison with the bundled published values).

Exit codes: 0 on success, 2 for malformed input (command line, config, or
data file contents), 3 for domain violations (inadmissible parameters,
out-of-range observations), 4 for numerical failures.

All randomness flows from ``--seed``; the default is the fixed constant
0xC0FFEE rather than fresh entropy, so published runs are reproducible.
``--config FILE`` supplies defaults from a JSON object using the same keys
as the long flags (list-valued flags use their plural: models, estimators,
tests, alternatives; ``--reps`` is ``replications``); explicit flags win.
A config value goes through the converter of its flag, so ``"n": "10,20"``,
``"n": [10, 20]`` and ``--n 10,20`` are the same, and a bad value exits 2
with a message naming its key. ``mse-study`` builds its grid through
:func:`wcrte.mc.study_config_from_json`. Numeric list flags are comma
separated; model, estimator and test specifications are repeatable flags
because model parameters themselves contain commas.

Model, estimator and test specifications share one grammar: a
case-insensitive head, then after a colon an optional positional token
(the ``alt`` family or the estimator kind) and ``key=value`` pairs,
comma separated; keys are case-insensitive and a repeated key is an error.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import os
import sys
from dataclasses import replace

from .distributions import order_label
from .errors import DomainError, NumericError, ParseError
from .estimators import (
    EstimatorKind,
    estimate,
    parse_estimator,
    read_sample,
    wcre_lstat_variance,
    wcrte_lstat_variance,
)
from .gof import critical_values, parse_test, power_study, uniformity_test
from .mc import (
    _STUDY_KEYS,
    DEFAULT_SEED,
    _convert,
    _integer,
    heuristic_window,
    run_study,
    study_config_from_json,
)
from .reference import REPORT_FIELDS, verify_table

__all__ = ["main", "build_parser"]

_Z_95 = 1.959963984540054

MSE_FIELDS = ("model", "n", "alpha", "estimator", "m", "bias", "mse", "R", "seed")
CRITICAL_FIELDS = ("n", "alpha", "gamma", "lower", "upper", "R", "seed")
GOF_FIELDS = ("test", "n", "alpha", "m", "gamma", "lower", "upper", "statistic", "reject")
POWER_FIELDS = ("alternative", "n", "test", "alpha", "m", "power", "R", "seed")

# config key -> argparse destination; config values fill flags left unset.
_CONFIG_KEYS = {
    "models": "model",
    "estimators": "estimator",
    "tests": "test",
    "alternatives": "alternative",
    "data": "data",
    "n": "n",
    "alpha": "alpha",
    "m": "m",
    "replications": "reps",
    "seed": "seed",
    "gamma": "gamma",
    "threads": "threads",
    "format": "format",
    "out": "out",
}


def _real(value) -> float:
    try:
        return float(value)
    except (TypeError, ValueError):
        raise ParseError(f"not a number: {value!r}") from None


def _format(value) -> str:
    if value not in ("csv", "json"):
        raise ParseError(f"expected csv or json, got {value!r}")
    return value


#: Converters of the keys that mean the same in every subcommand; ``models``
#: and ``estimators`` are converted by the subcommand that reads them.
_CONVERTERS = {
    **{key: _STUDY_KEYS[key] for key in ("n", "alpha", "m", "replications", "seed")},
    "gamma": _real,
    "threads": _integer,
    "format": _format,
}

_ALL_KINDS = ("empirical", "vasicek", "ebrahimi", "modified_n", "lstat")


def _str_items(value) -> list[str]:
    if value is None:
        return []
    if isinstance(value, (str, bytes)):
        return [str(value)]
    return [str(v) for v in value]


def _apply_config(args: argparse.Namespace) -> None:
    """Fill unset flags from ``--config``, then convert every flag or config value."""
    path = getattr(args, "config", None)
    if path:
        try:
            with open(path, "r", encoding="utf-8") as fh:
                doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ParseError(f"{path}: invalid JSON: {exc}") from None
        if not isinstance(doc, dict):
            raise ParseError(f"{path}: config must be a JSON object")
        unknown = sorted(set(doc) - set(_CONFIG_KEYS))
        if unknown:
            raise ParseError(f"{path}: unknown config keys: {', '.join(unknown)}")
        for key, dest in _CONFIG_KEYS.items():
            if key in doc and hasattr(args, dest) and getattr(args, dest) is None:
                setattr(args, dest, doc[key])
    for key in _CONVERTERS:
        value = getattr(args, _CONFIG_KEYS[key], None)
        if value is not None:
            setattr(args, _CONFIG_KEYS[key], _convert(_CONVERTERS, key, value))


def _csv_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "1" if value else "0"
    return str(value)


def _write_rows(rows, fields, fmt: str, out_path) -> None:
    if fmt == "json":
        text = json.dumps(rows, indent=2) + "\n"
    else:
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(fields)
        for row in rows:
            writer.writerow([_csv_cell(row[f]) for f in fields])
        text = buf.getvalue()
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _write_lines(lines, out_path) -> None:
    text = "".join(line + "\n" for line in lines)
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _resolved(args, name, fallback):
    value = getattr(args, name, None)
    return fallback if value is None else value


def _threads(args) -> int:
    n = _resolved(args, "threads", os.cpu_count() or 1)
    if n < 1:
        raise DomainError(f"--threads must be positive, got {n!r}")
    return n


# --- subcommands ----------------------------------------------------------------


def cmd_estimate(args) -> int:
    data = _str_items(args.data)
    if len(data) != 1:
        raise ParseError("estimate needs exactly one --data file")
    specs = _str_items(args.estimator)
    if not specs:
        raise ParseError("estimate needs at least one --estimator")
    x = read_sample(data[0])
    lines = []
    for text in specs:
        spec = parse_estimator(text)
        note = ""
        if spec.kind.needs_window and spec.window is None:
            spec = replace(spec, window=heuristic_window(spec.kind, x.n))
            note = "  (window chosen automatically)"
        value = estimate(spec, x)
        line = f"{spec.label()}  estimate={value:.10g}  n={x.n}{note}"
        if spec.kind is EstimatorKind.LSTAT and x.n >= 3:
            if spec.order is None:
                sigma2 = wcre_lstat_variance(x)
            else:
                sigma2 = wcrte_lstat_variance(x, spec.order)
            if sigma2 > 0.0:
                se = math.sqrt(sigma2 / x.n)
                lo, hi = value - _Z_95 * se, value + _Z_95 * se
                line += f"  se={se:.6g}  ci95=[{lo:.6g}, {hi:.6g}]"
            else:
                line += "  (variance estimate not positive; no interval)"
        lines.append(line)
    _write_lines(lines, args.out)
    return 0


def cmd_mse_study(args) -> int:
    if not args.model:
        raise ParseError("mse-study needs at least one --model")
    doc = {key: getattr(args, _CONFIG_KEYS[key]) for key in _STUDY_KEYS}
    doc["estimators"] = doc["estimators"] or _ALL_KINDS
    config = study_config_from_json({k: v for k, v in doc.items() if v is not None})
    result = run_study(config, threads=_threads(args))
    for message in result.skipped:
        print(f"skipped: {message}", file=sys.stderr)
    rows = [
        {
            "model": cell.model,
            "n": cell.n,
            "alpha": order_label(cell.order),
            "estimator": cell.kind.value,
            "m": cell.window,
            "bias": cell.bias,
            "mse": cell.mse,
            "R": cell.replications,
            "seed": result.seed,
        }
        for cell in result.cells
    ]
    _write_rows(rows, MSE_FIELDS, _resolved(args, "format", "csv"), args.out)
    return 0


def cmd_critical_values(args) -> int:
    gamma = _resolved(args, "gamma", 0.05)
    reps = _resolved(args, "reps", 10_000)
    seed = _resolved(args, "seed", DEFAULT_SEED)
    fmt = _resolved(args, "format", "csv")
    data = _str_items(args.data)
    if data and args.n is not None:
        raise ParseError("give either --n (table mode) or --data (single-test mode), not both")

    if data:
        if len(data) != 1:
            raise ParseError("single-test mode takes exactly one --data file")
        tests = _str_items(args.test)
        if not tests:
            raise ParseError("single-test mode needs at least one --test")
        x = read_sample(data[0])
        rows = []
        for text in tests:
            result = uniformity_test(x, parse_test(text), gamma, reps, seed)
            rows.append(
                {
                    "test": result.test,
                    "n": result.n,
                    "alpha": order_label(result.order) if result.test in ("wcrte", "wcre") else "",
                    "m": "" if result.m is None else result.m,
                    "gamma": result.gamma,
                    "lower": "" if result.lower is None else result.lower,
                    "upper": "" if result.upper is None else result.upper,
                    "statistic": result.statistic,
                    "reject": result.reject,
                }
            )
        _write_rows(rows, GOF_FIELDS, fmt, args.out)
        return 0

    if args.n is None:
        raise ParseError("table mode needs --n (or use --data for single-test mode)")
    rows = []
    for n in args.n:
        for order in _resolved(args, "alpha", (None, 2.0, 5.0, 7.0, 10.0)):
            pair = critical_values(n, order, gamma, reps, seed)
            rows.append(
                {
                    "n": n,
                    "alpha": order_label(order),
                    "gamma": gamma,
                    "lower": pair.lower,
                    "upper": pair.upper,
                    "R": pair.replications,
                    "seed": seed,
                }
            )
    _write_rows(rows, CRITICAL_FIELDS, fmt, args.out)
    return 0


def cmd_power(args) -> int:
    alternatives = _str_items(args.alternative)
    if not alternatives:
        raise ParseError("power needs at least one --alternative")
    tests = _str_items(args.test)
    if not tests:
        raise ParseError("power needs at least one --test")
    gamma = _resolved(args, "gamma", 0.05)
    reps = _resolved(args, "reps", 10_000)
    seed = _resolved(args, "seed", DEFAULT_SEED)
    rows = []
    for n in _resolved(args, "n", (10, 20, 30)):
        for cell in power_study(alternatives, n, tests, gamma, reps, seed):
            rows.append(
                {
                    "alternative": cell.alternative,
                    "n": cell.n,
                    "test": cell.test,
                    "alpha": order_label(cell.order) if cell.test in ("wcrte", "wcre") else "",
                    "m": "" if cell.m is None else cell.m,
                    "power": cell.power,
                    "R": cell.replications,
                    "seed": seed,
                }
            )
    _write_rows(rows, POWER_FIELDS, _resolved(args, "format", "csv"), args.out)
    return 0


def cmd_verify_tables(args) -> int:
    rows = verify_table(
        args.table,
        replications=args.reps,
        seed=_resolved(args, "seed", DEFAULT_SEED),
        threads=_threads(args),
    )
    _write_rows(rows, REPORT_FIELDS, _resolved(args, "format", "csv"), args.out)
    return 0


# --- parser ---------------------------------------------------------------------


def _add_common(sub: argparse.ArgumentParser, *extra: str) -> None:
    sub.add_argument("--seed", default=None, help="master seed (default 0xC0FFEE)")
    sub.add_argument("--out", default=None, help="output path (default stdout)")
    sub.add_argument("--config", default=None,
                     help="JSON file supplying defaults for unset flags")
    if "reps" in extra:
        sub.add_argument("--reps", default=None,
                         help="Monte Carlo replications (default 10000)")
    if "format" in extra:
        sub.add_argument("--format", default=None,
                         help="output format: csv or json (default csv)")
    if "threads" in extra:
        sub.add_argument("--threads", default=None,
                         help="worker threads (default: all cores); never changes results")
    if "gamma" in extra:
        sub.add_argument("--gamma", default=None,
                         help="significance level (default 0.05)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="wcrte",
        description="Weighted cumulative residual entropy measures: "
                    "estimation, Monte Carlo comparison, uniformity testing.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("estimate", help="estimate a measure on a data file")
    p.add_argument("--data", action="append", default=None,
                   help="data file, one value per line")
    p.add_argument("--estimator", action="append", default=None,
                   help="estimator spec, e.g. wcrte:l,alpha=2 or wcre:v,m=4 (repeatable)")
    _add_common(p)
    p.set_defaults(func=cmd_estimate)

    p = sub.add_parser("mse-study", help="bias/MSE study over a model grid")
    p.add_argument("--model", action="append", default=None,
                   help="model spec, e.g. exp:lambda=1 (repeatable)")
    p.add_argument("--estimator", action="append", default=None,
                   help="estimator kind: empirical, vasicek, ebrahimi, modified_n, lstat "
                        "(repeatable; default all)")
    p.add_argument("--n", default=None, help="sample sizes, comma separated (default 10,20,30)")
    p.add_argument("--alpha", default=None,
                   help="orders, comma separated; 1 selects the WCRE limit (default 2)")
    p.add_argument("--m", default=None,
                   help="windows: auto, sweep, or a comma separated list (default auto)")
    _add_common(p, "reps", "format", "threads")
    p.set_defaults(func=cmd_mse_study)

    p = sub.add_parser(
        "critical-values",
        help="simulate two-sided critical values, or run tests on a data file",
    )
    p.add_argument("--n", default=None, help="sample sizes for table mode, comma separated")
    p.add_argument("--alpha", default=None,
                   help="orders, comma separated; 1 selects the WCRE limit "
                        "(default 1,2,5,7,10)")
    p.add_argument("--data", action="append", default=None,
                   help="data file of [0,1] observations: run single tests instead")
    p.add_argument("--test", action="append", default=None,
                   help="test spec for --data mode: wcrte:alpha=2, wcre, ks, cvm, ad, "
                        "ent, ent:m=5 (repeatable)")
    _add_common(p, "reps", "format", "gamma")
    p.set_defaults(func=cmd_critical_values)

    p = sub.add_parser("power", help="power study against alternatives")
    p.add_argument("--alternative", action="append", default=None,
                   help="alternative model spec, e.g. alt:A,j=2 (repeatable)")
    p.add_argument("--test", action="append", default=None,
                   help="test spec (repeatable)")
    p.add_argument("--n", default=None, help="sample sizes, comma separated (default 10,20,30)")
    _add_common(p, "reps", "format", "gamma")
    p.set_defaults(func=cmd_power)

    p = sub.add_parser("verify-tables", help="compare against bundled published values")
    p.add_argument("--table", type=int, choices=range(2, 9), required=True,
                   help="published table id (2-8)")
    _add_common(p, "reps", "format", "threads")
    p.set_defaults(func=cmd_verify_tables)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        _apply_config(args)
        return args.func(args)
    except ParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except NumericError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
