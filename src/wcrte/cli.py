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
tests, alternatives); explicit flags win. Numeric list flags are comma
separated; model, estimator and test specifications are repeatable flags
because model parameters themselves contain commas.
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

from .distributions import order_from_label, order_label, parse_model
from .errors import DomainError, NumericError, ParseError
from .estimators import (
    EstimatorKind,
    estimate,
    parse_estimator,
    parse_kind,
    read_sample,
    wcre_lstat_variance,
    wcrte_lstat_variance,
)
from .gof import critical_values, parse_test, power_study, uniformity_test
from .mc import DEFAULT_SEED, McStudyConfig, heuristic_window, run_study
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


def _parse_seed(text: str) -> int:
    try:
        return int(str(text), 0)
    except ValueError:
        raise ParseError(f"--seed: not an integer: {text!r}") from None


def _int_list(value, flag: str) -> tuple[int, ...]:
    items = value.split(",") if isinstance(value, str) else list(value)
    out = []
    for item in items:
        s = str(item).strip()
        if not s:
            continue
        try:
            out.append(int(s))
        except ValueError:
            raise ParseError(f"{flag}: not an integer: {s!r}") from None
    if not out:
        raise ParseError(f"{flag}: empty list")
    return tuple(out)


def _order_list(value, flag: str) -> tuple[float | None, ...]:
    items = value.split(",") if isinstance(value, str) else list(value)
    out = []
    for item in items:
        if item is None:
            out.append(None)
            continue
        s = str(item).strip()
        if not s:
            continue
        try:
            out.append(order_from_label(float(s)))
        except (ValueError, DomainError) as exc:
            raise ParseError(f"{flag}: {exc}" if isinstance(exc, DomainError)
                             else f"{flag}: not a number: {s!r}") from None
    if not out:
        raise ParseError(f"{flag}: empty list")
    return tuple(out)


def _window_choice(value, flag: str):
    if isinstance(value, str):
        key = value.strip().lower()
        if key in ("auto", "sweep"):
            return key
    return _int_list(value, flag)


def _str_items(value) -> list[str]:
    if value is None:
        return []
    if isinstance(value, (str, bytes)):
        return [str(value)]
    return [str(v) for v in value]


def _apply_config(args: argparse.Namespace) -> None:
    path = getattr(args, "config", None)
    if not path:
        return
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
    value = _resolved(args, "threads", os.cpu_count() or 1)
    n = int(value)
    if n < 1:
        raise DomainError(f"--threads must be positive, got {value!r}")
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
    models = _str_items(args.model)
    if not models:
        raise ParseError("mse-study needs at least one --model")
    kinds = _str_items(args.estimator) or ["empirical", "vasicek", "ebrahimi", "modified_n", "lstat"]
    config = McStudyConfig(
        models=tuple(parse_model(m) for m in models),
        sample_sizes=_int_list(_resolved(args, "n", "10,20,30"), "--n"),
        orders=_order_list(_resolved(args, "alpha", "2"), "--alpha"),
        kinds=tuple(parse_kind(k) for k in kinds),
        windows=_window_choice(_resolved(args, "m", "auto"), "--m"),
        replications=int(_resolved(args, "reps", 10_000)),
        seed=_resolved(args, "seed", DEFAULT_SEED),
    )
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
    gamma = float(_resolved(args, "gamma", 0.05))
    reps = int(_resolved(args, "reps", 10_000))
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
            result = uniformity_test(x.values, parse_test(text), gamma, reps, seed)
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
    sizes = _int_list(args.n, "--n")
    orders = _order_list(_resolved(args, "alpha", "1,2,5,7,10"), "--alpha")
    rows = []
    for n in sizes:
        for order in orders:
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
    gamma = float(_resolved(args, "gamma", 0.05))
    reps = int(_resolved(args, "reps", 10_000))
    seed = _resolved(args, "seed", DEFAULT_SEED)
    rows = []
    for n in _int_list(_resolved(args, "n", "10,20,30"), "--n"):
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
    sub.add_argument("--seed", type=_parse_seed, default=None,
                     help="master seed (default 0xC0FFEE)")
    sub.add_argument("--out", default=None, help="output path (default stdout)")
    sub.add_argument("--config", default=None,
                     help="JSON file supplying defaults for unset flags")
    if "reps" in extra:
        sub.add_argument("--reps", type=int, default=None,
                         help="Monte Carlo replications (default 10000)")
    if "format" in extra:
        sub.add_argument("--format", choices=("csv", "json"), default=None,
                         help="output format (default csv)")
    if "threads" in extra:
        sub.add_argument("--threads", type=int, default=None,
                         help="worker threads (default: all cores); never changes results")
    if "gamma" in extra:
        sub.add_argument("--gamma", type=float, default=None,
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
