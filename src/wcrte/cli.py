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
Every option a config can set has one name, the argparse destination of its
flag, and that name is its config key (``_CONVERTERS``): the long flag name,
with the plural for the repeatable flags (models, estimators, tests,
alternatives; ``--data`` stays ``data``) and ``replications`` for ``--reps``.
Numeric list flags are comma separated; model, estimator and test
specifications are repeatable flags because their parameters contain commas
(one grammar for all three: ``distributions._split_spec``).

``critical-values`` and ``power`` pass their flags as lists to the public
:mod:`wcrte.gof` functions, whose module docstring says what one value and a
list give. ``mc``, ``gof`` and ``reference`` are imported inside the
commands that run them, so an ``estimate`` launch loads none of them.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from dataclasses import replace

from .distributions import _GRID_KEYS, DEFAULT_SEED, _convert, _integer, _json_object
from .errors import DomainError, NumericError, ParseError
from .estimators import (
    EstimatorKind,
    _SortedSquares,
    estimate,
    heuristic_window,
    parse_estimator,
    wcre_lstat_variance,
    wcrte_lstat_variance,
)
from .sample import _check_sorted, _read_values, read_sample

__all__ = ["main", "build_parser"]

_Z_95 = 1.959963984540054


def _real(value) -> float:
    try:
        return float(value)
    except (TypeError, ValueError):
        raise ParseError(f"not a number: {value!r}") from None


def _format(value) -> str:
    if value not in ("csv", "json"):
        raise ParseError(f"expected csv or json, got {value!r}")
    return value


def _strings(value) -> list[str]:
    """A string or a list of strings, as a list."""
    items = [value] if isinstance(value, str) else value
    if not (isinstance(items, list) and all(isinstance(item, str) for item in items)):
        raise ParseError(f"expected a string or a list of strings, got {value!r}")
    return items


def _path(value) -> str:
    if not isinstance(value, str):
        raise ParseError(f"expected a path string, got {value!r}")
    return value


#: The converter of every option a config can set, keyed by the option's
#: argparse destination, which is also its config key.
_CONVERTERS = {
    **_GRID_KEYS,
    "gamma": _real,
    "threads": _integer,
    "format": _format,
    **dict.fromkeys(("models", "estimators", "tests", "alternatives", "data"), _strings),
    "out": _path,
}


def _usable_cpus() -> int:
    """The CPUs this process may run on (its affinity mask where the OS has one)."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


#: Values of the options that neither a flag nor the config sets; a
#: subcommand overrides them with ``set_defaults(defaults=...)``.
_DEFAULTS = {
    "replications": 10_000,
    "seed": DEFAULT_SEED,
    "gamma": 0.05,
    "format": "csv",
    "threads": _usable_cpus(),
}

def _apply_config(args: argparse.Namespace) -> None:
    """Fill unset options from ``--config``, convert every value, then fill defaults.

    ``--config FILE`` is read by the JSON reader behind
    :func:`wcrte.mc.study_config_from_json`. Every flag and config value goes
    through the one converter of its key, so ``"n": "10,20"``, ``"n": [10,
    20]`` and ``--n 10,20`` are the same; the repeatable keys take a string
    or a list of strings and ``out`` a path string, and a value of the wrong
    type exits 2 with a message naming its key.
    """
    doc = {}
    if args.config:
        with open(args.config, "r", encoding="utf-8") as fh:
            doc = _json_object(fh, _CONVERTERS, "config", f"{args.config}: ")
    defaults = {**_DEFAULTS, **getattr(args, "defaults", {})}
    for key in _CONVERTERS:
        if not hasattr(args, key):
            continue
        value = getattr(args, key)
        if value is None:
            value = doc.get(key)
        value = defaults.get(key) if value is None else _convert(_CONVERTERS, key, value)
        setattr(args, key, value)


def _csv_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "1" if value else "0"
    return str(value)


def _table(columns: dict, results, seed=None) -> list[dict]:
    """One row per result: each column of ``columns`` read from it and the master ``seed``.

    The columns are stated next to each result type (``mc.STUDY_COLUMNS``,
    ``gof.CRITICAL_COLUMNS``, ...); the seed is the one column no result holds.
    """
    return [{name: read(result, seed) for name, read in columns.items()} for result in results]


def _write_rows(args, rows, fields=None) -> None:
    """Write ``rows`` to ``--out`` or stdout: CSV or JSON, or lines of text without ``fields``.

    ``json`` and ``csv`` are imported in their branches, so an ``estimate``
    launch, which prints lines of text, loads neither writer.
    """
    if fields is None:
        text = "".join(f"{row}\n" for row in rows)
    elif args.format == "json":
        import json

        text = json.dumps(rows, indent=2) + "\n"
    else:
        import csv
        import io

        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(fields)
        for row in rows:
            writer.writerow([_csv_cell(row[f]) for f in fields])
        text = buf.getvalue()
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


# --- subcommands ----------------------------------------------------------------


def cmd_estimate(args) -> int:
    if len(args.data or ()) != 1:
        raise ParseError("estimate needs exactly one --data file")
    if not args.estimators:
        raise ParseError("estimate needs at least one --estimator")
    # Every spec is parsed before the data file is read, so a malformed one fails first.
    specs = [parse_estimator(text) for text in args.estimators]
    # One validation, sort and squaring for every spec, all in the array the
    # file was read into: its size was checked by the reader, and its values
    # are checked once sorted, as a Sample's are.
    values = _read_values(args.data[0])
    values.sort()
    x = _SortedSquares(_check_sorted(values))
    # The L-statistic estimates come first, by the one-buffer rule of
    # ``_SortedSquares``; the lines, and the first error, keep the command
    # line's order.
    first = {}
    for i, spec in enumerate(specs):
        if spec.kind is EstimatorKind.LSTAT:
            try:
                first[i] = estimate(spec, x)
            except (DomainError, NumericError) as exc:
                first[i] = exc
    lines = []
    for i, (text, spec) in enumerate(zip(args.estimators, specs)):
        try:
            lines.append(_estimate_line(spec, x, first.get(i)))
        except (DomainError, NumericError) as exc:
            raise type(exc)(f"{text}: {exc}") from None
    _write_rows(args, lines)
    return 0


def _estimate_line(spec, x, value=None) -> str:
    """The printed line of ``spec`` on the prepared sample ``x``.

    ``value`` is the spec's estimate, or the error it raised, when it was
    made before; otherwise it is made here.
    """
    if isinstance(value, Exception):
        raise value
    n = x.shape[-1]
    note = ""
    if spec.kind.needs_window and spec.window is None:
        spec = replace(spec, window=heuristic_window(spec.kind, n))
        note = "  (window chosen automatically)"
    if value is None:
        value = estimate(spec, x)
    line = f"{spec.label()}  estimate={value:.10g}  n={n}{note}"
    if spec.kind is EstimatorKind.LSTAT and n >= 3:
        try:
            if spec.order is None:
                sigma2 = wcre_lstat_variance(x)
            else:
                sigma2 = wcrte_lstat_variance(x, spec.order)
        except NumericError:
            return line + "  (variance estimate leaves the float range; no interval)"
        if sigma2 > 0.0:
            se = math.sqrt(sigma2 / n)
            lo, hi = value - _Z_95 * se, value + _Z_95 * se
            line += f"  se={se:.6g}  ci95=[{lo:.6g}, {hi:.6g}]"
        else:
            line += "  (variance estimate not positive; no interval)"
    return line


def cmd_mse_study(args) -> int:
    from .mc import _STUDY_KEYS, STUDY_COLUMNS, run_study, study_config_from_json

    if not args.models:
        raise ParseError("mse-study needs at least one --model")
    doc = {key: getattr(args, key) for key in _STUDY_KEYS}
    config = study_config_from_json({k: v for k, v in doc.items() if v is not None})
    result = run_study(config, threads=args.threads)
    for message in result.skipped:
        print(f"skipped: {message}", file=sys.stderr)
    _write_rows(args, _table(STUDY_COLUMNS, result.cells, result.seed), STUDY_COLUMNS)
    return 0


def cmd_critical_values(args) -> int:
    from .gof import CRITICAL_COLUMNS, GOF_COLUMNS, critical_values, uniformity_test
    from .mc import _check_threads

    if args.data and args.n is not None:
        raise ParseError("give either --n (table mode) or --data (single-test mode), not both")

    if args.data:
        # This mode reaches no pool, so it checks the thread count itself.
        _check_threads(args.threads)
        if len(args.data) != 1:
            raise ParseError("single-test mode takes exactly one --data file")
        if not args.tests:
            raise ParseError("single-test mode needs at least one --test")
        x = read_sample(args.data[0])
        results = uniformity_test(x, args.tests, args.gamma, args.replications, args.seed)
        _write_rows(args, _table(GOF_COLUMNS, results), GOF_COLUMNS)
        return 0

    if args.n is None:
        raise ParseError("table mode needs --n (or use --data for single-test mode)")
    pairs = critical_values(args.n, args.alpha, args.gamma, args.replications, args.seed,
                            args.threads)
    _write_rows(args, _table(CRITICAL_COLUMNS, pairs, args.seed), CRITICAL_COLUMNS)
    return 0


def cmd_power(args) -> int:
    from .gof import POWER_COLUMNS, power_study

    if not args.alternatives:
        raise ParseError("power needs at least one --alternative")
    if not args.tests:
        raise ParseError("power needs at least one --test")
    cells = power_study(args.alternatives, args.n, args.tests, args.gamma, args.replications,
                        args.seed, args.threads)
    _write_rows(args, _table(POWER_COLUMNS, cells, args.seed), POWER_COLUMNS)
    return 0


def cmd_verify_tables(args) -> int:
    from .reference import REPORT_FIELDS, verify_table

    rows = verify_table(args.table, replications=args.replications, seed=args.seed,
                        threads=args.threads)
    _write_rows(args, rows, REPORT_FIELDS)
    return 0


# --- parser ---------------------------------------------------------------------


def _repeatable(sub: argparse.ArgumentParser, flag: str, dest: str, help: str) -> None:
    sub.add_argument(flag, dest=dest, action="append", metavar=flag[2:].upper(), help=help)


def _add_common(sub: argparse.ArgumentParser, *extra: str, reps: str = "default 10000") -> None:
    sub.add_argument("--seed", help="master seed (default 0xC0FFEE)")
    sub.add_argument("--out", help="output path (default stdout)")
    sub.add_argument("--config", help="JSON file supplying defaults for unset flags")
    if "replications" in extra:
        sub.add_argument("--reps", dest="replications", metavar="REPS",
                         help=f"Monte Carlo replications ({reps})")
    if "format" in extra:
        sub.add_argument("--format", help="output format: csv or json (default csv)")
    if "threads" in extra:
        sub.add_argument("--threads", help="worker threads (default: the CPUs this process "
                                           "may use); never changes results")
    if "gamma" in extra:
        sub.add_argument("--gamma", help="significance level (default 0.05)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="wcrte",
        description="Weighted cumulative residual entropy measures: "
                    "estimation, Monte Carlo comparison, uniformity testing.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("estimate", help="estimate a measure on a data file")
    _repeatable(p, "--data", "data", "data file, one value per line")
    _repeatable(p, "--estimator", "estimators",
                "estimator spec, e.g. wcrte:l,alpha=2 or wcre:v,m=4 (repeatable)")
    _add_common(p)
    p.set_defaults(func=cmd_estimate)

    p = sub.add_parser("mse-study", help="bias/MSE study over a model grid")
    _repeatable(p, "--model", "models", "model spec, e.g. exp:lambda=1 (repeatable)")
    _repeatable(p, "--estimator", "estimators",
                "estimator kind: empirical, vasicek, ebrahimi, modified_n, lstat "
                "(repeatable; default all)")
    p.add_argument("--n", help="sample sizes, comma separated (default 10,20,30)")
    p.add_argument("--alpha",
                   help="orders, comma separated; 1 selects the WCRE limit (default 2)")
    p.add_argument("--m",
                   help="windows: auto, sweep, or a comma separated list (default auto)")
    _add_common(p, "replications", "format", "threads")
    p.set_defaults(func=cmd_mse_study,
                   defaults={"estimators": [kind.value for kind in EstimatorKind]})

    p = sub.add_parser(
        "critical-values",
        help="simulate two-sided critical values, or run tests on a data file",
    )
    p.add_argument("--n", help="sample sizes for table mode, comma separated")
    p.add_argument("--alpha",
                   help="orders, comma separated; 1 selects the WCRE limit "
                        "(default 1,2,5,7,10)")
    _repeatable(p, "--data", "data",
                "data file of [0,1] observations: run single tests instead, in the "
                "calling thread")
    _repeatable(p, "--test", "tests",
                "test spec for --data mode: wcrte:alpha=2, wcre, ks, cvm, ad, "
                "ent, ent:m=5 (repeatable)")
    _add_common(p, "replications", "format", "threads", "gamma")
    p.set_defaults(func=cmd_critical_values, defaults={"alpha": (None, 2.0, 5.0, 7.0, 10.0)})

    p = sub.add_parser("power", help="power study against alternatives")
    _repeatable(p, "--alternative", "alternatives",
                "alternative model spec, e.g. alt:A,j=2 (repeatable)")
    _repeatable(p, "--test", "tests", "test spec (repeatable)")
    p.add_argument("--n", help="sample sizes, comma separated (default 10,20,30)")
    _add_common(p, "replications", "format", "threads", "gamma")
    p.set_defaults(func=cmd_power, defaults={"n": (10, 20, 30)})

    p = sub.add_parser("verify-tables", help="compare against bundled published values")
    p.add_argument("--table", type=int, choices=range(2, 9), required=True,
                   help="published table id (2-8)")
    _add_common(p, "replications", "format", "threads",
                reps="default: each group's published count")
    p.set_defaults(func=cmd_verify_tables, defaults={"replications": None})

    return parser


#: Exit code of each error class the commands raise.
_EXIT_CODES = {ParseError: 2, OSError: 2, DomainError: 3, NumericError: 4}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        _apply_config(args)
        return args.func(args)
    except tuple(_EXIT_CODES) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return next(code for cls, code in _EXIT_CODES.items() if isinstance(exc, cls))


if __name__ == "__main__":
    sys.exit(main())
