"""Command line behavior: output formats, config handling, exit codes."""

import argparse
import csv
import gc
import io
import json
import math
import os
import re
import subprocess
import sys
import tracemalloc
import warnings
from dataclasses import replace
from pathlib import Path

import pytest

from wcrte import (
    DEFAULT_SEED,
    EstimatorKind,
    Exponential,
    NumericError,
    cli,
    critical_values,
    derive_stream,
    estimate,
    gof,
    heuristic_window,
    parse_estimator,
    run_study,
    study_config_from_json,
    wcre_lstat_variance,
    wcrte_lstat_variance,
)
from wcrte.cli import _Z_95, build_parser, main
from wcrte.gof import CRITICAL_COLUMNS, GOF_COLUMNS, POWER_COLUMNS
from wcrte.mc import STUDY_COLUMNS
from wcrte.reference import REPORT_FIELDS

FROZEN_WCRTE_VAR_30 = 1.0922596389064871
FROZEN_WCRE_VAR_30 = 4.914762964472582
FROZEN_WCRTE_LSTAT_30 = 0.6199908809954806
FROZEN_WCRE_LSTAT_30 = 1.2319425953040815


def run_cli(argv, capsys):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # tiny samples warn about variance
        try:
            code = main(argv)
        except SystemExit as exc:
            code = int(exc.code or 0)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_csv(text):
    return list(csv.DictReader(io.StringIO(text)))


@pytest.fixture
def five_points(tmp_path):
    path = tmp_path / "five.txt"
    path.write_text("1\n2\n3\n4\n5\n")
    return str(path)


@pytest.fixture
def exp30(tmp_path):
    x = Exponential(1.0).quantile(derive_stream(31, 0).random(30))
    path = tmp_path / "exp30.txt"
    path.write_text("\n".join(repr(float(v)) for v in x) + "\n")
    return str(path)


# --- estimate -----------------------------------------------------------------


def test_estimate_hand_values(five_points, capsys):
    code, out, err = run_cli(
        ["estimate", "--data", five_points, "--estimator", "wcrte:e,alpha=2"], capsys
    )
    assert code == 0
    assert out == "wcrte:empirical,alpha=2  estimate=2.4  n=5\n"
    code, out, _ = run_cli(
        ["estimate", "--data", five_points, "--estimator", "wcrte:v,alpha=2,m=1"], capsys
    )
    assert code == 0
    assert out == "wcrte:vasicek,alpha=2,m=1  estimate=1.96  n=5\n"


def test_estimate_reports_unusable_variance(five_points, capsys):
    code, out, _ = run_cli(
        ["estimate", "--data", five_points, "--estimator", "wcrte:l,alpha=2"], capsys
    )
    assert code == 0
    assert out == (
        "wcrte:lstat,alpha=2  estimate=3.5  n=5"
        "  (variance estimate not positive; no interval)\n"
    )


def test_estimate_auto_window_note(exp30, capsys):
    code, out, _ = run_cli(
        ["estimate", "--data", exp30, "--estimator", "wcrte:v,alpha=2"], capsys
    )
    assert code == 0
    assert "wcrte:vasicek,alpha=2,m=10  estimate=" in out
    assert out.rstrip().endswith("(window chosen automatically)")


def test_estimate_lstat_interval(exp30, capsys):
    code, out, _ = run_cli(
        [
            "estimate",
            "--data",
            exp30,
            "--estimator",
            "wcrte:l,alpha=2",
            "--estimator",
            "wcre:l",
        ],
        capsys,
    )
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 2
    for line, est, var in (
        (lines[0], FROZEN_WCRTE_LSTAT_30, FROZEN_WCRTE_VAR_30),
        (lines[1], FROZEN_WCRE_LSTAT_30, FROZEN_WCRE_VAR_30),
    ):
        se = math.sqrt(var / 30.0)
        lo, hi = est - _Z_95 * se, est + _Z_95 * se
        assert f"estimate={est:.10g}" in line
        assert f"se={se:.6g}" in line
        assert f"ci95=[{lo:.6g}, {hi:.6g}]" in line


def test_estimate_argument_errors(five_points, tmp_path, capsys):
    cases = [
        ["estimate", "--estimator", "wcrte:e,alpha=2"],  # no data
        ["estimate", "--data", five_points, "--data", five_points, "--estimator", "wcre:e"],
        ["estimate", "--data", five_points, "--estimator", "wcrte:e"],  # missing alpha
        ["estimate", "--data", str(tmp_path / "missing.txt"), "--estimator", "wcre:e"],
        ["estimate", "--data", five_points],  # no estimator
    ]
    for argv in cases:
        code, _, err = run_cli(argv, capsys)
        assert code == 2, argv
        assert "error" in err.lower()
    short = tmp_path / "short.txt"
    short.write_text("1.0\n")
    code, _, err = run_cli(
        ["estimate", "--data", str(short), "--estimator", "wcre:e"], capsys
    )
    assert code == 2
    assert "n >= 2" in err


@pytest.mark.parametrize(
    "argv",
    [["estimate", "--estimator", "wcre:e"], ["critical-values", "--test", "ks"]],
)
def test_undecodable_data_file_exits_two(tmp_path, capsys, argv):
    path = tmp_path / "latin.txt"
    path.write_bytes(b"1.5\n\xff\xfe2.0\n3.0\n")
    code, out, err = run_cli([*argv, "--data", str(path)], capsys)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and "latin.txt: not UTF-8 text" in err


def test_estimate_domain_error_exit_code(exp30, capsys):
    code, _, err = run_cli(
        ["estimate", "--data", exp30, "--estimator", "wcrte:v,alpha=2,m=40"], capsys
    )
    assert code == 3
    assert err.startswith("error:")


def test_numeric_failures_use_exit_code_four(five_points, capsys, monkeypatch):
    def boom(path):
        raise NumericError("synthetic numerical failure")

    monkeypatch.setattr("wcrte.cli._read_values", boom)
    code, _, err = run_cli(
        ["estimate", "--data", five_points, "--estimator", "wcre:e"], capsys
    )
    assert code == 4
    assert "synthetic numerical failure" in err


def test_estimate_out_of_float_range_exits_four(tmp_path, capsys):
    path = tmp_path / "huge.txt"
    path.write_text("1e160\n2e160\n3e160\n5e160\n")
    code, out, err = run_cli(
        ["estimate", "--data", str(path), "--estimator", "wcrte:e,alpha=2"], capsys
    )
    assert code == 4
    assert out == ""
    assert "not finite" in err


#: The ten specs of the ``estimate`` benchmark workload.
TEN_SPECS = (
    "wcrte:e,alpha=2", "wcrte:v,alpha=2", "wcrte:eb,alpha=2", "wcrte:n,alpha=2", "wcrte:l,alpha=2",
    "wcre:e", "wcre:v", "wcre:eb", "wcre:n", "wcre:l",
)


def _standalone_line(text, x):
    """The line ``estimate`` prints for ``text``, from public calls on the raw array ``x``."""
    spec, note = parse_estimator(text), ""
    if spec.kind.needs_window and spec.window is None:
        spec = replace(spec, window=heuristic_window(spec.kind, x.size))
        note = "  (window chosen automatically)"
    value = estimate(spec, x)
    line = f"{spec.label()}  estimate={value:.10g}  n={x.size}{note}"
    if spec.kind is EstimatorKind.LSTAT:
        if spec.order is None:
            sigma2 = wcre_lstat_variance(x)
        else:
            sigma2 = wcrte_lstat_variance(x, spec.order)
        if sigma2 > 0.0:
            se = math.sqrt(sigma2 / x.size)
            lo, hi = value - _Z_95 * se, value + _Z_95 * se
            line += f"  se={se:.6g}  ci95=[{lo:.6g}, {hi:.6g}]"
        else:
            line += "  (variance estimate not positive; no interval)"
    return line + "\n"


@pytest.mark.parametrize("n, top", [(3, None), (2001, None), (2001, 1.5 * 2.0**511)])
def test_estimate_prints_the_bits_of_standalone_calls(tmp_path, capsys, n, top):
    """One prepared sample shared by every spec and companion gives the bits
    of each public call on its own, the scaled path (a value reaching 2**511,
    variance finished at power 2) included."""
    x = Exponential(1.0).quantile(derive_stream(17, n).random(n))
    if top is not None:
        x[-1] = top
    path = tmp_path / "x.txt"
    path.write_text("".join(f"{float(v)!r}\n" for v in x))
    argv = ["estimate", "--data", str(path)]
    for text in TEN_SPECS:
        argv += ["--estimator", text]
    code, out, _ = run_cli(argv, capsys)
    assert code == 0
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # n = 3 gives a negative variance
        assert out == "".join(_standalone_line(text, x) for text in TEN_SPECS)


def test_estimate_holds_at_most_three_and_a_half_vectors_beside_its_array(monkeypatch, capsys):
    """At n = 200 000 the ten specs run beside the array the file was read
    into, which is sorted, squared and turned into spacings in place, within
    3.5 more n-length vectors: one order's tail weights, and a coefficient
    row being built or the variance companion's two buffers."""
    n = 200_000
    values = [Exponential(1.0).quantile(derive_stream(19, n).random(n))]
    monkeypatch.setattr(cli, "_read_values", lambda path: values.pop())
    argv = ["estimate", "--data", "unused.txt"]
    for text in TEN_SPECS:
        argv += ["--estimator", text]
    tracemalloc.start()
    try:
        code = main(argv)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0
    assert len(capsys.readouterr().out.splitlines()) == len(TEN_SPECS)
    assert peak <= 3.5 * 8 * n, peak / (8 * n)


@pytest.mark.parametrize("texts, failing", [
    (["wcrte:e,alpha=2", "wcre:v", "wcre:l"], "wcre:v"),
    (["wcrte:l,alpha=2", "wcre:l", "wcre:v"], "wcre:l"),
])
def test_estimate_reports_the_first_failing_spec_in_command_line_order(
        tmp_path, capsys, texts, failing):
    """The L-statistic estimates run before the spacing ones, but the error
    reported is that of the first failing spec on the command line."""
    x = Exponential(1.0).quantile(derive_stream(17, 50).random(50)) * 2.0**512
    path = tmp_path / "huge.txt"
    path.write_text("".join(f"{float(v)!r}\n" for v in x))
    code, out, err = run_cli(
        ["estimate", "--data", str(path), *(a for t in texts for a in ("--estimator", t))], capsys
    )
    assert (code, out) == (4, "")
    assert err == f"error: {failing}: the estimate is not finite: it leaves the float range\n"


def test_a_variance_out_of_float_range_drops_only_its_interval(tmp_path, capsys):
    """A sample scaled by 2**508 has finite estimates, but the L-statistic's
    variance, of degree 2 in the squares, overflows: its line prints without
    an interval, and every other spec prints as usual."""
    x = Exponential(1.0).quantile(derive_stream(17, 2001).random(2001)) * 2.0**508
    path = tmp_path / "huge.txt"
    path.write_text("".join(f"{float(v)!r}\n" for v in x))
    texts = ["wcre:e", "wcrte:l,alpha=2", "wcre:v"]
    code, out, err = run_cli(
        ["estimate", "--data", str(path), *(a for t in texts for a in ("--estimator", t))], capsys
    )
    assert (code, err) == (0, "")
    lines = out.splitlines()
    assert len(lines) == len(texts)
    value = estimate(parse_estimator("wcrte:l,alpha=2"), x)
    assert lines[1] == (f"wcrte:lstat,alpha=2  estimate={value:.10g}  n=2001"
                        "  (variance estimate leaves the float range; no interval)")
    assert lines[0].startswith("wcre:empirical  estimate=") and "e+30" in lines[0]
    assert lines[2].endswith("(window chosen automatically)")
    with pytest.raises(NumericError, match="^the variance estimate is not finite: it leaves"):
        wcrte_lstat_variance(x, 2.0)


def test_estimate_errors_name_the_failing_spec(tmp_path, capsys):
    path = tmp_path / "two.txt"
    path.write_text("1.5\n2.5\n")
    code, out, err = run_cli(
        ["estimate", "--data", str(path), "--estimator", "wcre:l", "--estimator", "wcre:v"], capsys
    )
    assert (code, out) == (3, "")
    assert err == "error: wcre:v: need n >= 3, got 2\n"
    path.write_text("1e160\n2e160\n3e160\n5e160\n")
    code, out, err = run_cli(
        ["estimate", "--data", str(path), "--estimator", "wcrte:e, alpha=2"], capsys
    )
    assert (code, out) == (4, "")
    assert err == ("error: wcrte:e, alpha=2: the estimate is not finite: "
                   "it leaves the float range\n")


def test_estimate_parses_every_spec_before_reading_the_data(tmp_path, capsys, monkeypatch):
    """A bad spec anywhere in the list exits 2 naming the spec, before the data
    file is read, so it wins over an unreadable file; a study's kind list keeps
    its own message."""
    path = tmp_path / "x.txt"
    path.write_text("1.5\n2.5\n4.0\n")
    known = "e, eb, ebrahimi, empirical, l, lstat, mn, modified, modified_n, n, v, vasicek"
    want = f"error: 'wcre:bogus': unknown estimator kind 'bogus' (known: {known})\n"
    specs = ["--estimator", "wcre:l", "--estimator", "wcrte:l,alpha=2",
             "--estimator", "wcre:bogus"]
    code, out, err = run_cli(["estimate", "--data", str(path), *specs], capsys)
    assert (code, out, err) == (2, "", want)
    code, out, err = run_cli(["estimate", "--data", str(tmp_path / "missing.txt"), *specs], capsys)
    assert (code, out, err) == (2, "", want)
    monkeypatch.setattr(cli, "_read_values", lambda path: pytest.fail("read before parsing"))
    code, out, err = run_cli(["estimate", "--data", str(path), *specs], capsys)
    assert (code, out, err) == (2, "", want)
    code, out, err = run_cli(
        ["mse-study", "--model", "exp:lambda=1", "--estimator", "bogus", "--reps", "10"], capsys
    )
    assert (code, out) == (2, "")
    assert err == f"error: estimators: unknown estimator kind 'bogus' (known: {known})\n"


@pytest.mark.parametrize(
    "argv",
    [
        ["mse-study", "--model", "exp:lambda=1", "--n", "10", "--reps", "10"],
        ["verify-tables", "--table", "8", "--reps", "1000"],
        ["power", "--alternative", "alt:A,j=2", "--test", "ks", "--n", "10", "--reps", "100"],
        ["critical-values", "--n", "10,20", "--reps", "1000"],
        ["critical-values", "--data", "u5", "--test", "ks", "--reps", "1000"],
    ],
)
def test_a_thread_count_below_one_exits_three_before_any_draw(argv, capsys, monkeypatch,
                                                              tmp_path):
    """``--data`` mode reaches no pool, and checks the count all the same."""
    u5 = tmp_path / "u5.txt"
    u5.write_text("0.1\n0.3\n0.5\n0.7\n0.9\n")
    argv = [str(u5) if a == "u5" else a for a in argv]
    monkeypatch.setattr("wcrte.mc.derive_stream", lambda *key: pytest.fail(f"drew {key}"))
    code, out, err = run_cli([*argv, "--threads", "0"], capsys)
    assert (code, out, err) == (3, "", "error: threads must be positive, got 0\n")


@pytest.mark.parametrize("threads", ["1", "2"])
def test_critical_values_check_every_size_before_any_draw(threads, capsys, monkeypatch):
    monkeypatch.setattr("wcrte.mc.derive_stream", lambda *key: pytest.fail(f"drew {key}"))
    code, out, err = run_cli(["critical-values", "--n", "30,1", "--reps", "1000",
                              "--threads", threads], capsys)
    assert (code, out, err) == (3, "", "error: need n >= 2, got 1\n")


def test_study_moments_never_print_inf_or_nan(capsys):
    argv = ["mse-study", "--n", "10", "--alpha", "2", "--estimator", "empirical", "--reps", "200"]
    code, out, _ = run_cli([*argv, "--model", "uniform:theta=1e40"], capsys)
    assert code == 0
    (row,) = parse_csv(out)
    assert all(math.isfinite(float(row[c])) for c in ("bias", "bias_se", "mse", "mse_se"))
    code, out, err = run_cli([*argv, "--model", "uniform:theta=1e80"], capsys)
    assert (code, out) == (4, "")
    assert "leaves the float range" in err


def test_unknown_subcommand_exits_two(capsys):
    code, _, _ = run_cli(["frobnicate"], capsys)
    assert code == 2
    code, _, _ = run_cli([], capsys)
    assert code == 2


# --- mse-study -----------------------------------------------------------------


def test_mse_study_csv_schema_and_sweep(capsys):
    code, out, err = run_cli(
        [
            "mse-study",
            "--model",
            "exp:lambda=1",
            "--n",
            "10",
            "--alpha",
            "2",
            "--estimator",
            "vasicek",
            "--m",
            "sweep",
            "--reps",
            "50",
        ],
        capsys,
    )
    assert code == 0
    assert err == ""
    rows = parse_csv(out)
    assert out.splitlines()[0] == ",".join(STUDY_COLUMNS)
    assert [r["m"] for r in rows] == ["1", "2", "3", "4"]
    for r in rows:
        assert r["model"] == "exp:lambda=1"
        assert r["alpha"] == "2"
        assert r["R"] == "50"
        assert r["seed"] == str(DEFAULT_SEED)
        float(r["bias"]), float(r["mse"]), float(r["mse_se"])  # numeric columns parse


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_mse_study_prints_the_cells_mse_se(capsys, fmt):
    args = ["--model", "exp:lambda=1", "--n", "10,20", "--estimator", "lstat", "--reps", "200"]
    code, out, _ = run_cli(["mse-study", *args, "--format", fmt], capsys)
    assert code == 0
    rows = parse_csv(out) if fmt == "csv" else json.loads(out)
    config = study_config_from_json(
        {"models": ["exp:lambda=1"], "n": [10, 20], "estimators": ["lstat"], "replications": 200}
    )
    cells = run_study(config).cells
    assert [float(r["mse_se"]) for r in rows] == [cell.mse_se for cell in cells]
    assert all(cell.mse_se > 0.0 for cell in cells)


def test_mse_study_reports_skipped_cells(capsys):
    code, out, err = run_cli(
        [
            "mse-study",
            "--model",
            "pareto1:k=1,delta=1.5",
            "--model",
            "exp:lambda=1",
            "--n",
            "10",
            "--alpha",
            "2",
            "--estimator",
            "empirical",
            "--reps",
            "50",
        ],
        capsys,
    )
    assert code == 0
    assert err.startswith("skipped:")
    assert "pareto1:k=1,delta=1.5" in err
    rows = parse_csv(out)
    assert {r["model"] for r in rows} == {"exp:lambda=1"}

    # The default kinds include the L-statistic, which needs order > 1.
    argv = ["mse-study", "--model", "exp:lambda=1", "--alpha", "0.5", "--n", "10", "--reps", "100"]
    code, out, err = run_cli(argv, capsys)
    assert code == 0
    skipped = [line for line in err.splitlines() if line.startswith("skipped:")]
    assert len(skipped) == 1 and "L-statistic" in skipped[0]
    rows = parse_csv(out)
    assert "lstat" not in {r["estimator"] for r in rows}
    argv += ["--estimator", "e", "--estimator", "v", "--estimator", "eb", "--estimator", "n"]
    code, without, err = run_cli(argv, capsys)
    assert code == 0 and "skipped" not in err
    assert out == without


def test_mse_study_labels_keep_their_digits(capsys):
    code, out, _ = run_cli(
        [
            "mse-study", "--model", "exp:lambda=1.00000001", "--n", "10",
            "--alpha", "2,2.0000001", "--estimator", "empirical", "--reps", "40",
        ],
        capsys,
    )
    assert code == 0
    rows = parse_csv(out)
    assert [r["alpha"] for r in rows] == ["2", "2.0000001"]
    assert {r["model"] for r in rows} == {"exp:lambda=1.00000001"}


def test_mse_study_json_format(capsys):
    code, out, _ = run_cli(
        [
            "mse-study",
            "--model",
            "uniform:theta=1",
            "--n",
            "10",
            "--alpha",
            "1",
            "--estimator",
            "lstat",
            "--reps",
            "40",
            "--format",
            "json",
        ],
        capsys,
    )
    assert code == 0
    rows = json.loads(out)
    assert len(rows) == 1
    assert rows[0]["alpha"] == "1"  # the WCRE limit keeps the label 1
    assert rows[0]["estimator"] == "lstat"
    assert isinstance(rows[0]["bias"], float)


def test_out_flag_writes_file(tmp_path, capsys):
    target = tmp_path / "rows.csv"
    code, out, err = run_cli(
        [
            "mse-study",
            "--model",
            "exp:lambda=1",
            "--n",
            "10",
            "--alpha",
            "2",
            "--estimator",
            "empirical",
            "--reps",
            "40",
            "--out",
            str(target),
        ],
        capsys,
    )
    assert code == 0
    assert out == ""
    rows = parse_csv(target.read_text())
    assert len(rows) == 1
    assert rows[0]["estimator"] == "empirical"


# --- critical-values -------------------------------------------------------------


def test_critical_values_table_mode_matches_library(capsys):
    code, out, _ = run_cli(
        ["critical-values", "--n", "10", "--alpha", "1,2", "--reps", "1000"], capsys
    )
    assert code == 0
    assert out.splitlines()[0] == ",".join(CRITICAL_COLUMNS)
    rows = parse_csv(out)
    assert [r["alpha"] for r in rows] == ["1", "2"]
    for row, order in zip(rows, (None, 2.0)):
        pair = critical_values(10, order, 0.05, 1000, DEFAULT_SEED)
        assert float(row["lower"]) == pair.lower
        assert float(row["upper"]) == pair.upper
        assert row["R"] == "1000"


def test_critical_values_data_mode(exp30, tmp_path, capsys):
    u = derive_stream(9000, 40).random(20)
    path = tmp_path / "unit.txt"
    path.write_text("\n".join(repr(float(v)) for v in u) + "\n")
    code, out, _ = run_cli(
        [
            "critical-values",
            "--data",
            str(path),
            "--test",
            "wcrte:alpha=2",
            "--test",
            "ks",
            "--test",
            "ent",
            "--reps",
            "1000",
        ],
        capsys,
    )
    assert code == 0
    assert out.splitlines()[0] == ",".join(GOF_COLUMNS)
    rows = parse_csv(out)
    by_test = {r["test"]: r for r in rows}
    band = by_test["wcrte"]
    assert band["alpha"] == "2"
    assert band["lower"] and band["upper"]
    assert band["reject"] == "0"
    ks = by_test["ks"]
    assert ks["alpha"] == "" and ks["lower"] == "" and ks["upper"]
    ent = by_test["ent"]
    assert ent["m"] == "5"
    assert ent["lower"] and ent["upper"] == ""


def test_critical_values_draw_one_null_batch_per_n(tmp_path, monkeypatch, capsys):
    draws = []
    stream = gof.gof_null_stream
    monkeypatch.setattr(gof, "gof_null_stream", lambda seed, n: draws.append(n) or stream(seed, n))
    code, _, _ = run_cli(["critical-values", "--n", "10,20", "--reps", "1000"], capsys)
    # One batch each, in the order the pool's threads draw them.
    assert code == 0 and sorted(draws) == [10, 20]

    # Single-test mode calibrates every --test on one batch, and prints what
    # one run per test prints.
    path = tmp_path / "unit.txt"
    path.write_text("\n".join(repr(float(v)) for v in derive_stream(9000, 41).random(25)) + "\n")
    base = ["critical-values", "--data", str(path), "--reps", "1000"]
    tests = ["wcrte:alpha=2", "ks", "wcre", "ent", "ad"]
    alone = [run_cli(base + ["--test", t], capsys)[1].splitlines()[1] for t in tests]
    del draws[:]
    code, out, _ = run_cli(base + [arg for t in tests for arg in ("--test", t)], capsys)
    assert code == 0 and draws == [25]
    assert out.splitlines()[1:] == alone


@pytest.mark.parametrize(
    "argv",
    [
        ["critical-values", "--n", "10,20,30", "--alpha", "1,2", "--reps", "1000"],
        ["power", "--alternative", "alt:A,j=2", "--alternative", "alt:B,j=2",
         "--alternative", "uniform:theta=1", "--test", "ks", "--test", "wcrte:alpha=2",
         "--test", "ent", "--n", "10,20", "--reps", "200"],
    ],
)
def test_table_output_is_byte_identical_at_one_and_two_threads(argv, capsys):
    code1, out1, _ = run_cli([*argv, "--threads", "1"], capsys)
    code2, out2, _ = run_cli([*argv, "--threads", "2"], capsys)
    assert (code1, code2) == (0, 0)
    assert out1 == out2 and len(out1.splitlines()) > 1


def test_critical_values_mode_conflicts(exp30, capsys):
    code, _, err = run_cli(
        ["critical-values", "--n", "10", "--data", exp30, "--reps", "1000"], capsys
    )
    assert code == 2
    assert "not both" in err
    code, _, err = run_cli(["critical-values", "--reps", "1000"], capsys)
    assert code == 2


#: Flags a command does not read: the other ``critical-values`` mode's, and
#: ``--seed`` on ``estimate``, which draws nothing. Each case: the command
#: line, the foreign flag with its value, and its config document (None
#: where the command has no such flag, so a config key is ignored).
FOREIGN_FLAGS = {
    "critical-values table --test": (["critical-values", "--n", "10", "--alpha", "2"],
                                     ["--test", "ks"], {"tests": ["ks"]}),
    "critical-values data --alpha": (["critical-values", "--data", "UNIT", "--test",
                                      "wcrte:alpha=2"], ["--alpha", "7"], {"alpha": "7"}),
    "estimate --seed": (["estimate", "--data", "UNIT", "--estimator", "wcre:e"],
                        ["--seed", "5"], None),
}


@pytest.mark.parametrize("case", FOREIGN_FLAGS.values(), ids=FOREIGN_FLAGS)
def test_a_flag_the_command_does_not_read_exits_two(case, tmp_path, capsys, monkeypatch):
    """The flag, or its config key, exits 2 naming the flag before any draw;
    a config key without a flag is ignored."""
    monkeypatch.setattr("wcrte.mc.derive_stream", lambda *key: pytest.fail(f"drew {key}"))
    unit = tmp_path / "unit.txt"
    unit.write_text("".join(f"{(i * 0.6180339887) % 1!r}\n" for i in range(1, 21)))
    base, flag, doc = case
    base = [str(unit) if a == "UNIT" else a for a in base]
    code, out, err = run_cli([*base, *flag], capsys)
    assert (code, out) == (2, "") and flag[0] in err, err
    config = tmp_path / "config.json"
    config.write_text(json.dumps(doc or {"seed": 5}))
    code, out, err = run_cli([*base, "--config", str(config)], capsys)
    if doc is None:
        assert (code, out, err) == (0, *run_cli(base, capsys)[1:])
    else:
        assert (code, out) == (2, "") and err.startswith(f"error: {flag[0]} "), err


# --- power -----------------------------------------------------------------------


def test_power_csv(capsys):
    code, out, _ = run_cli(
        [
            "power",
            "--alternative",
            "alt:B,j=2",
            "--n",
            "10",
            "--test",
            "ks",
            "--test",
            "wcrte:alpha=2",
            "--test",
            "ent",
            "--reps",
            "200",
        ],
        capsys,
    )
    assert code == 0
    assert out.splitlines()[0] == ",".join(POWER_COLUMNS)
    rows = parse_csv(out)
    assert [r["test"] for r in rows] == ["ks", "wcrte", "ent"]
    for r in rows:
        assert r["alternative"] == "alt:B,j=2"
        assert r["n"] == "10"
        assert 0.0 <= float(r["power"]) <= 1.0
    by_test = {r["test"]: r for r in rows}
    assert by_test["wcrte"]["alpha"] == "2"
    assert by_test["ks"]["alpha"] == ""
    assert by_test["ent"]["m"] == "4"


def test_power_requires_alternative_and_test(capsys):
    code, _, err = run_cli(["power", "--test", "ks", "--reps", "200"], capsys)
    assert code == 2
    assert "alternative" in err
    code, _, err = run_cli(["power", "--alternative", "alt:B,j=2", "--reps", "200"], capsys)
    assert code == 2


@pytest.mark.parametrize("model", ["exp:lambda=1", "uniform:theta=2"])
def test_power_alternative_outside_the_unit_interval_exits_3(model, capsys):
    argv = ["power", "--alternative", "alt:A,j=2", "--alternative", model, "--n", "10",
            "--test", "wcre", "--test", "ad", "--test", "ent", "--reps", "200"]
    code, out, err = run_cli(argv, capsys)
    assert code == 3
    assert out == ""
    assert f"alternative {model} draws values up to" in err


# --- verify-tables -----------------------------------------------------------------


def test_verify_tables_critical_group(capsys):
    code, out, _ = run_cli(["verify-tables", "--table", "7", "--reps", "1000"], capsys)
    assert code == 0
    assert out.splitlines()[0] == ",".join(REPORT_FIELDS)
    rows = parse_csv(out)
    assert len(rows) == 140  # 70 published (n, alpha) pairs, lower and upper
    assert {r["metric"] for r in rows} == {"lower", "upper"}
    for r in rows:
        assert float(r["abs_diff"]) >= 0.0


def test_readme_lists_the_columns_each_command_writes():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    table = readme.split("CSV columns:", 1)[1].split("\n\n", 2)[1]
    documented = {}
    for line in table.splitlines()[2:]:
        command, columns = (cell.strip() for cell in line.strip("|").split("|"))
        documented[command] = [c.strip() for c in columns.split(",")]
    assert documented == {
        "mse-study": list(STUDY_COLUMNS),
        "critical-values": list(CRITICAL_COLUMNS),
        "critical-values --data": list(GOF_COLUMNS),
        "power": list(POWER_COLUMNS),
        "verify-tables": list(REPORT_FIELDS),
    }


def test_verify_tables_rejects_unknown_ids(capsys):
    code, _, _ = run_cli(["verify-tables", "--table", "1", "--reps", "100"], capsys)
    assert code == 2
    code, _, _ = run_cli(["verify-tables", "--reps", "100"], capsys)
    assert code == 2


def test_verify_tables_rejects_zero_replications(capsys):
    code, out, err = run_cli(["verify-tables", "--table", "7", "--reps", "0"], capsys)
    assert code == 3
    assert out == ""
    assert err == "error: need replications >= 1000, got 0\n"


@pytest.mark.parametrize("command, default", [
    ("verify-tables", "default: each group's published count"),
    ("mse-study", "default 10000"),
    ("critical-values", "default 10000"),
    ("power", "default 10000"),
])
def test_reps_help_names_each_commands_default(command, default, capsys):
    code, out, _ = run_cli([command, "--help"], capsys)
    assert code == 0
    assert f"Monte Carlo replications ({default})" in " ".join(out.split())


# --- config and seed handling ---------------------------------------------------------


def test_config_fills_unset_flags_and_flags_win(tmp_path, capsys):
    config = tmp_path / "study.json"
    config.write_text(
        json.dumps(
            {
                "models": ["exp:lambda=1"],
                "n": [10],
                "alpha": [2],
                "estimators": ["empirical"],
                "replications": 200,
            }
        )
    )
    code, out, _ = run_cli(["mse-study", "--config", str(config)], capsys)
    assert code == 0
    rows = parse_csv(out)
    assert len(rows) == 1
    assert rows[0]["R"] == "200"
    code, out, _ = run_cli(
        ["mse-study", "--config", str(config), "--reps", "300"], capsys
    )
    assert code == 0
    assert parse_csv(out)[0]["R"] == "300"


def test_config_rejects_unknown_keys(tmp_path, capsys):
    config = tmp_path / "bad.json"
    config.write_text(json.dumps({"models": ["exp:lambda=1"], "bogus": 1}))
    code, _, err = run_cli(["mse-study", "--config", str(config)], capsys)
    assert code == 2
    assert "bogus" in err
    config.write_bytes(b'{"models": ["exp:lambda=1"], "n": "\xff"}')
    code, _, err = run_cli(["mse-study", "--config", str(config)], capsys)
    assert code == 2
    assert "bad.json: invalid JSON" in err
    # Bad values exit 2 with a message naming the key, as bad flags do.
    for key, value in (
        ("replications", "abc"),
        ("threads", "x"),
        ("seed", "banana"),
        ("n", ["x"]),
        ("alpha", "abc"),
        ("m", "everything"),
        ("format", "xml"),
    ):
        config.write_text(json.dumps({"models": ["exp:lambda=1"], key: value}))
        code, out, err = run_cli(["mse-study", "--config", str(config)], capsys)
        assert code == 2, key
        assert out == ""
        assert err.startswith(f"error: {key}: "), err
    for flag, value in (
        ("--reps", "abc"),
        ("--threads", "x"),
        ("--seed", "banana"),
        ("--format", "xml"),
    ):
        code, _, _ = run_cli(["mse-study", "--model", "exp:lambda=1", flag, value], capsys)
        assert code == 2, flag


def test_config_integer_beyond_the_digit_limit_exits_two(tmp_path, capsys):
    config = tmp_path / "big.json"
    config.write_text('{"models": ["exp:lambda=1"], "n": 1' + "0" * 5000 + "}")
    code, out, err = run_cli(["mse-study", "--config", str(config)], capsys)
    assert (code, out) == (2, "")
    assert err.startswith(f"error: {config}: invalid JSON config: "), err


def test_config_empty_estimator_list_exits_two(tmp_path, capsys):
    config = tmp_path / "study.json"
    config.write_text(json.dumps({"models": ["exp:lambda=1"], "estimators": [], "replications": 10}))
    code, out, err = run_cli(["mse-study", "--config", str(config)], capsys)
    assert (code, out) == (2, "")
    assert err == "error: estimators: empty list\n"


def test_config_values_match_the_equivalent_flags(tmp_path, capsys, five_points):
    unit = tmp_path / "unit.txt"
    unit.write_text("".join(f"{(i * 0.6180339887) % 1!r}\n" for i in range(1, 26)))
    mse = ["mse-study", "--model", "exp:lambda=1", "--estimator", "vasicek", "--reps", "30"]
    config = tmp_path / "study.json"
    for base, doc, flags in (
        (mse, {"seed": "0xff", "n": [10]}, ["--seed", "0xff", "--n", "10"]),
        (mse, {"n": 10}, ["--n", "10"]),
        (mse, {"n": "10,20"}, ["--n", "10,20"]),
        (mse, {"m": "SWEEP", "n": [10]}, ["--m", "sweep", "--n", "10"]),
        (mse, {"alpha": [1, 2], "n": [10], "threads": "2"}, ["--alpha", "1,2", "--n", "10"]),
        (
            ["power", "--reps", "1000"],
            {"alternatives": "alt:A,j=2", "tests": ["ks", "wcrte:alpha=2"], "n": 10,
             "gamma": "0.1", "seed": "0xff", "format": "json"},
            ["--alternative", "alt:A,j=2", "--test", "ks", "--test", "wcrte:alpha=2",
             "--n", "10", "--gamma", "0.1", "--seed", "0xff", "--format", "json"],
        ),
        (
            ["critical-values"],
            {"n": [10, 12], "alpha": "1,2", "replications": 1000, "gamma": 0.1, "seed": 7},
            ["--n", "10,12", "--alpha", "1,2", "--reps", "1000", "--gamma", "0.1", "--seed", "7"],
        ),
        (
            ["critical-values", "--reps", "1000"],
            {"data": str(unit), "tests": ["wcre", "ks", "ent"], "format": "json"},
            ["--data", str(unit), "--test", "wcre", "--test", "ks", "--test", "ent",
             "--format", "json"],
        ),
        (
            ["estimate"],
            {"data": [five_points], "estimators": ["wcre:e", "wcrte:l,alpha=2"], "seed": 3},
            ["--data", five_points, "--estimator", "wcre:e", "--estimator", "wcrte:l,alpha=2"],
        ),
        (
            ["verify-tables", "--table", "7"],
            {"replications": 1000, "seed": "0xff", "format": "json", "threads": 1},
            ["--reps", "1000", "--seed", "0xff", "--format", "json", "--threads", "1"],
        ),
    ):
        config.write_text(json.dumps(doc))
        from_config = run_cli(base + ["--config", str(config)], capsys)
        assert from_config[0] == 0, (doc, from_config[2])
        assert run_cli(base + flags, capsys) == from_config, doc


_TYPED_KEYS = [
    (["estimate"], "data"),
    (["estimate"], "estimators"),
    (["estimate"], "out"),
    (["mse-study"], "models"),
    (["mse-study"], "estimators"),
    (["mse-study"], "out"),
    (["critical-values"], "data"),
    (["critical-values"], "tests"),
    (["critical-values"], "out"),
    (["power"], "alternatives"),
    (["power"], "tests"),
    (["power"], "out"),
    (["verify-tables", "--table", "7"], "out"),
]


@pytest.mark.parametrize(
    "value", [5, [1, 2], {"a": 1}, True], ids=["number", "numbers", "object", "true"]
)
@pytest.mark.parametrize("argv, key", _TYPED_KEYS, ids=[f"{a[0]}-{k}" for a, k in _TYPED_KEYS])
def test_config_values_of_the_wrong_json_type_exit_two(tmp_path, capsys, argv, key, value):
    config = tmp_path / "bad.json"
    config.write_text(json.dumps({key: value}))
    code, out, err = run_cli(argv + ["--config", str(config)], capsys)
    assert code == 2
    assert out == ""
    assert err.startswith(f"error: {key}: "), err


def test_option_strings_of_every_subcommand():
    subparsers = next(
        action for action in build_parser()._actions
        if isinstance(action, argparse._SubParsersAction)
    )
    common = ["-h", "--help", "--out", "--config"]
    expected = {
        "estimate": ["--data", "--estimator"],
        "mse-study": ["--model", "--estimator", "--n", "--alpha", "--m", "--seed", "--reps",
                      "--format", "--threads"],
        "critical-values": ["--n", "--alpha", "--data", "--test", "--seed", "--threads",
                            "--reps", "--format", "--gamma"],
        "power": ["--alternative", "--test", "--n", "--seed", "--threads", "--reps", "--format",
                  "--gamma"],
        "verify-tables": ["--table", "--seed", "--threads", "--reps", "--format"],
    }
    assert list(subparsers.choices) == list(expected)
    for name, parser in subparsers.choices.items():
        strings = [s for action in parser._actions for s in action.option_strings]
        assert sorted(strings) == sorted(common + expected[name]), name


def test_seed_accepts_hex(capsys):
    argv = [
        "mse-study",
        "--model",
        "exp:lambda=1",
        "--n",
        "10",
        "--alpha",
        "2",
        "--estimator",
        "empirical",
        "--reps",
        "50",
    ]
    _, hex_out, _ = run_cli(argv + ["--seed", "0xff"], capsys)
    _, dec_out, _ = run_cli(argv + ["--seed", "255"], capsys)
    assert hex_out == dec_out
    assert ",255" in hex_out
    code, _, err = run_cli(argv + ["--seed", "banana"], capsys)
    assert code == 2
    code, out, err = run_cli(argv + ["--seed", "-1"], capsys)
    assert code == 3
    assert out == "" and "nonnegative" in err


# --- process entry ----------------------------------------------------------------


def launch(argv, head=("-m", "wcrte")):
    """``python -m wcrte ARGV`` (or ``python HEAD ARGV``) in a fresh interpreter."""
    return subprocess.run([sys.executable, *head, *argv], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)})


def test_a_launch_prints_what_main_prints(exp30, tmp_path, capsys):
    argv = ["estimate", "--data", exp30]
    for text in TEN_SPECS:
        argv += ["--estimator", text]
    code, out, _ = run_cli(argv, capsys)
    assert code == 0 and out
    done = launch(argv)
    assert done.returncode == 0, done.stderr
    assert done.stdout == out
    path = tmp_path / "out.txt"
    done = launch([*argv, "--out", str(path)])
    assert done.returncode == 0, done.stderr
    assert done.stdout == ""
    assert path.read_bytes() == out.encode()


def test_a_launch_exits_with_mains_code_and_error_line(exp30, tmp_path, capsys):
    huge = tmp_path / "huge.txt"
    huge.write_text("1e160\n2e160\n3e160\n5e160\n")
    cases = [
        (["estimate", "--data", exp30, "--estimator", "wcrte:q,alpha=2"], 2),
        (["estimate", "--data", exp30, "--estimator", "wcrte:v,alpha=2,m=40"], 3),
        (["estimate", "--data", str(huge), "--estimator", "wcrte:e,alpha=2"], 4),
    ]
    for argv, want in cases:
        code, out, err = run_cli(argv, capsys)
        assert code == want and out == "" and err.startswith("error: "), argv
        done = launch(argv)
        assert done.returncode == want, done.stderr
        assert done.stdout == ""
        assert done.stderr.splitlines()[-1] == err.rstrip("\n")


#: ``python -m wcrte ARGS``, reporting at exit how many objects are frozen.
FREEZE_PROBE = """
import atexit, gc, runpy, sys
atexit.register(lambda: sys.stderr.write(f"frozen {gc.get_freeze_count()}\\n"))
runpy.run_module("wcrte", run_name="__main__", alter_sys=True)
"""


def test_python_m_wcrte_exits_through_run(exp30):
    done = launch(["estimate", "--data", exp30, "--estimator", "wcre:e"], ("-c", FREEZE_PROBE))
    assert done.returncode == 0, done.stderr
    assert int(done.stderr.rsplit("frozen ", 1)[1]) > 0


def test_a_help_launch_exits_zero():
    done = launch(["--help"])
    assert done.returncode == 0, done.stderr
    assert done.stdout.startswith("usage: wcrte ")


def test_main_freezes_nothing_and_run_freezes_at_exit(exp30, capsys):
    argv = ["estimate", "--data", exp30, "--estimator", "wcre:e"]
    before = gc.get_freeze_count()
    assert run_cli(argv, capsys)[0] == 0
    assert gc.get_freeze_count() == before
    try:
        with pytest.raises(SystemExit) as exit_:
            cli.run(argv)
        assert exit_.value.code == 0
        assert gc.get_freeze_count() > before
    finally:
        gc.unfreeze()
    assert capsys.readouterr().out == run_cli(argv, capsys)[1]


def test_the_console_script_runs_the_process_entry():
    """Read as text: ``tomllib`` is not in every supported Python."""
    text = (Path(__file__).resolve().parents[1] / "pyproject.toml").read_text(encoding="utf-8")
    assert re.search(r'^\[project\.scripts\]\nwcrte = "wcrte\.cli:run"$', text, re.MULTILINE)
