"""The exact CSV and JSON bytes of every result table, from hand-built results.

Each command's Monte Carlo is replaced by fixed results, so these tests pin
the output format alone: column order, blank cells, ``null`` against ``""``
in JSON, ``reject`` as 1/0 in CSV and true/false in JSON, and CSV quoting.
"""

import json

import pytest

from wcrte import (
    CriticalPair,
    EstimatorKind,
    GofResult,
    McCell,
    McStudyResult,
    PowerCell,
    cli,
    gof,
    mc,
)

CELLS = (
    McCell(model="exp:lambda=1", n=10, order=None, kind=EstimatorKind.EMPIRICAL, window=None,
           truth=2.0, bias=-0.5, mse=0.5, mse_se=0.125, replications=100),
    McCell(model="exp:lambda=1", n=10, order=2.0, kind=EstimatorKind.VASICEK, window=3,
           truth=1.5, bias=0.1, mse=1e-05, mse_se=2.5e-06, replications=100),
)


def _pairs(sizes, orders, gamma, replications, seed, threads=None):
    return [
        CriticalPair(n=n, order=a, gamma=gamma, lower=0.1 if a is None else 0.05,
                     upper=0.15 if a is None else 0.1, replications=replications)
        for n in sizes
        for a in orders
    ]


def _results(x, tests, gamma, replications, seed):
    def result(test, order, m, statistic, lower, upper, reject):
        return GofResult(test=test, n=2, order=order, m=m, gamma=gamma, statistic=statistic,
                         lower=lower, upper=upper, reject=reject, replications=replications)

    return [
        result("wcre", None, None, 0.125, 0.1, 0.15, False),
        result("wcrte", 2.5, None, 0.2, 0.05, 0.1, True),
        result("ks", None, None, 0.75, None, 0.5, True),
        result("ent", None, 4, -0.25, -0.5, None, False),
    ]


def _power(alternatives, sizes, tests, gamma, replications, seed, threads=None):
    return [
        PowerCell(alternative="alt:A,j=2", n=n, test=test, order=order, m=m, power=power,
                  replications=replications)
        for n in sizes
        for test, order, m, power in (("wcre", None, None, 0.5), ("wcrte", 2.0, None, 0.125),
                                      ("ent", None, 4, 1.0))
    ]


def _run(argv, fmt, capsys):
    assert cli.main([*argv, "--format", fmt]) == 0
    return capsys.readouterr().out


MSE_ARGV = ["mse-study", "--model", "exp:lambda=1", "--reps", "100"]
MSE_HEAD = "model,n,alpha,estimator,m,bias,bias_se,mse,mse_se,R,seed\n"

TABLES = {
    "mse-study": (
        MSE_ARGV,
        MSE_HEAD
        + "exp:lambda=1,10,1,empirical,,-0.5,0.05,0.5,0.125,100,7\n"
        + "exp:lambda=1,10,2,vasicek,3,0.1,0.0,1e-05,2.5e-06,100,7\n",
        [
            {"model": "exp:lambda=1", "n": 10, "alpha": "1", "estimator": "empirical",
             "m": None, "bias": -0.5, "bias_se": 0.05, "mse": 0.5, "mse_se": 0.125, "R": 100,
             "seed": 7},
            {"model": "exp:lambda=1", "n": 10, "alpha": "2", "estimator": "vasicek",
             "m": 3, "bias": 0.1, "bias_se": 0.0, "mse": 1e-05, "mse_se": 2.5e-06, "R": 100,
             "seed": 7},
        ],
    ),
    "critical-values": (
        ["critical-values", "--n", "10,20", "--alpha", "1,2", "--reps", "1000", "--seed", "7"],
        "n,alpha,gamma,lower,upper,R,seed\n"
        "10,1,0.05,0.1,0.15,1000,7\n"
        "10,2,0.05,0.05,0.1,1000,7\n"
        "20,1,0.05,0.1,0.15,1000,7\n"
        "20,2,0.05,0.05,0.1,1000,7\n",
        [
            {"n": n, "alpha": alpha, "gamma": 0.05, "lower": lower, "upper": upper,
             "R": 1000, "seed": 7}
            for n in (10, 20)
            for alpha, lower, upper in (("1", 0.1, 0.15), ("2", 0.05, 0.1))
        ],
    ),
    "critical-values --data": (
        ["critical-values", "--data", None, "--test", "wcre", "--reps", "1000"],
        "test,n,alpha,m,gamma,lower,upper,statistic,reject\n"
        "wcre,2,1,,0.05,0.1,0.15,0.125,0\n"
        "wcrte,2,2.5,,0.05,0.05,0.1,0.2,1\n"
        "ks,2,,,0.05,,0.5,0.75,1\n"
        "ent,2,,4,0.05,-0.5,,-0.25,0\n",
        [
            {"test": "wcre", "n": 2, "alpha": "1", "m": "", "gamma": 0.05, "lower": 0.1,
             "upper": 0.15, "statistic": 0.125, "reject": False},
            {"test": "wcrte", "n": 2, "alpha": "2.5", "m": "", "gamma": 0.05, "lower": 0.05,
             "upper": 0.1, "statistic": 0.2, "reject": True},
            {"test": "ks", "n": 2, "alpha": "", "m": "", "gamma": 0.05, "lower": "",
             "upper": 0.5, "statistic": 0.75, "reject": True},
            {"test": "ent", "n": 2, "alpha": "", "m": 4, "gamma": 0.05, "lower": -0.5,
             "upper": "", "statistic": -0.25, "reject": False},
        ],
    ),
    "power": (
        ["power", "--alternative", "alt:A,j=2", "--test", "wcre", "--n", "10,20",
         "--reps", "1000", "--seed", "7"],
        "alternative,n,test,alpha,m,power,R,seed\n"
        + "".join(
            f'"alt:A,j=2",{n},wcre,1,,0.5,1000,7\n'
            f'"alt:A,j=2",{n},wcrte,2,,0.125,1000,7\n'
            f'"alt:A,j=2",{n},ent,,4,1.0,1000,7\n'
            for n in (10, 20)
        ),
        [
            {"alternative": "alt:A,j=2", "n": n, "test": test, "alpha": alpha, "m": m,
             "power": power, "R": 1000, "seed": 7}
            for n in (10, 20)
            for test, alpha, m, power in (("wcre", "1", "", 0.5), ("wcrte", "2", "", 0.125),
                                          ("ent", "", 4, 1.0))
        ],
    ),
}


@pytest.fixture
def fixed_results(monkeypatch, tmp_path):
    """Every command's Monte Carlo replaced by the hand-built results above."""
    study = McStudyResult(cells=CELLS, skipped=(), seed=7, replications=100)
    monkeypatch.setattr(mc, "run_study", lambda config, threads=None: study)
    monkeypatch.setattr(gof, "critical_values", _pairs)
    monkeypatch.setattr(gof, "uniformity_test", _results)
    monkeypatch.setattr(gof, "power_study", _power)
    path = tmp_path / "unit.txt"
    path.write_text("0.25\n0.5\n")
    return str(path)


@pytest.mark.parametrize("table", list(TABLES))
def test_every_table_prints_its_exact_bytes(fixed_results, capsys, table):
    argv, csv_text, json_rows = TABLES[table]
    argv = [fixed_results if arg is None else arg for arg in argv]
    assert _run(argv, "csv", capsys) == csv_text
    assert _run(argv, "json", capsys) == json.dumps(json_rows, indent=2) + "\n"


def test_all_skipped_study_prints_its_header_or_an_empty_list(monkeypatch, capsys):
    study = McStudyResult(cells=(), skipped=("exp:lambda=1 lstat",), seed=7, replications=100)
    monkeypatch.setattr(mc, "run_study", lambda config, threads=None: study)
    assert _run(MSE_ARGV, "csv", capsys) == MSE_HEAD
    assert _run(MSE_ARGV, "json", capsys) == "[]\n"
