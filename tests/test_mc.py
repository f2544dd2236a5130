"""Monte Carlo study harness: windows, grids, shared draws, determinism."""

import io

import pytest

from wcrte import (
    DEFAULT_SEED,
    DomainError,
    EstimatorKind,
    Exponential,
    McCell,
    McStudyConfig,
    ParetoOne,
    ParseError,
    Uniform,
    best_window,
    closed_wcre,
    closed_wcrte,
    heuristic_window,
    run_study,
    study_config_from_json,
)

EXP1 = Exponential(1.0)
UNIF1 = Uniform(1.0)


# --- window heuristic ----------------------------------------------------------


def test_heuristic_window_spot_values():
    assert heuristic_window(EstimatorKind.VASICEK, 20) == 9
    assert heuristic_window(EstimatorKind.EBRAHIMI, 20) == 9
    assert heuristic_window(EstimatorKind.VASICEK, 30) == 10
    assert heuristic_window(EstimatorKind.MODIFIED_N, 30) == 8
    assert heuristic_window(EstimatorKind.MODIFIED_N, 10) == 3
    assert heuristic_window(EstimatorKind.VASICEK, 4) == 1  # clamped


def test_heuristic_window_domain():
    with pytest.raises(DomainError):
        heuristic_window(EstimatorKind.VASICEK, 2)
    with pytest.raises(DomainError):
        heuristic_window(EstimatorKind.EMPIRICAL, 20)
    with pytest.raises(DomainError):
        heuristic_window(EstimatorKind.LSTAT, 20)


# --- configuration ---------------------------------------------------------------


def test_config_validation():
    base = dict(
        models=(EXP1,),
        sample_sizes=(10,),
        orders=(2.0,),
        kinds=(EstimatorKind.EMPIRICAL,),
    )
    McStudyConfig(**base)  # sanity: valid
    with pytest.raises(DomainError):
        McStudyConfig(**{**base, "models": ()})
    with pytest.raises(DomainError):
        McStudyConfig(**{**base, "sample_sizes": (1,)})
    with pytest.raises(DomainError):
        McStudyConfig(**{**base, "orders": ()})
    with pytest.raises(DomainError):
        McStudyConfig(**{**base, "replications": 0})
    with pytest.raises(DomainError):
        McStudyConfig(**{**base, "windows": "everything"})
    with pytest.raises(DomainError):
        # m=7 is not admissible at n=10
        McStudyConfig(**{**base, "kinds": (EstimatorKind.VASICEK,), "windows": (7,)})


def test_windows_for_modes():
    cfg = McStudyConfig(
        models=(EXP1,),
        sample_sizes=(10,),
        orders=(2.0,),
        kinds=(EstimatorKind.VASICEK,),
        windows="auto",
    )
    assert cfg.windows_for(EstimatorKind.VASICEK, 10) == (4,)
    assert cfg.windows_for(EstimatorKind.EMPIRICAL, 10) == (None,)
    sweep = McStudyConfig(
        models=(EXP1,),
        sample_sizes=(10,),
        orders=(2.0,),
        kinds=(EstimatorKind.VASICEK,),
        windows="sweep",
    )
    assert sweep.windows_for(EstimatorKind.VASICEK, 10) == (1, 2, 3, 4)
    fixed = McStudyConfig(
        models=(EXP1,),
        sample_sizes=(10,),
        orders=(2.0,),
        kinds=(EstimatorKind.VASICEK,),
        windows=(2, 4),
    )
    assert fixed.windows_for(EstimatorKind.VASICEK, 10) == (2, 4)


# --- running studies --------------------------------------------------------------


def test_small_study_smoke():
    cfg = McStudyConfig(
        models=(EXP1, UNIF1),
        sample_sizes=(10, 20),
        orders=(2.0, None),
        kinds=(EstimatorKind.EMPIRICAL, EstimatorKind.LSTAT),
        replications=200,
        seed=31,
    )
    result = run_study(cfg)
    assert result.skipped == ()
    assert result.seed == 31
    assert result.replications == 200
    # 2 models x 2 n x 2 orders x 2 kinds, no windows
    assert len(result.cells) == 16
    for cell in result.cells:
        model = EXP1 if cell.model == "exp:lambda=1" else UNIF1
        want = closed_wcre(model) if cell.order is None else closed_wcrte(model, cell.order)
        assert cell.truth == pytest.approx(want, rel=1e-9)
        assert cell.mse >= cell.bias**2 - 1e-12
        assert cell.mse_se > 0.0
        assert cell.replications == 200


def test_single_replication_collapses_mse_to_squared_bias():
    cfg = McStudyConfig(
        models=(EXP1,),
        sample_sizes=(12,),
        orders=(2.0,),
        kinds=(EstimatorKind.EMPIRICAL,),
        replications=1,
        seed=5,
    )
    (cell,) = run_study(cfg).cells
    assert cell.mse == pytest.approx(cell.bias**2, abs=1e-15)
    assert cell.mse_se == 0.0


def _cells_by_key(result):
    return {
        (c.model, c.n, c.order, c.kind, c.window): c
        for c in result.cells
    }


def test_draws_are_shared_across_estimator_axes():
    """Adding estimators or windows to a study must not move any existing cell."""
    small = McStudyConfig(
        models=(EXP1,),
        sample_sizes=(10, 20),
        orders=(2.0,),
        kinds=(EstimatorKind.EMPIRICAL,),
        replications=300,
    )
    big = McStudyConfig(
        models=(EXP1,),
        sample_sizes=(10, 20),
        orders=(2.0, None),
        kinds=(EstimatorKind.EMPIRICAL, EstimatorKind.LSTAT, EstimatorKind.VASICEK),
        windows="sweep",
        replications=300,
    )
    got_small = _cells_by_key(run_study(small))
    got_big = _cells_by_key(run_study(big))
    for key, cell in got_small.items():
        assert got_big[key] == cell


ALL_KINDS = tuple(EstimatorKind)


def test_sweep_with_every_kind_is_stable_under_added_cells_and_threads():
    """Each cell is its own contraction, so neither the other cells of a
    block nor the thread count can move it by a single bit."""
    small = McStudyConfig(
        models=(UNIF1,),
        sample_sizes=(10, 21),
        orders=(2.0,),
        kinds=(EstimatorKind.MODIFIED_N, EstimatorKind.LSTAT),
        windows="sweep",
        replications=301,
    )
    big = McStudyConfig(
        models=(UNIF1, EXP1),
        sample_sizes=(10, 21, 30),
        orders=(5.0, 2.0, None),
        kinds=ALL_KINDS,
        windows="sweep",
        replications=301,
    )
    got_small = _cells_by_key(run_study(small))
    serial = run_study(big, threads=1)
    got_big = _cells_by_key(serial)
    assert {key[3] for key in got_big} == set(ALL_KINDS)
    for key, cell in got_small.items():
        assert got_big[key] == cell
    for threads in (2, 5):
        assert run_study(big, threads=threads) == serial


def test_windowed_study_below_order_one_still_warns():
    cfg = McStudyConfig(
        models=(EXP1,),
        sample_sizes=(10,),
        orders=(0.5,),
        kinds=(EstimatorKind.VASICEK,),
        windows=(2,),
        replications=50,
    )
    with pytest.warns(UserWarning, match="below 1"):
        (cell,) = run_study(cfg).cells
    assert cell.order == 0.5 and cell.window == 2


def test_other_models_do_not_perturb_a_models_draws():
    kw = dict(
        sample_sizes=(15,),
        orders=(2.0,),
        kinds=(EstimatorKind.EMPIRICAL,),
        replications=250,
    )
    a = run_study(McStudyConfig(models=(UNIF1, EXP1), **kw))
    b = run_study(McStudyConfig(models=(ParetoOne(1.0, 3.0), EXP1), **kw))
    cell_a = [c for c in a.cells if c.model == "exp:lambda=1"]
    cell_b = [c for c in b.cells if c.model == "exp:lambda=1"]
    assert cell_a == cell_b


def test_thread_count_does_not_change_results():
    cfg = McStudyConfig(
        models=(EXP1, UNIF1),
        sample_sizes=(10, 20),
        orders=(2.0,),
        kinds=(EstimatorKind.VASICEK,),
        windows="sweep",
        replications=200,
    )
    serial = run_study(cfg, threads=1)
    threaded = run_study(cfg, threads=3)
    assert serial == threaded
    with pytest.raises(DomainError):
        run_study(cfg, threads=0)


def test_divergent_cells_are_skipped_not_fatal():
    cfg = McStudyConfig(
        models=(ParetoOne(1.0, 1.5), EXP1),
        sample_sizes=(10,),
        orders=(2.0,),
        kinds=(EstimatorKind.EMPIRICAL,),
        replications=100,
    )
    result = run_study(cfg)
    assert result.skipped
    assert any("pareto1" in msg for msg in result.skipped)
    models_seen = {c.model for c in result.cells}
    assert models_seen == {"exp:lambda=1"}

    # The L-statistic does not admit orders below 1: its cells are skipped too.
    base = dict(models=(EXP1, UNIF1), sample_sizes=(10, 12), orders=(0.5,), replications=100)
    with pytest.warns(UserWarning, match="below 1"):
        with_lstat = run_study(
            McStudyConfig(kinds=(EstimatorKind.LSTAT, EstimatorKind.VASICEK), **base)
        )
        without = run_study(McStudyConfig(kinds=(EstimatorKind.VASICEK,), **base))
    # One message for the whole grid; every other cell is untouched.
    assert len(with_lstat.skipped) == 1
    assert "L-statistic" in with_lstat.skipped[0]
    assert with_lstat.cells == without.cells
    # The L-statistic still runs at the admissible orders of the same grid.
    mixed = run_study(
        McStudyConfig(
            models=(EXP1,), sample_sizes=(10,), orders=(0.5, 2.0),
            kinds=(EstimatorKind.LSTAT,), replications=100,
        )
    )
    assert len(mixed.skipped) == 1
    assert [(c.order, c.kind) for c in mixed.cells] == [(2.0, EstimatorKind.LSTAT)]


# --- window selection ---------------------------------------------------------------


def _mk(model, n, kind, window, mse):
    return McCell(
        model=model,
        n=n,
        order=2.0,
        kind=kind,
        window=window,
        truth=1.0,
        bias=0.0,
        mse=mse,
        mse_se=0.001,
        replications=100,
    )


def test_best_window_picks_min_mse_and_breaks_ties_low():
    v = EstimatorKind.VASICEK
    cells = [
        _mk("exp:lambda=1", 10, v, 1, 0.5),
        _mk("exp:lambda=1", 10, v, 2, 0.2),
        _mk("exp:lambda=1", 10, v, 3, 0.2),  # tie with m=2
        _mk("exp:lambda=1", 20, v, 4, 0.9),
        _mk("exp:lambda=1", 10, EstimatorKind.EMPIRICAL, None, 0.01),
    ]
    got = best_window(cells)
    assert got == {
        ("exp:lambda=1", "vasicek", 10): 2,
        ("exp:lambda=1", "vasicek", 20): 4,
    }


def test_best_window_needs_windowed_cells():
    cells = [_mk("exp:lambda=1", 10, EstimatorKind.EMPIRICAL, None, 0.01)]
    with pytest.raises(DomainError):
        best_window(cells)


def test_best_windows_method_matches_sweep_argmin():
    cfg = McStudyConfig(
        models=(EXP1,),
        sample_sizes=(10,),
        orders=(2.0,),
        kinds=(EstimatorKind.VASICEK,),
        windows="sweep",
        replications=400,
    )
    result = run_study(cfg)
    by_window = {c.window: c.mse for c in result.cells}
    want = min(sorted(by_window), key=lambda m: (by_window[m], m))
    assert result.best_windows() == {("exp:lambda=1", "vasicek", 10): want}


# --- JSON study configs ----------------------------------------------------------------


def test_study_config_from_json_happy_path():
    doc = {
        "models": ["exp:lambda=1", "uniform:theta=1"],
        "n": [10, 20],
        "alpha": [1, 2],
        "estimators": ["empirical", "l"],
        "m": "sweep",
        "replications": 500,
        "seed": 7,
    }
    cfg = study_config_from_json(doc)
    assert cfg.models == (EXP1, UNIF1)
    assert cfg.sample_sizes == (10, 20)
    assert cfg.orders == (None, 2.0)  # alpha 1 means the WCRE limit
    assert cfg.kinds == (EstimatorKind.EMPIRICAL, EstimatorKind.LSTAT)
    assert cfg.windows == "sweep"
    assert cfg.replications == 500
    assert cfg.seed == 7


def test_study_config_defaults():
    cfg = study_config_from_json({"models": ["exp:lambda=1"]})
    assert cfg.sample_sizes == (10, 20, 30)
    assert cfg.orders == (2.0,)
    assert cfg.kinds == (EstimatorKind.EMPIRICAL,)
    assert cfg.windows == "auto"
    assert cfg.replications == 10_000
    assert cfg.seed == DEFAULT_SEED


def test_study_config_accepts_text_and_file_objects():
    text = '{"models": ["exp:lambda=1"], "m": [2, 3], "n": [10]}'
    cfg = study_config_from_json(text)
    assert cfg.windows == (2, 3)
    assert study_config_from_json(io.StringIO(text)) == cfg


def test_study_config_errors():
    with pytest.raises(ParseError, match="unknown study config keys"):
        study_config_from_json({"models": ["exp:lambda=1"], "reps": 10})
    with pytest.raises(ParseError, match="'models'"):
        study_config_from_json({"n": [10]})
    with pytest.raises(ParseError, match="invalid JSON"):
        study_config_from_json("{not json")
    with pytest.raises(ParseError, match="JSON object"):
        study_config_from_json("[1, 2]")
    # Bad values are ParseErrors that name their key, as the flags' are.
    for key, value in (
        ("n", ["x"]),
        ("n", []),
        ("alpha", "abc"),
        ("alpha", [0]),
        ("replications", "abc"),
        ("replications", 10.5),
        ("seed", "banana"),
        ("m", "everything"),
        ("estimators", ["zzz"]),
        ("models", ["gamma:k=1"]),
    ):
        with pytest.raises(ParseError, match=f"^{key}: "):
            study_config_from_json({"models": ["exp:lambda=1"], key: value})


def test_study_config_rejects_undecodable_bytes():
    doc = b'{"models": ["exp:lambda=1"], "n": "\xff"}'
    for source in (doc, io.BytesIO(doc)):
        with pytest.raises(ParseError, match="invalid JSON"):
            study_config_from_json(source)


def test_study_config_values_take_the_flag_path():
    def cfg(**doc):
        return study_config_from_json({"models": ["exp:lambda=1"], **doc})

    assert cfg(seed="0xff").seed == 255
    assert cfg(seed=255.0).seed == 255
    assert cfg(n=10).sample_sizes == (10,)
    assert cfg(n="10,20").sample_sizes == (10, 20)
    assert cfg(n=[10.0, 20]).sample_sizes == (10, 20)
    assert cfg(m="SWEEP").windows == "sweep"
    assert cfg(m="2,3", n=[10]).windows == (2, 3)
    assert cfg(alpha="1,2").orders == (None, 2.0)
    assert cfg(alpha=None).orders == (None,)
    assert cfg(estimators="lstat").kinds == (EstimatorKind.LSTAT,)
    assert cfg(models="pareto1:k=1,delta=3").models == (ParetoOne(1.0, 3.0),)
    assert cfg(replications="500").replications == 500


# --- agreement with published bias/MSE values -------------------------------------------


def test_pinned_cells_match_published_values():
    cfg = McStudyConfig(
        models=(EXP1, UNIF1),
        sample_sizes=(30,),
        orders=(2.0,),
        kinds=(EstimatorKind.EMPIRICAL, EstimatorKind.LSTAT),
        replications=10_000,
    )
    cells = _cells_by_key(run_study(cfg))
    emp = cells[("exp:lambda=1", 30, 2.0, EstimatorKind.EMPIRICAL, None)]
    assert abs(emp.bias - (-0.7749)) < 0.03
    assert abs(emp.mse - 0.7143) < 0.05
    lst = cells[("uniform:theta=1", 30, 2.0, EstimatorKind.LSTAT, None)]
    assert abs(lst.bias - 0.0028) < 0.002
    assert abs(lst.mse - 0.0001) < 5e-5
