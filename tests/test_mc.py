"""Monte Carlo study harness: windows, grids, shared draws, determinism."""

import hashlib
import io
import math
import os
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

import naive
import wcrte
from wcrte import (
    DEFAULT_SEED,
    DomainError,
    EstimatorKind,
    EstimatorSpec,
    Exponential,
    McCell,
    McStudyConfig,
    NumericError,
    ParetoOne,
    ParseError,
    Uniform,
    best_window,
    closed_wcre,
    closed_wcrte,
    derive_stream,
    estimate,
    heuristic_window,
    power_study,
    run_study,
    study_config_from_json,
    verify_table,
)
from wcrte import estimators as est

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


def test_an_empty_window_tuple_is_an_empty_axis():
    """An explicit empty window tuple raises the rule of every empty axis, for
    a windowed kind or not, instead of running a study of no cells."""
    empty = "^study grid must have at least one entry on every axis$"
    for kind in (EstimatorKind.VASICEK, EstimatorKind.EMPIRICAL):
        for windows in ((), []):
            with pytest.raises(DomainError, match=empty):
                McStudyConfig(models=(EXP1,), sample_sizes=(10,), orders=(2.0,), kinds=(kind,),
                              windows=windows)
    with pytest.raises(DomainError, match="^windows must be 'auto', 'sweep' or a tuple, got ''$"):
        McStudyConfig(models=(EXP1,), sample_sizes=(10,), orders=(2.0,),
                      kinds=(EstimatorKind.VASICEK,), windows="")


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


def test_a_sweep_below_n_three_raises_as_auto_does():
    """A spacing kind at n = 2 raises the rule of the heuristic window under
    "sweep" too, rather than dropping the kind's cells without a word."""
    for windows in ("auto", "sweep"):
        cfg = McStudyConfig(models=(EXP1,), sample_sizes=(2, 10), orders=(2.0,),
                            kinds=(EstimatorKind.VASICEK, EstimatorKind.EMPIRICAL),
                            windows=windows, replications=10)
        with pytest.raises(DomainError, match="^need n >= 3, got 2$"):
            run_study(cfg)


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


# --- chunked contraction: bit-identity guards -------------------------------------
# A study contracts each block's coefficient vectors in chunks of W lanes; no
# lane, neighbour, tile or thread count may move a cell by a single bit.

W = est._CHUNK_WIDTH


def _lane_specs(kind):
    """W + 1 distinct specs of one row kind, all admissible at every n >= 3."""
    if kind is EstimatorKind.LSTAT:
        return [*(EstimatorSpec(kind, 1.5 + 0.5 * i) for i in range(W)),
                EstimatorSpec(kind, plotting="n+1")]
    return [EstimatorSpec(kind, order, 1) for order in (None, *range(2, W + 2))]


def _chunk_of(squares, specs, n):
    """``squares.chunk`` on the coefficient rows of ``specs`` at size n, finished."""
    rows = est._coefficient_rows((spec, n) for spec in specs)
    return squares.finish(squares.chunk([rows[(spec, n)] for spec in specs]))


@pytest.mark.parametrize("n, r", [(3, 5), (21, 301), (64, 1000)])
@pytest.mark.parametrize("kind", [EstimatorKind.VASICEK, EstimatorKind.LSTAT])
def test_a_spec_alone_in_its_chunk_equals_it_in_every_lane(kind, n, r):
    rows = np.sort(Exponential(1.0).quantile(derive_stream(3, n).random((r, n))), axis=1)
    target, *others = _lane_specs(kind)

    def read(specs, spec):
        return _chunk_of(est._SortedSquares(rows.copy()), specs, n)[specs.index(spec)]

    alone = read([target], target)
    # Standalone calls keep the per-spec contraction: equal up to rounding.
    np.testing.assert_allclose(alone, estimate(target, rows), rtol=1e-13)
    for lane in range(W):
        specs = others[: W - 1]
        specs.insert(lane, target)
        assert np.array_equal(read(specs, target), alone), lane


def _grid(n, r, orders=(2.0, 3.0, 5.0, None)):
    windows = "sweep" if n <= 130 else (*range(1, 40), est.max_window(n))
    return McStudyConfig(
        models=(EXP1,), sample_sizes=(n,), orders=orders, kinds=ALL_KINDS,
        windows=windows, replications=r, seed=17,
    )


@pytest.mark.parametrize(
    "n, r", [(3, 5), (7, 1), (11, 2), (21, 301), (64, 1000), (130, 257), (3001, 1)]
)
def test_a_one_cell_study_equals_that_cell_in_a_full_grid(n, r):
    cells = run_study(_grid(n, r)).cells
    assert len(cells) > W
    for cell in (*cells[::5], cells[-1]):
        alone = McStudyConfig(
            models=(EXP1,), sample_sizes=(n,), orders=(cell.order,), kinds=(cell.kind,),
            windows=(cell.window,) if cell.window else "auto", replications=r, seed=17,
        )
        assert run_study(alone).cells == (cell,)


def test_study_cells_match_the_naive_oracle():
    n, r, seed = 12, 30, 23
    cfg = McStudyConfig(models=(EXP1,), sample_sizes=(n,), orders=(2.0, None),
                        kinds=ALL_KINDS, windows="sweep", replications=r, seed=seed)
    cells = run_study(cfg).cells
    assert len(cells) > 2 * W
    rows = EXP1.quantile(wcrte.mc.mc_stream(seed, 0, n).random((r, n)))
    for cell in cells:
        spec = EstimatorSpec(cell.kind, cell.order, cell.window)
        fn = getattr(naive, f"{spec.measure}_{cell.kind.value}")
        args = [v for v in (cell.order, cell.window) if v is not None]
        err = [fn(list(row), *args) - cell.truth for row in rows]
        assert cell.bias == pytest.approx(sum(err) / r, rel=1e-12, abs=1e-12)
        assert cell.mse == pytest.approx(sum(e * e for e in err) / r, rel=1e-12, abs=1e-12)


def _oracle_cells(config):
    """Every cell of a one-model study, the earlier way: one lane's chunk read
    per cell, reduced by the earlier per-cell reduction (``naive.study_cell``)."""
    (model,), r = config.models, config.replications
    want = []
    for n in config.sample_sizes:
        rows = np.sort(model.quantile(wcrte.mc.mc_stream(config.seed, 0, n).random((r, n))), axis=1)
        # The squares become the spacings once these are read: one batch per row kind.
        batches = {lstat: est._SortedSquares(rows.copy()) for lstat in (True, False)}
        for order in config.orders:
            truth = closed_wcre(model) if order is None else closed_wcrte(model, order)
            for kind in config.kinds:
                if kind is EstimatorKind.LSTAT and order is not None and order < 1.0:
                    continue
                for window in config.windows_for(kind, n):
                    spec = EstimatorSpec(kind, order, window)
                    lane = _chunk_of(batches[kind is EstimatorKind.LSTAT], [spec], n)[0]
                    # The standalone contraction agrees up to rounding.
                    with warnings.catch_warnings():
                        warnings.simplefilter("ignore")  # orders below 1
                        alone = estimate(spec, rows)
                    np.testing.assert_allclose(lane, alone, rtol=1e-12, atol=1e-300)
                    want.append((n, order, kind, window, *naive.study_cell(lane, truth, r)))
    return want


@pytest.mark.parametrize("r", [1, 7, 301, 10_000])
def test_chunk_moments_equal_the_per_cell_reduction_bit_for_bit(r):
    config = McStudyConfig(
        models=(EXP1,), sample_sizes=(3, 10, 21, 50), orders=(2.0, None, 0.5, 2.0),
        kinds=ALL_KINDS, windows="sweep", replications=r, seed=0x5EED,
    )
    with pytest.warns(UserWarning, match="below 1"):
        cells = run_study(config).cells
    got = [(c.n, c.order, c.kind, c.window, c.bias, c.mse, c.mse_se) for c in cells]
    want = _oracle_cells(config)
    assert len(got) == len(want) > 4 * W
    for g, w in zip(got, want):
        assert g[:4] == w[:4]
        assert [v.hex() for v in g[4:]] == [v.hex() for v in w[4:]], g[:4]


def test_sweep_cells_keep_their_recorded_bits():
    """The bias, mse and mse_se of every cell of the four window-sweep
    models at n = 10 and 50, orders 2 and WCRE, every kind and window,
    R = 2000, seed 0x5EED: the SHA-256 of one line of hex values per cell,
    recorded before each block was held in one buffer."""
    models = ("exp:lambda=1", "uniform:theta=1", "weibull:lambda=1,p=2", "rayleigh:sigma=1")
    config = McStudyConfig(
        models=tuple(map(wcrte.parse_model, models)), sample_sizes=(10, 50), orders=(2.0, None),
        kinds=ALL_KINDS, windows="sweep", replications=2000, seed=0x5EED,
    )
    lines = [f"{c.model},{c.n},{c.order},{c.kind.value},{c.window},"
             f"{c.bias.hex()},{c.mse.hex()},{c.mse_se.hex()}\n" for c in run_study(config).cells]
    assert len(lines) == 704
    digest = hashlib.sha256("".join(lines).encode()).hexdigest()
    assert digest == "b664493ffc8867eaf37472f660f2771bb895f116221c58cbbcf6cc8030575707"


@pytest.mark.parametrize("r", [1, 2, 301, 4000])
def test_bias_se_is_the_population_sd_of_the_errors_over_sqrt_r(r):
    config = McStudyConfig(
        models=(EXP1,), sample_sizes=(10,), orders=(2.0, None), kinds=ALL_KINDS,
        windows=(1, 4), replications=r, seed=3,
    )
    rows = np.sort(EXP1.quantile(wcrte.mc.mc_stream(3, 0, 10).random((r, 10))), axis=1)
    for cell in run_study(config).cells:
        err = estimate(EstimatorSpec(cell.kind, cell.order, cell.window), rows) - cell.truth
        if r == 1:
            assert cell.bias_se == 0.0
        else:
            assert cell.bias_se == pytest.approx(np.std(err) / np.sqrt(r), rel=1e-9)


def test_a_study_scaled_by_a_power_of_two_scales_every_cell_exactly():
    """Squared deviations of 2**520 overflow; their mse_se is still exact."""
    def cells(theta):
        config = McStudyConfig(
            models=(Uniform(theta),), sample_sizes=(10, 21), orders=(2.0, None, 5.0),
            kinds=ALL_KINDS, windows="sweep", replications=200, seed=11,
        )
        return run_study(config).cells

    base, scaled = cells(1.0), cells(2.0**130)
    assert len(base) == len(scaled) > W
    for a, b in zip(base, scaled):
        assert math.isfinite(b.mse_se)
        for name, shift in (("bias", 260), ("bias_se", 260), ("mse", 520), ("mse_se", 520)):
            assert getattr(b, name).hex() == math.ldexp(getattr(a, name), shift).hex(), name
    with pytest.raises(NumericError, match="uniform:theta=.* at n=10 leaves the float range"):
        cells(2.0**260)


def test_a_study_estimate_out_of_float_range_names_its_block():
    """Heavy-tailed draws whose squares leave the float range, under a finite
    truth: the chunk's one finiteness check names the model and n."""
    config = McStudyConfig(
        models=(ParetoOne(2.0**510, 3.0),), sample_sizes=(10,), orders=(2.0, None),
        kinds=ALL_KINDS, windows="sweep", replications=2000, seed=1,
    )
    assert math.isfinite(closed_wcrte(config.models[0], 2.0))
    with pytest.raises(NumericError, match=r"^the bias or mse of a cell of pareto1:k=.*,delta=3 "
                                           r"at n=10 leaves the float range$"):
        run_study(config)


@pytest.mark.parametrize(
    "run",
    [
        pytest.param(lambda: run_study(McStudyConfig(
            models=(EXP1,), sample_sizes=(10,), orders=(2.0,), kinds=(EstimatorKind.EMPIRICAL,),
            replications=100), threads=0), id="run_study"),
        pytest.param(lambda: power_study(["alt:A,j=2"], 200, ["wcre", "ks", "ent"],
                                         replications=20_000, threads=0), id="power_study"),
        pytest.param(lambda: verify_table(8, threads=0), id="verify_table"),
    ],
)
def test_thread_count_is_checked_before_any_stream_is_derived(run, monkeypatch):
    derived = []
    monkeypatch.setattr(wcrte.mc, "derive_stream", lambda *a: derived.append(a))
    with pytest.raises(DomainError, match="threads must be positive, got 0"):
        run()
    assert derived == []


@pytest.mark.parametrize(
    "run, message",
    [
        pytest.param(lambda: run_study(McStudyConfig(
            models=(EXP1,), sample_sizes=(2,), orders=(2.0,), kinds=(EstimatorKind.VASICEK,),
            windows="sweep", replications=100), threads=0), "^need n >= 3, got 2$",
            id="run_study"),
        pytest.param(lambda: power_study(["alt:A,j=2"], 1, ["ks"], replications=100, threads=0),
                     "^need n >= 2, got 1$", id="power_study"),
        pytest.param(lambda: verify_table(99, threads=0), "^unknown table id 99 ",
                     id="verify_table"),
    ],
)
def test_specs_and_sizes_are_checked_before_the_thread_count(run, message, monkeypatch):
    """Every entry point checks its specs and sizes, then the thread count
    (where the pool starts), all before any stream is derived."""
    derived = []
    monkeypatch.setattr(wcrte.mc, "derive_stream", lambda *a: derived.append(a))
    with pytest.raises(DomainError, match=message):
        run()
    assert derived == []


@pytest.mark.parametrize("threads", [2.5, "x"])
@pytest.mark.parametrize(
    "run",
    [
        pytest.param(lambda threads: run_study(McStudyConfig(
            models=(EXP1,), sample_sizes=(10,), orders=(2.0,), kinds=(EstimatorKind.EMPIRICAL,),
            replications=100), threads=threads), id="run_study"),
        pytest.param(lambda threads: power_study(["alt:A,j=2"], 20, ["wcre"], replications=100,
                                                 threads=threads), id="power_study"),
        pytest.param(lambda threads: verify_table(7, threads=threads), id="verify_table"),
    ],
)
def test_a_thread_count_goes_through_the_size_rule(run, threads, monkeypatch):
    """A count of threads is integral, as sizes are: 2.5 is not run on two."""
    derived = []
    monkeypatch.setattr(wcrte.mc, "derive_stream", lambda *a: derived.append(a))
    with pytest.raises(DomainError, match=f"^threads must be an integer, got {threads!r}$"):
        run(threads)
    assert derived == []


@pytest.mark.parametrize("threads", [1, 2, 3])
def test_pool_map_returns_results_in_item_order(threads):
    items = list(range(23))
    out = wcrte.mc._pool_map(lambda i: i * i, iter(items), threads, lambda item: item % 4)
    assert out == [i * i for i in items]


@pytest.mark.parametrize("threads", [2, 3])
def test_pool_map_starts_the_largest_cost_first(threads, monkeypatch):
    """Tasks go to the pool largest cost first, equal costs in item order; the
    pool starts them in that order. The calling thread keeps item order."""
    import concurrent.futures

    submitted = []
    executor = concurrent.futures.ThreadPoolExecutor

    class Recording(executor):
        def submit(self, fn, item):
            submitted.append(item)
            return super().submit(fn, item)

    monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", Recording)
    items = ["b1", "a2", "c3", "d1", "e3", "f2", "g1"]
    started = []
    out = wcrte.mc._pool_map(lambda s: started.append(s) or s.upper(), items, threads,
                             cost=lambda s: int(s[1]))
    assert out == [s.upper() for s in items]
    assert submitted == ["c3", "e3", "a2", "f2", "b1", "d1", "g1"]
    assert sorted(started) == sorted(items)
    started.clear()
    wcrte.mc._pool_map(started.append, items, 1, cost=lambda s: int(s[1]))
    assert started == items


def test_a_grid_listing_an_order_twice_gives_equal_duplicate_cells():
    once = run_study(_grid(21, 301, orders=(2.0, None))).cells
    twice = run_study(_grid(21, 301, orders=(2.0, None, 2.0))).cells
    by_key = {}
    for cell in twice:
        by_key.setdefault((cell.order, cell.kind, cell.window), []).append(cell)
    assert sorted(len(v) for v in by_key.values()) == [1] * (len(once) // 2) + [2] * (len(once) // 2)
    for cell in once:
        assert set(by_key[(cell.order, cell.kind, cell.window)]) == {cell}


_THREADS_SCRIPT = """
from wcrte import EstimatorKind, Exponential, McStudyConfig, Uniform, run_study
config = McStudyConfig(
    models=(Exponential(1.0), Uniform(1.0)), sample_sizes=(21, 50), orders=(2.0, None),
    kinds=tuple(EstimatorKind), windows="sweep", replications=2000, seed=7,
)
for threads in (1, 2):
    print([(c.bias.hex(), c.mse.hex(), c.mse_se.hex()) for c in run_study(config, threads).cells])
"""


def test_cells_do_not_depend_on_blas_or_study_threads():
    src = str(Path(wcrte.__file__).resolve().parents[1])
    outputs = []
    for blas in ("1", "2"):
        env = {**os.environ, "OPENBLAS_NUM_THREADS": blas, "OMP_NUM_THREADS": blas,
               "MKL_NUM_THREADS": blas}
        env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
        proc = subprocess.run([sys.executable, "-c", _THREADS_SCRIPT], env=env,
                              capture_output=True, text=True, timeout=300, check=True)
        outputs += proc.stdout.splitlines()
    assert len(outputs) == 4 and len(set(outputs)) == 1


def test_a_block_holds_its_prepared_batch_and_one_chunk():
    """Chunks are computed on first read and dropped after their last one,
    and the block is mapped to the model, sorted, squared and turned into
    spacings in the drawn array itself: one R x n buffer."""
    n, r = 50, 8000
    spacing_kinds = (EstimatorKind.EMPIRICAL, EstimatorKind.VASICEK,
                     EstimatorKind.EBRAHIMI, EstimatorKind.MODIFIED_N)
    cfg = McStudyConfig(models=(UNIF1,), sample_sizes=(n,), orders=(2.0, None),
                        kinds=spacing_kinds, windows="sweep", replications=r)
    assert len(run_study(cfg).cells) > 8 * W
    tracemalloc.start()
    try:
        run_study(cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    prepared = 8 * r * n  # the draws, then their squares, then their spacings
    chunk = 8 * W * r
    # Half a chunk more covers the coefficient memo, one tile and a cell's vectors.
    assert peak <= prepared + chunk + chunk // 2


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


def test_study_config_rejects_an_empty_estimator_list_and_huge_integers():
    with pytest.raises(ParseError, match="^estimators: empty list"):
        study_config_from_json({"models": ["exp:lambda=1"], "estimators": []})
    huge = '{"models": ["exp:lambda=1"], "n": 1' + "0" * 5000 + "}"
    for source in (huge, huge.encode(), io.StringIO(huge)):
        with pytest.raises(ParseError, match="^invalid JSON study config: "):
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
