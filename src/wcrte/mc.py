"""Monte Carlo bias/MSE comparison harness.

A study is a grid over (model, sample size, order, estimator kind, window).
Each (model, sample size) pair draws one (R, n) batch of samples from its own
stream, keyed by (master seed, model position, n) on a counter-based
generator; every order, kind and window in the grid is then evaluated on
those common draws. Sharing draws is what makes the bias/MSE columns and the
window sweeps directly comparable: two estimators differ because of how they
treat the same samples, not because of draw noise.

The plan rule: one lane plan per sample size and cell layout (the orders
whose truth a model has), built before any worker starts. It holds the
size's chunks of lanes, each with its coefficient rows, and each cell's
lane; every (model, n) block of that size and layout reads it and builds
nothing of its own.

Worker threads parallelize across (model, n) blocks, the largest (n times
lanes) started first, and the reduction happens in grid order, which keeps
output bit-identical for any thread count.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from . import estimators as est
from .distributions import (
    _GRID_KEYS,
    DEFAULT_SEED,
    Model,
    _convert,
    _items,
    _json_object,
    closed_wcrte,
    order_label,
    parse_model,
)
from .errors import DivergenceError, DomainError, NumericError, ParseError
from .estimators import EstimatorKind, heuristic_window
from .sample import _check_size, _check_sorted

__all__ = [
    "DEFAULT_SEED",
    "derive_stream",
    "McStudyConfig",
    "McCell",
    "McStudyResult",
    "run_study",
    "heuristic_window",
    "study_config_from_json",
]

# Stream purpose tags (first spawn-key word) keeping the harness's draws,
# the null-distribution draws, and the alternative draws mutually independent.
_PURPOSE_MC = 1
_PURPOSE_GOF_NULL = 2
_PURPOSE_GOF_ALT = 3


def derive_stream(seed: int, *key: int) -> np.random.Generator:
    """Independent generator for (seed, key), stable across processes.

    Built on a counter-based bit generator, so streams for different keys
    never overlap and creation order is irrelevant.
    """
    seed = _check_size(seed, 0, "seed")
    ss = np.random.SeedSequence(entropy=seed, spawn_key=tuple(int(k) for k in key))
    return np.random.Generator(np.random.Philox(seed=ss))


def mc_stream(seed: int, model_index: int, n: int) -> np.random.Generator:
    return derive_stream(seed, _PURPOSE_MC, model_index, n)


def gof_null_stream(seed: int, n: int) -> np.random.Generator:
    return derive_stream(seed, _PURPOSE_GOF_NULL, n)


def gof_alternative_stream(seed: int, n: int, alternative_index: int) -> np.random.Generator:
    return derive_stream(seed, _PURPOSE_GOF_ALT, n, alternative_index)


@dataclass(frozen=True)
class McStudyConfig:
    """Grid definition for one study.

    ``orders`` may contain None for the WCRE limit. ``windows`` is either the
    string "auto" (one heuristic window per kind and n), the string "sweep"
    (every admissible window), or an explicit nonempty tuple applied to all
    windowed kinds; explicit windows must be admissible for every n in the
    grid.
    """

    models: tuple[Model, ...]
    sample_sizes: tuple[int, ...]
    orders: tuple[float | None, ...]
    kinds: tuple[EstimatorKind, ...]
    windows: str | tuple[int, ...] = "auto"
    replications: int = 10_000
    seed: int = DEFAULT_SEED

    def __post_init__(self):
        object.__setattr__(self, "models", tuple(self.models))
        object.__setattr__(self, "sample_sizes", tuple(map(_check_size, self.sample_sizes)))
        object.__setattr__(self, "orders", tuple(self.orders))
        object.__setattr__(self, "kinds", tuple(EstimatorKind(k) for k in self.kinds))
        if not isinstance(self.windows, str):
            object.__setattr__(self, "windows", tuple(self.windows))
        if not (self.models and self.sample_sizes and self.orders and self.kinds) or self.windows == ():
            raise DomainError("study grid must have at least one entry on every axis")
        object.__setattr__(self, "replications", _check_size(self.replications, 1, "replications"))
        if isinstance(self.windows, str):
            if self.windows not in ("auto", "sweep"):
                raise DomainError(f"windows must be 'auto', 'sweep' or a tuple, got {self.windows!r}")
        else:
            # The smallest n admits the fewest windows.
            n = min(self.sample_sizes)
            ws = tuple(est._check_window(m, n) for m in self.windows)
            object.__setattr__(self, "windows", ws)
        object.__setattr__(self, "seed", _check_size(self.seed, 0, "seed"))

    def windows_for(self, kind: EstimatorKind, n: int) -> tuple[int | None, ...]:
        if not kind.needs_window:
            return (None,)
        if self.windows == "auto":
            return (heuristic_window(kind, n),)
        if self.windows == "sweep":
            return tuple(range(1, est.max_window(_check_size(n, 3)) + 1))
        return self.windows


@dataclass(frozen=True, slots=True)
class McCell:
    """One grid cell's result."""

    model: str
    n: int
    order: float | None
    kind: EstimatorKind
    window: int | None
    truth: float
    bias: float
    mse: float
    mse_se: float
    replications: int

    @property
    def bias_se(self) -> float:
        """Standard error of ``bias``: the population standard deviation of
        the R errors, sqrt(mse - bias**2), divided by sqrt(R)."""
        return math.sqrt(max(self.mse - self.bias * self.bias, 0.0)) / math.sqrt(self.replications)


def _columns(*columns) -> dict:
    """A printed table's columns, each name mapped to ``read(result, seed)``.

    ``seed`` is the run's master seed, which no result holds. A bare name
    reads the result's attribute of that name; a ``(name, read)`` pair brings
    its own reader.
    """
    return dict((c, lambda r, _, a=c: getattr(r, a)) if isinstance(c, str) else c for c in columns)


#: The closing columns of a Monte Carlo table: replications and master seed.
_RUN_COLUMNS = (("R", lambda result, _: result.replications), ("seed", lambda _, seed: seed))

#: The ``mse-study`` table: one row per :class:`McCell`.
STUDY_COLUMNS = _columns(
    "model", "n", ("alpha", lambda cell, _: order_label(cell.order)),
    ("estimator", lambda cell, _: cell.kind.value), ("m", lambda cell, _: cell.window),
    "bias", "bias_se", "mse", "mse_se", *_RUN_COLUMNS,
)


@dataclass(frozen=True)
class McStudyResult:
    cells: tuple[McCell, ...]
    skipped: tuple[str, ...]
    seed: int
    replications: int


@dataclass(frozen=True)
class _LanePlan:
    """The lanes of every block of one sample size and cell layout.

    ``chunks`` holds each chunk's coefficient rows (see
    :func:`estimators._chunks`), stacked: chunk lanes are numbered on from
    one chunk to the next. ``orders`` gives each lane's order position in
    the grid, which picks its truth, and ``cells`` each grid cell's
    ``(spec, order position, lane)``, in grid order.
    """

    chunks: tuple[np.ndarray, ...]
    orders: np.ndarray
    cells: tuple[tuple[est.EstimatorSpec, int, int], ...]


@dataclass(frozen=True)
class _BlockPlan:
    model_index: int
    model: Model
    n: int
    truths: tuple[float | None, ...]  # by order position; None where the measure diverges
    lanes: _LanePlan


def _plan_blocks(config: McStudyConfig) -> tuple[list[_BlockPlan], list[str]]:
    """Group the grid into (model, n) blocks that share one draw batch.

    Block streams are keyed by (model position, n) alone, so adding orders,
    kinds or windows to a study never changes any draw, and cells whose
    target measure diverges, or whose estimator does not admit the order
    (the L-statistic below order 1), are skipped without affecting the rest.
    Each estimator spec is built, and warns, once per (order, kind, n).
    """
    blocks: list[_BlockPlan] = []
    skipped: list[str] = []
    truth_cache: dict[tuple[int, float | None], float | None] = {}
    spec_cache: dict[tuple, tuple[est.EstimatorSpec, ...]] = {}
    plans: dict[tuple, _LanePlan] = {}
    for (mi, model), n in itertools.product(enumerate(config.models), config.sample_sizes):
        for order, kind in itertools.product(config.orders, config.kinds):
            key = (mi, order)
            if key not in truth_cache:
                try:
                    truth_cache[key] = closed_wcrte(model, order)
                except DivergenceError as exc:
                    truth_cache[key] = None
                    skipped.append(str(exc))
            if truth_cache[key] is not None and (order, kind, n) not in spec_cache:
                spec_cache[(order, kind, n)] = _specs(kind, order, config.windows_for(kind, n), skipped)
        truths = tuple(truth_cache[(mi, order)] for order in config.orders)
        layout = (n, tuple(truth is not None for truth in truths))  # the orders kept
        if layout not in plans:
            cells = [(spec, j) for j, order in enumerate(config.orders) if truths[j] is not None
                     for kind in config.kinds for spec in spec_cache[(order, kind, n)]]
            plans[layout] = _lane_plan(n, cells)
        blocks.append(_BlockPlan(mi, model, n, truths, plans[layout]))
    return blocks, skipped


def _lane_plan(n: int, cells: list[tuple[est.EstimatorSpec, int]]) -> _LanePlan:
    """The lane plan of a block's ``(spec, order position)`` cells, in grid order.

    Every coefficient row comes from one :func:`estimators._coefficient_rows`
    call. Equal specs share a lane and have equal orders, so any of their
    order positions gives the lane its truth.
    """
    chunks = est._chunks(spec for spec, _ in cells)
    rows = est._coefficient_rows((spec, n) for chunk in chunks for spec in chunk)
    lane_of = {spec: lane for lane, spec in enumerate(itertools.chain.from_iterable(chunks))}
    lanes = [lane_of[spec] for spec, _ in cells]
    orders = np.empty(len(lane_of), dtype=np.intp)
    orders[lanes] = [j for _, j in cells]
    return _LanePlan(
        chunks=tuple(np.array([rows[(spec, n)] for spec in chunk]) for chunk in chunks),
        orders=orders,
        cells=tuple((spec, j, lane) for (spec, j), lane in zip(cells, lanes)),
    )


def _specs(kind, order, windows, skipped: list[str]) -> tuple[est.EstimatorSpec, ...]:
    """One spec per window, or none if the kind does not admit the order."""
    try:
        spec = est.EstimatorSpec(kind, order)
    except DomainError as exc:
        if str(exc) not in skipped:
            skipped.append(str(exc))
        return ()
    est._warn_order(spec)
    return tuple(est.EstimatorSpec(kind, order, window) for window in windows)


#: A lane's squared deviations, and their sum, stay below (R * mse)**2, so
#: they can overflow only where R * mse reaches this bound.
_SCALED_FROM = 2.0**500


def _chunk_moments(out: np.ndarray, truths: np.ndarray, replications: int, where: str,
                   moments: np.ndarray) -> None:
    """(bias, mse, mse_se) of each row of an unscaled chunk of estimates, into ``moments``.

    ``moments`` is a (3, rows) view: bias, mse and mse_se by row. The error,
    its square and the square's deviation are formed in ``out`` itself, and
    each moment is one row reduction along axis 1: for every row, the bits
    of ``ndarray.mean`` and ``ndarray.std`` of that row alone, so neither
    the chunk a cell lands in nor its neighbours there move it. A lane whose
    squared deviations overflow gets its mse_se from the deviations scaled
    by an exact power of two; a bias or mse that is not finite (an estimate
    out of the float range makes it so) raises NumericError, naming
    ``where``: the one finiteness check of a chunk. The caller ignores
    overflow and invalid operations, as :func:`_run_block` does.
    """
    r = replications
    bias, mse, se = moments
    err = np.subtract(out, truths[:, None], out=out)
    np.add.reduce(err, axis=1, out=bias)
    sq = np.multiply(err, err, out=err)
    np.add.reduce(sq, axis=1, out=mse)
    moments[:2] /= r
    if not np.isfinite(moments[:2]).all():
        raise NumericError(f"the bias or mse of a cell of {where} leaves the float range")
    dev = np.subtract(sq, mse[:, None], out=sq)
    big = np.flatnonzero(mse >= _SCALED_FROM / r)
    kept = dev[big]  # a copy
    np.divide(np.add.reduce(np.multiply(dev, dev, out=dev), axis=1, out=se), r, out=se)
    np.divide(np.sqrt(se, out=se), math.sqrt(r), out=se)
    for lane, row in zip(big.tolist(), kept):
        if not math.isfinite(se[lane]):
            k = math.frexp(float(np.abs(row).max()))[1]
            row = np.ldexp(row, -k, out=row)
            v = float(np.add.reduce(np.multiply(row, row, out=row)) / r)
            se[lane] = math.ldexp(math.sqrt(v) / math.sqrt(r), k)


def _run_block(block: _BlockPlan, replications: int, seed: int) -> list[McCell]:
    plan = block.lanes
    if not plan.cells:
        return []
    stream = mc_stream(seed, block.model_index, block.n)
    # The block lives in one R x n buffer from the draw to the moments: the
    # draws (already in [0, 1)) are mapped through the model's quantile
    # formula, sorted, validated and squared in place, and its chunks follow
    # the one-buffer rule of ``_SortedSquares``.
    xs = block.model._transform(stream.random((replications, block.n)))
    xs.sort(axis=1)
    squares = est._SortedSquares(_check_sorted(xs))
    truths = np.array(block.truths, dtype=float)[plan.orders]
    model = block.model.spec_string()
    where = f"{model} at n={block.n}"
    moments = np.empty((3, truths.size))
    lo = 0
    with np.errstate(over="ignore", invalid="ignore"):
        for coefs in plan.chunks:
            hi = lo + len(coefs)
            out = squares.unscale(squares.chunk(coefs))
            _chunk_moments(out, truths[lo:hi], replications, where, moments[:, lo:hi])
            del out  # released before the next chunk's product is allocated
            lo = hi
    bias, mse, mse_se = moments.tolist()
    return [McCell(model, block.n, spec.order, spec.kind, spec.window, block.truths[j],
                   bias[lane], mse[lane], mse_se[lane], replications)
            for spec, j, lane in plan.cells]


def _check_threads(threads: int | None) -> None:
    """The thread-count rule: None, or an integral count >= 1."""
    if threads is not None and _check_size(threads, -math.inf, "threads") < 1:
        raise DomainError(f"threads must be positive, got {threads!r}")


def _pool_map(fn, items, threads: int | None, cost) -> list:
    """``[fn(item) for item in items]``, on ``threads`` worker threads when more than one.

    This is the library's one check of ``threads``, made before any task
    runs; every pooled path calls it after checking its specs and sizes and
    before deriving any stream. Results come back in item order, so no
    output depends on the thread count; ``threads=None`` or 1 runs in the
    calling thread, in item order. On the pool, tasks start largest
    ``cost(item)`` first (any values that order; tasks of equal cost in item
    order), so the longest tasks do not start last. The pool takes tasks in
    the order they were submitted.
    """
    _check_threads(threads)
    if threads is None or int(threads) == 1:
        return [fn(item) for item in items]
    from concurrent.futures import ThreadPoolExecutor

    items = list(items)
    # A stable sort: reverse=True keeps tasks of equal cost in item order.
    order = sorted(range(len(items)), key=lambda i: cost(items[i]), reverse=True)
    with ThreadPoolExecutor(max_workers=int(threads)) as pool:
        futures = {i: pool.submit(fn, items[i]) for i in order}
        try:
            return [futures[i].result() for i in range(len(items))]
        except BaseException:
            pool.shutdown(cancel_futures=True)  # tasks not yet started are dropped
            raise


def run_study(config: McStudyConfig, threads: int | None = None) -> McStudyResult:
    """Run every cell of the grid; deterministic for a fixed config and seed.

    ``threads=None`` or 1 runs serially; larger values parallelize across
    (model, n) blocks, largest first, without changing any output bit. The
    grid is planned (each window checked against its n) before ``threads``
    is checked, and both before any draw.
    """
    blocks, skipped = _plan_blocks(config)

    def run(b: _BlockPlan) -> list[McCell]:
        return _run_block(b, config.replications, config.seed)

    # A block's work grows with its size times its lanes; the largest start first.
    parts = _pool_map(run, blocks, threads, cost=lambda b: b.n * len(b.lanes.cells))
    cells = [cell for part in parts for cell in part]
    return McStudyResult(
        cells=tuple(cells),
        skipped=tuple(skipped),
        seed=config.seed,
        replications=config.replications,
    )


# --- study keys -------------------------------------------------------------------
# One converter per key: the grid's numeric keys (``distributions._GRID_KEYS``,
# shared with the command line) and the model and estimator keys.

_STUDY_KEYS = {
    "models": lambda v: tuple(
        m if isinstance(m, Model) else parse_model(str(m)) for m in _items(v, split=False)
    ),
    **_GRID_KEYS,
    "estimators": lambda v: tuple(map(est.parse_kind, _items(v, split=False))),
}


def study_config_from_json(doc) -> McStudyConfig:
    """Build a study config from a JSON document (text, bytes, dict, or file object).

    Recognized keys (all optional except ``models``): ``models`` (model spec
    strings), ``n`` (sample sizes), ``alpha`` (orders; 1 or null select the
    WCRE limit), ``estimators`` (kind tokens), ``m`` ("auto", "sweep" or a
    list of windows), ``replications``, ``seed``. Values go through the
    converters of the command-line flags, so ``"n": "10,20"``, ``"n": 10``
    and ``"seed": "0xff"`` mean what ``--n 10,20``, ``--n 10`` and
    ``--seed 0xff`` do. The document is read by the reader of the command
    line's ``--config``; unknown keys are rejected so that typos fail loudly.
    """
    doc = _json_object(doc, _STUDY_KEYS, "study config")
    if "models" not in doc:
        raise ParseError("study config needs a 'models' list")
    value = {key: _convert(_STUDY_KEYS, key, v) for key, v in doc.items()}
    return McStudyConfig(
        models=value["models"],
        sample_sizes=value.get("n", (10, 20, 30)),
        orders=value.get("alpha", (2.0,)),
        kinds=value.get("estimators", (EstimatorKind.EMPIRICAL,)),
        windows=value.get("m", "auto"),
        replications=value.get("replications", 10_000),
        seed=value.get("seed", DEFAULT_SEED),
    )
