"""One benchmark run of one workload.

Started by ``run.py`` with ``PYTHONPATH`` pointing at the checkout's
``src``, BLAS threads pinned to the workload's thread count and the
allocator settings of ``run.ALLOCATOR``. Prints a provenance line, then the
result as the last line of standard output.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import os
import platform
import re
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np

import oracle
import spec
import tracing
import wcrte

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
REFERENCE_DIR = HERE / "reference"
TABLES_FILE = ROOT / "src" / "wcrte" / "data" / "reference_tables.json"

#: (name, unit) of every end-to-end metric, in report order.
END_TO_END = (
    ("wall_rel", "ratio"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)
SETUP_PROBES = 5
IMPORT_PROBES = 3
#: The reference kernel is timed after every run of whole chunks lasting at
#: least this many seconds.
SEGMENT_S = 1.0
#: The reference kernel of the launch workload: a cold interpreter that
#: imports numpy and parses floats from text.
REFERENCE_LAUNCH = "import numpy\nsum(float(repr(i * 0.37)) for i in range(100_000))"


def _stored_reference(workload: str, seed: int):
    path = REFERENCE_DIR / f"{workload}.json"
    if not path.exists():
        return None
    return json.loads(path.read_text())["seeds"].get(str(seed))


class Workload:
    """A pass is a list of chunks, callables timed one after another."""

    threads = 1

    def kernel(self) -> float:
        return reference_kernel(self.threads)

    def chunks(self) -> list:
        raise NotImplementedError

    def combine(self, parts):
        raise NotImplementedError

    def run_pass(self):
        return self.combine([chunk() for chunk in self.chunks()])


class Sweep(Workload):
    """Bias/MSE window sweep through ``run_study``, single-threaded."""

    threads = spec.THREADS["sweep"]

    def __init__(self, seed: int, workdir: Path) -> None:
        self.seed = seed
        config = spec.build_config(wcrte, "sweep", seed)
        # One study per sample size: block streams are keyed by model
        # position and n, so together they give the cells of the whole grid.
        self.configs = [dataclasses.replace(config, sample_sizes=(n,)) for n in config.sample_sizes]

    def warmup(self) -> None:
        # One full-size block: the largest arrays of a pass, so the allocator
        # has grown its heap before timing starts.
        block = spec.sweep_config(wcrte, self.seed, spec.SWEEP_MODELS[:1], spec.SWEEP_SIZES[-1:])
        wcrte.run_study(block, threads=self.threads)

    def chunks(self):
        return [functools.partial(wcrte.run_study, c, threads=self.threads) for c in self.configs]

    def combine(self, results):
        return tuple(cell for result in results for cell in result.cells)

    def expected(self):
        return oracle.study_moments(spec.SWEEP_MODELS, spec.SWEEP_SIZES, spec.SWEEP_ORDERS,
                                    spec.SWEEP_KINDS, spec.SWEEP_REPLICATIONS, self.seed)

    def stored(self, doc):
        return {(m, n, o, k, w): (mean, var) for m, n, o, k, w, mean, var in doc}

    def failures(self, cells, want) -> set:
        return oracle.compare_moments(oracle.cell_moments(cells), want)

    def record(self, cells):
        return [[*key, mean, var] for key, (mean, var) in oracle.cell_moments(cells).items()]


class Verify(Workload):
    """Published groups 2-8 recomputed at their published replication count."""

    threads = spec.THREADS["verify"]

    def __init__(self, seed: int, workdir: Path) -> None:
        self.seed = seed
        spec.build_config(wcrte, "verify", seed)

    def warmup(self) -> None:
        # A first pass runs about a third slower while the allocator grows
        # its heap; one untimed pass keeps that out of the medians.
        self.run_pass()

    def chunks(self):
        return [functools.partial(wcrte.verify_table, k, seed=self.seed, threads=self.threads)
                for k in spec.VERIFY_TABLES]

    def combine(self, tables):
        return [row for rows in tables for row in rows]

    def expected(self):
        tables = json.loads(TABLES_FILE.read_text())["tables"]
        return oracle.expect_verify(tables, spec.VERIFY_TABLES, self.seed)

    def stored(self, doc):
        return [(t, n, metric, ("value", x)) for t, n, metric, x in doc]

    def failures(self, rows, want) -> set:
        return oracle.compare_rows(rows, want)

    def record(self, rows):
        return [[int(r["table"]), int(r["n"]), r["metric"], float(r["computed"])] for r in rows]


class Estimate(Workload):
    """Cold launches of ``python -m wcrte estimate`` on a generated data file."""

    threads = spec.THREADS["estimate"]

    def __init__(self, seed: int, workdir: Path) -> None:
        self.values = np.random.default_rng(seed).exponential(size=spec.ESTIMATE_N)
        self.data = workdir / "sample.txt"
        np.savetxt(self.data, self.values, fmt="%.17g")
        self.stderr = workdir / "stderr.txt"
        self.command = [sys.executable, "-m", "wcrte", "estimate", "--data", str(self.data)]
        for text in spec.ESTIMATE_SPECS:
            self.command += ["--estimator", text]
        self.rss_mb: list[float] = []
        self.usage: list = []  # rusage of each launch
        # Window labels do not depend on the seed; they come from the stored
        # reference, so a relabelled or missing estimator reads as a failure.
        doc = _stored_reference("estimate", spec.DEFAULT_SEED)
        self.labels = None if doc is None else [label for label, _, _ in doc]

    def launch(self, command):
        """Run one launch to completion; its output, exit code and peak RSS."""
        with open(self.stderr, "wb") as err:
            proc = subprocess.Popen(command, stdout=subprocess.PIPE, stderr=err)
            out = proc.stdout.read()
            proc.stdout.close()
            _, status, usage = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
        if proc.returncode != 0:
            raise RuntimeError(f"exit code {proc.returncode}: {self.stderr.read_text()[-500:]}")
        self.rss_mb.append(usage.ru_maxrss / 1024.0)
        self.usage.append(usage)
        return out.decode()

    def warmup(self) -> None:
        self.launch(self.command)
        self.rss_mb.clear()

    def kernel(self) -> float:
        """Seconds for a cold launch of a fixed script with the same imports."""
        t0 = time.perf_counter()
        # No timeout: with one, the wait polls and rounds the time to its
        # polling steps.
        subprocess.run([sys.executable, "-c", REFERENCE_LAUNCH], check=True)
        return time.perf_counter() - t0

    def chunks(self):
        return [functools.partial(self.launch, self.command)]

    def combine(self, texts):
        return texts[0]

    def expected(self):
        return oracle.expect_estimates(self.values, self.labels)

    def stored(self, doc):
        return [tuple(item) for item in doc]

    def failures(self, text, want) -> set:
        return oracle.compare_estimates(oracle.parse_estimate_output(text), want)

    def record(self, text):
        return [list(item) for item in oracle.parse_estimate_output(text)]


WORKLOADS = {"sweep": Sweep, "verify": Verify, "estimate": Estimate}


class Gate:
    """Counts outputs that disagree with the oracle or the stored reference.

    Every pass is checked. A pass identical to one already checked reuses
    its verdict; a pass that raised counts all of its outputs as failed.
    References are computed at the first check, after the timed phase.
    """

    def __init__(self, workload, name: str, seed: int) -> None:
        self.workload, self.name, self.seed = workload, name, seed
        self.wants = None
        self.attempted = self.failed = 0
        self._seen: list[tuple[object, int]] = []

    def check(self, output) -> None:
        if self.wants is None:
            self.wants = [self.workload.expected()]
            doc = _stored_reference(self.name, self.seed)
            if doc is not None:
                self.wants.append(self.workload.stored(doc))
        size = len(self.wants[0])
        self.attempted += size
        if isinstance(output, BaseException):
            self.failed += size
            return
        for seen, failed in self._seen:
            if seen == output:
                self.failed += failed
                return
        try:
            failed = len(set().union(*(self.workload.failures(output, want) for want in self.wants)))
        except (KeyError, TypeError, ValueError) as exc:  # output of the wrong shape
            print(f"unreadable output: {exc!r}", file=sys.stderr)
            failed = size
        self._seen.append((output, failed))
        self.failed += failed


def timed_passes(run, seconds: float):
    """Call ``run`` until ``seconds`` have elapsed (at least once).

    Returns the wall time of each call and its result, or the exception it
    raised.
    """
    walls, outputs = [], []
    deadline = time.perf_counter() + seconds
    while True:
        t0 = time.perf_counter()
        try:
            out = run()
        except Exception as exc:  # a failing pass is counted, not fatal
            print(f"pass failed: {exc!r}", file=sys.stderr)
            out = exc
        walls.append(time.perf_counter() - t0)
        outputs.append(out)
        if time.perf_counter() >= deadline:
            return walls, outputs


def _kernel_block(rng) -> None:
    for kind in ("vasicek", "ebrahimi", "modified_n"):
        for m in range(1, 15, 2):
            x = np.sort(rng.exponential(size=(10_000, 30)), axis=1)
            oracle.estimator_values(kind, 2.0, m, x * x)


def reference_kernel(threads: int) -> float:
    """Seconds taken by a fixed mix of numpy and interpreter-bound work.

    The numpy part runs once on one thread and, for a workload with more
    threads, once more on all of them at once. The shared host this was
    built on changes speed by a fifth for seconds to minutes at a time; pass
    times are reported in units of this kernel, timed throughout the same
    run, which cancels what the two share.
    """
    rngs = [np.random.default_rng(i) for i in range(threads)]
    text = [repr(i * 0.37) for i in range(20_000)]
    t0 = time.perf_counter()
    _kernel_block(rngs[0])
    if threads > 1:
        with ThreadPoolExecutor(threads) as pool:
            list(pool.map(_kernel_block, rngs))
    sum(float(t) for t in text)
    return time.perf_counter() - t0


def relative_passes(workload: Workload, seconds: float):
    """Passes until ``seconds`` have elapsed, with the reference kernel timed between.

    The kernel runs before the first pass and after every run of whole
    chunks lasting at least ``SEGMENT_S``, so its samples follow the host's
    speed through the run. Returns each pass's wall time, the kernel times,
    and each pass's output or the exception it raised.
    """
    walls, outputs = [], []
    kernel = [workload.kernel()]
    deadline = time.perf_counter() + seconds
    while True:
        parts, wall, segment = [], 0.0, 0.0
        chunks = workload.chunks()
        try:
            for i, chunk in enumerate(chunks):
                t0 = time.perf_counter()
                try:
                    parts.append(chunk())
                finally:
                    dt = time.perf_counter() - t0
                    wall, segment = wall + dt, segment + dt
                    if segment >= SEGMENT_S or i == len(chunks) - 1:
                        kernel.append(workload.kernel())
                        segment = 0.0
            out = workload.combine(parts)
        except Exception as exc:  # a failing pass is counted, not fatal
            print(f"pass failed: {exc!r}", file=sys.stderr)
            out = exc
        walls.append(wall)
        outputs.append(out)
        if time.perf_counter() >= deadline:
            return walls, kernel, outputs


def _probe(args: list[str], *, importtime: bool = False) -> subprocess.CompletedProcess:
    cmd = [sys.executable, *(["-X", "importtime"] if importtime else []), *args]
    return subprocess.run(cmd, capture_output=True, text=True, check=True, timeout=120)


def setup_seconds(name: str, seed: int) -> float:
    """Median over fresh interpreters of importing wcrte and building the config."""
    probe = str(HERE / "probe.py")
    times = [json.loads(_probe([probe, name, str(seed)]).stdout)["setup_s"]
             for _ in range(SETUP_PROBES)]
    return statistics.median(times)


_IMPORT_LINE = re.compile(r"import time:\s+\d+\s+\|\s+(\d+)\s+\|\s*(\S+)\s*$")


def import_seconds() -> dict[str, float]:
    """Median cumulative import time of wcrte and wcrte.distributions."""
    metric = {"wcrte": "wcrte.import_s", "wcrte.distributions": "distributions.import_s"}
    samples: dict[str, list[float]] = {name: [] for name in metric.values()}
    for _ in range(IMPORT_PROBES):
        for line in _probe(["-c", "import wcrte"], importtime=True).stderr.splitlines():
            match = _IMPORT_LINE.match(line)
            if match and match[2] in metric:
                samples[metric[match[2]]].append(int(match[1]) * 1e-6)
    return {name: statistics.median(v) for name, v in samples.items()}


def provenance(seed: int, threads: int) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    head = ROOT / ".git" / "HEAD"
    commit = "unknown (not a git checkout)"
    if head.exists():
        ref = head.read_text().strip()
        target = ROOT / ".git" / ref[5:] if ref.startswith("ref: ") else None
        commit = target.read_text().strip() if target is not None and target.exists() else ref
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": __import__("scipy").__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "workload_threads": threads,
        "commit": commit,
        "seed": seed,
        "timer": "time.perf_counter wall clock; memory is ru_maxrss",
    }


def _metric(name: str, value: float, unit: str) -> dict:
    return {"value": float(value), "unit": unit}


def measure(name: str, workload, gate: Gate, seconds: float, seed: int) -> dict:
    setup = setup_seconds(name, seed)
    workload.warmup()
    walls, kernel, outputs = relative_passes(workload, seconds)
    if isinstance(workload, Estimate):
        rss = statistics.median(workload.rss_mb) if workload.rss_mb else 0.0
    else:
        rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    for out in outputs:
        gate.check(out)
    print("passes " + json.dumps({"wall_s": walls, "kernel_s": kernel}), flush=True)
    wall_rel = statistics.median(walls) / statistics.median(kernel)
    values = {"wall_rel": wall_rel, "setup_s": setup, "peak_rss_mb": rss}
    return {m: _metric(m, values[m], unit) for m, unit in END_TO_END}


def _estimate_traced_pass(workload: Estimate, spans: list) -> str:
    """One cold launch under the span recorder; its spans join ``spans``."""
    span_file = workload.data.with_name("spans.json")
    argv = workload.command[workload.command.index("estimate"):]
    text = workload.launch([sys.executable, str(HERE / "tracecli.py"), str(span_file), *argv])
    offset = len(spans) and max(s.id for s in spans) + 1
    for d in json.loads(span_file.read_text()):
        parent = None if d["parent"] is None else d["parent"] + offset
        spans.append(tracing.Span(d["id"] + offset, d["name"], d["start"], d["end"], parent, d["attrs"]))
    return text


def trace(name: str, workload, gate: Gate, seconds: float) -> dict:
    """Untraced passes, then traced passes, over half of ``seconds`` each."""
    imports = import_seconds()
    workload.warmup()
    plain_walls, outputs = timed_passes(workload.run_pass, seconds / 2)
    if isinstance(workload, Estimate):
        spans: list = []
        workload.usage.clear()
        traced_walls, traced = timed_passes(lambda: _estimate_traced_pass(workload, spans), seconds / 2)
        usage = workload.usage
        faults, sys_s = sum(u.ru_minflt for u in usage), sum(u.ru_stime for u in usage)
    else:
        rec = tracing.SpanRecorder()
        before = resource.getrusage(resource.RUSAGE_SELF)
        uninstall = tracing.install(rec)
        try:
            traced_walls, traced = timed_passes(workload.run_pass, seconds / 2)
        finally:
            uninstall()
        after = resource.getrusage(resource.RUSAGE_SELF)
        spans = rec.spans
        faults, sys_s = after.ru_minflt - before.ru_minflt, after.ru_stime - before.ru_stime
    for out in outputs + traced:
        gate.check(out)
    passes = len(traced_walls)
    measured = {**imports, "process.minor_faults": faults / passes, "process.sys_s": sys_s / passes}
    values = tracing.layer_metrics(spans, traced_walls, plain_walls, measured)
    units = dict(tracing.PER_LAYER)
    return {m: _metric(m, v, units[m]) for m, v in values.items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=lambda s: int(s, 0), default=spec.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", action="store_true",
                        help="write this seed's outputs to reference/<workload>.json instead")
    args = parser.parse_args(argv)

    print("provenance " + json.dumps(provenance(args.seed, spec.THREADS[args.workload])), flush=True)
    work = Path(tempfile.mkdtemp(prefix="run-", dir=_work_root()))
    try:
        workload = WORKLOADS[args.workload](args.seed, work)
        if args.record:
            return record(args.workload, workload, args.seed)
        gate = Gate(workload, args.workload, args.seed)
        if args.trace:
            metrics = trace(args.workload, workload, gate, args.seconds)
        else:
            metrics = measure(args.workload, workload, gate, args.seconds, args.seed)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    result = {"correct": gate.failed == 0, "attempted": gate.attempted,
              "failed": gate.failed, "metrics": metrics}
    print(json.dumps(result), flush=True)
    return 0


def _work_root() -> Path:
    path = HERE / ".work"
    path.mkdir(exist_ok=True)
    return path


def record(name: str, workload, seed: int) -> int:
    """Store one pass's outputs as the reference for ``seed``, if the oracle agrees."""
    out = workload.run_pass()
    if isinstance(workload, Estimate):
        workload.labels = [label for label, _, _ in oracle.parse_estimate_output(out)]
    bad = workload.failures(out, workload.expected())
    if bad:
        print(f"refusing to record: {len(bad)} outputs disagree with the oracle", file=sys.stderr)
        return 1
    path = REFERENCE_DIR / f"{name}.json"
    doc = json.loads(path.read_text()) if path.exists() else {"seeds": {}}
    doc["seeds"][str(seed)] = workload.record(out)
    REFERENCE_DIR.mkdir(exist_ok=True)
    seeds = ",\n".join(f"{json.dumps(seed)}: [\n" + ",\n".join(json.dumps(r) for r in rows) + "\n]"
                       for seed, rows in doc["seeds"].items())
    path.write_text('{"seeds": {\n' + seeds + "\n}}\n")  # one output per line
    print(f"recorded {len(doc['seeds'][str(seed)])} outputs for seed {seed} in {path.name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
