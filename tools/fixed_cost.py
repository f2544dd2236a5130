"""Print the in-process median pass time of the benchmark's sweep grid at R = 10, 1 000 and 10 000.

    python3 tools/fixed_cost.py

A pass is ``perfbench/worker.py``'s ``Sweep.run_pass`` at the default seed,
one ``run_study`` per sample size as the workload runs it, with only the
replication count of its configs changed. At R = 10 a pass is almost all
fixed cost, the planning and bookkeeping a study repeats per call, per block
and per chunk; at R = 10 000 it is the workload's own pass.

The script re-executes itself once, with the workload's BLAS thread count
and the allocator settings of ``perfbench/run.py``'s ``ALLOCATOR``, so that
it times the process the benchmark runs. One warm-up pass precedes the
timed ones at each R. Standard library and the package only.
"""

import dataclasses
import os
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import run  # noqa: E402  perfbench/run.py: ALLOCATOR and THREAD_VARIABLES
import spec  # noqa: E402

REPLICATIONS = (10, 1_000, 10_000)
PASSES = 21  # timed passes per R


def main() -> int:
    wanted = {**run.ALLOCATOR, **dict.fromkeys(run.THREAD_VARIABLES, str(spec.THREADS["sweep"]))}
    if any(os.environ.get(name) != value for name, value in wanted.items()):
        os.execve(sys.executable, [sys.executable, __file__], {**os.environ, **wanted})

    import numpy as np

    import worker

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    print(f"# {os.cpu_count()} CPUs, Python {sys.version.split()[0]}, numpy {np.__version__}, "
          f"{blas.get('name')} {blas.get('version')}; {PASSES} passes per R")
    sweep = worker.Sweep(spec.DEFAULT_SEED, ROOT)
    configs = sweep.configs
    print(f"{'R':>6}  {'median_ms':>9}  {'q1_ms':>7}  {'q3_ms':>7}")
    for r in REPLICATIONS:
        sweep.configs = [dataclasses.replace(c, replications=r) for c in configs]
        times = []
        for _ in range(PASSES + 1):  # the first pass warms up
            start = time.perf_counter()
            sweep.run_pass()
            times.append(time.perf_counter() - start)
        q1, median, q3 = (1e3 * t for t in statistics.quantiles(times[1:], n=4, method="inclusive"))
        print(f"{r:>6}  {median:9.2f}  {q1:7.2f}  {q3:7.2f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
