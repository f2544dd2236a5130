"""Print the cold-launch cost of the benchmark's `estimate` command, against its reference launch.

    python3 tools/launch_cost.py

A launch is the command line of ``perfbench/worker.py``'s ``Estimate``
workload, ``python -m wcrte estimate`` with the ten specs of
``perfbench/spec.py`` on the 200 000-value file it writes at the default
seed. The reference is a cold ``python -c`` of ``worker.REFERENCE_LAUNCH``,
the kernel that ``wall_rel`` divides by. Each round runs one launch, one
reference and one stamped launch; one warm-up round precedes the timed
ones. The script prints the medians and quartiles of the launch, of the
reference and of their ratio within a round, then the median time from
``cli.main``'s return to the end of the process. A stamped launch runs the
package through ``runpy``, as ``python -m wcrte`` does, with ``cli.main``
patched to write the monotonic clock to stderr as it returns; the script
reads the same clock when the process has ended. Only ``cli.main`` is
patched, so the script times a checkout of any version that has it.

The script re-executes itself once, with the workload's BLAS thread count
and the allocator settings of ``perfbench/run.py``'s ``ALLOCATOR``, so that
it times the processes the benchmark runs. Set ``PYTHONDONTWRITEBYTECODE=1``
to time launches that compile the package, as ``tools/bench_pairs.py``
does. Standard library and the package only.
"""

import os
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import run  # noqa: E402  perfbench/run.py: ALLOCATOR and THREAD_VARIABLES
import spec  # noqa: E402

ROUNDS = 30  # timed rounds
#: ``python -m wcrte ARGS`` with ``cli.main`` stamping the clock as it returns.
STAMPED = """
import runpy, sys, time
from wcrte import cli

main = cli.main

def stamped(argv=None):
    try:
        return main(argv)
    finally:
        sys.stderr.write(f"main returned at {time.monotonic()!r}\\n")

cli.main = stamped
runpy.run_module("wcrte", run_name="__main__", alter_sys=True)
"""


def timed(command, env) -> tuple[float, str]:
    """Seconds of one launch to the end of its process, and its stderr."""
    start = time.perf_counter()
    done = subprocess.run(command, env=env, capture_output=True, text=True, check=True)
    return time.perf_counter() - start, done.stderr


def after_main(command, env) -> float:
    """Seconds from ``cli.main``'s return to the end of one stamped launch."""
    _, err = timed(command, env)
    end = time.monotonic()
    return end - float(err.rsplit("main returned at ", 1)[1])


def row(name: str, values: list[float], scale: float) -> str:
    q1, median, q3 = (scale * v for v in statistics.quantiles(values, n=4, method="inclusive"))
    return f"{name:<10}  {median:9.3f}  {q1:9.3f}  {q3:9.3f}"


def main() -> int:
    wanted = {**run.ALLOCATOR, **dict.fromkeys(run.THREAD_VARIABLES, str(spec.THREADS["estimate"]))}
    if any(os.environ.get(name) != value for name, value in wanted.items()):
        os.execve(sys.executable, [sys.executable, __file__], {**os.environ, **wanted})

    import numpy as np

    import worker

    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, (str(ROOT / "src"), os.environ.get("PYTHONPATH"))))}
    reference = [sys.executable, "-c", worker.REFERENCE_LAUNCH]
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    print(f"# {os.cpu_count()} CPUs, Python {sys.version.split()[0]}, numpy {np.__version__}, "
          f"{blas.get('name')} {blas.get('version')}; {ROUNDS} rounds")
    with tempfile.TemporaryDirectory() as workdir:
        command = worker.Estimate(spec.DEFAULT_SEED, Path(workdir)).command
        stamped = [sys.executable, "-c", STAMPED, *command[command.index("wcrte") + 1:]]
        launches, references, tails = [], [], []
        for _ in range(ROUNDS + 1):  # the first round warms up
            launches.append(timed(command, env)[0])
            references.append(timed(reference, env)[0])
            tails.append(after_main(stamped, env))
    launches, references, tails = launches[1:], references[1:], tails[1:]
    print(f"{'':<10}  {'median':>9}  {'q1':>9}  {'q3':>9}")
    print(row("launch_ms", launches, 1e3))
    print(row("ref_ms", references, 1e3))
    print(row("ratio", [a / b for a, b in zip(launches, references)], 1.0))
    print(row("after_ms", tails, 1e3) + "  (from cli.main's return to the end of the process)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
