"""Benchmark entry point.

    python3 perfbench/run.py --workload {sweep,verify,estimate} --seed N \
        --seconds S --trace {0,1}

Runs the package from the checkout's ``src`` directory in a child process
whose BLAS and OpenMP thread counts are pinned to the workload's stated
thread count, and whose allocator keeps freed memory (see ``ALLOCATOR``),
and relays its output. The last line of standard output is
the result as one JSON object. Exits with status 2, printing no result, when
the checkout holds no ``src/wcrte`` package.
"""

import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import spec  # noqa: E402

ROOT = HERE.parent
THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# glibc's default returns each large numpy temporary to the kernel when it is
# freed and faults it in again on the next allocation, about 0.9 million
# minor faults per sweep pass. What those faults cost changed from process to
# process by a fifth or more on a shared host, so the benchmark serves
# temporaries (arrays up to 32 MiB) from one heap that is never trimmed.
ALLOCATOR = {
    "MALLOC_MMAP_THRESHOLD_": str(32 << 20),
    "MALLOC_TRIM_THRESHOLD_": str(1 << 40),
    "MALLOC_ARENA_MAX": "1",
}


def main(argv: list[str]) -> int:
    src = ROOT / "src"
    if not (src / "wcrte" / "__init__.py").is_file():
        print(f"error: no wcrte package under {src}; run from a full checkout", file=sys.stderr)
        return 2
    workload = argv[argv.index("--workload") + 1] if "--workload" in argv[:-1] else None
    if workload not in spec.THREADS:
        print(f"error: --workload must be one of {', '.join(spec.THREADS)}", file=sys.stderr)
        return 2
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(src), env.get("PYTHONPATH"))))
    for name in THREAD_VARIABLES:
        env[name] = str(spec.THREADS[workload])
    env.update(ALLOCATOR)
    return subprocess.run([sys.executable, str(HERE / "worker.py"), *argv], env=env).returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
