"""Run the benchmark on a parent commit and a changed tree in alternating pairs.

    python3 tools/bench_pairs.py --parent HEAD --change . --seeds 2601-2610 \
        [--claim estimate:setup_s] --out BENCH_26.json

``--parent`` is a git revision of the repository this tool belongs to. It is
resolved with ``git rev-parse --verify REV^{commit}``, that sha is written to
the output's ``"parent"``, and the commit's files are exported with ``git
archive`` into a temporary directory, which is deleted afterwards. Each
tree's own ``perfbench/run.py`` runs as a black box, for the
``run_seconds`` and over the workloads that the changed tree's
``BENCHMARK.json`` declares, with ``PYTHONDONTWRITEBYTECODE=1`` so every
probe compiles the package as a fresh checkout does. For each seed the
workloads run in turn, each once per tree: the parent first at odd seeds,
the change first at even ones. The output keeps the schema of the earlier
``BENCH_*.json`` files: ``summary`` holds each metric's median over one
side's runs, and ``claim`` the pair count in which the change read lower
and each side's quartiles [Q1, median, Q3]. A claim holds when the change
is lower in at least 9 of 10 pairs and the medians differ by more than the
parent's interquartile range; the verdict goes to stderr.

Without ``--claim`` the file records ``"claim": null``, and stderr gives,
for each workload and each ``end_to_end`` metric of ``BENCHMARK.json``,
both medians and the change's relative move against the metric's
``bound``: ``within`` or ``worse``, or ``unresolved`` where the parent's
interquartile range, relative to its median, is wider than the bound and
not every run of the change reads better than every run of the parent.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

#: The repository this tool belongs to, where ``--parent`` is resolved.
REPO = Path(__file__).resolve().parent.parent


def _seeds(text: str) -> list[int]:
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def export(rev: str, into: Path) -> str:
    """The sha of commit ``rev`` of :data:`REPO`, its files exported into ``into``."""
    sha = subprocess.run(["git", "rev-parse", "--verify", f"{rev}^{{commit}}"], cwd=REPO,
                         capture_output=True, text=True, check=True).stdout.strip()
    with subprocess.Popen(["git", "archive", sha], cwd=REPO, stdout=subprocess.PIPE) as proc:
        with tarfile.open(fileobj=proc.stdout, mode="r|") as tar:
            tar.extractall(into)
    if proc.returncode:
        raise subprocess.CalledProcessError(proc.returncode, proc.args)
    return sha


def run_once(tree: Path, workload: str, seed: int, seconds: float) -> tuple[dict, dict]:
    """One ``perfbench/run.py`` run in ``tree``: its provenance line and its result."""
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=tree, capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONDONTWRITEBYTECODE": "1"},
    )
    lines = done.stdout.splitlines()
    head = next(line for line in lines if line.startswith("provenance "))
    return json.loads(head.split(" ", 1)[1]), json.loads(lines[-1])


def quartiles(values: list[float]) -> list[float]:
    return statistics.quantiles(values, n=4, method="inclusive")


def summarize(runs: list[dict], workload: str, side: str) -> dict:
    results = [r["result"] for r in runs if r["workload"] == workload and r["side"] == side]
    summary = {name: statistics.median(r["metrics"][name]["value"] for r in results)
               for name in results[0]["metrics"]}
    summary["failed"] = sum(r["failed"] for r in results)
    summary["correct"] = all(r["correct"] for r in results)
    return summary


def values(runs: list[dict], workload: str, metric: str, side: str) -> list[float]:
    """``metric`` of each run of ``side`` on ``workload``, in seed order."""
    return [r["result"]["metrics"][metric]["value"] for r in runs
            if r["workload"] == workload and r["side"] == side]


def claim(runs: list[dict], workload: str, metric: str) -> dict:
    parent, change = (values(runs, workload, metric, side) for side in ("parent", "change"))
    return {
        "workload": workload,
        "metric": metric,
        "better": "lower",
        "pairs": len(change),
        "change_lower": sum(c < p for p, c in zip(parent, change)),
        "parent_q": quartiles(parent),
        "change_q": quartiles(change),
    }


def no_regression(runs: list[dict], workload: str, metric: dict) -> str:
    """One line: both medians of an end-to-end ``metric`` and the change's move against its bound."""
    name, bound, lower = metric["name"], metric["bound"], metric["better"] == "lower"
    parent_runs, change_runs = (values(runs, workload, name, side)
                                for side in ("parent", "change"))
    q1, parent, q3 = quartiles(parent_runs)
    change = statistics.median(change_runs)
    move = (change - parent) / parent
    spread = (q3 - q1) / parent
    all_better = (max(change_runs) < min(parent_runs) if lower
                  else min(change_runs) > max(parent_runs))
    if spread > bound and not all_better:
        verdict = "unresolved"
    else:
        verdict = "worse" if (move if lower else -move) > bound else "within"
    return (f"{workload} {name}: parent {parent:.6g}, change {change:.6g}, {move:+.1%} "
            f"against a bound of {bound:.0%} (parent IQR {spread:.1%}): {verdict}")


def holds(c: dict) -> bool:
    parent, change = c["parent_q"], c["change_q"]
    return (c["pairs"] >= 10 and c["change_lower"] >= 0.9 * c["pairs"]
            and parent[1] - change[1] > parent[2] - parent[0])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", required=True,
                        help="the parent commit: a git revision of this repository")
    parser.add_argument("--change", type=Path, required=True, help="the changed tree")
    parser.add_argument("--seeds", type=_seeds, required=True, help="FIRST-LAST, inclusive")
    parser.add_argument("--claim", help="WORKLOAD:METRIC, lower is better (default: no claim; "
                        "check each end-to-end metric against its bound)")
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)
    if len(args.seeds) < 2:
        parser.error("--seeds needs at least two seeds to give quartiles")
    bench = json.loads((args.change / "BENCHMARK.json").read_text())
    workloads, seconds = [w["name"] for w in bench["workloads"]], bench["run_seconds"]

    runs, provenance, blas_threads = [], {}, {}
    with tempfile.TemporaryDirectory(prefix="bench_parent_") as parent_tree:
        try:
            parent = export(args.parent, Path(parent_tree))
        except subprocess.CalledProcessError:
            parser.error(f"--parent {args.parent!r} names no commit of {REPO}")
        trees = {"parent": Path(parent_tree), "change": args.change.resolve()}
        for seed in args.seeds:
            order = ("parent", "change") if seed % 2 else ("change", "parent")
            for workload in workloads:
                for side in order:
                    provenance[side], result = run_once(trees[side], workload, seed, seconds)
                    blas_threads[workload] = provenance[side]["blas_threads"]
                    runs.append({"workload": workload, "seed": seed, "side": side,
                                 "result": result})
                    value = result["metrics"]["setup_s"]["value"]
                    print(f"{workload} {seed} {side}: setup_s {value:.4f}", file=sys.stderr)

    shared = {k: v for k, v in provenance["change"].items()
              if k not in ("commit", "seed", "workload_threads")}
    shared["blas_threads"] = ", ".join(f"{w} {t}" for w, t in blas_threads.items())
    doc = {
        "command": f"python3 perfbench/run.py --workload W --seed S --seconds {seconds:g} "
                   "--trace 0",
        "parent": parent,
        "claim": claim(runs, *args.claim.split(":")) if args.claim else None,
        "provenance": shared,
        "note": (f"{len(args.seeds)} pairs per workload at seeds "
                 f"{args.seeds[0]}-{args.seeds[-1]}, parent first at odd seeds and change first "
                 "at even seeds, the workloads interleaved seed by seed, the parent from a git "
                 "archive of its commit and the change from its own tree, each with "
                 "PYTHONDONTWRITEBYTECODE=1 (no bytecode cache); written by "
                 "tools/bench_pairs.py."),
        "summary": {w: {side: summarize(runs, w, side) for side in ("parent", "change")}
                    for w in workloads},
        "runs": runs,
    }
    args.out.write_text(json.dumps(doc, indent=1) + "\n")
    if args.claim:
        verdict = "holds" if holds(doc["claim"]) else "does not hold"
        print(f"claim {args.claim}: {doc['claim']['change_lower']}/{doc['claim']['pairs']} "
              f"pairs lower; {verdict}", file=sys.stderr)
    else:
        for workload in workloads:
            for metric in bench["end_to_end"]:
                print(no_regression(runs, workload, metric), file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
