"""Self-tests of the benchmark's own machinery.

    python3 perfbench/selftest.py

Covers the span arithmetic, the interposition (tracing must not change any
output bit), the oracle against the package and against literal double sums,
the correctness gate's failure counting, and the agreement of
``BENCHMARK.json`` with the metrics the runner reports.
"""

import dataclasses
import json
import sys
import threading
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import numpy as np  # noqa: E402

import oracle  # noqa: E402
import spec  # noqa: E402
import tracing  # noqa: E402
import wcrte  # noqa: E402
import worker  # noqa: E402

SMALL = dict(models=spec.SWEEP_MODELS[:2], sizes=(10, 20))
MEASURED = {"wcrte.import_s": 1.0, "distributions.import_s": 0.5,
            "process.minor_faults": 0.0, "process.sys_s": 0.0}
SMALL_R = 500


def small_config(seed=11):
    return dataclasses.replace(spec.sweep_config(wcrte, seed, **SMALL), replications=SMALL_R)


def small_moments(seed=11):
    return oracle.study_moments(SMALL["models"], SMALL["sizes"], spec.SWEEP_ORDERS,
                                spec.SWEEP_KINDS, SMALL_R, seed)


class SmallSweep(worker.Sweep):
    def __init__(self):
        self.seed, self.threads, self.configs = 11, 1, [small_config()]

    def expected(self):
        return small_moments()


class SelfTime(unittest.TestCase):
    def test_nested_and_parallel_children(self):
        S = tracing.Span
        spans = [
            S(0, "root", 0.0, 10.0, None), S(1, "a", 1.0, 4.0, 0), S(2, "a.b", 2.0, 3.0, 1),
            S(3, "b", 5.0, 9.0, 0), S(4, "c", 6.0, 10.0, 0),  # b and c overlap on [6, 9]
        ]
        own = tracing.self_times(spans)
        self.assertEqual(own, {0: 2.0, 1: 2.0, 2: 1.0, 3: 4.0, 4: 4.0})
        m = tracing.layer_metrics(spans, [11.0], [10.0], MEASURED)
        self.assertAlmostEqual(m["trace.overlap_s"], 3.0)
        self.assertAlmostEqual(m["trace.unattributed_s"], 1.0)
        self.assertAlmostEqual(m["trace.overhead_frac"], 0.1)

    def test_counts_are_per_pass(self):
        draw = dict(purpose="null", rows=100, n=10, bytes=8000)
        spans = [tracing.Span(i, "mc.draw", i, i + 0.5, None, dict(draw, key=(1, key)))
                 for i, key in enumerate((10, 10, 20, 10, 10, 20))]  # two passes
        m = tracing.layer_metrics(spans, [3.0, 3.0], [3.0], MEASURED)
        self.assertEqual((m["gof.null_batches_drawn"], m["gof.null_batches_distinct"]), (3, 2))
        self.assertAlmostEqual(m["gof.null_reuse"], 2 / 3)
        self.assertEqual(m["mc.rows_drawn"], 300)

    def test_recorder_parents(self):
        rec = tracing.SpanRecorder()
        with rec.span("outer") as outer:
            with rec.span("inner"):
                pass

            def work():
                with rec.span("worker"):
                    pass
            t = threading.Thread(target=work)
            t.start()
            t.join(timeout=10)
            self.assertFalse(t.is_alive())
        parents = {s.name: s.parent for s in rec.spans}
        self.assertEqual(parents, {"inner": outer.id, "worker": outer.id, "outer": None})


class Interposition(unittest.TestCase):
    def test_traced_run_study_is_bit_identical(self):
        config = small_config()
        plain = wcrte.run_study(config)
        original = wcrte.run_study
        rec = tracing.SpanRecorder()
        uninstall = tracing.install(rec)
        try:
            self.assertIsNot(wcrte.run_study, original)
            traced = wcrte.run_study(config, threads=2)
        finally:
            uninstall()
        self.assertIs(wcrte.run_study, original)
        self.assertEqual(plain.cells, traced.cells)
        m = tracing.layer_metrics(rec.spans, [1.0], [1.0], MEASURED)
        self.assertEqual(m["mc.blocks"], 4)
        self.assertEqual(m["mc.cells"], len(plain.cells))
        self.assertEqual(m["estimators.calls"], len(plain.cells))
        self.assertEqual(m["mc.rows_drawn"], 4 * SMALL_R)
        self.assertGreater(m["estimators.vasicek.self_s"], 0.0)


class SweepChunks(unittest.TestCase):
    def test_per_size_studies_give_the_whole_grid(self):
        whole = wcrte.run_study(small_config()).cells
        workload = SmallSweep()
        workload.configs = [dataclasses.replace(small_config(), sample_sizes=(n,)) for n in SMALL["sizes"]]
        self.assertEqual(sorted(workload.run_pass(), key=repr), sorted(whole, key=repr))


class Oracle(unittest.TestCase):
    def test_matches_package_on_small_sweep(self):
        got = oracle.cell_moments(wcrte.run_study(small_config()).cells)
        self.assertEqual(oracle.compare_moments(got, small_moments()), set())

    def test_variance_matches_double_sum(self):
        x = np.sort(np.random.default_rng(3).exponential(size=12))
        s2 = x * x
        n, d = s2.size, np.diff(s2)
        for order in (2.0, 5.0, None):
            def c(i):
                t = 1.0 - i / n
                return 1.0 + np.log(t) if order is None else 1.0 - order * t ** (order - 1.0)
            total = sum((j / n) * (1.0 - i / n) * c(i) * c(j) * d[i - 1] * d[j - 1]
                        for j in range(1, n) for i in range(j + 1, n))
            want = total / 2.0 if order is None else total / (2.0 * (order - 1.0) ** 2)
            self.assertAlmostEqual(oracle.lstat_variance(order, s2), want, places=12)
            pkg = wcrte.wcre_lstat_variance(x) if order is None else wcrte.wcrte_lstat_variance(x, order)
            self.assertTrue(oracle.close(pkg, want))


class CorrectnessGate(unittest.TestCase):
    def test_perturbed_value_and_exception_count_as_failures(self):
        workload = SmallSweep()
        cells = list(workload.run_pass())
        gate = worker.Gate(workload, "selftest", 11)
        gate.check(tuple(cells))
        self.assertEqual((gate.attempted, gate.failed), (len(cells), 0))
        cells[5] = dataclasses.replace(cells[5], bias=cells[5].bias + 1e-9)
        gate.check(tuple(cells))
        self.assertEqual(gate.failed, 1)
        gate.check(RuntimeError("pass raised"))
        self.assertEqual((gate.attempted, gate.failed), (3 * len(cells), 1 + len(cells)))

    def test_power_off_by_one_rejection_fails(self):
        row = {"table": 8, "n": 10, "metric": "power", "computed": 0.1234}
        self.assertEqual(oracle.compare_rows([row], [(8, 10, "power", ("count", 1234, 1234, 10_000))]), set())
        row["computed"] = 0.1235
        self.assertEqual(oracle.compare_rows([row], [(8, 10, "power", ("count", 1234, 1234, 10_000))]), {0})


class BenchmarkFile(unittest.TestCase):
    def test_references_cover_both_seeds(self):
        for name in worker.WORKLOADS:
            doc = json.loads((worker.REFERENCE_DIR / f"{name}.json").read_text())
            self.assertEqual(set(doc["seeds"]), {str(s) for s in spec.REFERENCE_SEEDS})

    def test_lists_the_reported_metrics(self):
        doc = json.loads((HERE.parent / "BENCHMARK.json").read_text())
        self.assertEqual([w["name"] for w in doc["workloads"]], list(worker.WORKLOADS))
        self.assertEqual([(m["name"], m["unit"]) for m in doc["end_to_end"]], list(worker.END_TO_END))
        self.assertEqual([(m["name"], m["unit"]) for m in doc["per_layer"]], list(tracing.PER_LAYER))


if __name__ == "__main__":
    unittest.main()
