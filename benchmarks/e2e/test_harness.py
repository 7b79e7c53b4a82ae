"""Self-test of the benchmark harness.  Run it explicitly:

    python3 benchmarks/e2e/test_harness.py

It lives outside ``tests/`` (pytest's ``testpaths``), so tier-1 does not
collect it: a full pass starts eight workload subprocesses, which set the
real 17.5 MB cube up sixteen times, and takes about a minute.
"""

from __future__ import annotations

import json
import subprocess
import sys
import tempfile
import time
import unittest
from pathlib import Path
from unittest import mock

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parents[1] / "src")]

import metrics  # noqa: E402
import run  # noqa: E402
import summary  # noqa: E402
import tracing  # noqa: E402
from ops import OpGenerator, op_list_hash  # noqa: E402
from workloads import WORKLOADS, RangeCold  # noqa: E402

#: A run this short still sets up the real cube; a handful of ops follow.
QUICK_SECONDS = 0.4

#: Too few samples at that length: these must read 0, "not reported".
PERCENTILES = {"read_p50_ms", "read_p95_ms"}


class QuickRun(unittest.TestCase):
    def test_every_listed_metric_is_emitted_with_its_unit(self):
        spec = summary.load_spec()
        with tempfile.TemporaryDirectory() as out:
            started = time.perf_counter()
            child = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--seed", "3",
                 "--trace", "--out", out, "--seconds", str(QUICK_SECONDS)],
                stdout=subprocess.PIPE, text=True, check=False,
            )
            elapsed = time.perf_counter() - started
            self.assertEqual(child.returncode, 0, child.stdout[-2000:])
            results = json.loads((Path(out) / "results.json").read_text())
            self.assertTrue((Path(out) / "trace.jsonl").stat().st_size > 0)
        self.assertLess(elapsed, 120.0)
        self.assertEqual(
            set(results["workloads"]),
            {entry["name"] for entry in spec["workloads"]},
        )
        for name, entry in results["workloads"].items():
            self.assertTrue(entry["correct"], name)
            self.assertTrue(entry["correct_traced"], name)
            for section, listed in (
                ("metrics", spec["end_to_end"]),
                ("layers", spec["per_layer"]),
            ):
                self.assertEqual(
                    {m: cell["unit"] for m, cell in entry[section].items()},
                    {m["name"]: m["unit"] for m in listed},
                    f"{name} {section}",
                )
            for metric, cell in entry["metrics"].items():
                if metric in PERCENTILES:
                    self.assertEqual(cell["value"], 0.0, f"{name} {metric}")
                else:
                    self.assertGreater(cell["value"], 0.0, f"{name} {metric}")
        shard = results["workloads"]["shard_mixed"]["layers"]
        served = results["workloads"]["served_mixed"]["layers"]
        cold = results["workloads"]["range_cold"]["layers"]
        # Bypass predictions: a layer a workload never enters reads zero.
        for metric, cell in cold.items():
            if metric.split(".")[0] in ("shard", "serve", "client", "wire"):
                self.assertEqual(cell["value"], 0.0, metric)
        self.assertGreater(shard["shard.read_ms"]["value"], 0.0)
        self.assertGreater(shard["catalog.replayed_txns"]["value"], 0.0)
        self.assertGreater(served["serve.status_304"]["value"], 0.0)
        self.assertEqual(served["shard.read_ms"]["value"], 0.0)

    def test_without_the_program_there_is_no_result(self):
        with tempfile.TemporaryDirectory() as bare:
            target = Path(bare) / "benchmarks" / "e2e"
            target.mkdir(parents=True)
            for source in HERE.glob("*.py"):
                (target / source.name).write_text(source.read_text())
            (Path(bare) / "BENCHMARK.json").write_text(
                (run.ROOT / "BENCHMARK.json").read_text()
            )
            child = subprocess.run(
                [sys.executable, str(target / "run.py"), "--workload",
                 "range_cold", "--seed", "1", "--seconds", "1", "--trace", "0"],
                stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                check=False, cwd=bare,
            )
        self.assertNotEqual(child.returncode, 0)
        self.assertEqual(child.stdout.strip(), "")


class OpGeneration(unittest.TestCase):
    def _ops(self, seed, name):
        cube = run.salescube.generate_sales_data()
        workload = WORKLOADS[name](cube)
        generator = OpGenerator(seed, cube)
        return workload.warmup(generator, 20) + workload.generate(generator, 60)

    def test_same_seed_same_ops_other_seed_other_ops(self):
        for name in WORKLOADS:
            first = op_list_hash(self._ops(11, name))
            self.assertEqual(first, op_list_hash(self._ops(11, name)), name)
            self.assertNotEqual(first, op_list_hash(self._ops(12, name)), name)

    def test_the_mix_does_not_depend_on_the_seed(self):
        for name in WORKLOADS:
            kinds = [
                sorted(op.kind for op in self._ops(seed, name))
                for seed in (1, 2)
            ]
            self.assertEqual(kinds[0], kinds[1], name)


class CorruptedMirror(unittest.TestCase):
    def test_a_wrong_mirror_fails_the_run(self):
        class Corrupted(RangeCold):
            def prewarm(self):
                self.cube = self.cube + 1  # the store keeps the true cells

        with mock.patch.dict(run.WORKLOADS, {"range_cold": Corrupted}):
            result = run.run_workload(
                "range_cold", 5, QUICK_SECONDS, False, setups=1
            )
            with mock.patch("builtins.print"):
                code = run.main(
                    ["--workload", "range_cold", "--seconds", str(QUICK_SECONDS)]
                )
        self.assertFalse(result["correct"])
        self.assertEqual(result["failed"], result["attempted"])
        self.assertEqual(result["all"]["error_rate"], 1.0)
        self.assertNotEqual(code, 0)


class SpanArithmetic(unittest.TestCase):
    def test_self_time_subtracts_what_children_cover(self):
        root = ["tilestore.read", 0.0, 10.0, None, 1, 0]
        fetch = ["pipeline.fetch", 1.0, 7.0, root, 1, 0]
        get = ["store.get_run", 2.0, 5.0, fetch, 1, 0]
        crc = ["checksum.verify", 3.0, 4.5, get, 1, 0]
        worker = ["codec.decode", 5.5, 6.5, None, 2, 512]
        late = ["index.search", 9.0, 12.0, root, 1, 0]  # clipped to parent
        spans = [crc, get, fetch, late, worker, root]
        selfs = tracing.self_times(spans)
        self.assertAlmostEqual(selfs[id(root)], 10.0 - 6.0 - 1.0)
        self.assertAlmostEqual(selfs[id(fetch)], 6.0 - 3.0)
        self.assertAlmostEqual(selfs[id(get)], 3.0 - 1.5)
        self.assertAlmostEqual(selfs[id(crc)], 1.5)
        self.assertAlmostEqual(selfs[id(worker)], 1.0)
        by_name = tracing.sum_by_name(spans, selfs)
        self.assertAlmostEqual(by_name["store.get_run"], 1.5)
        self.assertAlmostEqual(tracing.sum_by_name(spans)["index.search"], 3.0)

    def test_overlapping_children_are_counted_once(self):
        self.assertAlmostEqual(
            tracing.covered([(0.0, 2.0), (1.0, 3.0), (5.0, 6.0), (5.5, 5.8)]), 4.0
        )

    def test_spans_belong_to_the_op_that_contains_them(self):
        ops = [(0.0, 10.0), (20.0, 30.0)]
        inside = ["tilestore.read", 1.0, 9.0, None, 1, 0]
        worker = ["codec.decode", 21.0, 22.0, None, 2, 0]
        between = ["catalog.save", 12.0, 13.0, None, 1, 0]
        self.assertEqual(
            tracing.assign_ops([inside, worker, between], ops), [0, 1, None]
        )
        # op 0: 8 of 10 s covered; op 1: 1 of 10 s covered.
        self.assertAlmostEqual(
            tracing.unattributed_share([inside, worker, between], ops), 11.0 / 20.0
        )


    def test_a_fetch_inside_a_run_is_not_a_run_of_its_own(self):
        run_of_one = ["store.get_run", 0.0, 3.0, None, 1, 0]
        inner = ["store.get", 1.0, 2.0, run_of_one, 1, 0]
        coalesced = ["store.get_run", 4.0, 5.0, None, 1, 0]
        single = ["store.get", 6.0, 7.0, None, 1, 0]
        values = metrics.layer_metrics(
            [inner, run_of_one, coalesced, single],
            metrics.Samples(), metrics.Samples(), metrics.Tallies(),
        )
        self.assertEqual(values["store.runs"], 3)
        self.assertAlmostEqual(values["store.get_run_ms"], 5000.0)


class PercentileRule(unittest.TestCase):
    def test_a_percentile_needs_ten_samples_beyond_it(self):
        latencies = [0.001 * (i + 1) for i in range(200)]
        self.assertGreater(metrics.percentile_ms(latencies, 95), 0.0)
        self.assertEqual(metrics.percentile_ms(latencies[:199], 95), 0.0)
        self.assertGreater(metrics.percentile_ms(latencies[:20], 50), 0.0)
        self.assertEqual(metrics.percentile_ms(latencies[:19], 50), 0.0)
        self.assertEqual(metrics.percentile_ms([], 50), 0.0)


class WrapperHygiene(unittest.TestCase):
    def test_a_traced_run_restores_every_binding(self):
        before = tracing.current_bindings()
        result = run.run_workload("range_cold", 5, QUICK_SECONDS, True)
        after = tracing.current_bindings()
        self.assertTrue(result["correct"])
        self.assertGreater(result["all"]["tilestore.read_ms"], 0.0)
        self.assertEqual(len(before), len(tracing.TARGETS))
        for target, was, now in zip(tracing.TARGETS, before, after):
            self.assertIs(now, was, f"{target[0]!r}.{target[1]}")

    def test_an_untraced_run_patches_nothing(self):
        with mock.patch.object(
            tracing, "installed", side_effect=AssertionError("patched")
        ) as installed:
            result = run.run_workload(
                "range_cold", 5, QUICK_SECONDS, False, setups=1
            )
        installed.assert_not_called()
        self.assertTrue(result["correct"])

    def test_bindings_are_restored_when_the_block_raises(self):
        before = tracing.current_bindings()
        with self.assertRaises(ZeroDivisionError):
            with tracing.installed(tracing.Recorder()):
                self.assertIsNot(tracing.current_bindings()[0], before[0])
                raise ZeroDivisionError
        for was, now in zip(before, tracing.current_bindings()):
            self.assertIs(now, was)


if __name__ == "__main__":
    unittest.main(verbosity=2)
