"""Self-tests of the benchmark's own machinery.

    python3 perfbench/selftest.py

Covers the output checkers (a valid table passes, a perturbed or NaN row
fails), the self-time arithmetic on a synthetic span tree, zero-call
reporting for wrapped names that no longer exist, seeded op sequences,
and that BENCHMARK.json names exactly the metrics ``run.py`` reports.
"""

import json
import sys
import types
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import checks  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402


class CheckerTest(unittest.TestCase):
    def setUp(self):
        import tempfile

        self._tmp = tempfile.TemporaryDirectory(prefix=".perfbench-tmp-", dir=HERE.parent)
        self.cli = workloads.InProcessCli(self._tmp.name)

    def tearDown(self):
        self.cli.sink.close()
        self._tmp.cleanup()

    def _output(self, op):
        code, text = self.cli.run(op)
        self.assertEqual(code, 0)
        return text

    def test_valid_outputs_pass(self):
        for op in next(workloads.blocks("series-figure", 7)):
            self.assertGreaterEqual(checks.check_cli(op, 0, self._output(op)), 0)

    def test_perturbed_partial_sum_is_rejected(self):
        op = dict(workloads.WARMUP["series-figure"], max_order=40)
        lines = self._output(op).split("\n")
        cells = lines[20].split(",")
        cells[3] = f"{float(cells[3]) + 2e-5:.5f}"
        lines[20] = ",".join(cells)
        with self.assertRaises(checks.CheckError):
            checks.check_cli(op, 0, "\n".join(lines))

    def test_nan_row_is_rejected(self):
        op = {"cmd": "levels", "n_list": [1, 2], "samples": 11, "fmt": "json", "precision": 5}
        table = json.loads(self._output(op))
        table["rows"][5][2] = float("nan")
        with self.assertRaises(checks.CheckError):
            checks.check_cli(op, 0, json.dumps(table))

    def test_wrong_row_count_and_exit_code_are_rejected(self):
        op = workloads.WARMUP["cli-cold"]
        text = self._output(op)
        with self.assertRaises(checks.CheckError):
            checks.check_cli(op, 0, text.rsplit("\n", 2)[0] + "\n")
        with self.assertRaises(checks.CheckError):
            checks.check_cli(op, 1, text)

    def test_series_reference_matches_exact_catalan(self):
        import math
        from fractions import Fraction

        e0, w, alpha = -2.5, 1.25, 0.75
        reference = checks.series_reference(e0, w, alpha, 12)
        x = (Fraction(alpha) * Fraction(w) / (2 * Fraction(e0))) ** 2
        total = Fraction(e0)
        for t in range(1, 7):
            catalan = math.comb(2 * t - 2, t - 1) // t
            total += (-1) ** (t + 1) * 2 * Fraction(e0) * catalan * x**t
            self.assertAlmostEqual(reference[2 * t - 1][2], float(total), places=14)


class SpanTest(unittest.TestCase):
    def test_self_time_on_a_synthetic_tree(self):
        tree = [
            spans.Span("root", 0.0, 10.0, None, 0),
            spans.Span("child", 1.0, 4.0, 0, 0),
            spans.Span("child", 3.0, 6.0, 0, 0),  # overlaps the first child
            spans.Span("leaf", 1.5, 2.5, 1, 0),  # grandchild: not subtracted from root
            spans.Span("child", 8.0, 12.0, 0, 0),  # runs past the root: clipped
        ]
        stats = spans.layer_stats(tree)
        self.assertEqual(stats["root"]["calls"], 1)
        self.assertAlmostEqual(stats["root"]["busy"], 10.0)
        self.assertAlmostEqual(stats["root"]["self"], 10.0 - 5.0 - 2.0)
        self.assertEqual(stats["child"]["calls"], 3)
        self.assertAlmostEqual(stats["child"]["busy"], 3.0 + 3.0 + 4.0)
        self.assertAlmostEqual(stats["child"]["self"], 2.0 + 3.0 + 4.0)
        self.assertAlmostEqual(stats["leaf"]["self"], 1.0)

    def test_wrappers_link_parents_and_count(self):
        recorder = spans.Recorder()
        inner = recorder.wrap("inner", lambda x: x * 2)
        outer = recorder.wrap("outer", lambda x: inner(x) + inner(x))
        self.assertEqual(outer(3), 12)
        names = [(s.name, s.parent) for s in recorder.spans]
        self.assertEqual(names, [("outer", None), ("inner", 0), ("inner", 0)])

    def test_vanished_name_reports_zero_calls(self):
        stub = types.ModuleType("quatpert_stub")
        stub.present = lambda: None
        saved = spans.LAYERS
        spans.LAYERS = (("stub.present", "quatpert_stub", "present", None),
                        ("stub.gone", "quatpert_stub", "gone", None))
        sys.modules["quatpert_stub"] = stub
        try:
            recorder = spans.Recorder()
            self.assertEqual(recorder.install(), ["stub.present"])
            stub.present()
        finally:
            spans.LAYERS = saved
            del sys.modules["quatpert_stub"]
        self.assertNotIn("stub.gone", spans.layer_stats(recorder.spans))


class SeedTest(unittest.TestCase):
    def _take(self, workload, seed, n_blocks=10):
        stream = workloads.blocks(workload, seed)
        return [op for _ in range(n_blocks) for op in next(stream)]

    def test_same_seed_same_ops(self):
        for workload in run.WORKLOADS:
            self.assertEqual(self._take(workload, 5), self._take(workload, 5))
            self.assertNotEqual(self._take(workload, 5), self._take(workload, 6))

    def test_cli_cold_runs_one_oracle_in_six(self):
        ops = self._take("cli-cold", 3)
        self.assertEqual(len(ops), 60)
        self.assertEqual(sum(op["cmd"] == "oracle" for op in ops), 10)


class ContractTest(unittest.TestCase):
    def test_benchmark_json_names_the_reported_metrics(self):
        spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
        self.assertEqual([w["name"] for w in spec["workloads"]], list(run.WORKLOADS))
        self.assertEqual({m["name"]: m["unit"] for m in spec["end_to_end"]}, run.END_TO_END)
        self.assertEqual({m["name"]: m["unit"] for m in spec["per_layer"]}, run.PER_LAYER)


if __name__ == "__main__":
    unittest.main()
