"""Fast self-test of the benchmark harness.

Run from the root of a checkout with ``python3 -m unittest perfbench.test_harness``
or ``python3 -m pytest perfbench/test_harness.py``.
"""

import sys
import unittest
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
for _path in (str(ROOT / "src"), str(ROOT)):
    if _path not in sys.path:
        sys.path.insert(0, _path)

import numpy as np  # noqa: E402

from perfbench import checks  # noqa: E402
from perfbench.harness import Tracer, self_times, tail_percentile  # noqa: E402
from perfbench.workloads import Bench, SimulationUnit  # noqa: E402


class SelfTimeTest(unittest.TestCase):
    def test_children_are_subtracted_once(self):
        # 0: [0, 10] with children 1: [1, 3], 2: [2, 5] (overlapping) and
        # 3: [8, 12] (runs past the parent's end); 4: [1.5, 2] nests in 1.
        spans = [
            (0, -1, "root", 0.0, 10.0),
            (1, 0, "a", 1.0, 3.0),
            (2, 0, "b", 2.0, 5.0),
            (3, 0, "c", 8.0, 12.0),
            (4, 1, "d", 1.5, 2.0),
        ]
        own = self_times(spans)
        self.assertAlmostEqual(own[0], 10.0 - 4.0 - 2.0)  # covered: [1, 5] and [8, 10]
        self.assertAlmostEqual(own[1], 2.0 - 0.5)
        self.assertAlmostEqual(own[2], 3.0)
        self.assertAlmostEqual(own[4], 0.5)

    def test_wrapped_calls_nest(self):
        import types

        module = types.ModuleType("pilotopt._selftest")
        module.inner = lambda: 1
        module.outer = lambda: module.inner() + 1
        sys.modules[module.__name__] = module
        try:
            tracer = Tracer("self-test")
            original = module.inner
            tracer.wrap("spans", module, "inner", "inner")
            tracer.wrap("spans", module, "outer", "outer")
            tracer.enabled = True
            self.assertEqual(module.outer(), 2)
            tracer.unwrap("spans")
            self.assertIs(module.inner, original)
            spans = list(tracer.spans_of(0))
            self.assertEqual([s[2] for s in spans], ["outer", "inner"])
            self.assertEqual(spans[1][1], spans[0][0])
            self.assertLessEqual(self_times(spans)[0], spans[0][4] - spans[0][3])
        finally:
            del sys.modules[module.__name__]


class PercentileTest(unittest.TestCase):
    def test_highest_percentile_with_ten_beyond(self):
        self.assertEqual(tail_percentile(range(1, 10001)), (99.9, 9990))
        self.assertEqual(tail_percentile(range(1, 1001)), (99.0, 990))
        self.assertEqual(tail_percentile(range(1, 1000))[0], 90.0)  # p99 has only 9 beyond
        self.assertEqual(tail_percentile(range(1, 21)), (50.0, 10))
        self.assertEqual(tail_percentile(range(1, 10001), ceiling=99.0), (99.0, 9900))

    def test_too_few_samples_give_the_median(self):
        self.assertEqual(tail_percentile([3, 1, 2]), (50.0, 2))
        self.assertEqual(tail_percentile([1, 2]), (50.0, 1.5))
        self.assertEqual(tail_percentile([]), (None, None))


class CheckTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        from perfbench.harness import Digest

        cls.Digest = Digest
        cls.bench = Bench(seed=0, out_dir=ROOT / ".perfbench_out" / "self-test", run_id="self-test")
        cls.bench.install()

    @classmethod
    def tearDownClass(cls):
        cls.bench.tracer.unwrap("hooks")

    def _point(self):
        bench = self.bench
        cfg = bench.cli.parse_config(
            {
                "grid": {"M": 4, "N": 4},
                "scattering": {"spreading_factor": 0.09},
                "snr_db": 10.0,
                "pilot_budget": 4,
                "methods": ["cr", "greedy-swap"],
            }
        )
        stats = bench.channel.build_statistics(cfg.grid, bench.channel.ScatteringSpec(spreading_factor=0.09))
        bench.cli.run_point(cfg, stats, 4, 10.0, 0, cfg.methods, 1)
        (point,) = bench.take("points")
        bench.obs.clear()
        return point

    def test_correct_outputs_pass(self):
        ledger = self.bench.ledger = checks.Ledger()
        self.bench.check_point("self-test", self._point(), self.Digest())
        self.assertEqual(ledger.attempted, 2)
        self.assertEqual(ledger.failures, [])

    def test_corrupted_objective_is_a_failed_operation(self):
        ledger = self.bench.ledger = checks.Ledger()
        arguments, outcomes, allocation = self._point()
        outcomes["greedy-swap"]["objective"] *= 1.0 + 1e-7
        self.bench.check_point("self-test", (arguments, outcomes, allocation), self.Digest())
        self.assertEqual(ledger.attempted, 2)
        self.assertEqual(len(ledger.failures), 1)
        self.assertIn("greedy-swap", ledger.failures[0])

    def test_biased_rounding_fails_the_marginal_test(self):
        target = np.array([0.25, 0.75, 1.0, 0.0])
        n = 10_000
        fair = np.array([2500, 7500, n, 0])
        self.assertEqual(checks.marginal_problems(target, fair, n)[0], [])
        biased = np.array([2800, 7200, n, 0])
        self.assertEqual(len(checks.marginal_problems(target, biased, n)[0]), 2)

    def test_monte_carlo_is_checked_over_the_pooled_runs(self):
        def pooled(empirical):
            ledger = self.bench.ledger = checks.Ledger()
            unit = SimulationUnit(self.bench, "12x14", 0, None, None, None)
            for seed in range(unit.min_repeats):
                # Each run alone is within 4 SE; ten of them pooled are not.
                unit.runs[seed] = (empirical, 0.003, 1.0)
            unit.final_check()
            return ledger

        self.assertEqual(pooled(1.002).failures, [])
        self.assertEqual(len(pooled(1.006).failures), 1)


if __name__ == "__main__":
    unittest.main()
