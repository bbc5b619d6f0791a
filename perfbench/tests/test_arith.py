"""Unit tests for the benchmark's own arithmetic.

Run from the repository root (no simulation is started)::

    python3 -m pytest perfbench/tests -q
"""

import json
import math
import os
import sys
import unittest

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))
if ROOT not in sys.path:
    sys.path.insert(0, ROOT)

from perfbench import layers, stats  # noqa: E402
from perfbench import run as runner  # noqa: E402
from perfbench.cells import (PROBE_EXPONENT, PROBE_REF_S,  # noqa: E402
                             Cell, CellRun, first_difference, host_scale)


class FakeClock:
    def __init__(self):
        self.now = 0

    def __call__(self):
        return self.now

    def advance(self, ns):
        self.now += ns


class TailTest(unittest.TestCase):
    def test_tail_keeps_ten_samples_beyond(self):
        for n in (11, 12, 20, 37, 100, 1000):
            values = [float(v) for v in range(n, 0, -1)]  # unsorted input
            value, percentile, samples = stats.tail(values)
            self.assertEqual(samples, n)
            self.assertEqual(sum(1 for v in values if v > value),
                             stats.TAIL_BEYOND)
            self.assertAlmostEqual(percentile, 100.0 * (n - 10) / n)

    def test_tail_percentiles(self):
        self.assertEqual(stats.tail(list(range(1, 101)))[:2], (90, 90.0))
        self.assertEqual(stats.tail(list(range(1, 21)))[:2], (10, 50.0))

    def test_tail_needs_more_than_ten_samples(self):
        with self.assertRaises(ValueError):
            stats.tail([1.0] * 10)


class RatioTest(unittest.TestCase):
    def test_geomean_of_ratios(self):
        self.assertAlmostEqual(stats.geomean([2.0, 8.0]), 4.0)
        self.assertAlmostEqual(stats.geomean([1.5]), 1.5)
        self.assertAlmostEqual(stats.geomean([0.5, 2.0, 1.0]), 1.0)
        self.assertAlmostEqual(stats.geomean(iter([3.0, 3.0, 3.0])), 3.0)

    def test_geomean_rejects_empty_and_non_positive(self):
        for bad in ([], [1.0, 0.0], [-2.0]):
            with self.assertRaises(ValueError):
                stats.geomean(bad)

    def test_ratio_of_nothing_is_zero(self):
        self.assertEqual(stats.ratio(0, 0), 0.0)
        self.assertEqual(stats.ratio(3, 4), 0.75)

    def test_host_scale_follows_the_mean_probe(self):
        fast, slow = _run(0, None), _run(1, None)
        slow.probes = [2 * PROBE_REF_S, 4 * PROBE_REF_S, 3 * PROBE_REF_S]
        self.assertAlmostEqual(host_scale([fast]), 1.0)
        # Mean probe over both runs: 2 * PROBE_REF_S.
        self.assertAlmostEqual(host_scale([fast, slow]),
                               0.5 ** PROBE_EXPONENT)
        self.assertAlmostEqual(host_scale([fast, slow], 0.5), 0.5 ** 0.5)


def _run(index, digest, error=None):
    run = CellRun(Cell("w", index, 100 + index, 200 + index))
    run.digest = digest
    run.error = error
    run.probes = [PROBE_REF_S] * 3
    return run


class FailCountTest(unittest.TestCase):
    def test_fail_frac(self):
        self.assertEqual(stats.fail_frac([True, False, True, True]),
                         (4, 1, 0.25))
        self.assertEqual(stats.fail_frac([]), (0, 0, 0.0))

    def test_first_difference_names_the_first_field(self):
        ref = {"native_cycles": 1, "cycles": 2, "report": "ab",
               "repaired": True, "instructions": 5, "records_seen": 6}
        self.assertIsNone(first_difference(dict(ref), ref))
        got = dict(ref, report="cd", records_seen=7)
        self.assertTrue(first_difference(got, ref).startswith("report "))

    def test_check_counts_raises_mismatches_and_missing_references(self):
        ref = {"native_cycles": 1, "cycles": 2, "report": "ab",
               "repaired": False, "instructions": 5, "records_seen": 6}
        runs = [
            _run(0, dict(ref)),                       # passes
            _run(0, dict(ref, cycles=3)),             # digest differs
            _run(1, None, error="ValueError: boom"),  # raised
            _run(2, dict(ref)),                       # no reference
        ]
        runner.check(runs, {0: ref})
        self.assertEqual([r.ok for r in runs], [True, False, False, False])
        self.assertIn("cycles", runs[1].error)
        self.assertEqual(runs[2].error, "ValueError: boom")
        attempted, failed, frac = stats.fail_frac([r.ok for r in runs])
        self.assertEqual((attempted, failed, frac), (4, 3, 0.75))


class TracerTest(unittest.TestCase):
    """Self time on a fake clock: nested spans and hot accumulation."""

    def build(self):
        clock = FakeClock()
        tracer = layers.Tracer(clock=clock)
        leaf = tracer.hot("sim.coherence", lambda: clock.advance(3))

        def step_body():
            clock.advance(2)
            leaf()
            clock.advance(1)

        step = tracer.hot("sim.core", step_body)

        def run_body():
            clock.advance(10)
            step()
            step()
            clock.advance(4)

        run = tracer.span("sim.machine", "run", run_body)

        def cell():
            clock.advance(5)
            run()
            leaf()
            clock.advance(1)
            return "done"

        return clock, tracer, cell

    def test_self_time_and_hot_accumulation(self):
        _, tracer, cell = self.build()
        result, root = tracer.run_cell(7, cell)
        self.assertEqual(result, "done")
        self.assertEqual(root.end - root.start, 35)
        spans = tracer.spans_of(root)
        self.assertEqual([s.layer for s in spans], ["cell", "sim.machine"])
        machine = spans[1]
        self.assertEqual((machine.parent, machine.cell), (root.sid, 7))
        self.assertEqual(machine.end - machine.start, 26)
        self.assertEqual(machine.self_ns, 14)
        # Hot calls land in the innermost enclosing span, not per call.
        self.assertEqual(machine.hot, {"sim.core": [2, 6],
                                       "sim.coherence": [2, 6]})
        self.assertEqual(root.hot, {"sim.coherence": [1, 3]})
        totals, unattributed, cell_ns = layers.layer_totals(spans)
        self.assertEqual(totals, {"sim.machine": [1, 14],
                                  "sim.core": [2, 6],
                                  "sim.coherence": [3, 9]})
        self.assertEqual((unattributed, cell_ns), (6, 35))
        self.assertEqual(sum(t[1] for t in totals.values()) + unattributed,
                         cell_ns)

    def test_cells_accumulate_separately(self):
        _, tracer, cell = self.build()
        _, first = tracer.run_cell(0, cell)
        _, second = tracer.run_cell(1, cell)
        self.assertEqual(len(tracer.spans_of(first)), 2)
        self.assertEqual([s.cell for s in tracer.spans_of(second)], [1, 1])
        totals, unattributed, cell_ns = layers.layer_totals(tracer.spans)
        self.assertEqual(totals["sim.coherence"], [6, 18])
        self.assertEqual((unattributed, cell_ns), (12, 70))

    def test_exception_still_closes_frames(self):
        clock = FakeClock()
        tracer = layers.Tracer(clock=clock)

        def boom():
            clock.advance(4)
            raise ValueError("boom")

        hot = tracer.hot("pebs.driver", boom)

        def cell():
            clock.advance(1)
            try:
                hot()
            except ValueError:
                pass
            clock.advance(2)

        _, root = tracer.run_cell(0, cell)
        self.assertEqual(root.hot, {"pebs.driver": [1, 4]})
        self.assertEqual(root.self_ns, 3)
        self.assertEqual(len(tracer._frames), 1)

    def test_drain_sizes(self):
        tracer = layers.Tracer(clock=FakeClock())
        drain = tracer.hot("pebs.driver", tracer.sized(lambda: [1, 2, 3]))
        tracer.run_cell(0, drain)
        self.assertEqual(tracer.batch_sizes, [3])


class Base:
    def hook(self):
        return "base"


class Child(Base):
    def own(self, x):
        return x + 1


class InstalledTest(unittest.TestCase):
    def test_wrappers_are_installed_and_restored(self):
        clock = FakeClock()
        tracer = layers.Tracer(clock=clock)
        own = Child.own
        points = [("a", "span", Child, "own"), ("b", "hot", Child, "hook")]
        with layers.installed(tracer, points):
            self.assertIsNot(Child.own, own)
            self.assertIn("hook", vars(Child))
            obj = Child()
            _, root = tracer.run_cell(0, lambda: (obj.own(1), obj.hook()))
        self.assertIs(Child.own, own)
        self.assertNotIn("hook", vars(Child))  # inherited again
        self.assertEqual(Base().hook(), "base")
        self.assertEqual(root.hot, {"b": [1, 0]})
        self.assertEqual([s.layer for s in tracer.spans_of(root)],
                         ["cell", "a"])


class EntryPointsTest(unittest.TestCase):
    """The wrapped entry points exist and cover exactly the layers."""

    def test_entry_points_match_layer_names(self):
        src = os.path.join(ROOT, "src")
        if src not in sys.path:
            sys.path.insert(0, src)
        from repro.workloads import get_workload

        points = layers.entry_points(get_workload("kmeans"))
        self.assertEqual(sorted({p[0] for p in points}),
                         sorted(layers.layer_names()))
        for layer, kind, owner, attr in points:
            self.assertIn(kind, ("span", "hot", "drain"))
            self.assertTrue(callable(getattr(owner, attr)),
                            "%s: %r has no %s" % (layer, owner, attr))


class MetricNamesTest(unittest.TestCase):
    """The runner measures exactly what BENCHMARK.json declares."""

    @classmethod
    def setUpClass(cls):
        with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
            cls.bench = json.load(fh)

    def declared(self, group):
        return {m["name"]: m["unit"] for m in self.bench[group]}

    def test_per_layer_names_and_units(self):
        measured = runner.per_layer(layers.Tracer(), [], [])
        self.assertEqual({k: v[1] for k, v in measured.items()},
                         self.declared("per_layer"))

    def test_end_to_end_names_and_units(self):
        digest = {"native_cycles": 10, "cycles": 12, "report": "x",
                  "repaired": False, "instructions": 100, "records_seen": 1}
        runs = []
        for i in range(12):
            run = _run(i % 3, dict(digest))
            run.run_s, run.native_s = 0.5 + i / 100, 0.25
            runs.append(run)
        failed = _run(0, None, error="ValueError: boom")
        measured = runner.end_to_end(runs, runs + [failed],
                                     [0.3, 0.2, 0.4], 50.0)
        declared = self.declared("end_to_end")
        # fail_frac, report_fp and report_fn can be 0, so BENCHMARK.json
        # leaves them to the printed report and the correctness fields.
        self.assertEqual(set(measured) - set(declared),
                         {"fail_frac", "report_fp", "report_fn"})
        for name, unit in declared.items():
            self.assertEqual(measured[name][1], unit, name)
        self.assertAlmostEqual(measured["sim_overhead"][0], 1.2)
        self.assertAlmostEqual(measured["setup_s"][0], 0.3)
        self.assertAlmostEqual(measured["fail_frac"][0], 1 / 13)
        self.assertTrue(math.isclose(measured["sim_insts_per_s"][0],
                                     1200 / sum(r.run_s for r in runs)))


if __name__ == "__main__":
    unittest.main()
