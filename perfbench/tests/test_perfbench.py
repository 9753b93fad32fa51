"""Tests of the benchmark itself: its generators, checks, tracer and tail helper.

    python3 -m unittest discover -s perfbench/tests
"""

from __future__ import annotations

import builtins
import contextlib
import io
import json
import sys
import tempfile
import unittest
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

import tdp.engine  # noqa: E402
import tdp.graph  # noqa: E402
from perfbench import chain  # noqa: E402
from perfbench.layers import Patcher, Tracer, TracedBackend, TracedEnvironment  # noqa: E402
from perfbench.harness import Runner  # noqa: E402
from perfbench.run import WORKLOAD_NAMES, main  # noqa: E402
from perfbench.stats import tail  # noqa: E402
from perfbench.workloads import WORKLOADS  # noqa: E402

CHAINS = ("chain_tdp", "chain_planact", "chain_revise")


def untraced_op(name: str, seed: int, work_dir: Path):
    workload = WORKLOADS[name]()
    workload.setup(seed, work_dir)
    runner = Runner(workload, work_dir)
    runner.run_op(traced=False)
    return workload, runner.untraced[0]["checked"]


class GeneratorTest(unittest.TestCase):
    def test_same_seed_gives_same_inputs(self):
        for seed in (0, 7):
            a, b = chain.generate(seed, 100, 99), chain.generate(seed, 100, 99)
            self.assertEqual(a, b)
            self.assertEqual(chain.instance(a), chain.instance(b))
            self.assertEqual(chain.tdp_rules(a, revise=True), chain.tdp_rules(b, revise=True))
            self.assertEqual(chain.planact_rules(a), chain.planact_rules(b))

    def test_seeds_move_obstacles_but_not_their_count(self):
        a, b = chain.generate(1, 100, 99), chain.generate(3, 100, 99)
        self.assertNotEqual(a.obstacle_stages, b.obstacle_stages)
        self.assertEqual(len(a.obstacles), len(b.obstacles))
        for spec in (a, b):
            stages = [stage for stage, _ in spec.obstacles]
            self.assertEqual(stages, sorted(set(stages)))
            self.assertEqual(set(range(1, 91)) - spec.obstacle_stages, set())
            self.assertTrue(all(chain.FILLER_WORDS[0] <= n <= chain.FILLER_WORDS[1]
                                for _, n in spec.obstacles))

    def test_fixture_order_follows_the_seed(self):
        with tempfile.TemporaryDirectory() as tmp:
            made = []
            for seed in (3, 3, 4):
                workload = WORKLOADS["fixtures"]()
                workload.setup(seed, Path(tmp))
                made.append((workload.commands, workload.golds))
        self.assertEqual(made[0], made[1])
        self.assertNotEqual(made[0][0], made[2][0])
        self.assertEqual(made[0][1], made[2][1])
        self.assertEqual(len(made[0][1]), 13)


class ChainCountsTest(unittest.TestCase):
    def test_two_seeds_give_equal_stage_step_and_replan_counts(self):
        with tempfile.TemporaryDirectory() as tmp:
            for name in CHAINS:
                counts = []
                for seed in (11, 12):
                    workload, checked = untraced_op(name, seed, Path(tmp))
                    self.assertEqual(checked.problems, [], name)
                    counts.append(
                        (workload.spec.stages, checked.steps, len(workload.spec.obstacles),
                         checked.model_calls)
                    )
                self.assertEqual(counts[0], counts[1], name)
                self.assertEqual(counts[0][:3], (100, 199, 99), name)


class TracerTest(unittest.TestCase):
    def test_revise_chain_applies_a_revision_every_round(self):
        with tempfile.TemporaryDirectory() as tmp:
            workload = WORKLOADS["chain_revise"]()
            workload.setup(5, Path(tmp))
            tracer = Tracer(Path(tmp))
            tracer.begin_op()
            patch = Patcher()
            try:
                op = workload.prepare(
                    patch,
                    lambda backend: TracedBackend(backend, tracer),
                    lambda env: TracedEnvironment(env, tracer),
                )
                tracer.install(patch)
                runs = op()
            finally:
                patch.restore()
            self.assertEqual(workload.check(runs).problems, [])
        layers = {name: value for name, (value, _) in tracer.op_layers(0).items()}
        self.assertEqual(layers["graph.apply_revision.calls"], 99)
        self.assertEqual(layers["graph.apply_revision.applied_share"], 1.0)
        self.assertEqual(layers["environments.step.calls"], 199)
        self.assertGreater(layers["telemetry.file_opens"], 0)

    def test_traced_and_untraced_ops_write_identical_traces_and_unwrap(self):
        real_open, real_ready = builtins.open, tdp.engine.ready_nodes
        for name in ("chain_tdp", "fixtures"):
            with tempfile.TemporaryDirectory() as tmp:
                workload = WORKLOADS[name]()
                workload.setup(2, Path(tmp))
                runner = Runner(workload, Path(tmp))
                for traced in (False, True, False, True):
                    runner.run_op(traced)
                self.assertEqual(runner.problems, [], name)
                self.assertEqual((runner.correct, runner.failed), (4, 0), name)
                self.assertGreater(runner.traced[0]["layers"]["roles.complete.calls"][0], 0)
            self.assertIs(builtins.open, real_open)
            self.assertIs(tdp.engine.ready_nodes, real_ready)
            self.assertIs(tdp.engine.ready_nodes, tdp.graph.ready_nodes)

    def test_an_op_that_raises_is_counted_as_failed_and_the_run_carries_on(self):
        with tempfile.TemporaryDirectory() as tmp:
            workload = WORKLOADS["chain_tdp"]()
            workload.setup(2, Path(tmp))
            prepare = workload.prepare
            calls = []

            def flaky_prepare(*args):
                op = prepare(*args)
                calls.append(op)
                if len(calls) == 1:
                    def broken():
                        raise LookupError("no scripted rule matches")
                    return broken
                return op

            workload.prepare = flaky_prepare
            runner = Runner(workload, Path(tmp))
            runner.run_op(False)
            runner.run_op(False)
        self.assertEqual((runner.attempted, runner.failed, runner.correct), (2, 1, 1))
        self.assertIn("LookupError", runner.problems[0])

    def test_self_time_excludes_child_spans(self):
        ticks = iter([0.0, 1.0, 3.0, 10.0])
        tracer = Tracer(Path("."))
        tracer.begin_op()
        import perfbench.layers as layers

        real_now = layers.now
        layers.now = lambda: next(ticks)
        try:
            tracer.call("outer", tracer.call, "inner", lambda: None)
        finally:
            layers.now = real_now
        totals, _ = tracer.per_op[0]
        self.assertEqual(totals["inner"], [1, 2.0])
        self.assertEqual(totals["outer"], [1, 8.0])


class OutputContractTest(unittest.TestCase):
    def test_workload_names_agree(self):
        declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
        names = [w["name"] for w in declared["workloads"]]
        self.assertEqual(list(WORKLOAD_NAMES), names)
        self.assertEqual(sorted(WORKLOADS), sorted(names))

    def test_result_line_carries_exactly_the_declared_metrics(self):
        declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
        for trace, kind in (("0", "end_to_end"), ("1", "per_layer")):
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                code = main(["--workload", "fixtures", "--seed", "1", "--seconds", "0.3",
                             "--trace", trace])
            self.assertEqual(code, 0)
            result = json.loads(out.getvalue().splitlines()[-1])
            self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
            self.assertTrue(result["correct"])
            self.assertEqual(result["failed"], 0)
            want = {m["name"]: m["unit"] for m in declared[kind]}
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            self.assertEqual(got, want, kind)


class TailTest(unittest.TestCase):
    def test_highest_percentile_with_ten_samples_beyond(self):
        self.assertEqual(tail(range(1, 1001)), (990.0, 99.0, 10))
        self.assertEqual(tail(range(1, 1000)), (950.0, 95.0, 49))
        self.assertEqual(tail(range(1, 201)), (190.0, 95.0, 10))
        self.assertEqual(tail(range(1, 51)), (40.0, 80.0, 10))
        self.assertEqual(tail(range(1, 50)), (25.0, 50.0, 24))
        self.assertEqual(tail(range(1, 21)), (10.0, 50.0, 10))

    def test_too_few_samples_fall_back_to_the_median(self):
        value, percentile, beyond = tail([5.0, 1.0, 3.0])
        self.assertEqual((value, percentile), (3.0, 50.0))
        self.assertLess(beyond, 10)


if __name__ == "__main__":
    unittest.main()
