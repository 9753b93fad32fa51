"""The benchmark's workloads: how each one sets up, runs one op and checks it.

One op of a chain workload is one run of a 100-stage seeded chain; one op of
``fixtures`` is one batch through ``tdp.cli.dispatch``.  Every run writes its
trace to a file and then calls ``compute_metrics``, as ``tdp run`` does.  An
op returns the live metrics record and trace file of each run; ``check``
reads every trace back and holds the op to its workload's expectations.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable

import tdp.baselines
import tdp.cli
import tdp.engine
import tdp.telemetry
from tdp.environments import load_task_instance
from tdp.roles import ScriptedBackend
from tdp.telemetry import MetricsRecord, TraceSink, compute_metrics, read_trace

from . import chain
from .layers import Patcher

ROOT = Path(__file__).resolve().parent.parent

Runs = list[tuple[MetricsRecord, Path]]
Op = Callable[[], Runs]
Wrap = Callable[[Any], Any]


class OpError(RuntimeError):
    """An op that did not finish its work."""


@dataclass
class Checked:
    """What the checks found in one op's traces."""

    problems: list[str] = field(default_factory=list)
    steps: int = 0
    prompt_tokens: int = 0
    output_tokens: int = 0
    model_calls: int = 0
    max_replan_prompt_tokens: int = 0
    trace_bytes: int = 0
    digest: str = ""


def replay(record: MetricsRecord, path: Path, checked: Checked, sha: Any) -> list[Any]:
    """Read one run's trace back, compare its metrics with the live record and
    add its role calls to `checked`.  Raises when the trace has no run_end or
    does not parse: such an op failed."""
    data = path.read_bytes()
    sha.update(path.name.encode() + b"\0" + data)
    checked.trace_bytes += len(data)
    headers, events = read_trace(path)
    meta = headers[record.run_id]["meta"]
    events = [e for e in events if e.run_id == record.run_id]
    again = compute_metrics(
        events, meta.get("gold") or {}, method=meta.get("method", ""), run_id=record.run_id
    )
    if again != record:
        checked.problems.append(f"{record.run_id}: replayed metrics differ from the live record")
    checked.steps += record.steps_used
    for event in events:
        if event.kind != "role_call":
            continue
        p = event.payload
        checked.prompt_tokens += p["prompt_tokens"]
        checked.output_tokens += p["output_tokens"]
        checked.model_calls += p["attempts"]
        if p["template"] == "replan":
            checked.max_replan_prompt_tokens = max(
                checked.max_replan_prompt_tokens, p["prompt_tokens"]
            )
    return events


#: The chain workloads' size.  The reference chain puts an obstacle in every
#: stage; one stage in a hundred is left plain so that the seed still picks
#: which stages throw, and the counts stay within 1% of the reference's.
STAGES, OBSTACLES = 100, 99


class ChainWorkload:
    """One method on a seeded chain of STAGES stages with OBSTACLES obstacles."""

    def __init__(
        self, name: str, method: str, revise: bool = False, stages: int = STAGES,
        obstacles: int = OBSTACLES,
    ) -> None:
        self.name = name
        self.method = method
        self.revise = revise
        self.stages = stages
        self.obstacles = obstacles

    def setup(self, seed: int, work_dir: Path) -> None:
        self.spec = chain.generate(seed, self.stages, self.obstacles)
        self.instance = chain.instance(self.spec)
        self.rules = (
            chain.tdp_rules(self.spec, revise=self.revise)
            if self.method == "tdp"
            else chain.planact_rules(self.spec)
        )
        self.run_id = f"{self.method}__{self.instance.id}"
        self.trace_path = work_dir / f"{self.run_id}.jsonl"

    def prepare(self, patch: Patcher, wrap_backend: Wrap, wrap_env: Wrap | None) -> Op:
        backends = {role: wrap_backend(ScriptedBackend(rules)) for role, rules in self.rules.items()}
        config = chain.run_config(self.spec, backends)
        env = chain.ChainEnv()
        if wrap_env is not None:
            env = wrap_env(env)

        def op() -> Runs:
            # looked up at call time, so the traced pass sees its wrappers
            runner = tdp.engine.run_task if self.method == "tdp" else tdp.baselines.run_plan_and_act
            sink = TraceSink(path=self.trace_path, clock=config.make_clock())
            runner(self.instance, env, config, sink=sink, run_id=self.run_id)
            record = tdp.telemetry.compute_metrics(
                sink.events_for(self.run_id), self.instance.gold, method=self.method,
                run_id=self.run_id,
            )
            return [(record, self.trace_path)]

        return op

    def check(self, runs: Runs) -> Checked:
        checked = Checked()
        sha = hashlib.sha256()
        (record, path), = runs
        events = replay(record, path, checked, sha)
        checked.digest = sha.hexdigest()
        spec = self.spec
        run_end = next(e.payload for e in reversed(events) if e.kind == "run_end")
        if record.terminal != "Completed":
            checked.problems.append(f"run ended {record.terminal}: {run_end.get('reason')}")
        cleared = run_end.get("env_metrics", {}).get("stages_cleared")
        if cleared != spec.stages:
            checked.problems.append(f"cleared {cleared} of {spec.stages} stages")
        if record.steps_used != spec.steps:
            checked.problems.append(f"used {record.steps_used} steps, expected {spec.steps}")
        if record.replans_total != len(spec.obstacles):
            checked.problems.append(
                f"{record.replans_total} accepted replans, expected {len(spec.obstacles)}"
            )
        if self.method == "tdp":
            statuses = [e.payload["status"] for e in events if e.kind == "revision"]
            want = "applied" if self.revise else "noop"
            if statuses != [want] * (spec.stages - 1):
                checked.problems.append(f"revisions were not all {want}: {sorted(set(statuses))}")
        return checked


#: (config, fixture directory, methods the config scripts)
FIXTURE_BATCHES = (
    ("configs/scripted_wiki.json", "fixtures/wiki", ("tdp", "react", "cot", "plan-act")),
    ("configs/scripted_travel.json", "fixtures/travel", ("tdp",)),
)


class FixturesWorkload:
    """``tdp compare`` over every shipped scripted fixture and method, then ``tdp report``."""

    name = "fixtures"

    def setup(self, seed: int, work_dir: Path) -> None:
        rng = random.Random(seed)
        self.trace_dir = work_dir / "traces"
        self.commands: list[list[str]] = []
        self.golds: dict[str, dict[str, Any]] = {}
        for config, tasks, methods in FIXTURE_BATCHES:
            config_path, tasks_path = ROOT / config, ROOT / tasks
            tdp.cli.load_config(config_path)  # fails early on a missing or bad config
            for fixture in sorted(tasks_path.glob("*.json")):
                instance = load_task_instance(fixture)
                for method in methods:
                    self.golds[f"{method}__{instance.id}"] = dict(instance.gold)
            order = list(methods)
            rng.shuffle(order)
            self.commands.append(
                ["compare", "--methods", ",".join(order), "--tasks", str(tasks_path),
                 "--config", str(config_path),
                 "--reference", "plan-act" if "plan-act" in methods else methods[0],
                 "--trace-dir", str(self.trace_dir)]
            )
        rng.shuffle(self.commands)
        traces = [str(self.trace_dir / f"{run_id}.jsonl") for run_id in sorted(self.golds)]
        rng.shuffle(traces)
        self.commands.append(["report", "--traces", *traces])

    def prepare(self, patch: Patcher, wrap_backend: Wrap, wrap_env: Wrap | None) -> Op:
        runs: Runs = []
        load_config = tdp.cli.load_config
        single_run = tdp.cli._single_run
        make_environment = tdp.cli.make_environment

        def wrapped_load_config(path: Any) -> Any:
            config = load_config(path)
            config.role_backends = {r: wrap_backend(b) for r, b in config.role_backends.items()}
            return config

        def capturing_single_run(*args: Any, **kwargs: Any) -> Any:
            report, record, trace_path = single_run(*args, **kwargs)
            runs.append((record, trace_path))
            return report, record, trace_path

        patch.set(tdp.cli, "load_config", wrapped_load_config)
        patch.set(tdp.cli, "_single_run", capturing_single_run)
        if wrap_env is not None:
            patch.set(tdp.cli, "make_environment", lambda env_id: wrap_env(make_environment(env_id)))

        def op() -> Runs:
            with contextlib.redirect_stdout(io.StringIO()):
                codes = [tdp.cli.dispatch(argv) for argv in self.commands]
            if any(codes):
                raise OpError(f"tdp exited with codes {codes}")
            return runs

        return op

    def check(self, runs: Runs) -> Checked:
        checked = Checked()
        sha = hashlib.sha256()
        seen = sorted(record.run_id for record, _ in runs)
        if seen != sorted(self.golds):
            checked.problems.append(f"runs {seen} differ from expected {sorted(self.golds)}")
        for record, path in sorted(runs, key=lambda run: run[0].run_id):
            replay(record, path, checked, sha)
            gold = self.golds.get(record.run_id, {})
            if "answer" in gold and record.accuracy is not True:
                checked.problems.append(f"{record.run_id}: answer is not accurate")
            if "constraints" in gold and record.constraint_macro is not True:
                checked.problems.append(f"{record.run_id}: gold constraints not met")
        checked.digest = sha.hexdigest()
        return checked


WORKLOADS: dict[str, Callable[[], Any]] = {
    "chain_tdp": lambda: ChainWorkload("chain_tdp", "tdp"),
    "chain_planact": lambda: ChainWorkload("chain_planact", "plan-act"),
    "chain_revise": lambda: ChainWorkload("chain_revise", "tdp", revise=True),
    "fixtures": FixturesWorkload,
}
