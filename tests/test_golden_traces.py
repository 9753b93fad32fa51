"""Golden traces and prompts: the behaviour oracle for refactors.

Every case below runs one method on one task with a scripted backend and the
counter clock, writes its trace to a file and hashes the file's bytes
(SHA-256).  Traces carry only prompt sizes, so the case's role backends are
also wrapped in recording delegates sharing one call log, and every prompt
sent is hashed, in call order, as ``role_tag NUL prompt NUL``.
``golden_traces.json`` and ``golden_prompts.json`` hold the expected hashes of
each case, so a refactor that is meant to keep behaviour must keep every hash.
The same runs also check that tdp's node prompts stay scoped to their node,
that no method calls a role after the step that ends the episode, and that
every tdp trace alone rebuilds its run's graph.
The tests only read those files.  A change that alters traces or prompts on
purpose regenerates both with

    PYTHONPATH=src python tests/test_golden_traces.py

and says in CHANGES.md why they changed; it prints each case that is new
(``added:``) and each case whose trace or prompt hash moved (``changed:``).
"""

from __future__ import annotations

import hashlib
import json
import sys
import tempfile
from dataclasses import dataclass
from functools import lru_cache
from pathlib import Path
from typing import Any, Callable

import pytest

from tdp.baselines import BASELINES
from tdp.cli import load_config
from tdp.engine import RunConfig, replay_graph, run_task
from tdp.environments import Environment, TaskInstance, load_task_instance, make_environment
from tdp.telemetry import CounterClock, TraceError, TraceSink, read_trace

from conftest import CONFIG_DIR, TRAVEL_FIXTURE, WIKI_FIXTURES
from scenarios import (
    ChainEnv,
    RecordingBackend,
    chain_config,
    chain_instance,
    diamond_config,
    diamond_instance,
    diamond_repair_config,
    diamond_repair_instance,
    diamond_rules,
    planact_chain_rules,
    reworded_stage,
    tdp_chain_rules,
    travel_locality_config,
    travel_locality_instance,
    travel_locality_rules,
)

GOLDEN_PATH = Path(__file__).with_name("golden_traces.json")
PROMPTS_PATH = Path(__file__).with_name("golden_prompts.json")

# a case builds (method, instance, environment, config) afresh each time it runs
Case = Callable[[], tuple[str, TaskInstance, Environment, RunConfig]]


def _fixture_case(method: str, fixture: Path, config_name: str) -> Case:
    def build():
        instance = load_task_instance(fixture)
        config = load_config(CONFIG_DIR / config_name)
        return method, instance, make_environment(instance.environment), config

    return build


def _chain_case(method: str, stages: int, revise: bool = False, **overrides: Any) -> Case:
    def build():
        rules = (
            tdp_chain_rules(stages, revise=revise)
            if method == "tdp"
            else planact_chain_rules(stages)
        )
        config = chain_config(stages, rules)
        for name, value in overrides.items():
            setattr(config, name, value)
        return method, chain_instance(stages), ChainEnv(), config

    return build


def _scenario_case(instance: Callable[[], TaskInstance], config: Callable[[], RunConfig]) -> Case:
    def build():
        task = instance()
        return "tdp", task, make_environment(task.environment), config()

    return build


def _cases() -> dict[str, Case]:
    cases: dict[str, Case] = {}
    for fixture in WIKI_FIXTURES:
        for method in ("tdp", "react", "cot", "plan-act"):
            cases[f"{method}/{fixture.stem}"] = _fixture_case(
                method, fixture, "scripted_wiki.json"
            )
    cases[f"tdp/{TRAVEL_FIXTURE.stem}"] = _fixture_case(
        "tdp", TRAVEL_FIXTURE, "scripted_travel.json"
    )
    for stages in (3, 8):
        cases[f"tdp/chain{stages}"] = _chain_case("tdp", stages)
        cases[f"tdp-revise/chain{stages}"] = _chain_case("tdp", stages, revise=True)
        cases[f"plan-act/chain{stages}"] = _chain_case("plan-act", stages)
    # no replan allowed: both methods write the budget-exhausted replan event
    for method in ("tdp", "plan-act"):
        cases[f"{method}/chain3-no-replans"] = _chain_case(
            method, 3, max_replans_per_node=0
        )
    cases["tdp/diamond_lab"] = _scenario_case(
        diamond_instance, lambda: diamond_config(diamond_rules())
    )
    cases["tdp/diamond_repair"] = _scenario_case(diamond_repair_instance, diamond_repair_config)
    for variant in ("blocked", "direct"):
        cases[f"tdp/travel_locality_{variant}"] = _scenario_case(
            lambda v=variant: travel_locality_instance(v),
            lambda: travel_locality_config(travel_locality_rules()),
        )
    return cases


CASES = _cases()
TDP_CASES = sorted(n for n in CASES if n.startswith("tdp"))


@dataclass(frozen=True)
class CaseRun:
    """What one run of a case left: its trace file's bytes, every (role tag,
    prompt) the backends received in call order, the task query and the
    environment's admissible commands."""

    trace: bytes
    calls: tuple[tuple[str, str], ...]
    query: str
    commands: tuple[str, ...]


def run_case(case: Case, trace_dir: Path) -> CaseRun:
    """Run `case` with a file sink on the counter clock and recording backends."""
    method, instance, env, config = case()
    calls: list[tuple[str, str]] = []
    for role, backend in config.role_backends.items():
        config.role_backends[role] = recorder = RecordingBackend(backend)
        recorder.calls = calls
    path = trace_dir / f"{method}__{instance.id}.jsonl"
    sink = TraceSink(path, clock=CounterClock())
    if method == "tdp":
        run_task(instance, env, config, sink=sink)
    else:
        BASELINES[method](instance, env, config, sink=sink)
    return CaseRun(path.read_bytes(), tuple(calls), instance.query,
                   tuple(env.admissible_commands()))


@lru_cache(maxsize=None)
def _run_of(name: str) -> CaseRun:
    with tempfile.TemporaryDirectory() as tmp:
        return run_case(CASES[name], Path(tmp))


def _hashes_of(name: str) -> tuple[str, str]:
    """SHA-256 of the case's trace file and of every (role tag, prompt) sent."""
    run = _run_of(name)
    prompts = hashlib.sha256()
    for role_tag, prompt in run.calls:
        prompts.update(role_tag.encode() + b"\0" + prompt.encode() + b"\0")
    return hashlib.sha256(run.trace).hexdigest(), prompts.hexdigest()


def _golden(path: Path = GOLDEN_PATH) -> dict[str, str]:
    return json.loads(path.read_text(encoding="utf-8"))


def test_golden_file_covers_exactly_the_cases():
    assert sorted(_golden()) == sorted(CASES)
    assert sorted(_golden(PROMPTS_PATH)) == sorted(CASES)


@pytest.mark.parametrize("name", sorted(CASES))
def test_trace_matches_its_golden_hash(name):
    assert _hashes_of(name)[0] == _golden()[name]


@pytest.mark.parametrize("name", sorted(CASES))
def test_prompts_match_their_golden_hash(name):
    assert _hashes_of(name)[1] == _golden(PROMPTS_PATH)[name]


NODE_SCOPED = ("planner:plan", "executor:execute", "supervisor:evaluate", "planner:replan")


@pytest.mark.parametrize("name", TDP_CASES)
def test_node_prompts_stay_scoped_to_their_node(name):
    """A node's prompts name the task only where its sub-goal does, and the
    evaluator, which judges but never acts, is never shown the action list."""
    run = _run_of(name)
    node_calls = [(tag, prompt) for tag, prompt in run.calls if tag in NODE_SCOPED]
    assert {tag for tag, _ in node_calls} >= {"planner:plan", "supervisor:evaluate"}
    for tag, prompt in node_calls:
        subgoal = prompt.split("Current Subgoal: ", 1)[1].split("\nCurrent Plan:", 1)[0]
        subgoal = subgoal.split("\nAvailable actions:", 1)[0]
        assert run.query not in prompt or run.query in subgoal, (tag, prompt)
        if tag == "supervisor:evaluate":
            shown = [command for command in run.commands if command in prompt]
            assert not shown, (tag, shown)


@pytest.mark.parametrize("name", sorted(CASES))
def test_no_role_is_called_after_the_episode_ends(name):
    events = [json.loads(line) for line in _run_of(name).trace.splitlines()]
    ends = [i for i, e in enumerate(events) if e["kind"] == "env_step" and e["payload"]["done"]]
    after = [e["kind"] for e in events[ends[0] + 1:]] if ends else []
    assert "role_call" not in after, after


@pytest.mark.parametrize("name", TDP_CASES)
def test_the_trace_alone_rebuilds_the_final_graph(name, tmp_path):
    """replay_graph over the trace file gives exactly the nodes of the run's
    node records; the revising chains' nodes carry their reworded descriptions."""
    path = tmp_path / "trace.jsonl"
    path.write_bytes(_run_of(name).trace)
    headers, events = read_trace(path)
    ((_, header),) = headers.items()
    assert header["version"] == 2
    graph = replay_graph(header["meta"]["query"], events)
    (run_end,) = [e for e in events if e.kind == "run_end"]
    assert graph.nodes and sorted(graph.nodes) == sorted(run_end.payload["node_records"])
    if name.startswith("tdp-revise/"):
        stages = len(graph.nodes)
        assert {nid: node.description for nid, node in graph.nodes.items()} == {
            f"node_{i}": "Handle stage 1 of the queue." if i == 1 else reworded_stage(i)
            for i in range(1, stages + 1)
        }


def test_the_repair_case_completes_by_revision():
    """node_3 fails; the round's revision removes it and adds node_5 before
    the blocked node_4; node_5 and then node_4 complete, and the run delivers."""
    events = [json.loads(line) for line in _run_of("tdp/diamond_repair").trace.splitlines()]
    statuses = [(e["payload"]["node_id"], e["payload"]["status"]) for e in events
                if e["kind"] == "node_status" and e["payload"]["status"] != "in_progress"]
    assert statuses == [("node_1", "completed"), ("node_2", "completed"),
                        ("node_3", "failed"), ("node_5", "completed"), ("node_4", "completed")]
    (repair,) = [e["payload"] for e in events
                 if e["kind"] == "revision" and e["payload"]["status"] == "applied"]
    assert repair["delta"]["remove_nodes"] == ["node_3"]
    (new_node,) = repair["delta"]["new_nodes"]
    assert (new_node["id"], new_node["dependents"]) == ("node_5", ["node_4"])
    (run_end,) = [e["payload"] for e in events if e["kind"] == "run_end"]
    assert (run_end["terminal"], run_end["delivered"]) == ("Completed", True)


def test_a_version_1_trace_cannot_be_replayed():
    """Version 1 recorded the decomposition as a snapshot, not as a delta."""
    headers, events = read_trace(Path(__file__).with_name("trace_v1.jsonl"))
    ((_, header),) = headers.items()
    with pytest.raises(TraceError, match="graph_constructed event 1 of run 'tdp__chain3' "
                                         "carries no delta; a version-1 trace"):
        replay_graph(header["meta"]["query"], events)


def _write(path: Path, hashes: dict[str, str]) -> None:
    path.write_text(json.dumps(hashes, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {len(hashes)} hashes to {path}", file=sys.stderr)


def _regenerate() -> None:
    """Rewrite both golden files, first printing each case that has no
    golden hash yet and each case whose trace or prompt hash moved."""
    hashes = {name: _hashes_of(name) for name in sorted(CASES)}
    old = (_golden(GOLDEN_PATH), _golden(PROMPTS_PATH))
    for name, pair in hashes.items():
        moved = [what for what, golden, new in zip(("trace", "prompts"), old, pair)
                 if golden.get(name) != new]
        if all(name not in golden for golden in old):
            print(f"added: {name}")
        elif moved:
            print(f"changed: {name} ({', '.join(moved)})")
    _write(GOLDEN_PATH, {name: pair[0] for name, pair in hashes.items()})
    _write(PROMPTS_PATH, {name: pair[1] for name, pair in hashes.items()})


if __name__ == "__main__":
    _regenerate()
