"""Golden traces and prompts: the behaviour oracle for refactors.

Every case below runs one method on one task with a scripted backend and the
counter clock, and writes its trace to a file.  Traces carry only prompt
sizes, so the case's role backends are also wrapped in recording delegates
sharing one call log.  ``tests/golden/<method>/<case>.jsonl`` is a byte copy
of the case's trace file, and ``<case>.calls`` has one line per model call,
in call order: its role tag and its prompt's SHA-256.  Three checks compare a
fresh run with these files: its trace, byte for byte; its call lines; and its
behaviour, the trace without any ``prompt_tokens`` or ``prompt_chars``.  A
refactor that is meant to keep behaviour must pass all three, and one that is
meant to change only what prompts say must pass the behaviour check.  A
failure names the case and its first differing line: the event's ``seq`` and
kind, or the call's role tag, and the keys that differ (see ``goldendiff``).
The same runs also check that tdp's node prompts stay scoped to their node,
that each rule guarded by a node-state binding reaches exactly the calls in
that state, that every prompt that reads a plan shows the latest one as its numbered
steps, that no method calls a role after the step that ends the episode, and
that every tdp trace alone rebuilds its run's graph, statuses included, and
the nodes of its record.
The tests only read ``tests/golden/``.  A change that alters traces or
prompts on purpose rewrites it, dropping the files of cases that are gone, with

    PYTHONPATH=src:. python tests/test_golden_traces.py

so that ``git diff`` shows every moved event and call; CHANGES.md says why.
"""

from __future__ import annotations

import json
import re
import shutil
import sys
import tempfile
from dataclasses import dataclass
from functools import lru_cache
from pathlib import Path
from typing import Any, Callable

import pytest

from tdp.baselines import BASELINES
from tdp.cli import load_config
from tdp.engine import NO_ACTIONS_YET, RunConfig, replay_graph, run_task
from tdp.environments import Environment, TaskInstance, load_task_instance, make_environment
from tdp.environments.base import command_syntax
from tdp.fields import check_fields
from tdp.graph import NodeStatus
from tdp.roles import (
    ParseFault,
    load_template,
    parse_evaluation,
    parse_plan,
    parse_replan,
    render_plan,
)
from tdp.telemetry import (
    EVENT_FIELDS,
    CounterClock,
    TraceEvent,
    TraceSink,
    compute_metrics,
    read_trace,
)

from conftest import CONFIG_DIR, TRAVEL_FIXTURE, WIKI_FIXTURES
from goldendiff import behaviour, call_lines, first_difference, read_call
from perfbench import chain
from scenarios import (
    ChainEnv,
    RecordingBackend,
    backends,
    chain_spec,
    diamond_config,
    diamond_instance,
    diamond_repair_config,
    diamond_repair_instance,
    diamond_rules,
    reworded_stage,
    travel_locality_config,
    travel_locality_instance,
    travel_locality_rules,
)

GOLDEN_DIR = Path(__file__).with_name("golden")

# a case builds (method, instance, environment, config) afresh each time it runs
Case = Callable[[], tuple[str, TaskInstance, Environment, RunConfig]]


def _fixture_case(method: str, fixture: Path, config_name: str) -> Case:
    def build():
        instance = load_task_instance(fixture)
        config = load_config(CONFIG_DIR / config_name)
        return method, instance, make_environment(instance.environment), config

    return build


def _chain_case(method: str, spec: chain.ChainSpec, revise: bool = False,
                **overrides: Any) -> Case:
    def build():
        rules = chain.tdp_rules(spec, revise) if method == "tdp" else chain.planact_rules(spec)
        config = chain.run_config(spec, backends(**rules))
        for name, value in overrides.items():
            setattr(config, name, value)
        return method, chain.instance(spec), ChainEnv(), config

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
        spec = chain_spec(stages)
        cases[f"tdp/chain{stages}"] = _chain_case("tdp", spec)
        cases[f"tdp-revise/chain{stages}"] = _chain_case("tdp", spec, revise=True)
        cases[f"plan-act/chain{stages}"] = _chain_case("plan-act", spec)
    for method in ("tdp", "plan-act"):
        # no replan allowed: both methods write the budget-exhausted replan event
        cases[f"{method}/chain3-no-replans"] = _chain_case(
            method, chain_spec(3), max_replans_per_node=0
        )
        # the benchmark's seeded shape: stage 5 plain, fillers of 37, 40, 37 and 43 words
        cases[f"{method}/chain5-seed1"] = _chain_case(method, chain.generate(1, 5, 4))
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
    prompt) the backends received in call order, the reply to each of those
    calls, the task query, the environment's id and its admissible commands."""

    trace: bytes
    calls: tuple[tuple[str, str], ...]
    replies: tuple[str, ...]
    query: str
    environment: str
    commands: tuple[str, ...]


def run_case(case: Case, trace_dir: Path) -> CaseRun:
    """Run `case` with a file sink on the counter clock and recording backends."""
    method, instance, env, config = case()
    calls: list[tuple[str, str]] = []
    replies: list[str] = []
    for role, backend in config.role_backends.items():
        config.role_backends[role] = recorder = RecordingBackend(backend)
        recorder.calls, recorder.replies = calls, replies
    path = trace_dir / f"{method}__{instance.id}.jsonl"
    sink = TraceSink(path, clock=CounterClock())
    if method == "tdp":
        run_task(instance, env, config, sink=sink)
    else:
        BASELINES[method](instance, env, config, sink=sink)
    return CaseRun(path.read_bytes(), tuple(calls), tuple(replies),
                   instance.query, instance.environment, tuple(env.admissible_commands()))


@lru_cache(maxsize=None)
def _run_of(name: str) -> CaseRun:
    with tempfile.TemporaryDirectory() as tmp:
        return run_case(CASES[name], Path(tmp))


def _read_run(name: str, tmp_path: Path) -> tuple[dict[str, Any], list[TraceEvent]]:
    """The case's one header and its events, read back from its trace file."""
    path = tmp_path / "trace.jsonl"
    path.write_bytes(_run_of(name).trace)
    headers, events = read_trace(path)
    ((_, header),) = headers.items()
    return header, events


def _files(name: str) -> dict[str, bytes]:
    """The case's trace file and its call lines, by the suffix of their golden files."""
    return {".jsonl": _run_of(name).trace, ".calls": call_lines(_run_of(name).calls)}


#: Each check: the golden file it reads, what of the file it compares, how it reads a line.
CHECKS = {"trace": (".jsonl", bytes, json.loads), "behaviour": (".jsonl", behaviour, json.loads),
          "prompts": (".calls", bytes, read_call)}


def test_the_golden_files_are_exactly_the_cases():
    stored = {p.relative_to(GOLDEN_DIR).as_posix() for p in GOLDEN_DIR.rglob("*") if p.is_file()}
    assert stored == {f"{name}{suffix}" for name in CASES for suffix in (".jsonl", ".calls")}


@pytest.mark.parametrize("check", CHECKS)
@pytest.mark.parametrize("name", sorted(CASES))
def test_the_run_matches_its_golden_files(name, check):
    suffix, view, read = CHECKS[check]
    stored = (GOLDEN_DIR / f"{name}{suffix}").read_bytes()
    difference = first_difference(view(stored), view(_files(name)[suffix]), read)
    assert difference is None, f"{check} check of {name}{suffix}: {difference}"


def _steps(*observations: str, tokens: int = 10) -> bytes:
    """A trace of one env_step event per observation, each from a prompt of `tokens`."""
    return b"".join(json.dumps({"kind": "env_step", "seq": seq, "payload": {
        "observation": o, "prompt_tokens": tokens}}).encode() + b"\n"
        for seq, o in enumerate(observations))


STEPS, CALLS = _steps("a", "b", "c"), call_lines((("planner:plan", "P"), ("executor:execute", "E")))


@pytest.mark.parametrize("check, live, difference", [
    ("trace", _steps("a", "moved", "c"),
     "line 2 (seq 1, kind env_step) differs in payload.observation"),
    ("trace", _steps("a", "b", "c", tokens=9),
     "line 1 (seq 0, kind env_step) differs in payload.prompt_tokens"),
    ("behaviour", _steps("a", "b", "c", tokens=9), None),
    ("trace", _steps("a", "b"), "line 3 (seq 2, kind env_step) is missing from the live run"),
    ("behaviour", _steps("a", "b", "c", "d"),
     "line 4 (seq 3, kind env_step) is extra in the live run"),
    ("trace", STEPS.rstrip(b"\n"), "line 3 (seq 2, kind env_step) differs in its bytes"),
    ("prompts", call_lines((("planner:plan", "P"), ("executor:execute", "e"))),
     "line 2 (role_tag executor:execute) differs in prompt"),
    ("prompts", call_lines((("planner:plan", "P"), ("planner:replan", "E"))),
     "line 2 (role_tag executor:execute) differs in role_tag"),
], ids=("changed", "resized", "resized-behaviour", "missing", "extra", "newline", "prompt", "role"))
def test_the_first_difference_names_the_line_its_event_or_call_and_the_keys(check, live,
                                                                            difference):
    _, view, read = CHECKS[check]
    stored = CALLS if check == "prompts" else STEPS
    assert first_difference(view(stored), view(live), read) == difference


NODE_SCOPED = ("planner:plan", "executor:execute", "supervisor:evaluate", "planner:replan")


@pytest.mark.parametrize("name", TDP_CASES)
def test_node_prompts_stay_scoped_to_their_node(name):
    """A node's prompts name the task only where its sub-goal does, and the
    evaluator, which judges but never acts, is never shown the action list;
    it always judges at least the step just taken."""
    run = _run_of(name)
    node_calls = [(tag, prompt) for tag, prompt in run.calls if tag in NODE_SCOPED]
    assert {tag for tag, _ in node_calls} >= {"planner:plan", "supervisor:evaluate"}
    for tag, prompt in node_calls:
        subgoal = prompt.split("Current Subgoal: ", 1)[1].split("\nCurrent Plan:", 1)[0]
        subgoal = subgoal.split("\nAvailable actions:", 1)[0]
        subgoal = subgoal.split("\nPrerequisite results:", 1)[0]
        assert run.query not in prompt or run.query in subgoal, (tag, prompt)
        if tag == "supervisor:evaluate":
            shown = [command for command in run.commands if command in prompt]
            assert not shown, (tag, shown)
            assert NO_ACTIONS_YET not in prompt, prompt


#: The prompts that plan or supervise, which name work but write no command,
#: and the prompts that write one.
CALL_SYNTAX_TAGS = ("supervisor:construct", "planner:plan", "planner:replan", "supervisor:revise")
FULL_LINE_TAGS = ("executor:execute", "executor:react")


@pytest.mark.parametrize("name", sorted(CASES))
def test_each_role_is_shown_the_command_list_its_decision_needs(name):
    """A prompt that plans or supervises lists each command's call syntax and
    none of its help texts; a prompt that writes a command lists the full
    command lines."""
    run = _run_of(name)
    full = "Available actions:\n" + "\n".join(run.commands) + "\n"
    calls = "Available actions:\n" + "\n".join(map(command_syntax, run.commands)) + "\n"
    helps = [line.split(" - ", 1)[1] for line in run.commands]
    assert full != calls and all(helps)
    checked = set()
    for tag, prompt in run.calls:
        if tag in CALL_SYNTAX_TAGS:
            assert calls in prompt, (tag, prompt)
            assert not [text for text in helps if text in prompt], (tag, prompt)
        elif tag in FULL_LINE_TAGS:
            assert full in prompt, (tag, prompt)
        else:
            continue
        checked.add(tag)
    assert checked and checked & set(FULL_LINE_TAGS), (name, checked)


def test_the_command_list_cases_cover_each_environment():
    """wiki, travel, textlab and the chain each run the construct, plan and
    execute templates in some case, and the chain also runs replan and revise."""
    tags: dict[str, set[str]] = {}
    for name in CASES:
        run = _run_of(name)
        tags.setdefault(run.environment, set()).update(tag for tag, _ in run.calls)
    for environment in ("mockwiki", "traveltoy", "textlab", ChainEnv.name):
        assert {"supervisor:construct", "planner:plan", "executor:execute"} <= tags[environment]
    assert set(CALL_SYNTAX_TAGS) <= tags[ChainEnv.name]
    assert "executor:react" in tags["mockwiki"]


PLAN_READERS = ("executor:execute", "supervisor:evaluate", "planner:replan")
_BLOCK_MARKUP_RE = re.compile(r"^(?:##\s*Step\b|Step:)", re.MULTILINE)


@pytest.mark.parametrize("name", sorted(CASES))
def test_each_prompt_after_the_plan_shows_the_latest_plan_as_its_steps(name):
    """The executor, the evaluator and the replanner see the plan of the
    latest planner reply in their scope (a plan, or an accepted replan's
    ``NewPlan``) exactly as :func:`render_plan` shows it, and no ``## Step``
    or ``Step:`` reply markup.  Scopes run one after another, so the latest
    reply in call order is the scope's own."""
    run = _run_of(name)
    planner_replies = [reply for (tag, _), reply in zip(run.calls, run.replies)
                       if tag.startswith("planner:")]
    replies = iter(planner_replies)
    shown: str | None = None
    readers = 0
    for tag, prompt in run.calls:
        if tag in PLAN_READERS:
            assert shown is not None and f"Current Plan:\n{shown}\n" in prompt, (tag, prompt)
            assert not _BLOCK_MARKUP_RE.search(prompt), (tag, prompt)
            readers += 1
        if not tag.startswith("planner:"):
            continue
        reply = next(replies)
        try:
            plan = parse_plan(reply) if tag == "planner:plan" else parse_replan(reply)
        except ParseFault:  # a retried reply is not the plan
            continue
        if plan is not None:
            shown = render_plan(plan)
    assert next(replies, None) is None
    assert readers or not planner_replies, name


#: The placeholder that guards each node-state rule, by the role tag of the
#: template that holds it (see ``test_roles.GUARDED_RULES``).
GUARDS = {"supervisor:revise": "failed_nodes", "planner:plan": "if_sink",
          "executor:execute": "guidance"}


def _guarded_calls(name: str, tmp_path: Path) -> list[tuple[str, str | None, str]]:
    """Each attempt of a guarded template's call in a tdp case: its role tag,
    the value its guard should be bound to by the state the trace shows, and
    the prompt.  A revise call's guard is the ids of the graph's failed nodes
    and a plan call's is ``""`` when nothing depends on its node (each
    ``None`` otherwise), read off :func:`replay_graph` of the events before
    the call; an execute call's is the reason of the evaluation before it when
    that asked for more steps without a replan."""
    _, events = _read_run(name, tmp_path)
    run = _run_of(name)
    attempts = iter(zip(run.calls, run.replies))
    guidance: str | None = None
    guarded = []
    for k, event in enumerate(events):
        if event.kind != "role_call":
            continue
        tag = f"{event.payload['role']}:{event.payload['template']}"
        calls = [next(attempts) for _ in range(event.payload["attempts"])]
        if tag == "supervisor:evaluate" and event.payload["ok"]:
            evaluation = parse_evaluation(calls[-1][1])
            more = evaluation.status == "needs_more_steps" and not evaluation.need_replan
            guidance = evaluation.reason if more else None
        if tag not in GUARDS:
            continue
        if tag == "executor:execute":
            value = guidance
        else:
            graph = replay_graph(events[:k])
            if tag == "planner:plan":
                node = event.payload["scope"]
                sink = not any(node in other.dependencies for other in graph.nodes.values())
                value = "" if sink else None
            else:
                failed = sorted(nid for nid, node in graph.nodes.items()
                                if node.status.value == "failed")
                value = ", ".join(failed) or None
        guarded.extend((tag, value, prompt) for (_, prompt), _reply in calls)
    assert next(attempts, None) is None
    return guarded


@pytest.mark.parametrize("name", TDP_CASES)
def test_each_guarded_rule_reaches_exactly_the_calls_whose_state_can_trigger_it(name,
                                                                                tmp_path):
    """The supervisor's repair rule is in a revise prompt exactly when a node
    of the graph has failed, and names those nodes; the planner's final-action
    rule is in a plan prompt exactly when nothing depends on the node; the
    executor's guidance rule comes exactly with the guidance."""
    lines = {tag: next(line for line in load_template(tag.split(":")[1]).body.split("\n")
                       if "{" + guard + "}" in line) for tag, guard in GUARDS.items()}
    for tag, value, prompt in _guarded_calls(name, tmp_path):
        line, guard = lines[tag], "{" + GUARDS[tag] + "}"
        if value is None:
            rule = max(line.split(guard), key=len)
            assert rule not in prompt, (tag, prompt)
        else:
            assert f"\n{line.replace(guard, value)}\n" in prompt, (tag, value, prompt)


def test_the_golden_cases_show_each_guarded_rule_both_ways(tmp_path):
    """Across the tdp cases every guarded rule is both sent and left out;
    ``tdp/diamond_repair`` is the case whose revise call sees a failed node."""
    sent = {(tag, value is not None) for name in TDP_CASES
            for tag, value, _ in _guarded_calls(name, tmp_path)}
    assert sent == {(tag, bound) for tag in GUARDS for bound in (True, False)}
    assert ("supervisor:revise", "node_3") in {
        (tag, value) for tag, value, _ in _guarded_calls("tdp/diamond_repair", tmp_path)}


def _revise_views(name: str, tmp_path: Path) -> list[tuple[list[str], str]]:
    """Each attempt of a revise call in a tdp case: the ids of the nodes its
    round closed, read off the terminal ``node_status`` events since the
    previous revise call, and the graph frontier its prompt showed."""
    _, events = _read_run(name, tmp_path)
    prompts = iter(prompt for tag, prompt in _run_of(name).calls if tag == "supervisor:revise")
    closed: list[str] = []
    views = []
    for event in events:
        if event.kind == "node_status" and NodeStatus(event.payload["status"]).terminal:
            closed.append(event.payload["node_id"])
        elif event.kind == "role_call" and event.payload["template"] == "revise":
            for _ in range(event.payload["attempts"]):
                frontier = next(prompts).split("\nGraph frontier:\n", 1)[1]
                views.append((closed, frontier.split("\n\nAvailable actions:", 1)[0]))
            closed = []
    assert next(prompts, None) is None
    return views


@pytest.mark.parametrize("name", TDP_CASES)
def test_each_revise_prompt_shows_each_node_once_and_each_closed_node_s_result(name,
                                                                              tmp_path):
    """No node id heads two lines of a revise prompt's frontier, and each
    node the round closed carries its ``result:`` line under its own line."""
    for closed, frontier in _revise_views(name, tmp_path):
        lines = frontier.split("\n")
        heads = [line.split()[1] for line in lines
                 if line.startswith("- ") and not line.startswith("- (")]
        assert len(heads) == len(set(heads)), frontier
        for node_id in closed:
            (at,) = [k for k, line in enumerate(lines) if line.startswith(f"- {node_id} [")]
            assert lines[at + 1].startswith("  result: "), (node_id, frontier)


def test_the_golden_revise_prompts_show_completed_and_failed_results(tmp_path):
    """The guard above reads rounds that closed a completed node and, in
    ``tdp/diamond_repair``, a failed one."""
    shown = {line.split()[2] for name in TDP_CASES
             for closed, frontier in _revise_views(name, tmp_path)
             for line in frontier.split("\n")
             if closed and line.startswith(tuple(f"- {node_id} [" for node_id in closed))}
    assert shown == {"[completed]", "[failed]"}


def test_no_prerequisite_line_carries_a_status():
    """A node runs only once each of its dependencies completed, so a
    prerequisite line of a tdp case gives the dependency's id and outcome,
    and no status."""
    statuses = tuple(f"{status.value}:" for status in NodeStatus)
    heads = [line for name in TDP_CASES for _, prompt in _run_of(name).calls
             if "\nPrerequisite results:\n" in prompt
             for line in prompt.split("\nPrerequisite results:\n", 1)[1]
             .split("\n\n", 1)[0].split("\n") if line.startswith("- [")]
    assert heads
    for line in heads:
        assert not line.split("] ", 1)[1].startswith(statuses), line


@pytest.mark.parametrize("name", sorted(CASES))
def test_no_role_is_called_after_the_episode_ends(name):
    events = [json.loads(line) for line in _run_of(name).trace.splitlines()]
    ends = [i for i, e in enumerate(events) if e["kind"] == "env_step" and e["payload"]["done"]]
    after = [e["kind"] for e in events[ends[0] + 1:]] if ends else []
    assert "role_call" not in after, after


@pytest.mark.parametrize("name", sorted(CASES))
def test_every_event_matches_the_event_table(name, tmp_path):
    """Each event the case wrote, read back from its file, has every
    required field of its kind, each of a declared type, and no other."""
    _, events = _read_run(name, tmp_path)
    for event in events:
        fields = EVENT_FIELDS[event.kind]
        where = f"{event.kind} event {event.seq}"
        assert set(event.payload) <= set(fields), (where, sorted(set(event.payload) - set(fields)))
        check_fields(event.payload, fields, where=where, error=AssertionError)


@pytest.mark.parametrize("name", TDP_CASES)
def test_the_trace_alone_rebuilds_the_final_graph(name, tmp_path):
    """The record's node records are the dispatched nodes, each of which
    replay_graph over the trace file rebuilds or records as retired; the
    revising chains' nodes carry their reworded descriptions."""
    header, events = _read_run(name, tmp_path)
    assert header["version"] == 2
    graph = replay_graph(events)
    dispatched = [e.payload["node_id"] for e in events if e.kind == "node_dispatched"]
    record = compute_metrics(events, header["meta"]["gold"])
    assert graph.nodes and list(record.node_records) == sorted(dispatched)
    assert set(dispatched) <= graph.nodes.keys() | graph.retired
    assert {nid: node.status.value for nid, node in graph.nodes.items()} == {
        nid: record.node_records[nid]["status"] if nid in dispatched else "pending"
        for nid in graph.nodes}
    if name.startswith("tdp-revise/"):
        stages = len(graph.nodes)
        assert {nid: node.description for nid, node in graph.nodes.items()} == {
            f"node_{i}": "Handle stage 1 of the queue." if i == 1 else reworded_stage(i)
            for i in range(1, stages + 1)
        }


def test_the_repair_case_completes_by_revision(tmp_path):
    """node_3 fails; the round's revision removes it and adds node_5 before
    the blocked node_4; node_5 and then node_4 complete, and the run delivers.
    The record keeps node_3, failed, beside the nodes of the final graph."""
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
    header, trace = _read_run("tdp/diamond_repair", tmp_path)
    records = compute_metrics(trace, header["meta"]["gold"]).node_records
    assert {nid: record["status"] for nid, record in records.items()} == {
        "node_1": "completed", "node_2": "completed", "node_3": "failed",
        "node_4": "completed", "node_5": "completed"}


def test_replaying_the_repair_case_gives_each_node_its_last_status(tmp_path):
    """The replayed graph holds node_3's replacement, not node_3, and every
    node the run completed reads completed."""
    header, events = _read_run("tdp/diamond_repair", tmp_path)
    graph = replay_graph(events)
    assert {nid: node.status.value for nid, node in graph.nodes.items()} == {
        "node_1": "completed", "node_2": "completed", "node_4": "completed",
        "node_5": "completed"}
    assert graph.retired == {"node_3"}


@pytest.mark.parametrize("method", ("tdp", "plan-act"))
def test_the_seeded_chain_clears_its_plain_stage_without_a_replan(method, tmp_path):
    """The seed-1 chain5 leaves stage 5 plain: both methods clear it on
    ``work 5`` alone, taking one step per stage plus one per obstacle and
    one accepted replan per obstacle."""
    spec = chain.generate(1, 5, 4)
    events = [json.loads(line) for line in _run_of(f"{method}/chain5-seed1").trace.splitlines()]
    actions = [e["payload"]["action"] for e in events if e["kind"] == "env_step"]
    assert "work 5" in actions and "resolve 5" not in actions
    replans = [e["payload"]["accepted"] for e in events if e["kind"] == "replan"]
    assert replans == [True] * len(spec.obstacles)
    header, trace = _read_run(f"{method}/chain5-seed1", tmp_path)
    record = compute_metrics(trace, header["meta"]["gold"])
    assert (record.terminal, record.steps_used) == ("Completed", spec.steps)


def _regenerate() -> None:
    """Run every case, then rewrite ``tests/golden/`` with their files alone."""
    files = {GOLDEN_DIR / f"{name}{suffix}": data
             for name in sorted(CASES) for suffix, data in _files(name).items()}
    shutil.rmtree(GOLDEN_DIR, ignore_errors=True)
    for path, data in files.items():
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_bytes(data)
    print(f"wrote {len(files)} files to {GOLDEN_DIR}", file=sys.stderr)


if __name__ == "__main__":
    _regenerate()
