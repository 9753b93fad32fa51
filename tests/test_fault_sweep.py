"""Single-fault sweep: one fault at model call k, for every k, under every method.

Each case runs once without a fault to count its model calls n, then once per
fault kind (:attr:`scenarios.FaultAt.FAULTS`) and k = 1 .. n + 1, the last k
past the run's final call.  Every run must return, or re-raise only the
injected error; end on exactly one ``run_end``; replay from its trace file to
its live metrics record, whose tokens are unknown exactly when a call raised
or went unreported and whose per-role account agrees with the sums taken
here from the ``role_call`` events; stay within its method's attempt bound
and ``s_max`` steps; and move each node's status only along legal
transitions.  A tdp record's node records must list exactly the dispatched
nodes, each of which the trace alone rebuilds or records as retired.  An
``unparseable`` or ``mistyped`` reply must be refused: the role call whose
first attempt it was records a retry or ``ok: false``.
"""

from __future__ import annotations

from pathlib import Path
from typing import Any, Callable

import pytest

from tdp.baselines import BASELINES
from tdp.cli import load_config
from tdp.engine import RunConfig, replay_graph, run_task
from tdp.environments import Environment, TaskInstance, load_task_instance, make_environment
from tdp.graph import NodeStatus, legal_transition
from tdp.telemetry import CounterClock, TraceEvent, TraceSink, compute_metrics, read_trace

from conftest import CONFIG_DIR, FIXTURE_DIR
from scenarios import (
    ATTEMPT_BOUNDS,
    ChainEnv,
    FaultAt,
    chain_config,
    chain_instance,
    dispatches,
    planact_chain_rules,
    tdp_chain_rules,
    with_fault,
)

# a case builds (instance, environment, config) afresh for every run
Case = Callable[[], tuple[TaskInstance, Environment, RunConfig]]


def _wiki_bridge() -> tuple[TaskInstance, Environment, RunConfig]:
    instance = load_task_instance(FIXTURE_DIR / "wiki" / "wiki_bridge.json")
    config = load_config(CONFIG_DIR / "scripted_wiki.json")
    return instance, make_environment(instance.environment), config


def _chain3(method: str) -> Case:
    def build():
        rules = tdp_chain_rules(3) if method == "tdp" else planact_chain_rules(3)
        return chain_instance(3), ChainEnv(), chain_config(3, rules)

    return build


CASES: dict[tuple[str, str], Case] = {
    **{(method, "wiki_bridge"): _wiki_bridge for method in ("tdp", "react", "cot", "plan-act")},
    ("tdp", "chain3"): _chain3("tdp"),
    ("plan-act", "chain3"): _chain3("plan-act"),
}


def _run(method: str, case: Case, at: int, fault: str, trace: Path):
    """Run `case` with `fault` at model call `at` (none at 0); return the
    instance, the config, the sink, the role tags called and the error the
    run raised."""
    instance, env, config = case()
    config, calls = with_fault(config, at, fault)
    sink = TraceSink(trace, clock=CounterClock())
    runner = run_task if method == "tdp" else BASELINES[method]
    try:
        runner(instance, env, config, sink=sink, run_id="r")
        raised = None
    except Exception as err:  # judged by the caller
        raised = err
    return instance, config, sink, calls, raised


def _role_sums(events: list[TraceEvent]) -> dict[str, dict[str, Any]]:
    """Each role's prompt and output tokens summed over its ``role_call``
    events, unknown (``None``) once a call raised or went unreported."""
    sums: dict[str, dict[str, Any]] = {}
    for event in events:
        if event.kind == "role_call":
            p = event.payload
            role = sums.setdefault(p["role"], {"prompt_tokens": 0, "output_tokens": 0})
            for key in role:
                known = role[key] is not None and p[key] is not None and "error" not in p
                role[key] = role[key] + p[key] if known else None
    return sums


def _check_refused(events: list[TraceEvent], k: int, where: str) -> None:
    """The role call whose first attempt was model call `k` retried or failed."""
    first = 1
    for event in events:
        if event.kind == "role_call":
            if first == k:
                p = event.payload
                assert p["attempts"] > 1 or not p["ok"], (where, p)
                return
            first += event.payload["attempts"]
    raise AssertionError(f"{where}: no role call began at model call {k}")


def _check_statuses(events: list[TraceEvent], where: str) -> None:
    status: dict[str, NodeStatus] = {}
    for event in events:
        if event.kind == "node_status":
            nid, new = event.payload["node_id"], NodeStatus(event.payload["status"])
            old = status.get(nid, NodeStatus.PENDING)
            assert legal_transition(old, new), f"{where}: {nid} {old.value} -> {new.value}"
            status[nid] = new


@pytest.mark.parametrize("fault", FaultAt.FAULTS)
@pytest.mark.parametrize("method, task", sorted(CASES))
def test_one_fault_at_any_model_call_leaves_a_sound_run(method, task, fault, tmp_path):
    case = CASES[method, task]
    *_, clean_calls, clean_error = _run(method, case, 0, fault, tmp_path / "clean.jsonl")
    assert clean_error is None and clean_calls
    for k in range(1, len(clean_calls) + 2):
        where = f"{method} on {task}, {fault} at call {k}"
        path = tmp_path / f"k{k}.jsonl"
        instance, config, sink, calls, raised = _run(method, case, k, fault, path)
        if fault == "error" and k <= len(clean_calls):
            assert isinstance(raised, RuntimeError), (where, raised)
            assert str(raised) == f"injected fault at call {k}", where
        else:
            assert raised is None, (where, raised)
        events = sink.events_for("r")
        run_ends = [e for e in events if e.kind == "run_end"]
        assert run_ends == [events[-1]], where

        live = compute_metrics(events, instance.gold, method=method, run_id="r")
        unknown = fault in ("error", "no_usage") and k <= len(clean_calls)
        assert (live.avg_prompt_tokens is None) is unknown, where
        assert live.role_tokens == _role_sums(events), where
        for key, total in (("prompt_tokens", live.avg_prompt_tokens),
                           ("output_tokens", live.avg_output_tokens)):
            sums = [role[key] for role in live.role_tokens.values()]
            assert (None if None in sums else sum(sums)) == total, where
        _, replayed_events = read_trace(path)
        assert compute_metrics(replayed_events, instance.gold, method=method) == live, where

        attempts = sum(e.payload["attempts"] for e in events if e.kind == "role_call")
        assert attempts == len(calls), where
        assert attempts <= ATTEMPT_BOUNDS[method](config.s_max, config.parser_retry_budget), where
        steps = [e for e in events if e.kind == "env_step"]
        assert len(steps) == live.steps_used <= config.s_max, where
        _check_statuses(events, where)
        if fault in ("unparseable", "mistyped") and k <= len(clean_calls):
            _check_refused(events, k, where)
        dispatched = [e.payload["node_id"] for e in dispatches(events)]
        assert list(live.node_records) == sorted(dispatched), where
        if method == "tdp":
            graph = replay_graph(replayed_events)
            assert set(dispatched) <= graph.nodes.keys() | graph.retired, where
