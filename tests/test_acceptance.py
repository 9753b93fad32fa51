"""End-to-end acceptance gate.

One test per shipped guarantee, each pinned at its stated tolerance.  These
are deliberately heavier than the unit modules (exhaustive sweeps, multi-run
batches); `test_criterion_02` dominates the wall time at about 71 seconds
(137 CPU seconds) on a shared 2-core host under Python 3.11.7.  Its sweep
walks each graph through every status combo in reflected base-4 Gray-code
order (`graphgen.gray_steps`), so each combo restamps one node, and checks
`ready_nodes` against `graphgen.oracle_ready_sweep`, which updates the ready
set it reads off the status codes for that node and its direct dependents
only.  The DAGs are checked in slices by `graphgen.check_ready_sweep` in
spawned worker processes, at most four and one per core; run in one process
the sweep took 119 s, timed back to back.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import random
import time

import pytest

from tdp.baselines import BASELINES, run_plan_and_act
from tdp.cli import load_config
from tdp.engine import (
    Run,
    RunConfig,
    execute_node,
    run_task,
)
from tdp.environments import load_task_instance, make_environment
from tdp.graph import (
    NodeStatus,
    SubTaskNode,
    TaskGraph,
    ready_nodes,
)
from tdp.roles import (
    ParseFault,
    RemoteChatBackend,
    parse_evaluation,
    parse_plan,
    parse_replan,
    parse_revision,
    parse_subgoals,
)
from tdp.telemetry import TraceSink, compute_metrics, read_trace

from conftest import CONFIG_DIR, LAB_FIXTURE, TRAVEL_FIXTURE, WIKI_FIXTURES
from envgen import ACTION_POOLS, run_stream, stream_rewards
from graphgen import (
    LABELED_DAG_COUNTS,
    check_ready_sweep,
    enumerate_labeled_dags,
    oracle_ready,
    random_dag,
    run_revision_sequence,
)
from parsergen import PARSER_CASES
from scenarios import (
    ChainEnv,
    DIAMOND_EXPECTED,
    TRAVEL_N2,
    TRAVEL_N3,
    TRAVEL_SENTINELS,
    chain_config,
    chain_instance,
    diamond_config,
    diamond_instance,
    diamond_rules,
    graph_with_target,
    planact_chain_rules,
    project,
    target_plan_prompt,
    tdp_chain_rules,
    travel_locality_config,
    travel_locality_instance,
    travel_locality_rules,
)


def _passed(n: int) -> None:
    print(f"[acceptance] criterion {n}: PASS", flush=True)


# ---------------------------------------------------------------------------
# 1. construction/revision streams keep every graph invariant, atomically


def test_criterion_01_revision_streams_hold_invariants_under_ten_seconds():
    started = time.perf_counter()
    applied = 0
    for i in range(1000):
        applied += run_revision_sequence(random.Random(20_000 + i), length=10)
    elapsed = time.perf_counter() - started

    assert 0 < applied < 10_000, "stream must exercise both applied and rejected paths"
    assert elapsed < 10.0, f"1000 sequences took {elapsed:.2f}s"
    _passed(1)


# ---------------------------------------------------------------------------
# 2. ready-set computation equals the brute-force definition — exhaustively
#    for every labeled DAG of up to five nodes under every status assignment,
#    then on random 12-node graphs


def test_criterion_02_ready_set_matches_oracle_exhaustively_to_five_nodes():
    """The sweep's DAGs are checked in slices, split across at most four
    spawned worker processes, one per core."""
    workers = min(os.cpu_count() or 1, 4)
    slices = []
    for n in range(1, 6):
        dags = list(enumerate_labeled_dags(n))
        assert len(dags) == LABELED_DAG_COUNTS[n]
        size = -(-len(dags) // (4 * workers))  # four slices a worker, so no core idles long
        slices += [(n, dags[i:i + size]) for i in range(0, len(dags), size)]
    with multiprocessing.get_context("spawn").Pool(workers) as pool:
        checked = sum(pool.starmap_async(check_ready_sweep, slices).get(timeout=900))
    assert checked == sum(LABELED_DAG_COUNTS[n] * 4**n for n in range(1, 6))

    for i in range(500):
        graph = random_dag(random.Random(7_000 + i), 12)
        assert ready_nodes(graph) == oracle_ready(graph)
    _passed(2)


# ---------------------------------------------------------------------------
# 3. a dead-end inside the flights node replans that node and nothing else


def _snapshot(node: SubTaskNode) -> bytes:
    doc = {
        "id": node.id,
        "description": node.description,
        "dependencies": sorted(node.dependencies),
        "status": node.status.value,
        "replan_count": node.replan_count,
        "plan": None if node.plan is None else list(node.plan.steps),
        "trace": [(e.action, e.observation) for e in node.local_trace],
        "outcome": None
        if node.outcome is None
        else {
            "terminal_status": node.outcome.terminal_status.value,
            "summary_text": node.outcome.summary_text,
            "key_observations": list(node.outcome.key_observations),
        },
    }
    return json.dumps(doc, sort_keys=True).encode()


def _locality_graph() -> TaskGraph:
    graph = TaskGraph()
    graph.nodes["node_1"] = SubTaskNode(
        id="node_1", description="Confirm the Illinois cities for the trip."
    )
    graph.nodes["node_2"] = SubTaskNode(
        id="node_2", description=TRAVEL_N2, dependencies={"node_1"}
    )
    graph.nodes["node_3"] = SubTaskNode(
        id="node_3", description=TRAVEL_N3, dependencies={"node_1"}
    )
    return graph


def test_criterion_03_replanning_is_confined_to_the_blocked_node():
    # full run: exactly one replan event, scoped to node_2, and node_3's
    # prompts never contain anything node_2 observed
    role_backends = travel_locality_rules()
    config = travel_locality_config(role_backends)
    instance = travel_locality_instance("blocked")
    sink = TraceSink(clock=config.make_clock())
    report = run_task(instance, make_environment(instance.environment), config, sink=sink)

    assert report.terminal == "Completed"
    events = sink.events_for(report.run_id)
    replans = [e for e in events if e.kind == "replan"]
    assert len(replans) == 1
    assert replans[0].payload["accepted"] is True
    assert replans[0].payload["scope"] == "node_2"
    assert report.node_records["node_2"]["replan_count"] == 1
    assert report.node_records["node_1"]["replan_count"] == 0
    assert report.node_records["node_3"]["replan_count"] == 0

    flights_observations = [
        e.payload["observation"]
        for e in events
        if e.kind == "env_step" and e.payload["scope"] == "node_2"
    ]
    assert flights_observations, "scenario must actually exercise node_2"
    lodging_prompts = [
        prompt
        for backend in (role_backends["planner"], role_backends["executor"])
        for _, prompt in backend.calls
        if TRAVEL_N3 in prompt
    ]
    assert lodging_prompts, "node_3 must have been planned and executed"
    for prompt in lodging_prompts:
        for observed in flights_observations:
            assert observed not in prompt
        for sentinel in ("F101", "F204", "F150", "No flights found"):
            assert sentinel not in prompt

    # replayed step by step: other nodes' serialized state is byte-identical
    # before and after the replanning node runs
    config2 = travel_locality_config(travel_locality_rules())
    run = Run("tdp", instance, make_environment(instance.environment), config2)
    graph = _locality_graph()

    assert execute_node(graph, "node_1", run) is NodeStatus.COMPLETED
    before = {nid: _snapshot(graph.nodes[nid]) for nid in ("node_1", "node_3")}
    assert execute_node(graph, "node_2", run) is NodeStatus.COMPLETED
    assert graph.nodes["node_2"].replan_count == 1
    after = {nid: _snapshot(graph.nodes[nid]) for nid in ("node_1", "node_3")}
    assert after == before

    assert execute_node(graph, "node_3", run) is NodeStatus.COMPLETED
    for sentinel in TRAVEL_SENTINELS:
        assert sentinel not in _snapshot(graph.nodes["node_3"]).decode()
    _passed(3)


# ---------------------------------------------------------------------------
# 4. the planner prompt for a node is exactly invariant under adding
#    unrelated completed nodes to the graph


def test_criterion_04_planner_prompt_invariant_under_unrelated_nodes():
    baseline = target_plan_prompt(graph_with_target(0))
    for extra in range(1, 21):
        widened = target_plan_prompt(graph_with_target(extra))
        assert widened == baseline, f"prompt drifted with {extra} unrelated nodes"
    _passed(4)


# ---------------------------------------------------------------------------
# 5. replanning cost: bounded per node here, growing with history for the
#    single-context baseline — and the gap widens with task length


def _chain_replan_sizes(method: str, stages: int) -> tuple[list[int], int]:
    if method == "tdp":
        role_backends = tdp_chain_rules(stages)
        config = chain_config(stages, role_backends)
        sink = TraceSink(clock=config.make_clock())
        report = run_task(chain_instance(stages), ChainEnv(), config, sink=sink)
    else:
        role_backends = planact_chain_rules(stages)
        config = chain_config(stages, role_backends)
        sink = TraceSink(clock=config.make_clock())
        report = run_plan_and_act(chain_instance(stages), ChainEnv(), config, sink=sink)
    assert report.terminal == "Completed"
    events = sink.events_for(report.run_id)
    accepted = [e for e in events if e.kind == "replan" and e.payload["accepted"]]
    assert len(accepted) == stages
    sizes = [
        e.payload["prompt_chars"]
        for e in events
        if e.kind == "role_call" and e.payload["template"] == "replan"
    ]
    assert len(sizes) == stages
    return sizes, report.steps_used


def test_criterion_05_replan_prompts_stay_bounded_while_baseline_grows():
    widths = (3, 5, 8)
    scoped: dict[int, list[int]] = {}
    global_ctx: dict[int, list[int]] = {}
    for stages in widths:
        scoped[stages], _ = _chain_replan_sizes("tdp", stages)
        global_ctx[stages], _ = _chain_replan_sizes("plan-act", stages)

    for stages in widths:
        sizes = global_ctx[stages]
        assert all(a < b for a, b in zip(sizes, sizes[1:])), (
            f"single-context replan prompts must grow with history (W={stages}): {sizes}"
        )
    assert max(scoped[8]) <= 1.10 * max(scoped[3]), (
        f"node-scoped replan prompts must stay bounded: {scoped}"
    )

    reductions = [
        1.0 - sum(scoped[stages]) / sum(global_ctx[stages]) for stages in widths
    ]
    assert reductions[0] > 0.0
    assert reductions[0] < reductions[1] < reductions[2], reductions
    _passed(5)


# ---------------------------------------------------------------------------
# 6. the diamond run reproduces its expected transcript, cut off at exactly
#    the configured step budget


def test_criterion_06_diamond_transcript_matches_expected_projection():
    config = diamond_config(diamond_rules())
    sink = TraceSink(clock=config.make_clock())
    report = run_task(diamond_instance(), make_environment("textlab"), config, sink=sink)

    events = sink.events_for(report.run_id)
    assert [project(e) for e in events] == list(DIAMOND_EXPECTED)
    assert [e.seq for e in events] == list(range(len(events)))
    assert sum(1 for e in events if e.kind == "env_step") == config.s_max == 3
    assert report.terminal == "Terminated"
    assert report.steps_used == 3
    _passed(6)


# ---------------------------------------------------------------------------
# 7. structured-output parsers: 500 generated documents each round-trip;
#    500 corrupted documents each rejected


_PARSERS = {
    "subgoals": parse_subgoals,
    "plan": parse_plan,
    "evaluation": parse_evaluation,
    "replan": parse_replan,
    "revision": parse_revision,
}


def test_criterion_07_parsers_round_trip_and_reject_corruption():
    for kind, (gen, corrupt) in PARSER_CASES.items():
        parser = _PARSERS[kind]
        rng = random.Random(50_000 + len(kind))
        for _ in range(500):
            text, expected = gen(rng)
            assert parser(text) == expected
        for _ in range(500):
            with pytest.raises(ParseFault):
                parser(corrupt(rng))
    _passed(7)


# ---------------------------------------------------------------------------
# 8. environment mocks: deterministic under replay, rewards well-behaved


def test_criterion_08_mock_environments_replay_identically():
    fixtures = [WIKI_FIXTURES[0], TRAVEL_FIXTURE, LAB_FIXTURE]
    for path in fixtures:
        instance = load_task_instance(path)
        pool = ACTION_POOLS[instance.environment]
        for i in range(200):
            rng = random.Random(90_000 + i)
            actions = pool(rng, instance, length=25)
            first_log, first_metrics = run_stream(instance, actions)
            second_log, second_metrics = run_stream(instance, actions)
            assert second_log == first_log
            assert second_metrics == first_metrics

            totals = stream_rewards(first_log)
            assert all(0.0 <= t <= 1.0 + 1e-9 for t in totals)
            assert all(a <= b + 1e-9 for a, b in zip(totals, totals[1:]))
    _passed(8)


# ---------------------------------------------------------------------------
# 9. metrics recomputed from a trace file equal the live computation, exactly,
#    across a 30-run batch spanning every method and scenario


def _batch_runs(tmp_path):
    """Yield (instance, env, config, runner, method) covering 30 runs."""
    for fixture in WIKI_FIXTURES:  # 3 fixtures x 4 methods
        for method in ("tdp", "react", "cot", "plan-act"):
            instance = load_task_instance(fixture)
            config = load_config(CONFIG_DIR / "scripted_wiki.json")
            yield instance, make_environment(instance.environment), config, method

    instance = load_task_instance(TRAVEL_FIXTURE)
    config = load_config(CONFIG_DIR / "scripted_travel.json")
    yield instance, make_environment(instance.environment), config, "tdp"

    for variant in ("blocked", "direct"):
        instance = travel_locality_instance(variant)
        config = travel_locality_config(travel_locality_rules())
        yield instance, make_environment(instance.environment), config, "tdp"

    yield diamond_instance(), make_environment("textlab"), diamond_config(
        diamond_rules()
    ), "tdp"

    for stages in range(3, 10):  # 7 widths x 2 methods
        yield chain_instance(stages), ChainEnv(), chain_config(
            stages, tdp_chain_rules(stages)
        ), "tdp"
        yield chain_instance(stages), ChainEnv(), chain_config(
            stages, planact_chain_rules(stages)
        ), "plan-act"


def test_criterion_09_replayed_metrics_equal_live_metrics(tmp_path):
    live_records = []
    replayed_records = []
    runs = 0
    for instance, env, config, method in _batch_runs(tmp_path):
        runs += 1
        path = tmp_path / f"{method}__{instance.id}.jsonl"
        sink = TraceSink(path, clock=config.make_clock())
        if method == "tdp":
            report = run_task(instance, env, config, sink=sink)
        else:
            report = BASELINES[method](instance, env, config, sink=sink)

        live = compute_metrics(sink.events_for(report.run_id), instance.gold)
        _, replayed_events = read_trace(path)
        replayed = compute_metrics(replayed_events, instance.gold)
        live_records.append(live)
        replayed_records.append(replayed)

    assert runs == 30
    assert replayed_records == live_records
    _passed(9)


# ---------------------------------------------------------------------------
# 10. optional live smoke against a real chat-completions endpoint


_LIVE_VARS = ("TDP_ENDPOINT", "TDP_MODEL", "TDP_API_KEY")


@pytest.mark.skipif(
    not all(os.environ.get(v) for v in _LIVE_VARS),
    reason=f"live smoke runs only with {', '.join(_LIVE_VARS)} set",
)
def test_criterion_10_live_backend_smoke(tmp_path):
    backend = RemoteChatBackend(
        endpoint=os.environ["TDP_ENDPOINT"],
        model=os.environ["TDP_MODEL"],
        credential_env="TDP_API_KEY",
    )
    config = RunConfig(s_max=4, role_backends={"executor": backend})
    instance = load_task_instance(WIKI_FIXTURES[-1])
    path = tmp_path / "live.jsonl"
    sink = TraceSink(path, clock=config.make_clock())
    report = BASELINES["react"](
        instance, make_environment(instance.environment), config, sink=sink
    )
    assert report.terminal in ("Completed", "Terminated")
    assert path.exists() and path.stat().st_size > 0
    _passed(10)
