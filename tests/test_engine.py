"""Engine orchestration: budgets, node-scoped context, replanning, revision."""

from __future__ import annotations

import json

import pytest

from tdp.engine import (
    NO_ACTIONS_YET,
    EngineError,
    RunConfig,
    StepCounter,
    assemble_history,
    build_planner_prompt,
    construct,
    execute_node,
    render_context_history,
    run_task,
    task_done,
)
from tdp.environments import make_environment
from tdp.graph import (
    NodeScopedContext,
    NodeStatus,
    OutcomeSummary,
    SubTaskNode,
    TaskGraph,
    TraceEntry,
)
from tdp.roles import RoleFault, ScriptedBackend, load_templates
from tdp.telemetry import CounterClock, TokenLedger, TraceSink, read_trace

from scenarios import (
    DIAMOND_EXPECTED,
    NOOP_REVISION,
    ChainEnv,
    backends,
    chain_config,
    chain_instance,
    diamond_config,
    diamond_instance,
    diamond_rules,
    eval_reply,
    plan_reply,
    project,
    replan_accept,
    replan_decline,
    rule,
    subgoals_reply,
    tdp_chain_rules,
    travel_locality_config,
    travel_locality_instance,
    travel_locality_rules,
)


def entry(i, action="look", obs="nothing"):
    return TraceEntry(step_index=i, action=action, observation=obs)


# -- configuration and counters ---------------------------------------------------


class TestRunConfig:
    @pytest.mark.parametrize(
        "kwargs, message",
        [
            ({"s_max": 0}, "s_max must be >= 1"),
            ({"history_cap": 1}, "history_cap must be >= 2"),
            ({"max_replans_per_node": -1}, "max_replans_per_node"),
            ({"parser_retry_budget": -1}, "parser_retry_budget"),
            ({"outcome_keep": 0}, "outcome_keep"),
            ({"parallel_tasks": 0}, "parallel_tasks"),
        ],
    )
    def test_bounds_enforced(self, kwargs, message):
        with pytest.raises(EngineError, match=message):
            RunConfig(**kwargs)

    def test_missing_backend_named(self):
        config = RunConfig(role_backends={"executor": ScriptedBackend([])})
        with pytest.raises(EngineError, match="no backend configured for role 'planner'"):
            config.backend("planner")
        with pytest.raises(EngineError, match="supervisor, planner"):
            config.require_roles("supervisor", "planner", "executor")

    def test_deterministic_clock_choice(self):
        assert isinstance(RunConfig().make_clock(), CounterClock)
        import time

        assert RunConfig(deterministic_clock=False).make_clock() is time.time


class TestStepCounter:
    def test_counts_up_to_limit(self):
        steps = StepCounter(used=0, limit=2)
        assert not steps.exhausted()
        assert steps.next_index() == 1
        assert steps.next_index() == 2
        assert steps.exhausted()

    def test_overrun_is_a_defect(self):
        steps = StepCounter(used=1, limit=1)
        with pytest.raises(EngineError, match="gate before acting"):
            steps.next_index()


# -- history rendering ---------------------------------------------------------------


class TestAssembleHistory:
    def test_empty_trace_placeholder(self):
        assert assemble_history([], cap=10) == NO_ACTIONS_YET

    def test_under_cap_renders_everything(self):
        text = assemble_history([entry(1, "a1", "o1"), entry(2, "a2", "o2")], cap=5)
        assert text == "Action: a1\nObservation: o1\nAction: a2\nObservation: o2"

    def test_at_cap_has_no_elision(self):
        trace = [entry(i) for i in range(1, 6)]
        assert "elided" not in assemble_history(trace, cap=5)

    def test_overflow_keeps_first_then_most_recent(self):
        trace = [entry(i, f"a{i}", f"o{i}") for i in range(1, 101)]
        text = assemble_history(trace, cap=10)
        lines = text.splitlines()
        assert lines[0] == "Action: a1"
        assert lines[2] == "... 90 steps elided ..."
        assert lines[3] == "Action: a92"  # the most recent cap-1 = 9 entries
        assert lines[-1] == "Observation: o100"
        # exactly 1 + 9 entries rendered
        assert sum(1 for l in lines if l.startswith("Action: ")) == 10


class TestRenderContextHistory:
    def test_without_dependencies_is_just_the_local_trace(self):
        context = NodeScopedContext(
            subgoal="g", dependency_ids=(), dependency_outcomes=(),
            local_trace=(entry(1, "a", "o"),))
        assert render_context_history(context, cap=5) == "Action: a\nObservation: o"

    def test_dependency_outcomes_render_ids_not_descriptions(self):
        outcome = OutcomeSummary(
            terminal_status=NodeStatus.COMPLETED,
            summary_text="Cities confirmed.",
            key_observations=("Cities in Illinois: Chicago, Peoria",))
        context = NodeScopedContext(
            subgoal="Book flights.", dependency_ids=("node_1",),
            dependency_outcomes=(outcome,), local_trace=())
        text = render_context_history(context, cap=5)
        assert text == (
            "Results from prerequisite sub-tasks:\n"
            "- [node_1] completed: Cities confirmed.\n"
            "  observed: Cities in Illinois: Chicago, Peoria\n"
            "\n"
            "(no actions yet)"
        )


# -- node-scoped planner prompts -------------------------------------------------------


def _graph_with_target(extra_completed: int = 0) -> TaskGraph:
    graph = TaskGraph(task_description="Survey the lab.")
    done = OutcomeSummary(
        terminal_status=NodeStatus.COMPLETED, summary_text="Prerequisite finished.",
        key_observations=("all clear",))
    graph.nodes["node_1"] = SubTaskNode(
        id="node_1", description="Scout the room.",
        status=NodeStatus.COMPLETED, outcome=done)
    graph.nodes["node_2"] = SubTaskNode(
        id="node_2", description="Measure the scale.", dependencies={"node_1"})
    for i in range(extra_completed):
        nid = f"node_x{i}"
        graph.nodes[nid] = SubTaskNode(
            id=nid, description=f"Unrelated chore {i} with its own long story.",
            status=NodeStatus.COMPLETED, outcome=done)
    return graph


class TestPlannerPromptBoundedness:
    def test_unrelated_completed_nodes_leave_the_prompt_identical(self):
        env = make_environment("textlab")
        env.reset(diamond_instance())
        config = RunConfig()
        baseline = build_planner_prompt(_graph_with_target(0), "node_2", env, config)
        for extra in (1, 3):
            widened = build_planner_prompt(_graph_with_target(extra), "node_2", env, config)
            assert widened == baseline
        assert "Unrelated chore" not in baseline
        assert "Measure the scale." in baseline
        assert "Prerequisite finished." in baseline


# -- construction ------------------------------------------------------------------------


def _lab_env():
    env = make_environment("textlab")
    env.reset(diamond_instance())
    return env


class TestConstruct:
    def test_valid_decomposition_becomes_a_graph(self):
        reply = subgoals_reply(("node_1", "Open the drawer.", []),
                               ("node_2", "Read the dial.", ["node_1"]))
        config = RunConfig(role_backends={"supervisor": ScriptedBackend([
            rule("supervisor:construct", [], reply)])})
        sink = TraceSink(clock=CounterClock())
        sink.begin_run("r", {})
        ledger = TokenLedger()
        graph = construct("Survey.", _lab_env(), config, ledger=ledger, sink=sink, run_id="r")
        assert set(graph.nodes) == {"node_1", "node_2"}
        assert graph.nodes["node_2"].dependencies == {"node_1"}
        assert graph.task_description == "Survey."
        (event,) = sink.events_for("r")
        assert event.payload["ok"] is True and event.payload["scope"] == "global"
        assert ledger.total().output_tokens > 0

    def test_structurally_invalid_decomposition_consumes_retries(self):
        bad = subgoals_reply(("node_1", "First.", []), ("node_2", "Orphan.", ["ghost"]))
        good = subgoals_reply(("node_1", "First.", []))
        config = RunConfig(
            parser_retry_budget=1,
            role_backends={"supervisor": ScriptedBackend([
                rule("supervisor:construct", [], bad, good)])})
        sink = TraceSink(clock=CounterClock())
        sink.begin_run("r", {})
        graph = construct("Survey.", _lab_env(), config, sink=sink, run_id="r")
        assert set(graph.nodes) == {"node_1"}
        (event,) = sink.events_for("r")
        assert event.payload["attempts"] == 2

    def test_retry_exhaustion_raises_and_records_the_fault(self):
        bad = subgoals_reply(("node_1", "A.", []), ("node_1", "A again.", []))
        config = RunConfig(
            parser_retry_budget=1,
            role_backends={"supervisor": ScriptedBackend([
                rule("supervisor:construct", [], bad)])})
        sink = TraceSink(clock=CounterClock())
        sink.begin_run("r", {})
        with pytest.raises(RoleFault, match="failed after 2 attempt"):
            construct("Survey.", _lab_env(), config, sink=sink, run_id="r")
        (event,) = sink.events_for("r")
        assert event.payload["ok"] is False and event.payload["attempts"] == 2


# -- node execution -----------------------------------------------------------------------


def _single_node_graph(description="Inspect the drawer.") -> TaskGraph:
    graph = TaskGraph(task_description="Inspect the lab.")
    graph.nodes["node_1"] = SubTaskNode(id="node_1", description=description)
    return graph


def _exec_config(supervisor, planner, executor, **kwargs) -> RunConfig:
    return RunConfig(role_backends=backends(supervisor, planner, executor), **kwargs)


D1 = "Inspect the drawer."

# replies each role cannot recover from: the planner and supervisor need
# structure they don't get, and the executor's action text is blank
FAULTY = {"planner": "%% not a plan %%", "supervisor": "%% not a verdict %%",
          "executor": ""}


class TestExecuteNode:
    def test_happy_path_completes_with_outcome(self):
        config = _exec_config(
            [rule("supervisor:evaluate", ["You open the drawer"],
                  eval_reply("completed", "Drawer opened and inspected."))],
            [rule("planner:plan", [D1], plan_reply("Open it."))],
            [rule("executor:execute", [D1], "open drawer")],
        )
        graph = _single_node_graph()
        env = _lab_env()
        status = execute_node(graph, "node_1", env, config, StepCounter(limit=5))
        assert status is NodeStatus.COMPLETED
        node = graph.nodes["node_1"]
        assert node.outcome.summary_text == "Drawer opened and inspected."
        assert node.outcome.key_observations == (
            "You open the drawer. Inside you see: key.",)
        assert [e.action for e in node.local_trace] == ["open drawer"]

    def test_failed_verdict_closes_the_node(self):
        config = _exec_config(
            [rule("supervisor:evaluate", [], eval_reply("failed", "Wrong room entirely."))],
            [rule("planner:plan", [], plan_reply("Try."))],
            [rule("executor:execute", [], "open drawer")],
        )
        graph = _single_node_graph()
        status = execute_node(graph, "node_1", _lab_env(), config, StepCounter(limit=5))
        assert status is NodeStatus.FAILED
        assert graph.nodes["node_1"].outcome.summary_text == "Wrong room entirely."

    def test_guidance_lives_for_exactly_one_executor_call(self):
        g1 = "Guidance alpha: try the stove switch."
        g2 = "Guidance beta: now take the reading."
        config = _exec_config(
            [
                rule("supervisor:evaluate", ["You measure the scale"],
                     eval_reply("completed", "Reading taken.")),
                rule("supervisor:evaluate", ["You activate the stove"],
                     eval_reply("needs_more_steps", g2)),
                rule("supervisor:evaluate", ["You focus on the plant"],
                     eval_reply("needs_more_steps", g1)),
            ],
            [rule("planner:plan", [D1], plan_reply("Work the room."))],
            [
                rule("executor:execute", [g2], "measure scale"),
                rule("executor:execute", [g1], "activate stove"),
                rule("executor:execute", [D1], "focus plant"),
            ],
        )
        graph = _single_node_graph()
        env = _lab_env()
        status = execute_node(graph, "node_1", env, config, StepCounter(limit=9))
        assert status is NodeStatus.COMPLETED
        prompts = [p for _tag, p in config.role_backends["executor"].calls]
        assert len(prompts) == 3
        assert g1 not in prompts[0] and g2 not in prompts[0]
        assert g1 in prompts[1] and g2 not in prompts[1]
        assert g2 in prompts[2] and g1 not in prompts[2]

    def test_replan_accept_swaps_the_plan_in_place(self):
        new_plan = plan_reply("Open the drawer directly.")
        config = _exec_config(
            [
                rule("supervisor:evaluate", ["You open the drawer"],
                     eval_reply("completed", "Open.")),
                rule("supervisor:evaluate", ["Nothing happens"],
                     eval_reply("needs_more_steps", "The knob approach does nothing.",
                                need_replan=True)),
            ],
            [
                rule("planner:plan", [D1], plan_reply("Twist the knob.")),
                rule("planner:replan", ["knob approach does nothing"],
                     replan_accept(new_plan, thought="Knob is a dead end.")),
            ],
            [
                rule("executor:execute", ["Open the drawer directly."], "open drawer"),
                rule("executor:execute", [D1], "twist knob"),
            ],
        )
        graph = _single_node_graph()
        sink = TraceSink(clock=CounterClock())
        sink.begin_run("r", {})
        status = execute_node(graph, "node_1", _lab_env(), config,
                              StepCounter(limit=9), sink=sink, run_id="r")
        assert status is NodeStatus.COMPLETED
        node = graph.nodes["node_1"]
        assert node.replan_count == 1
        assert node.plan.steps[0].step_text == "Open the drawer directly."
        replans = [e for e in sink.events_for("r") if e.kind == "replan"]
        assert len(replans) == 1
        assert replans[0].payload == {
            "scope": "node_1", "accepted": True, "replan_count": 1, "nodes_touched": 1,
        }

    def test_replan_decline_keeps_the_plan(self):
        config = _exec_config(
            [
                rule("supervisor:evaluate", ["You open the drawer"],
                     eval_reply("completed", "Open.")),
                rule("supervisor:evaluate", ["Nothing happens"],
                     eval_reply("needs_more_steps", "No visible progress yet.",
                                need_replan=True)),
            ],
            [
                rule("planner:plan", [D1], plan_reply("Keep at it.")),
                rule("planner:replan", [], replan_decline("The plan still covers this.")),
            ],
            [
                rule("executor:execute", ["Nothing happens"], "open drawer"),
                rule("executor:execute", [D1], "push lever"),
            ],
        )
        graph = _single_node_graph()
        sink = TraceSink(clock=CounterClock())
        sink.begin_run("r", {})
        status = execute_node(graph, "node_1", _lab_env(), config,
                              StepCounter(limit=9), sink=sink, run_id="r")
        assert status is NodeStatus.COMPLETED
        node = graph.nodes["node_1"]
        assert node.replan_count == 0
        assert node.plan.steps[0].step_text == "Keep at it."
        (replan,) = [e for e in sink.events_for("r") if e.kind == "replan"]
        assert replan.payload == {
            "scope": "node_1", "accepted": False, "replan_count": 0, "nodes_touched": None,
        }

    def test_replan_budget_exhaustion_fails_the_node(self):
        config = _exec_config(
            [rule("supervisor:evaluate", [],
                  eval_reply("needs_more_steps", "Still blocked.", need_replan=True))],
            [
                rule("planner:plan", [D1], plan_reply("Push.")),
                rule("planner:replan", [], replan_accept(plan_reply("Push harder."))),
            ],
            [rule("executor:execute", [], "push lever")],
            max_replans_per_node=0,
        )
        graph = _single_node_graph()
        sink = TraceSink(clock=CounterClock())
        sink.begin_run("r", {})
        status = execute_node(graph, "node_1", _lab_env(), config,
                              StepCounter(limit=9), sink=sink, run_id="r")
        assert status is NodeStatus.FAILED
        assert graph.nodes["node_1"].outcome.summary_text == "replan budget exhausted (0)"
        (replan,) = [e for e in sink.events_for("r") if e.kind == "replan"]
        assert replan.payload["budget_exhausted"] is True
        assert replan.payload["accepted"] is False

    @pytest.mark.parametrize(
        "broken_role, prefix",
        [("planner", "planner fault:"), ("executor", "executor fault:"),
         ("supervisor", "evaluator fault:")],
    )
    def test_role_faults_fail_the_node(self, broken_role, prefix):
        roles = {
            "supervisor": [rule("supervisor:evaluate", [],
                                eval_reply("completed", "Done."))],
            "planner": [rule("planner:plan", [], plan_reply("Go."))],
            "executor": [rule("executor:execute", [], "open drawer")],
        }
        roles[broken_role] = [rule(None, [], FAULTY[broken_role])]
        config = RunConfig(
            parser_retry_budget=0,
            role_backends={name: ScriptedBackend(rules) for name, rules in roles.items()})
        graph = _single_node_graph()
        status = execute_node(graph, "node_1", _lab_env(), config, StepCounter(limit=5))
        assert status is NodeStatus.FAILED
        assert graph.nodes["node_1"].outcome.summary_text.startswith(prefix)

    def test_replanner_fault_fails_the_node(self):
        config = _exec_config(
            [rule("supervisor:evaluate", [],
                  eval_reply("needs_more_steps", "Blocked.", need_replan=True))],
            [
                rule("planner:plan", [], plan_reply("Go.")),
                rule("planner:replan", [], "%% never a decision %%"),
            ],
            [rule("executor:execute", [], "open drawer")],
        )
        config.parser_retry_budget = 0
        graph = _single_node_graph()
        status = execute_node(graph, "node_1", _lab_env(), config, StepCounter(limit=5))
        assert status is NodeStatus.FAILED
        assert graph.nodes["node_1"].outcome.summary_text.startswith("replanner fault:")

    def test_exhausted_budget_returns_before_any_action(self):
        config = _exec_config(
            [rule("supervisor:evaluate", [], eval_reply("completed", "x"))],
            [rule("planner:plan", [], plan_reply("Go."))],
            [rule("executor:execute", [], "open drawer")],
        )
        graph = _single_node_graph()
        env = _lab_env()
        status = execute_node(graph, "node_1", env, config, StepCounter(used=5, limit=5))
        assert status is NodeStatus.IN_PROGRESS
        assert graph.nodes["node_1"].local_trace == []
        assert config.role_backends["executor"].calls == []

    def test_environment_done_hands_control_back_mid_node(self):
        instance = diamond_instance()
        instance = type(instance)(
            id="one_shot", environment="textlab", query="Focus the plant.",
            gold={"conditions": [{"kind": "focused", "object": "plant"}]},
            payload=instance.payload)
        env = make_environment("textlab")
        env.reset(instance)
        config = _exec_config(
            [rule("supervisor:evaluate", [],
                  eval_reply("needs_more_steps", "Keep checking the dial."))],
            [rule("planner:plan", [], plan_reply("Focus."))],
            [rule("executor:execute", [], "focus plant")],
        )
        graph = _single_node_graph("Focus the plant.")
        status = execute_node(graph, "node_1", env, config, StepCounter(limit=5))
        assert env.done
        assert status is NodeStatus.IN_PROGRESS
        assert len(graph.nodes["node_1"].local_trace) == 1


# -- task_done --------------------------------------------------------------------------


class TestTaskDone:
    def test_environment_done_wins(self):
        env = make_environment("textlab")
        env.reset(diamond_instance())
        assert not task_done(env, None)
        env._done = True  # type: ignore[attr-defined]
        assert task_done(env, None)

    def test_all_sinks_completed(self):
        env = _lab_env()
        graph = _graph_with_target(0)
        assert not task_done(env, graph)  # node_2 (sink) still pending
        graph.nodes["node_2"].status = NodeStatus.COMPLETED
        assert task_done(env, graph)

    def test_empty_graph_is_not_done(self):
        env = _lab_env()
        assert not task_done(env, TaskGraph(task_description="t"))


# -- full runs ----------------------------------------------------------------------------


def _revise_prompts(supervisor: ScriptedBackend) -> list[str]:
    return [prompt for tag, prompt in supervisor.calls if tag == "supervisor:revise"]


def _revise_history(prompt: str) -> str:
    """The {history} binding of a rendered revise prompt, cut out between the
    template text that surrounds the placeholder."""
    before, after = load_templates()["revise"].body.split("{history}")
    head = before.rsplit("\n", 1)[-1]
    tail = after.split("{", 1)[0]
    return prompt.split(head, 1)[1].split(tail, 1)[0]


class TestRunTask:
    def test_diamond_transcript_matches_the_oracle(self):
        sink = TraceSink(clock=CounterClock())
        report = run_task(diamond_instance(), make_environment("textlab"),
                          diamond_config(diamond_rules()), sink=sink)
        projected = [project(e) for e in sink.events_for(report.run_id)]
        assert projected == DIAMOND_EXPECTED
        assert report.terminal == "Terminated"
        assert report.reason == "step budget exhausted"
        assert report.steps_used == 3

    def test_travel_locality_run_completes_with_one_scoped_replan(self):
        sink = TraceSink(clock=CounterClock())
        report = run_task(travel_locality_instance("blocked"),
                          make_environment("traveltoy"),
                          travel_locality_config(travel_locality_rules()), sink=sink)
        assert report.terminal == "Completed"
        assert report.delivered is True  # every sink node completed
        replans = [e for e in sink.events_for(report.run_id) if e.kind == "replan"]
        assert len(replans) == 1
        assert replans[0].payload["scope"] == "node_2"
        assert replans[0].payload["accepted"] is True
        statuses = {nid: rec["status"] for nid, rec in report.node_records.items()}
        assert statuses == {"node_1": "completed", "node_2": "completed",
                            "node_3": "completed"}
        assert report.node_records["node_2"]["replan_count"] == 1

    def test_construction_fault_terminates_the_run(self):
        config = RunConfig(
            parser_retry_budget=0,
            role_backends={
                "supervisor": ScriptedBackend([rule(None, [], "no json here")]),
                "planner": ScriptedBackend([]),
                "executor": ScriptedBackend([]),
            })
        sink = TraceSink(clock=CounterClock())
        report = run_task(diamond_instance(), make_environment("textlab"), config, sink=sink)
        assert report.terminal == "Terminated"
        assert report.reason.startswith("construction fault:")
        assert report.delivered is False
        kinds = [e.kind for e in sink.events_for(report.run_id)]
        assert "graph_constructed" not in kinds
        assert kinds[-1] == "run_end"

    def test_failed_sink_then_unchanged_revision_stalls(self):
        config = _exec_config(
            [
                rule("supervisor:construct", [],
                     subgoals_reply(("node_1", D1, []))),
                rule("supervisor:evaluate", [], eval_reply("failed", "No way in.")),
                rule("supervisor:revise", [], NOOP_REVISION),
            ],
            [rule("planner:plan", [], plan_reply("Try."))],
            [rule("executor:execute", [], "open drawer")],
        )
        sink = TraceSink(clock=CounterClock())
        report = run_task(diamond_instance(), make_environment("textlab"), config, sink=sink)
        assert report.terminal == "Terminated"
        assert report.reason == "stall: no ready nodes and no graph update"
        revisions = [e for e in sink.events_for(report.run_id) if e.kind == "revision"]
        assert [e.payload["status"] for e in revisions] == ["noop", "noop"]
        # the second round dispatched nothing, so its revision saw no actions
        first, second = _revise_prompts(config.role_backends["supervisor"])
        assert "Action: open drawer" in _revise_history(first)
        assert _revise_history(second) == NO_ACTIONS_YET

    def test_revision_prompt_sees_only_its_own_rounds_actions(self):
        stages = 4
        config = chain_config(stages, tdp_chain_rules(stages))
        sink = TraceSink(clock=CounterClock())
        report = run_task(chain_instance(stages), ChainEnv(), config, sink=sink)
        assert report.terminal == "Completed"
        round_steps: dict[str, list[TraceEntry]] = {}
        for event in sink.events_for(report.run_id):
            if event.kind == "env_step":
                payload = event.payload
                round_steps.setdefault(payload["scope"], []).append(
                    entry(payload["step_index"], payload["action"], payload["observation"]))
        prompts = _revise_prompts(config.role_backends["supervisor"])
        assert len(prompts) == stages - 1
        # the chain works node_k, and only node_k, in round k
        for k, prompt in enumerate(prompts, start=1):
            for j in range(1, k):
                assert f"obstacle at stage {j}:" not in prompt
            assert f"obstacle at stage {k}:" in prompt
            assert _revise_history(prompt) == assemble_history(
                round_steps[f"node_{k}"], config.history_cap)

    def test_applied_revision_redirects_the_next_round(self):
        d2_old = "Check the stove."
        d2_new = "Check the stove dial carefully."
        revision = json.dumps({
            "thought": "The stove step needs the dial called out.",
            "need_update": True,
            "description_updates": [{"node_id": "node_2", "new_description": d2_new}],
            "new_nodes": [],
            "remove_nodes": [],
        })
        config = _exec_config(
            [
                rule("supervisor:construct", [],
                     subgoals_reply(("node_1", "Look at the plant.", []),
                                    ("node_2", d2_old, ["node_1"]))),
                rule("supervisor:evaluate", ["You focus on the plant"],
                     eval_reply("completed", "Plant checked.")),
                rule("supervisor:evaluate", [d2_new, "You activate the stove"],
                     eval_reply("completed", "Dial checked.")),
                rule("supervisor:revise", [], revision),
            ],
            [
                rule("planner:plan", ["Look at the plant."], plan_reply("Focus it.")),
                rule("planner:plan", [d2_new], plan_reply("Activate and read the dial.")),
            ],
            [
                rule("executor:execute", ["Look at the plant."], "focus plant"),
                rule("executor:execute", [d2_new], "activate stove"),
            ],
        )
        sink = TraceSink(clock=CounterClock())
        report = run_task(diamond_instance(), make_environment("textlab"), config, sink=sink)
        assert report.terminal == "Completed"
        events = sink.events_for(report.run_id)
        (revision_event,) = [e for e in events if e.kind == "revision"]
        assert revision_event.payload["status"] == "applied"
        descriptions = {s["id"]: s["description"]
                        for s in revision_event.payload["graph"]["subgoals"]}
        assert descriptions["node_2"] == d2_new
        assert report.node_records["node_2"]["status"] == "completed"

    def test_repeated_runs_write_byte_identical_traces(self, tmp_path):
        paths = []
        for name in ("a.jsonl", "b.jsonl"):
            path = tmp_path / name
            sink = TraceSink(path, clock=CounterClock())
            run_task(travel_locality_instance("blocked"), make_environment("traveltoy"),
                     travel_locality_config(travel_locality_rules()), sink=sink)
            paths.append(path)
        assert paths[0].read_bytes() == paths[1].read_bytes()

    def test_trace_file_replays_cleanly(self, tmp_path):
        path = tmp_path / "run.jsonl"
        sink = TraceSink(path, clock=CounterClock())
        report = run_task(diamond_instance(), make_environment("textlab"),
                          diamond_config(diamond_rules()), sink=sink)
        headers, events = read_trace(path)
        assert report.run_id in headers
        assert headers[report.run_id]["meta"]["s_max"] == 3
        assert [project(e) for e in events] == DIAMOND_EXPECTED

    def test_role_tokens_match_role_call_events(self):
        sink = TraceSink(clock=CounterClock())
        report = run_task(travel_locality_instance("direct"),
                          make_environment("traveltoy"),
                          travel_locality_config(travel_locality_rules()), sink=sink)
        events = sink.events_for(report.run_id)
        by_role: dict[str, int] = {}
        for event in events:
            if event.kind == "role_call":
                payload = event.payload
                by_role[payload["role"]] = (
                    by_role.get(payload["role"], 0) + payload["output_tokens"])
        assert {role: usage["output_tokens"] for role, usage in report.role_tokens.items()} == by_role

    def test_direct_variant_needs_no_replan(self):
        sink = TraceSink(clock=CounterClock())
        report = run_task(travel_locality_instance("direct"),
                          make_environment("traveltoy"),
                          travel_locality_config(travel_locality_rules()), sink=sink)
        assert report.terminal == "Completed"
        assert [e for e in sink.events_for(report.run_id) if e.kind == "replan"] == []
        assert report.node_records["node_2"]["replan_count"] == 0
