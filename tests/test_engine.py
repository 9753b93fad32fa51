"""Engine orchestration: budgets, node-scoped context, replanning, revision."""

from __future__ import annotations

import gc
import itertools
import json
import random
import warnings
from dataclasses import replace

import pytest

from tdp.baselines import BASELINES
from tdp.cli import METHODS, load_config
from tdp.engine import (
    HISTORY_CAP,
    NO_ACTIONS_YET,
    STALL_ROUNDS,
    EngineError,
    Run,
    RunConfig,
    assemble_history,
    execute_node,
    node_bindings,
    replay_graph,
    run_task,
    task_done,
)
from tdp.environments import load_task_instance, make_environment
from tdp.graph import (
    MAX_NODES,
    NodeStatus,
    OutcomeSummary,
    RevisionDelta,
    SubTaskNode,
    TaskGraph,
    TraceEntry,
    apply_revision,
    delta_to_doc,
    render_outcome,
)
from tdp.roles import FORMAT_REMINDER, RoleFault, ScriptedBackend, load_templates
from tdp.telemetry import CounterClock, TraceError, TraceSink, compute_metrics, read_trace

from conftest import CONFIG_DIR, TRAVEL_FIXTURE, WIKI_FIXTURES
from graphgen import (
    STATUSES,
    assign_statuses,
    enumerate_labeled_dags,
    graph_from_edges,
    random_dag,
    sorted_nodes,
)
from scenarios import (
    DIAMOND_EXPECTED,
    NOOP_REVISION,
    TRAVEL_N1,
    ChainEnv,
    RecordingBackend,
    assert_ends_on_record,
    backends,
    chain_config,
    chain_instance,
    diamond_config,
    diamond_instance,
    diamond_rules,
    eval_reply,
    graph_with_target,
    plan_reply,
    project,
    recording,
    replan_accept,
    replan_decline,
    reworded_stage,
    revision_reply,
    rule,
    subgoals_reply,
    target_plan_prompt,
    tdp_chain_rules,
    travel_locality_config,
    travel_locality_instance,
    travel_locality_rules,
    with_fault,
)


def entry(action="look", obs="nothing"):
    return TraceEntry(action=action, observation=obs)


# -- configuration and counters ---------------------------------------------------


class TestRunConfig:
    @pytest.mark.parametrize(
        "kwargs, message",
        [
            ({"s_max": 0}, "s_max must be >= 1"),
            ({"s_max": -1}, "s_max must be >= 1, got -1"),
            ({"max_replans_per_node": -1}, "max_replans_per_node"),
            ({"parser_retry_budget": -1}, "parser_retry_budget"),
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


class TestRunStepBudget:
    def test_counts_steps_up_to_s_max(self):
        run = _lab_run(RunConfig(s_max=2))
        assert run.steps_used == 0 and not run.budget_spent()
        run.act("look around")
        assert run.steps_used == 1 and not run.budget_spent()
        run.act("look around")
        assert run.steps_used == 2 and run.budget_spent()
        assert run.stop() == ("Terminated", "step budget exhausted")

    def test_overrun_is_refused_before_the_environment_steps(self):
        run = _lab_run(RunConfig(s_max=1))
        run.act("look around")
        with pytest.raises(EngineError, match="gate before acting"):
            run.act("look around")
        assert run.steps_used == 1
        assert run.env.metrics()["env_steps"] == 1


# -- history rendering ---------------------------------------------------------------


class TestAssembleHistory:
    def test_empty_trace_placeholder(self):
        assert assemble_history([], cap=10) == NO_ACTIONS_YET

    def test_under_cap_renders_everything(self):
        text = assemble_history([entry("a1", "o1"), entry("a2", "o2")], cap=5)
        assert text == "Action: a1\nObservation: o1\nAction: a2\nObservation: o2"

    def test_at_cap_has_no_elision(self):
        trace = [entry() for _ in range(5)]
        assert "elided" not in assemble_history(trace, cap=5)

    def test_overflow_keeps_first_then_most_recent(self):
        trace = [entry(f"a{i}", f"o{i}") for i in range(1, 101)]
        text = assemble_history(trace, cap=10)
        lines = text.splitlines()
        assert lines[0] == "Action: a1"
        assert lines[2] == "... 90 steps elided ..."
        assert lines[3] == "Action: a92"  # the most recent cap-1 = 9 entries
        assert lines[-1] == "Observation: o100"
        # exactly 1 + 9 entries rendered
        assert sum(1 for l in lines if l.startswith("Action: ")) == 10

    def test_a_cap_of_one_keeps_the_first_entry_and_the_marker(self):
        trace = [entry(f"a{i}", f"o{i}") for i in range(1, 5)]
        assert assemble_history(trace, cap=1) == (
            "Action: a1\nObservation: o1\n... 3 steps elided ...")

    @pytest.mark.parametrize("cap", [0, -1])
    def test_a_cap_that_cannot_keep_the_first_entry_is_refused(self, cap):
        with pytest.raises(ValueError, match=f"must keep the first entry, got cap {cap}"):
            assemble_history([entry() for _ in range(4)], cap=cap)
        assert assemble_history([], cap=cap) == NO_ACTIONS_YET  # nothing to elide


def _two_node_graph(dependency_outcome: OutcomeSummary) -> TaskGraph:
    """node_1, completed with `dependency_outcome`, and node_2 depending on it."""
    graph = TaskGraph()
    graph.nodes["node_1"] = SubTaskNode(
        id="node_1", description="Confirm the cities.", status=NodeStatus.COMPLETED,
        outcome=dependency_outcome, local_trace=[entry("a", "o")])
    graph.nodes["node_2"] = SubTaskNode(
        id="node_2", description="Book flights.", dependencies={"node_1"})
    return graph


class TestNodeBindings:
    def test_without_dependencies_there_are_no_prerequisites(self):
        graph = _two_node_graph(OutcomeSummary(NodeStatus.COMPLETED, "Cities confirmed."))
        view = node_bindings(graph, "node_1")
        assert view["prerequisites"] is None
        assert view["history"] == "Action: a\nObservation: o"

    def test_only_a_node_nothing_depends_on_reads_the_final_action_rule(self):
        graph = _two_node_graph(OutcomeSummary(NodeStatus.COMPLETED, "Cities confirmed."))
        assert node_bindings(graph, "node_1")["if_sink"] is None
        assert node_bindings(graph, "node_2")["if_sink"] == ""

    def test_dependency_outcomes_render_ids_not_descriptions(self):
        outcome = OutcomeSummary(
            terminal_status=NodeStatus.COMPLETED,
            summary_text="Cities confirmed.",
            key_observations=("Cities in Illinois: Chicago, Peoria",))
        view = node_bindings(_two_node_graph(outcome), "node_2")
        assert view["prerequisites"] == (
            "Prerequisite results:\n"
            "- [node_1] Cities confirmed.\n"
            "  observed: Cities in Illinois: Chicago, Peoria\n"
        )
        assert view["history"] == "(no actions yet)"  # its own trace only

    def test_an_outcome_renders_its_summary_then_each_observation_indented(self):
        """A multi-line observation (the travel fixture's lodging search
        answers one line per place) keeps its continuation lines under its
        ``observed:`` line, not at column 0 beside the prompt's own labels.
        The status is not rendered: the line that heads the outcome says it."""
        failed = OutcomeSummary(terminal_status=NodeStatus.FAILED, summary_text="No way in.")
        lodging = "Riverside Inn | double | $95\nWarehouse District Suites | suite | $140"
        done = OutcomeSummary(terminal_status=NodeStatus.COMPLETED, summary_text="Done.",
                              key_observations=(lodging, "o2"))
        assert render_outcome(failed) == "No way in."
        assert render_outcome(done) == (
            "Done.\n"
            "  observed: Riverside Inn | double | $95\n"
            "    Warehouse District Suites | suite | $140\n"
            "  observed: o2"
        )


# -- node-scoped planner prompts -------------------------------------------------------


class TestPlannerPromptBoundedness:
    def test_unrelated_completed_nodes_leave_the_prompt_identical(self):
        baseline = target_plan_prompt(graph_with_target(0))
        for extra in (1, 3):
            assert target_plan_prompt(graph_with_target(extra)) == baseline
        assert "Unrelated chore" not in baseline
        assert "Survey the lab." not in baseline  # the whole task stays out
        assert "Measure the scale." in baseline
        assert "Prerequisite finished." in baseline


# -- construction ------------------------------------------------------------------------


def _lab_env():
    env = make_environment("textlab")
    env.reset(diamond_instance())
    return env


def _lab_run(config, sink=None, instance=None) -> Run:
    """A run on the lab mock (which it resets), with ``config.s_max`` as its
    step budget."""
    return Run("tdp", instance or diamond_instance(), make_environment("textlab"), config,
               sink=sink, run_id="r")


class TestConstruct:
    def test_valid_decomposition_becomes_a_graph(self):
        reply = subgoals_reply(("node_1", "Open the drawer.", []),
                               ("node_2", "Read the dial.", ["node_1"]))
        config = RunConfig(role_backends={"supervisor": ScriptedBackend([
            rule("supervisor:construct", [], reply)])})
        sink = TraceSink(clock=CounterClock())
        run = _lab_run(config, sink=sink)
        graph, delta = run.call("construct", {"task_description": "Survey."})
        assert set(graph.nodes) == {"node_1", "node_2"}
        assert graph.nodes["node_2"].dependencies == {"node_1"}
        # the delta is the one that built the graph
        assert apply_revision(TaskGraph(), delta).graph == graph
        (event,) = sink.events_for("r")
        assert event.payload["ok"] is True and event.payload["scope"] == "global"
        assert event.payload["output_tokens"] > 0

    def test_structurally_invalid_decomposition_consumes_retries(self):
        bad = subgoals_reply(("node_1", "First.", []), ("node_2", "Orphan.", ["ghost"]))
        good = subgoals_reply(("node_1", "First.", []))
        config = RunConfig(
            parser_retry_budget=1,
            role_backends={"supervisor": ScriptedBackend([
                rule("supervisor:construct", [], bad, good)])})
        sink = TraceSink(clock=CounterClock())
        run = _lab_run(config, sink=sink)
        graph, _ = run.call("construct", {"task_description": "Survey."})
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
        run = _lab_run(config, sink=sink)
        with pytest.raises(RoleFault, match="failed after 2 attempt"):
            run.call("construct", {"task_description": "Survey."})
        (event,) = sink.events_for("r")
        assert event.payload["ok"] is False and event.payload["attempts"] == 2


# -- node execution -----------------------------------------------------------------------


def _single_node_graph(description="Inspect the drawer.") -> TaskGraph:
    graph = TaskGraph()
    graph.nodes["node_1"] = SubTaskNode(id="node_1", description=description)
    return graph


def _exec_config(supervisor, planner, executor, **kwargs) -> RunConfig:
    return RunConfig(role_backends=backends(supervisor, planner, executor), **kwargs)


D1 = "Inspect the drawer."
#: A revise reply without edits that sets an earlier format's ``need_update``
#: flag, a key the reader ignores.
FLAGGED_EMPTY_REVISION = json.dumps({**json.loads(NOOP_REVISION), "need_update": True})
LAB_D1 = "Open the drawer in the lab."
LAB_D2 = "Activate the stove next."
# node_1's plans, in the order the two-replan variant tries them
LAB_PLANS = ("Twist the knob.", "Push the lever.", "Open the drawer directly.")
# the dead ends are admissible verbs the lab answers "Nothing happens.": a put
# that names no container
LAB_ACTIONS = ("put knob", "put lever", "open drawer")


def _two_replan_lab_config(replans: int) -> RunConfig:
    """node_1 opens the drawer after `replans` (0 or 2) accepted replans, each
    dead end answered by "Nothing happens."; node_2 depends on node_1."""
    plans = LAB_PLANS[2 - replans:]
    return _exec_config(
        [
            rule("supervisor:construct", [],
                 subgoals_reply(("node_1", LAB_D1, []), ("node_2", LAB_D2, ["node_1"]))),
            rule("supervisor:evaluate", [LAB_D2, "You activate the stove"],
                 eval_reply("completed", "Stove on.")),
            rule("supervisor:evaluate", [LAB_D1, "You open the drawer"],
                 eval_reply("completed", "Drawer open.")),
            rule("supervisor:evaluate", [LAB_D1, "Nothing happens"],
                 eval_reply("needs_more_steps", "That did nothing.", need_replan=True)),
            rule("supervisor:revise", [], NOOP_REVISION),
        ],
        [
            rule("planner:plan", [LAB_D2], plan_reply("Activate it.")),
            rule("planner:plan", [LAB_D1], plan_reply(plans[0])),
            *(rule("planner:replan", [LAB_D1, old], replan_accept(plan_reply(new)))
              for old, new in zip(plans, plans[1:])),
        ],
        [
            rule("executor:execute", [LAB_D2], "activate stove"),
            *(rule("executor:execute", [LAB_D1, plan], action)
              for plan, action in zip(LAB_PLANS, LAB_ACTIONS)),
        ],
        s_max=10,
    )


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
            s_max=5,
        )
        graph = _single_node_graph()
        status = execute_node(graph, "node_1", _lab_run(config))
        assert status is NodeStatus.COMPLETED
        node = graph.nodes["node_1"]
        assert node.outcome.summary_text == "Drawer opened and inspected."
        assert node.outcome.key_observations == (
            "You open the drawer. Inside you see: key.",)
        assert [e.action for e in node.local_trace] == ["open drawer"]

    @pytest.mark.parametrize("reason", [None, "  "])
    def test_an_outcome_without_a_reason_shows_each_observation_once(self, reason):
        """A node closed without a reason is summarised by its status
        sentence: dependents read its observations once, under their
        ``observed:`` lines, and not again joined into the summary."""
        config = _exec_config(
            [rule("supervisor:evaluate", ["You open the drawer"], eval_reply("completed", reason))],
            [rule("planner:plan", [D1], plan_reply("Open it."))],
            [rule("executor:execute", [D1], "open drawer")],
            s_max=5,
        )
        graph = _single_node_graph()
        assert execute_node(graph, "node_1", _lab_run(config)) is NodeStatus.COMPLETED
        assert render_outcome(graph.nodes["node_1"].outcome) == (
            "node_1 ended with status completed\n"
            "  observed: You open the drawer. Inside you see: key.")

    def test_outcome_carries_only_what_the_final_plan_observed(self):
        """The obstacle node_1 met before its accepted replan stays in its own
        trace; its outcome keeps only the observations made after the replan,
        and the evaluator after the replan reads exactly those entries, while
        the replanner and the next executor call still see the obstacle.  No
        evaluate prompt is ever empty of actions."""
        stages = 3
        role_backends = tdp_chain_rules(stages)
        calls: list[tuple[str, str]] = []
        for backend in role_backends.values():
            backend.calls = calls
        graph = TaskGraph()
        graph.nodes["node_1"] = SubTaskNode(id="node_1", description="Handle stage 1 of the queue.")
        run = Run("tdp", chain_instance(stages), ChainEnv(), chain_config(stages, role_backends),
                  run_id="r")
        assert execute_node(graph, "node_1", run) is NodeStatus.COMPLETED
        node = graph.nodes["node_1"]
        assert node.replan_count == 1
        assert [e.action for e in node.local_trace] == ["work 1", "resolve 1"]
        obstacle = node.local_trace[0].observation
        assert obstacle.startswith("obstacle at stage 1:")
        assert node.outcome.key_observations == ("stage 1 resolved",)
        assert node.outcome.summary_text == "Stage 1 finished with its work order done."
        assert [tag for tag, _ in calls] == [
            "planner:plan", "executor:execute", "supervisor:evaluate", "planner:replan",
            "executor:execute", "supervisor:evaluate"]
        before, replan, execute, after = (prompt for _, prompt in calls[2:])
        assert obstacle in before and obstacle in replan and obstacle in execute
        history = after.split("History:\n", 1)[1].split("\n\nReply with JSON:", 1)[0]
        assert history == assemble_history(node.local_trace[1:], HISTORY_CAP)
        assert history == "Action: resolve 1\nObservation: stage 1 resolved"
        assert NO_ACTIONS_YET not in before + after

    def test_failed_verdict_closes_the_node(self):
        config = _exec_config(
            [rule("supervisor:evaluate", [], eval_reply("failed", "Wrong room entirely."))],
            [rule("planner:plan", [], plan_reply("Try."))],
            [rule("executor:execute", [], "open drawer")],
            s_max=5,
        )
        graph = _single_node_graph()
        status = execute_node(graph, "node_1", _lab_run(config))
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
            s_max=9,
        )
        graph = _single_node_graph()
        status = execute_node(graph, "node_1", _lab_run(config))
        assert status is NodeStatus.COMPLETED
        prompts = [p for _tag, p in config.role_backends["executor"].calls]
        assert len(prompts) == 3
        assert g1 not in prompts[0] and g2 not in prompts[0]
        assert g1 in prompts[1] and g2 not in prompts[1]
        assert g2 in prompts[2] and g1 not in prompts[2]

    @pytest.mark.parametrize("retries", [0, 1])
    def test_a_reply_meant_for_another_role_takes_no_step(self, retries):
        """The executor answers with the evaluator's JSON verdict first: that
        is a parse fault, retried within the budget, and the environment never
        sees it.  Without a retry the node fails before any step."""
        verdict = eval_reply("completed", "Drawer opened and inspected.")
        config = _exec_config(
            [rule("supervisor:evaluate", ["You open the drawer"], verdict)],
            [rule("planner:plan", [D1], plan_reply("Open it."))],
            [rule("executor:execute", [D1], verdict, "open drawer")],
            parser_retry_budget=retries,
        )
        graph = _single_node_graph()
        sink = TraceSink(clock=CounterClock())
        run = _lab_run(config, sink)
        status = execute_node(graph, "node_1", run)
        events = sink.events_for("r")
        (execute,) = [e.payload for e in events
                      if e.kind == "role_call" and e.payload["template"] == "execute"]
        steps = [e.payload["action"] for e in events if e.kind == "env_step"]
        assert execute["attempts"] == 1 + retries
        assert run.env.metrics()["env_steps"] == run.steps_used == len(steps)
        if retries:
            assert status is NodeStatus.COMPLETED and execute["ok"]
            assert steps == ["open drawer"]
        else:
            assert status is NodeStatus.FAILED and not execute["ok"]
            assert steps == []
            assert "the action must start with one of: activate, focus, go, measure, open, " \
                "put, take" in graph.nodes["node_1"].outcome.summary_text

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
                rule("executor:execute", [D1], "put knob"),
            ],
            s_max=9,
        )
        graph = _single_node_graph()
        sink = TraceSink(clock=CounterClock())
        status = execute_node(graph, "node_1", _lab_run(config, sink))
        assert status is NodeStatus.COMPLETED
        node = graph.nodes["node_1"]
        assert node.replan_count == 1
        assert node.plan.steps == ("Open the drawer directly.",)
        replans = [e for e in sink.events_for("r") if e.kind == "replan"]
        assert len(replans) == 1
        assert replans[0].payload == {
            "scope": "node_1", "accepted": True, "replan_count": 1,
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
                rule("executor:execute", [D1], "put lever"),
            ],
            s_max=9,
        )
        graph = _single_node_graph()
        sink = TraceSink(clock=CounterClock())
        status = execute_node(graph, "node_1", _lab_run(config, sink))
        assert status is NodeStatus.COMPLETED
        node = graph.nodes["node_1"]
        assert node.replan_count == 0
        assert node.plan.steps == ("Keep at it.",)
        (replan,) = [e for e in sink.events_for("r") if e.kind == "replan"]
        assert replan.payload == {
            "scope": "node_1", "accepted": False, "replan_count": 0,
        }

    def test_replan_budget_exhaustion_fails_the_node(self):
        config = _exec_config(
            [rule("supervisor:evaluate", [],
                  eval_reply("needs_more_steps", "Still blocked.", need_replan=True))],
            [
                rule("planner:plan", [D1], plan_reply("Push.")),
                rule("planner:replan", [], replan_accept(plan_reply("Push harder."))),
            ],
            [rule("executor:execute", [], "put lever")],
            max_replans_per_node=0,
            s_max=9,
        )
        graph = _single_node_graph()
        sink = TraceSink(clock=CounterClock())
        status = execute_node(graph, "node_1", _lab_run(config, sink))
        assert status is NodeStatus.FAILED
        assert graph.nodes["node_1"].outcome.summary_text == "replan budget exhausted (0)"
        (replan,) = [e for e in sink.events_for("r") if e.kind == "replan"]
        assert replan.payload["budget_exhausted"] is True
        assert replan.payload["accepted"] is False

    def test_the_record_folds_each_dispatched_nodes_live_state(self):
        """node_1 completes after one accepted replan, node_2 fails and node_3
        is never dispatched: the record folded from the events gives each
        dispatched node's live status, replans and trace length, and no
        record for node_3."""
        d2 = "Check the stove."
        config = _exec_config(
            [
                rule("supervisor:evaluate", [d2], eval_reply("failed", "Wrong stove.")),
                rule("supervisor:evaluate", ["You open the drawer"],
                     eval_reply("completed", "Open.")),
                rule("supervisor:evaluate", ["Nothing happens"],
                     eval_reply("needs_more_steps", "The knob approach does nothing.",
                                need_replan=True)),
            ],
            [
                rule("planner:plan", [d2], plan_reply("Activate it.")),
                rule("planner:plan", [D1], plan_reply("Twist the knob.")),
                rule("planner:replan", ["knob approach does nothing"],
                     replan_accept(plan_reply("Open the drawer directly."))),
            ],
            [
                rule("executor:execute", [d2], "activate stove"),
                rule("executor:execute", ["Open the drawer directly."], "open drawer"),
                rule("executor:execute", [D1], "put knob"),
            ],
            s_max=9,
        )
        graph = TaskGraph()
        for nid, description in (("node_1", D1), ("node_2", d2), ("node_3", "Never run.")):
            graph.nodes[nid] = SubTaskNode(id=nid, description=description)
        run = _lab_run(config, TraceSink(clock=CounterClock()))
        for nid in ("node_2", "node_1"):
            run.emit("node_dispatched", node_id=nid)
            execute_node(graph, nid, run)
        record = run.finish("Terminated", "every ready node ran")
        live = {nid: {"status": node.status.value, "replan_count": node.replan_count,
                      "trace_len": len(node.local_trace)}
                for nid, node in graph.nodes.items() if nid != "node_3"}
        assert record.node_records == live
        assert [(r["status"], r["replan_count"]) for r in record.node_records.values()] == [
            ("completed", 1), ("failed", 0)]
        assert (record.steps_used, record.replans_total) == (run.steps_used, 1)

    @pytest.mark.parametrize(
        "broken_role, tag",
        [("planner", "planner:plan"), ("executor", "executor:execute"),
         ("supervisor", "supervisor:evaluate")],
    )
    def test_role_faults_fail_the_node(self, broken_role, tag):
        roles = {
            "supervisor": [rule("supervisor:evaluate", [],
                                eval_reply("completed", "Done."))],
            "planner": [rule("planner:plan", [], plan_reply("Go."))],
            "executor": [rule("executor:execute", [], "open drawer")],
        }
        roles[broken_role] = [rule(None, [], FAULTY[broken_role])]
        config = RunConfig(
            parser_retry_budget=0, s_max=5,
            role_backends={name: ScriptedBackend(rules) for name, rules in roles.items()})
        graph = _single_node_graph()
        status = execute_node(graph, "node_1", _lab_run(config))
        assert status is NodeStatus.FAILED
        # the fault's own message, which names the role, with no second prefix
        assert graph.nodes["node_1"].outcome.summary_text.startswith(
            f"role '{tag}' failed after 1 attempt(s): ")

    def test_replanner_fault_fails_the_node(self):
        config = _exec_config(
            [rule("supervisor:evaluate", [],
                  eval_reply("needs_more_steps", "Blocked.", need_replan=True))],
            [
                rule("planner:plan", [], plan_reply("Go.")),
                rule("planner:replan", [], "%% never a decision %%"),
            ],
            [rule("executor:execute", [], "open drawer")],
            s_max=5,
        )
        config.parser_retry_budget = 0
        graph = _single_node_graph()
        status = execute_node(graph, "node_1", _lab_run(config))
        assert status is NodeStatus.FAILED
        assert graph.nodes["node_1"].outcome.summary_text.startswith(
            "role 'planner:replan' failed after 1 attempt(s): ")

    def test_exhausted_budget_returns_before_any_action(self):
        config = _exec_config(
            [rule("supervisor:evaluate", [], eval_reply("completed", "x"))],
            [rule("planner:plan", [], plan_reply("Go."))],
            [rule("executor:execute", [], "open drawer")],
        )
        graph = _single_node_graph()
        run = _lab_run(config)
        run.steps_used = config.s_max
        status = execute_node(graph, "node_1", run)
        assert status is NodeStatus.IN_PROGRESS
        assert graph.nodes["node_1"].local_trace == []
        assert config.role_backends["executor"].calls == []

    def test_environment_done_hands_control_back_mid_node(self):
        instance = diamond_instance()
        instance = type(instance)(
            id="one_shot", environment="textlab", query="Focus the plant.",
            gold={"conditions": [{"kind": "focused", "object": "plant"}]},
            payload=instance.payload)
        config = _exec_config(
            [rule("supervisor:evaluate", [],
                  eval_reply("needs_more_steps", "Keep checking the dial."))],
            [rule("planner:plan", [], plan_reply("Focus."))],
            [rule("executor:execute", [], "focus plant")],
            s_max=5,
        )
        graph = _single_node_graph("Focus the plant.")
        run = _lab_run(config, instance=instance)
        status = execute_node(graph, "node_1", run)
        assert run.env.done
        assert status is NodeStatus.COMPLETED  # it delivered, with no verdict asked
        node = graph.nodes["node_1"]
        assert len(node.local_trace) == 1
        assert node.outcome is not None and node.outcome.key_observations == (
            node.local_trace[0].observation,)
        assert config.role_backends["supervisor"].calls == []  # no verdict can change it

    def test_no_replan_after_the_step_that_spends_the_budget(self):
        """A never-done chain whose evaluator always asks for a replan: every
        step is still evaluated, but the step that spends the budget is not
        followed by a replan, since a new plan could never run."""
        s_max = 4
        config = _exec_config(
            [
                rule("supervisor:construct", [],
                     subgoals_reply(("node_1", "Handle the queue.", []))),
                rule("supervisor:evaluate", [],
                     eval_reply("needs_more_steps", "Nothing moved.", need_replan=True)),
            ],
            [
                rule("planner:plan", [], plan_reply("Wait.")),
                rule("planner:replan", [], replan_decline()),
            ],
            [rule("executor:execute", [], "work 9")],
            s_max=s_max,
        )
        sink = TraceSink(clock=CounterClock())
        report = run_task(chain_instance(3), ChainEnv(), config, sink=sink, run_id="r")
        assert (report.terminal, report.reason) == ("Terminated", "step budget exhausted")
        events = sink.events_for("r")
        last_step = next(i for i, e in enumerate(events)
                         if e.kind == "env_step" and e.payload["step_index"] == s_max)
        after = [e.payload["template"] for e in events[last_step:] if e.kind == "role_call"]
        assert after == ["evaluate"]
        tags = [tag for tag, _ in config.role_backends["planner"].calls]
        assert tags == ["planner:plan"] + ["planner:replan"] * (s_max - 1)
        assert_ends_on_record(report, sink)


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
        graph = graph_with_target(0)
        assert not task_done(env, graph)  # node_2 (sink) still pending
        graph.nodes["node_2"].status = NodeStatus.COMPLETED
        assert task_done(env, graph)

    def test_empty_graph_is_not_done(self):
        env = _lab_env()
        assert not task_done(env, TaskGraph())

    def test_done_exactly_when_every_sink_completed_on_every_small_graph(self):
        """Every labeled DAG on up to three nodes under every status combo, and
        500 random DAGs up to twelve nodes: done exactly when every node that
        no other node depends on completed, as read off the edges here."""
        env = _lab_env()
        graphs = []
        for n in (1, 2, 3):
            for edges in enumerate_labeled_dags(n):
                for combo in itertools.product(range(len(STATUSES)), repeat=n):
                    graph = graph_from_edges(n, edges)
                    assign_statuses(sorted_nodes(graph), combo)
                    graphs.append(graph)
        rng = random.Random(11)
        graphs.extend(random_dag(rng, rng.randint(1, 12)) for _ in range(500))
        done = 0
        for graph in graphs:
            expected = all(
                node.status is NodeStatus.COMPLETED
                for nid, node in graph.nodes.items()
                if not any(nid in other.dependencies for other in graph.nodes.values())
            )
            assert task_done(env, graph) is expected, sorted(graph.nodes.items())
            done += expected
        assert 0 < done < len(graphs)


# -- full runs ----------------------------------------------------------------------------


#: (config, fixture, method): every method on every shipped fixture its config scripts.
RECORD_CASES = [
    *(("scripted_wiki.json", fixture, method) for fixture in WIKI_FIXTURES for method in METHODS),
    ("scripted_travel.json", TRAVEL_FIXTURE, "tdp"),
]


def _revise_prompts(supervisor: RecordingBackend) -> list[str]:
    return [prompt for tag, prompt in supervisor.calls if tag == "supervisor:revise"]


def _revise_view(prompt: str) -> str:
    """The {dag_state} binding of a rendered revise prompt, cut out between the
    template text that surrounds the placeholder."""
    before, after = load_templates()["revise"].body.split("{dag_state}")
    head = before.rsplit("}", 1)[-1]
    tail = after.split("{", 1)[0]
    return prompt.split(head, 1)[1].split(tail, 1)[0]


class TestRunTask:
    def test_a_malformed_gold_record_ends_the_run_before_anything_is_spent(self):
        """The gold is read by replay's rule before the environment is reset
        or the header written: no backend call, and no line of the run."""
        bridge = next(f for f in WIKI_FIXTURES if f.stem == "wiki_bridge")
        instance = replace(load_task_instance(bridge), gold={"answer": 5})
        config = load_config(CONFIG_DIR / "scripted_wiki.json")
        recorders = {role: RecordingBackend(b) for role, b in config.role_backends.items()}
        sink = TraceSink(clock=CounterClock())
        with pytest.raises(TraceError, match=r"^gold: 'answer' must be a string, got 5$"):
            run_task(instance, make_environment(instance.environment),
                     replace(config, role_backends=recorders), sink=sink, run_id="r")
        assert [r.calls for r in recorders.values()] == [[]] * len(recorders)
        assert sink.events_for("r") == []
        sink.begin_run("r", {})  # no header of the run either

    def test_diamond_transcript_matches_the_oracle(self):
        sink = TraceSink(clock=CounterClock())
        report = run_task(diamond_instance(), make_environment("textlab"),
                          diamond_config(diamond_rules()), sink=sink)
        projected = [project(e) for e in sink.events_for(report.run_id)]
        assert projected == DIAMOND_EXPECTED
        assert report.terminal == "Terminated"
        assert report.reason == "step budget exhausted"
        assert report.steps_used == 3
        assert_ends_on_record(report, sink)

    def test_a_node_that_spends_the_budget_ends_its_round(self):
        """The diamond with s_max = 2: node_2 takes the last step, so node_3,
        ready in the same round, is never dispatched and never planned."""
        rules = diamond_rules()
        sink = TraceSink(clock=CounterClock())
        report = run_task(diamond_instance(), make_environment("textlab"),
                          replace(diamond_config(rules), s_max=2), sink=sink)
        assert (report.terminal, report.reason, report.steps_used) == (
            "Terminated", "step budget exhausted", 2)
        events = sink.events_for(report.run_id)
        assert [e.payload["node_id"] for e in events if e.kind == "node_dispatched"] == [
            "node_1", "node_2"]
        assert [e.payload["scope"] for e in events if e.kind == "role_call"
                and e.payload["template"] == "plan"] == ["node_1", "node_2"]
        assert [e.kind for e in events][-2:] == ["node_status", "run_end"]
        assert_ends_on_record(report, sink)

    def test_a_revision_that_removes_the_last_pending_node_completes_the_run(self):
        """node_1 completes, and the round's revision removes node_2, the one
        node left, so the run ends at the loop head: Completed and delivered."""
        removal = json.dumps({"thought": "node_1 did all of it.", "description_updates": [],
                              "new_nodes": [], "remove_nodes": ["node_2"]})
        config = _exec_config(
            [
                rule("supervisor:construct", [],
                     subgoals_reply(("node_1", LAB_D1, []), ("node_2", LAB_D2, ["node_1"]))),
                rule("supervisor:evaluate", [], eval_reply("completed", "The drawer is open.")),
                rule("supervisor:revise", [], removal),
            ],
            [rule("planner:plan", [], plan_reply("Open the drawer."))],
            [rule("executor:execute", [], "open drawer")],
        )
        sink = TraceSink(clock=CounterClock())
        report = run_task(diamond_instance(), make_environment("textlab"), config, sink=sink)
        assert (report.terminal, report.reason, report.delivery) == (
            "Completed", "task done", True)
        events = sink.events_for(report.run_id)
        assert [e.payload["node_id"] for e in events if e.kind == "node_dispatched"] == [
            "node_1"]
        assert [e.payload["status"] for e in events if e.kind == "revision"] == ["applied"]
        assert [e.kind for e in events][-2:] == ["revision", "run_end"]
        assert_ends_on_record(report, sink)

    def test_travel_locality_run_completes_with_one_scoped_replan(self):
        sink = TraceSink(clock=CounterClock())
        report = run_task(travel_locality_instance("blocked"),
                          make_environment("traveltoy"),
                          travel_locality_config(travel_locality_rules()), sink=sink)
        assert report.terminal == "Completed"
        assert report.delivery is True  # every sink node completed
        replans = [e for e in sink.events_for(report.run_id) if e.kind == "replan"]
        assert len(replans) == 1
        assert replans[0].payload["scope"] == "node_2"
        assert replans[0].payload["accepted"] is True
        statuses = {nid: rec["status"] for nid, rec in report.node_records.items()}
        assert statuses == {"node_1": "completed", "node_2": "completed",
                            "node_3": "completed"}
        assert report.node_records["node_2"]["replan_count"] == 1
        assert report.reason == "task done"
        assert_ends_on_record(report, sink)

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
        assert report.reason.startswith(
            "role fault: role 'supervisor:construct' failed after 1 attempt(s): ")
        assert report.delivery is False
        kinds = [e.kind for e in sink.events_for(report.run_id)]
        assert "graph_constructed" not in kinds
        assert kinds[-1] == "run_end"
        assert_ends_on_record(report, sink)

    def test_a_decomposition_over_the_node_cap_is_a_retried_fault(self):
        """Twice the cap of independent nodes, and a planner that only replies
        garbage: the decomposition is refused before any planner call."""
        reply = subgoals_reply(
            *((f"node_{i}", f"Part {i}.", []) for i in range(1, 2 * MAX_NODES + 1)))
        config = _exec_config([rule("supervisor:construct", [], reply)],
                              [rule(None, [], "garbage")], [])
        sink = TraceSink(clock=CounterClock())
        report = run_task(diamond_instance(), make_environment("textlab"), config, sink=sink)
        assert report.reason.startswith("role fault: role 'supervisor:construct' failed")
        assert f"over the cap of {MAX_NODES}" in report.reason
        calls = [e.payload for e in sink.events_for(report.run_id) if e.kind == "role_call"]
        assert [(c["template"], c["attempts"]) for c in calls] == [
            ("construct", 1 + config.parser_retry_budget)]
        # every retry says why the last reply was refused
        first, *retries = [p for _tag, p in config.role_backends["supervisor"].calls]
        assert len(retries) == config.parser_retry_budget
        assert f"over the cap of {MAX_NODES}" not in first
        for n, prompt in enumerate(retries, start=1):
            assert prompt.count(FORMAT_REMINDER) == n
            assert prompt.count(f"over the cap of {MAX_NODES}") == n
        assert_ends_on_record(report, sink)

    @pytest.mark.parametrize("unchanged", [NOOP_REVISION, FLAGGED_EMPTY_REVISION],
                             ids=["no edits", "no edits but flagged"])
    def test_failed_sink_then_unchanged_revision_stalls(self, unchanged):
        """A revision without edits is a noop, and so a stall once no node is
        ready, whatever else its reply says."""
        config = _exec_config(
            [
                rule("supervisor:construct", [],
                     subgoals_reply(("node_1", D1, []))),
                rule("supervisor:evaluate", [], eval_reply("failed", "No way in.")),
                rule("supervisor:revise", [], unchanged),
            ],
            [rule("planner:plan", [], plan_reply("Try."))],
            [rule("executor:execute", [], "open drawer")],
        )
        sink = TraceSink(clock=CounterClock())
        report = run_task(diamond_instance(), make_environment("textlab"), config, sink=sink)
        assert report.terminal == "Terminated"
        assert report.reason == "stall: no ready nodes and no graph update"
        assert_ends_on_record(report, sink)
        revisions = [e for e in sink.events_for(report.run_id) if e.kind == "revision"]
        assert [e.payload["status"] for e in revisions] == ["noop", "noop"]
        assert [e.payload["delta"] for e in revisions] == [None, None]
        # the first round's revision sees node_1's outcome, never its actions;
        # the second round dispatched nothing, so its revision saw no outcome
        first, second = _revise_prompts(config.role_backends["supervisor"])
        assert _revise_view(first) == (
            f"- node_1 [failed] (deps: none): {D1}\n"
            "  result: No way in.\n"
            "  observed: You open the drawer. Inside you see: key.")
        assert _revise_view(second) == f"- node_1 [failed] (deps: none): {D1}"

    def test_revision_prompt_sees_its_rounds_outcomes_as_dependents_do(self):
        """The chain works node_k, and only node_k, in round k; that round's
        revision renders node_k's outcome summary under node_k's frontier
        line, the same text node_k+1's prompts show under node_k's id, and
        none of the round's raw actions."""
        stages = 4
        config = chain_config(stages, tdp_chain_rules(stages))
        report = run_task(chain_instance(stages), ChainEnv(), config)
        assert report.terminal == "Completed"
        prompts = _revise_prompts(config.role_backends["supervisor"])
        assert len(prompts) == stages - 1
        for k, prompt in enumerate(prompts, start=1):
            outcome = OutcomeSummary(
                terminal_status=NodeStatus.COMPLETED,
                summary_text=f"Stage {k} finished with its work order done.",
                key_observations=(f"stage {k} resolved",))
            deps = f"node_{k - 1}" if k > 1 else "none"
            assert _revise_view(prompt).startswith(
                f"- node_{k} [completed] (deps: {deps}): Handle stage {k} of the queue.\n"
                f"  result: {render_outcome(outcome)}\n- node_{k + 1} [pending]")
            (dependent_plan,) = [
                p for tag, p in config.role_backends["planner"].calls
                if tag == "planner:plan" and f"Handle stage {k + 1} of the queue." in p]
            assert (f"Prerequisite results:\n- [node_{k}] {render_outcome(outcome)}\n\n"
                    in dependent_plan)
            assert "Action:" not in prompt
            assert "obstacle at stage" not in prompt

    def test_only_the_evaluator_does_not_see_the_dependency_outcomes(self):
        """node_2 and node_3 of the travel scenario depend on node_1.  Their
        plan, execute and replan prompts carry node_1's outcome line; their
        evaluate prompts show the sub-goal, the plan and the node's own trace
        since its last accepted replan only.  A plan call comes before its
        node's first action, so no plan prompt shows an empty history."""
        role_backends = travel_locality_rules()
        run_task(travel_locality_instance("blocked"), make_environment("traveltoy"),
                 travel_locality_config(role_backends))
        outcome = "- [node_1] Peoria and Chicago are confirmed Illinois cities."
        node_prompts = [(tag.split(":")[1], prompt) for backend in role_backends.values()
                        for tag, prompt in backend.calls
                        if tag.split(":")[1] in ("plan", "execute", "evaluate", "replan")]
        assert not [p for template, p in node_prompts if template == "plan" and NO_ACTIONS_YET in p]
        dependent = [(template, p) for template, p in node_prompts if TRAVEL_N1 not in p]
        assert {template for template, _ in dependent} == {"plan", "execute", "evaluate", "replan"}
        for template, prompt in dependent:
            if template == "evaluate":
                assert outcome not in prompt and "Prerequisite" not in prompt, prompt
            else:
                assert f"Prerequisite results:\n{outcome}\n" in prompt, (template, prompt)

    @pytest.mark.parametrize("fixture", WIKI_FIXTURES, ids=lambda f: f.stem)
    def test_each_executor_reply_acts_on_a_value_its_prompt_shows(self, fixture):
        """The wiki bridge tasks end on a node whose sub-goal and plan name no
        answer; its executor finds the value it submits only among the
        prerequisite results of its prompt."""
        config = load_config(CONFIG_DIR / "scripted_wiki.json")
        executor = config.role_backends["executor"] = RecordingBackend(
            config.role_backends["executor"])
        instance = load_task_instance(fixture)
        report = run_task(instance, make_environment(instance.environment), config)
        assert report.terminal == "Completed"
        acts = [(executor.inner.complete(tag, prompt).text.strip(), prompt)
                for tag, prompt in executor.calls if tag == "executor:execute"]
        assert f"Finish[{instance.gold['answer']}]" in [reply for reply, _ in acts]
        for reply, prompt in acts:
            assert reply.split("[", 1)[1].rsplit("]", 1)[0] in prompt, (reply, prompt)

    def test_applied_revision_redirects_the_next_round(self):
        d2_old = "Check the stove."
        d2_new = "Check the stove dial carefully."
        revision = json.dumps({
            "thought": "The stove step needs the dial called out.",
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
        descriptions = {u["node_id"]: u["new_description"]
                        for u in revision_event.payload["delta"]["description_updates"]}
        assert descriptions["node_2"] == d2_new
        assert report.node_records["node_2"]["status"] == "completed"

    def test_replay_rebuilds_the_graph_the_run_planned_each_node_from(self):
        stages = 5
        config = chain_config(stages, tdp_chain_rules(stages, revise=True))
        sink = TraceSink(clock=CounterClock())
        report = run_task(chain_instance(stages), ChainEnv(), config, sink=sink)
        assert report.terminal == "Completed"
        events = sink.events_for(report.run_id)
        revisions = [e for e in events if e.kind == "revision"]
        assert [e.payload["status"] for e in revisions] == ["applied"] * (stages - 1)
        graph = replay_graph(events)
        assert {nid: node.description for nid, node in graph.nodes.items()} == {
            f"node_{i}": "Handle stage 1 of the queue." if i == 1 else reworded_stage(i)
            for i in range(1, stages + 1)
        }
        # node k was planned from the graph as it stood when node k was dispatched,
        # and the replay of the events before its dispatch rebuilds that graph
        dispatches = [i for i, e in enumerate(events) if e.kind == "node_dispatched"]
        plan_prompts = [p for tag, p in config.role_backends["planner"].calls
                        if tag == "planner:plan"]
        assert len(dispatches) == len(plan_prompts) == stages
        for k, (at, prompt) in enumerate(zip(dispatches, plan_prompts), start=1):
            then = replay_graph(events[:at])
            assert then.nodes[f"node_{k}"].description in prompt

    def test_replay_passes_over_an_applied_revision_without_edits(self):
        """A trace written while a flag carried a revision's decision can
        record a delta without edits as applied; replaying it changes nothing."""
        stages = 3
        sink = TraceSink(clock=CounterClock())
        report = run_task(chain_instance(stages), ChainEnv(),
                          chain_config(stages, tdp_chain_rules(stages)), sink=sink)
        events = sink.events_for(report.run_id)
        at = next(i for i, e in enumerate(events) if e.kind == "revision")
        assert events[at].payload["status"] == "noop"
        flagged = {**delta_to_doc(RevisionDelta(thought="keep")), "need_update": True}
        old = [*events[:at], replace(events[at], payload={**events[at].payload,
                                                          "status": "applied",
                                                          "delta": flagged}), *events[at + 1:]]
        assert replay_graph(old) == replay_graph(events)

    def test_replay_refuses_a_delta_that_does_not_apply(self):
        stages = 3
        sink = TraceSink(clock=CounterClock())
        report = run_task(chain_instance(stages), ChainEnv(),
                          chain_config(stages, tdp_chain_rules(stages, revise=True)), sink=sink)
        events = sink.events_for(report.run_id)
        at = next(i for i, e in enumerate(events) if e.kind == "revision")
        ghost = RevisionDelta(description_updates=(("ghost", "x"),))
        events[at] = replace(events[at], payload={**events[at].payload,
                                                  "delta": delta_to_doc(ghost)})
        with pytest.raises(TraceError, match=f"revision event {events[at].seq} .*"
                                             "delta does not apply: update: unknown node 'ghost'"):
            replay_graph(events)
        # a rejected revision's delta is not replayed, whatever it holds
        events[at] = replace(events[at], payload={**events[at].payload, "status": "rejected"})
        assert "node_1" in replay_graph(events).nodes
        built = next(i for i, e in enumerate(events) if e.kind == "graph_constructed")
        events[built] = replace(events[built], payload={"delta": {"new_nodes": 1}})
        with pytest.raises(TraceError, match="unreadable delta"):
            replay_graph(events)
        events[built] = replace(events[built], payload={})
        with pytest.raises(TraceError, match=f"graph_constructed event {events[built].seq} "
                                             f"of run '{report.run_id}' carries no delta$"):
            replay_graph(events)

    def test_revision_event_size_does_not_grow_with_the_graph(self):
        sizes = {}
        for stages in (4, 8):
            sink = TraceSink(clock=CounterClock())
            report = run_task(chain_instance(stages), ChainEnv(),
                              chain_config(stages, tdp_chain_rules(stages, revise=True)),
                              sink=sink)
            sizes[stages] = [len(e.to_line().encode()) for e in sink.events_for(report.run_id)
                             if e.kind == "revision" and e.payload["status"] == "applied"]
        assert len(sizes[4]) == 3
        assert sizes[8][:3] == sizes[4]

    def test_revise_prompt_size_does_not_grow_with_the_pending_nodes(self):
        """The same round's revise prompt costs as many tokens at W = 8 as at
        W = 40: the nodes pending behind the frontier are only counted."""
        sizes = {}
        for stages in (8, 40):
            sink = TraceSink(clock=CounterClock())
            report = run_task(chain_instance(stages), ChainEnv(),
                              chain_config(stages, tdp_chain_rules(stages)), sink=sink)
            assert report.terminal == "Completed"
            sizes[stages] = [e.payload["prompt_tokens"] for e in sink.events_for(report.run_id)
                             if e.kind == "role_call" and e.payload["template"] == "revise"]
        # through round 6 of W = 8 at least one node still waits behind the frontier
        assert len(sizes[8]) == 7
        assert sizes[40][:6] == sizes[8][:6]

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
        """The record's per-role totals are the per-role sums of the run's role_call
        events, prompt and output tokens alike, for every method and for a run
        ended by a role fault, whose usage counts too."""
        wiki = load_task_instance(WIKI_FIXTURES[0])
        travel = travel_locality_instance("direct")
        unparseable = RunConfig(parser_retry_budget=1, role_backends={
            "executor": ScriptedBackend([rule("executor:react", [], "no action line here")])})
        cases = [
            ("tdp", travel, travel_locality_config(travel_locality_rules())),
            *((method, wiki, load_config(CONFIG_DIR / "scripted_wiki.json")) for method in METHODS),
            ("react", wiki, unparseable),
        ]
        for method, instance, config in cases:
            sink = TraceSink(clock=CounterClock())
            env = make_environment(instance.environment)
            if method == "tdp":
                report = run_task(instance, env, config, sink=sink)
            else:
                report = BASELINES[method](instance, env, config, sink=sink)
            assert_ends_on_record(report, sink)
            calls = [e.payload for e in sink.events_for(report.run_id) if e.kind == "role_call"]
            by_role: dict[str, dict[str, int]] = {}
            for call in calls:
                totals = by_role.setdefault(call["role"], {"prompt_tokens": 0, "output_tokens": 0})
                totals["prompt_tokens"] += call["prompt_tokens"]
                totals["output_tokens"] += call["output_tokens"]
            assert report.role_tokens == by_role, (method, instance.id)
            assert list(report.role_tokens) == sorted(by_role)
            assert all(t["prompt_tokens"] > 0 and t["output_tokens"] > 0 for t in by_role.values())
        (fault,) = calls  # the last case: one react call, faulted after its retry
        assert fault["ok"] is False and fault["attempts"] == 2
        assert report.reason.startswith("role fault:")

    @pytest.mark.parametrize("config, fixture, method", RECORD_CASES,
                             ids=[f"{m}__{f.stem}" for _, f, m in RECORD_CASES])
    def test_a_runner_returns_the_record_its_trace_replays_to(
        self, tmp_path, config, fixture, method
    ):
        """A runner returns its run's one record: ``compute_metrics`` over the
        trace file read back, as ``tdp replay`` and perfbench compute it."""
        instance = load_task_instance(fixture)
        path = tmp_path / "trace.jsonl"
        runner = run_task if method == "tdp" else BASELINES[method]
        record = runner(instance, make_environment(instance.environment),
                        load_config(CONFIG_DIR / config),
                        sink=TraceSink(path, clock=CounterClock()))
        headers, events = read_trace(path)
        meta = headers[record.run_id]["meta"]
        assert record == compute_metrics(events, meta["gold"], method=meta["method"],
                                         run_id=record.run_id)
        assert record.method == method and record.reason and record.role_tokens
        assert bool(record.node_records) is (method == "tdp")

    def test_a_finish_that_raises_still_closes_the_trace_file(self, tmp_path):
        """A gold record that is not an object reaches the trace header but
        fails the fold in ``Run.finish``: ``run_end`` is written, the error
        propagates, and the file sink is closed, so no ResourceWarning escapes."""
        stages = 2
        instance = replace(chain_instance(stages), gold=[("answer", "stage 2")])
        path = tmp_path / "trace.jsonl"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with pytest.raises(TraceError, match="'gold' must be an object"):
                run_task(instance, ChainEnv(), chain_config(stages, tdp_chain_rules(stages)),
                         sink=TraceSink(path, clock=CounterClock()))
            gc.collect()
        assert [w for w in caught if issubclass(w.category, ResourceWarning)] == []
        headers, events = read_trace(path)
        assert headers["tdp__chain2"]["meta"]["gold"] == {"answer": "stage 2"}
        assert events[-1].kind == "run_end" and events[-1].payload["terminal"] == "Completed"

    @pytest.mark.parametrize("method", METHODS)
    @pytest.mark.parametrize("fail_at", [1, 2])
    def test_backend_error_ends_the_run_on_record(self, method, fail_at):
        """A backend error at model call `fail_at` is a recorded call, and
        still writes ``run_end`` as the run's last event, naming the error,
        and then propagates."""
        config, calls = with_fault(load_config(CONFIG_DIR / "scripted_wiki.json"), fail_at, "error")
        instance = load_task_instance(WIKI_FIXTURES[0])
        sink = TraceSink(clock=CounterClock())
        runner = run_task if method == "tdp" else BASELINES[method]
        with pytest.raises(RuntimeError, match="injected fault"):
            runner(instance, make_environment(instance.environment), config, sink=sink,
                   run_id="r")
        assert len(calls) == fail_at
        report = compute_metrics(sink.events_for("r"), instance.gold, method=method)
        assert_ends_on_record(report, sink)
        assert report.terminal == "Terminated"
        assert report.reason == f"error: RuntimeError: injected fault at call {fail_at}"
        role_calls = [e.payload for e in sink.events_for("r") if e.kind == "role_call"]
        assert len(role_calls) == fail_at
        assert [call["ok"] for call in role_calls] == [True] * (fail_at - 1) + [False]
        failed = role_calls[-1]
        assert failed["error"] == f"RuntimeError: injected fault at call {fail_at}"
        assert failed["attempts"] == 1
        assert (failed["prompt_tokens"], failed["output_tokens"]) == (0, 0)

    def test_each_prompt_is_rendered_once(self, monkeypatch):
        """Run.call renders a prompt once, for the backend and for its
        ``prompt_chars`` alike."""
        import tdp.engine
        import tdp.roles

        renders = []
        real_render = tdp.roles.render_prompt

        def counting_render(template, bindings):
            renders.append(template.name)
            return real_render(template, bindings)

        monkeypatch.setattr(tdp.engine, "render_prompt", counting_render)
        monkeypatch.setattr(tdp.roles, "render_prompt", counting_render)
        instance = load_task_instance(WIKI_FIXTURES[0])
        sink = TraceSink(clock=CounterClock())
        report = run_task(instance, make_environment(instance.environment),
                          load_config(CONFIG_DIR / "scripted_wiki.json"), sink=sink)
        calls = [e.payload["template"] for e in sink.events_for(report.run_id)
                 if e.kind == "role_call"]
        assert len(calls) > 5
        assert renders == calls

    def test_malformed_revise_reply_becomes_a_revision_fault_noop(self):
        config = load_config(CONFIG_DIR / "scripted_wiki.json")
        bad = rule("supervisor:revise", [],
                   '{"description_updates": [], "new_nodes": true, "remove_nodes": []}')
        config.role_backends["supervisor"] = ScriptedBackend(
            [bad, *config.role_backends["supervisor"].rules])
        instance = load_task_instance(WIKI_FIXTURES[0])
        sink = TraceSink(clock=CounterClock())
        report = run_task(instance, make_environment(instance.environment), config, sink=sink)
        events = sink.events_for(report.run_id)
        (revise,) = [e.payload for e in events
                     if e.kind == "role_call" and e.payload["template"] == "revise"]
        assert revise["ok"] is False
        assert revise["attempts"] == config.parser_retry_budget + 1
        (revision,) = [e.payload for e in events if e.kind == "revision"]
        assert revision["status"] == "noop"
        assert revision["delta"] is None
        assert revision["error"].startswith(
            f"role 'supervisor:revise' failed after {revise['attempts']} attempt(s): ")
        assert "'new_nodes' must be a list" in revision["error"]
        assert report.terminal == "Completed"
        assert_ends_on_record(report, sink)

    def test_replanned_away_obstacles_do_not_cross_the_dependency_edge(self):
        """On the W = 3 chain every stage meets an obstacle and replans around
        it.  A stage's obstacle reaches exactly its own node's execute,
        evaluate and replan prompts: no other node's prompt and no revise
        prompt carries it."""
        stages = 3
        config = chain_config(stages, tdp_chain_rules(stages))
        report = run_task(chain_instance(stages), ChainEnv(), config)
        assert report.terminal == "Completed"
        calls = [call for backend in config.role_backends.values() for call in backend.calls]
        tags = {tag for tag, _ in calls}
        assert {"planner:plan", "supervisor:revise"} <= tags
        for k in range(1, stages + 1):
            carriers = [(tag, p) for tag, p in calls if f"obstacle at stage {k}:" in p]
            assert {tag for tag, _ in carriers} == {
                "executor:execute", "supervisor:evaluate", "planner:replan"}, k
            for tag, prompt in carriers:
                assert f"Current Subgoal: Handle stage {k} of the queue." in prompt, (k, tag)

    def test_dependent_plan_prompt_ignores_how_its_dependency_got_there(self):
        """node_2's planner prompt costs the same whether node_1 opened the
        drawer at once or after two accepted replans."""
        prompts = {}
        for n in (0, 2):
            sink = TraceSink(clock=CounterClock())
            config = _two_replan_lab_config(n)
            report = run_task(diamond_instance(), make_environment("textlab"), config, sink=sink)
            assert report.terminal == "Completed"
            assert report.node_records["node_1"]["replan_count"] == n
            assert report.node_records["node_1"]["trace_len"] == n + 1
            (tokens,) = [e.payload["prompt_tokens"] for e in sink.events_for(report.run_id)
                         if e.kind == "role_call" and e.payload["scope"] == "node_2"
                         and e.payload["template"] == "plan"]
            (prompt,) = [p for tag, p in config.role_backends["planner"].calls
                         if tag == "planner:plan" and LAB_D2 in p]
            prompts[n] = (tokens, prompt)
        assert prompts[2] == prompts[0]
        assert "Nothing happens" not in prompts[2][1]

    def test_a_revision_may_not_edit_a_node_its_view_only_counted(self):
        """After round 1 of a three-stage chain the revise view shows node_1
        and node_2 and only counts node_3.  A revision that rewords node_3 is
        rejected with one reason, and node_3 keeps its wording."""
        role_backends = tdp_chain_rules(3)
        hidden = rule("supervisor:revise", ["- node_1 [completed]", "- node_2 [pending]"],
                      revision_reply(("node_3", "Handle stage 3 of the queue, unseen.")))
        role_backends["supervisor"] = recording(
            [hidden, *role_backends["supervisor"].inner.rules])
        sink = TraceSink(clock=CounterClock())
        report = run_task(chain_instance(3), ChainEnv(), chain_config(3, role_backends),
                          sink=sink, run_id="r")
        assert report.terminal == "Completed"
        prompts = [p for tag, p in role_backends["supervisor"].calls
                   if tag == "supervisor:revise"]
        assert "- (1 pending not shown)" in prompts[0]
        first = next(e.payload for e in sink.events_for("r") if e.kind == "revision")
        assert first["status"] == "rejected"
        assert first["reasons"] == ["scope: node 'node_3' is not in the revise view"]
        rebuilt = replay_graph(sink.events_for("r"))
        assert rebuilt.nodes["node_3"].description == "Handle stage 3 of the queue."

    def test_revisions_without_step_progress_end_the_run(self):
        """node_1 fails and node_2 waits behind it for ever; a supervisor that
        rewords node_2 every round is stopped after STALL_ROUNDS idle rounds.
        The supervisor refuses a runaway number of revise calls, so a run with
        no bound fails here instead of looping."""

        class CappedRevisions(RecordingBackend):
            def complete(self, role_tag, prompt):
                if role_tag == "supervisor:revise" and len(self.calls) > 50:
                    raise AssertionError("revision loop did not end")
                return super().complete(role_tag, prompt)

        config = _exec_config(
            [
                rule("supervisor:construct", [],
                     subgoals_reply(("node_1", D1, []),
                                    ("node_2", "Activate the stove.", ["node_1"]))),
                rule("supervisor:evaluate", [], eval_reply("failed", "No way in.")),
                rule("supervisor:revise", [], revision_reply(("node_2", "Turn the stove on."))),
            ],
            [rule("planner:plan", [], plan_reply("Try."))],
            [rule("executor:execute", [], "open drawer")],
        )
        config.role_backends["supervisor"] = CappedRevisions(
            config.role_backends["supervisor"].inner)
        sink = TraceSink(clock=CounterClock())
        report = run_task(diamond_instance(), make_environment("textlab"), config, sink=sink)
        assert report.terminal == "Terminated"
        assert report.reason == f"stall: {STALL_ROUNDS} rounds without an environment step"
        assert report.steps_used == 1
        assert_ends_on_record(report, sink)
        revisions = [e for e in sink.events_for(report.run_id) if e.kind == "revision"]
        # round 1 stepped; then STALL_ROUNDS rounds in a row did not
        assert [e.payload["status"] for e in revisions] == ["applied"] * (1 + STALL_ROUNDS)

    def test_direct_variant_needs_no_replan(self):
        sink = TraceSink(clock=CounterClock())
        report = run_task(travel_locality_instance("direct"),
                          make_environment("traveltoy"),
                          travel_locality_config(travel_locality_rules()), sink=sink)
        assert report.terminal == "Completed"
        assert [e for e in sink.events_for(report.run_id) if e.kind == "replan"] == []
        assert report.node_records["node_2"]["replan_count"] == 0
