"""Baseline loops: react, cot, plan-act — full-history prompts, global replans."""

from __future__ import annotations

import pytest

from tdp.baselines import (
    BASELINES,
    run_cot,
    run_plan_and_act,
    run_react,
)
from tdp.engine import RunConfig
from tdp.environments import make_environment
from tdp.roles import ParseFault, ScriptedBackend, parse_react
from tdp.telemetry import CounterClock, TraceSink

from scenarios import (
    ATTEMPT_BOUNDS,
    ChainEnv,
    assert_ends_on_record,
    backends,
    chain_config,
    chain_instance,
    diamond_instance,
    eval_reply,
    plan_reply,
    planact_chain_rules,
    recording,
    replan_decline,
    rule,
)

FOUND_RIVER = "seated on the Illinois River"  # fragment of the Peoria page


def _wiki_env(wiki_instance):
    env = make_environment("mockwiki")
    env.reset(wiki_instance)  # run loops reset again; harmless
    return env


# -- the react reply parser ------------------------------------------------------


WIKI_VERBS = frozenset({"Search", "Lookup", "Finish"})


class TestParseReact:
    def test_thought_and_action(self):
        action = parse_react(
            "Thought: the page will name the river\nAction: Search[Peoria, Illinois]", WIKI_VERBS)
        assert action == "Search[Peoria, Illinois]"

    def test_action_alone_is_enough(self):
        assert parse_react("Action: Lookup[river]", WIKI_VERBS) == "Lookup[river]"

    def test_quoted_action_unwrapped(self):
        action = parse_react('Thought: go\nAction: "Finish[Illinois River]"', WIKI_VERBS)
        assert action == "Finish[Illinois River]"

    def test_missing_action_line(self):
        with pytest.raises(ParseFault, match="no 'Action:' line"):
            parse_react("Thought: hmm, unsure what to do next", WIKI_VERBS)

    def test_action_must_be_a_command_of_the_environment(self):
        with pytest.raises(ParseFault, match="must start with one of: Finish, Lookup, Search"):
            parse_react("Thought: open it\nAction: open drawer", WIKI_VERBS)


# -- react -------------------------------------------------------------------------


def _react_backend():
    return recording([
        rule("executor:react", [FOUND_RIVER],
             "Thought: the river is named\nAction: Finish[Illinois River]"),
        rule("executor:react", [],
             "Thought: look the city up\nAction: Search[Peoria, Illinois]"),
    ])


class TestReact:
    def test_completes_and_answers(self, wiki_instance):
        backend = _react_backend()
        config = RunConfig(s_max=6, role_backends={"executor": backend})
        report = run_react(wiki_instance, _wiki_env(wiki_instance), config)
        assert report.terminal == "Completed" and report.reason == "task done"
        assert report.delivery is True
        assert report.env_metrics["answer"] == "Illinois River"
        assert report.steps_used == 2
        assert report.run_id == "react__wiki_peoria"

    def test_every_prompt_carries_the_full_history(self, wiki_instance):
        backend = _react_backend()
        config = RunConfig(s_max=6, role_backends={"executor": backend})
        run_react(wiki_instance, _wiki_env(wiki_instance), config)
        prompts = [prompt for _tag, prompt in backend.calls]
        assert "(no actions yet)" in prompts[0]
        assert "Action: Search[Peoria, Illinois]" in prompts[1]
        assert FOUND_RIVER in prompts[1]  # observation included verbatim

    def test_step_budget_cuts_the_loop(self, wiki_instance):
        backend = ScriptedBackend([
            rule("executor:react", [], "Thought: again\nAction: Lookup[river]")])
        config = RunConfig(s_max=3, role_backends={"executor": backend})
        report = run_react(wiki_instance, _wiki_env(wiki_instance), config)
        assert report.terminal == "Terminated"
        assert report.reason == "step budget exhausted"
        assert report.steps_used == 3

    def test_role_fault_terminates(self, wiki_instance):
        backend = ScriptedBackend([rule("executor:react", [], "no action line here")])
        config = RunConfig(parser_retry_budget=0, role_backends={"executor": backend})
        sink = TraceSink(clock=CounterClock())
        report = run_react(wiki_instance, _wiki_env(wiki_instance), config, sink=sink)
        assert report.terminal == "Terminated"
        assert report.reason.startswith("role fault:")
        assert report.steps_used == 0
        assert_ends_on_record(report, sink)


# -- cot ----------------------------------------------------------------------------


def _cot_backends(plan_steps):
    return backends(
        [],
        [rule("planner:plan", [], plan_reply(*plan_steps))],
        [
            rule("executor:execute", [FOUND_RIVER], "Finish[Illinois River]"),
            rule("executor:execute", [], "Search[Peoria, Illinois]"),
        ],
    )


class TestCot:
    def test_one_plan_executed_step_for_step(self, wiki_instance):
        role_backends = _cot_backends(
            ["Find the Peoria page.", "Submit the river's name."])
        config = RunConfig(s_max=6, role_backends=role_backends)
        sink = TraceSink(clock=CounterClock())
        report = run_cot(wiki_instance, _wiki_env(wiki_instance), config, sink=sink)
        assert report.terminal == "Completed"
        assert report.delivery is True
        assert len(role_backends["planner"].calls) == 1
        events = sink.events_for(report.run_id)
        assert [e.kind for e in events if e.kind == "replan"] == []

    def test_plan_exhaustion_is_a_terminal_reason(self, wiki_instance):
        role_backends = _cot_backends(["Find the Peoria page."])  # never finishes
        config = RunConfig(s_max=6, role_backends=role_backends)
        sink = TraceSink(clock=CounterClock())
        report = run_cot(wiki_instance, _wiki_env(wiki_instance), config, sink=sink)
        assert report.terminal == "Terminated"
        assert report.reason == "plan exhausted before task completion"
        assert report.delivery is False
        assert_ends_on_record(report, sink)

    def test_plan_and_budget_running_out_together_is_plan_exhaustion(self, wiki_instance):
        role_backends = backends(
            [],
            [rule("planner:plan", [], plan_reply("Find the page.", "Look again."))],
            [rule("executor:execute", [], "Search[Peoria, Illinois]")],  # never finishes
        )
        config = RunConfig(s_max=2, role_backends=role_backends)
        sink = TraceSink(clock=CounterClock())
        report = run_cot(wiki_instance, _wiki_env(wiki_instance), config, sink=sink)
        assert report.steps_used == config.s_max
        assert report.terminal == "Terminated"
        assert report.reason == "plan exhausted before task completion"
        assert_ends_on_record(report, sink)

    def test_episode_end_stops_remaining_steps(self, wiki_instance):
        role_backends = _cot_backends(
            ["Find the page.", "Answer.", "This step is never reached."])
        config = RunConfig(s_max=6, role_backends=role_backends)
        report = run_cot(wiki_instance, _wiki_env(wiki_instance), config)
        assert report.terminal == "Completed"
        assert len(role_backends["executor"].calls) == 2

    def test_planner_fault_terminates_before_any_step(self, wiki_instance):
        role_backends = _cot_backends(["x"])
        role_backends["planner"] = ScriptedBackend([rule("planner:plan", [], "not a plan")])
        config = RunConfig(parser_retry_budget=0, role_backends=role_backends)
        report = run_cot(wiki_instance, _wiki_env(wiki_instance), config)
        assert report.reason.startswith("role fault:")
        assert report.steps_used == 0


# -- plan-act --------------------------------------------------------------------------


def _planact_wiki_backends():
    return backends(
        [
            rule("supervisor:evaluate", ["Final answer recorded"],
                 eval_reply("completed", "The answer went in.")),
            rule("supervisor:evaluate", [FOUND_RIVER],
                 eval_reply("needs_more_steps",
                            "Now deliver the final answer with Finish.")),
        ],
        [rule("planner:plan", [],
              plan_reply("Find the Peoria page.", "Submit the river's name."))],
        [
            rule("executor:execute", [FOUND_RIVER], "Finish[Illinois River]"),
            rule("executor:execute", [], "Search[Peoria, Illinois]"),
        ],
    )


class TestPlanAct:
    def test_evaluates_after_every_step_until_the_episode_ends(self, wiki_instance):
        role_backends = _planact_wiki_backends()
        config = RunConfig(s_max=6, role_backends=role_backends)
        report = run_plan_and_act(wiki_instance, _wiki_env(wiki_instance), config)
        assert report.terminal == "Completed"
        assert report.steps_used == 2
        assert len(role_backends["supervisor"].calls) == 1  # the last step is not judged

    def test_guidance_reaches_the_next_executor_prompt(self, wiki_instance):
        role_backends = _planact_wiki_backends()
        config = RunConfig(s_max=6, role_backends=role_backends)
        run_plan_and_act(wiki_instance, _wiki_env(wiki_instance), config)
        prompts = [prompt for _tag, prompt in role_backends["executor"].calls]
        assert "Now deliver the final answer" not in prompts[0]
        assert "Now deliver the final answer" in prompts[1]

    def test_completed_verdict_does_not_end_the_episode(self):
        # the loop only exits on env.done; a premature "completed" verdict is noted
        # and the loop simply continues
        instance = diamond_instance()
        instance = type(instance)(
            id="one_condition", environment="textlab", query="Focus the plant.",
            gold={"conditions": [{"kind": "focused", "object": "plant"}]},
            payload=instance.payload)
        role_backends = backends(
            [rule("supervisor:evaluate", [], eval_reply("completed", "Looks done."))],
            [rule("planner:plan", [], plan_reply("Focus the plant."))],
            [
                rule("executor:execute", ["You open the drawer"], "focus plant"),
                rule("executor:execute", [], "open drawer"),
            ],
        )
        config = RunConfig(s_max=6, role_backends=role_backends)
        env = make_environment("textlab")
        report = run_plan_and_act(instance, env, config)
        assert report.terminal == "Completed"
        assert report.steps_used == 2  # verdict after step 1 didn't stop the run
        assert len(role_backends["executor"].calls) == 2

    def test_replan_decline_keeps_going(self, wiki_instance):
        role_backends = backends(
            [
                rule("supervisor:evaluate", ["Final answer recorded"],
                     eval_reply("completed", "Delivered.")),
                rule("supervisor:evaluate", [FOUND_RIVER],
                     eval_reply("needs_more_steps", "The plan looks stale.",
                                need_replan=True)),
            ],
            [
                rule("planner:plan", [], plan_reply("Search, then answer.")),
                rule("planner:replan", [], replan_decline("Stale but workable.")),
            ],
            [
                rule("executor:execute", [FOUND_RIVER], "Finish[Illinois River]"),
                rule("executor:execute", [], "Search[Peoria, Illinois]"),
            ],
        )
        config = RunConfig(s_max=6, role_backends=role_backends)
        sink = TraceSink(clock=CounterClock())
        report = run_plan_and_act(wiki_instance, _wiki_env(wiki_instance), config,
                                  sink=sink)
        assert report.terminal == "Completed"
        (replan,) = [e for e in sink.events_for(report.run_id) if e.kind == "replan"]
        assert replan.payload["accepted"] is False
        assert replan.payload["scope"] == "global"

    def test_replan_budget_exhaustion_terminates(self, wiki_instance):
        role_backends = backends(
            [rule("supervisor:evaluate", [],
                  eval_reply("needs_more_steps", "Blocked.", need_replan=True))],
            [rule("planner:plan", [], plan_reply("Look around."))],
            [rule("executor:execute", [], "Lookup[river]")],
        )
        config = RunConfig(s_max=6, max_replans_per_node=0,
                           role_backends=role_backends)
        sink = TraceSink(clock=CounterClock())
        report = run_plan_and_act(wiki_instance, _wiki_env(wiki_instance), config,
                                  sink=sink)
        assert report.terminal == "Terminated"
        assert report.reason == "replan budget exhausted (0)"
        (replan,) = [e for e in sink.events_for(report.run_id) if e.kind == "replan"]
        assert replan.payload["budget_exhausted"] is True
        assert_ends_on_record(report, sink)

    def test_chain_replans_see_the_whole_past(self):
        stages = 3
        role_backends = planact_chain_rules(stages)
        config = chain_config(stages, role_backends)
        sink = TraceSink(clock=CounterClock())
        report = run_plan_and_act(chain_instance(stages), ChainEnv(), config, sink=sink)
        assert report.terminal == "Completed"
        assert report.env_metrics["stages_cleared"] == stages
        replans = [e for e in sink.events_for(report.run_id) if e.kind == "replan"]
        assert len(replans) == stages
        assert all(e.payload["accepted"] for e in replans)
        replan_prompts = [prompt for tag, prompt in role_backends["planner"].calls
                          if tag == "planner:replan"]
        assert len(replan_prompts) == stages
        # the stage-3 replan still carries stage 1's obstacle: full-history prompts
        assert "obstacle at stage 1:" in replan_prompts[-1]
        assert "obstacle at stage 2:" in replan_prompts[-1]
        sizes = [len(p) for p in replan_prompts]
        assert sizes[0] < sizes[1] < sizes[2]


# -- dispatch ---------------------------------------------------------------------------


class TestDispatch:
    def test_registry_names(self):
        assert sorted(BASELINES) == ["cot", "plan-act", "react"]

    def test_dispatch_by_name_runs_the_right_loop(self, wiki_instance):
        backend = _react_backend()
        config = RunConfig(s_max=6, role_backends={"executor": backend})
        report = BASELINES["react"](wiki_instance, _wiki_env(wiki_instance), config)
        assert report.method == "react"
        assert report.terminal == "Completed"


# -- model-call bounds ------------------------------------------------------------------


def _last_attempt_parses(role_tag: str, garbage: str, reply: str, retries: int):
    """A rule whose reply fails to parse on every attempt but the last one."""
    return rule(role_tag, [], *([garbage] * retries), reply)


@pytest.mark.parametrize("retries", [0, 2])
@pytest.mark.parametrize("method", sorted(BASELINES))
def test_a_never_done_run_stays_within_its_model_call_bound(method, retries):
    """Every action goes nowhere, every reply parses only on its last attempt,
    plan-act's evaluator asks for a replan after every step and cot's plan is
    longer than the budget: the worst case each docstring bound allows."""
    s_max = 5
    long_plan = plan_reply(*(f"Wait, round {i}." for i in range(1, 2 * s_max + 1)))
    role_backends = backends(
        [_last_attempt_parses("supervisor:evaluate", "not json",
                              eval_reply("needs_more_steps", "Keep going.", need_replan=True),
                              retries)],
        [_last_attempt_parses("planner:plan", "no plan", long_plan, retries),
         _last_attempt_parses("planner:replan", "not json", replan_decline(), retries)],
        [_last_attempt_parses("executor:execute", "", "work 9", retries),
         _last_attempt_parses("executor:react", "Thought: hmm", "Action: work 9", retries)],
    )
    config = RunConfig(s_max=s_max, parser_retry_budget=retries, role_backends=role_backends)
    sink = TraceSink(clock=CounterClock())
    report = BASELINES[method](chain_instance(3), ChainEnv(), config, sink=sink)
    assert report.terminal == "Terminated"
    assert report.steps_used == s_max
    attempts = sum(len(backend.calls) for backend in role_backends.values())
    assert attempts == ATTEMPT_BOUNDS[method](s_max, retries)  # within it, and it is tight
    assert_ends_on_record(report, sink)
