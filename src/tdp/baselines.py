"""Reference agent loops for cost/quality comparison.

All three baselines are loop bodies over the engine's :class:`~tdp.engine.Run`,
so they share its backends, budgets, and telemetry, and they reuse its prompt
templates with whole-task bindings wherever the shape allows.  The comparison
thus isolates orchestration strategy rather than prompt wording:

* ReAct     — a single role; every step sees the full accumulated history.
* CoT       — one up-front plan, executed step-for-step, never revised.
* Plan-and-Act — a global plan; an evaluator may trigger regeneration of the
  whole plan with the full history in the prompt (the global-replan scope the
  node-scoped engine is measured against).
"""

from __future__ import annotations

import re
from typing import Any, Callable

from .engine import Run, RunConfig, RunReport, assemble_history
from .environments import Environment, TaskInstance
from .graph import TraceEntry
from .roles import (
    ParseFault,
    Plan,
    RoleFault,
    extract_action,
    parse_evaluation,
    parse_plan,
    parse_replan,
    render_plan,
)
from .telemetry import TraceSink

__all__ = [
    "parse_react",
    "run_react",
    "run_cot",
    "run_plan_and_act",
    "BASELINES",
]


_ACTION_LINE_RE = re.compile(r"^Action:\s*(.+)$", re.MULTILINE)
_THOUGHT_LINE_RE = re.compile(r"^Thought:\s*(.+)$", re.MULTILINE)


def parse_react(text: str) -> tuple[str, str]:
    """(thought, action) from a think-then-act reply; the Action line is required."""
    action_match = _ACTION_LINE_RE.search(text)
    if not action_match:
        raise ParseFault("reply has no 'Action:' line", raw_text=text)
    action = extract_action(action_match.group(1))
    thought_match = _THOUGHT_LINE_RE.search(text)
    thought = thought_match.group(1).strip() if thought_match else ""
    return thought, action


def _whole_task_bindings(
    run: Run,
    instance: TaskInstance,
    trace: list[TraceEntry],
    plan: Plan | None = None,
    guidance: str | None = None,
) -> dict[str, Any]:
    """The whole-task view: the task is the sub-goal and the history is never
    capped, because the baselines carry everything, every step."""
    return {
        "task_description": instance.query,
        "subgoal": instance.query,
        "current_plan": render_plan(plan) if plan is not None else None,
        "guidance": guidance,
        "admissible_commands": run.commands,
        "history": assemble_history(trace, len(trace)),
    }


def run_react(
    instance: TaskInstance,
    env: Environment,
    config: RunConfig,
    *,
    sink: TraceSink | None = None,
    run_id: str | None = None,
) -> RunReport:
    """Interleaved think/act loop; one role, full history in every prompt."""
    config.require_roles("executor")
    run = Run("react", instance, env, config, sink=sink, run_id=run_id)
    trace: list[TraceEntry] = []
    try:
        while True:
            if env.done:
                return run.finish("Completed", "task done")
            if run.steps.exhausted():
                return run.finish("Terminated", "step budget exhausted")
            _thought, action = run.call(
                "executor", "react", _whole_task_bindings(run, instance, trace), parse_react
            )
            trace.append(run.act(action))
    except RoleFault as fault:
        return run.finish("Terminated", f"role fault: {fault}")


def run_cot(
    instance: TaskInstance,
    env: Environment,
    config: RunConfig,
    *,
    sink: TraceSink | None = None,
    run_id: str | None = None,
) -> RunReport:
    """One up-front plan, executed step-for-step; the plan is never revised.

    The planner is consulted exactly once; if the plan runs out before the
    environment reports done, the run terminates with a plan-exhausted record.
    """
    config.require_roles("planner", "executor")
    run = Run("cot", instance, env, config, sink=sink, run_id=run_id)
    trace: list[TraceEntry] = []
    try:
        plan = run.call("planner", "plan", _whole_task_bindings(run, instance, trace), parse_plan)
        for _step in plan.steps:
            if env.done:
                break
            if run.steps.exhausted():
                return run.finish("Terminated", "step budget exhausted")
            view = _whole_task_bindings(run, instance, trace, plan)
            trace.append(run.act(run.call("executor", "execute", view, extract_action)))
    except RoleFault as fault:
        return run.finish("Terminated", f"role fault: {fault}")
    if env.done:
        return run.finish("Completed", "task done")
    return run.finish("Terminated", "plan exhausted before task completion")


def run_plan_and_act(
    instance: TaskInstance,
    env: Environment,
    config: RunConfig,
    *,
    sink: TraceSink | None = None,
    run_id: str | None = None,
) -> RunReport:
    """Global plan + stepwise execution; deviations regenerate the whole plan.

    The evaluator (the engine's evaluation prompt, bound to the whole task)
    runs after every step; when it flags need_replan, the replanner sees the
    full accumulated history and may replace the entire plan.  The per-node
    replan cap applies to the single global plan.
    """
    config.require_roles("supervisor", "planner", "executor")
    run = Run("plan-act", instance, env, config, sink=sink, run_id=run_id)
    trace: list[TraceEntry] = []
    try:
        plan = run.call("planner", "plan", _whole_task_bindings(run, instance, trace), parse_plan)
        replans = 0
        guidance: str | None = None
        while True:
            if env.done:
                return run.finish("Completed", "task done")
            if run.steps.exhausted():
                return run.finish("Terminated", "step budget exhausted")
            view = _whole_task_bindings(run, instance, trace, plan, guidance)
            guidance = None
            trace.append(run.act(run.call("executor", "execute", view, extract_action)))
            view = _whole_task_bindings(run, instance, trace, plan)
            evaluation = run.call("supervisor", "evaluate", view, parse_evaluation)
            if evaluation.need_replan:
                if replans >= config.max_replans_per_node:
                    run.replan("global", accepted=False, replan_count=replans, budget_exhausted=True)
                    return run.finish("Terminated", f"replan budget exhausted ({replans})")
                decision = run.call(
                    "planner", "replan", {**view, "reason": evaluation.reason}, parse_replan
                )
                if decision.replan:
                    assert decision.new_plan is not None
                    plan = decision.new_plan
                    replans += 1
                run.replan("global", accepted=decision.replan, replan_count=replans)
            elif evaluation.status == "needs_more_steps":
                guidance = evaluation.reason
    except RoleFault as fault:
        return run.finish("Terminated", f"role fault: {fault}")


BASELINES: dict[str, Callable[..., RunReport]] = {
    "react": run_react,
    "cot": run_cot,
    "plan-act": run_plan_and_act,
}
