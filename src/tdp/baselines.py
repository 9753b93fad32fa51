"""Reference agent loops for cost/quality comparison.

All three baselines are loop bodies over the engine's one run scaffold
(:func:`~tdp.engine.run_method` around a :class:`~tdp.engine.Run`), so they
share its backends, budgets, end-of-run check and telemetry, write
``run_end`` however they end, return the run's
:class:`~tdp.telemetry.MetricsRecord` as tdp does, and call its prompt
templates, each of which names its role and its reply reader, with whole-task
bindings.  The comparison thus isolates orchestration strategy rather than
prompt wording:

* ReAct     — a single role; every step sees the full accumulated history.
* CoT       — one up-front plan, executed step-for-step, never revised.
* Plan-and-Act — a global plan; an evaluator may trigger regeneration of the
  whole plan with the full history in the prompt (the global-replan scope the
  node-scoped engine is measured against).
"""

from __future__ import annotations

from typing import Any, Callable

from .engine import Run, assemble_history, run_method
from .graph import TraceEntry
from .roles import Plan, render_plan
from .telemetry import MetricsRecord

__all__ = [
    "run_react",
    "run_cot",
    "run_plan_and_act",
    "BASELINES",
]


def _whole_task_bindings(
    run: Run,
    trace: list[TraceEntry],
    plan: Plan | None = None,
    guidance: str | None = None,
) -> dict[str, Any]:
    """The whole-task view: the task is the sub-goal, there are no
    prerequisites, nothing depends on it (so the planner reads the
    final-action rule, as a sink node's does), and the history is never
    capped, because the baselines carry everything, every step."""
    return {
        "task_description": run.instance.query,
        "subgoal": run.instance.query,
        "current_plan": render_plan(plan) if plan is not None else None,
        "guidance": guidance,
        "prerequisites": None,
        "if_sink": "",
        "history": assemble_history(trace, len(trace)),
    }


@run_method("react", "executor")
def run_react(run: Run) -> tuple[str, str]:
    """Interleaved think/act loop; one role, full history in every prompt, one
    call per step: at most ``(1 + parser_retry_budget) * s_max`` model attempts."""
    trace: list[TraceEntry] = []
    while (end := run.stop()) is None:
        view = _whole_task_bindings(run, trace)
        trace.append(run.act(run.call("react", view)))
    return end


@run_method("cot", "planner", "executor")
def run_cot(run: Run) -> tuple[str, str]:
    """One up-front plan, executed step-for-step; the plan is never revised.

    The planner is consulted exactly once; if the plan runs out before the
    environment reports done, the run terminates with a plan-exhausted record,
    also when the step budget ran out with it.  One plan call, then one call
    per step: at most ``(1 + parser_retry_budget) * (1 + s_max)`` model attempts.
    """
    trace: list[TraceEntry] = []
    plan = run.call("plan", _whole_task_bindings(run, trace))
    for _step in plan.steps:
        if (end := run.stop()) is not None:
            return end
        view = _whole_task_bindings(run, trace, plan)
        trace.append(run.act(run.call("execute", view)))
    if (end := run.stop()) is None or end[0] == "Terminated":  # the plan ran out, budget or not
        return "Terminated", "plan exhausted before task completion"
    return end


@run_method("plan-act", "supervisor", "planner", "executor")
def run_plan_and_act(run: Run) -> tuple[str, str]:
    """Global plan + stepwise execution; deviations regenerate the whole plan.

    The evaluator (the engine's evaluation prompt, bound to the whole task)
    judges each step after which the run goes on; when it flags need_replan,
    the replanner sees the full accumulated history and may replace the entire
    plan.  The per-node replan cap applies to the single global plan.  One plan
    call, then up to three per step but one for the last: at most
    ``(1 + parser_retry_budget) * (3 * s_max - 1)`` attempts.
    """
    trace: list[TraceEntry] = []
    plan = run.call("plan", _whole_task_bindings(run, trace))
    replans = 0
    guidance: str | None = None
    while (end := run.stop()) is None:
        view = _whole_task_bindings(run, trace, plan, guidance)
        guidance = None
        trace.append(run.act(run.call("execute", view)))
        if (end := run.stop()) is not None:
            break
        view = _whole_task_bindings(run, trace, plan)
        evaluation = run.call("evaluate", view)
        if evaluation.need_replan:
            if replans >= run.config.max_replans_per_node:
                run.emit("replan", scope="global", accepted=False, replan_count=replans,
                         budget_exhausted=True)
                return "Terminated", f"replan budget exhausted ({replans})"
            new_plan = run.call("replan", {**view, "reason": evaluation.reason})
            if new_plan is not None:
                plan = new_plan
                replans += 1
            run.emit("replan", scope="global", accepted=new_plan is not None, replan_count=replans)
        elif evaluation.status == "needs_more_steps":
            guidance = evaluation.reason
    return end


BASELINES: dict[str, Callable[..., MetricsRecord]] = {
    "react": run_react,
    "cot": run_cot,
    "plan-act": run_plan_and_act,
}
