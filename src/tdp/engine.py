"""The orchestration engine: decompose, schedule, execute node-by-node, revise.

One run is a sequence of rounds.  Each round dispatches every ready node; a
node is worked by the planner/executor pair under supervisor evaluation, with
replanning confined to that node; between rounds the supervisor may revise the
graph.  The environment-interaction budget is enforced *before* every
interaction, so a run never exceeds it.

Context discipline is the load-bearing property: every planner/executor
prompt for a node is assembled exclusively from that node's description, its
direct dependencies' outcome summaries, its own local trace, and optional
one-shot guidance.  Nothing else leaks in, which is what keeps replan prompts
small and node work order-independent.  The supervisor's between-round
revision prompt is scoped the same way, to the round: it sees the actions
taken since the previous revision plus the graph state, in which settled
nodes are reduced to their id and status.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Callable, Sequence

from .environments import Environment, TaskInstance
from .graph import (
    NodeScopedContext,
    NodeStatus,
    OutcomeSummary,
    RevisionDelta,
    SubTaskNode,
    TaskGraph,
    TraceEntry,
    apply_revision,
    build_node_context,
    delta_to_doc,
    graph_to_doc,
    ready_nodes,
    render_dag_state,
    validate_graph,
)
from .roles import (
    ModelBackend,
    ParseFault,
    Plan,
    PromptTemplate,
    RoleFault,
    SubgoalSpec,
    TokenUsage,
    call_role,
    extract_action,
    load_templates,
    parse_evaluation,
    parse_plan,
    parse_replan,
    parse_revision,
    parse_subgoals,
    render_plan,
    render_prompt,
)
from .telemetry import CounterClock, TokenLedger, TraceSink

__all__ = [
    "EngineError",
    "RunConfig",
    "StepCounter",
    "RunReport",
    "format_commands",
    "assemble_history",
    "render_context_history",
    "planner_bindings",
    "build_planner_prompt",
    "call_and_record",
    "construct",
    "execute_node",
    "task_done",
    "run_task",
]

NO_ACTIONS_YET = "(no actions yet)"


class EngineError(RuntimeError):
    """Engine misconfiguration or an unrecoverable orchestration defect."""


@dataclass
class RunConfig:
    """Everything a run needs besides the task and the environment.

    ``role_backends`` maps role names (supervisor/planner/executor) to model
    backends; the history cap keeps the first entry plus the most recent
    ``history_cap - 1``; ``outcome_keep`` is how many trailing observations an
    outcome summary carries forward.
    """

    s_max: int = 30
    max_replans_per_node: int = 3
    parser_retry_budget: int = 2
    history_cap: int = 30
    outcome_keep: int = 3
    role_backends: dict[str, ModelBackend] = field(default_factory=dict)
    environment: str | None = None
    template_dir: str | None = None
    trace_dir: str | None = None
    deterministic_clock: bool = True
    parallel_tasks: int = 1

    def __post_init__(self) -> None:
        if self.s_max < 1:
            raise EngineError(f"s_max must be >= 1, got {self.s_max}")
        if self.history_cap < 2:
            raise EngineError(f"history_cap must be >= 2, got {self.history_cap}")
        if self.max_replans_per_node < 0:
            raise EngineError("max_replans_per_node must be >= 0")
        if self.parser_retry_budget < 0:
            raise EngineError("parser_retry_budget must be >= 0")
        if self.outcome_keep < 1:
            raise EngineError("outcome_keep must be >= 1")
        if self.parallel_tasks < 1:
            raise EngineError("parallel_tasks must be >= 1")

    def backend(self, role: str) -> ModelBackend:
        try:
            return self.role_backends[role]
        except KeyError:
            raise EngineError(f"no backend configured for role {role!r}") from None

    def require_roles(self, *roles: str) -> None:
        missing = [r for r in roles if r not in self.role_backends]
        if missing:
            raise EngineError(f"missing backend(s) for role(s): {', '.join(missing)}")

    def make_clock(self) -> Callable[[], float]:
        return CounterClock() if self.deterministic_clock else time.time


@dataclass
class StepCounter:
    """Run-global environment-interaction counter with a hard ceiling."""

    used: int = 0
    limit: int = 30

    def exhausted(self) -> bool:
        return self.used >= self.limit

    def next_index(self) -> int:
        if self.exhausted():
            raise EngineError("step budget overrun — gate before acting")
        self.used += 1
        return self.used


@dataclass(frozen=True)
class RunReport:
    """What a finished run hands back, independent of any trace file."""

    run_id: str
    method: str
    terminal: str  # "Completed" | "Terminated"
    reason: str
    steps_used: int
    node_records: dict[str, dict[str, Any]]
    role_tokens: dict[str, dict[str, int]]
    env_metrics: dict[str, Any]
    delivered: bool


# ---------------------------------------------------------------------------
# prompt assembly


def format_commands(env: Environment) -> str:
    return "\n".join(env.admissible_commands())


def assemble_history(trace: Sequence[TraceEntry], cap: int) -> str:
    """Render a trace as Action/Observation pairs, keep-first-plus-last capped.

    Overflow keeps the first entry, then an elision marker stating how many
    steps were dropped, then the most recent ``cap - 1`` entries.
    """
    entries = list(trace)
    if not entries:
        return NO_ACTIONS_YET

    def fmt(entry: TraceEntry) -> str:
        return f"Action: {entry.action}\nObservation: {entry.observation}"

    if len(entries) <= cap:
        return "\n".join(fmt(e) for e in entries)
    elided = len(entries) - cap
    parts = [fmt(entries[0]), f"... {elided} steps elided ..."]
    parts.extend(fmt(e) for e in entries[-(cap - 1) :])
    return "\n".join(parts)


def render_context_history(context: NodeScopedContext, cap: int) -> str:
    """The {history} binding for node-scoped prompts: dependency outcomes
    first, then the node's own capped trace."""
    parts: list[str] = []
    if context.dependency_outcomes:
        lines = ["Results from prerequisite sub-tasks:"]
        for dep_id, outcome in zip(context.dependency_ids, context.dependency_outcomes):
            lines.append(f"- [{dep_id}] {outcome.terminal_status.value}: {outcome.summary_text}")
            for obs in outcome.key_observations:
                lines.append(f"  observed: {obs}")
        parts.append("\n".join(lines))
    parts.append(assemble_history(context.local_trace, cap))
    return "\n\n".join(parts)


def planner_bindings(
    task_description: str,
    context: NodeScopedContext,
    commands: str,
    config: RunConfig,
) -> dict[str, Any]:
    return {
        "task_description": task_description,
        "nodes_description": context.subgoal,
        "admissible_commands": commands,
        "history": render_context_history(context, config.history_cap),
    }


def build_planner_prompt(
    graph: TaskGraph,
    node_id: str,
    env: Environment,
    config: RunConfig,
    templates: dict[str, PromptTemplate] | None = None,
) -> str:
    """Exactly the prompt the planner would receive for `node_id` right now.

    Exposed so tests can pin the context-boundedness property to the real
    rendering path.
    """
    templates = templates or load_templates(config.template_dir)
    context = build_node_context(graph, node_id)
    bindings = planner_bindings(graph.task_description, context, format_commands(env), config)
    return render_prompt(templates["plan"], bindings)


# ---------------------------------------------------------------------------
# recorded role calls


def call_and_record(
    role: str,
    template: PromptTemplate,
    bindings: dict[str, Any],
    parser: Callable[[str], Any],
    *,
    scope: str,
    config: RunConfig,
    ledger: TokenLedger,
    sink: TraceSink | None = None,
    run_id: str = "adhoc",
) -> Any:
    """call_role plus ledger cell + role_call event; faults are recorded too."""
    backend = config.backend(role)
    tag = f"{role}:{template.name}"
    prompt_chars = len(render_prompt(template, bindings))

    def emit(usage: TokenUsage, attempts: int, ok: bool) -> None:
        if sink is not None:
            sink.emit(
                run_id,
                "role_call",
                role=role,
                template=template.name,
                scope=scope,
                attempts=attempts,
                prompt_tokens=usage.prompt_tokens,
                output_tokens=usage.output_tokens,
                prompt_chars=prompt_chars,
                ok=ok,
            )

    try:
        value, usage, attempts = call_role(
            backend, template, bindings, parser, config.parser_retry_budget, role_tag=tag
        )
    except RoleFault as fault:
        ledger.record(role, scope, fault.usage)
        emit(fault.usage, fault.attempts, ok=False)
        raise
    ledger.record(role, scope, usage)
    emit(usage, attempts, ok=True)
    return value


# ---------------------------------------------------------------------------
# construction


def _subgoals_to_graph(task_description: str, specs: Sequence[SubgoalSpec]) -> TaskGraph:
    graph = TaskGraph(task_description=task_description)
    for spec in specs:
        graph.nodes[spec.id] = SubTaskNode(
            id=spec.id, description=spec.description, dependencies=set(spec.dependencies)
        )
    return graph


def construct(
    task: str,
    env: Environment,
    config: RunConfig,
    *,
    templates: dict[str, PromptTemplate] | None = None,
    ledger: TokenLedger | None = None,
    sink: TraceSink | None = None,
    run_id: str = "adhoc",
) -> TaskGraph:
    """Ask the supervisor for a decomposition and validate it into a graph.

    Malformed JSON and structurally invalid graphs share the bounded retry
    budget; exhaustion raises the underlying :class:`RoleFault`.
    """
    templates = templates or load_templates(config.template_dir)
    ledger = ledger if ledger is not None else TokenLedger()

    def parse_and_validate(text: str) -> TaskGraph:
        specs = parse_subgoals(text)
        graph = _subgoals_to_graph(task, specs)
        violations = validate_graph(graph)
        if violations:
            raise ParseFault("invalid decomposition: " + "; ".join(violations), raw_text=text)
        return graph

    return call_and_record(
        "supervisor",
        templates["construct"],
        {"task_description": task, "admissible_commands": format_commands(env)},
        parse_and_validate,
        scope="global",
        config=config,
        ledger=ledger,
        sink=sink,
        run_id=run_id,
    )


# ---------------------------------------------------------------------------
# node execution


def _node_outcome(node: SubTaskNode, reason: str | None, keep: int) -> OutcomeSummary:
    observations = tuple(e.observation for e in node.local_trace[-keep:])
    summary = (reason or "").strip()
    if not summary:
        summary = " / ".join(o for o in observations if o.strip())
    if not summary:
        summary = f"{node.id} ended with status {node.status.value}"
    return OutcomeSummary(
        terminal_status=node.status, summary_text=summary, key_observations=observations
    )


def _close_node(
    node: SubTaskNode,
    status: NodeStatus,
    reason: str | None,
    config: RunConfig,
    sink: TraceSink | None,
    run_id: str,
) -> NodeStatus:
    node.set_status(status)
    node.outcome = _node_outcome(node, reason, config.outcome_keep)
    if sink is not None:
        sink.emit(
            run_id,
            "node_status",
            node_id=node.id,
            status=node.status.value,
            replan_count=node.replan_count,
        )
    return node.status


def execute_node(
    graph: TaskGraph,
    node_id: str,
    env: Environment,
    config: RunConfig,
    steps: StepCounter,
    *,
    templates: dict[str, PromptTemplate] | None = None,
    ledger: TokenLedger | None = None,
    sink: TraceSink | None = None,
    run_id: str = "adhoc",
    round_trace: list[TraceEntry] | None = None,
) -> NodeStatus:
    """Work one ready node to a terminal status (or until a budget stops it).

    The loop is strictly: executor action -> environment step -> supervisor
    evaluation -> optional node-local replan.  Replacing the plan never
    touches any other node.  A role fault marks the node Failed.  Returning
    with the node still InProgress means the run must terminate (step budget)
    or the episode already ended (environment done).  Every environment step
    is also appended to ``round_trace`` when one is given.
    """
    templates = templates or load_templates(config.template_dir)
    ledger = ledger if ledger is not None else TokenLedger()
    node = graph.nodes[node_id]
    node.set_status(NodeStatus.IN_PROGRESS)
    if sink is not None:
        sink.emit(
            run_id,
            "node_status",
            node_id=node_id,
            status=node.status.value,
            replan_count=node.replan_count,
        )
    commands = format_commands(env)
    task = graph.task_description

    def role(
        name: str, template_name: str, bindings: dict[str, Any], parser: Callable[[str], Any]
    ) -> Any:
        return call_and_record(
            name,
            templates[template_name],
            bindings,
            parser,
            scope=node_id,
            config=config,
            ledger=ledger,
            sink=sink,
            run_id=run_id,
        )

    try:
        context = build_node_context(graph, node_id)
        plan: Plan = role(
            "planner", "plan", planner_bindings(task, context, commands, config), parse_plan
        )
    except RoleFault as fault:
        return _close_node(node, NodeStatus.FAILED, f"planner fault: {fault}", config, sink, run_id)
    node.plan = plan

    guidance: str | None = None
    while True:
        if steps.exhausted():
            return node.status  # still InProgress; the caller terminates the run

        context = build_node_context(graph, node_id, guidance)
        history = render_context_history(context, config.history_cap)
        try:
            action = role(
                "executor",
                "execute",
                {
                    "task_description": task,
                    "subgoal": context.subgoal,
                    "plan": render_plan(node.plan),
                    "guidance": context.guidance,
                    "admissible_commands": commands,
                    "history": history,
                },
                extract_action,
            )
        except RoleFault as fault:
            return _close_node(
                node, NodeStatus.FAILED, f"executor fault: {fault}", config, sink, run_id
            )
        guidance = None  # guidance lives for exactly one executor call

        result = env.step(action)
        index = steps.next_index()
        entry = TraceEntry(step_index=index, action=action, observation=result.observation)
        node.local_trace.append(entry)
        if round_trace is not None:
            round_trace.append(entry)
        if sink is not None:
            sink.emit(
                run_id,
                "env_step",
                step_index=index,
                action=action,
                observation=result.observation,
                reward_delta=result.reward_delta,
                done=result.done,
                scope=node_id,
            )

        context = build_node_context(graph, node_id)
        history = render_context_history(context, config.history_cap)
        try:
            evaluation = role(
                "supervisor",
                "evaluate",
                {
                    "task_description": task,
                    "subgoal": context.subgoal,
                    "current_plan": render_plan(node.plan),
                    "admissible_commands": commands,
                    "history": history,
                },
                parse_evaluation,
            )
        except RoleFault as fault:
            return _close_node(
                node, NodeStatus.FAILED, f"evaluator fault: {fault}", config, sink, run_id
            )

        if evaluation.status == "completed":
            return _close_node(
                node, NodeStatus.COMPLETED, evaluation.reason, config, sink, run_id
            )
        if evaluation.status == "failed":
            return _close_node(node, NodeStatus.FAILED, evaluation.reason, config, sink, run_id)

        # needs_more_steps from here on
        if evaluation.need_replan:
            try:
                decision = role(
                    "planner",
                    "replan",
                    {
                        "task_description": task,
                        "subgoal": context.subgoal,
                        "current_plan": render_plan(node.plan),
                        "reason": evaluation.reason,
                        "admissible_commands": commands,
                        "history": history,
                    },
                    parse_replan,
                )
            except RoleFault as fault:
                return _close_node(
                    node, NodeStatus.FAILED, f"replanner fault: {fault}", config, sink, run_id
                )
            if decision.replan:
                if node.replan_count >= config.max_replans_per_node:
                    if sink is not None:
                        sink.emit(
                            run_id,
                            "replan",
                            scope=node_id,
                            accepted=False,
                            budget_exhausted=True,
                            replan_count=node.replan_count,
                            nodes_touched=None,
                        )
                    return _close_node(
                        node,
                        NodeStatus.FAILED,
                        f"replan budget exhausted ({node.replan_count})",
                        config,
                        sink,
                        run_id,
                    )
                node.plan = decision.new_plan
                node.replan_count += 1
                if sink is not None:
                    sink.emit(
                        run_id,
                        "replan",
                        scope=node_id,
                        accepted=True,
                        replan_count=node.replan_count,
                        nodes_touched=1,
                    )
            else:
                if sink is not None:
                    sink.emit(
                        run_id,
                        "replan",
                        scope=node_id,
                        accepted=False,
                        replan_count=node.replan_count,
                        nodes_touched=None,
                    )
        else:
            guidance = evaluation.reason  # hand to exactly the next executor call

        if env.done:
            return node.status  # episode over; run_task settles the run outcome


# ---------------------------------------------------------------------------
# the run loop


def task_done(env: Environment, graph: TaskGraph | None) -> bool:
    if env.done:
        return True
    if graph is None or not graph.nodes:
        return False
    return all(graph.nodes[s].status is NodeStatus.COMPLETED for s in graph.sinks())


def _node_records(graph: TaskGraph | None) -> dict[str, dict[str, Any]]:
    if graph is None:
        return {}
    return {
        nid: {
            "status": node.status.value,
            "replan_count": node.replan_count,
            "trace_len": len(node.local_trace),
        }
        for nid, node in sorted(graph.nodes.items())
    }


def run_task(
    instance: TaskInstance,
    env: Environment,
    config: RunConfig,
    *,
    sink: TraceSink | None = None,
    run_id: str | None = None,
    method: str = "tdp",
) -> RunReport:
    """Run one task end to end and return its report.

    Terminates on: task done (environment done or every sink node Completed),
    step-budget exhaustion, a construction fault, or a stalled round (no ready
    nodes and a revision that changed nothing).  The revision call that closes
    a round renders only that round's trace entries as its history, plus the
    graph state from :func:`render_dag_state`.

    The trace records the graph once, in ``graph_constructed``.  Each
    ``revision`` event carries its ``status`` and ``reasons`` plus, unless it
    is a noop, the parsed delta in the schema of the supervisor's revise reply
    (:func:`~tdp.graph.delta_to_doc`).  Because :func:`apply_revision` assigns
    ids deterministically, the graph's ids, descriptions and dependencies at
    any revision are rebuilt by starting from
    ``graph_from_doc(graph_constructed)`` and applying each applied event's
    ``parse_revision(json.dumps(delta))`` in order.
    """
    config.require_roles("supervisor", "planner", "executor")
    rid = run_id or f"{method}__{instance.id}"
    if sink is None:
        sink = TraceSink(clock=config.make_clock())
    templates = load_templates(config.template_dir)
    ledger = TokenLedger()

    env.reset(instance)
    sink.begin_run(
        rid,
        meta={
            "method": method,
            "task_id": instance.id,
            "environment": instance.environment,
            "query": instance.query,
            "gold": dict(instance.gold),
            "s_max": config.s_max,
        },
    )
    commands = format_commands(env)
    steps = StepCounter(used=0, limit=config.s_max)
    graph: TaskGraph | None = None
    terminal, reason = "Completed", "task done"

    try:
        graph = construct(
            instance.query,
            env,
            config,
            templates=templates,
            ledger=ledger,
            sink=sink,
            run_id=rid,
        )
    except RoleFault as fault:
        terminal, reason = "Terminated", f"construction fault: {fault}"
    else:
        sink.emit(rid, "graph_constructed", graph=graph_to_doc(graph))
        while True:
            if task_done(env, graph):
                terminal, reason = "Completed", "task done"
                break
            if steps.exhausted():
                terminal, reason = "Terminated", "step budget exhausted"
                break
            ready = ready_nodes(graph)
            round_trace: list[TraceEntry] = []
            for nid in ready:
                if task_done(env, graph) or steps.exhausted():
                    break
                sink.emit(rid, "node_dispatched", node_id=nid)
                execute_node(
                    graph,
                    nid,
                    env,
                    config,
                    steps,
                    templates=templates,
                    ledger=ledger,
                    sink=sink,
                    run_id=rid,
                    round_trace=round_trace,
                )
            if task_done(env, graph):
                continue
            if steps.exhausted():
                terminal, reason = "Terminated", "step budget exhausted"
                break
            try:
                delta: RevisionDelta = call_and_record(
                    "supervisor",
                    templates["revise"],
                    {
                        "task_description": instance.query,
                        "current_step": str(steps.used),
                        "history": assemble_history(round_trace, config.history_cap),
                        "dag_state": render_dag_state(graph),
                        "admissible_commands": commands,
                    },
                    parse_revision,
                    scope="global",
                    config=config,
                    ledger=ledger,
                    sink=sink,
                    run_id=rid,
                )
            except RoleFault as fault:
                delta = RevisionDelta(need_update=False, thought=f"revision fault: {fault}")
            result = apply_revision(graph, delta)
            sink.emit(
                rid,
                "revision",
                status=result.status,
                reasons=list(result.reasons),
                delta=delta_to_doc(delta) if delta.need_update else None,
            )
            graph = result.graph
            if not ready and not result.applied:
                terminal, reason = "Terminated", "stall: no ready nodes and no graph update"
                break

    env_metrics = env.metrics()
    delivered = bool(env_metrics.get("delivered", False)) or (
        graph is not None
        and bool(graph.nodes)
        and all(graph.nodes[s].status is NodeStatus.COMPLETED for s in graph.sinks())
    )
    role_tokens = {role: usage.to_dict() for role, usage in ledger.role_totals().items()}
    sink.emit(
        rid,
        "run_end",
        terminal=terminal,
        reason=reason,
        steps_used=steps.used,
        delivered=delivered,
        method=method,
        env_metrics=env_metrics,
        node_records=_node_records(graph),
        role_tokens=role_tokens,
    )
    return RunReport(
        run_id=rid,
        method=method,
        terminal=terminal,
        reason=reason,
        steps_used=steps.used,
        node_records=_node_records(graph),
        role_tokens=role_tokens,
        env_metrics=env_metrics,
        delivered=delivered,
    )
