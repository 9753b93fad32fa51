"""The orchestration engine: decompose, schedule, execute node-by-node, revise.

One run is a sequence of rounds.  Each round dispatches every ready node; a
node is worked by the planner/executor pair under supervisor evaluation, with
replanning confined to that node; between rounds the supervisor may revise the
graph.  The environment-interaction budget is enforced *before* every
interaction, so a run never exceeds it.

Context discipline is the load-bearing property: every planner/executor
prompt for a node renders from one view, :func:`node_bindings`, assembled
exclusively from that node's description, its current plan, its direct
dependencies' outcome summaries, its own local trace, and optional one-shot
guidance.  Nothing else leaks in, which is what keeps replan prompts small and
node work order-independent.  What crosses a dependency edge is scoped too: a
finished node's outcome summary carries only the observations its final plan
produced, so an obstacle it met and replanned around stays in its own trace.
The supervisor's between-round revision prompt is scoped the same way, to the
round and the frontier: it sees the actions taken since the previous revision
plus the graph's frontier, with every other node only counted
(:func:`~tdp.graph.render_dag_state`).

tdp and every baseline are loop bodies ``body(run) -> (terminal, reason)``
over one scaffold, :func:`run_method`, which writes ``run_end`` however the
body ends.  :class:`Run` holds the bookkeeping: trace header, recorded role
calls and environment steps, the end-of-run check :meth:`Run.stop`, and the
report, whose ``role_tokens`` is a fold over the run's ``role_call`` events.
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
    FORMAT_REMINDER,
    ModelBackend,
    ParseFault,
    PromptTemplate,
    RoleFault,
    SubgoalSpec,
    TokenUsage,
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
from .telemetry import CounterClock, TraceEvent, TraceSink, role_tokens

__all__ = [
    "EngineError",
    "RunConfig",
    "StepCounter",
    "RunReport",
    "Run",
    "run_method",
    "format_commands",
    "assemble_history",
    "render_context_history",
    "node_bindings",
    "build_planner_prompt",
    "construct",
    "execute_node",
    "task_done",
    "run_task",
]

NO_ACTIONS_YET = "(no actions yet)"
#: A rendered history keeps the first trace entry plus the most recent 29.
HISTORY_CAP = 30
#: How many trailing observations a finished node's outcome summary carries,
#: taken from the entries its final plan produced (after its last accepted
#: replan).
OUTCOME_KEEP = 3
#: How many consecutive rounds may pass without an environment step before
#: the run is ended as stalled.
STALL_ROUNDS = 3


class EngineError(RuntimeError):
    """Engine misconfiguration or an unrecoverable orchestration defect."""


@dataclass
class RunConfig:
    """Everything a run needs besides the task and the environment.

    ``role_backends`` maps role names (supervisor/planner/executor) to model
    backends.
    """

    s_max: int = 30
    max_replans_per_node: int = 3
    parser_retry_budget: int = 2
    role_backends: dict[str, ModelBackend] = field(default_factory=dict)
    environment: str | None = None
    template_dir: str | None = None
    trace_dir: str | None = None
    deterministic_clock: bool = True
    parallel_tasks: int = 1

    def __post_init__(self) -> None:
        if self.s_max < 1:
            raise EngineError(f"s_max must be >= 1, got {self.s_max}")
        if self.max_replans_per_node < 0:
            raise EngineError("max_replans_per_node must be >= 0")
        if self.parser_retry_budget < 0:
            raise EngineError("parser_retry_budget must be >= 0")
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
    """What a finished run hands back: its id plus its ``run_end`` payload."""

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


def node_bindings(
    graph: TaskGraph, node_id: str, commands: str, guidance: str | None = None
) -> dict[str, Any]:
    """The node's view: every binding a node-scoped role prompt may use.

    Task, sub-goal, the node's rendered current plan, one-shot guidance, the
    admissible commands and the capped history from :func:`build_node_context`.
    Each template renders the names it declares and ignores the rest.
    """
    context = build_node_context(graph, node_id)
    plan = graph.nodes[node_id].plan
    return {
        "task_description": graph.task_description,
        "subgoal": context.subgoal,
        "current_plan": render_plan(plan) if plan is not None else None,
        "guidance": guidance,
        "admissible_commands": commands,
        "history": render_context_history(context, HISTORY_CAP),
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
    return render_prompt(templates["plan"], node_bindings(graph, node_id, format_commands(env)))


# ---------------------------------------------------------------------------
# the run scaffold


def _sinks_completed(graph: TaskGraph | None) -> bool:
    if graph is None or not graph.nodes:
        return False
    return all(graph.nodes[s].status is NodeStatus.COMPLETED for s in graph.sinks())


def task_done(env: Environment, graph: TaskGraph | None) -> bool:
    return env.done or _sinks_completed(graph)


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


class Run:
    """One run's bookkeeping, shared by tdp and every baseline.

    Creating a run resets the environment and writes the trace header; the
    methods record role calls, environment steps and replan/node events, and
    :meth:`finish` writes ``run_end`` and builds the report from its payload.
    Without a caller's sink the run keeps its events in an in-memory one.  A
    run keeps no trace of its own, and only tdp sets :attr:`graph`.
    """

    def __init__(
        self,
        method: str,
        instance: TaskInstance,
        env: Environment,
        config: RunConfig,
        *,
        sink: TraceSink | None = None,
        run_id: str | None = None,
    ) -> None:
        self.method = method
        self.instance = instance
        self.env = env
        self.config = config
        self.graph: TaskGraph | None = None
        self.run_id = run_id or f"{method}__{instance.id}"
        self.sink = sink if sink is not None else TraceSink(clock=config.make_clock())
        self.templates = load_templates(config.template_dir)
        self.steps = StepCounter(limit=config.s_max)
        env.reset(instance)
        self.commands = format_commands(env)
        self.sink.begin_run(
            self.run_id,
            meta={
                "method": method,
                "task_id": instance.id,
                "environment": instance.environment,
                "query": instance.query,
                "gold": dict(instance.gold),
                "s_max": config.s_max,
            },
        )

    def emit(self, kind: str, **payload: Any) -> TraceEvent:
        return self.sink.emit(self.run_id, kind, **payload)

    def call(
        self,
        role: str,
        template: str,
        bindings: dict[str, Any],
        parser: Callable[[str], Any],
        scope: str = "global",
    ) -> Any:
        """Render, complete and parse one role call, retrying parse faults.

        The prompt is rendered once.  Each retry re-sends it with one more
        :data:`~tdp.roles.FORMAT_REMINDER` line appended, so every attempt is
        a distinct prompt, up to ``1 + parser_retry_budget`` attempts.  The
        call, faulted or not, is recorded as a ``role_call`` event carrying
        its usage summed over the attempts; then the parsed value is returned
        or a :class:`RoleFault` carrying the last raw reply is raised.
        Backend errors propagate.
        """
        backend = self.config.backend(role)
        tag = f"{role}:{template}"
        prompt = render_prompt(self.templates[template], bindings)
        prompt_chars = len(prompt)
        usage = TokenUsage()
        value: Any = None
        fault: RoleFault | None = None
        for attempts in range(1, self.config.parser_retry_budget + 2):
            completion = backend.complete(tag, prompt)
            usage = usage + completion.usage
            try:
                value, fault = parser(completion.text), None
                break
            except ParseFault as err:
                fault = RoleFault(
                    f"role {tag!r} failed after {attempts} attempt(s): {err}",
                    raw_text=completion.text,
                )
                prompt = prompt + "\n" + FORMAT_REMINDER
        self.emit(
            "role_call",
            role=role,
            template=template,
            scope=scope,
            attempts=attempts,
            prompt_tokens=usage.prompt_tokens,
            output_tokens=usage.output_tokens,
            prompt_chars=prompt_chars,
            ok=fault is None,
        )
        if fault is not None:
            raise fault
        return value

    def act(self, action: str, scope: str = "global") -> TraceEntry:
        """Step the environment (the caller has checked the step budget)."""
        result = self.env.step(action)
        index = self.steps.next_index()
        self.emit(
            "env_step",
            step_index=index,
            action=action,
            observation=result.observation,
            reward_delta=result.reward_delta,
            done=result.done,
            scope=scope,
        )
        return TraceEntry(step_index=index, action=action, observation=result.observation)

    def replan(
        self,
        scope: str,
        accepted: bool,
        replan_count: int,
        nodes_touched: int | None = None,
        budget_exhausted: bool = False,
    ) -> None:
        """A replan decision; ``budget_exhausted`` is written only when true."""
        extra = {"budget_exhausted": True} if budget_exhausted else {}
        self.emit(
            "replan",
            scope=scope,
            accepted=accepted,
            replan_count=replan_count,
            nodes_touched=nodes_touched,
            **extra,
        )

    def node_status(self, node: SubTaskNode) -> None:
        self.emit(
            "node_status",
            node_id=node.id,
            status=node.status.value,
            replan_count=node.replan_count,
        )

    def stop(self) -> tuple[str, str] | None:
        """The run's ``(terminal, reason)`` once the task is done (which wins)
        or the step budget is spent; ``None`` while the run goes on."""
        if task_done(self.env, self.graph):
            return "Completed", "task done"
        if self.steps.exhausted():
            return "Terminated", "step budget exhausted"
        return None

    def finish(self, terminal: str, reason: str) -> RunReport:
        """Write ``run_end`` and return the report built from its payload.

        The task counts as delivered when the environment says so or when
        every sink node of :attr:`graph` completed.
        """
        env_metrics = self.env.metrics()
        run_end = self.emit(
            "run_end",
            terminal=terminal,
            reason=reason,
            steps_used=self.steps.used,
            delivered=bool(env_metrics.get("delivered", False)) or _sinks_completed(self.graph),
            method=self.method,
            env_metrics=env_metrics,
            node_records=_node_records(self.graph),
            role_tokens=role_tokens(self.sink.events_for(self.run_id)),
        )
        return RunReport(run_id=self.run_id, **run_end.payload)


LoopBody = Callable[[Run], tuple[str, str]]


def run_method(method: str, *roles: str) -> Callable[[LoopBody], Callable[..., RunReport]]:
    """Wrap a loop body ``body(run) -> (terminal, reason)`` into `method`'s runner.

    The runner checks `roles`, opens the :class:`Run` and writes ``run_end``
    once, however the body ends: a :class:`RoleFault` escaping it ends the run
    ``role fault: ...``, any other exception ``error: <type>: <message>``,
    re-raised after ``run_end``.
    """

    def wrap(body: LoopBody) -> Callable[..., RunReport]:
        def runner(
            instance: TaskInstance,
            env: Environment,
            config: RunConfig,
            *,
            sink: TraceSink | None = None,
            run_id: str | None = None,
        ) -> RunReport:
            config.require_roles(*roles)
            run = Run(method, instance, env, config, sink=sink, run_id=run_id)
            try:
                terminal, reason = body(run)
            except RoleFault as fault:
                terminal, reason = "Terminated", f"role fault: {fault}"
            except BaseException as err:
                terminal, reason = "Terminated", f"error: {type(err).__name__}: {err}"
                raise
            finally:
                report = run.finish(terminal, reason)
            return report

        for attr in ("__module__", "__name__", "__qualname__", "__doc__"):
            setattr(runner, attr, getattr(body, attr))
        return runner

    return wrap


# ---------------------------------------------------------------------------
# construction


def _subgoals_to_graph(task_description: str, specs: Sequence[SubgoalSpec]) -> TaskGraph:
    graph = TaskGraph(task_description=task_description)
    for spec in specs:
        graph.nodes[spec.id] = SubTaskNode(
            id=spec.id, description=spec.description, dependencies=set(spec.dependencies)
        )
    return graph


def construct(task: str, run: Run) -> TaskGraph:
    """Ask the supervisor for a decomposition and validate it into a graph.

    Malformed JSON and structurally invalid graphs share the bounded retry
    budget; exhaustion raises the underlying :class:`RoleFault`.
    """

    def parse_and_validate(text: str) -> TaskGraph:
        specs = parse_subgoals(text)
        graph = _subgoals_to_graph(task, specs)
        violations = validate_graph(graph)
        if violations:
            raise ParseFault("invalid decomposition: " + "; ".join(violations), raw_text=text)
        return graph

    return run.call(
        "supervisor",
        "construct",
        {"task_description": task, "admissible_commands": run.commands},
        parse_and_validate,
    )


# ---------------------------------------------------------------------------
# node execution


def _node_outcome(
    node: SubTaskNode, reason: str | None, final_plan_entries: Sequence[TraceEntry]
) -> OutcomeSummary:
    observations = tuple(e.observation for e in final_plan_entries[-OUTCOME_KEEP:])
    summary = (reason or "").strip()
    if not summary:
        summary = " / ".join(o for o in observations if o.strip())
    if not summary:
        summary = f"{node.id} ended with status {node.status.value}"
    return OutcomeSummary(
        terminal_status=node.status, summary_text=summary, key_observations=observations
    )


def execute_node(
    graph: TaskGraph,
    node_id: str,
    run: Run,
    *,
    round_trace: list[TraceEntry] | None = None,
) -> NodeStatus:
    """Work one ready node to a terminal status (or until a budget stops it).

    The loop is strictly: executor action -> environment step -> supervisor
    evaluation -> optional node-local replan.  Replacing the plan never
    touches any other node.  The outcome a closed node hands its dependents
    reads only the entries made since its last accepted replan.  A role fault
    marks the node Failed.  Returning with the node still InProgress means the
    step budget is spent or the episode already ended; ``run_task`` settles
    the run outcome.  Every environment step is also appended to
    ``round_trace`` when one is given.
    """
    node = graph.nodes[node_id]
    node.set_status(NodeStatus.IN_PROGRESS)
    run.node_status(node)
    commands = run.commands
    plan_start = 0  # where the current plan's entries begin in node.local_trace

    def close(status: NodeStatus, reason: str | None) -> NodeStatus:
        node.set_status(status)
        node.outcome = _node_outcome(node, reason, node.local_trace[plan_start:])
        run.node_status(node)
        return node.status

    try:
        node.plan = run.call(
            "planner", "plan", node_bindings(graph, node_id, commands), parse_plan, scope=node_id
        )
    except RoleFault as fault:
        return close(NodeStatus.FAILED, f"planner fault: {fault}")

    guidance: str | None = None
    # Run.stop() without its sink scan: no sink completes while this node runs
    while not (run.steps.exhausted() or run.env.done):
        try:
            action = run.call(
                "executor",
                "execute",
                node_bindings(graph, node_id, commands, guidance),
                extract_action,
                scope=node_id,
            )
        except RoleFault as fault:
            return close(NodeStatus.FAILED, f"executor fault: {fault}")
        guidance = None  # guidance lives for exactly one executor call

        entry = run.act(action, scope=node_id)
        node.local_trace.append(entry)
        if round_trace is not None:
            round_trace.append(entry)

        view = node_bindings(graph, node_id, commands)
        try:
            evaluation = run.call("supervisor", "evaluate", view, parse_evaluation, scope=node_id)
        except RoleFault as fault:
            return close(NodeStatus.FAILED, f"evaluator fault: {fault}")

        if evaluation.status == "completed":
            return close(NodeStatus.COMPLETED, evaluation.reason)
        if evaluation.status == "failed":
            return close(NodeStatus.FAILED, evaluation.reason)

        # needs_more_steps from here on
        if evaluation.need_replan:
            try:
                decision = run.call(
                    "planner",
                    "replan",
                    {**view, "reason": evaluation.reason},
                    parse_replan,
                    scope=node_id,
                )
            except RoleFault as fault:
                return close(NodeStatus.FAILED, f"replanner fault: {fault}")
            if not decision.replan:
                run.replan(node_id, accepted=False, replan_count=node.replan_count)
            elif node.replan_count >= run.config.max_replans_per_node:
                run.replan(
                    node_id, accepted=False, replan_count=node.replan_count, budget_exhausted=True
                )
                return close(NodeStatus.FAILED, f"replan budget exhausted ({node.replan_count})")
            else:
                node.plan = decision.new_plan
                node.replan_count += 1
                plan_start = len(node.local_trace)
                run.replan(node_id, accepted=True, replan_count=node.replan_count, nodes_touched=1)
        else:
            guidance = evaluation.reason  # hand to exactly the next executor call
    return node.status


# ---------------------------------------------------------------------------
# the run loop


@run_method("tdp", "supervisor", "planner", "executor")
def run_task(run: Run) -> tuple[str, str]:
    """Run one task end to end and return its report.

    Terminates on: task done (environment done or every sink node Completed),
    step-budget exhaustion, a construction fault, a stalled round (no ready
    nodes and a revision that changed nothing), or :data:`STALL_ROUNDS`
    consecutive rounds without an environment step (a supervisor that keeps
    revising a graph whose remaining nodes can never become ready).  The
    revision call that closes a round renders only that round's trace entries
    as its history, plus the graph's frontier from :func:`render_dag_state`:
    the in-progress, failed and ready nodes, the pending dependents of failed
    nodes and the completed nodes those depend on, with every other node only
    counted.  So the supervisor can edit only the nodes it sees;
    :func:`apply_revision` rejects any other id.

    :func:`validate_graph` caps a graph at :data:`~tdp.graph.MAX_NODES`
    nodes, so a larger decomposition is a retried parse fault and a revision
    that would grow past the cap is rejected.  That bounds the model attempts
    of a run.  A round dispatches at most ``MAX_NODES`` ready nodes, each
    costing one planner call plus at most one executor call that faults
    before acting, and ends with one revise call.  Every environment step
    costs at most an executor, an evaluate and a replan call.  A round with
    no step is idle, and :data:`STALL_ROUNDS` idle rounds in a row end the
    run, so ``rounds <= STALL_ROUNDS * (s_max + 1)``.  Counting the construct
    call, a run makes at most::

        (1 + parser_retry_budget)
            * (1 + rounds * (2 * MAX_NODES + 1) + 3 * s_max)

    model attempts.

    The trace records the graph once, in ``graph_constructed``.  Each
    ``revision`` event carries its ``status`` and ``reasons`` plus, unless it
    is a noop, the parsed delta in the schema of the supervisor's revise reply
    (:func:`~tdp.graph.delta_to_doc`).  A revise call that faulted is a noop
    whose event also carries the fault's message as ``error``.  Because
    :func:`apply_revision` assigns ids deterministically, the graph's ids,
    descriptions and dependencies at any revision are rebuilt by starting from
    ``graph_from_doc(graph_constructed)`` and applying each applied event's
    ``parse_revision(json.dumps(delta))`` in order.
    """
    try:
        graph = run.graph = construct(run.instance.query, run)
    except RoleFault as fault:
        return "Terminated", f"construction fault: {fault}"
    run.emit("graph_constructed", graph=graph_to_doc(graph))

    idle_rounds = 0
    while (end := run.stop()) is None:
        ready = ready_nodes(graph)
        round_trace: list[TraceEntry] = []
        for nid in ready:
            if run.stop() is not None:
                break
            run.emit("node_dispatched", node_id=nid)
            execute_node(graph, nid, run, round_trace=round_trace)
        if (end := run.stop()) is not None:
            return end
        fault_record: dict[str, str] = {}
        try:
            delta: RevisionDelta = run.call(
                "supervisor",
                "revise",
                {
                    "task_description": run.instance.query,
                    "current_step": str(run.steps.used),
                    "history": assemble_history(round_trace, HISTORY_CAP),
                    "dag_state": render_dag_state(graph),
                    "admissible_commands": run.commands,
                },
                parse_revision,
            )
        except RoleFault as fault:
            delta = RevisionDelta()
            fault_record = {"error": f"revision fault: {fault}"}
        result = apply_revision(graph, delta)
        run.emit(
            "revision",
            status=result.status,
            reasons=list(result.reasons),
            delta=delta_to_doc(delta) if delta.need_update else None,
            **fault_record,
        )
        graph = run.graph = result.graph
        if not ready and not result.applied:
            return "Terminated", "stall: no ready nodes and no graph update"
        idle_rounds = 0 if round_trace else idle_rounds + 1
        if idle_rounds >= STALL_ROUNDS:
            return "Terminated", f"stall: {STALL_ROUNDS} rounds without an environment step"
    return end
