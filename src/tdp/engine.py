"""The orchestration engine: decompose, schedule, execute node-by-node, revise.

One run is a sequence of rounds.  Each round dispatches every ready node; a
node is worked by the planner/executor pair under supervisor evaluation, with
replanning confined to that node; between rounds the supervisor may revise the
graph.  The environment-interaction budget is enforced *before* every
interaction, so a run never exceeds it.  No role is called once its answer
can no longer change the run's outcome: nothing after the step that ends the
episode, and no replan once the step budget is spent, since a new plan could
never run.  tdp and every baseline keep this rule; under tdp, the node whose
step ended the episode is closed Completed, so the run's node records show
which node delivered.

Context discipline is the load-bearing property: a node's plan, execute,
evaluate and replan prompts render from one view, :func:`node_bindings`,
read from the graph itself: that node's description, current plan, direct
dependencies' outcome summaries, own local trace and one-shot guidance.
:meth:`Run.call` binds the command list to every call twice: the full lines
(``admissible_commands``) for the executor, which writes commands, and each
line's call syntax (``command_calls``) for the planner and the supervisor,
which name work but write none.  Each role's template reads only what its
decision needs: the planner, which writes and rewrites the plan, and the
executor, which may have to pass an upstream value into an action, see the
dependency outcomes (``prerequisites``); the evaluator, which judges the
node's latest step, sees the sub-goal, the plan and the node's trace since
its last accepted replan (``history``), and no command list.
A rule that only some states can trigger shares a template line with the
binding that guards it, and :func:`~tdp.roles.render_prompt` leaves out a line
whose bindings are all ``None``, so the rule reaches only the calls in such a
state: the executor's guidance rule comes with guidance, the planner's
final-action rule reaches only a node nothing depends on (``if_sink``), and
the supervisor's repair rule only a revision with a failed node
(``failed_nodes``).
The whole task never enters the view, which keeps replan prompts small and
node work order-independent.  A node's evaluator and its finished outcome
summary read only the entries its current plan produced, so an obstacle it
replanned around reaches its executor and replanner and goes no further.
The supervisor's revision prompt shows the graph's frontier, each node once,
the nodes dispatched since the previous revision with their outcomes beneath,
and only counts the rest (:func:`~tdp.graph.render_dag_state`); a revision
may edit exactly the nodes shown.  An executor reply whose verb is not one
of the commands its prompt listed is a parse fault, so it never reaches the
environment.

tdp and every baseline are loop bodies ``body(run) -> (terminal, reason)``
over one scaffold, :func:`run_method`, which writes ``run_end`` however the
body ends.  :class:`Run` holds the bookkeeping: trace header, recorded role
calls, environment steps and the step budget they spend, the end-of-run check
:meth:`Run.stop`, and the run's one record, the
:class:`~tdp.telemetry.MetricsRecord` that
:func:`~tdp.telemetry.compute_metrics` folds from its events, as replay does.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Iterable, Sequence

from .environments import Environment, TaskInstance
from .environments.base import command_syntax
from .graph import (
    NodeStatus,
    OutcomeSummary,
    RevisionDelta,
    SchedulingError,
    SubTaskNode,
    TaskGraph,
    TraceEntry,
    apply_revision,
    delta_to_doc,
    ready_nodes,
    render_dag_state,
    render_outcome,
)
from .roles import (
    FORMAT_REMINDER,
    ModelBackend,
    ParseFault,
    RoleFault,
    load_templates,
    parse_revision,
    render_plan,
    render_prompt,
)
from .telemetry import CounterClock, MetricsRecord, TokenUsage, TraceError, TraceEvent, TraceSink
from .telemetry import compute_metrics, read_gold

__all__ = [
    "EngineError",
    "RunConfig",
    "Run",
    "run_method",
    "assemble_history",
    "node_bindings",
    "execute_node",
    "task_done",
    "run_task",
    "replay_graph",
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
    deterministic_clock: bool = True

    def __post_init__(self) -> None:
        if self.s_max < 1:
            raise EngineError(f"s_max must be >= 1, got {self.s_max}")
        if self.max_replans_per_node < 0:
            raise EngineError("max_replans_per_node must be >= 0")
        if self.parser_retry_budget < 0:
            raise EngineError("parser_retry_budget must be >= 0")

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


# ---------------------------------------------------------------------------
# prompt assembly


def assemble_history(trace: Sequence[TraceEntry], cap: int) -> str:
    """Render a trace as Action/Observation pairs, keep-first-plus-last capped.

    Overflow keeps the first entry, then an elision marker stating how many
    steps were dropped, then the most recent ``cap - 1`` entries.  A cap
    below 1 cannot keep the first entry, so a trace longer than it is a
    :class:`ValueError`.
    """
    entries = list(trace)
    if not entries:
        return NO_ACTIONS_YET

    def fmt(entry: TraceEntry) -> str:
        return f"Action: {entry.action}\nObservation: {entry.observation}"

    if len(entries) <= cap:
        return "\n".join(fmt(e) for e in entries)
    if cap < 1:
        raise ValueError(f"a history cap must keep the first entry, got cap {cap}")
    elided = len(entries) - cap
    parts = [fmt(entries[0]), f"... {elided} steps elided ..."]
    parts.extend(fmt(e) for e in entries[len(entries) - (cap - 1) :])
    return "\n".join(parts)


def node_bindings(graph: TaskGraph, node_id: str, guidance: str | None = None) -> dict[str, Any]:
    """The node's view: every binding a node-scoped role prompt may use, read
    from the node and its direct dependencies and nothing else.

    Sub-goal, the node's rendered current plan, one-shot guidance (``None``
    leaves out ``execute``'s guidance line and the rule on it),
    ``prerequisites``, the direct dependencies' outcomes in id order under
    ``Prerequisite results:``, each headed by its id alone, since every one
    completed (:func:`~tdp.graph.render_outcome`), and ending in a blank line
    (``None`` for a node without dependencies, so the prompt leaves the line
    out), ``if_sink``, ``""`` for a node nothing depends on and ``None``
    otherwise, so only such a node's planner reads ``plan``'s final-action
    rule, and ``history``, the node's own capped trace.
    :meth:`Run.call` adds the command list in both renderings.
    Each template renders the names it declares and ignores the rest:
    ``plan``, ``execute`` and ``replan`` declare ``prerequisites``,
    ``evaluate`` does not; ``execute`` declares the full command lines,
    ``plan`` and ``replan`` their call syntax.  An
    unknown node, or a dependency that is missing or not completed, is a
    :class:`~tdp.graph.SchedulingError`.
    """
    node = graph.nodes.get(node_id)
    if node is None:
        raise SchedulingError(f"unknown node {node_id!r}")
    outcomes: list[str] = []
    for dep in sorted(node.dependencies):
        dep_node = graph.nodes.get(dep)
        if dep_node is None or dep_node.status is not NodeStatus.COMPLETED:
            have = dep_node.status.value if dep_node else "missing"
            raise SchedulingError(
                f"node {node_id!r} scheduled before dependency {dep!r} completed "
                f"(status: {have})"
            )
        assert dep_node.outcome is not None  # terminal ⇒ outcome (validate_graph)
        outcomes.append(f"- [{dep}] {render_outcome(dep_node.outcome)}\n")
    prerequisites = None
    if outcomes:
        prerequisites = "Prerequisite results:\n" + "".join(outcomes)
    return {
        "subgoal": node.description,
        "current_plan": render_plan(node.plan) if node.plan is not None else None,
        "guidance": guidance,
        "prerequisites": prerequisites,
        "if_sink": None if any(node_id in n.dependencies for n in graph.nodes.values()) else "",
        "history": assemble_history(node.local_trace, HISTORY_CAP),
    }


# ---------------------------------------------------------------------------
# the run scaffold


def _sinks_completed(graph: TaskGraph | None) -> bool:
    """True when the graph has nodes and every sink completed."""
    if graph is None or not graph.nodes:
        return False
    return all(graph.nodes[nid].status is NodeStatus.COMPLETED for nid in graph.sinks())


def task_done(env: Environment, graph: TaskGraph | None) -> bool:
    return env.done or _sinks_completed(graph)


class Run:
    """One run's bookkeeping, shared by tdp and every baseline.

    Creating a run checks the gold record (:func:`~tdp.telemetry.read_gold`),
    so a malformed one fails before anything is spent, then resets the
    environment and writes the trace header.  :meth:`call` and :meth:`act`
    record role calls and environment steps, :meth:`emit` any other event,
    and :meth:`finish` writes ``run_end`` and returns the run's record.
    :attr:`steps_used` counts the environment steps taken against
    ``config.s_max`` (:meth:`budget_spent`).  Without a caller's sink the run
    keeps its events in an in-memory one.  A run keeps no trace of its own,
    and only tdp sets :attr:`graph`.  :attr:`templates` holds the packaged
    templates, each with its role and reply reader (:meth:`call`),
    :attr:`commands` the environment's command lines, one per line, and
    :attr:`command_calls` their call syntax
    (:func:`~tdp.environments.base.command_syntax`).
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
        self.templates = load_templates()
        self.steps_used = 0
        read_gold(instance.gold, where="gold", error=TraceError)
        env.reset(instance)
        lines = env.admissible_commands()
        self.commands = "\n".join(lines)
        self.command_calls = "\n".join(map(command_syntax, lines))
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

    def call(self, template: str, bindings: dict[str, Any], scope: str = "global") -> Any:
        """Render, complete and read one call of `template`, retrying parse faults.

        The run's command lines are bound as ``admissible_commands`` and
        their call syntax as ``command_calls``, both under `bindings`; each
        template declares the one its role reads.  The template names the
        role whose backend answers, tagged ``role:template``, and the reader
        of the reply, which also sees the bindings, so an executor's reader
        takes the verbs its prompt listed.  The prompt is rendered once.  Each
        retry re-sends it plus one more :data:`~tdp.roles.FORMAT_REMINDER`
        line that names why the last reply was refused, up to
        ``1 + parser_retry_budget`` attempts.
        The call, faulted or not, is recorded as a ``role_call`` event
        carrying its usage summed over the attempts, ``null`` for a count the
        backend did not report, and ``prompt_chars``, the length of the prompt
        as first rendered, without any retry's reminder lines; then the parsed
        value is returned or a :class:`RoleFault` carrying the last raw reply
        is raised.  A backend error is recorded too, ``ok: false`` with the
        attempts made, the usage so far and ``error: "<type>: <message>"``,
        and then re-raised.
        """
        spec = self.templates[template]
        backend = self.config.backend(spec.role)
        tag = f"{spec.role}:{template}"
        bindings = {"admissible_commands": self.commands,
                    "command_calls": self.command_calls, **bindings}
        prompt = render_prompt(spec, bindings)
        prompt_chars = len(prompt)
        usage = TokenUsage()
        value: Any = None
        fault: RoleFault | None = None

        def record(attempts: int, ok: bool, **error: str) -> None:
            self.emit("role_call", role=spec.role, template=template, scope=scope,
                      attempts=attempts, prompt_tokens=usage.prompt_tokens,
                      output_tokens=usage.output_tokens, prompt_chars=prompt_chars, ok=ok,
                      **error)

        for attempts in range(1, self.config.parser_retry_budget + 2):
            try:
                completion = backend.complete(tag, prompt)
            except Exception as err:
                record(attempts, False, error=f"{type(err).__name__}: {err}")
                raise
            usage = usage + completion.usage
            try:
                value, fault = spec.read(completion.text, bindings), None
                break
            except ParseFault as err:
                fault = RoleFault(
                    f"role {tag!r} failed after {attempts} attempt(s): {err}",
                    raw_text=completion.text,
                )
                prompt = f"{prompt}\n{FORMAT_REMINDER} Refused: {err}"
        record(attempts, fault is None)
        if fault is not None:
            raise fault
        return value

    def budget_spent(self) -> bool:
        """True once the run has taken ``config.s_max`` environment steps."""
        return self.steps_used >= self.config.s_max

    def act(self, action: str, scope: str = "global") -> TraceEntry:
        """Step the environment.  The caller gates on :meth:`budget_spent`;
        a step past the budget is an orchestration defect, refused before
        the environment moves."""
        if self.budget_spent():
            raise EngineError("step budget overrun — gate before acting")
        result = self.env.step(action)
        self.steps_used += 1
        self.emit("env_step", step_index=self.steps_used, action=action,
                  observation=result.observation, reward_delta=result.reward_delta,
                  done=result.done, scope=scope)
        return TraceEntry(action=action, observation=result.observation)

    def stop(self) -> tuple[str, str] | None:
        """The run's ``(terminal, reason)`` once the task is done (which wins)
        or the step budget is spent; ``None`` while the run goes on."""
        if task_done(self.env, self.graph):
            return "Completed", "task done"
        if self.budget_spent():
            return "Terminated", "step budget exhausted"
        return None

    def finish(self, terminal: str, reason: str) -> MetricsRecord:
        """Write ``run_end`` and return the record
        :func:`~tdp.telemetry.compute_metrics` folds from the run's events and
        the instance's gold, the one replay recomputes from the trace.

        ``run_end`` carries only what the events do not: `terminal`, `reason`,
        the environment's metrics and delivery, by the environment's word or
        because every sink node of :attr:`graph` completed.
        """
        env_metrics = self.env.metrics()
        delivered = bool(env_metrics.get("delivered", False)) or _sinks_completed(self.graph)
        self.emit("run_end", terminal=terminal, reason=reason, delivered=delivered,
                  method=self.method, env_metrics=env_metrics)
        return compute_metrics(self.sink.events_for(self.run_id), self.instance.gold,
                               method=self.method, run_id=self.run_id)


LoopBody = Callable[[Run], tuple[str, str]]


def run_method(method: str, *roles: str) -> Callable[[LoopBody], Callable[..., MetricsRecord]]:
    """Wrap a loop body ``body(run) -> (terminal, reason)`` into `method`'s runner.

    The runner checks `roles`, opens the :class:`Run` and writes ``run_end``
    once, however the body ends: a :class:`RoleFault` escaping it ends the run
    ``role fault: ...``, any other exception ``error: <type>: <message>``,
    re-raised after ``run_end``.  Then it closes the sink's trace file, also
    when :meth:`Run.finish` raises, and returns the run's record.
    """

    def wrap(body: LoopBody) -> Callable[..., MetricsRecord]:
        def runner(
            instance: TaskInstance,
            env: Environment,
            config: RunConfig,
            *,
            sink: TraceSink | None = None,
            run_id: str | None = None,
        ) -> MetricsRecord:
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
                try:
                    record = run.finish(terminal, reason)
                finally:
                    run.sink.close()
            return record

        for attr in ("__module__", "__name__", "__qualname__", "__doc__"):
            setattr(runner, attr, getattr(body, attr))
        return runner

    return wrap


# ---------------------------------------------------------------------------
# node execution


def _node_outcome(
    node: SubTaskNode, reason: str | None, final_plan_entries: Sequence[TraceEntry]
) -> OutcomeSummary:
    observations = tuple(e.observation for e in final_plan_entries[-OUTCOME_KEEP:])
    # the observations follow the summary as their own lines, so it never repeats them
    summary = (reason or "").strip() or f"{node.id} ended with status {node.status.value}"
    return OutcomeSummary(
        terminal_status=node.status, summary_text=summary, key_observations=observations
    )


def execute_node(graph: TaskGraph, node_id: str, run: Run) -> NodeStatus:
    """Work one ready node to a terminal status (or until a budget stops it).

    The loop is strictly: executor action -> environment step -> supervisor
    evaluation -> optional node-local replan.  Replacing the plan never
    touches any other node.  The evaluator, and the outcome a closed node
    hands its dependents, read only the entries made since its last accepted
    replan; the executor and the replanner read the whole node trace, since
    the one acts on an obstacle and the other must know what failed.  A role
    fault closes the node Failed; its message, which names the role, is the
    outcome.  The step that ends the episode closes the node Completed without
    an evaluation, since no verdict could change the run.  Returning with the
    node still InProgress means the step budget is spent; ``run_task`` settles
    the run outcome.  After the step that spends the budget the evaluator is
    still asked (its ``completed`` verdict may close the last sink) but the
    replanner is not.
    """
    node = graph.nodes[node_id]
    plan_start = 0  # where the current plan's entries begin in node.local_trace

    def move(status: NodeStatus) -> None:
        node.set_status(status)
        run.emit("node_status", node_id=node_id, status=status.value,
                 replan_count=node.replan_count)

    def close(status: NodeStatus, reason: str | None) -> NodeStatus:
        move(status)
        node.outcome = _node_outcome(node, reason, node.local_trace[plan_start:])
        return node.status

    move(NodeStatus.IN_PROGRESS)

    guidance: str | None = None
    try:
        node.plan = run.call("plan", node_bindings(graph, node_id), scope=node_id)
        # Run.stop() without its sink scan: no sink completes while this node runs
        while not (run.budget_spent() or run.env.done):
            action = run.call("execute", node_bindings(graph, node_id, guidance), scope=node_id)
            guidance = None  # guidance lives for exactly one executor call

            node.local_trace.append(run.act(action, scope=node_id))
            if run.env.done:
                return close(NodeStatus.COMPLETED, None)

            # one view per step: evaluate narrows its history, replan adds the reason
            view = node_bindings(graph, node_id)
            judged = view if plan_start == 0 else {
                **view, "history": assemble_history(node.local_trace[plan_start:], HISTORY_CAP)}
            evaluation = run.call("evaluate", judged, scope=node_id)
            if evaluation.status == "completed":
                return close(NodeStatus.COMPLETED, evaluation.reason)
            if evaluation.status == "failed":
                return close(NodeStatus.FAILED, evaluation.reason)

            # needs_more_steps from here on
            if run.budget_spent():
                return node.status
            if not evaluation.need_replan:
                guidance = evaluation.reason  # hand to exactly the next executor call
                continue
            new_plan = run.call("replan", {**view, "reason": evaluation.reason}, scope=node_id)
            if new_plan is None:
                run.emit("replan", scope=node_id, accepted=False, replan_count=node.replan_count)
            elif node.replan_count >= run.config.max_replans_per_node:
                run.emit("replan", scope=node_id, accepted=False,
                         replan_count=node.replan_count, budget_exhausted=True)
                return close(NodeStatus.FAILED, f"replan budget exhausted ({node.replan_count})")
            else:
                node.plan = new_plan
                node.replan_count += 1
                plan_start = len(node.local_trace)
                run.emit("replan", scope=node_id, accepted=True, replan_count=node.replan_count)
    except RoleFault as fault:
        return close(NodeStatus.FAILED, str(fault))
    return node.status


# ---------------------------------------------------------------------------
# the run loop


@run_method("tdp", "supervisor", "planner", "executor")
def run_task(run: Run) -> tuple[str, str]:
    """Run one task end to end and return its record.

    The run opens with the supervisor's ``construct`` call, whose reply
    :func:`~tdp.roles.parse_subgoals` reads as a revision of the empty graph,
    so the decomposition is held to the rules of every revision.  A malformed
    reply and a refused graph share the call's bounded retry budget.

    Terminates on: task done (environment done or every sink node Completed),
    step-budget exhaustion, a construction fault (``role fault: ...``, as
    :func:`run_method` ends it), a stalled round (no ready nodes and a
    revision that changed nothing: rejected, faulted or without edits), or
    :data:`STALL_ROUNDS` consecutive rounds without an environment step (a
    supervisor that keeps revising a graph whose remaining nodes can never
    become ready).  The revision call that closes a round sees the frontier
    from :func:`render_dag_state`: the in-progress, failed and ready nodes,
    the pending dependents of failed nodes, the completed nodes those depend
    on and the nodes the round closed, each of these with its outcome
    beneath, with every other node only counted.  The view is also the edit
    scope: :func:`apply_revision` rejects a revision that names, to reword,
    remove or wire a new node to, any id the view did not show, other than
    those of the revision's own new nodes.
    The call names the graph's failed nodes (``failed_nodes``) on the line of
    the repair rule, a way around them that it MUST add when no pending node
    is ready; with no failed node the line is left out.  The stall case still
    sees the rule: after a round, a pending node that is not ready waits,
    through its dependencies, on a failed node.

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

    The trace records every graph edit as a delta in the schema of the
    supervisor's revise reply (:func:`~tdp.graph.delta_to_doc`):
    ``graph_constructed`` carries the decomposition's, and each ``revision``
    event its ``status`` and ``reasons`` plus, when the delta has edits, its own.
    A revise call that faulted is a noop whose event also carries the fault's
    message as ``error``.  :func:`replay_graph` folds these deltas back into
    the graph's ids, descriptions and dependencies at any event.
    """
    graph, decomposition = run.call("construct", {"task_description": run.instance.query})
    run.graph = graph
    run.emit("graph_constructed", delta=delta_to_doc(decomposition))

    idle_rounds = 0
    while (end := run.stop()) is None:
        ready = ready_nodes(graph)
        steps_before = run.steps_used
        for nid in ready:
            if run.stop() is not None:
                break
            run.emit("node_dispatched", node_id=nid)
            execute_node(graph, nid, run)
        if (end := run.stop()) is not None:
            return end  # otherwise every ready node closed, with an outcome
        fault_record: dict[str, str] = {}
        dag_state, shown = render_dag_state(graph, ready)
        failed = sorted(nid for nid, node in graph.nodes.items()
                        if node.status is NodeStatus.FAILED)
        try:
            delta: RevisionDelta = run.call(
                "revise",
                {
                    "task_description": run.instance.query,
                    "current_step": str(run.steps_used),
                    "dag_state": dag_state,
                    "failed_nodes": ", ".join(failed) or None,
                },
            )
        except RoleFault as fault:
            delta = RevisionDelta()
            fault_record = {"error": str(fault)}
        result = apply_revision(graph, delta, scope=shown)
        run.emit(
            "revision",
            status=result.status,
            reasons=list(result.reasons),
            delta=delta_to_doc(delta) if delta.edits else None,
            **fault_record,
        )
        graph = run.graph = result.graph
        if not ready and not result.applied:
            return "Terminated", "stall: no ready nodes and no graph update"
        idle_rounds = 0 if run.steps_used > steps_before else idle_rounds + 1
        if idle_rounds >= STALL_ROUNDS:
            return "Terminated", f"stall: {STALL_ROUNDS} rounds without an environment step"
    return end


def replay_graph(events: Iterable[TraceEvent]) -> TaskGraph:
    """Rebuild a tdp run's graph, as it stood after the last of `events`,
    from the trace alone: its ids, descriptions, dependencies and statuses.

    Starts from the empty graph and applies the delta of
    ``graph_constructed`` and then of each applied ``revision``, in order,
    each read back through :func:`~tdp.roles.parse_revision` since a trace is
    outside input; an applied delta without edits, which an older trace can
    hold, changes nothing.  The same pass keeps each node's last ``node_status``,
    which the nodes still in the graph then carry; a node's outcome is not in
    the trace, so a terminal node comes back without one.  The rebuilt graph
    is for inspection only: :func:`~tdp.graph.validate_graph` reports each
    terminal node's missing outcome, so :func:`~tdp.graph.apply_revision`
    rejects any delta on it.  Raises :class:`~tdp.telemetry.TraceError` on a
    delta that is missing, unreadable or refused.
    """
    graph = TaskGraph()
    statuses: dict[str, str] = {}
    for event in events:
        if event.kind == "node_status":
            statuses[event.payload["node_id"]] = event.payload["status"]
            continue
        applied = event.kind == "revision" and event.payload["status"] == "applied"
        if not (applied or event.kind == "graph_constructed"):
            continue
        where = f"{event.kind} event {event.seq} of run {event.run_id!r}"
        doc = event.payload.get("delta")
        if doc is None:
            raise TraceError(f"{where} carries no delta")
        try:
            delta = parse_revision(json.dumps(doc))
        except ParseFault as fault:
            raise TraceError(f"{where}: unreadable delta: {fault}") from None
        result = apply_revision(graph, delta)
        if result.status == "rejected":
            raise TraceError(f"{where}: delta does not apply: {'; '.join(result.reasons)}")
        graph = result.graph
    for node_id in statuses.keys() & graph.nodes.keys():
        graph.nodes[node_id].status = NodeStatus(statuses[node_id])
    return graph
