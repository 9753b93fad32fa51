"""Task graph: sub-task nodes, dependency edges, and the operations the engine
runs against them.

The graph is the engine's shared blackboard.  Nodes are planned and executed in
isolation, so everything a downstream consumer may legitimately see is funneled
through :class:`OutcomeSummary` records and :func:`build_node_context`.  All
mutation happens on the engine's single logical control thread; between
mutations a graph value behaves as a snapshot.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field, replace
from enum import Enum
from typing import Any, Iterable, Mapping

NodeId = str

#: The most nodes a graph may hold.  Every ready node costs at least one
#: planner call, so the cap bounds a run's model calls where the model's reply
#: would not.  It admits the 100-stage chain the benchmark runs.
MAX_NODES = 100

_GENERATED_ID_RE = re.compile(r"^node_(\d+)$")


class GraphError(ValueError):
    """Base class for graph-level failures."""


class SchedulingError(GraphError):
    """Raised when a node is asked for context before its dependencies finished."""


class NodeStatus(str, Enum):
    """Lifecycle of a sub-task node.

    Legal transitions: Pending -> InProgress, InProgress -> Completed/Failed,
    and InProgress -> InProgress while a node keeps stepping.  Terminal states
    are never left.
    """

    PENDING = "pending"
    IN_PROGRESS = "in_progress"
    COMPLETED = "completed"
    FAILED = "failed"

    @property
    def terminal(self) -> bool:
        return self in (NodeStatus.COMPLETED, NodeStatus.FAILED)


_LEGAL_TRANSITIONS: dict[NodeStatus, frozenset[NodeStatus]] = {
    NodeStatus.PENDING: frozenset({NodeStatus.IN_PROGRESS}),
    NodeStatus.IN_PROGRESS: frozenset(
        {NodeStatus.IN_PROGRESS, NodeStatus.COMPLETED, NodeStatus.FAILED}
    ),
    NodeStatus.COMPLETED: frozenset(),
    NodeStatus.FAILED: frozenset(),
}


def legal_transition(old: NodeStatus, new: NodeStatus) -> bool:
    """True when `old -> new` is an allowed status move."""
    return new in _LEGAL_TRANSITIONS[old]


@dataclass(frozen=True)
class TraceEntry:
    """One environment interaction: what was done and what came back.

    ``step_index`` is the run-global interaction counter, so indices are
    strictly increasing within any node's local trace as well.
    """

    step_index: int
    action: str
    observation: str


@dataclass(frozen=True)
class OutcomeSummary:
    """What a finished node hands to its dependents.

    ``summary_text`` must be nonempty for completed nodes; ``key_observations``
    keeps only the last few raw observations (the engine decides how many).
    """

    terminal_status: NodeStatus
    summary_text: str
    key_observations: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if not self.terminal_status.terminal:
            raise GraphError(
                f"outcome recorded for non-terminal status {self.terminal_status.value!r}"
            )
        if self.terminal_status is NodeStatus.COMPLETED and not self.summary_text.strip():
            raise GraphError("completed outcome requires nonempty summary_text")


@dataclass
class SubTaskNode:
    """One unit of decomposed work.

    The node's ``plan`` is owned by the planner role and replaced wholesale on
    an accepted replan; ``local_trace`` holds only this node's interactions.
    ``outcome`` is present exactly when the status is terminal.
    """

    id: NodeId
    description: str
    dependencies: set[NodeId] = field(default_factory=set)
    status: NodeStatus = NodeStatus.PENDING
    plan: Any = None  # roles.Plan once planned; kept loose to avoid an import cycle
    local_trace: list[TraceEntry] = field(default_factory=list)
    outcome: OutcomeSummary | None = None
    replan_count: int = 0

    def set_status(self, new: NodeStatus) -> None:
        """Move to `new`, enforcing the lifecycle rules."""
        if not legal_transition(self.status, new):
            raise GraphError(
                f"illegal status transition {self.status.value} -> {new.value} on {self.id!r}"
            )
        self.status = new


@dataclass
class TaskGraph:
    """The full decomposition of one task."""

    task_description: str
    nodes: dict[NodeId, SubTaskNode] = field(default_factory=dict)

    def sorted_ids(self) -> list[NodeId]:
        return sorted(self.nodes)

    def sinks(self) -> set[NodeId]:
        """Nodes nothing depends on, unordered: the end-of-run check asks
        before every dispatch, so this sorts nothing."""
        return self.nodes.keys() - set().union(*[n.dependencies for n in self.nodes.values()])


@dataclass(frozen=True)
class RevisionDelta:
    """A proposed between-round edit to the graph.

    ``new_nodes`` entries are (id-or-None, description, dependencies,
    dependents); ``dependents`` wires reverse edges into existing nodes.
    """

    thought: str = ""
    need_update: bool = False
    description_updates: tuple[tuple[NodeId, str], ...] = ()
    new_nodes: tuple["NewNodeSpec", ...] = ()
    remove_nodes: tuple[NodeId, ...] = ()


@dataclass(frozen=True)
class NewNodeSpec:
    id: NodeId | None
    description: str
    dependencies: tuple[NodeId, ...] = ()
    dependents: tuple[NodeId, ...] = ()


@dataclass(frozen=True)
class NodeScopedContext:
    """Everything of the graph the planner/executor roles may see while
    working one node.

    By construction: the node's own description, the outcomes of its direct
    dependencies (in dependency-id order, ids carried alongside for labeling),
    and its own local trace.  Nothing else; the node's plan and one-shot
    guidance join it as prompt bindings (:func:`tdp.engine.node_bindings`).
    """

    subgoal: str
    dependency_ids: tuple[NodeId, ...]
    dependency_outcomes: tuple[OutcomeSummary, ...]
    local_trace: tuple[TraceEntry, ...]


# ---------------------------------------------------------------------------
# validation


def _cycle_violations(nodes: Mapping[NodeId, SubTaskNode]) -> list[str]:
    # Kahn peel; whatever survives sits on at least one cycle.
    indeg: dict[NodeId, int] = {}
    dependents: dict[NodeId, list[NodeId]] = {nid: [] for nid in nodes}
    for nid, node in nodes.items():
        deps_in_graph = [d for d in node.dependencies if d in nodes]
        indeg[nid] = len(deps_in_graph)
        for dep in deps_in_graph:
            dependents[dep].append(nid)
    queue = sorted(nid for nid, d in indeg.items() if d == 0)
    seen = 0
    while queue:
        nid = queue.pop()
        seen += 1
        for child in dependents[nid]:
            indeg[child] -= 1
            if indeg[child] == 0:
                queue.append(child)
    if seen == len(nodes):
        return []
    stuck = sorted(nid for nid, d in indeg.items() if d > 0)
    return [f"cycle: nodes {', '.join(stuck)} form or feed a dependency cycle"]


def validate_graph(graph: TaskGraph) -> list[str]:
    """Check every structural rule; return all violations as data (empty = valid).

    Total: never raises on malformed input, just reports.
    """
    violations: list[str] = []
    for nid, node in sorted(graph.nodes.items()):
        if not nid:
            violations.append("id: empty node id")
        if node.id != nid:
            violations.append(f"id: node keyed {nid!r} carries id {node.id!r}")
        if not node.description or not node.description.strip():
            violations.append(f"description: node {nid!r} has an empty description")
        if nid in node.dependencies:
            violations.append(f"cycle: node {nid!r} depends on itself")
        for dep in sorted(node.dependencies):
            if dep not in graph.nodes:
                violations.append(f"dangling: node {nid!r} depends on unknown {dep!r}")
        if node.outcome is not None and not node.status.terminal:
            violations.append(f"outcome: non-terminal node {nid!r} carries an outcome")
        if node.status.terminal and node.outcome is None:
            violations.append(f"outcome: terminal node {nid!r} has no outcome")
    if len(graph.nodes) > MAX_NODES:
        violations.append(f"size: graph has {len(graph.nodes)} nodes, over the cap of {MAX_NODES}")
    if graph.nodes:
        violations.extend(_cycle_violations(graph.nodes))
        if not graph.sinks():
            violations.append("sink: graph has no sink node")
    else:
        violations.append("empty: graph has no nodes")
    return violations


def ready_nodes(graph: TaskGraph) -> list[NodeId]:
    """Pending nodes whose dependencies are all Completed, lexicographic.

    A failed dependency permanently blocks its dependents (until a revision
    rewires them).
    """
    out: list[NodeId] = []
    for nid in graph.sorted_ids():
        node = graph.nodes[nid]
        if node.status is not NodeStatus.PENDING:
            continue
        if all(
            dep in graph.nodes
            and graph.nodes[dep].status is NodeStatus.COMPLETED
            for dep in node.dependencies
        ):
            out.append(nid)
    return out


def build_node_context(graph: TaskGraph, node_id: NodeId) -> NodeScopedContext:
    """Assemble the complete — and only — context for working `node_id`."""
    if node_id not in graph.nodes:
        raise SchedulingError(f"unknown node {node_id!r}")
    node = graph.nodes[node_id]
    dep_ids = sorted(node.dependencies)
    outcomes: list[OutcomeSummary] = []
    for dep in dep_ids:
        dep_node = graph.nodes.get(dep)
        if dep_node is None or dep_node.status is not NodeStatus.COMPLETED:
            have = dep_node.status.value if dep_node else "missing"
            raise SchedulingError(
                f"node {node_id!r} scheduled before dependency {dep!r} completed "
                f"(status: {have})"
            )
        assert dep_node.outcome is not None  # terminal ⇒ outcome, enforced above
        outcomes.append(dep_node.outcome)
    return NodeScopedContext(
        subgoal=node.description,
        dependency_ids=tuple(dep_ids),
        dependency_outcomes=tuple(outcomes),
        local_trace=tuple(node.local_trace),
    )


# ---------------------------------------------------------------------------
# revision


@dataclass(frozen=True)
class RevisionResult:
    """Outcome of applying a delta: the (possibly unchanged) graph plus a verdict."""

    graph: TaskGraph
    status: str  # "applied" | "noop" | "rejected"
    reasons: tuple[str, ...] = ()

    @property
    def applied(self) -> bool:
        return self.status == "applied"


def next_generated_id(existing: Iterable[NodeId]) -> NodeId:
    """`node_<n+1>` where n is the largest numeric suffix already in use (0 if none)."""
    best = 0
    for nid in existing:
        m = _GENERATED_ID_RE.match(nid)
        if m:
            best = max(best, int(m.group(1)))
    return f"node_{best + 1}"


def apply_revision(graph: TaskGraph, delta: RevisionDelta) -> RevisionResult:
    """Apply a revision atomically.

    Either every edit in the delta lands and the result validates, or the
    original graph object is returned untouched with the rejection reasons.
    Terminal nodes may be removed but never rewritten or resurrected.  Every
    graph the supervisor proposes is built here: a decomposition is a revision
    of the empty graph (:func:`~tdp.roles.parse_subgoals`).  The edits check
    only the ids they name; every structural rule of the result is
    :func:`validate_graph`'s.
    """
    if not delta.need_update:
        return RevisionResult(graph=graph, status="noop")

    reasons: list[str] = []
    # Copy the structure the edits below touch; plans, trace entries and
    # outcomes are frozen, so the copy shares them with the original.
    work = TaskGraph(
        task_description=graph.task_description,
        nodes={
            nid: replace(
                node, dependencies=set(node.dependencies), local_trace=list(node.local_trace)
            )
            for nid, node in graph.nodes.items()
        },
    )

    for node_id, new_description in delta.description_updates:
        node = work.nodes.get(node_id)
        if node is None:
            reasons.append(f"update: unknown node {node_id!r}")
        elif node.status.terminal:
            reasons.append(f"update: node {node_id!r} is terminal and cannot be rewritten")
        else:
            node.description = new_description

    removed_terminal: set[NodeId] = set()
    for node_id in delta.remove_nodes:
        if node_id not in work.nodes:
            reasons.append(f"remove: unknown node {node_id!r}")
            continue
        if work.nodes[node_id].status.terminal:
            removed_terminal.add(node_id)
        del work.nodes[node_id]
        for other in work.nodes.values():
            other.dependencies.discard(node_id)

    for spec in delta.new_nodes:
        nid = spec.id if spec.id else next_generated_id(work.nodes)
        if nid in work.nodes:
            reasons.append(f"add: id {nid!r} already exists")
            continue
        if nid in removed_terminal:
            reasons.append(f"add: id {nid!r} would resurrect a terminal node removed above")
            continue
        work.nodes[nid] = SubTaskNode(
            id=nid,
            description=spec.description,
            dependencies=set(spec.dependencies),
        )
        for dependent in spec.dependents:
            target = work.nodes.get(dependent)
            if target is None:
                reasons.append(f"add: node {nid!r} lists unknown dependent {dependent!r}")
            elif target.status.terminal:
                reasons.append(
                    f"add: node {nid!r} cannot become a dependency of terminal {dependent!r}"
                )
            else:
                target.dependencies.add(nid)

    if reasons:
        return RevisionResult(graph=graph, status="rejected", reasons=tuple(reasons))

    violations = validate_graph(work)
    if violations:
        return RevisionResult(graph=graph, status="rejected", reasons=tuple(violations))
    return RevisionResult(graph=work, status="applied")


# ---------------------------------------------------------------------------
# rendering + serialization


def render_dag_state(graph: TaskGraph) -> str:
    """Deterministic view of the graph's frontier, handed to the revision prompt.

    A full line, with dependencies and description, goes to every in-progress,
    failed and ready node, to every pending node that depends directly on a
    failed node, so that the supervisor can rewire it around the failure, and
    to every completed node one of those depends on.  The other nodes are only
    counted, in at most two lines, each emitted when its count is nonzero: the
    other completed nodes, and the pending nodes waiting behind the nodes
    shown.  So the view grows with the frontier, not with the graph.
    """
    if not graph.nodes:
        return "(empty graph)"
    nodes = graph.nodes
    failed = {nid for nid, node in nodes.items() if node.status is NodeStatus.FAILED}
    frontier = failed | set(ready_nodes(graph))
    for nid, node in nodes.items():
        if node.status is NodeStatus.IN_PROGRESS or (
            node.status is NodeStatus.PENDING and node.dependencies & failed
        ):
            frontier.add(nid)
    shown = frontier | {
        dep
        for nid in frontier
        for dep in nodes[nid].dependencies
        if dep in nodes and nodes[dep].status is NodeStatus.COMPLETED
    }
    lines = []
    for nid in sorted(shown):
        node = nodes[nid]
        deps = ", ".join(sorted(node.dependencies)) or "none"
        lines.append(f"- {nid} [{node.status.value}] (deps: {deps}): {node.description}")
    hidden = [nodes[nid].status for nid in nodes.keys() - shown]
    for status, note in (
        (NodeStatus.COMPLETED, ""),
        (NodeStatus.PENDING, ", waiting on the nodes above"),
    ):
        count = hidden.count(status)
        if count:
            lines.append(f"- ({count} {status.value} not shown{note})")
    return "\n".join(lines)


def delta_to_doc(delta: RevisionDelta) -> dict[str, Any]:
    """JSON-ready document in the schema of the supervisor's revise reply, so
    :func:`~tdp.roles.parse_revision` reads it back to an equal delta."""
    return {
        "thought": delta.thought,
        "need_update": delta.need_update,
        "description_updates": [
            {"node_id": nid, "new_description": description}
            for nid, description in delta.description_updates
        ],
        "new_nodes": [
            {
                "id": spec.id,
                "description": spec.description,
                "dependencies": list(spec.dependencies),
                "dependents": list(spec.dependents),
            }
            for spec in delta.new_nodes
        ],
        "remove_nodes": list(delta.remove_nodes),
    }


__all__ = [
    "NodeId",
    "MAX_NODES",
    "GraphError",
    "SchedulingError",
    "NodeStatus",
    "legal_transition",
    "TraceEntry",
    "OutcomeSummary",
    "SubTaskNode",
    "TaskGraph",
    "RevisionDelta",
    "NewNodeSpec",
    "NodeScopedContext",
    "RevisionResult",
    "validate_graph",
    "ready_nodes",
    "build_node_context",
    "apply_revision",
    "next_generated_id",
    "render_dag_state",
    "delta_to_doc",
]
