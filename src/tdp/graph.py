"""Task graph: sub-task nodes, dependency edges, and the operations the engine
runs against them.

The graph is the engine's shared blackboard, and it holds only what other
nodes and the supervisor read: each node's id, description, dependencies,
status and outcome.  A node's plan, steps and replan count live in the call
that works it (:func:`tdp.engine.execute_node`), so everything a downstream
consumer may legitimately see is funneled through :class:`OutcomeSummary`
records, which the engine's node view, :func:`tdp.engine.node_bindings`, reads
from direct dependencies only.  All mutation happens on the engine's single
logical control thread; between mutations a graph value behaves as a snapshot.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field, replace
from enum import Enum
from typing import AbstractSet, Any, Iterable, Mapping

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

    Legal transitions: Pending -> InProgress, InProgress -> Completed/Failed.
    Terminal states are never left.
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
    NodeStatus.IN_PROGRESS: frozenset({NodeStatus.COMPLETED, NodeStatus.FAILED}),
    NodeStatus.COMPLETED: frozenset(),
    NodeStatus.FAILED: frozenset(),
}


def legal_transition(old: NodeStatus, new: NodeStatus) -> bool:
    """True when `old -> new` is an allowed status move."""
    return new in _LEGAL_TRANSITIONS[old]


@dataclass(frozen=True)
class OutcomeSummary:
    """What a finished node hands to its dependents.

    ``key_observations`` keeps only the last few raw observations (the engine
    decides how many).  How the node ended is its ``status``, and
    :func:`validate_graph` holds a completed node's ``summary_text`` nonblank.
    """

    summary_text: str
    key_observations: tuple[str, ...] = ()


@dataclass
class SubTaskNode:
    """One unit of decomposed work, as other nodes and the supervisor see it.

    ``outcome`` is present exactly when the status is terminal.  The node's
    plan, steps and replan count are not here: only the call that works the
    node reads them (:func:`tdp.engine.execute_node`).
    """

    id: NodeId
    description: str
    dependencies: set[NodeId] = field(default_factory=set)
    status: NodeStatus = NodeStatus.PENDING
    outcome: OutcomeSummary | None = None

    def set_status(self, new: NodeStatus) -> None:
        """Move to `new`, enforcing the lifecycle rules."""
        if not legal_transition(self.status, new):
            raise GraphError(
                f"illegal status transition {self.status.value} -> {new.value} on {self.id!r}"
            )
        self.status = new


@dataclass
class TaskGraph:
    """The full decomposition of one task.

    ``retired`` holds the ids that revisions removed; no later node takes
    one, so an id names one node for the whole run (and its trace).
    """

    nodes: dict[NodeId, SubTaskNode] = field(default_factory=dict)
    retired: frozenset[NodeId] = frozenset()

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
    description_updates: tuple[tuple[NodeId, str], ...] = ()
    new_nodes: tuple["NewNodeSpec", ...] = ()
    remove_nodes: tuple[NodeId, ...] = ()

    @property
    def edits(self) -> bool:
        """True when the delta rewords, adds or removes any node."""
        return bool(self.description_updates or self.new_nodes or self.remove_nodes)


@dataclass(frozen=True)
class NewNodeSpec:
    id: NodeId | None
    description: str
    dependencies: tuple[NodeId, ...] = ()
    dependents: tuple[NodeId, ...] = ()


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
        if (node.status is NodeStatus.COMPLETED and node.outcome is not None
                and not node.outcome.summary_text.strip()):
            violations.append(f"outcome: completed node {nid!r} has a blank summary")
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
    nodes = graph.nodes
    pending, completed = NodeStatus.PENDING, NodeStatus.COMPLETED
    out: list[NodeId] = []
    for nid, node in nodes.items():
        if node.status is not pending:
            continue
        for dep in node.dependencies:
            dep_node = nodes.get(dep)
            if dep_node is None or dep_node.status is not completed:
                break
        else:
            out.append(nid)
    out.sort()
    return out


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


def apply_revision(
    graph: TaskGraph, delta: RevisionDelta, scope: AbstractSet[NodeId] | None = None
) -> RevisionResult:
    """Apply a revision atomically.

    A delta without edits is a ``noop``.  Otherwise every edit in the delta
    lands and the result validates, or the original graph object is returned
    untouched with the rejection reasons.
    Terminal nodes may be removed but never rewritten.  A removed node's id
    is retired: a named new node may not take it, in this delta or a later
    one, and a generated id goes past it.  Every graph the supervisor
    proposes is built here: a decomposition is a revision of the empty graph
    (:func:`~tdp.roles.parse_subgoals`).  Given a `scope`,
    the ids :func:`render_dag_state` showed, the delta may name only those
    ids and the ids of its own new nodes, in its updates, its removals and its
    new nodes' dependencies and dependents; each other id it names is one
    rejection reason.  The edits check only the ids they name; every
    structural rule of the result is :func:`validate_graph`'s.
    """
    if not delta.edits:
        return RevisionResult(graph=graph, status="noop")
    if scope is not None:
        allowed = set(scope) | {spec.id for spec in delta.new_nodes if spec.id}
        named = [nid for nid, _ in delta.description_updates] + list(delta.remove_nodes)
        for spec in delta.new_nodes:
            named += [*spec.dependencies, *spec.dependents]
        outside = [nid for nid in dict.fromkeys(named) if nid not in allowed]
        if outside:
            reasons = tuple(f"scope: node {nid!r} is not in the revise view" for nid in outside)
            return RevisionResult(graph=graph, status="rejected", reasons=reasons)

    reasons: list[str] = []
    # Copy the structure the edits below touch; outcomes are frozen, so the
    # copy shares them with the original.
    work = TaskGraph(
        nodes={nid: replace(node, dependencies=set(node.dependencies))
               for nid, node in graph.nodes.items()},
        retired=graph.retired,
    )

    for node_id, new_description in delta.description_updates:
        node = work.nodes.get(node_id)
        if node is None:
            reasons.append(f"update: unknown node {node_id!r}")
        elif node.status.terminal:
            reasons.append(f"update: node {node_id!r} is terminal and cannot be rewritten")
        else:
            node.description = new_description

    for node_id in delta.remove_nodes:
        if node_id not in work.nodes:
            reasons.append(f"remove: unknown node {node_id!r}")
            continue
        del work.nodes[node_id]
        work.retired |= {node_id}
        for other in work.nodes.values():
            other.dependencies.discard(node_id)

    for spec in delta.new_nodes:
        nid = spec.id if spec.id else next_generated_id([*work.nodes, *work.retired])
        if nid in work.nodes:
            reasons.append(f"add: id {nid!r} already exists")
            continue
        if nid in work.retired:
            reasons.append(f"add: id {nid!r} is retired: a revision removed its node")
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


def render_outcome(outcome: OutcomeSummary) -> str:
    """An outcome as its readers see it: the summary, then each kept
    observation on an ``observed:`` line whose continuation lines are
    indented beneath it.  The caller heads it: with a prerequisite's id in
    :func:`tdp.engine.node_bindings`, under a frontier line in
    :func:`render_dag_state`."""
    observed = ("  observed: " + obs.replace("\n", "\n    ") for obs in outcome.key_observations)
    return "\n".join([outcome.summary_text, *observed])


def render_dag_state(
    graph: TaskGraph, closed: Iterable[NodeId] = ()
) -> tuple[str, frozenset[NodeId]]:
    """Deterministic view of the graph's frontier, handed to the revision
    prompt, and the ids it shows, the scope of the revision's edits
    (:func:`apply_revision`).

    A full line, with dependencies and description, goes to every in-progress,
    failed and ready node, to every pending node that depends directly on a
    failed node, so that the supervisor can rewire it around the failure, to
    every completed node one of those depends on, and to each node the round
    closed (`closed`), with its outcome beneath, headed ``result:``.  The
    other nodes are only counted, in one line, so the view grows with the
    frontier, not with the graph.
    """
    if not graph.nodes:
        return "(empty graph)", frozenset()
    nodes = graph.nodes
    closed = set(closed)
    failed = {nid for nid, node in nodes.items() if node.status is NodeStatus.FAILED}
    frontier = failed | set(ready_nodes(graph))
    for nid, node in nodes.items():
        if node.status is NodeStatus.IN_PROGRESS or (
            node.status is NodeStatus.PENDING and node.dependencies & failed
        ):
            frontier.add(nid)
    shown = frontier | closed | {
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
        if nid in closed:
            assert node.outcome is not None  # a closed node is terminal
            lines.append(f"  result: {render_outcome(node.outcome)}")
    hidden = [nodes[nid].status for nid in nodes.keys() - shown]
    counts = [f"{hidden.count(status)} {status.value}"
              for status in (NodeStatus.COMPLETED, NodeStatus.PENDING) if status in hidden]
    if counts:
        lines.append(f"- ({', '.join(counts)} not shown)")
    return "\n".join(lines), frozenset(shown)


def delta_to_doc(delta: RevisionDelta) -> dict[str, Any]:
    """JSON-ready document in the schema of the supervisor's revise reply, so
    :func:`~tdp.roles.parse_revision` reads it back to an equal delta."""
    return {
        "thought": delta.thought,
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
    "OutcomeSummary",
    "SubTaskNode",
    "TaskGraph",
    "RevisionDelta",
    "NewNodeSpec",
    "RevisionResult",
    "validate_graph",
    "ready_nodes",
    "apply_revision",
    "next_generated_id",
    "render_outcome",
    "render_dag_state",
    "delta_to_doc",
]
