"""Graph generators and the revision-sequence driver shared by the structure
tests and the acceptance suite.

The exhaustive enumerator yields every *labeled* DAG on n nodes (permutations
of an upper-triangular edge mask, deduplicated), which the known counting
sequence 1, 3, 25, 543, 29281 cross-checks.  The revision driver applies a
random mixed-validity delta stream to a random valid graph and asserts the
atomicity contract at every step.
"""

from __future__ import annotations

import copy
import itertools
import random
from itertools import compress
from typing import Iterator, Sequence

from tdp.graph import (
    NewNodeSpec,
    NodeStatus,
    OutcomeSummary,
    RevisionDelta,
    SubTaskNode,
    TaskGraph,
    apply_revision,
    ready_nodes,
    validate_graph,
)

STATUSES = (
    NodeStatus.PENDING,
    NodeStatus.IN_PROGRESS,
    NodeStatus.COMPLETED,
    NodeStatus.FAILED,
)

_PENDING = STATUSES.index(NodeStatus.PENDING)
_COMPLETED = STATUSES.index(NodeStatus.COMPLETED)

# labeled-DAG counts by node count (for cross-checking the enumerator)
LABELED_DAG_COUNTS = {1: 1, 2: 3, 3: 25, 4: 543, 5: 29281}


def enumerate_labeled_dags(n: int) -> Iterator[frozenset[tuple[int, int]]]:
    """Every labeled DAG on nodes 0..n-1 as a frozenset of (dep, dependent) edges."""
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    seen: set[frozenset[tuple[int, int]]] = set()
    for perm in itertools.permutations(range(n)):
        for mask in range(1 << len(pairs)):
            edges = frozenset(
                (perm[i], perm[j]) for k, (i, j) in enumerate(pairs) if (mask >> k) & 1
            )
            if edges not in seen:
                seen.add(edges)
                yield edges


def graph_from_edges(n: int, edges: frozenset[tuple[int, int]]) -> TaskGraph:
    """Build a pending graph over ids n0..n{n-1}; edge (u, v) means v depends on u."""
    graph = TaskGraph()
    for i in range(n):
        graph.nodes[f"n{i}"] = SubTaskNode(id=f"n{i}", description=f"work item {i}")
    for u, v in edges:
        graph.nodes[f"n{v}"].dependencies.add(f"n{u}")
    return graph


def sorted_nodes(graph: TaskGraph) -> list[SubTaskNode]:
    """The graph's nodes in sorted-id order, the order a status combo follows."""
    return [graph.nodes[nid] for nid in sorted(graph.nodes)]


def assign_statuses(nodes: Sequence[SubTaskNode], combo: tuple[int, ...]) -> None:
    """Directly stamp ``STATUSES[combo[k]]`` on ``nodes[k]`` (bypasses lifecycle)."""
    for node, k in zip(nodes, combo):
        node.status = STATUSES[k]


def dependency_indices(graph: TaskGraph) -> list[tuple[int, ...]]:
    """Per node in sorted-id order, the sorted-order positions of its dependencies."""
    position = {nid: k for k, nid in enumerate(sorted(graph.nodes))}
    return [tuple(position[dep] for dep in node.dependencies) for node in sorted_nodes(graph)]


def oracle_ready_for_combo(
    ids: Sequence[str], deps: Sequence[tuple[int, ...]], combo: tuple[int, ...]
) -> list[str]:
    """The ready set under the statuses `combo` stamps, read from the combo alone:
    node k is ready when its code is Pending and each dependency's is Completed."""
    return [
        ids[k]
        for k, node_deps in enumerate(deps)
        if combo[k] == _PENDING and all(combo[d] == _COMPLETED for d in node_deps)
    ]


def gray_steps(n: int) -> list[tuple[int, int]]:
    """The restamps ``(node position, status code)`` that walk all 4**n status
    combos of n nodes from all-Pending in reflected base-4 Gray-code order, so
    each step changes one node's status."""
    combos: list[tuple[int, ...]] = [()]
    for _ in range(n):
        combos = [
            combo + (code,)
            for code in range(len(STATUSES))
            for combo in (combos if code % 2 == 0 else combos[::-1])
        ]
    return [
        next((k, b[k]) for k in range(n) if a[k] != b[k]) for a, b in zip(combos, combos[1:])
    ]


def oracle_ready_sweep(
    graph: TaskGraph, steps: Sequence[tuple[int, int]]
) -> Iterator[list[str]]:
    """Stamp all-Pending on `graph`, then each of `steps` in turn, yielding the
    ready set after each stamp, read off the status codes alone: node j is
    ready when its code is Pending and none of its dependencies' codes is
    other than Completed.  A step updates only the restamped node and, when
    it moved into or out of Completed, the count of unfinished dependencies of
    its direct dependents: no other node's readiness can change."""
    ids, nodes, deps = sorted(graph.nodes), sorted_nodes(graph), dependency_indices(graph)
    dependents = [
        [j for j, node_deps in enumerate(deps) if k in node_deps] for k in range(len(deps))
    ]
    codes = [_PENDING] * len(ids)
    assign_statuses(nodes, codes)
    unfinished = [len(node_deps) for node_deps in deps]
    flags = [count == 0 for count in unfinished]
    yield list(compress(ids, flags))
    for k, code in steps:
        nodes[k].status = STATUSES[code]
        change = (codes[k] == _COMPLETED) - (code == _COMPLETED)  # +1 left, -1 entered
        codes[k] = code
        flags[k] = code == _PENDING and unfinished[k] == 0
        if change:
            for j in dependents[k]:
                unfinished[j] += change
                flags[j] = codes[j] == _PENDING and unfinished[j] == 0
        yield list(compress(ids, flags))


def check_ready_sweep(n: int, dags: Sequence[frozenset[tuple[int, int]]]) -> int:
    """Check ``ready_nodes`` against :func:`oracle_ready_sweep` at every
    status combo of each n-node DAG in `dags`; return how many were checked.
    A module-level function, so a worker process can import it."""
    steps = gray_steps(n)
    checked = 0
    for edges in dags:
        graph = graph_from_edges(n, edges)
        for expected in oracle_ready_sweep(graph, steps):
            assert ready_nodes(graph) == expected, (sorted(edges), expected)
            checked += 1
    return checked


def oracle_ready(graph: TaskGraph) -> list[str]:
    """Independent readiness formulation: set containment over completed ids."""
    completed = {
        nid for nid, node in graph.nodes.items() if node.status is NodeStatus.COMPLETED
    }
    return sorted(
        nid
        for nid, node in graph.nodes.items()
        if node.status is NodeStatus.PENDING and set(node.dependencies) <= completed
    )


def random_dag(rng: random.Random, n: int) -> TaskGraph:
    """Random DAG via a random topological order and random edge density."""
    order = list(range(n))
    rng.shuffle(order)
    p = rng.uniform(0.1, 0.5)
    edges = set()
    for a in range(n):
        for b in range(a + 1, n):
            if rng.random() < p:
                edges.add((order[a], order[b]))
    graph = graph_from_edges(n, frozenset(edges))
    for node in graph.nodes.values():
        node.status = rng.choice(STATUSES)
    return graph


# ---------------------------------------------------------------------------
# revision-sequence driver


def _outcome_for(status: NodeStatus, nid: str) -> OutcomeSummary:
    return OutcomeSummary(
        terminal_status=status,
        summary_text=f"{nid} wrapped up",
        key_observations=(f"last observation of {nid}",),
    )


def random_valid_graph(rng: random.Random, max_nodes: int = 8) -> TaskGraph:
    """A structurally valid graph: DAG, outcomes exactly on terminal nodes."""
    n = rng.randint(1, max_nodes)
    graph = TaskGraph()
    ids = [f"node_{i + 1}" for i in range(n)]
    for i, nid in enumerate(ids):
        deps = {d for d in ids[:i] if rng.random() < 0.35}
        graph.nodes[nid] = SubTaskNode(id=nid, description=f"step {nid}", dependencies=deps)
    for nid in ids:
        node = graph.nodes[nid]
        node.status = rng.choice(STATUSES)
        if node.status.terminal:
            node.outcome = _outcome_for(node.status, nid)
        node.replan_count = rng.randint(0, 2)
    assert validate_graph(graph) == [], "generator must only emit valid graphs"
    return graph


def random_delta(rng: random.Random, graph: TaskGraph, serial: int) -> RevisionDelta:
    """A revision mixing valid and invalid edits; sometimes a deliberate no-op."""
    ids = sorted(graph.nodes)
    if rng.random() < 0.1:
        return RevisionDelta(thought="stand pat")

    updates: list[tuple[str, str]] = []
    for _ in range(rng.randint(0, 2)):
        roll = rng.random()
        if roll < 0.6 and ids:
            updates.append((rng.choice(ids), f"refreshed description {serial}"))
        elif roll < 0.8 and ids:
            updates.append((rng.choice(ids), "   "))  # empty: must reject
        else:
            updates.append((f"ghost_{serial}", "aimed at nobody"))

    removes: list[str] = []
    for _ in range(rng.randint(0, 2)):
        if rng.random() < 0.75 and ids:
            removes.append(rng.choice(ids))
        else:
            removes.append(f"ghost_{serial}")

    adds: list[NewNodeSpec] = []
    for k in range(rng.randint(0, 2)):
        roll = rng.random()
        if roll < 0.25:
            nid = None  # engine-generated id
        elif roll < 0.5 and ids:
            nid = rng.choice(ids)  # collision (or resurrection after a remove)
        else:
            nid = f"extra_{serial}_{k}"
        description = f"fresh work {serial}.{k}" if rng.random() < 0.85 else ""
        deps = tuple(d for d in ids if rng.random() < 0.2)
        if rng.random() < 0.1:
            deps = deps + (f"ghost_{serial}",)  # dangling: must reject
        dependents = tuple(d for d in ids if rng.random() < 0.15)
        adds.append(
            NewNodeSpec(id=nid, description=description, dependencies=deps, dependents=dependents)
        )

    return RevisionDelta(
        thought=f"edit {serial}",
        description_updates=tuple(updates),
        new_nodes=tuple(adds),
        remove_nodes=tuple(removes),
    )


def run_revision_sequence(rng: random.Random, length: int = 10) -> int:
    """One construction + `length` random revisions, asserting the contract.

    Returns how many deltas were applied (vs rejected/no-op), so callers can
    sanity-check that the stream exercises both paths.
    """
    graph = random_valid_graph(rng)
    applied = 0
    for serial in range(length):
        before = copy.deepcopy(graph)
        before_terminal = {
            nid: (node.status, node.description, node.replan_count)
            for nid, node in graph.nodes.items()
            if node.status.terminal
        }
        delta = random_delta(rng, graph, serial)
        result = apply_revision(graph, delta)

        if result.status == "applied":
            applied += 1
            assert validate_graph(result.graph) == [], result.graph
            # terminal nodes may disappear but never change
            for nid, (status, description, replans) in before_terminal.items():
                if nid in result.graph.nodes:
                    survivor = result.graph.nodes[nid]
                    assert survivor.status is status
                    assert survivor.description == description
                    assert survivor.replan_count == replans
                    assert survivor.outcome is not None
            # the input graph object itself must not have been mutated
            assert graph == before
            graph = result.graph
        else:
            assert result.status in ("noop", "rejected")
            assert result.graph is graph
            assert graph == before
            if result.status == "rejected":
                assert result.reasons, "rejections must carry reasons"
    return applied
