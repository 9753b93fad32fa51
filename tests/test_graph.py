"""Graph structure: lifecycle rules, validation, readiness, revision atomicity."""

from __future__ import annotations

import copy
import itertools
import random

import pytest
from graphgen import (
    LABELED_DAG_COUNTS,
    STATUSES,
    assign_statuses,
    dependency_indices,
    enumerate_labeled_dags,
    graph_from_edges,
    gray_steps,
    oracle_ready,
    oracle_ready_for_combo,
    oracle_ready_sweep,
    random_dag,
    random_valid_graph,
    run_revision_sequence,
    sorted_nodes,
)
from tdp.engine import HISTORY_CAP, TraceEntry, node_bindings, replay_graph, role_view
from tdp.graph import (
    MAX_NODES,
    GraphError,
    NewNodeSpec,
    NodeStatus,
    OutcomeSummary,
    RevisionDelta,
    SchedulingError,
    SubTaskNode,
    TaskGraph,
    apply_revision,
    delta_to_doc,
    legal_transition,
    next_generated_id,
    ready_nodes,
    render_dag_state,
    validate_graph,
)
from tdp.telemetry import TraceEvent


def node(nid, deps=(), status=NodeStatus.PENDING, description=None):
    made = SubTaskNode(
        id=nid,
        description=description if description is not None else f"work item {nid}",
        dependencies=set(deps),
    )
    made.status = status
    if status.terminal:
        made.outcome = OutcomeSummary(summary_text=f"{nid} finished")
    return made


def graph_of(*nodes):
    g = TaskGraph()
    for n in nodes:
        g.nodes[n.id] = n
    return g


# ---------------------------------------------------------------------------
# status lifecycle


def test_transition_table_is_exactly_the_documented_lifecycle():
    allowed = {
        (NodeStatus.PENDING, NodeStatus.IN_PROGRESS),
        (NodeStatus.IN_PROGRESS, NodeStatus.COMPLETED),
        (NodeStatus.IN_PROGRESS, NodeStatus.FAILED),
    }
    for old in STATUSES:
        for new in STATUSES:
            assert legal_transition(old, new) == ((old, new) in allowed), (old, new)


def test_set_status_enforces_lifecycle():
    n = SubTaskNode(id="a", description="d")
    n.set_status(NodeStatus.IN_PROGRESS)
    with pytest.raises(GraphError, match="illegal status transition"):
        n.set_status(NodeStatus.IN_PROGRESS)  # a running node is never dispatched again
    n.set_status(NodeStatus.COMPLETED)
    with pytest.raises(GraphError, match="illegal status transition"):
        n.set_status(NodeStatus.IN_PROGRESS)
    fresh = SubTaskNode(id="b", description="d")
    with pytest.raises(GraphError):
        fresh.set_status(NodeStatus.COMPLETED)  # must pass through in_progress


def test_validate_holds_each_outcome_to_its_nodes_status():
    """How a node ended is its status alone: an outcome on a non-terminal
    node is a violation, and so is a completed node's blank summary, which
    a revision of the graph then refuses."""
    g = graph_of(node("a"))
    g.nodes["a"].outcome = OutcomeSummary(summary_text="x")
    assert validate_graph(g) == ["outcome: non-terminal node 'a' carries an outcome"]
    g = graph_of(node("a", status=NodeStatus.COMPLETED))
    g.nodes["a"].outcome = OutcomeSummary(summary_text="   ")
    assert validate_graph(g) == ["outcome: completed node 'a' has a blank summary"]
    result = apply_revision(g, RevisionDelta(new_nodes=(NewNodeSpec(id="b", description="b"),)))
    assert (result.status, result.reasons) == (
        "rejected", ("outcome: completed node 'a' has a blank summary",))
    # a failed node may legitimately have nothing to summarize
    g = graph_of(node("a", status=NodeStatus.FAILED))
    g.nodes["a"].outcome = OutcomeSummary(summary_text="")
    assert validate_graph(g) == []


# ---------------------------------------------------------------------------
# validation


def test_validate_accepts_a_clean_graph():
    g = graph_of(node("a"), node("b", deps=["a"]), node("c", deps=["a", "b"]))
    assert validate_graph(g) == []


def test_validate_reports_every_violation_kind():
    # mismatched key vs id
    g = TaskGraph()
    g.nodes["x"] = SubTaskNode(id="y", description="d")
    assert any("carries id" in v for v in validate_graph(g))

    # empty description
    g = graph_of(node("a", description="   "))
    assert any("empty description" in v for v in validate_graph(g))

    # self-dependency
    g = graph_of(node("a", deps=["a"]))
    assert any("depends on itself" in v for v in validate_graph(g))

    # dangling dependency
    g = graph_of(node("a", deps=["nowhere"]))
    assert any("unknown 'nowhere'" in v for v in validate_graph(g))

    # outcome on a non-terminal node
    g = graph_of(node("a"))
    g.nodes["a"].outcome = OutcomeSummary(summary_text="too early")
    assert any("non-terminal node 'a' carries an outcome" in v for v in validate_graph(g))

    # terminal node without an outcome
    g = graph_of(node("a"))
    g.nodes["a"].status = NodeStatus.COMPLETED
    assert any("terminal node 'a' has no outcome" in v for v in validate_graph(g))

    # two-node cycle: reported as a cycle and as a missing sink
    g = graph_of(node("a", deps=["b"]), node("b", deps=["a"]))
    violations = validate_graph(g)
    assert any(v.startswith("cycle:") for v in violations)
    assert any("no sink node" in v for v in violations)

    # empty graph
    assert validate_graph(TaskGraph()) == ["empty: graph has no nodes"]


def test_validate_is_total_on_garbage():
    # a graph violating several rules at once still returns data, never raises
    g = TaskGraph()
    g.nodes[""] = SubTaskNode(id="", description="")
    g.nodes["loop"] = SubTaskNode(id="loop", description="d", dependencies={"loop", "gone"})
    violations = validate_graph(g)
    assert any(v.startswith("id:") for v in violations)
    assert any(v.startswith("description:") for v in violations)
    assert any(v.startswith("dangling:") for v in violations)
    assert any("depends on itself" in v for v in violations)


def test_cycle_detection_against_dfs_oracle():
    def dfs_has_cycle(nodes):
        WHITE, GRAY, BLACK = 0, 1, 2
        color = {nid: WHITE for nid in nodes}

        def visit(nid):
            color[nid] = GRAY
            for dep in nodes[nid].dependencies:
                if dep not in nodes:
                    continue
                if color[dep] == GRAY:
                    return True
                if color[dep] == WHITE and visit(dep):
                    return True
            color[nid] = BLACK
            return False

        return any(color[nid] == WHITE and visit(nid) for nid in list(nodes))

    rng = random.Random(11)
    for _ in range(300):
        n = rng.randint(1, 7)
        g = TaskGraph()
        ids = [f"n{i}" for i in range(n)]
        for nid in ids:
            deps = {d for d in ids if d != nid and rng.random() < 0.3}
            g.nodes[nid] = SubTaskNode(id=nid, description="d", dependencies=deps)
        impl_sees_cycle = any(v.startswith("cycle:") for v in validate_graph(g))
        assert impl_sees_cycle == dfs_has_cycle(g.nodes)


# ---------------------------------------------------------------------------
# readiness


def test_ready_exhaustive_up_to_four_nodes():
    # every labeled DAG x every status assignment, against the set-logic oracle
    for n in range(1, 5):
        count = 0
        for edges in enumerate_labeled_dags(n):
            count += 1
            g = graph_from_edges(n, edges)
            ids, nodes, deps = sorted(g.nodes), sorted_nodes(g), dependency_indices(g)
            for combo in itertools.product(range(len(STATUSES)), repeat=n):
                assign_statuses(nodes, combo)
                assert ready_nodes(g) == oracle_ready(g) == oracle_ready_for_combo(ids, deps, combo)
        assert count == LABELED_DAG_COUNTS[n]


@pytest.mark.parametrize("n", range(1, 6))
def test_gray_steps_visit_every_status_combo_once(n):
    """Each restamp changes one node's status, and the walk from all-Pending
    meets each of the 4**n status combos exactly once."""
    combo = [0] * n
    visited = [tuple(combo)]
    for k, code in gray_steps(n):
        assert combo[k] != code
        combo[k] = code
        visited.append(tuple(combo))
    assert len(visited) == len(set(visited)) == len(STATUSES) ** n


def test_the_sweep_oracle_reads_each_combo_as_the_combo_oracle_does():
    """Up to four nodes, the incrementally kept ready set equals the one read
    off the whole combo, and the graph carries the combo's statuses."""
    for n in range(1, 5):
        steps = gray_steps(n)
        for edges in enumerate_labeled_dags(n):
            g = graph_from_edges(n, edges)
            ids, nodes, deps = sorted(g.nodes), sorted_nodes(g), dependency_indices(g)
            combo = [0] * n
            for i, expected in enumerate(oracle_ready_sweep(g, steps)):
                if i:
                    k, code = steps[i - 1]
                    combo[k] = code
                assert [STATUSES.index(node.status) for node in nodes] == combo
                assert expected == oracle_ready_for_combo(ids, deps, tuple(combo))


def test_ready_random_twelve_node_dags():
    rng = random.Random(23)
    for _ in range(200):
        g = random_dag(rng, 12)
        assert ready_nodes(g) == oracle_ready(g)


def test_ready_is_lexicographic_and_blocked_by_non_completed_deps():
    g = graph_of(
        node("b"),
        node("a"),
        node("c", deps=["a"]),
        node("d", deps=["b"]),
    )
    assert ready_nodes(g) == ["a", "b"]
    g.nodes["a"].status = NodeStatus.IN_PROGRESS
    assert ready_nodes(g) == ["b"]  # c blocked: dep merely in progress
    g.nodes["a"].status = NodeStatus.FAILED
    assert ready_nodes(g) == ["b"]  # c blocked permanently by the failure
    g.nodes["b"].status = NodeStatus.COMPLETED
    g.nodes["b"].outcome = OutcomeSummary(summary_text="done")
    assert ready_nodes(g) == ["d"]


def test_ready_ignores_non_pending_candidates():
    g = graph_of(node("a", status=NodeStatus.IN_PROGRESS), node("b", status=NodeStatus.COMPLETED))
    assert ready_nodes(g) == []


# ---------------------------------------------------------------------------
# the node view


def test_node_bindings_show_direct_dependencies_and_no_grandparent():
    # diamond: a feeds b and c, which feed the sink d
    g = graph_of(
        node("a", status=NodeStatus.COMPLETED),
        node("b", deps=["a"], status=NodeStatus.COMPLETED),
        node("c", deps=["a"], status=NodeStatus.COMPLETED),
        node("d", deps=["c", "b"], description="combine the parts"),
    )
    base = node_bindings(g, "d")
    # sorted, regardless of declaration order; the grandparent a is not shown
    assert base == {
        "subgoal": "combine the parts",
        "prerequisites": "Prerequisite results:\n- [b] b finished\n- [c] c finished\n",
        "if_sink": "",
    }
    assert node_bindings(g, "a")["prerequisites"] is None
    # the node's plan, steps and guidance come from the call working it
    view = role_view(base, None, [TraceEntry(action="look", observation="parts")], HISTORY_CAP,
                     guidance="mind the order")
    assert view == {**base, "current_plan": None, "guidance": "mind the order",
                    "history": "Action: look\nObservation: parts"}


def test_node_bindings_refuse_an_unknown_node_and_unfinished_or_missing_dependencies():
    g = graph_of(node("a", status=NodeStatus.IN_PROGRESS), node("b", deps=["a"]))
    with pytest.raises(SchedulingError, match="before dependency 'a' completed"):
        node_bindings(g, "b")
    with pytest.raises(SchedulingError, match="unknown node 'zzz'"):
        node_bindings(g, "zzz")
    g2 = graph_of(node("a", status=NodeStatus.FAILED), node("b", deps=["a"]))
    with pytest.raises(SchedulingError, match="status: failed"):
        node_bindings(g2, "b")
    g3 = graph_of(node("b", deps=["gone"]))  # a dangling edge validate_graph would refuse
    with pytest.raises(SchedulingError, match=r"'gone' completed \(status: missing\)"):
        node_bindings(g3, "b")


# ---------------------------------------------------------------------------
# revision


def test_noop_when_the_delta_has_no_edits():
    g = graph_of(node("a"))
    delta = RevisionDelta(thought="nothing to do")
    assert not delta.edits
    result = apply_revision(g, delta)
    assert result.status == "noop" and not result.applied
    assert result.graph is g
    for edit in ({"description_updates": (("a", "x"),)}, {"remove_nodes": ("a",)},
                 {"new_nodes": (NewNodeSpec(id=None, description="x"),)}):
        assert RevisionDelta(**edit).edits, edit


def test_description_update_lands_on_live_node_only():
    g = graph_of(node("a"), node("b", status=NodeStatus.COMPLETED))
    ok = apply_revision(
        g, RevisionDelta(description_updates=(("a", "sharper goal"),))
    )
    assert ok.applied and ok.graph.nodes["a"].description == "sharper goal"
    assert ok.graph is not g and g.nodes["a"].description == "work item a"

    for bad_target, reason_frag in [
        ("b", "terminal and cannot be rewritten"),
        ("zz", "unknown node"),
    ]:
        before = copy.deepcopy(g)
        result = apply_revision(
            g, RevisionDelta(description_updates=((bad_target, "x"),))
        )
        assert result.status == "rejected"
        assert any(reason_frag in r for r in result.reasons)
        assert result.graph is g and g == before

    blank = apply_revision(
        g, RevisionDelta(description_updates=(("a", "  "),))
    )
    assert blank.status == "rejected"
    assert any("empty description" in r for r in blank.reasons)


def test_remove_discards_edges_and_unknown_remove_rejects():
    g = graph_of(node("a", status=NodeStatus.COMPLETED), node("b", deps=["a"]), node("c"))
    result = apply_revision(g, RevisionDelta(remove_nodes=("a",)))
    assert result.applied
    assert "a" not in result.graph.nodes
    assert result.graph.nodes["b"].dependencies == set()

    missing = apply_revision(g, RevisionDelta(remove_nodes=("ghost",)))
    assert missing.status == "rejected"
    assert any("unknown node 'ghost'" in r for r in missing.reasons)


def test_add_node_paths():
    g = graph_of(node("node_1"), node("node_2", deps=["node_1"]))

    # explicit id plus dependents wiring
    spec = NewNodeSpec(
        id="audit", description="double-check the figures", dependencies=("node_1",),
        dependents=("node_2",),
    )
    result = apply_revision(g, RevisionDelta(new_nodes=(spec,)))
    assert result.applied
    assert result.graph.nodes["node_2"].dependencies == {"node_1", "audit"}
    assert result.graph.nodes["audit"].dependencies == {"node_1"}

    # engine-generated id picks up after the largest numeric suffix
    gen = apply_revision(
        g,
        RevisionDelta(
            new_nodes=(NewNodeSpec(id=None, description="extra pass"),)
        ),
    )
    assert gen.applied and "node_3" in gen.graph.nodes

    # rejection paths
    for spec, frag in [
        (NewNodeSpec(id="node_1", description="dup"), "already exists"),
        (NewNodeSpec(id="x", description="   "), "empty description"),
        (NewNodeSpec(id="x", description="d", dependents=("ghost",)), "unknown dependent"),
    ]:
        result = apply_revision(g, RevisionDelta(new_nodes=(spec,)))
        assert result.status == "rejected"
        assert any(frag in r for r in result.reasons)


def test_a_scoped_revision_names_only_the_ids_of_the_view_and_its_new_nodes():
    # the view shows c and b, the completed node c feeds; a and d are only counted
    g = graph_of(
        node("a", status=NodeStatus.COMPLETED),
        node("b", status=NodeStatus.COMPLETED),
        node("c", deps=["b"]),
        node("d", deps=["c"]),
    )
    view, scope = render_dag_state(g)
    assert scope == {"b", "c"}
    assert view.endswith("- (1 completed, 1 pending not shown)")
    inside = RevisionDelta(
        description_updates=(("c", "sharper goal"),),
        new_nodes=(
            NewNodeSpec(id="check", description="check c", dependencies=("c",)),
            NewNodeSpec(id="wrap", description="wrap up", dependencies=("check", "b")),
        ),
    )
    assert apply_revision(g, inside, scope=scope).applied
    outside = RevisionDelta(
        description_updates=(("d", "reworded unseen"), ("c", "fine")),
        remove_nodes=("d",),
        new_nodes=(NewNodeSpec(id="x", description="x", dependencies=("a",),
                               dependents=("ghost", "c")),),
    )
    before = copy.deepcopy(g)
    result = apply_revision(g, outside, scope=scope)
    assert result.status == "rejected" and result.graph is g and g == before
    assert result.reasons == tuple(
        f"scope: node {nid!r} is not in the revise view" for nid in ("d", "a", "ghost"))
    # unscoped, as a decomposition or a replay applies it, d is fair game
    reworded = RevisionDelta(description_updates=(("d", "reworded"),))
    assert apply_revision(g, reworded).applied
    assert not apply_revision(g, reworded, scope=scope).applied


def test_a_revision_may_edit_around_every_node_its_view_shows_a_result_for():
    """Round 1 closed the roots x and q.  No frontier node depends on x, yet
    the view shows x's result, so x is in the scope: a revision may add a
    node after x that p, the ready node, then waits on."""
    g = graph_of(
        node("x", status=NodeStatus.COMPLETED),
        node("q", status=NodeStatus.COMPLETED),
        node("p", deps=["q"]),
        node("y", deps=["x", "p"]),
    )
    view, scope = render_dag_state(g, closed=["x", "q"])
    assert view == (
        "- p [pending] (deps: q): work item p\n"
        "- q [completed] (deps: none): work item q\n"
        "  result: q finished\n"
        "- x [completed] (deps: none): work item x\n"
        "  result: x finished\n"
        "- (1 pending not shown)"
    )
    assert scope == {"p", "q", "x"}
    after_x = RevisionDelta(new_nodes=(
        NewNodeSpec(id="check", description="check x", dependencies=("x",), dependents=("p",)),))
    result = apply_revision(g, after_x, scope=scope)
    assert result.applied, result.reasons
    assert result.graph.nodes["p"].dependencies == {"q", "check"}


def test_new_node_cannot_feed_a_terminal_dependent():
    g = graph_of(node("done", status=NodeStatus.COMPLETED), node("live"))
    spec = NewNodeSpec(id="late", description="too late", dependents=("done",))
    result = apply_revision(g, RevisionDelta(new_nodes=(spec,)))
    assert result.status == "rejected"
    assert any("terminal 'done'" in r for r in result.reasons)


def test_remove_then_readd_terminal_id_is_refused():
    g = graph_of(node("done", status=NodeStatus.COMPLETED), node("live"))
    delta = RevisionDelta(
        remove_nodes=("done",),
        new_nodes=(NewNodeSpec(id="done", description="fresh start"),),
    )
    result = apply_revision(g, delta)
    assert result.status == "rejected"
    assert "add: id 'done' is retired: a revision removed its node" in result.reasons
    assert result.graph is g and "done" in g.nodes


def test_an_unnamed_node_replacing_the_highest_numbered_terminal_node_is_applied():
    # the schema leaves a new node's id optional; generating it from the graph
    # after the removals handed the new node the removed node's id back
    g = graph_of(
        node("node_1", status=NodeStatus.COMPLETED),
        node("node_2", deps=["node_1"], status=NodeStatus.FAILED),
    )
    delta = RevisionDelta(
        remove_nodes=("node_2",),
        new_nodes=(NewNodeSpec(id=None, description="retry the read", dependencies=("node_1",)),),
    )
    result = apply_revision(g, delta)
    assert result.applied, result.reasons
    assert set(result.graph.nodes) == {"node_1", "node_3"}
    assert result.graph.nodes["node_3"].dependencies == {"node_1"}


def test_an_id_an_earlier_revision_removed_is_never_given_again():
    """node_2 fails and is replaced by the generated node_3, which fails and
    is removed too; the next unnamed node is node_4, not node_2 again, a
    named node_2 is refused, and the trace's deltas replay to the same ids."""
    g = graph_of(
        node("node_1", status=NodeStatus.COMPLETED),
        node("node_2", deps=["node_1"], status=NodeStatus.FAILED),
    )
    replace_2 = RevisionDelta(
        remove_nodes=("node_2",),
        new_nodes=(NewNodeSpec(id=None, description="retry", dependencies=("node_1",)),),
    )
    g = apply_revision(g, replace_2).graph
    assert set(g.nodes) == {"node_1", "node_3"}
    g.nodes["node_3"] = node("node_3", deps=["node_1"], status=NodeStatus.FAILED)
    remove_3 = RevisionDelta(remove_nodes=("node_3",))
    g = apply_revision(g, remove_3).graph
    assert (set(g.nodes), g.retired) == ({"node_1"}, {"node_2", "node_3"})
    add_unnamed = RevisionDelta(
        new_nodes=(NewNodeSpec(id=None, description="try once more", dependencies=("node_1",)),),
    )
    result = apply_revision(g, add_unnamed)
    assert result.applied, result.reasons
    assert set(result.graph.nodes) == {"node_1", "node_4"}
    add_named = RevisionDelta(new_nodes=(NewNodeSpec("node_2", "again"),))
    refused = apply_revision(g, add_named)
    assert refused.reasons == ("add: id 'node_2' is retired: a revision removed its node",)

    construct = RevisionDelta(new_nodes=(
        NewNodeSpec("node_1", "read"), NewNodeSpec("node_2", "use", ("node_1",))))
    events = [
        TraceEvent("r", seq, float(seq), kind, {"status": "applied", "delta": delta_to_doc(d)})
        for seq, (kind, d) in enumerate([("graph_constructed", construct),
                                          ("revision", replace_2), ("revision", remove_3),
                                          ("revision", add_unnamed)])
    ]
    assert set(replay_graph(events).nodes) == {"node_1", "node_4"}


def test_rejection_is_atomic_even_when_parts_were_valid():
    g = graph_of(node("a"), node("b", deps=["a"]))
    before = copy.deepcopy(g)
    delta = RevisionDelta(
        description_updates=(("a", "would have landed"),),
        remove_nodes=("ghost",),
    )
    result = apply_revision(g, delta)
    assert result.status == "rejected"
    assert g == before  # the valid update must not leak through


def test_applied_result_shares_no_mutable_structure_with_the_original():
    g = graph_of(node("a", status=NodeStatus.COMPLETED), node("b", deps=["a"]))
    before = copy.deepcopy(g)
    result = apply_revision(
        g, RevisionDelta(description_updates=(("b", "sharper b"),))
    )
    assert result.applied
    result.graph.nodes["b"].dependencies.add("c")
    result.graph.nodes["a"].dependencies.add("z")
    assert g == before


def test_post_edit_validation_rejects_structural_damage():
    g = graph_of(node("a"), node("b", deps=["a"]))
    # new node that both depends on and feeds 'b' -> two-node cycle
    spec = NewNodeSpec(id="c", description="twist", dependencies=("b",), dependents=("b",))
    result = apply_revision(g, RevisionDelta(new_nodes=(spec,)))
    assert result.status == "rejected"
    assert any("cycle" in r for r in result.reasons)
    # dangling dependency on a node the delta never created
    spec = NewNodeSpec(id="c", description="twist", dependencies=("nowhere",))
    result = apply_revision(g, RevisionDelta(new_nodes=(spec,)))
    assert result.status == "rejected"
    assert any("dangling" in r for r in result.reasons)


def test_a_revision_past_the_node_cap_is_rejected():
    g = graph_of(*(node(f"n{i:03d}") for i in range(MAX_NODES)))
    assert validate_graph(g) == []
    spec = NewNodeSpec(id="extra", description="one node too many")
    result = apply_revision(g, RevisionDelta(new_nodes=(spec,)))
    assert result.status == "rejected"
    assert result.reasons == (
        f"size: graph has {MAX_NODES + 1} nodes, over the cap of {MAX_NODES}",
    )
    assert result.graph is g


def test_applied_revision_preserves_unrelated_state():
    g = graph_of(node("a", status=NodeStatus.COMPLETED), node("b", deps=["a"]))
    result = apply_revision(
        g,
        RevisionDelta(
            new_nodes=(NewNodeSpec(id="c", description="extension"),)
        ),
    )
    assert result.applied
    assert result.graph.nodes["b"] == g.nodes["b"]
    assert result.graph.nodes["a"].outcome is not None


def test_revision_sequences_hold_the_contract():
    # a smaller pass of the same driver the acceptance suite runs at 1,000
    rng = random.Random(404)
    applied = sum(run_revision_sequence(rng, length=10) for _ in range(150))
    assert applied > 100  # the stream must actually exercise the applied path


def test_next_generated_id():
    assert next_generated_id([]) == "node_1"
    assert next_generated_id(["node_2", "node_9", "aux"]) == "node_10"
    assert next_generated_id(["widget", "parts"]) == "node_1"
    assert next_generated_id(["node_007"]) == "node_8"  # numeric, not lexical


# ---------------------------------------------------------------------------
# rendering + serialization


def test_render_dag_state_exact_format():
    g = graph_of(node("b", deps=["a"]), node("a", status=NodeStatus.COMPLETED))
    assert render_dag_state(g) == (
        "- a [completed] (deps: none): work item a\n"
        "- b [pending] (deps: a): work item b",
        {"a", "b"},
    )
    # a closed node's outcome goes beneath its line, as a dependent reads it
    g.nodes["a"].outcome = OutcomeSummary("a finished", ("seen\nmore", "o2"))
    assert render_dag_state(g, closed=["a"]) == (
        "- a [completed] (deps: none): work item a\n"
        "  result: a finished\n"
        "  observed: seen\n"
        "    more\n"
        "  observed: o2\n"
        "- b [pending] (deps: a): work item b",
        {"a", "b"},
    )
    assert render_dag_state(TaskGraph()) == ("(empty graph)", set())


def test_render_dag_state_shows_the_frontier_and_counts_the_rest():
    # a is folded (only completed b depends on it); b feeds ready c; d failed and
    # its pending dependent e is shown; g is in progress; f and h wait behind c.
    g = graph_of(
        node("a", status=NodeStatus.COMPLETED),
        node("b", deps=["a"], status=NodeStatus.COMPLETED),
        node("c", deps=["b"]),
        node("d", status=NodeStatus.FAILED),
        node("e", deps=["d"]),
        node("f", deps=["c"]),
        node("g", status=NodeStatus.IN_PROGRESS),
        node("h", deps=["f", "g"]),
    )
    assert render_dag_state(g) == (
        "- b [completed] (deps: a): work item b\n"
        "- c [pending] (deps: b): work item c\n"
        "- d [failed] (deps: none): work item d\n"
        "- e [pending] (deps: d): work item e\n"
        "- g [in_progress] (deps: none): work item g\n"
        "- (1 completed, 2 pending not shown)",
        {"b", "c", "d", "e", "g"},
    )


def test_render_dag_state_accounts_for_every_node_once():
    rng = random.Random(8)
    for _ in range(500):
        g = random_valid_graph(rng)
        terminal = sorted(nid for nid, n in g.nodes.items() if n.status.terminal)
        closed = set(rng.sample(terminal, rng.randint(0, len(terminal))))
        shown, resulted, counted = [], [], {"completed": 0, "pending": 0}
        view, scope = render_dag_state(g, closed)
        assert not [line for line in view.splitlines()[:-1] if line.startswith("- (")]
        for line in view.splitlines():
            if line.startswith("- ("):
                for part in line[3:].removesuffix(" not shown)").split(", "):
                    count, status = part.split()
                    counted[status] += int(count)
            elif line.startswith("  result: "):
                resulted.append(shown[-1])
            elif line.startswith("- "):
                shown.append(line.split()[1])
        assert shown == sorted(shown) and set(shown) == scope
        assert resulted == sorted(closed)
        assert len(shown) + sum(counted.values()) == len(g.nodes)
        nodes = g.nodes
        active = {nid for nid, n in nodes.items()
                  if n.status in (NodeStatus.IN_PROGRESS, NodeStatus.FAILED)}
        blocked = {nid for nid, n in nodes.items() if n.status is NodeStatus.PENDING
                   and any(d in active and nodes[d].status is NodeStatus.FAILED
                           for d in n.dependencies)}
        frontier = active | blocked | set(oracle_ready(g))
        feeders = {d for nid in frontier for d in nodes[nid].dependencies
                   if nodes[d].status is NodeStatus.COMPLETED}
        assert set(shown) == frontier | feeders | closed
        hidden = [nodes[nid].status.value for nid in nodes.keys() - set(shown)]
        assert counted == {s: hidden.count(s) for s in counted}


def test_sinks_are_the_nodes_nothing_depends_on():
    g = graph_of(
        node("mid", deps=["root"]),
        node("root"),
        node("leaf_b", deps=["mid"]),
        node("leaf_a", deps=["mid"]),
    )
    assert g.sinks() == {"leaf_a", "leaf_b"}


def test_random_valid_graph_generator_is_honest():
    rng = random.Random(7)
    for _ in range(50):
        g = random_valid_graph(rng)
        assert validate_graph(g) == []
