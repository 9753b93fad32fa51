"""Scripted scenarios shared across the engine, baseline, and acceptance tests.

Each scenario bundles a task instance, per-role scripted rules, and — where a
test pins an exact transcript — the hand-derived expected event projection.
The rule lists are order-sensitive on purpose: the first matching rule wins,
so rules keyed on later observation markers are listed before rules keyed on
earlier ones (a node's history accumulates every marker it has ever seen).
"""

from __future__ import annotations

import email.message
import io
import json
import urllib.error
import urllib.request
from dataclasses import replace
from typing import Any

from tdp.engine import STALL_ROUNDS, Run, RunConfig, execute_node
from tdp.environments import make_environment
from tdp.environments.base import TaskInstance
from tdp.graph import MAX_NODES, NodeStatus, OutcomeSummary, SubTaskNode, TaskGraph
from tdp.roles import Completion, ModelBackend, ScriptedBackend, ScriptRule, TokenUsage
from tdp.telemetry import MetricsRecord, TraceEvent, TraceSink

from perfbench import chain
from perfbench.chain import ChainEnv  # noqa: F401  (the chain tests' environment)

# ---------------------------------------------------------------------------
# reply builders


def subgoals_reply(*specs: tuple[str, str, list[str]]) -> str:
    """Decomposition JSON from (id, description, dependencies) triples."""
    return json.dumps(
        {
            "subgoals": [
                {"id": nid, "description": desc, "dependencies": list(deps)}
                for nid, desc, deps in specs
            ]
        }
    )


def plan_reply(*steps: str) -> str:
    """The planner's reply format: one ``N. <step>`` line per step."""
    return "\n".join(f"{i}. {text}" for i, text in enumerate(steps, start=1))


def eval_reply(status: str, reason: str | None = None, need_replan: bool = False) -> str:
    return json.dumps({"status": status, "reason": reason, "need_replan": need_replan})


def replan_accept(new_plan: str, thought: str = "The plan cannot proceed as written.") -> str:
    return json.dumps({"Thought": thought, "NewPlan": new_plan})


def replan_decline(thought: str = "The plan is still workable.") -> str:
    return json.dumps({"Thought": thought, "NewPlan": None})


NOOP_REVISION = json.dumps(
    {
        "thought": "The remaining nodes still cover the task; no change needed.",
        "description_updates": [],
        "new_nodes": [],
        "remove_nodes": [],
    }
)


def revision_reply(*updates: tuple[str, str]) -> str:
    """Graph-update JSON that rewords each (node_id, new_description)."""
    return json.dumps(
        {
            "thought": "The next node's wording should say what is already done.",
            "description_updates": [
                {"node_id": nid, "new_description": desc} for nid, desc in updates
            ],
            "new_nodes": [],
            "remove_nodes": [],
        }
    )


def rule(role: str | None, match: list[str], *responses: str) -> ScriptRule:
    return ScriptRule(match=tuple(match), responses=tuple(responses), role=role)


class RecordingBackend(ModelBackend):
    """Forwards every call to a wrapped backend and records its (role_tag,
    prompt) in ``calls`` and the text of each reply it returns in ``replies``.

    Scripted backends keep no call log, so a test that inspects the prompts a
    role received, or what it answered, reads them from this delegate.
    """

    def __init__(self, inner: ModelBackend) -> None:
        self.inner = inner
        self.calls: list[tuple[str, str]] = []
        self.replies: list[str] = []

    def complete(self, role_tag: str, prompt: str) -> Completion:
        self.calls.append((role_tag, prompt))
        completion = self.inner.complete(role_tag, prompt)
        self.replies.append(completion.text)
        return completion


#: A JSON reply in which every field a JSON-reading parser requires has the
#: wrong type: the decomposition's ``subgoals``, the evaluation's ``status``
#: and ``need_replan``, the replan's ``NewPlan`` and the revision's three
#: edit lists.
MISTYPED_REPLY = json.dumps({
    "subgoals": {}, "status": [], "need_replan": [], "NewPlan": [],
    "description_updates": {}, "new_nodes": {}, "remove_nodes": {},
})


class FaultAt(ModelBackend):
    """Delegates to `inner`, except at model call number `at`, counted in the
    `calls` list that every role's wrapper of one run shares.  There it does
    `fault`: ``"error"`` raises :class:`RuntimeError`, ``"unparseable"``
    replies with an empty text no role's parser accepts, ``"mistyped"`` with
    :data:`MISTYPED_REPLY`, which the executor's parser refuses as no command
    of the environment, and ``"no_usage"`` gives the inner reply with neither
    token count reported."""

    FAULTS = ("error", "unparseable", "mistyped", "no_usage")

    def __init__(self, inner: ModelBackend, calls: list[str], at: int, fault: str) -> None:
        assert fault in self.FAULTS, fault
        self.inner = inner
        self.calls = calls
        self.at = at
        self.fault = fault

    def complete(self, role_tag: str, prompt: str) -> Completion:
        self.calls.append(role_tag)
        if len(self.calls) != self.at:
            return self.inner.complete(role_tag, prompt)
        if self.fault == "error":
            raise RuntimeError(f"injected fault at call {self.at}")
        reply = self.inner.complete(role_tag, prompt)
        if self.fault == "unparseable":
            return Completion("", reply.usage)
        if self.fault == "mistyped":
            return Completion(MISTYPED_REPLY, reply.usage)
        return Completion(reply.text, TokenUsage(None, None))


def with_fault(config: RunConfig, at: int, fault: str) -> tuple[RunConfig, list[str]]:
    """A copy of `config` whose backends do `fault` at model call `at`, and
    the shared log of the role tags called."""
    calls: list[str] = []
    role_backends = {
        role: FaultAt(backend, calls, at, fault) for role, backend in config.role_backends.items()
    }
    return replace(config, role_backends=role_backends), calls


class Transport:
    """Stands in for ``urllib.request.urlopen``: answers each request with the
    next of `replies`, a reply body (a dict sent as JSON, bytes as they are)
    or an exception to raise, and keeps each request and its timeout."""

    def __init__(self, replies: Any) -> None:
        self.replies = iter(replies)
        self.sent: list[tuple[urllib.request.Request, float]] = []

    def __call__(self, request: urllib.request.Request, *, timeout: float) -> io.BytesIO:
        self.sent.append((request, timeout))
        reply = next(self.replies)
        if isinstance(reply, Exception):
            raise reply
        return io.BytesIO(reply if isinstance(reply, bytes) else json.dumps(reply).encode())


#: What can go wrong in the remote backend before a reply body is read, as
#: the transport's reply and the ``"<type>: <message>"`` the role call records.
TRANSPORT_FAULTS = {
    "status 503": (
        urllib.error.HTTPError("https://example.invalid/v1", 503, "Service Unavailable",
                               email.message.Message(), None),
        "HTTPError: HTTP Error 503: Service Unavailable"),
    "refused": (urllib.error.URLError(ConnectionRefusedError(111, "Connection refused")),
                "URLError: <urlopen error [Errno 111] Connection refused>"),
    "timeout": (TimeoutError("timed out"), "TimeoutError: timed out"),
    "html body": (b"<html>Bad Gateway</html>",
                  "JSONDecodeError: Expecting value: line 1 column 1 (char 0)"),
}


#: Each method's docstring bound on model attempts, as a function of
#: (s_max, parser_retry_budget).  tdp's runs over at most
#: ``STALL_ROUNDS * (s_max + 1)`` rounds.
ATTEMPT_BOUNDS = {
    "tdp": lambda s_max, retries: (1 + retries)
    * (1 + STALL_ROUNDS * (s_max + 1) * (2 * MAX_NODES + 1) + 3 * s_max),
    "react": lambda s_max, retries: (1 + retries) * s_max,
    "cot": lambda s_max, retries: (1 + retries) * (1 + s_max),
    "plan-act": lambda s_max, retries: (1 + retries) * (3 * s_max - 1),
}


def recording(rules: list[ScriptRule]) -> RecordingBackend:
    return RecordingBackend(ScriptedBackend(rules))


def backends(
    supervisor: list[ScriptRule], planner: list[ScriptRule], executor: list[ScriptRule]
) -> dict[str, RecordingBackend]:
    return {
        "supervisor": recording(supervisor),
        "planner": recording(planner),
        "executor": recording(executor),
    }


def project(event: TraceEvent) -> tuple[Any, ...]:
    """Collapse an event to the fields a transcript oracle pins down."""
    p = event.payload
    if event.kind == "role_call":
        return (event.kind, p["role"], p["template"], p["scope"], p["ok"])
    if event.kind == "graph_constructed":
        return (event.kind, tuple(n["id"] for n in p["delta"]["new_nodes"]))
    if event.kind == "node_dispatched":
        return (event.kind, p["node_id"])
    if event.kind == "node_status":
        return (event.kind, p["node_id"], p["status"])
    if event.kind == "env_step":
        return (
            event.kind,
            p["step_index"],
            p["action"],
            p["observation"],
            p["reward_delta"],
            p["done"],
            p["scope"],
        )
    if event.kind == "revision":
        return (event.kind, p["status"])
    if event.kind == "replan":
        return (event.kind, p["scope"], p["accepted"])
    if event.kind == "run_end":
        return (event.kind, p["terminal"], p["reason"], p["delivered"])
    return (event.kind,)


def assert_ends_on_record(report: MetricsRecord, sink: TraceSink) -> None:
    """The run's last event is its only ``run_end``, the one its record reads.

    That the record is ``compute_metrics`` over the run's trace is
    ``test_engine.py::test_a_runner_returns_the_record_its_trace_replays_to``."""
    events = sink.events_for(report.run_id)
    run_ends = [e for e in events if e.kind == "run_end"]
    assert run_ends == [events[-1]]
    assert (report.terminal, report.reason) == (run_ends[0].payload["terminal"],
                                                run_ends[0].payload["reason"])


# ---------------------------------------------------------------------------
# travel locality scenario: three nodes, a blocked return flight, one replan
#
# node_2 (flights) hits a dead end — no direct return from Peoria — and must
# replan through Chicago.  node_1 (cities) and node_3 (lodging) never see any
# of it.  Variant "direct" adds a Peoria return flight so no replan happens.

TRAVEL_QUERY = (
    "Plan a trip from Colorado Springs to Peoria: confirm the Illinois cities, "
    "book flights out on 2024-03-01 and back on 2024-03-04, and reserve lodging in Peoria."
)
TRAVEL_N1 = "Confirm the Illinois cities for the trip."
TRAVEL_N2 = "Book the flights: outbound Colorado Springs to Peoria on 2024-03-01, return on 2024-03-04."
TRAVEL_N3 = "Reserve lodging in Peoria for the stay."

# observation fragments only node_2 ever sees; the locality tests assert these
# never show up in any other node's prompts
TRAVEL_SENTINELS = ("F101", "F204", "F150", "No flights found", "FlightSearch[")

_FLIGHTS_BASE = [
    {
        "flight_no": "F101",
        "origin": "Colorado Springs",
        "destination": "Peoria",
        "date": "2024-03-01",
        "depart": "08:10",
        "arrive": "11:45",
        "price": 182,
    },
    {
        "flight_no": "F204",
        "origin": "Chicago",
        "destination": "Colorado Springs",
        "date": "2024-03-04",
        "depart": "17:20",
        "arrive": "19:05",
        "price": 204,
    },
]
_DIRECT_RETURN = {
    "flight_no": "F150",
    "origin": "Peoria",
    "destination": "Colorado Springs",
    "date": "2024-03-04",
    "depart": "09:30",
    "arrive": "11:05",
    "price": 158,
}


def travel_locality_instance(variant: str = "blocked") -> TaskInstance:
    """variant="blocked": no direct return exists; "direct": it does."""
    if variant not in ("blocked", "direct"):
        raise ValueError(f"unknown variant {variant!r}")
    flights = [dict(f) for f in _FLIGHTS_BASE]
    if variant == "direct":
        flights.append(dict(_DIRECT_RETURN))
    return TaskInstance(
        id=f"travel_locality_{variant}",
        environment="traveltoy",
        query=TRAVEL_QUERY,
        gold={},
        payload={
            "cities": {"Illinois": ["Chicago", "Peoria", "Springfield"]},
            "flights": flights,
            "distances": [],
            "accommodations": {
                "Peoria": [{"name": "Riverside Inn", "room_type": "double", "price": 95}]
            },
            "restaurants": {},
            "attractions": {},
        },
    )


def travel_locality_rules() -> dict[str, RecordingBackend]:
    supervisor = [
        rule(
            "supervisor:construct",
            ["Colorado Springs to Peoria"],
            subgoals_reply(
                ("node_1", TRAVEL_N1, []),
                ("node_2", TRAVEL_N2, ["node_1"]),
                ("node_3", TRAVEL_N3, ["node_1"]),
            ),
        ),
        # node_2 states, newest marker first: the run's history only grows
        rule(
            "supervisor:evaluate",
            [TRAVEL_N2, "F150"],
            eval_reply("completed", "Outbound F101 and the direct return F150 are booked."),
        ),
        rule(
            "supervisor:evaluate",
            [TRAVEL_N2, "F204"],
            eval_reply("completed", "Outbound F101 and the Chicago return F204 are booked."),
        ),
        rule(
            "supervisor:evaluate",
            [TRAVEL_N2, "No flights found from Peoria"],
            eval_reply(
                "needs_more_steps",
                "Peoria offers no direct return that day; the plan needs a different departure city.",
                need_replan=True,
            ),
        ),
        rule(
            "supervisor:evaluate",
            [TRAVEL_N2, "F101"],
            eval_reply("needs_more_steps", "Outbound booked; search the return leg next."),
        ),
        rule(
            "supervisor:evaluate",
            [TRAVEL_N1, "Cities in Illinois"],
            eval_reply("completed", "Peoria and Chicago are confirmed Illinois cities."),
        ),
        rule(
            "supervisor:evaluate",
            [TRAVEL_N3, "Riverside Inn"],
            eval_reply("completed", "Riverside Inn double at $95/night fits the stay."),
        ),
        rule("supervisor:revise", [], NOOP_REVISION),
    ]
    planner = [
        rule("planner:plan", [TRAVEL_N1], plan_reply("List the cities of Illinois.")),
        rule(
            "planner:plan",
            [TRAVEL_N2],
            plan_reply(
                "Search flights from Colorado Springs to Peoria on 2024-03-01.",
                "Search flights from Peoria back to Colorado Springs on 2024-03-04.",
            ),
        ),
        rule("planner:plan", [TRAVEL_N3], plan_reply("Search accommodations in Peoria.")),
        rule(
            "planner:replan",
            [TRAVEL_N2, "No flights found from Peoria"],
            replan_accept(
                plan_reply("Search flights from Chicago to Colorado Springs on 2024-03-04."),
                thought="Peoria has no direct return that day; route the return through Chicago.",
            ),
        ),
    ]
    executor = [
        rule(
            "executor:execute",
            [TRAVEL_N2, "No flights found from Peoria"],
            "FlightSearch[Chicago, Colorado Springs, 2024-03-04]",
        ),
        rule(
            "executor:execute",
            [TRAVEL_N2, "F101"],
            "FlightSearch[Peoria, Colorado Springs, 2024-03-04]",
        ),
        rule(
            "executor:execute",
            [TRAVEL_N2],
            "FlightSearch[Colorado Springs, Peoria, 2024-03-01]",
        ),
        rule("executor:execute", [TRAVEL_N1], "CitySearch[Illinois]"),
        rule("executor:execute", [TRAVEL_N3], "AccommodationSearch[Peoria]"),
    ]
    return backends(supervisor, planner, executor)


def travel_locality_config(role_backends: dict[str, RecordingBackend]) -> RunConfig:
    return RunConfig(s_max=12, max_replans_per_node=2, role_backends=dict(role_backends))


# ---------------------------------------------------------------------------
# diamond scenario: node_1 -> (node_2, node_3) -> node_4 on the text-world
# mock, with the step budget set so the run is cut off before node_4 starts.
# The expected transcript below is derived by hand from the dispatch rules:
# one round per ready batch, lexicographic order inside a batch, a between-
# round revision pass only when the task is neither done nor out of budget.

DIAMOND_QUERY = (
    "Open the drawer, activate the stove, focus the plant, and measure the scale in the lab."
)
DIAMOND_N1 = "Open the drawer in the lab."
DIAMOND_N2 = "Activate the stove."
DIAMOND_N3 = "Focus on the plant."
DIAMOND_N4 = "Measure the scale."

DIAMOND_S_MAX = 3


def diamond_instance() -> TaskInstance:
    return TaskInstance(
        id="diamond_lab",
        environment="textlab",
        query=DIAMOND_QUERY,
        gold={
            "conditions": [
                {"kind": "open", "object": "drawer"},
                {"kind": "activated", "object": "stove"},
                {"kind": "focused", "object": "plant"},
                {"kind": "measured", "object": "scale"},
            ]
        },
        payload={
            "rooms": {
                "lab": {"connects": [], "objects": ["drawer", "stove", "plant", "scale"]}
            },
            "start_room": "lab",
            "containers": {"drawer": ["key"]},
            "measurements": {"scale": "a steady 120 grams"},
        },
    )


def _diamond_rule_lists() -> tuple[list[ScriptRule], list[ScriptRule], list[ScriptRule]]:
    supervisor = [
        rule(
            "supervisor:construct",
            ["Open the drawer, activate the stove"],
            subgoals_reply(
                ("node_1", DIAMOND_N1, []),
                ("node_2", DIAMOND_N2, ["node_1"]),
                ("node_3", DIAMOND_N3, ["node_1"]),
                ("node_4", DIAMOND_N4, ["node_2", "node_3"]),
            ),
        ),
        rule(
            "supervisor:evaluate",
            [DIAMOND_N4, "You measure the scale"],
            eval_reply("completed", "The scale has been read."),
        ),
        rule(
            "supervisor:evaluate",
            [DIAMOND_N3, "You focus on the plant"],
            eval_reply("completed", "The plant is in focus."),
        ),
        rule(
            "supervisor:evaluate",
            [DIAMOND_N2, "You activate the stove"],
            eval_reply("completed", "The stove is on."),
        ),
        rule(
            "supervisor:evaluate",
            [DIAMOND_N1, "You open the drawer"],
            eval_reply("completed", "The drawer is open."),
        ),
        rule("supervisor:revise", [], NOOP_REVISION),
    ]
    planner = [
        rule("planner:plan", [DIAMOND_N4], plan_reply("Measure the scale.")),
        rule("planner:plan", [DIAMOND_N3], plan_reply("Focus on the plant.")),
        rule("planner:plan", [DIAMOND_N2], plan_reply("Activate the stove.")),
        rule("planner:plan", [DIAMOND_N1], plan_reply("Open the drawer.")),
    ]
    executor = [
        rule("executor:execute", [DIAMOND_N4], "measure scale"),
        rule("executor:execute", [DIAMOND_N3], "focus plant"),
        rule("executor:execute", [DIAMOND_N2], "activate stove"),
        rule("executor:execute", [DIAMOND_N1], "open drawer"),
    ]
    return supervisor, planner, executor


def diamond_rules() -> dict[str, RecordingBackend]:
    return backends(*_diamond_rule_lists())


def diamond_config(role_backends: dict[str, RecordingBackend]) -> RunConfig:
    return RunConfig(s_max=DIAMOND_S_MAX, role_backends=dict(role_backends))


# The complete expected event stream (projected through `project` above),
# written out by hand before the scenario was first run.  Seq numbers are the
# list indexes.  Round 1 works node_1 and revises; round 2 works node_2 then
# node_3 and exhausts the 3-step budget at exactly s_max, so the run ends
# without a second revision pass and without ever dispatching node_4.
DIAMOND_EXPECTED: list[tuple[Any, ...]] = [
    ("role_call", "supervisor", "construct", "global", True),
    ("graph_constructed", ("node_1", "node_2", "node_3", "node_4")),
    ("node_dispatched", "node_1"),
    ("node_status", "node_1", "in_progress"),
    ("role_call", "planner", "plan", "node_1", True),
    ("role_call", "executor", "execute", "node_1", True),
    (
        "env_step",
        1,
        "open drawer",
        "You open the drawer. Inside you see: key.",
        0.25,
        False,
        "node_1",
    ),
    ("role_call", "supervisor", "evaluate", "node_1", True),
    ("node_status", "node_1", "completed"),
    ("role_call", "supervisor", "revise", "global", True),
    ("revision", "noop"),
    ("node_dispatched", "node_2"),
    ("node_status", "node_2", "in_progress"),
    ("role_call", "planner", "plan", "node_2", True),
    ("role_call", "executor", "execute", "node_2", True),
    ("env_step", 2, "activate stove", "You activate the stove.", 0.25, False, "node_2"),
    ("role_call", "supervisor", "evaluate", "node_2", True),
    ("node_status", "node_2", "completed"),
    ("node_dispatched", "node_3"),
    ("node_status", "node_3", "in_progress"),
    ("role_call", "planner", "plan", "node_3", True),
    ("role_call", "executor", "execute", "node_3", True),
    ("env_step", 3, "focus plant", "You focus on the plant.", 0.25, False, "node_3"),
    ("role_call", "supervisor", "evaluate", "node_3", True),
    ("node_status", "node_3", "completed"),
    ("run_end", "Terminated", "step budget exhausted", False),
]


# ---------------------------------------------------------------------------
# diamond repair scenario: the diamond, but node_3 asks for a microscope the
# lab does not have.  It closes failed; that round's revision removes it and
# adds node_5, the plant focus, as a new dependency of the blocked node_4.
# node_5 completes in the next round, node_4 in the one after, and the run
# ends Completed and delivered: the supervisor's global repair.

DIAMOND_BAD_N3 = "Focus the microscope on the plant."

REPAIR_REVISION = json.dumps(
    {
        "thought": "node_3 failed: the lab has no microscope, but the plant itself can be focused.",
        "description_updates": [],
        "new_nodes": [
            {
                "id": "node_5",
                "description": DIAMOND_N3,
                "dependencies": ["node_1"],
                "dependents": ["node_4"],
            }
        ],
        "remove_nodes": ["node_3"],
    }
)


def diamond_repair_instance() -> TaskInstance:
    return replace(diamond_instance(), id="diamond_repair")


def diamond_repair_rules() -> dict[str, RecordingBackend]:
    supervisor, planner, executor = _diamond_rule_lists()
    supervisor[:0] = [
        rule(
            "supervisor:construct",
            ["Open the drawer, activate the stove"],
            subgoals_reply(
                ("node_1", DIAMOND_N1, []),
                ("node_2", DIAMOND_N2, ["node_1"]),
                ("node_3", DIAMOND_BAD_N3, ["node_1"]),
                ("node_4", DIAMOND_N4, ["node_2", "node_3"]),
            ),
        ),
        rule(
            "supervisor:evaluate",
            [DIAMOND_BAD_N3, "You don't see any microscope here."],
            eval_reply("failed", "The lab has no microscope."),
        ),
        rule("supervisor:revise", ["- node_3 [failed]"], REPAIR_REVISION),
    ]
    planner.insert(0, rule("planner:plan", [DIAMOND_BAD_N3], plan_reply(DIAMOND_BAD_N3)))
    executor.insert(0, rule("executor:execute", [DIAMOND_BAD_N3], "focus microscope"))
    return backends(supervisor, planner, executor)


def diamond_repair_config() -> RunConfig:
    """Room for all five steps: the failed one and one per node after it."""
    return replace(diamond_config(diamond_repair_rules()), s_max=8)


# ---------------------------------------------------------------------------
# planner-prompt scenario: node_2 depends on the completed node_1, and any
# number of unrelated completed nodes sit beside them


def graph_with_target(extra_completed: int = 0) -> TaskGraph:
    graph = TaskGraph()
    done = OutcomeSummary(
        terminal_status=NodeStatus.COMPLETED,
        summary_text="Prerequisite finished.",
        key_observations=("all clear",),
    )
    graph.nodes["node_1"] = SubTaskNode(
        id="node_1", description="Scout the room.", status=NodeStatus.COMPLETED, outcome=done
    )
    graph.nodes["node_2"] = SubTaskNode(
        id="node_2", description="Measure the scale.", dependencies={"node_1"}
    )
    for i in range(extra_completed):
        nid = f"node_x{i}"
        graph.nodes[nid] = SubTaskNode(
            id=nid,
            description=f"Unrelated chore {i} with its own long story.",
            status=NodeStatus.COMPLETED,
            outcome=done,
        )
    return graph


def target_plan_prompt(graph: TaskGraph) -> str:
    """The prompt the planner backend receives when ``execute_node`` works
    node_2 of `graph` on the lab mock.  The run's step budget is spent
    beforehand, so the node stops right after planning and no other role is
    called."""
    planner = recording([rule("planner:plan", [], plan_reply("Measure the scale."))])
    config = RunConfig(role_backends={"planner": planner})
    run = Run("tdp", diamond_instance(), make_environment("textlab"), config)
    run.steps_used = run.config.s_max
    execute_node(graph, "node_2", run)
    ((_tag, prompt),) = planner.calls
    return prompt


# ---------------------------------------------------------------------------
# staged-chain scenario: perfbench's chain with an obstacle at every stage,
# each with a 40-word filler, so every stage forces one replan.  Used to
# compare how replanning prompt size scales with task length under
# node-scoped contexts versus one global plan over full history.


def chain_spec(stages: int) -> chain.ChainSpec:
    return chain.ChainSpec(stages, tuple((i, 40) for i in range(1, stages + 1)))


def chain_instance(stages: int) -> TaskInstance:
    return chain.instance(chain_spec(stages))


def chain_config(stages: int, role_backends: dict[str, RecordingBackend]) -> RunConfig:
    return chain.run_config(chain_spec(stages), role_backends)


def reworded_stage(i: int) -> str:
    """Stage i's description after a revision in :func:`chain.tdp_rules`;
    it keeps the text the stage's rules match on."""
    return f"Handle stage {i} of the queue, now that the earlier stages are clear."


def tdp_chain_rules(stages: int, revise: bool = False) -> dict[str, RecordingBackend]:
    """With ``revise`` the supervisor rewords the next pending node every round
    (:func:`reworded_stage`), so every revision applies; otherwise every
    revision is a noop."""
    return backends(**chain.tdp_rules(chain_spec(stages), revise))


def planact_chain_rules(stages: int) -> dict[str, RecordingBackend]:
    return backends(**chain.planact_rules(chain_spec(stages)))
