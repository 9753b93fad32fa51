"""Valid-document generators and guaranteed-invalid corruptors for the five
structured reply parsers.  The structure tests run small batches; the
acceptance suite runs 500 documents per parser through the same machinery.

Every generator returns (reply_text, expected_value); every corruptor takes
the generator's underlying document and breaks it in a way the parser is
required to reject (enum swaps, missing required fields, broken references).
"""

from __future__ import annotations

import json
import random
from typing import Any, Callable

from tdp.graph import NewNodeSpec, RevisionDelta, SubTaskNode, TaskGraph
from tdp.roles import Evaluation, Plan

from scenarios import plan_reply

_WORDS = (
    "survey", "the", "area", "collect", "figures", "verify", "totals", "draft",
    "summary", "cross", "check", "sources", "archive", "results", "inspect",
)


def _phrase(rng: random.Random, lo: int = 2, hi: int = 6) -> str:
    return " ".join(rng.choice(_WORDS) for _ in range(rng.randint(lo, hi)))


def decorate_json(rng: random.Random, payload: str) -> str:
    """Wrap a JSON document the way chatty replies do: prose and/or fences."""
    text = payload
    if rng.random() < 0.5:
        text = f"```json\n{text}\n```"
    if rng.random() < 0.5:
        text = f"Here is the result you asked for:\n{text}"
    if rng.random() < 0.3:
        text = f"{text}\nLet me know if anything needs adjusting."
    return text


# ---------------------------------------------------------------------------
# subgoals


def gen_subgoals(rng: random.Random) -> tuple[str, tuple[TaskGraph, RevisionDelta]]:
    n = rng.randint(1, 6)
    ids = [f"node_{i + 1}" for i in range(n)]
    entries = []
    specs = []
    expected = TaskGraph()
    for i, sid in enumerate(ids):
        deps = [d for d in ids[:i] if rng.random() < 0.4]
        desc = _phrase(rng)
        entry: dict[str, Any] = {"id": sid, "description": desc}
        if deps or rng.random() < 0.5:
            entry["dependencies"] = deps
        entries.append(entry)
        expected.nodes[sid] = SubTaskNode(id=sid, description=desc, dependencies=set(deps))
        specs.append(NewNodeSpec(id=sid, description=desc, dependencies=tuple(deps)))
    text = decorate_json(rng, json.dumps({"subgoals": entries}))
    return text, (expected, RevisionDelta(new_nodes=tuple(specs)))


def corrupt_subgoals(rng: random.Random) -> str:
    base_text, _ = gen_subgoals(rng)
    doc = json.loads(base_text[base_text.index("{") : base_text.rindex("}") + 1])
    entries = doc["subgoals"]
    mode = rng.choice(["drop_id", "dup_id", "empty_desc", "ghost_dep", "empty_list", "not_list"])
    if mode == "drop_id":
        del entries[rng.randrange(len(entries))]["id"]
    elif mode == "dup_id":
        entries.append(dict(entries[0]))
    elif mode == "empty_desc":
        entries[rng.randrange(len(entries))]["description"] = "   "
    elif mode == "ghost_dep":
        entries[rng.randrange(len(entries))]["dependencies"] = ["node_does_not_exist"]
    elif mode == "empty_list":
        doc["subgoals"] = []
    else:
        doc["subgoals"] = "not a list"
    return json.dumps(doc)


# ---------------------------------------------------------------------------
# plans


def _plan_steps(rng: random.Random) -> tuple[str, ...]:
    return tuple(_phrase(rng, 3, 8) for _ in range(rng.randint(1, 5)))


def gen_plan(rng: random.Random) -> tuple[str, Plan]:
    """A numbered reply; some open with prose, some are fenced."""
    steps = _plan_steps(rng)
    text = plan_reply(*steps)
    if rng.random() < 0.3:
        text = f"Here is the plan:\n{text}"
    if rng.random() < 0.4:
        text = f"```\n{text}\n```"
    return text, Plan(steps=steps)


def corrupt_plan(rng: random.Random) -> str:
    steps = _plan_steps(rng)
    mode = rng.choice(["skip_number", "empty_step", "no_numbered_line"])
    if mode == "no_numbered_line":
        return "First do one thing, then do the other."
    lines = plan_reply(*steps).split("\n")
    if mode == "skip_number":  # the last step jumps the sequence
        lines[-1] = f"{len(steps) + 1}. {steps[-1]}"
    else:
        i = rng.randrange(len(lines))
        lines[i] = f"{i + 1}.   "
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# evaluations


def gen_evaluation(rng: random.Random) -> tuple[str, Evaluation]:
    status = rng.choice(["completed", "failed", "needs_more_steps"])
    need_replan = rng.random() < 0.5
    if status == "needs_more_steps" and not need_replan:
        reason: str | None = _phrase(rng)
    else:
        reason = rng.choice([None, _phrase(rng)])
    doc = {"status": status, "reason": reason, "need_replan": need_replan}
    text = decorate_json(rng, json.dumps(doc))
    return text, Evaluation(status=status, reason=reason, need_replan=need_replan)


def corrupt_evaluation(rng: random.Random) -> str:
    doc: dict[str, Any] = {
        "status": "needs_more_steps",
        "reason": _phrase(rng),
        "need_replan": False,
    }
    mode = rng.choice(
        ["enum_swap", "wrong_type", "drop_status", "drop_need_replan", "stringy_bool", "no_guidance"]
    )
    if mode == "enum_swap":
        doc["status"] = rng.choice(["finished", "done", "in_progress", "COMPLETED"])
    elif mode == "wrong_type":
        doc["status"] = rng.choice([["completed"], {"completed": True}, [], 1])
    elif mode == "drop_status":
        del doc["status"]
    elif mode == "drop_need_replan":
        del doc["need_replan"]
    elif mode == "stringy_bool":
        doc["need_replan"] = "false"
    else:
        doc["reason"] = None  # needs_more_steps without replan demands guidance
    return json.dumps(doc)


# ---------------------------------------------------------------------------
# replan decisions


def gen_replan(rng: random.Random) -> tuple[str, Plan | None]:
    doc: dict[str, Any] = {}
    if rng.random() < 0.5:
        doc["Thought"] = rng.choice([None, _phrase(rng)])
    if rng.random() < 0.5:
        plan_text, plan = gen_plan(rng)
        doc["NewPlan"] = plan_text
        expected: Plan | None = plan
    else:
        doc["NewPlan"] = None  # keeps the plan
        expected = None
    return decorate_json(rng, json.dumps(doc)), expected


def corrupt_replan(rng: random.Random) -> str:
    mode = rng.choice(["drop_plan", "list_plan", "bool_plan", "bad_plan", "blank_plan",
                       "number_thought"])
    if mode == "drop_plan":
        return json.dumps({"Thought": "forgot the plan"})
    if mode == "list_plan":
        return json.dumps({"NewPlan": ["1. a step"]})
    if mode == "bool_plan":
        return json.dumps({"NewPlan": True})
    if mode == "number_thought":
        return json.dumps({"Thought": 5, "NewPlan": None})
    if mode == "blank_plan":
        return json.dumps({"NewPlan": rng.choice(["", "  "])})
    return json.dumps({"NewPlan": "no numbered steps in here"})


# ---------------------------------------------------------------------------
# revisions


def gen_revision(rng: random.Random) -> tuple[str, RevisionDelta]:
    edit = rng.random() < 0.7
    updates = []
    adds = []
    removes: list[str] = []
    if edit:
        for i in range(rng.randint(0, 2)):
            updates.append({"node_id": f"node_{i + 1}", "new_description": _phrase(rng)})
        for i in range(rng.randint(0, 2)):
            adds.append(
                {
                    "id": f"extra_{i}" if rng.random() < 0.5 else None,
                    "description": _phrase(rng),
                    "dependencies": [f"node_{j + 1}" for j in range(rng.randint(0, 2))],
                    "dependents": [],
                }
            )
        removes = [f"node_{rng.randint(1, 9)}" for _ in range(rng.randint(0, 2))]
    doc = {
        "thought": _phrase(rng),
        "description_updates": updates,
        "new_nodes": adds,
        "remove_nodes": removes,
    }
    expected = RevisionDelta(
        thought=doc["thought"],
        description_updates=tuple((u["node_id"], u["new_description"]) for u in updates),
        new_nodes=tuple(
            NewNodeSpec(
                id=a["id"],
                description=a["description"],
                dependencies=tuple(a["dependencies"]),
                dependents=tuple(a["dependents"]),
            )
            for a in adds
        ),
        remove_nodes=tuple(removes),
    )
    return decorate_json(rng, json.dumps(doc)), expected


_EDIT_LISTS = ("description_updates", "new_nodes", "remove_nodes")


def corrupt_revision(rng: random.Random) -> str:
    mode = rng.choice(["drop_list", "null_list", "update_no_target", "int_node_id",
                       "blank_new_id", "stringy_removes"])
    base: dict[str, Any] = {"thought": "edit", **{key: [] for key in _EDIT_LISTS}}
    if mode == "drop_list":
        del base[rng.choice(_EDIT_LISTS)]
    elif mode == "null_list":
        base[rng.choice(_EDIT_LISTS)] = None
    elif mode == "update_no_target":
        base["description_updates"] = [{"new_description": "aimed at nothing"}]
    elif mode == "int_node_id":
        base["description_updates"] = [{"node_id": 7, "new_description": "x"}]
    elif mode == "blank_new_id":
        base["new_nodes"] = [{"id": "  ", "description": "x"}]
    else:
        base["remove_nodes"] = [1, 2, 3]
    return json.dumps(base)


PARSER_CASES: dict[str, tuple[Callable[[random.Random], tuple[str, Any]], Callable[[random.Random], str]]] = {
    "subgoals": (gen_subgoals, corrupt_subgoals),
    "plan": (gen_plan, corrupt_plan),
    "evaluation": (gen_evaluation, corrupt_evaluation),
    "replan": (gen_replan, corrupt_replan),
    "revision": (gen_revision, corrupt_revision),
}
