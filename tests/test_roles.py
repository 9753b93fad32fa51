"""Templates, reply parsing, scripted backends, and the role-call retry loop
(:meth:`tdp.engine.Run.call`)."""

from __future__ import annotations

import json
import random
import re
import urllib.request
from functools import partial
from importlib import resources
from pathlib import Path

import pytest
from conftest import CONFIG_DIR, REPO_ROOT, WIKI_FIXTURES
from parsergen import PARSER_CASES, gen_plan
from scenarios import TRANSPORT_FAULTS, RecordingBackend, Transport, plan_reply
from tdp.engine import Run, RunConfig
from tdp.environments import load_task_instance, make_environment
from tdp.graph import (
    MAX_NODES,
    NewNodeSpec,
    RevisionDelta,
    SubTaskNode,
    TaskGraph,
    apply_revision,
    delta_to_doc,
)
from tdp.roles import (
    FORMAT_REMINDER,
    Completion,
    Evaluation,
    ModelBackend,
    ParseFault,
    Plan,
    PromptTemplate,
    REMOTE_TIMEOUT,
    RemoteChatBackend,
    RenderFault,
    RoleFault,
    ScriptRule,
    ScriptedBackend,
    TEMPLATE_NAMES,
    TEMPLATE_TABLE,
    TokenUsage,
    extract_action,
    extract_json,
    load_template,
    load_templates,
    parse_evaluation,
    parse_plan,
    parse_replan,
    parse_revision,
    parse_subgoals,
    render_plan,
    render_prompt,
)
from tdp.cli import _report_line
from tdp.telemetry import compare_report

PARSERS = {
    "subgoals": parse_subgoals,
    "plan": parse_plan,
    "evaluation": parse_evaluation,
    "replan": parse_replan,
    "revision": parse_revision,
}


# ---------------------------------------------------------------------------
# templates


#: The one binding vocabulary, and the names each packaged template renders.
VOCABULARY = frozenset({
    "task_description", "subgoal", "current_plan", "guidance", "reason",
    "admissible_commands", "command_calls", "prerequisites", "history", "dag_state",
    "failed_nodes", "if_sink",
})
#: A node's prompts never name the whole task, and the evaluator, which judges
#: but does not act, never sees the action list, nor the dependency outcomes
#: (``prerequisites``) that the planner and the executor see; a plan call
#: comes before the node's first action, so it sees no history.  Only the
#: templates that write a command (``execute``, ``react``) see the full command
#: lines; the planner and the supervisor see each command's call syntax.
#: ``if_sink`` and ``failed_nodes`` guard the rules only some calls need.
NODE_VIEW = {"subgoal", "current_plan", "history"}
TEMPLATE_BINDINGS = {
    "construct": {"task_description", "command_calls"},
    "plan": {"subgoal", "command_calls", "prerequisites", "if_sink"},
    "execute": NODE_VIEW | {"guidance", "admissible_commands", "prerequisites"},
    "evaluate": NODE_VIEW,
    "replan": NODE_VIEW | {"reason", "command_calls", "prerequisites"},
    "revise": {"task_description", "dag_state", "command_calls", "failed_nodes"},
    "react": {"task_description", "admissible_commands", "history"},
}


def test_all_builtin_templates_load_and_declare_their_placeholders():
    templates = load_templates()
    assert tuple(templates) == TEMPLATE_NAMES
    for name, template in templates.items():
        assert template.placeholders == TEMPLATE_BINDINGS[name]
        assert template.placeholders <= VOCABULARY
        for placeholder in template.placeholders:
            assert "{" + placeholder + "}" in template.body


def test_readme_names_exactly_the_vocabulary_and_each_template_s_placeholders():
    """README's placeholder table has one row per name of :data:`VOCABULARY`,
    and its which-template-uses-which list one entry per packaged template,
    naming, in backticks, exactly that template's placeholders."""
    readme = (REPO_ROOT / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n## Prompt templates\n", 1)[1].split("\n## ", 1)[0]
    header = "\n| placeholder | value |\n| --- | --- |\n"
    table = section.split(header, 1)[1].split("\n\n", 1)[0]
    rows = [re.match(r"\| `(\w+)` \|", line) for line in table.splitlines()]
    assert None not in rows, table
    assert sorted(row.group(1) for row in rows) == sorted(VOCABULARY)
    listing = section.split("\nWhich template uses which names", 1)[1].split("\n\n", 2)[1]
    entries = re.split(r"\n(?=- )", listing)
    names = [re.match(r"- `(\w+)`: ", entry) for entry in entries]
    assert None not in names, entries
    assert sorted(name.group(1) for name in names) == sorted(TEMPLATE_NAMES)
    for name, entry in zip(names, entries):
        named = re.findall(r"`(\w+)`", entry[name.end():])
        assert sorted(named) == sorted(TEMPLATE_BINDINGS[name.group(1)]), entry


def test_each_template_names_its_role_and_reply_reader_once():
    """One table row per packaged template: a role of the three, whose reader
    the loaded template carries; an executor reader takes only the verbs of
    the command lines its prompt listed."""
    packaged = {
        path.name.removesuffix(".txt")
        for path in (resources.files("tdp") / "templates").iterdir()
        if path.name.endswith(".txt")
    }
    assert set(TEMPLATE_TABLE) == set(TEMPLATE_NAMES) == packaged
    for name, template in load_templates().items():
        assert template.role in {"supervisor", "planner", "executor"}
        assert (template.role, template.read) == TEMPLATE_TABLE[name]
    listed = {"admissible_commands": "Search[entity] - search\nLookup[keyword] - look up"}
    read_execute, read_react = TEMPLATE_TABLE["execute"][1], TEMPLATE_TABLE["react"][1]
    assert read_execute("Search[x]", listed) == "Search[x]"
    assert read_react("Thought: t\nAction: Lookup[x]", listed) == "Lookup[x]"
    for read, reply in ((read_execute, "Finish[x]"), (read_react, "Action: Finish[x]")):
        with pytest.raises(ParseFault, match="must start with one of: Lookup, Search"):
            read(reply, listed)


#: What each packaged template must show of its reply format: every JSON key
#: its parser reads, quoted as in the schema, or the plain-text markers.
PLAN_FORMAT = ("N. <step>",)
TEMPLATE_FORMAT = {
    "construct": ('"subgoals":', '"id":', '"description":', '"dependencies":'),
    "evaluate": ('"status":', '"reason":', '"need_replan":', "completed|failed|needs_more_steps"),
    "execute": (),
    "plan": PLAN_FORMAT,
    "react": ("Thought:", "Action:"),
    "replan": ('"Thought":', '"NewPlan":', *PLAN_FORMAT),
    "revise": ('"thought":', '"description_updates":', '"node_id":',
               '"new_description":', '"new_nodes":', '"id":', '"description":',
               '"dependencies":', '"dependents":', '"remove_nodes":'),
}
#: The most words each packaged template may spend outside its placeholders:
#: each template's own count, so fixed text cannot grow back unnoticed.
FIXED_WORD_CEILING = {
    "construct": 103, "evaluate": 65, "execute": 36, "plan": 53, "react": 39,
    "replan": 49, "revise": 119,
}
#: The words that state each packaged template's decision rules, one entry
#: per rule; a shorter wording must keep every rule.
TEMPLATE_RULES = {
    "construct": (
        "directed acyclic graph of sub-goals",
        "seeing only its description and a limited context",
        "self-contained, concrete and achievable with the available actions",
        "Cover the whole task",
        "a final node for the action that completes it",
        "one coherent goal and may take several actions",
        "no redundant or overlapping nodes",
        "no steps the task does not need",
    ),
    "evaluate": (
        "after its latest action",
        "failed means beyond repair",
        "if needs_more_steps without replan: guidance for the next action",
        "else a brief explanation or null",
        "true ONLY if the plan clearly fails",
        "(repeated failures or contradicting observations)",
        "hits an impassable obstacle",
        "lacks steps now clearly required",
    ),
    "execute": (
        "Act on the first plan step the history shows is not done",
        "First follow this guidance:",
        "only one action, in the exact syntax of the available actions",
    ),
    "plan": (
        "Plan ONLY the current sub-goal",
        "Steps repeat any prerequisite value they need",
        "If the sub-goal is the task's final action, plan just that",
        "naming specific objects, places and parameters, not commands",
        "Keep the plan short",
        "steps numbered from 1",
    ),
    "react": (
        "think briefly",
        "choose exactly one next action",
        "exactly two lines",
        "one action in the exact syntax of the available actions",
    ),
    "replan": (
        "Replan ONLY if the supervisor's reason shows a wrong approach, invalid parameters or "
        "a missing prerequisite",
        "null keeps the plan",
        "the whole new plan, for this sub-goal only",
    ),
    "revise": (
        "Decide whether to change the graph",
        "reword pending or in-progress nodes with concrete values found so far",
        "add the missing nodes",
        "remove nodes now unneeded or impossible",
        "If the pending nodes cannot finish the task, you MUST add the missing nodes",
        "If no pending node is ready (all its dependencies completed), you MUST add a way "
        "around failed",
        "Never duplicate or overlap a node",
        "self-contained and achievable with the available actions",
        "keep a final node for the action that completes the task",
    ),
}

#: The rules that only some calls can act on, each with the placeholder that
#: guards it.  Rule and guard share one template line, holding no other
#: placeholder, so a call that binds the guard to ``None`` never reads the rule:
#: the executor's guidance rule goes with its guidance, the planner's
#: final-action rule reaches only a node nothing depends on, and the
#: supervisor's repair rule comes only once a node has failed.
GUARDED_RULES = {
    "execute": ("guidance", "First follow this guidance:"),
    "plan": ("if_sink", "If the sub-goal is the task's final action, plan just that"),
    "revise": ("failed_nodes", "If no pending node is ready (all its dependencies completed), "
                               "you MUST add a way around failed"),
}


@pytest.mark.parametrize("name", sorted(GUARDED_RULES))
def test_each_guarded_rule_is_left_out_with_its_guard(name):
    template = load_template(name)
    guard, rule = GUARDED_RULES[name]
    assert rule in TEMPLATE_RULES[name]
    (line,) = [line for line in template.body.split("\n") if rule in line]
    assert re.findall(r"\{([a-z_]+)\}", line) == [guard]
    bound = {placeholder: "x" for placeholder in template.placeholders}
    assert rule in render_prompt(template, bound)
    assert rule not in render_prompt(template, {**bound, guard: None})


@pytest.mark.parametrize("name", TEMPLATE_NAMES)
def test_packaged_template_contract(name):
    """Each template keeps its placeholders, shows every key or marker its
    parser reads, and states each of its rules within its word ceiling."""
    template = load_template(name)
    body = template.body
    assert template.placeholders == TEMPLATE_BINDINGS[name]
    missing = [marker for marker in TEMPLATE_FORMAT[name] if marker not in body]
    assert not missing, f"{name} does not show {missing}"
    prose = " ".join(body.split())
    dropped = [rule for rule in TEMPLATE_RULES[name] if rule not in prose]
    assert not dropped, f"{name} no longer states {dropped}"
    fixed_words = len(re.sub(r"\{[a-z_]+\}", " ", body).split())
    assert fixed_words <= FIXED_WORD_CEILING[name]
    if name == "construct":  # the example decomposition is itself a valid reply
        example = extract_json(body)["subgoals"]
        assert all(set(entry) == {"id", "description", "dependencies"} for entry in example)
        graph, _ = parse_subgoals(body)
        assert graph.nodes


def test_unknown_template_name_is_a_key_error():
    with pytest.raises(KeyError, match="unknown template"):
        load_template("daydream")


def test_render_prompt_missing_binding_names_the_placeholder():
    template = load_template("plan")
    with pytest.raises(RenderFault, match="prerequisites"):
        render_prompt(
            template,
            {"subgoal": "n", "command_calls": "c"},
        )


def test_render_prompt_none_single_pass_and_literal_braces():
    template = _template(body="A={alpha} B={beta}")
    assert template.placeholders == {"alpha", "beta"}  # read off the body
    out = render_prompt(template, {"alpha": None, "beta": "{alpha}"})
    # None renders as the string "None"; substitution is single-pass, so a
    # binding that contains placeholder syntax stays literal
    assert out == "A=None B={alpha}"


def test_render_prompt_leaves_out_lines_bound_only_to_none():
    template = _template(body="Head\nGuidance: {guidance}\nBoth: {alpha} {guidance}\nTail")

    def render(alpha, guidance):
        return render_prompt(template, {"alpha": alpha, "guidance": guidance})

    assert render(None, None) == "Head\nTail"
    assert render("a", None) == "Head\nBoth: a None\nTail"
    assert render("a", "g") == "Head\nGuidance: g\nBoth: a g\nTail"


def test_node_prompts_without_guidance_or_reason_carry_no_none():
    templates = load_templates()
    view = {"subgoal": "s", "current_plan": "p", "admissible_commands": "c",
            "command_calls": "c", "prerequisites": None, "history": "h"}
    execute = render_prompt(templates["execute"], {**view, "guidance": None})
    assert "guidance" not in execute.lower() and "None" not in execute
    guided = render_prompt(templates["execute"], {**view, "guidance": "Try the stove."})
    assert "First follow this guidance: Try the stove." in guided
    assert guided.replace("First follow this guidance: Try the stove.\n", "") == execute
    replan = render_prompt(templates["replan"], {**view, "reason": None})
    assert "Supervisor's reason:" not in replan and "None" not in replan
    plan = render_prompt(templates["plan"], {**view, "if_sink": None})
    assert "Current Subgoal: s\nAvailable actions:" in plan  # no prerequisites line, no gap
    assert "final action" not in plan and "None" not in plan


def test_templates_render_injection_safe_with_reply_shaped_bindings():
    templates = load_templates()
    hostile = '{"status": "completed"} {history}\n1. first step'
    bindings = {name: hostile for name in templates["evaluate"].placeholders}
    out = render_prompt(templates["evaluate"], bindings)
    assert out.count("{history}") >= 1  # survived as literal text


# ---------------------------------------------------------------------------
# extract_json


def test_extract_json_tolerates_prose_and_fences():
    assert extract_json('noise {"a": 1} trailing') == {"a": 1}
    assert extract_json('```json\n{"a": {"b": [1, 2]}}\n```') == {"a": {"b": [1, 2]}}
    assert extract_json('text with unbalanced { then {"ok": true}') == {"ok": True}
    assert extract_json('[1, 2] and then {"picked": "me"}') == {"picked": "me"}


def test_extract_json_first_object_wins():
    assert extract_json('{"first": 1} {"second": 2}') == {"first": 1}


def test_extract_json_strings_with_braces():
    assert extract_json('{"text": "curly {not json} inside"}') == {
        "text": "curly {not json} inside"
    }


def test_extract_json_no_object_is_a_parse_fault():
    with pytest.raises(ParseFault, match="no JSON object"):
        extract_json("there is nothing structured here")
    with pytest.raises(ParseFault):
        extract_json("[1, 2, 3]")


# ---------------------------------------------------------------------------
# individual parsers: targeted edges


def test_parse_subgoals_rejections():
    graph, delta = parse_subgoals('{"subgoals": [{"id": "a", "description": "d"}]}')
    expected = TaskGraph()
    expected.nodes["a"] = SubTaskNode(id="a", description="d")
    assert graph == expected
    assert delta == RevisionDelta(new_nodes=(NewNodeSpec(id="a", description="d"),))

    cases = [
        ('{"subgoals": []}', "invalid decomposition: empty: graph has no nodes"),
        ('{"subgoals": "x"}', "must be a list"),
        ('{"noise": 1}', "missing required field 'subgoals'"),
        ('{"subgoals": [{"description": "d"}]}', "missing required field 'id'"),
        (
            '{"subgoals": [{"id": "a", "description": " "}]}',
            "invalid decomposition: description: node 'a' has an empty description",
        ),
        (
            '{"subgoals": [{"id": "a", "description": "d"}, {"id": "a", "description": "e"}]}',
            "invalid decomposition: add: id 'a' already exists",
        ),
        (
            '{"subgoals": [{"id": "a", "description": "d", "dependencies": ["zz"]}]}',
            "invalid decomposition: dangling: node 'a' depends on unknown 'zz'",
        ),
    ]
    for text, frag in cases:
        with pytest.raises(ParseFault, match=re.escape(frag)):
            parse_subgoals(text)


@pytest.mark.parametrize(
    "specs",
    [
        [("a", "d", []), ("b", "e", ["ghost"])],
        [("a", "d", ["b"]), ("b", "e", ["a"]), ("c", "f", ["a"])],
        [("a", "d", []), ("b", "  ", ["a"])],
        [(f"n{i}", "d", []) for i in range(MAX_NODES + 1)],
    ],
    ids=["dangling", "cycle", "empty_description", "over_cap"],
)
def test_a_decomposition_is_refused_for_the_reasons_of_a_revision(specs):
    """A decomposition is a revision of the empty graph: its fault names
    exactly the reasons apply_revision gives for the same nodes."""
    new_nodes = tuple(
        NewNodeSpec(id=nid, description=desc, dependencies=tuple(deps))
        for nid, desc, deps in specs
    )
    delta = RevisionDelta(new_nodes=new_nodes)
    result = apply_revision(TaskGraph(), delta)
    assert result.status == "rejected" and result.reasons
    reply = json.dumps({"subgoals": [
        {"id": nid, "description": desc, "dependencies": deps} for nid, desc, deps in specs]})
    with pytest.raises(ParseFault) as caught:
        parse_subgoals(reply)
    assert str(caught.value) == "invalid decomposition: " + "; ".join(result.reasons)


def test_parse_plan_contiguity_and_steps():
    plan = parse_plan("Here is the plan:\n1. first\n2. second,\n   over two lines")
    assert plan == Plan(steps=("first", "second,\n   over two lines"))
    assert parse_plan("1. weigh out\n1.5 kg\n2. stop") == Plan(steps=("weigh out\n1.5 kg", "stop"))

    with pytest.raises(ParseFault, match=re.escape("no numbered steps ('1. <step>' lines)")):
        parse_plan("just prose")
    with pytest.raises(ParseFault, match="numbered 1..n"):
        parse_plan("1. a\n3. b")
    with pytest.raises(ParseFault, match="numbered 1..n"):
        parse_plan("2. starts at two")
    with pytest.raises(ParseFault, match="plan step 2 has empty step text"):
        parse_plan("1. a\n2.\n3. c")


def test_parse_plan_still_reads_the_block_form():
    """``perfbench/chain.py``'s ``_plan`` still writes ``## Step N`` /
    ``Step:`` blocks, so until it writes numbered lines ``parse_plan`` reads
    that form too, with the same refusals."""
    assert parse_plan("## Step 1\nStep: first\n## Step 2\nStep: second") == Plan(
        steps=("first", "second"))
    with pytest.raises(ParseFault, match="no numbered steps"):
        parse_plan("## Step 1\nReasoning: all talk")
    with pytest.raises(ParseFault, match="numbered 1..n"):
        parse_plan("## Step 1\nStep: a\n## Step 3\nStep: b")
    with pytest.raises(ParseFault, match="empty step text"):
        parse_plan("## Step 1\nStep:   ")


def test_planner_replies_parse_back_to_their_steps():
    """500 seeded plans, shown as their numbered steps, fenced and unfenced,
    each parse back to the same plan."""
    rng = random.Random(30)
    for _ in range(500):
        _, plan = gen_plan(rng)
        shown = render_plan(plan)
        assert parse_plan(shown) == plan, shown
        assert parse_plan(f"```\n{shown}\n```") == plan, shown


def test_a_plan_is_shown_as_its_numbered_steps():
    """The display the executor, evaluator and replanner read: one
    ``N. <step>`` line per step, none of the reply's prose or fences."""
    reply = f"Steps:\n```\n{plan_reply('open the ledger', 'tally the entries')}\n```"
    assert render_plan(parse_plan(reply)) == "1. open the ledger\n2. tally the entries"


def test_parse_evaluation_edges():
    ok = parse_evaluation('{"status": "needs_more_steps", "reason": "go on", "need_replan": false}')
    assert ok == Evaluation(status="needs_more_steps", reason="go on", need_replan=False)

    # replanning needs no guidance text; the replanner gets the reason anyway
    ok = parse_evaluation('{"status": "needs_more_steps", "reason": null, "need_replan": true}')
    assert ok.need_replan and ok.reason is None

    with pytest.raises(ParseFault, match="status must be one of"):
        parse_evaluation('{"status": "finished", "need_replan": false}')
    with pytest.raises(ParseFault, match="'need_replan' must be true or false, got 'no'"):
        parse_evaluation('{"status": "completed", "need_replan": "no"}')
    with pytest.raises(ParseFault, match="requires guidance"):
        parse_evaluation('{"status": "needs_more_steps", "reason": "  ", "need_replan": false}')


def test_parse_replan_edges():
    ok = parse_replan(json.dumps({"Thought": "switch", "NewPlan": "1. new way"}))
    assert ok == Plan(steps=("new way",))

    # null keeps the plan; Thought is optional
    assert parse_replan('{"Thought": null, "NewPlan": null}') is None
    assert parse_replan('{"NewPlan": null}') is None

    with pytest.raises(ParseFault, match="missing required field 'NewPlan'"):
        parse_replan('{"Thought": "forgot the plan"}')
    with pytest.raises(ParseFault, match="missing required field 'NewPlan'"):
        parse_replan("{}")
    with pytest.raises(ParseFault, match="'NewPlan' must be a string or null"):
        parse_replan('{"NewPlan": ["1. a step"]}')
    # a string NewPlan must parse as a plan, so a blank one is refused, not kept
    for unparsed in ('{"NewPlan": "not a plan"}', '{"NewPlan": ""}', '{"NewPlan": "  "}'):
        with pytest.raises(ParseFault, match="no numbered steps"):
            parse_replan(unparsed)


def test_a_replan_reply_decides_by_its_new_plan_alone():
    """A ``RePlan`` flag, which replies once carried beside ``NewPlan``, is an
    unknown key: the plan is kept when ``NewPlan`` is null, whatever it says."""
    assert parse_replan('{"RePlan": true, "NewPlan": null}') is None
    assert parse_replan('{"RePlan": false, "NewPlan": "1. go"}') == Plan(steps=("go",))


def test_parse_revision_edges():
    delta = parse_revision(
        json.dumps(
            {
                "thought": "tighten",
                "description_updates": [{"node_id": "a", "new_description": "sharper"}],
                "new_nodes": [{"id": None, "description": "extra", "dependencies": ["a"]}],
                "remove_nodes": ["b"],
            }
        )
    )
    assert delta.edits
    assert delta.description_updates == (("a", "sharper"),)
    assert delta.new_nodes[0].id is None and delta.new_nodes[0].dependencies == ("a",)
    assert delta.remove_nodes == ("b",)

    # empty lists are no change; thought is optional
    bare = parse_revision('{"description_updates": [], "new_nodes": [], "remove_nodes": []}')
    assert bare == RevisionDelta() and not bare.edits

    lists = {"description_updates": [], "new_nodes": [], "remove_nodes": []}
    with pytest.raises(ParseFault, match="missing required field 'description_updates'"):
        parse_revision("{}")
    for field in lists:
        others = {key: value for key, value in lists.items() if key != field}
        with pytest.raises(ParseFault, match=f"missing required field '{field}'"):
            parse_revision(json.dumps(others))
        # a list field holding anything but a list, null too
        for value in (None, True, 0, {}, {"id": "x"}, "node_1"):
            with pytest.raises(ParseFault, match=f"'{field}' must be a list"):
                parse_revision(json.dumps({**lists, field: value}))

    with pytest.raises(ParseFault, match="missing required field 'node_id'"):
        parse_revision(json.dumps({**lists, "description_updates": [{"new_description": "x"}]}))
    with pytest.raises(ParseFault, match="nonempty string when present"):
        parse_revision(json.dumps({**lists, "new_nodes": [{"id": " ", "description": "d"}]}))
    with pytest.raises(ParseFault, match="list of strings"):
        parse_revision(json.dumps({**lists, "remove_nodes": [3]}))


def test_a_revision_reply_decides_by_its_edits_alone():
    """A ``need_update`` flag, which replies once carried beside the edit
    lists, is an unknown key: a reply without edits changes nothing, and one
    with edits is applied, whatever the flag says."""
    graph = TaskGraph(nodes={nid: SubTaskNode(id=nid, description=nid) for nid in "ab"})
    graph.nodes["b"].dependencies = {"a"}
    lists = {"description_updates": [], "new_nodes": [], "remove_nodes": []}
    empty = parse_revision(json.dumps({"need_update": True, **lists}))
    assert apply_revision(graph, empty).status == "noop"
    removal = parse_revision(json.dumps({"need_update": False, **lists, "remove_nodes": ["a"]}))
    result = apply_revision(graph, removal)
    assert result.status == "applied" and set(result.graph.nodes) == {"b"}


_LISTS = '"description_updates": [], "new_nodes": [], "remove_nodes": []'


@pytest.mark.parametrize("parser, reply", [
    (parse_subgoals, '{"subgoals": [5]}'),
    (parse_revision, '{"description_updates": [], "new_nodes": ["node_9"], "remove_nodes": []}'),
    (parse_subgoals, '{"subgoals": [{"id": "a", "description": 5}]}'),
    (parse_revision,
     '{"description_updates": [], "new_nodes": [{"description": null}], "remove_nodes": []}'),
    (parse_evaluation, '{"status": "completed", "need_replan": false, "reason": 5}'),
    (parse_evaluation, '{"status": "completed", "need_replan": false, "reason": ["done"]}'),
    (parse_replan, '{"Thought": 5, "NewPlan": null}'),
    (parse_replan, '{"Thought": {"why": "x"}, "NewPlan": null}'),
    (parse_revision, '{"thought": 5, ' + _LISTS + '}'),
    (parse_revision, '{"thought": null, ' + _LISTS + '}'),
    (parse_revision, '{"description_updates": [5], "new_nodes": [], "remove_nodes": []}'),
    (parse_revision,
     '{"description_updates": [["a", "x"]], "new_nodes": [], "remove_nodes": []}'),
    (parse_replan, '{"description_updates": [], "new_nodes": [], "remove_nodes": []}'),
    (parse_revision, '{"Thought": "switch", "NewPlan": "1. new way"}'),
], ids=[
    "subgoal entry not an object", "new node not an object",
    "subgoal description not a string", "new node description null",
    "evaluation reason a number", "evaluation reason a list",
    "Thought a number", "Thought an object",
    "revision thought a number", "revision thought null",
    "description update a number", "description update a list",
    "revision reply to replan", "replan reply to revise",
])
def test_a_mistyped_reply_field_no_corruptor_reaches_is_a_parse_fault(parser, reply):
    """Shape rejections the generated corruptions never produce, and a reply
    meant for the other of the two roles."""
    with pytest.raises(ParseFault):
        parser(reply)


VERBS = frozenset({"Search", "Finish", "look"})


def test_extract_action_trimming():
    assert extract_action("  Search[Peoria]  ", VERBS) == "Search[Peoria]"
    assert extract_action('"Search[Peoria]"', VERBS) == "Search[Peoria]"
    assert extract_action("`look around`", VERBS) == "look around"
    assert extract_action("```\nFinish[42]\n```", VERBS) == "Finish[42]"
    # mismatched wrappers stay put, so no verb leads the action
    with pytest.raises(ParseFault, match="must start with one of: Finish, Search, look"):
        extract_action("\"look around'", VERBS)
    with pytest.raises(ParseFault, match="no action"):
        extract_action("   ", VERBS)
    with pytest.raises(ParseFault):
        extract_action('""', VERBS)


@pytest.mark.parametrize("reply", [
    json.dumps({"status": "completed", "reason": "done", "need_replan": False}),
    "Search[Peoria]\nFinish[42]",
    "search[Peoria]",
    "Searching[Peoria]",
    "[Peoria]",
])
def test_extract_action_takes_only_one_command_of_the_environment(reply):
    """A reply meant for another role, two actions, or a verb the environment
    does not list is a parse fault, whatever follows the verb."""
    with pytest.raises(ParseFault):
        extract_action(reply, VERBS)


# ---------------------------------------------------------------------------
# generator-driven round trips (small batches; acceptance runs 500 per parser)


@pytest.mark.parametrize("kind", sorted(PARSER_CASES))
def test_parser_round_trips_and_rejects_corruption(kind):
    gen, corrupt = PARSER_CASES[kind]
    parser = PARSERS[kind]
    rng = random.Random(50_000 + len(kind))  # fixed, so a failing draw reruns
    for _ in range(60):
        text, expected = gen(rng)
        assert parser(text) == expected
    for _ in range(60):
        with pytest.raises(ParseFault):
            parser(corrupt(rng))


def test_revision_delta_doc_reads_back_to_an_equal_delta():
    gen, _ = PARSER_CASES["revision"]
    rng = random.Random(7)
    deltas = [gen(rng)[1] for _ in range(60)]
    deltas.append(
        RevisionDelta(
            thought="wire a check in",
            new_nodes=(NewNodeSpec(id=None, description="check", dependencies=("a",),
                                   dependents=("b",)),),
        )
    )
    for delta in deltas:
        assert parse_revision(json.dumps(delta_to_doc(delta))) == delta


# ---------------------------------------------------------------------------
# shipped scripts


def _shipped_scripts() -> dict[str, str]:
    """Each script file the shipped scripted configs name, by its path under
    ``configs/``, with the environment of the config that names it."""
    scripts = {}
    for path in sorted(CONFIG_DIR.glob("scripted_*.json")):
        config = json.loads(path.read_text(encoding="utf-8"))
        for backend in config["backends"].values():
            scripts[backend["rules"]] = config["environment"]
    return scripts


@pytest.mark.parametrize("script, environment", sorted(_shipped_scripts().items()))
def test_every_shipped_reply_parses_under_its_templates_reader(script, environment):
    """Each reply of a shipped script is read by the reader of the template
    its rule's role tag names, with the command lines of its config's
    environment, so a protocol change that leaves a shipped reply unreadable
    fails here even where no golden case reaches that reply."""
    bindings = {"admissible_commands": "\n".join(make_environment(environment)
                                                 .admissible_commands())}
    rules = ScriptedBackend.from_file(CONFIG_DIR / script).rules
    assert rules
    for index, rule in enumerate(rules):
        role, template = rule.role.split(":")
        assert TEMPLATE_TABLE[template][0] == role, (script, index)
        for reply in rule.responses:
            try:
                TEMPLATE_TABLE[template][1](reply, bindings)
            except ParseFault as fault:
                pytest.fail(f"{script} rule [{index}] ({rule.role}): {fault}: {reply[:80]!r}")


# ---------------------------------------------------------------------------
# scripted backend


def test_scripted_backend_first_match_and_filters():
    backend = ScriptedBackend(
        [
            ScriptRule(match=("alpha", "beta"), responses=("both",), role="executor:execute"),
            ScriptRule(match=("alpha",), responses=("just alpha",), role="executor:execute"),
            ScriptRule(match=("gamma",), responses=("for planner",), role="planner:plan"),
            ScriptRule(match=(), responses=("fallback",), role="executor:execute"),
        ]
    )
    execute = partial(backend.complete, "executor:execute")
    assert execute("beta then alpha").text == "both"  # conjunctive
    assert execute("alpha only").text == "just alpha"
    assert backend.complete("planner:plan", "has gamma").text == "for planner"
    assert execute("has gamma").text == "fallback"  # role filter
    assert execute("nothing matches").text == "fallback"
    with pytest.raises(LookupError):  # a rule answers its own role tag only
        backend.complete("planner:plan", "alpha beta")


def test_scripted_backend_is_referentially_transparent():
    backend = RecordingBackend(
        ScriptedBackend([ScriptRule(match=("q",), responses=("a",), role="r")]))
    first = backend.complete("r", "q 1")
    second = backend.complete("r", "q 1")
    assert first.text == second.text and first.usage == second.usage
    assert backend.calls == [("r", "q 1"), ("r", "q 1")]


def test_scripted_backend_keeps_no_state_per_call():
    backend = ScriptedBackend(
        [
            ScriptRule(match=("q",), responses=("first", "second"), role="r"),
            ScriptRule(match=(), responses=("fallback",), role="r"),
        ]
    )
    before = repr(vars(backend))  # repr, so growth inside a held list shows too
    for i in range(200):
        backend.complete("r", f"q {i}" + f"\n{FORMAT_REMINDER}" * (i % 2))
        backend.complete("r", f"miss {i}")
    assert repr(vars(backend)) == before


def test_scripted_backend_retry_indexing_clamps():
    backend = ScriptedBackend(
        [ScriptRule(match=("q",), responses=("first", "second", "third"), role="r")]
    )
    assert backend.complete("r", "q").text == "first"
    assert backend.complete("r", f"q\n{FORMAT_REMINDER}").text == "second"
    two = f"q\n{FORMAT_REMINDER}\n{FORMAT_REMINDER}"
    assert backend.complete("r", two).text == "third"
    five = "q" + f"\n{FORMAT_REMINDER}" * 5
    assert backend.complete("r", five).text == "third"  # clamped to the last


def test_scripted_backend_unmatched_raises_lookup_error():
    backend = ScriptedBackend([ScriptRule(match=("never",), responses=("x",), role="tag")])
    with pytest.raises(LookupError, match="no scripted rule matches role 'tag'"):
        backend.complete("tag", "prompt without the needle")


def _script_file(tmp_path, rules) -> Path:
    path = tmp_path / "rules.json"
    path.write_text(json.dumps(rules))
    return path


def test_scripted_backend_from_file(tmp_path):
    path = _script_file(tmp_path, [
        {"match": ["single"], "responses": ["one reply"], "role": "x:y"},
        {"match": ["a", "b"], "responses": ["r1", "r2"], "role": "x:y"},
    ])
    backend = ScriptedBackend.from_file(path)
    assert backend.complete("x:y", "single here").text == "one reply"
    assert backend.rules[1] == ScriptRule(match=("a", "b"), responses=("r1", "r2"), role="x:y")

    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"not": "a list"}))
    with pytest.raises(ValueError, match=r"bad\.json must be a list, got \{'not': 'a list'\}"):
        ScriptedBackend.from_file(bad)


_FINE_RULE = {"match": ["x"], "responses": ["y"], "role": "x:y"}


@pytest.mark.parametrize(
    "rule, message",
    [
        ({"match": ["x"], "role": "x:y"},
         r"script rule \[1\]: missing required field 'responses'"),
        ({**_FINE_RULE, "responses": []}, r"script rule \[1\] needs at least one response"),
        ("just a string", r"script rule \[1\] must be an object"),
        ({**_FINE_RULE, "regex": True}, r"script rule \[1\] has unknown key\(s\) \['regex'\]"),
        ({"mach": ["x"], "responses": ["y"], "role": "x:y"},
         r"script rule \[1\] has unknown key\(s\) \['mach'\]"),
        ({**_FINE_RULE, "responses": 3},
         r"script rule \[1\]: 'responses' must be a list of strings, got 3"),
        ({**_FINE_RULE, "match": ["a", 1]},
         r"script rule \[1\]: 'match' must be a list of strings"),
        ({**_FINE_RULE, "role": 7}, r"script rule \[1\]: 'role' must be a string, got 7"),
        # a bare string for a list, and a missing match or role
        ({**_FINE_RULE, "match": "x"},
         r"script rule \[1\]: 'match' must be a list of strings, got 'x'"),
        ({**_FINE_RULE, "responses": "y"},
         r"script rule \[1\]: 'responses' must be a list of strings, got 'y'"),
        ({"responses": ["y"], "role": "x:y"},
         r"script rule \[1\]: missing required field 'match'"),
        ({"match": ["x"], "responses": ["y"]},
         r"script rule \[1\]: missing required field 'role'"),
    ],
)
def test_malformed_script_rule_is_a_value_error_naming_it(tmp_path, rule, message):
    with pytest.raises(ValueError, match=r"rules\.json: " + message):
        ScriptedBackend.from_file(_script_file(tmp_path, [_FINE_RULE, rule]))


# ---------------------------------------------------------------------------
# the role-call loop: Run.call renders, completes with parse retries, records


def _template(body="Q: {question}"):
    """A ``probe`` template the supervisor answers with a JSON object."""
    return PromptTemplate(
        name="probe", body=body, role="supervisor", read=lambda text, _: extract_json(text)
    )


def _probe_rule(*responses: str, match: tuple[str, ...] = ()) -> ScriptRule:
    """A rule answering the ``probe`` template's calls."""
    return ScriptRule(match=match, responses=responses, role="supervisor:probe")


def _probe_run(backend, retry_budget=2) -> Run:
    """A run with `backend` as its supervisor and a ``probe`` template, "Q: {question}"."""
    instance = load_task_instance(WIKI_FIXTURES[0])
    config = RunConfig(parser_retry_budget=retry_budget, role_backends={"supervisor": backend})
    run = Run("tdp", instance, make_environment(instance.environment), config, run_id="r")
    run.templates["probe"] = _template()
    return run


def _probe(run, question="ping"):
    return run.call("probe", {"question": question})


def _role_call(run) -> dict:
    (event,) = [e.payload for e in run.sink.events_for("r") if e.kind == "role_call"]
    return event


def _role_tokens(run) -> dict:
    """The per-role token sums of the record the run finishes with."""
    return run.finish("Completed", "probe done").role_tokens


def test_call_binds_the_runs_command_lines_the_caller_leaves_out():
    """Both renderings of the run's commands: the full lines as
    ``admissible_commands`` and each line's call syntax as ``command_calls``."""
    backend = RecordingBackend(ScriptedBackend([_probe_rule('{"a": 1}')]))
    run = _probe_run(backend)
    run.templates["probe"] = _template(
        body="Q: {question}\nActions:\n{admissible_commands}\nCalls:\n{command_calls}")
    assert _probe(run) == {"a": 1}
    ((_tag, prompt),) = backend.calls
    assert run.commands == "\n".join(run.env.admissible_commands())
    assert run.command_calls == "Search[keyword]\nLookup[keyword]\nFinish[answer]"
    assert prompt == f"Q: ping\nActions:\n{run.commands}\nCalls:\n{run.command_calls}"


def test_call_role_success_reports_usage_and_attempts():
    run = _probe_run(ScriptedBackend([_probe_rule('{"a": 1}')]))
    assert _probe(run) == {"a": 1}
    event = _role_call(run)
    assert event["attempts"] == 1 and event["ok"] is True
    assert (event["prompt_tokens"], event["output_tokens"]) == (2, 2)  # whitespace tokens
    assert _role_tokens(run) == {
        "supervisor": {"prompt_tokens": 2, "output_tokens": 2}}


def test_call_role_retries_with_cumulative_reminders():
    backend = RecordingBackend(ScriptedBackend(
        [_probe_rule("not json", "still not", '{"ok": true}')]))
    run = _probe_run(backend, retry_budget=2)
    assert _probe(run) == {"ok": True}
    event = _role_call(run)
    assert event["attempts"] == 3
    prompts = [prompt for _, prompt in backend.calls]
    assert prompts[0].count(FORMAT_REMINDER) == 0
    assert prompts[1].count(FORMAT_REMINDER) == 1
    assert prompts[2].count(FORMAT_REMINDER) == 2
    assert prompts[2].startswith(prompts[1])  # reminders accumulate on one prompt
    assert event["prompt_chars"] == len(prompts[0])  # the render, without reminders
    # usage sums across all three attempts
    per_attempt = [
        TokenUsage(len(p.split()), len(r.split()))
        for p, r in zip(prompts, ["not json", "still not", '{"ok": true}'])
    ]
    total = TokenUsage()
    for u in per_attempt:
        total = total + u
    assert (event["prompt_tokens"], event["output_tokens"]) == (
        total.prompt_tokens, total.output_tokens)
    assert _role_tokens(run)["supervisor"] == {
        "prompt_tokens": total.prompt_tokens, "output_tokens": total.output_tokens}


def test_call_role_exhaustion_carries_usage_and_raw_text():
    run = _probe_run(ScriptedBackend([_probe_rule("garbage")]),
                     retry_budget=1)
    with pytest.raises(RoleFault) as info:
        _probe(run, "p")
    fault = info.value
    assert fault.raw_text == "garbage"
    assert "failed after 2 attempt(s)" in str(fault)
    event = _role_call(run)  # the faulted call is recorded too
    assert event["ok"] is False and event["attempts"] == 2
    assert event["output_tokens"] == 2  # one token per attempt
    assert _role_tokens(run)["supervisor"]["output_tokens"] == 2


def test_call_role_zero_budget_means_one_attempt():
    run = _probe_run(ScriptedBackend([_probe_rule("junk")]),
                     retry_budget=0)
    with pytest.raises(RoleFault):
        _probe(run, "p")
    assert _role_call(run)["attempts"] == 1


def test_call_role_lets_backend_errors_propagate():
    # only parse faults are retried; a backend with no matching rule is a bug
    run = _probe_run(ScriptedBackend([_probe_rule("x", match=("absent",))]),
                     retry_budget=3)
    with pytest.raises(LookupError):
        _probe(run, "p")
    event = _role_call(run)  # recorded before it propagates
    assert event["ok"] is False and event["attempts"] == 1
    assert event["error"].startswith("LookupError: ")


class _FailsOnRetry(ModelBackend):
    """Replies unparseably once, then raises on the retry."""

    def complete(self, role_tag: str, prompt: str) -> Completion:
        if FORMAT_REMINDER in prompt:
            raise ConnectionError("backend went away")
        return Completion("not json", TokenUsage(prompt_tokens=5, output_tokens=2))


def test_call_role_backend_error_on_a_retry_records_the_usage_so_far():
    run = _probe_run(_FailsOnRetry(), retry_budget=2)
    with pytest.raises(ConnectionError):
        _probe(run, "p")
    event = _role_call(run)
    assert event["ok"] is False and event["attempts"] == 2
    assert event["error"] == "ConnectionError: backend went away"
    assert (event["prompt_tokens"], event["output_tokens"]) == (5, 2)
    # the failed attempt's usage is not known, so neither is the role's sum
    assert _role_tokens(run)["supervisor"] == {
        "prompt_tokens": None, "output_tokens": None}


def test_call_role_uses_role_tag_for_backend_dispatch():
    run = _probe_run(ScriptedBackend([
        ScriptRule(match=(), responses=('{"seen": false}',), role="planner:probe"),
        _probe_rule('{"seen": true}'),
    ]))
    assert _probe(run, "p") == {"seen": True}


# ---------------------------------------------------------------------------
# remote backend credential policy


@pytest.mark.parametrize("key, endpoint, refusal", [
    (None, "https://example.invalid/v1", "environment variable 'PROBE_KEY' is not set"),
    ("sk-test-123", "file:///etc/passwd", "endpoint 'file:///etc/passwd' is not http(s)"),
    ("sk-test-123", "example.invalid/v1", "endpoint 'example.invalid/v1' is not http(s)"),
], ids=["no-credential", "file-endpoint", "no-scheme"])
def test_remote_backend_refuses_without_credential_or_http_endpoint(monkeypatch, key, endpoint, refusal):
    if key is None:
        monkeypatch.delenv("PROBE_KEY", raising=False)
    else:
        monkeypatch.setenv("PROBE_KEY", key)
    with pytest.raises(RuntimeError) as refused:
        RemoteChatBackend(endpoint=endpoint, model="m", credential_env="PROBE_KEY")
    assert str(refused.value) == f"remote backend refused: {refusal}"


def test_remote_backend_reads_key_from_environment_only(monkeypatch):
    monkeypatch.setenv("PROBE_KEY", "sk-test-123")
    backend = RemoteChatBackend(
        endpoint="https://example.invalid/v1", model="m", credential_env="PROBE_KEY"
    )
    assert backend.endpoint == "https://example.invalid/v1"  # construction succeeds, no call made


def test_token_usage_addition():
    total = TokenUsage(prompt_tokens=3, output_tokens=4) + TokenUsage(5, 6)
    assert total == TokenUsage(prompt_tokens=8, output_tokens=10)
    # a count the backend did not report stays unknown through a sum
    assert total + TokenUsage(None, 1) == TokenUsage(prompt_tokens=None, output_tokens=11)


def _remote_run(monkeypatch, *usages, content='{"a": 1}'):
    """A probe run on a remote backend whose transport answers `content`
    with each of `usages` in turn (``None``: no usage field)."""
    doc = {"choices": [{"message": {"content": content}}]}
    return _remote_run_replying(
        monkeypatch, *(doc if usage is None else {**doc, "usage": usage} for usage in usages))


def _remote_run_replying(monkeypatch, *replies):
    """A probe run on a remote backend whose transport answers each of
    `replies` in turn (see :class:`~scenarios.Transport`)."""
    monkeypatch.setenv("PROBE_KEY", "sk-test-123")
    monkeypatch.setattr(urllib.request, "urlopen", Transport(replies))
    return _probe_run(RemoteChatBackend(
        endpoint="https://example.invalid/v1", model="m", credential_env="PROBE_KEY"))


def test_remote_backend_posts_one_chat_completion_request(monkeypatch):
    """The request: a JSON POST to the endpoint carrying the key, the model,
    the prompt as one user message and the temperature, with the fixed timeout."""
    monkeypatch.setenv("PROBE_KEY", "sk-test-123")
    transport = Transport([{"choices": [{"message": {"content": '{"a": 1}'}}]}])
    monkeypatch.setattr(urllib.request, "urlopen", transport)
    backend = RemoteChatBackend(endpoint="https://example.invalid/v1/chat/completions",
                                model="m-1", credential_env="PROBE_KEY", temperature=0.3)
    assert backend.complete("planner:plan", "Q: ping").text == '{"a": 1}'
    ((request, timeout),) = transport.sent
    assert request.full_url == "https://example.invalid/v1/chat/completions"
    assert request.get_method() == "POST" and timeout == REMOTE_TIMEOUT
    assert dict(request.header_items()) == {
        "Authorization": "Bearer sk-test-123", "Content-type": "application/json"}
    assert json.loads(request.data.decode("utf-8")) == {
        "model": "m-1", "messages": [{"role": "user", "content": "Q: ping"}],
        "temperature": 0.3}
    # a redirect, to any host, does not carry the key
    redirected = urllib.request.HTTPRedirectHandler().redirect_request(
        request, None, 302, "Found", {}, "https://other.invalid/")
    assert redirected.full_url == "https://other.invalid/"
    assert "Authorization" not in dict(redirected.header_items())


def test_remote_reply_without_usage_is_unknown_not_free(monkeypatch):
    """A response with no usage must not read as a call that cost nothing:
    its role_call says null, and the run's tokens and table cells are unknown."""
    run = _remote_run(monkeypatch, {"prompt_tokens": 9, "completion_tokens": 3}, None)
    assert _probe(run) == _probe(run) == {"a": 1}
    events = [e.payload for e in run.sink.events_for("r") if e.kind == "role_call"]
    assert [(e["prompt_tokens"], e["output_tokens"]) for e in events] == [(9, 3), (None, None)]
    assert json.loads(json.dumps(events[1]))["prompt_tokens"] is None  # null in the trace
    record = run.finish("Completed", "task done")
    assert record.role_tokens == {"supervisor": {"prompt_tokens": None, "output_tokens": None}}
    assert (record.avg_prompt_tokens, record.avg_output_tokens) == (None, None)
    assert "prompt_tokens=- output_tokens=-" in _report_line(record)
    table = compare_report({"tdp": [record]}, reference="tdp").format_table()
    assert table.splitlines()[2].split()[7:10] == ["-", "-", "-"]


@pytest.mark.parametrize("content", [None, [{"type": "text", "text": '{"a": 1}'}]])
def test_remote_reply_whose_content_is_not_a_string_is_a_recorded_backend_error(
    monkeypatch, content
):
    """A reply with no text reaches no parser: the backend refuses it naming
    the content, the call is recorded as failed, and the run's tokens read
    unknown, since the refused reply's usage is not counted."""
    run = _remote_run(monkeypatch, {"prompt_tokens": 9, "completion_tokens": 3}, content=content)
    message = f"reply: 'content' must be a string, got {content!r}"
    with pytest.raises(TypeError, match=re.escape(message)):
        _probe(run)
    event = _role_call(run)
    assert event["ok"] is False and event["attempts"] == 1
    assert event["error"] == f"TypeError: {message}"
    record = run.finish("Terminated", "error")
    assert (record.avg_prompt_tokens, record.avg_output_tokens) == (None, None)


_REPLY = {"choices": [{"message": {"content": '{"a": 1}'}}]}


@pytest.mark.parametrize("reply, error", [
    ({"choices": []}, "TypeError: reply: 'choices' must be a nonempty list, got []"),
    ({"error": {"message": "overloaded"}}, "TypeError: reply: missing required field 'choices'"),
    ({"choices": [{"text": "{}"}]},
     "TypeError: reply choice [0]: missing required field 'message'"),
    ({**_REPLY, "usage": {"prompt_tokens": "12"}},
     "TypeError: reply usage: 'prompt_tokens' must be an integer or null, got '12'"),
    ({**_REPLY, "usage": {"prompt_tokens": 9, "completion_tokens": True}},
     "TypeError: reply usage: 'completion_tokens' must be an integer or null, got True"),
    ({**_REPLY, "usage": {"prompt_tokens": 12.9}},
     "TypeError: reply usage: 'prompt_tokens' must be an integer or null, got 12.9"),
    *TRANSPORT_FAULTS.values(),
])
def test_a_failed_or_malformed_remote_reply_is_a_recorded_backend_error(
    monkeypatch, reply, error
):
    """A reply body without a first choice, or with usage counts that are not
    integers, is refused as a whole and recorded like any backend error; so
    is a failed request (a non-2xx status, no connection, a timeout) and a
    body that is not JSON."""
    run = _remote_run_replying(monkeypatch, reply)
    with pytest.raises(Exception) as raised:
        _probe(run)
    assert f"{type(raised.value).__name__}: {raised.value}" == error
    event = _role_call(run)
    assert event["ok"] is False and event["error"] == error


def test_remote_usage_missing_one_count_leaves_only_that_count_unknown(monkeypatch):
    run = _remote_run(monkeypatch, {"prompt_tokens": 9})
    _probe(run)
    event = _role_call(run)
    assert (event["prompt_tokens"], event["output_tokens"]) == (9, None)
    record = run.finish("Completed", "task done")
    assert (record.avg_prompt_tokens, record.avg_output_tokens) == (9.0, None)
