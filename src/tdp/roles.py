"""Role plumbing: prompt templates, structured-output parsers, and model backends.

Each prompt template names, once, in :data:`TEMPLATE_TABLE`, its agent role
(supervisor, planner, executor) and the reader of the reply.  All parsing is
strict — silent coercion of a malformed reply into a default would hide model
drift, so every defect is a bare :class:`ParseFault`.  :meth:`Run.call
<tdp.engine.Run.call>` retries it and, once the retries run out, raises a
:class:`RoleFault` that names the role and keeps the last reply.  The parsers
check shape only, reading every JSON field through :func:`tdp.fields.read_field`
as script rules are read.  A decomposition and a revision read their node
entries with one reader, and both reach the graph through
:func:`~tdp.graph.apply_revision`, so every structural rule is checked once, by
:func:`~tdp.graph.validate_graph`.
"""

from __future__ import annotations

import json
import os
import re
from dataclasses import dataclass, field
from functools import cache, partial
from importlib import resources
from pathlib import Path
from typing import AbstractSet, Any, Callable, Mapping, Sequence

from .environments.base import command_verb
from .fields import check_value, load_json, read_field
from .graph import NewNodeSpec, RevisionDelta, TaskGraph, apply_revision
from .telemetry import TokenUsage

__all__ = [
    "ParseFault",
    "RenderFault",
    "RoleFault",
    "TokenUsage",
    "Completion",
    "PromptTemplate",
    "TEMPLATE_TABLE",
    "TEMPLATE_NAMES",
    "load_template",
    "load_templates",
    "render_prompt",
    "extract_json",
    "parse_subgoals",
    "Plan",
    "parse_plan",
    "render_plan",
    "Evaluation",
    "parse_evaluation",
    "parse_replan",
    "parse_revision",
    "extract_action",
    "parse_react",
    "ModelBackend",
    "ScriptedBackend",
    "ScriptRule",
    "RemoteChatBackend",
    "REMOTE_TIMEOUT",
    "FORMAT_REMINDER",
]


class ParseFault(ValueError):
    """A model reply that does not satisfy the expected output contract."""


class RenderFault(ValueError):
    """A template rendered without a required placeholder binding."""


class RoleFault(RuntimeError):
    """A role call whose retry budget ran out; carries the last raw reply."""

    def __init__(self, message: str, raw_text: str):
        super().__init__(message)
        self.raw_text = raw_text


@dataclass(frozen=True)
class Completion:
    """One raw model reply plus its token accounting."""

    text: str
    usage: TokenUsage


# ---------------------------------------------------------------------------
# templates

#: ``read(text, bindings)``: the parsed reply to a prompt rendered from `bindings`.
Reader = Callable[[str, Mapping[str, Any]], Any]


def _listed_verbs(bindings: Mapping[str, Any]) -> frozenset[str]:
    """The verbs of the command lines the prompt listed: an action's only verbs."""
    return frozenset(map(command_verb, bindings["admissible_commands"].splitlines()))


#: Each packaged template's role and reply reader; an executor reader takes
#: only the verbs of the command lines its prompt listed.
TEMPLATE_TABLE: dict[str, tuple[str, Reader]] = {
    "construct": ("supervisor", lambda text, _: parse_subgoals(text)),
    "evaluate": ("supervisor", lambda text, _: parse_evaluation(text)),
    "execute": ("executor", lambda text, b: extract_action(text, _listed_verbs(b))),
    "plan": ("planner", lambda text, _: parse_plan(text)),
    "react": ("executor", lambda text, b: parse_react(text, _listed_verbs(b))),
    "replan": ("planner", lambda text, _: parse_replan(text)),
    "revise": ("supervisor", lambda text, _: parse_revision(text)),
}
#: The packaged role prompt templates.
TEMPLATE_NAMES = tuple(TEMPLATE_TABLE)

_PLACEHOLDER_RE = re.compile(r"\{([a-z_]+)\}")


@dataclass(frozen=True)
class PromptTemplate:
    """A named template body, the role that answers it and the reader of that
    role's reply; its placeholders are the ``{name}`` fields its body holds,
    and its lines each body line with the names on it, both read once."""

    name: str
    body: str
    role: str
    read: Reader
    placeholders: frozenset[str] = field(init=False)
    lines: tuple[tuple[str, frozenset[str]], ...] = field(init=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "placeholders", frozenset(_PLACEHOLDER_RE.findall(self.body)))
        object.__setattr__(self, "lines", tuple(
            (line, frozenset(_PLACEHOLDER_RE.findall(line))) for line in self.body.split("\n")))


@cache
def load_template(name: str) -> PromptTemplate:
    """Load one packaged template by name; its role and reader are its
    :data:`TEMPLATE_TABLE` row.
    Each packaged file is read once per process; a template is immutable, so
    every caller shares the one loaded."""
    if name not in TEMPLATE_TABLE:
        raise KeyError(f"unknown template {name!r}")
    body = (resources.files("tdp") / "templates" / f"{name}.txt").read_text(encoding="utf-8")
    return PromptTemplate(name, body, *TEMPLATE_TABLE[name])


def load_templates() -> dict[str, PromptTemplate]:
    """A fresh name-to-template dict over the (cached) packaged templates."""
    return {name: load_template(name) for name in TEMPLATE_NAMES}


def render_prompt(template: PromptTemplate, bindings: Mapping[str, Any]) -> str:
    """Substitute bindings into the template in one pass.

    Values are inserted verbatim and never re-scanned, so a binding containing
    brace text cannot smuggle in another expansion.  A template line whose
    placeholders are all bound to ``None`` is left out, so an absent optional
    value (guidance, a supervisor's reason) leaves no trace in the prompt; on
    a line that also holds a bound value, ``None`` renders as "None".  A
    declared placeholder without a binding is a :class:`RenderFault` naming
    the placeholder.
    """
    missing = sorted(template.placeholders - set(bindings))
    if missing:
        raise RenderFault(
            f"template {template.name!r} missing binding(s): {', '.join(missing)}"
        )

    def _sub(match: re.Match[str]) -> str:
        return str(bindings[match.group(1)])

    body = template.body
    if any(bindings[name] is None for name in template.placeholders):
        body = "\n".join(line for line, names in template.lines
                         if not names or any(bindings[n] is not None for n in names))
    return _PLACEHOLDER_RE.sub(_sub, body)


# ---------------------------------------------------------------------------
# reply parsing

_FENCE_RE = re.compile(r"^```[a-zA-Z0-9_-]*\s*$")


def _strip_fences(text: str) -> str:
    lines = [line for line in text.splitlines() if not _FENCE_RE.match(line)]
    return "\n".join(lines)


def extract_json(text: str) -> dict[str, Any]:
    """Pull the first balanced top-level JSON object out of a noisy reply.

    Code fences and surrounding prose are tolerated; the inside of the object
    must be strict JSON.
    """
    cleaned = _strip_fences(text)
    decoder = json.JSONDecoder()
    idx = cleaned.find("{")
    while idx != -1:
        try:
            obj, _ = decoder.raw_decode(cleaned, idx)
        except json.JSONDecodeError:
            idx = cleaned.find("{", idx + 1)
            continue
        if isinstance(obj, dict):
            return obj
        idx = cleaned.find("{", idx + 1)
    raise ParseFault("no JSON object found in reply")


def _node_entry(entry: Mapping[str, Any], *, id_required: bool) -> NewNodeSpec:
    """One ``{id, description, dependencies, dependents}`` node entry, read
    for shape only; the graph rules are :func:`~tdp.graph.validate_graph`'s.

    A decomposition's entry must carry its ``id``; a revision's new node may
    leave it out, and :func:`~tdp.graph.apply_revision` then generates one.
    """
    read = partial(read_field, entry, where="node entry", error=ParseFault)
    node_id = read("id", str) if id_required else read("id", str, None, default=None)
    if node_id is not None and not node_id.strip():
        raise ParseFault(f"node 'id' must be a nonempty string when present, got {node_id!r}")
    return NewNodeSpec(
        id=node_id,
        description=read("description", str),
        dependencies=tuple(read("dependencies", list[str], default=[])),
        dependents=tuple(read("dependents", list[str], default=[])),
    )


def parse_subgoals(text: str) -> tuple[TaskGraph, RevisionDelta]:
    """Parse a decomposition reply, ``{"subgoals": [{id, description,
    dependencies}]}``, into the graph and the delta that built it.

    A decomposition is a revision of the empty graph that adds every entry,
    so :func:`~tdp.graph.apply_revision` builds it and holds it to the same
    rules as every later revision; a refused graph is a parse fault that
    names each violation.  The trace records the delta, so replaying it
    rebuilds the graph (:func:`~tdp.engine.replay_graph`).
    """
    entries = read_field(
        extract_json(text), "subgoals", list[dict], where="decomposition reply", error=ParseFault
    )
    if not entries:
        raise ParseFault("invalid decomposition: empty: graph has no nodes")
    delta = RevisionDelta(
        new_nodes=tuple(_node_entry(entry, id_required=True) for entry in entries)
    )
    result = apply_revision(TaskGraph(), delta)
    if not result.applied:
        raise ParseFault("invalid decomposition: " + "; ".join(result.reasons))
    return result.graph, delta


@dataclass(frozen=True)
class Plan:
    """A plan's step texts, in order; :func:`parse_plan` makes each nonempty."""

    steps: tuple[str, ...]


#: Where a plan step starts: an ``N.`` line, the format :func:`render_plan`
#: writes and the planner is asked for, or a ``## Step N`` header and its
#: ``Step:`` line, the block form that only ``perfbench/chain.py``'s ``_plan``
#: still writes.
_STEP_START_RE = re.compile(
    r"^[ \t]*(\d+)\.(?!\S)|^##[ \t]*Step[ \t]+(\d+)[ \t]*\nStep:", re.MULTILINE
)


def parse_plan(text: str) -> Plan:
    """Parse the planner's reply, one ``N. <step>`` line per step, into its
    step texts.

    A step's text runs to the next step's start, so it may span lines; prose
    before the first step is ignored.  No step, numbering that is not 1..n in
    order and an empty step are parse faults.
    """
    cleaned = _strip_fences(text)
    starts = list(_STEP_START_RE.finditer(cleaned))
    if not starts:
        raise ParseFault("no numbered steps ('1. <step>' lines) found in plan")
    steps: list[str] = []
    for pos, match in enumerate(starts, start=1):
        number = int(match.group(1) or match.group(2))
        if number != pos:
            raise ParseFault(
                f"plan steps must be numbered 1..n contiguously; "
                f"step at position {pos} is numbered {number}"
            )
        step_end = starts[pos].start() if pos < len(starts) else len(cleaned)
        step_text = cleaned[match.end():step_end].strip()
        if not step_text:
            raise ParseFault(f"plan step {number} has empty step text")
        steps.append(step_text)
    return Plan(steps=tuple(steps))


def render_plan(plan: Plan) -> str:
    """The plan as the planner writes it and the prompts that follow it show
    it: one ``N. <step>`` line per step, which :func:`parse_plan` reads back."""
    return "\n".join(f"{i}. {step}" for i, step in enumerate(plan.steps, start=1))


_EVAL_STATUSES = frozenset({"completed", "failed", "needs_more_steps"})


@dataclass(frozen=True)
class Evaluation:
    """Supervisor verdict on the current sub-goal after the latest step."""

    status: str  # completed | failed | needs_more_steps
    reason: str | None
    need_replan: bool


def parse_evaluation(text: str) -> Evaluation:
    read = partial(read_field, extract_json(text), where="evaluation reply", error=ParseFault)
    status = read("status", str)
    if status not in _EVAL_STATUSES:
        raise ParseFault(f"status must be one of {sorted(_EVAL_STATUSES)}, got {status!r}")
    need_replan = read("need_replan", bool)
    reason = read("reason", str, None, default=None)
    if status == "needs_more_steps" and not need_replan and not (reason or "").strip():
        raise ParseFault(
            "status 'needs_more_steps' without replanning requires guidance in 'reason'"
        )
    return Evaluation(status=status, reason=reason, need_replan=need_replan)


def parse_replan(text: str) -> Plan | None:
    """The planner's new plan, or ``None`` when it keeps its plan: ``NewPlan``
    is required, null keeps the plan, and a string, blank too, must parse
    (:func:`parse_plan`).  ``Thought`` must be a string or null."""
    read = partial(read_field, extract_json(text), where="replan reply", error=ParseFault)
    read("Thought", str, None, default=None)
    raw_plan = read("NewPlan", str, None)
    return None if raw_plan is None else parse_plan(raw_plan)


def parse_revision(text: str) -> RevisionDelta:
    """Parse a graph-update reply into a :class:`~tdp.graph.RevisionDelta`.

    The three edit lists are required, empty for no change; ``thought`` is
    optional, and unknown top-level fields are ignored.
    """
    doc = extract_json(text)
    read = partial(read_field, where="revision reply", error=ParseFault)
    return RevisionDelta(
        thought=read(doc, "thought", str, default=""),
        description_updates=tuple(
            (read(entry, "node_id", str), read(entry, "new_description", str))
            for entry in read(doc, "description_updates", list[dict])
        ),
        new_nodes=tuple(
            _node_entry(entry, id_required=False) for entry in read(doc, "new_nodes", list[dict])
        ),
        remove_nodes=tuple(read(doc, "remove_nodes", list[str])),
    )


_WRAPPING_QUOTES = ('"', "'", "`")


def extract_action(text: str, verbs: AbstractSet[str]) -> str:
    """The executor's reply, taken verbatim after trimming, as one command
    whose verb is in `verbs`.

    Strips surrounding whitespace, one wrapping code fence, and one matched
    pair of wrapping quotes.  What is left must be one line whose verb
    (:func:`~tdp.environments.base.command_verb`) is one of `verbs`;
    anything else, an empty reply too, is a parse fault, so a reply meant for
    another role is retried and never reaches the environment.
    """
    action = _strip_fences(text).strip()
    if (
        len(action) >= 2
        and action[0] == action[-1]
        and action[0] in _WRAPPING_QUOTES
    ):
        action = action[1:-1].strip()
    if not action:
        raise ParseFault("executor reply contains no action")
    if len(action.splitlines()) > 1:
        raise ParseFault("executor reply must be one action on one line")
    if command_verb(action) not in verbs:
        raise ParseFault(f"the action must start with one of: {', '.join(sorted(verbs))}")
    return action


_ACTION_LINE_RE = re.compile(r"^Action:\s*(.+)$", re.MULTILINE)


def parse_react(text: str, verbs: AbstractSet[str]) -> str:
    """The action of a think-then-act reply: its first ``Action:`` line, read
    by :func:`extract_action`.  A reply with no such line is a parse fault;
    the ``Thought:`` line is not read."""
    action_match = _ACTION_LINE_RE.search(text)
    if not action_match:
        raise ParseFault("reply has no 'Action:' line")
    return extract_action(action_match.group(1), verbs)


# ---------------------------------------------------------------------------
# backends

FORMAT_REMINDER = (
    "Format reminder: the previous reply could not be parsed; "
    "follow the required output format exactly."
)


class ModelBackend:
    """Interface every model backend satisfies.

    ``complete`` must tolerate concurrent calls from independent runs.
    """

    def complete(self, role_tag: str, prompt: str) -> Completion:  # pragma: no cover
        raise NotImplementedError


def _whitespace_tokens(text: str) -> int:
    return len(text.split())


@dataclass(frozen=True)
class ScriptRule:
    """One scripted reply: fires for the role tag `role` when every `match`
    string appears in the prompt.

    ``responses`` is indexed by the number of retry-reminder lines present in
    the prompt (clamped to the last entry), which keeps the backend a pure
    function of the prompt while letting retry scenarios script distinct
    replies per attempt.
    """

    match: tuple[str, ...]
    responses: tuple[str, ...]
    role: str

    def matches(self, role_tag: str, prompt: str) -> bool:
        return self.role == role_tag and all(needle in prompt for needle in self.match)


def _rule_from_mapping(index: int, doc: Any) -> ScriptRule:
    """Rule `index` of a script file: an object whose ``match`` and
    ``responses`` are lists of strings, ``responses`` nonempty, and whose
    ``role`` is a role tag; anything else is a ValueError naming the rule."""
    where = f"script rule [{index}]"
    check_value(doc, Mapping, name=where, error=ValueError)
    unknown = sorted(set(doc) - {"match", "responses", "role"})
    if unknown:
        raise ValueError(f"{where} has unknown key(s) {unknown}; known: match, responses, role")
    read = partial(read_field, doc, where=where, error=ValueError)
    responses = tuple(read("responses", list[str]))
    if not responses:
        raise ValueError(f"{where} needs at least one response")
    return ScriptRule(match=tuple(read("match", list[str])), responses=responses,
                      role=read("role", str))


class ScriptedBackend(ModelBackend):
    """Deterministic pattern -> response backend for tests and offline runs.

    First matching rule wins.  ``complete`` is a pure function of
    (role_tag, prompt) over rules that are only read, so the backend keeps no
    state per call and is safe to share between concurrent runs.
    """

    def __init__(self, rules: Sequence[ScriptRule]):
        self.rules = tuple(rules)

    @classmethod
    def from_file(cls, path: str | Path) -> "ScriptedBackend":
        """The backend of a script file: a JSON list of rule objects
        (:func:`_rule_from_mapping`)."""
        docs = check_value(load_json(path, ValueError), list, name=f"script file {path}",
                           error=ValueError)
        try:
            return cls([_rule_from_mapping(i, doc) for i, doc in enumerate(docs)])
        except ValueError as err:
            raise ValueError(f"script file {path}: {err}") from None

    def complete(self, role_tag: str, prompt: str) -> Completion:
        attempt = prompt.count(FORMAT_REMINDER)
        for rule in self.rules:
            if rule.matches(role_tag, prompt):
                text = rule.responses[min(attempt, len(rule.responses) - 1)]
                usage = TokenUsage(
                    prompt_tokens=_whitespace_tokens(prompt),
                    output_tokens=_whitespace_tokens(text),
                )
                return Completion(text=text, usage=usage)
        raise LookupError(
            f"no scripted rule matches role {role_tag!r}; prompt starts: {prompt[:120]!r}"
        )


#: Seconds a remote request may take before it fails as a backend error.
REMOTE_TIMEOUT = 120.0


class RemoteChatBackend(ModelBackend):
    """Chat-completions HTTP backend.

    A count the response's ``usage`` does not give is unknown (``None``), not
    zero, so a reply without usage cannot read as a call that cost nothing.
    A reply whose ``content`` is not a string (``null``, a list of parts),
    whose ``choices`` is missing or empty, or whose usage counts are not
    integers is a :class:`TypeError`, which :meth:`tdp.engine.Run.call`
    records as a backend error, as it does a non-2xx status
    (:class:`urllib.error.HTTPError`), a failed connection or a timeout.

    The API key is read from the environment variable named in the
    configuration, never from config files, and goes in an unredirected
    header, which a redirect does not carry on.  Construction fails fast on
    an unset variable or a non-``http(s)`` endpoint, so no run starts.  A
    request waits at most :data:`REMOTE_TIMEOUT` seconds.
    """

    def __init__(self, endpoint: str, model: str, credential_env: str, temperature: float = 0.0):
        key = os.environ.get(credential_env, "")
        if not key:
            raise RuntimeError(
                f"remote backend refused: environment variable {credential_env!r} is not set"
            )
        if not endpoint.lower().startswith(("http://", "https://")):
            raise RuntimeError(f"remote backend refused: endpoint {endpoint!r} is not http(s)")
        self.endpoint = endpoint
        self.model = model
        self.temperature = temperature
        self._key = key

    def complete(self, role_tag: str, prompt: str) -> Completion:
        import urllib.request  # only a live run pays for loading the transport

        body = {"model": self.model, "messages": [{"role": "user", "content": prompt}],
                "temperature": self.temperature}
        request = urllib.request.Request(
            self.endpoint, data=json.dumps(body).encode("utf-8"), method="POST",
            headers={"Content-Type": "application/json"},
        )
        request.add_unredirected_header("Authorization", f"Bearer {self._key}")
        with urllib.request.urlopen(request, timeout=REMOTE_TIMEOUT) as response:
            doc = check_value(json.load(response), dict, name="reply", error=TypeError)
        read = partial(read_field, doc, where="reply", error=TypeError)
        choices = read("choices", list[dict])
        if not choices:
            raise TypeError("reply: 'choices' must be a nonempty list, got []")
        message = read_field(choices[0], "message", dict, where="reply choice [0]", error=TypeError)
        text = read_field(message, "content", str, where="reply", error=TypeError)
        usage = read("usage", dict, None, default=None) or {}
        prompt_tokens, output_tokens = (
            read_field(usage, key, int, None, default=None, where="reply usage", error=TypeError)
            for key in ("prompt_tokens", "completion_tokens")
        )
        return Completion(text=text, usage=TokenUsage(prompt_tokens, output_tokens))
