"""Role plumbing: prompt templates, structured-output parsers, and model backends.

Each agent role (supervisor, planner, executor) is a prompt template plus a
parser over the model's raw reply.  All parsing is strict — silent coercion of
a malformed reply into a default would hide model drift, so every defect is a
bare :class:`ParseFault`.  :meth:`tdp.engine.Run.call` retries it and, once
the retries run out, raises a :class:`RoleFault` that names the role and
keeps the last reply.  The parsers check shape only.  A decomposition and a
revision read their node entries with one reader, and both reach the graph
through :func:`~tdp.graph.apply_revision`, so every structural rule is
checked once, by :func:`~tdp.graph.validate_graph`.
"""

from __future__ import annotations

import json
import os
import re
from dataclasses import dataclass
from importlib import resources
from pathlib import Path
from typing import AbstractSet, Any, Mapping, Sequence

from .environments.base import command_verb
from .graph import NewNodeSpec, RevisionDelta, TaskGraph, apply_revision

__all__ = [
    "ParseFault",
    "RenderFault",
    "RoleFault",
    "TokenUsage",
    "Completion",
    "PromptTemplate",
    "TEMPLATE_NAMES",
    "load_template",
    "load_templates",
    "render_prompt",
    "extract_json",
    "parse_subgoals",
    "PlanStep",
    "Plan",
    "parse_plan",
    "render_plan",
    "Evaluation",
    "parse_evaluation",
    "ReplanDecision",
    "parse_replan",
    "parse_revision",
    "extract_action",
    "ModelBackend",
    "ScriptedBackend",
    "ScriptRule",
    "RemoteChatBackend",
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


def _add_counts(a: int | None, b: int | None) -> int | None:
    return None if a is None or b is None else a + b


@dataclass(frozen=True)
class TokenUsage:
    """A call's token counts; ``None`` is a count the backend did not report,
    and a sum with an unknown count is unknown."""

    prompt_tokens: int | None = 0
    output_tokens: int | None = 0

    def __add__(self, other: "TokenUsage") -> "TokenUsage":
        return TokenUsage(
            prompt_tokens=_add_counts(self.prompt_tokens, other.prompt_tokens),
            output_tokens=_add_counts(self.output_tokens, other.output_tokens),
        )


@dataclass(frozen=True)
class Completion:
    """One raw model reply plus its token accounting."""

    text: str
    usage: TokenUsage


# ---------------------------------------------------------------------------
# templates

#: The packaged role prompt templates.
TEMPLATE_NAMES = ("construct", "evaluate", "execute", "plan", "react", "replan", "revise")

_PLACEHOLDER_RE = re.compile(r"\{([a-z_]+)\}")


@dataclass(frozen=True)
class PromptTemplate:
    """A named template body with a declared placeholder set."""

    name: str
    body: str
    placeholders: frozenset[str]


def load_template(name: str) -> PromptTemplate:
    """Load one packaged template by name; it declares the placeholders its
    body holds."""
    if name not in TEMPLATE_NAMES:
        raise KeyError(f"unknown template {name!r}")
    body = (resources.files("tdp") / "templates" / f"{name}.txt").read_text(encoding="utf-8")
    return PromptTemplate(
        name=name, body=body, placeholders=frozenset(_PLACEHOLDER_RE.findall(body))
    )


def load_templates() -> dict[str, PromptTemplate]:
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
        name = match.group(1)
        if name not in template.placeholders:
            return match.group(0)  # literal text that merely looks like a placeholder
        return str(bindings[name])

    def _bound(line: str) -> bool:
        names = [n for n in _PLACEHOLDER_RE.findall(line) if n in template.placeholders]
        return not names or any(bindings[n] is not None for n in names)

    body = template.body
    if any(bindings[name] is None for name in template.placeholders):
        body = "\n".join(line for line in body.split("\n") if _bound(line))
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


def _require(doc: Mapping[str, Any], key: str) -> Any:
    if key not in doc:
        raise ParseFault(f"missing required field {key!r}")
    return doc[key]


def _as_bool(value: Any, key: str) -> bool:
    if isinstance(value, bool):
        return value
    raise ParseFault(f"field {key!r} must be a JSON boolean, got {value!r}")


def _list_field(doc: Mapping[str, Any], key: str) -> list[Any]:
    """``doc[key]`` as a list; absent or null reads as empty."""
    value = doc.get(key)
    if value is None:
        return []
    if not isinstance(value, list):
        raise ParseFault(f"field {key!r} must be a list, got {value!r}")
    return value


def _as_str_list(value: Any, key: str) -> list[str]:
    if not isinstance(value, list) or any(not isinstance(v, str) for v in value):
        raise ParseFault(f"field {key!r} must be a list of strings")
    return list(value)


def _node_entry(entry: Any, *, id_required: bool) -> NewNodeSpec:
    """One ``{id, description, dependencies, dependents}`` node entry, read
    for shape only; the graph rules are :func:`~tdp.graph.validate_graph`'s.

    A decomposition's entry must carry its ``id``; a revision's new node may
    leave it out, and :func:`~tdp.graph.apply_revision` then generates one.
    """
    if not isinstance(entry, Mapping):
        raise ParseFault("each node entry must be an object")
    node_id = _require(entry, "id") if id_required else entry.get("id")
    if (id_required or node_id is not None) and (
        not isinstance(node_id, str) or not node_id.strip()
    ):
        raise ParseFault(f"node 'id' must be a nonempty string when present, got {node_id!r}")
    description = _require(entry, "description")
    if not isinstance(description, str):
        raise ParseFault("node 'description' must be a string")
    return NewNodeSpec(
        id=node_id,
        description=description,
        dependencies=tuple(_as_str_list(entry.get("dependencies", []), "dependencies")),
        dependents=tuple(_as_str_list(entry.get("dependents", []), "dependents")),
    )


def parse_subgoals(text: str, task_description: str = "") -> tuple[TaskGraph, RevisionDelta]:
    """Parse a decomposition reply, ``{"subgoals": [{id, description,
    dependencies}]}``, into the graph of `task_description` and the delta
    that built it.

    A decomposition is a revision of the empty graph that adds every entry,
    so :func:`~tdp.graph.apply_revision` builds it and holds it to the same
    rules as every later revision; a refused graph is a parse fault that
    names each violation.  The trace records the delta, so replaying it
    rebuilds the graph (:func:`~tdp.engine.replay_graph`).
    """
    entries = _require(extract_json(text), "subgoals")
    if not isinstance(entries, list):
        raise ParseFault("'subgoals' must be a list")
    delta = RevisionDelta(
        need_update=True,
        new_nodes=tuple(_node_entry(entry, id_required=True) for entry in entries),
    )
    result = apply_revision(TaskGraph(task_description=task_description), delta)
    if not result.applied:
        raise ParseFault("invalid decomposition: " + "; ".join(result.reasons))
    return result.graph, delta


@dataclass(frozen=True)
class PlanStep:
    index: int
    reasoning: str
    step_text: str


@dataclass(frozen=True)
class Plan:
    """An ordered, contiguously numbered list of plan steps (1..n)."""

    steps: tuple[PlanStep, ...]

    def __post_init__(self) -> None:
        for pos, step in enumerate(self.steps, start=1):
            if step.index != pos:
                raise ParseFault(
                    f"plan steps must be numbered 1..n contiguously; "
                    f"step at position {pos} is numbered {step.index}"
                )
            if not step.step_text.strip():
                raise ParseFault(f"plan step {step.index} has empty step text")


_STEP_HEADER_RE = re.compile(r"^##\s*Step\s+(\d+)\s*$", re.MULTILINE)


def parse_plan(text: str) -> Plan:
    """Parse the ``## Step N`` / ``Reasoning:`` / ``Step:`` plan format.

    Missing headers or a block without its ``Step:`` line are parse faults,
    and so, raised by :class:`Plan`, are non-contiguous numbering and empty
    step text.  ``Reasoning:`` is tolerated when absent; step text may span
    lines up to the next header.
    """
    cleaned = _strip_fences(text)
    headers = list(_STEP_HEADER_RE.finditer(cleaned))
    if not headers:
        raise ParseFault("no '## Step N' headers found in plan")
    steps: list[PlanStep] = []
    for i, match in enumerate(headers):
        number = int(match.group(1))
        block_end = headers[i + 1].start() if i + 1 < len(headers) else len(cleaned)
        block = cleaned[match.end() : block_end]
        step_match = re.search(r"^Step:\s*(.*)$", block, re.MULTILINE | re.DOTALL)
        if not step_match:
            raise ParseFault(f"plan step {number} has no 'Step:' line")
        reasoning_match = re.search(r"^Reasoning:\s*(.*?)^Step:", block, re.MULTILINE | re.DOTALL)
        reasoning = reasoning_match.group(1).strip() if reasoning_match else ""
        step_text = step_match.group(1).strip()
        steps.append(PlanStep(index=number, reasoning=reasoning, step_text=step_text))
    return Plan(steps=tuple(steps))


def render_plan(plan: Plan) -> str:
    """Inverse of :func:`parse_plan` for well-formed plans.

    A step without reasoning renders without a ``Reasoning:`` line.
    """
    blocks = []
    for step in plan.steps:
        reasoning = f"Reasoning: {step.reasoning}\n" if step.reasoning else ""
        blocks.append(f"## Step {step.index}\n{reasoning}Step: {step.step_text}")
    return "\n".join(blocks)


_EVAL_STATUSES = frozenset({"completed", "failed", "needs_more_steps"})


@dataclass(frozen=True)
class Evaluation:
    """Supervisor verdict on the current sub-goal after the latest step."""

    status: str  # completed | failed | needs_more_steps
    reason: str | None
    need_replan: bool


def parse_evaluation(text: str) -> Evaluation:
    doc = extract_json(text)
    status = _require(doc, "status")
    if not isinstance(status, str) or status not in _EVAL_STATUSES:
        raise ParseFault(f"status must be one of {sorted(_EVAL_STATUSES)}, got {status!r}")
    need_replan = _as_bool(_require(doc, "need_replan"), "need_replan")
    reason = doc.get("reason")
    if reason is not None and not isinstance(reason, str):
        raise ParseFault("'reason' must be a string or null")
    if status == "needs_more_steps" and not need_replan and not (reason or "").strip():
        raise ParseFault(
            "status 'needs_more_steps' without replanning requires guidance in 'reason'"
        )
    return Evaluation(status=status, reason=reason, need_replan=need_replan)


@dataclass(frozen=True)
class ReplanDecision:
    """Planner's answer to a replan proposal: keep the plan or replace it."""

    replan: bool
    thought: str | None
    new_plan: Plan | None


def parse_replan(text: str) -> ReplanDecision:
    doc = extract_json(text)
    replan = _as_bool(_require(doc, "RePlan"), "RePlan")
    thought = doc.get("Thought")
    if thought is not None and not isinstance(thought, str):
        raise ParseFault("'Thought' must be a string or null")
    raw_plan = doc.get("NewPlan")
    if replan:
        if not isinstance(raw_plan, str) or not raw_plan.strip():
            raise ParseFault("RePlan is true but 'NewPlan' is missing or empty")
        new_plan = parse_plan(raw_plan)
    else:
        if raw_plan not in (None, ""):
            raise ParseFault("RePlan is false but 'NewPlan' is present")
        new_plan = None
    return ReplanDecision(replan=replan, thought=thought, new_plan=new_plan)


def parse_revision(text: str) -> RevisionDelta:
    """Parse a graph-update reply into a :class:`~tdp.graph.RevisionDelta`.

    Unknown top-level fields are ignored; list fields default to empty, and
    a list field holding anything but a list is a parse fault.
    """
    doc = extract_json(text)
    need_update = _as_bool(_require(doc, "need_update"), "need_update")
    thought = doc.get("thought", "")
    if not isinstance(thought, str):
        raise ParseFault("'thought' must be a string")

    updates: list[tuple[str, str]] = []
    for entry in _list_field(doc, "description_updates"):
        if not isinstance(entry, Mapping):
            raise ParseFault("each description update must be an object")
        node_id = _require(entry, "node_id")
        new_description = _require(entry, "new_description")
        if not isinstance(node_id, str) or not isinstance(new_description, str):
            raise ParseFault("description updates need string node_id/new_description")
        updates.append((node_id, new_description))

    new_nodes = tuple(
        _node_entry(entry, id_required=False) for entry in _list_field(doc, "new_nodes")
    )
    remove_nodes = _as_str_list(_list_field(doc, "remove_nodes"), "remove_nodes")
    return RevisionDelta(
        thought=thought,
        need_update=need_update,
        description_updates=tuple(updates),
        new_nodes=new_nodes,
        remove_nodes=tuple(remove_nodes),
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
    """One scripted reply: fires when every `match` string appears in the prompt.

    ``responses`` is indexed by the number of retry-reminder lines present in
    the prompt (clamped to the last entry), which keeps the backend a pure
    function of the prompt while letting retry scenarios script distinct
    replies per attempt.  ``role`` restricts the rule to one role tag.
    """

    match: tuple[str, ...]
    responses: tuple[str, ...]
    role: str | None = None

    def matches(self, role_tag: str, prompt: str) -> bool:
        if self.role is not None and self.role != role_tag:
            return False
        return all(needle in prompt for needle in self.match)


def _rule_strings(value: Any, where: str) -> tuple[str, ...]:
    if isinstance(value, str):
        return (value,)
    if isinstance(value, (list, tuple)) and all(isinstance(v, str) for v in value):
        return tuple(value)
    raise ValueError(f"{where} must be a string or a list of strings, got {value!r}")


class ScriptedBackend(ModelBackend):
    """Deterministic pattern -> response backend for tests and offline runs.

    First matching rule wins.  ``complete`` is a pure function of
    (role_tag, prompt) over rules that are only read, so the backend keeps no
    state per call and is safe to share between concurrent runs.
    """

    def __init__(self, rules: Sequence[ScriptRule | Mapping[str, Any]]):
        self.rules: tuple[ScriptRule, ...] = tuple(
            rule if isinstance(rule, ScriptRule) else self._rule_from_mapping(i, rule)
            for i, rule in enumerate(rules)
        )

    @staticmethod
    def _rule_from_mapping(index: int, doc: Any) -> ScriptRule:
        """Rule `index` of a script: an object with ``responses`` and optional
        ``match`` and ``role``; anything else is a ValueError naming the rule."""
        where = f"script rule [{index}]"
        if not isinstance(doc, Mapping):
            raise ValueError(f"{where} must be an object, got {doc!r}")
        unknown = sorted(set(doc) - {"match", "responses", "role"})
        if unknown:
            raise ValueError(f"{where} has unknown key(s) {unknown}; known: match, responses, role")
        if "responses" not in doc:
            raise ValueError(f"{where} has no 'responses'")
        responses = _rule_strings(doc["responses"], f"{where} 'responses'")
        if not responses:
            raise ValueError(f"{where} needs at least one response")
        role = doc.get("role")
        if role is not None and not isinstance(role, str):
            raise ValueError(f"{where} 'role' must be a string, got {role!r}")
        match = _rule_strings(doc.get("match", ""), f"{where} 'match'")
        return ScriptRule(match=match, responses=responses, role=role)

    @classmethod
    def from_file(cls, path: str | Path) -> "ScriptedBackend":
        with open(path, "r", encoding="utf-8") as handle:
            rules = json.load(handle)
        if not isinstance(rules, list):
            raise ValueError(f"script file {path} must hold a JSON list of rules")
        try:
            return cls(rules)
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


class RemoteChatBackend(ModelBackend):
    """Chat-completions HTTP backend.

    A count the response's ``usage`` does not give is unknown (``None``), not
    zero, so a reply without usage cannot read as a call that cost nothing.
    A reply whose ``content`` is not a string (``null``, a list of parts) is
    a :class:`TypeError`, which :meth:`tdp.engine.Run.call` records as a
    backend error.

    The API key is read from the environment variable named in the
    configuration — never stored in config files.  Construction fails fast
    when the variable is unset so no run starts half-credentialed.
    """

    def __init__(
        self,
        endpoint: str,
        model: str,
        credential_env: str,
        temperature: float = 0.0,
        timeout: float = 120.0,
    ):
        key = os.environ.get(credential_env, "")
        if not key:
            raise RuntimeError(
                f"remote backend refused: environment variable {credential_env!r} is not set"
            )
        self.endpoint = endpoint
        self.model = model
        self.temperature = temperature
        self.timeout = timeout
        self._key = key

    def complete(self, role_tag: str, prompt: str) -> Completion:
        import requests

        response = requests.post(
            self.endpoint,
            headers={
                "Authorization": f"Bearer {self._key}",
                "Content-Type": "application/json",
            },
            json={
                "model": self.model,
                "messages": [{"role": "user", "content": prompt}],
                "temperature": self.temperature,
            },
            timeout=self.timeout,
        )
        response.raise_for_status()
        doc = response.json()
        text = doc["choices"][0]["message"]["content"]
        if not isinstance(text, str):
            raise TypeError(f"reply content must be a string, got {type(text).__name__}")
        usage = doc.get("usage") or {}

        def reported(key: str) -> int | None:
            return None if usage.get(key) is None else int(usage[key])

        return Completion(
            text=text,
            usage=TokenUsage(
                prompt_tokens=reported("prompt_tokens"),
                output_tokens=reported("completion_tokens"),
            ),
        )
