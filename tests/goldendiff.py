"""How a golden case's stored files are compared with a fresh run's.

A case stores its trace file, byte for byte, and its call lines: one per model
call, in call order, holding the call's role tag and its prompt's SHA-256.
:func:`first_difference` names the first line on which a fresh file departs
from the stored one.  The behaviour check compares :func:`behaviour` of the
two traces, which drops every prompt size, so it fails with every call,
reply, step, verdict and graph edit that moves but not with prompt sizes.
"""

from __future__ import annotations

import hashlib
import json
from itertools import zip_longest
from typing import Any, Callable

#: The trace fields that only measure a prompt's size.
PROMPT_SIZE_KEYS = frozenset({"prompt_tokens", "prompt_chars"})
#: The keys that name a trace line's event or a call line's call.
NAMING_KEYS = ("seq", "kind", "role_tag")


def call_lines(calls: tuple[tuple[str, str], ...]) -> bytes:
    """One line per (role tag, prompt): the tag and the prompt's SHA-256."""
    return "".join(f"{tag} {hashlib.sha256(prompt.encode()).hexdigest()}\n"
                   for tag, prompt in calls).encode()


def read_call(line: bytes) -> dict[str, str]:
    return dict(zip(("role_tag", "prompt"), line.decode().split()))


def _without_prompt_sizes(value: Any) -> Any:
    """`value` with every prompt-size key dropped, at any depth."""
    if isinstance(value, dict):
        return {k: _without_prompt_sizes(v) for k, v in value.items() if k not in PROMPT_SIZE_KEYS}
    if isinstance(value, list):
        return [_without_prompt_sizes(v) for v in value]
    return value


def behaviour(trace: bytes) -> bytes:
    """The trace's events as sorted-key JSON lines without their prompt sizes."""
    return b"".join(json.dumps(_without_prompt_sizes(json.loads(line)), sort_keys=True).encode()
                    + b"\n" for line in trace.splitlines())


def _keys(doc: dict[str, Any]) -> dict[str, Any]:
    """A line's values by key, a payload's under ``payload.<key>``."""
    payload = doc.pop("payload", {})
    return {**doc, **{f"payload.{key}": value for key, value in payload.items()}}


def first_difference(stored: bytes, live: bytes,
                     read: Callable[[bytes], dict[str, Any]] = json.loads) -> str | None:
    """The first line, counted from 1, on which `live` departs from `stored`,
    named by what `read` finds on it (an event's seq and kind, or a call's
    role tag) with the keys whose values differ; None if no line does.  Lines
    are compared with their ends, so None means the same bytes."""
    lines = zip_longest(stored.splitlines(keepends=True), live.splitlines(keepends=True))
    for number, (old, new) in enumerate(lines, 1):
        if old == new:
            continue
        before, after = (_keys(read(line)) if line is not None else {} for line in (old, new))
        shown = before or after
        named = ", ".join(f"{key} {shown[key]}" for key in NAMING_KEYS if key in shown)
        if old is None or new is None:
            where = "missing from" if new is None else "extra in"
            return f"line {number} ({named}) is {where} the live run"
        keys = [key for key in sorted(before.keys() | after.keys())
                if before.get(key, ...) != after.get(key, ...)]
        return f"line {number} ({named}) differs in {', '.join(keys) or 'its bytes'}"
    return None
