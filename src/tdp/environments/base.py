"""The environment base class and the task-fixture types.

Environments are deterministic: no RNG in `step`, no wall-clock reads, so a
replayed action sequence always reproduces its observations.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Any, Callable, ClassVar, Mapping, NamedTuple

#: A bracket call, ``Verb[argument]``, whose argument may span lines.
BRACKET_CALL_RE = re.compile(r"^([A-Za-z]+)\[(.*)\]$", re.DOTALL)
_VERB_RE = re.compile(r"[A-Za-z]+")


class EnvironmentClosedError(ValueError):
    """step() called after the episode finished."""


class FixtureError(ValueError):
    """A task fixture that fails its consistency checks."""


@dataclass(frozen=True)
class StepResult:
    """One environment transition."""

    observation: str
    reward_delta: float | None = None
    done: bool = False


class Command(NamedTuple):
    """One row of a command table: the line the acting prompts list (the call,
    `` - `` and what it does; :func:`command_syntax` cuts it to the call) and
    ``handler(env, *args)`` giving the observation for the arguments the
    mock's ``_act`` reads from an action."""

    line: str
    handler: Callable[..., str]


def command_syntax(line: str) -> str:
    """A command line's call syntax: the line up to its `` - `` help text."""
    return line.split(" - ", 1)[0]


def command_verb(text: str) -> str:
    """The verb a command line or an action starts with: its leading letters."""
    match = _VERB_RE.match(text.strip())
    return match.group(0) if match else ""


@dataclass(frozen=True)
class TaskInstance:
    """A loadable task: query text, gold record, and the world the mock serves."""

    id: str
    environment: str
    query: str
    gold: Mapping[str, Any] = field(default_factory=dict)
    payload: Mapping[str, Any] = field(default_factory=dict)


class Environment:
    """Deterministic mock environment; the base class owns the episode lifecycle.

    ``reset(instance)`` validates the instance, zeroes the done flag and the
    step count, and returns the initial observation from ``_start``.
    ``step(action)`` refuses a finished episode, counts the step and returns
    what ``_act`` makes of the action.  ``done`` reads the flag, and
    ``metrics()`` adds ``done`` and ``env_steps`` to the mock's own
    ``_metrics()``.  A mock supplies ``validate_instance``, ``_start``,
    ``_act``, ``_metrics`` and ``commands``, the :class:`Command` row of each
    verb: ``admissible_commands()`` lists the rows' lines in table order and
    ``_act`` dispatches through them.  It ends its episode by setting
    ``self._done``.
    """

    name = "base"
    commands: ClassVar[Mapping[str, Command]] = {}
    _done = False
    _steps = 0

    @classmethod
    def validate_instance(cls, instance: TaskInstance) -> None:  # pragma: no cover - interface
        raise NotImplementedError

    def reset(self, instance: TaskInstance) -> str:
        self.validate_instance(instance)
        self._done = False
        self._steps = 0
        return self._start(instance)

    def step(self, action: str) -> StepResult:
        self._guard_open()
        self._steps += 1
        return self._act(action)

    @property
    def done(self) -> bool:
        return self._done

    def metrics(self) -> dict[str, Any]:
        return {**self._metrics(), "done": self._done, "env_steps": self._steps}

    def admissible_commands(self) -> list[str]:
        return [command.line for command in self.commands.values()]

    def _start(self, instance: TaskInstance) -> str:  # pragma: no cover - interface
        raise NotImplementedError

    def _act(self, action: str) -> StepResult:  # pragma: no cover - interface
        raise NotImplementedError

    def _metrics(self) -> dict[str, Any]:  # pragma: no cover - interface
        raise NotImplementedError

    def _guard_open(self) -> None:
        if self.done:
            raise EnvironmentClosedError(f"{self.name}: step() after episode finished")
