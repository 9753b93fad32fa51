"""Environment interface and task-fixture loading.

Environments are deterministic: no RNG in `step`, no wall-clock reads, so a
replayed action sequence always reproduces its observations.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Mapping


class EnvironmentError_(ValueError):
    """Base class for environment failures (underscored: the builtin shadows us)."""


class EnvironmentClosedError(EnvironmentError_):
    """step() called after the episode finished."""


class FixtureError(EnvironmentError_):
    """A task fixture that fails its consistency checks."""


@dataclass(frozen=True)
class StepResult:
    """One environment transition."""

    observation: str
    reward_delta: float | None = None
    done: bool = False


@dataclass(frozen=True)
class TaskInstance:
    """A loadable task: query text, gold record, and the world the mock serves."""

    id: str
    environment: str
    query: str
    gold: Mapping[str, Any] = field(default_factory=dict)
    payload: Mapping[str, Any] = field(default_factory=dict)


class Environment:
    """Deterministic mock environment contract.

    Lifecycle: ``reset(instance)`` returns the initial observation; ``step``
    consumes one action string and is rejected once ``done`` is True;
    ``metrics`` summarizes the episode for reporting.
    """

    name = "base"

    def reset(self, instance: TaskInstance) -> str:  # pragma: no cover - interface
        raise NotImplementedError

    def step(self, action: str) -> StepResult:  # pragma: no cover - interface
        raise NotImplementedError

    def admissible_commands(self) -> list[str]:  # pragma: no cover - interface
        raise NotImplementedError

    @property
    def done(self) -> bool:  # pragma: no cover - interface
        raise NotImplementedError

    def metrics(self) -> dict[str, Any]:  # pragma: no cover - interface
        raise NotImplementedError

    def _guard_open(self) -> None:
        if self.done:
            raise EnvironmentClosedError(f"{self.name}: step() after episode finished")


def load_task_instance(path: str | Path) -> TaskInstance:
    """Read one fixture file and run its environment's consistency checks."""
    from . import validate_instance  # late import; the registry lives in __init__

    path = Path(path)
    if not path.exists():
        raise FixtureError(f"fixture not found: {path}")
    with open(path, "r", encoding="utf-8") as handle:
        doc = json.load(handle)
    if not isinstance(doc, dict):
        raise FixtureError(f"fixture {path}: must be a JSON object")
    for key in ("id", "environment", "query"):
        if not isinstance(doc.get(key), str) or not doc[key].strip():
            raise FixtureError(f"fixture {path}: missing or empty {key!r}")
    for key in ("gold", "payload"):
        if not isinstance(doc.get(key, {}), dict):
            raise FixtureError(f"fixture {path}: {key!r} must be an object")
    instance = TaskInstance(
        id=doc["id"],
        environment=doc["environment"],
        query=doc["query"],
        gold=doc.get("gold", {}),
        payload=doc.get("payload", {}),
    )
    validate_instance(instance)
    return instance
