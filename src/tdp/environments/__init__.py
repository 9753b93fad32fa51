"""Mock environments and the task-fixture registry."""

from __future__ import annotations

import json
from pathlib import Path

from .base import (
    Environment,
    EnvironmentClosedError,
    FixtureError,
    StepResult,
    TaskInstance,
)
from .mockwiki import MockWiki
from .textlab import TextLab
from .traveltoy import TravelToy

ENVIRONMENTS: dict[str, type[Environment]] = {
    cls.name: cls for cls in (MockWiki, TravelToy, TextLab)
}


def make_environment(env_id: str) -> Environment:
    """Instantiate a registered environment by id."""
    try:
        return ENVIRONMENTS[env_id]()
    except KeyError:
        raise FixtureError(
            f"unknown environment {env_id!r}; known: {', '.join(sorted(ENVIRONMENTS))}"
        ) from None


def validate_instance(instance: TaskInstance) -> None:
    """Run the fixture's environment-specific consistency checks."""
    cls = ENVIRONMENTS.get(instance.environment)
    if cls is None:
        raise FixtureError(
            f"fixture {instance.id}: unknown environment {instance.environment!r}"
        )
    cls.validate_instance(instance)


def load_task_instance(path: str | Path) -> TaskInstance:
    """Read one fixture file and run its environment's consistency checks."""
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


__all__ = [
    "Environment",
    "EnvironmentClosedError",
    "FixtureError",
    "StepResult",
    "TaskInstance",
    "load_task_instance",
    "MockWiki",
    "TravelToy",
    "TextLab",
    "ENVIRONMENTS",
    "make_environment",
    "validate_instance",
]
