"""Mock environments and the task-fixture registry."""

from __future__ import annotations

from functools import partial
from pathlib import Path

from ..fields import check_value, load_json, read_field
from ..telemetry import read_gold
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
    """Read one fixture file, check its gold record's graded fields, and run
    its environment's consistency checks."""
    path = Path(path)
    if not path.exists():
        raise FixtureError(f"fixture not found: {path}")
    doc = check_value(load_json(path, FixtureError), dict, name=f"fixture {path}",
                      error=FixtureError)
    read = partial(read_field, doc, where=f"fixture {path}", error=FixtureError)
    for key in ("id", "environment", "query"):
        if not read(key, str).strip():
            raise FixtureError(f"fixture {path}: missing or empty {key!r}")
    instance = TaskInstance(
        id=doc["id"],
        environment=doc["environment"],
        query=doc["query"],
        gold=read("gold", dict, default={}),
        payload=read("payload", dict, default={}),
    )
    read_gold(instance.gold, where=f"fixture {instance.id}: gold", error=FixtureError)
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
