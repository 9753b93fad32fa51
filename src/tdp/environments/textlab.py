"""Deterministic text-lab mock: rooms, objects, and dense goal-condition rewards.

Actions are plain verb phrases (``go kitchen``, ``open drawer``, ``put key in
pot`` ...).  Each goal condition contributes an equal share of reward the
first time it is satisfied; shares never un-earn, so cumulative reward is
nondecreasing and capped at 1.0, and the episode ends when every condition
has been met at least once.
"""

from __future__ import annotations

import re
from typing import Any

from .base import Environment, FixtureError, StepResult, TaskInstance

_PUT_RE = re.compile(r"^put\s+(.+?)\s+in\s+(.+)$")

_CONDITION_KINDS = ("at", "holding", "activated", "measured", "focused", "open", "in")


def _is_name_list(value: Any) -> bool:
    return isinstance(value, list) and all(isinstance(item, str) for item in value)


class TextLab(Environment):
    name = "textlab"

    # -- fixture checks -------------------------------------------------------

    @staticmethod
    def _world_objects(payload: dict[str, Any]) -> set[str]:
        objects: set[str] = set()
        for room in payload.get("rooms", {}).values():
            objects.update(room.get("objects", []))
        for contents in payload.get("containers", {}).values():
            objects.update(contents)
        return objects

    @classmethod
    def validate_instance(cls, instance: TaskInstance) -> None:
        payload = instance.payload
        rooms = payload.get("rooms")
        if not isinstance(rooms, dict) or not rooms:
            raise FixtureError(f"fixture {instance.id}: payload.rooms must be a nonempty map")
        if payload.get("start_room") not in rooms:
            raise FixtureError(f"fixture {instance.id}: start_room missing from rooms")
        for name, room in rooms.items():
            if not isinstance(room, dict):
                raise FixtureError(f"fixture {instance.id}: room {name!r} must be an object")
            for key in ("connects", "objects"):
                if not _is_name_list(room.get(key, [])):
                    raise FixtureError(
                        f"fixture {instance.id}: room {name!r} {key} must be a list of names"
                    )
            for other in room.get("connects", []):
                if other not in rooms:
                    raise FixtureError(
                        f"fixture {instance.id}: room {name!r} connects to unknown {other!r}"
                    )
        for key in ("containers", "measurements"):
            if not isinstance(payload.get(key, {}), dict):
                raise FixtureError(f"fixture {instance.id}: payload.{key} must be a map")
        for name, contents in payload.get("containers", {}).items():
            if not _is_name_list(contents):
                raise FixtureError(
                    f"fixture {instance.id}: container {name!r} must be a list of names"
                )
        objects = cls._world_objects(payload)
        conditions = instance.gold.get("conditions", [])
        if not isinstance(conditions, list) or not all(isinstance(c, dict) for c in conditions):
            raise FixtureError(f"fixture {instance.id}: gold.conditions must be a list of objects")
        for cond in conditions:
            kind = cond.get("kind")
            if kind not in _CONDITION_KINDS:
                raise FixtureError(f"fixture {instance.id}: unknown condition kind {kind!r}")
            if kind == "at":
                if cond.get("room") not in rooms:
                    raise FixtureError(
                        f"fixture {instance.id}: condition targets unknown room "
                        f"{cond.get('room')!r}"
                    )
            else:
                if cond.get("object") not in objects:
                    raise FixtureError(
                        f"fixture {instance.id}: condition targets unknown object "
                        f"{cond.get('object')!r}"
                    )
                if kind == "in" and cond.get("container") not in objects:
                    raise FixtureError(
                        f"fixture {instance.id}: condition targets unknown container "
                        f"{cond.get('container')!r}"
                    )

    # -- lifecycle -------------------------------------------------------------

    def _start(self, instance: TaskInstance) -> str:
        payload = instance.payload
        self._rooms = {
            name: {
                "connects": list(room.get("connects", [])),
                "objects": list(room.get("objects", [])),
            }
            for name, room in payload["rooms"].items()
        }
        self._containers = {k: list(v) for k, v in payload.get("containers", {}).items()}
        self._measurements = dict(payload.get("measurements", {}))
        self._conditions = [dict(c) for c in instance.gold.get("conditions", [])]
        self._room = payload["start_room"]
        self._inventory: set[str] = set()
        self._opened: set[str] = set()
        self._activated: set[str] = set()
        self._measured: set[str] = set()
        self._focused: set[str] = set()
        self._containment: dict[str, set[str]] = {}
        self._satisfied_ever: set[int] = set()
        self._settle_rewards()  # an empty goal set is vacuously complete
        return f"{instance.query}\n{self._describe_room()}"

    def admissible_commands(self) -> list[str]:
        return [
            "go <room> - move to a connected room",
            "open <object> - open a container in the current room",
            "take <object> - pick up a visible object",
            "put <object> in <container> - place a held object into a visible one",
            "activate <object> - switch a visible object on",
            "measure <object> - take a reading of a visible object",
            "focus <object> - direct attention to a visible object",
        ]

    def _metrics(self) -> dict[str, Any]:
        return {
            "reward": self._cumulative_reward(),
            "delivered": self._done,
            "satisfied": len(self._satisfied_ever),
            "total_conditions": len(self._conditions),
        }

    # -- reward bookkeeping ------------------------------------------------------

    def _condition_holds(self, cond: dict[str, Any]) -> bool:
        kind = cond["kind"]
        if kind == "at":
            return self._room == cond["room"]
        obj = cond.get("object", "")
        if kind == "holding":
            return obj in self._inventory
        if kind == "activated":
            return obj in self._activated
        if kind == "measured":
            return obj in self._measured
        if kind == "focused":
            return obj in self._focused
        if kind == "open":
            return obj in self._opened
        return obj in self._containment.get(cond.get("container", ""), set())

    def _cumulative_reward(self) -> float:
        if not self._conditions:
            return 1.0
        return len(self._satisfied_ever) / len(self._conditions)

    def _settle_rewards(self) -> float:
        before = self._cumulative_reward()
        for i, cond in enumerate(self._conditions):
            if i not in self._satisfied_ever and self._condition_holds(cond):
                self._satisfied_ever.add(i)
        if not self._conditions or len(self._satisfied_ever) == len(self._conditions):
            self._done = True
        return self._cumulative_reward() - before

    # -- world helpers ----------------------------------------------------------

    def _describe_room(self) -> str:
        room = self._rooms[self._room]
        exits = ", ".join(sorted(room["connects"])) or "none"
        seen = ", ".join(sorted(room["objects"])) or "nothing"
        return f"You are in the {self._room}. Exits: {exits}. You see: {seen}."

    def _visible(self, obj: str) -> bool:
        if obj in self._rooms[self._room]["objects"]:
            return True
        for container in self._rooms[self._room]["objects"]:
            if container in self._opened and obj in self._containers.get(container, []):
                return True
        return False

    def _reachable(self, obj: str) -> bool:
        return self._visible(obj) or obj in self._inventory

    # -- stepping -----------------------------------------------------------------

    def _apply(self, action: str) -> str:
        put = _PUT_RE.match(action)
        if put:
            obj, container = put.group(1).strip(), put.group(2).strip()
            if obj not in self._inventory:
                return f"You are not holding any {obj}."
            if not self._reachable(container):
                return f"You don't see any {container} here."
            self._inventory.discard(obj)
            self._containment.setdefault(container, set()).add(obj)
            return f"You put the {obj} in the {container}."

        parts = action.split(None, 1)
        if len(parts) != 2:
            return "Nothing happens."
        verb, arg = parts[0], parts[1].strip()

        if verb == "go":
            if arg in self._rooms[self._room]["connects"]:
                self._room = arg
                return self._describe_room()
            return f"You can't go to '{arg}' from here."
        if verb == "open":
            if not self._visible(arg):
                return f"You don't see any {arg} here."
            if arg not in self._containers:
                return f"The {arg} can't be opened."
            if arg in self._opened:
                return f"The {arg} is already open."
            self._opened.add(arg)
            inside = ", ".join(sorted(self._containers[arg])) or "nothing"
            return f"You open the {arg}. Inside you see: {inside}."
        if verb == "take":
            if not self._visible(arg):
                return f"You don't see any {arg} here."
            room_objects = self._rooms[self._room]["objects"]
            if arg in room_objects:
                room_objects.remove(arg)
            else:
                for container in list(room_objects):
                    if container in self._opened and arg in self._containers.get(container, []):
                        self._containers[container].remove(arg)
                        break
            self._inventory.add(arg)
            return f"You take the {arg}."
        if verb == "activate":
            if not self._reachable(arg):
                return f"You don't see any {arg} here."
            if arg in self._activated:
                return f"The {arg} is already activated."
            self._activated.add(arg)
            return f"You activate the {arg}."
        if verb == "measure":
            if not self._reachable(arg):
                return f"You don't see any {arg} here."
            self._measured.add(arg)
            reading = self._measurements.get(arg, "a stable reading")
            return f"You measure the {arg}: {reading}."
        if verb == "focus":
            if not self._reachable(arg):
                return f"You don't see any {arg} here."
            self._focused.add(arg)
            return f"You focus on the {arg}."
        return "Nothing happens."

    def _act(self, action: str) -> StepResult:
        observation = self._apply(action.strip())
        delta = self._settle_rewards()
        return StepResult(observation=observation, reward_delta=delta, done=self._done)
