"""Deterministic text-lab mock: rooms, objects, and dense goal-condition rewards.

An action is a verb and its argument.  Each goal condition contributes an
equal share of reward the first time it is satisfied; shares never un-earn, so
cumulative reward is nondecreasing and capped at 1.0, and the episode ends
when every condition has been met at least once.
"""

from __future__ import annotations

import re
from typing import Any

from .base import Command, Environment, FixtureError, StepResult, TaskInstance

_PUT_RE = re.compile(r"^(.+?)\s+in\s+(.+)$")
_NOTHING = "Nothing happens."

# the condition kinds met by an object in the set of that name; "at" reads the
# current room and "in" a container's contents
_MARKS = ("holding", "activated", "measured", "focused", "open")
_CONDITION_KINDS = ("at", "in", *_MARKS)


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
            targets = [("room", rooms)] if kind == "at" else [("object", objects)]
            if kind == "in":
                targets.append(("container", objects))
            for key, known in targets:
                if cond.get(key) not in known:
                    raise FixtureError(
                        f"fixture {instance.id}: condition targets unknown {key} {cond.get(key)!r}"
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
        self._marked: dict[str, set[str]] = {kind: set() for kind in _MARKS}
        self._containment: dict[str, set[str]] = {}
        self._satisfied_ever: set[int] = set()
        self._settle_rewards()  # an empty goal set is vacuously complete
        return f"{instance.query}\n{self._describe_room()}"

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
        if kind == "in":
            return obj in self._containment.get(cond.get("container", ""), set())
        return obj in self._marked[kind]

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

    def _holder(self, obj: str) -> list[str] | None:
        """The list a visible `obj` lies in: the room's objects or the contents
        of an open container there; None when `obj` is not in sight."""
        room_objects = self._rooms[self._room]["objects"]
        if obj in room_objects:
            return room_objects
        for container in room_objects:
            contents = self._containers.get(container, [])
            if container in self._marked["open"] and obj in contents:
                return contents
        return None

    def _reachable(self, obj: str) -> bool:
        return self._holder(obj) is not None or obj in self._marked["holding"]

    # -- stepping: one handler per verb, given the text after the verb -----------

    def _go(self, room: str) -> str:
        if room in self._rooms[self._room]["connects"]:
            self._room = room
            return self._describe_room()
        return f"You can't go to '{room}' from here."

    def _open(self, obj: str) -> str:
        if self._holder(obj) is None:
            return f"You don't see any {obj} here."
        if obj not in self._containers:
            return f"The {obj} can't be opened."
        if obj in self._marked["open"]:
            return f"The {obj} is already open."
        self._marked["open"].add(obj)
        inside = ", ".join(sorted(self._containers[obj])) or "nothing"
        return f"You open the {obj}. Inside you see: {inside}."

    def _take(self, obj: str) -> str:
        holder = self._holder(obj)
        if holder is None:
            return f"You don't see any {obj} here."
        holder.remove(obj)
        self._marked["holding"].add(obj)
        return f"You take the {obj}."

    def _put(self, argument: str) -> str:
        put = _PUT_RE.match(argument)
        if not put:
            return _NOTHING
        obj, container = put.group(1).strip(), put.group(2).strip()
        if obj not in self._marked["holding"]:
            return f"You are not holding any {obj}."
        if not self._reachable(container):
            return f"You don't see any {container} here."
        self._marked["holding"].discard(obj)
        self._containment.setdefault(container, set()).add(obj)
        return f"You put the {obj} in the {container}."

    def _activate(self, obj: str) -> str:
        if not self._reachable(obj):
            return f"You don't see any {obj} here."
        if obj in self._marked["activated"]:
            return f"The {obj} is already activated."
        self._marked["activated"].add(obj)
        return f"You activate the {obj}."

    def _measure(self, obj: str) -> str:
        if not self._reachable(obj):
            return f"You don't see any {obj} here."
        self._marked["measured"].add(obj)
        reading = self._measurements.get(obj, "a stable reading")
        return f"You measure the {obj}: {reading}."

    def _focus(self, obj: str) -> str:
        if not self._reachable(obj):
            return f"You don't see any {obj} here."
        self._marked["focused"].add(obj)
        return f"You focus on the {obj}."

    commands = {
        "go": Command("go <room> - move to a connected room", _go),
        "open": Command("open <object> - open a container in the current room", _open),
        "take": Command("take <object> - pick up a visible object", _take),
        "put": Command(
            "put <object> in <container> - place a held object into a visible one", _put
        ),
        "activate": Command("activate <object> - switch a visible object on", _activate),
        "measure": Command("measure <object> - take a reading of a visible object", _measure),
        "focus": Command("focus <object> - direct attention to a visible object", _focus),
    }

    def _act(self, action: str) -> StepResult:
        parts = action.split(None, 1)
        command = self.commands.get(parts[0]) if len(parts) == 2 else None
        observation = command.handler(self, parts[1].strip()) if command else _NOTHING
        delta = self._settle_rewards()
        return StepResult(observation=observation, reward_delta=delta, done=self._done)
