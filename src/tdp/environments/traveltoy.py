"""Deterministic travel-research mock: tabular lookups, a notebook, and a
final plan-assembly call.

Every tool reads fixture tables verbatim; an absent row yields an explicit
empty-result observation (the canonical trigger for plan repair), never an
error or a guess.
"""

from __future__ import annotations

import re
from typing import Any

from .base import Environment, FixtureError, StepResult, TaskInstance

_CALL_RE = re.compile(r"^([A-Za-z]+)\[(.*)\]$", re.DOTALL)

_TOOL_ARITY = {
    "FlightSearch": 3,
    "GoogleDistanceMatrix": 3,
    "AccommodationSearch": 1,
    "RestaurantSearch": 1,
    "AttractionSearch": 1,
    "CitySearch": 1,
    "NotebookWrite": 1,
    "MakePlan": 1,
}

_USAGE = {
    "FlightSearch": "FlightSearch[origin city, destination city, date]",
    "GoogleDistanceMatrix": "GoogleDistanceMatrix[origin city, destination city, mode]",
    "AccommodationSearch": "AccommodationSearch[city]",
    "RestaurantSearch": "RestaurantSearch[city]",
    "AttractionSearch": "AttractionSearch[city]",
    "CitySearch": "CitySearch[state]",
    "NotebookWrite": "NotebookWrite[short description of the information to store]",
    "MakePlan": "MakePlan[the travel query to plan for]",
}

_MODES = ("self-driving", "taxi")


def _norm(text: str) -> str:
    return text.strip().casefold()


class TravelToy(Environment):
    name = "traveltoy"

    def __init__(self) -> None:
        self._payload: dict[str, Any] = {}
        self._notebook: list[str] = []
        self._plan_text: str | None = None
        self._done = False
        self._steps = 0

    @staticmethod
    def validate_instance(instance: TaskInstance) -> None:
        payload = instance.payload
        for key in ("flights", "distances"):
            if key in payload and not isinstance(payload[key], list):
                raise FixtureError(f"fixture {instance.id}: payload.{key} must be a list")
        for key in ("cities", "accommodations", "restaurants", "attractions"):
            if key in payload and not isinstance(payload[key], dict):
                raise FixtureError(f"fixture {instance.id}: payload.{key} must be a map")
        constraints = instance.gold.get("constraints", [])
        if not isinstance(constraints, list) or not all(isinstance(c, dict) for c in constraints):
            raise FixtureError(f"fixture {instance.id}: gold.constraints must be a list of objects")
        for constraint in constraints:
            kind = constraint.get("kind")
            if kind not in ("mentions", "avoids"):
                raise FixtureError(
                    f"fixture {instance.id}: unknown constraint kind {kind!r}"
                )
            if not str(constraint.get("value", "")).strip():
                raise FixtureError(f"fixture {instance.id}: constraint without a value")

    def reset(self, instance: TaskInstance) -> str:
        self.validate_instance(instance)
        self._payload = dict(instance.payload)
        self._notebook = []
        self._plan_text = None
        self._done = False
        self._steps = 0
        return instance.query

    def admissible_commands(self) -> list[str]:
        return [
            "FlightSearch[origin, destination, date] - list flights between two cities on a date",
            "GoogleDistanceMatrix[origin, destination, mode] - distance, duration and cost "
            "between two cities (mode: self-driving or taxi)",
            "AccommodationSearch[city] - list places to stay in a city",
            "RestaurantSearch[city] - list restaurants in a city",
            "AttractionSearch[city] - list attractions in a city",
            "CitySearch[state] - list cities in a state",
            "NotebookWrite[note] - store one piece of gathered information in the notebook",
            "MakePlan[query] - assemble the final travel plan from the notebook and finish",
        ]

    @property
    def done(self) -> bool:
        return self._done

    def metrics(self) -> dict[str, Any]:
        return {
            "plan_text": self._plan_text,
            "delivered": self._plan_text is not None,
            "done": self._done,
            "notebook_entries": len(self._notebook),
            "env_steps": self._steps,
        }

    # -- tools ---------------------------------------------------------------

    def _flight_search(self, origin: str, destination: str, date: str) -> str:
        rows = [
            row
            for row in self._payload.get("flights", [])
            if _norm(row["origin"]) == _norm(origin)
            and _norm(row["destination"]) == _norm(destination)
            and row["date"] == date.strip()
        ]
        if not rows:
            return f"No flights found from {origin.strip()} to {destination.strip()} on {date.strip()}."
        lines = [
            f"{row['flight_no']} | {row['origin']} -> {row['destination']} | {row['date']} | "
            f"depart {row['depart']} arrive {row['arrive']} | ${row['price']}"
            for row in rows
        ]
        return "\n".join(lines)

    def _distance(self, origin: str, destination: str, mode: str) -> str:
        if _norm(mode) not in _MODES:
            return f"Unknown mode '{mode.strip()}'. Modes: {', '.join(_MODES)}."
        rows = [
            row
            for row in self._payload.get("distances", [])
            if _norm(row["from"]) == _norm(origin)
            and _norm(row["to"]) == _norm(destination)
            and _norm(row["mode"]) == _norm(mode)
        ]
        if not rows:
            return (
                f"No distance data for {origin.strip()} to {destination.strip()} "
                f"by {mode.strip()}."
            )
        row = rows[0]
        return (
            f"{row['mode']} from {row['from']} to {row['to']}: {row['distance_km']} km, "
            f"{row['duration']}, cost ${row['cost']}"
        )

    def _table_search(self, table: str, city: str, render) -> str:
        books = self._payload.get(table, {})
        for name, rows in books.items():
            if _norm(name) == _norm(city):
                if not rows:
                    break
                return "\n".join(render(row) for row in rows)
        return f"No {table} found in {city.strip()}."

    def _city_search(self, state: str) -> str:
        cities = self._payload.get("cities", {})
        for name, listed in cities.items():
            if _norm(name) == _norm(state):
                if listed:
                    return f"Cities in {name}: {', '.join(listed)}"
                break
        return f"No cities known in {state.strip()}."

    def _make_plan(self, query: str) -> str:
        lines = [f"Travel plan for: {query.strip()}"]
        for i, note in enumerate(self._notebook, start=1):
            lines.append(f"{i}. {note}")
        self._plan_text = "\n".join(lines)
        self._done = True
        return f"Plan created from {len(self._notebook)} notebook entr{'y' if len(self._notebook) == 1 else 'ies'}."

    def step(self, action: str) -> StepResult:
        self._guard_open()
        self._steps += 1
        match = _CALL_RE.match(action.strip())
        if not match:
            return StepResult(
                observation="Invalid call. Use tool[argument, ...] — one of: "
                + ", ".join(sorted(_TOOL_ARITY))
            )
        tool, raw_args = match.group(1), match.group(2)
        if tool not in _TOOL_ARITY:
            return StepResult(
                observation=f"Unknown tool '{tool}'. Tools: {', '.join(sorted(_TOOL_ARITY))}."
            )
        if tool in ("NotebookWrite", "MakePlan"):
            args = [raw_args]
        else:
            args = [a.strip() for a in raw_args.split(",")]
        if len(args) != _TOOL_ARITY[tool] or any(not a.strip() for a in args):
            return StepResult(observation=f"Usage: {_USAGE[tool]}")

        if tool == "FlightSearch":
            return StepResult(observation=self._flight_search(*args))
        if tool == "GoogleDistanceMatrix":
            return StepResult(observation=self._distance(*args))
        if tool == "AccommodationSearch":
            return StepResult(
                observation=self._table_search(
                    "accommodations",
                    args[0],
                    lambda r: f"{r['name']} | {r.get('room_type', 'room')} | ${r['price']}",
                )
            )
        if tool == "RestaurantSearch":
            return StepResult(
                observation=self._table_search(
                    "restaurants",
                    args[0],
                    lambda r: f"{r['name']} | {r.get('cuisine', 'food')} | avg ${r['avg_cost']}",
                )
            )
        if tool == "AttractionSearch":
            return StepResult(
                observation=self._table_search(
                    "attractions", args[0], lambda r: str(r["name"])
                )
            )
        if tool == "CitySearch":
            return StepResult(observation=self._city_search(args[0]))
        if tool == "NotebookWrite":
            self._notebook.append(args[0].strip())
            return StepResult(observation=f"Noted ({len(self._notebook)} entries).")
        return StepResult(observation=self._make_plan(args[0]), done=True)
