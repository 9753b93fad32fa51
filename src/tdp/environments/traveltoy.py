"""Deterministic travel-research mock: tabular lookups, a notebook, and a
final plan-assembly call.

Every tool reads fixture tables verbatim; an absent row yields an explicit
empty-result observation (the canonical trigger for plan repair), never an
error or a guess.
"""

from __future__ import annotations

from functools import partial
from typing import Any

from ..fields import check_value, read_field
from .base import (
    BRACKET_CALL_RE, Command, Environment, FixtureError, StepResult, TaskInstance, command_syntax,
)

# the keys a tool reads from every row of its table; the tables in _LISTS
# are lists of rows, the others map a city to its list of rows
_LISTS = ("flights", "distances")
_ROW_KEYS = {
    "flights": ("origin", "destination", "date", "flight_no", "depart", "arrive", "price"),
    "distances": ("from", "to", "mode", "distance_km", "duration", "cost"),
    "accommodations": ("name", "price"),
    "restaurants": ("name", "avg_cost"),
    "attractions": ("name",),
}
# row fields compared with a tool's arguments as text
_MATCHED = ("origin", "destination", "from", "to", "mode")

_MODES = ("self-driving", "taxi")


def _norm(text: str) -> str:
    return text.strip().casefold()


def _table_search(table: str, row_format: str):
    """The tool listing `table`'s rows for one city, each filled into
    `row_format`, where a room type defaults to "room" and a cuisine to "food"."""

    def search(env: TravelToy, city: str) -> str:
        for name, rows in env._payload.get(table, {}).items():
            if _norm(name) == _norm(city):
                if not rows:
                    break
                return "\n".join(
                    row_format.format_map({"room_type": "room", "cuisine": "food", **row})
                    for row in rows
                )
        return f"No {table} found in {city}."

    return search


class TravelToy(Environment):
    name = "traveltoy"

    @staticmethod
    def validate_instance(instance: TaskInstance) -> None:
        where = f"fixture {instance.id}: payload"
        read = partial(read_field, instance.payload, where=where, error=FixtureError)
        for state, listed in read("cities", dict, default={}).items():
            check_value(listed, list[str], name=f"{where}.cities {state!r}", error=FixtureError)
        for table, keys in _ROW_KEYS.items():
            if table in _LISTS:
                groups = {f"{where}.{table}": read(table, list, default=[])}
            else:
                groups = {f"{where}.{table} {city!r}": rows
                          for city, rows in read(table, dict, default={}).items()}
            for name, rows in groups.items():
                for row in check_value(rows, list[dict], name=name, error=FixtureError):
                    for key in keys:
                        types = (str,) if key in _MATCHED else ()
                        read_field(row, key, *types, where=f"{name} row", error=FixtureError)

    def _start(self, instance: TaskInstance) -> str:
        self._payload = dict(instance.payload)
        self._notebook: list[str] = []
        self._plan_text: str | None = None
        return instance.query

    def _metrics(self) -> dict[str, Any]:
        return {
            "plan_text": self._plan_text,
            "delivered": self._plan_text is not None,
            "notebook_entries": len(self._notebook),
        }

    # -- tools ---------------------------------------------------------------

    def _flight_search(self, origin: str, destination: str, date: str) -> str:
        rows = [
            row
            for row in self._payload.get("flights", [])
            if _norm(row["origin"]) == _norm(origin)
            and _norm(row["destination"]) == _norm(destination)
            and row["date"] == date
        ]
        if not rows:
            return f"No flights found from {origin} to {destination} on {date}."
        lines = [
            f"{row['flight_no']} | {row['origin']} -> {row['destination']} | {row['date']} | "
            f"depart {row['depart']} arrive {row['arrive']} | ${row['price']}"
            for row in rows
        ]
        return "\n".join(lines)

    def _distance(self, origin: str, destination: str, mode: str) -> str:
        if _norm(mode) not in _MODES:
            return f"Unknown mode '{mode}'. Modes: {', '.join(_MODES)}."
        rows = [
            row
            for row in self._payload.get("distances", [])
            if _norm(row["from"]) == _norm(origin)
            and _norm(row["to"]) == _norm(destination)
            and _norm(row["mode"]) == _norm(mode)
        ]
        if not rows:
            return f"No distance data for {origin} to {destination} by {mode}."
        row = rows[0]
        return (
            f"{row['mode']} from {row['from']} to {row['to']}: {row['distance_km']} km, "
            f"{row['duration']}, cost ${row['cost']}"
        )

    def _city_search(self, state: str) -> str:
        cities = self._payload.get("cities", {})
        for name, listed in cities.items():
            if _norm(name) == _norm(state):
                if listed:
                    return f"Cities in {name}: {', '.join(listed)}"
                break
        return f"No cities known in {state}."

    def _notebook_write(self, note: str) -> str:
        self._notebook.append(note)
        return f"Noted ({len(self._notebook)} entries)."

    def _make_plan(self, query: str) -> str:
        lines = [f"Travel plan for: {query}"]
        for i, note in enumerate(self._notebook, start=1):
            lines.append(f"{i}. {note}")
        self._plan_text = "\n".join(lines)
        self._done = True
        return f"Plan created from {len(self._notebook)} notebook entr{'y' if len(self._notebook) == 1 else 'ies'}."

    # the tools that take their whole bracket, commas and all, as one argument
    _WHOLE_BRACKET = (_notebook_write, _make_plan)

    commands = {
        "FlightSearch": Command(
            "FlightSearch[origin, destination, date] - list flights between two cities on a date",
            _flight_search,
        ),
        "GoogleDistanceMatrix": Command(
            "GoogleDistanceMatrix[origin, destination, mode] - distance, duration and cost "
            "between two cities (mode: self-driving or taxi)",
            _distance,
        ),
        "AccommodationSearch": Command(
            "AccommodationSearch[city] - list places to stay in a city",
            _table_search("accommodations", "{name} | {room_type} | ${price}"),
        ),
        "RestaurantSearch": Command(
            "RestaurantSearch[city] - list restaurants in a city",
            _table_search("restaurants", "{name} | {cuisine} | avg ${avg_cost}"),
        ),
        "AttractionSearch": Command(
            "AttractionSearch[city] - list attractions in a city",
            _table_search("attractions", "{name}"),
        ),
        "CitySearch": Command("CitySearch[state] - list cities in a state", _city_search),
        "NotebookWrite": Command(
            "NotebookWrite[note] - store one piece of gathered information in the notebook",
            _notebook_write,
        ),
        "MakePlan": Command(
            "MakePlan[query] - assemble the final travel plan from the notebook and finish",
            _make_plan,
        ),
    }

    def _act(self, action: str) -> StepResult:
        tools = ", ".join(sorted(self.commands))
        match = BRACKET_CALL_RE.match(action.strip())
        if not match:
            return StepResult(f"Invalid call. Use tool[argument, ...] — one of: {tools}")
        tool, bracket = match.groups()
        command = self.commands.get(tool)
        if command is None:
            return StepResult(f"Unknown tool '{tool}'. Tools: {tools}.")
        # one comma-separated argument per slot of the tool's call syntax
        syntax = command_syntax(command.line)
        whole = command.handler in self._WHOLE_BRACKET
        args = [a.strip() for a in ([bracket] if whole else bracket.split(","))]
        if len(args) != syntax.count(",") + 1 or not all(args):
            return StepResult(f"Usage: {syntax}")
        return StepResult(observation=command.handler(self, *args), done=self._done)
