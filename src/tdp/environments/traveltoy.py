"""Deterministic travel-research mock: tabular lookups, a notebook, and a
final plan-assembly call.

Every tool reads fixture tables verbatim; an absent row yields an explicit
empty-result observation (the canonical trigger for plan repair), never an
error or a guess.
"""

from __future__ import annotations

from typing import Any, Callable

from .base import BRACKET_CALL_RE, Command, Environment, FixtureError, StepResult, TaskInstance

# the keys a tool reads from every row of its table; flights and distances
# are lists of rows, the other tables map a city to its list of rows
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


def _check_row(instance_id: str, table: str, keys: tuple[str, ...], row: Any) -> None:
    where = f"fixture {instance_id}: payload.{table} row"
    if not isinstance(row, dict):
        raise FixtureError(f"{where} must be an object, got {row!r}")
    for key in keys:
        if key not in row:
            raise FixtureError(f"{where} lacks {key!r}")
        if key in _MATCHED and not isinstance(row[key], str):
            raise FixtureError(f"{where} field {key!r} must be a string, got {row[key]!r}")


class TravelToy(Environment):
    name = "traveltoy"

    @staticmethod
    def validate_instance(instance: TaskInstance) -> None:
        payload = instance.payload
        for key in ("flights", "distances"):
            if key in payload and not isinstance(payload[key], list):
                raise FixtureError(f"fixture {instance.id}: payload.{key} must be a list")
        for key in ("cities", "accommodations", "restaurants", "attractions"):
            if key in payload and not isinstance(payload[key], dict):
                raise FixtureError(f"fixture {instance.id}: payload.{key} must be a map")
        for state, listed in payload.get("cities", {}).items():
            if not isinstance(listed, list) or not all(isinstance(c, str) for c in listed):
                raise FixtureError(
                    f"fixture {instance.id}: payload.cities {state!r} must be a list of names"
                )
        for table, keys in _ROW_KEYS.items():
            rows = payload.get(table, [])
            groups = rows.items() if isinstance(rows, dict) else [(None, rows)]
            for city, group in groups:
                if not isinstance(group, list):
                    raise FixtureError(
                        f"fixture {instance.id}: payload.{table} {city!r} must be a list of rows"
                    )
                for row in group:
                    _check_row(instance.id, table, keys, row)
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
            "FlightSearch[origin city, destination city, date]",
        ),
        "GoogleDistanceMatrix": Command(
            "GoogleDistanceMatrix[origin, destination, mode] - distance, duration and cost "
            "between two cities (mode: self-driving or taxi)",
            _distance,
            "GoogleDistanceMatrix[origin city, destination city, mode]",
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
            "NotebookWrite[short description of the information to store]",
        ),
        "MakePlan": Command(
            "MakePlan[query] - assemble the final travel plan from the notebook and finish",
            _make_plan,
            "MakePlan[the travel query to plan for]",
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
        # one comma-separated argument per slot of the tool's usage line
        whole = command.handler in self._WHOLE_BRACKET
        args = [a.strip() for a in ([bracket] if whole else bracket.split(","))]
        if len(args) != command.syntax.count(",") + 1 or not all(args):
            return StepResult(f"Usage: {command.syntax}")
        return StepResult(observation=command.handler(self, *args), done=self._done)
