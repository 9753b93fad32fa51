"""Mock environments: fixture validation, action semantics, and determinism."""

from __future__ import annotations

import hashlib
import json
import random
import re

import pytest

from tdp.environments import (
    ENVIRONMENTS,
    EnvironmentClosedError,
    FixtureError,
    MockWiki,
    TaskInstance,
    TextLab,
    TravelToy,
    load_task_instance,
    make_environment,
    validate_instance,
)
from tdp.engine import Run, RunConfig
from tdp.environments.base import command_syntax, command_verb
from tdp.roles import ParseFault

from conftest import FIXTURE_DIR, LAB_FIXTURE, TRAVEL_FIXTURE, WIKI_FIXTURES
from envgen import ACTION_POOLS, run_stream, stream_rewards
from scenarios import ChainEnv, chain_instance

ALL_FIXTURES = WIKI_FIXTURES + [TRAVEL_FIXTURE, LAB_FIXTURE]


# -- the command tables and what reads them -----------------------------------

FIXTURE_OF = {load_task_instance(path).environment: path for path in ALL_FIXTURES}


def _junk_call(syntax: str) -> str:
    """The call `syntax` shows, with "zzjunk" in every slot of its argument."""
    syntax = re.sub(r"<[^>]+>", "zzjunk", syntax)
    return re.sub(r"\[(.*)\]", lambda m: f"[{', '.join(['zzjunk'] * len(m[1].split(',')))}]",
                  syntax)


@pytest.mark.parametrize("env_id", sorted(ENVIRONMENTS))
class TestCommandTables:
    def test_admissible_commands_are_the_table_lines_in_order(self, env_id):
        table = ENVIRONMENTS[env_id].commands
        assert make_environment(env_id).admissible_commands() == [c.line for c in table.values()]

    def test_the_run_lists_each_line_and_its_call_syntax(self, env_id):
        """A run renders the table twice: its lines, and each line up to its
        help text, its call syntax."""
        table = ENVIRONMENTS[env_id].commands
        run = Run("tdp", load_task_instance(FIXTURE_OF[env_id]), make_environment(env_id),
                  RunConfig())
        assert run.commands.splitlines() == [c.line for c in table.values()]
        assert run.command_calls.splitlines() == [command_syntax(c.line) for c in table.values()]
        for command in table.values():
            assert command.line.startswith(command_syntax(command.line) + " - ")

    def test_the_executor_reads_the_table_verbs(self, env_id):
        """The execute reader, given the run's command lines, takes a call of
        every table verb and refuses any other verb."""
        instance = load_task_instance(FIXTURE_OF[env_id])
        run = Run("tdp", instance, make_environment(env_id), RunConfig())
        read, view = run.templates["execute"].read, {"admissible_commands": run.commands}
        for command in ENVIRONMENTS[env_id].commands.values():
            action = _junk_call(command_syntax(command.line))
            assert read(action, view) == action
        with pytest.raises(ParseFault, match="must start with one of"):
            read("Xyzzy[zzjunk]", view)

    def test_every_verb_with_a_junk_argument_gets_its_own_reply(self, env_id):
        instance = load_task_instance(FIXTURE_OF[env_id])
        for verb, command in ENVIRONMENTS[env_id].commands.items():
            action = _junk_call(command_syntax(command.line))
            assert action.startswith(verb) and "zzjunk" in action
            unknown = "Xyzzy" + action[len(verb):]
            replies = []
            for attempt in (action, unknown):
                env = make_environment(env_id)
                env.reset(instance)
                replies.append(env.step(attempt).observation)
            assert replies[0] != replies[1], (verb, replies)


def test_the_chain_env_verbs_come_from_its_command_lines():
    run = Run("tdp", chain_instance(3), ChainEnv(), RunConfig())
    read, view = run.templates["execute"].read, {"admissible_commands": run.commands}
    assert [read(action, view) for action in ("work 1", "resolve 1")] == ["work 1", "resolve 1"]
    with pytest.raises(ParseFault, match="must start with one of: resolve, work"):
        read("Finish[x]", view)
    assert command_verb("  resolve <n> - clear the blocker") == "resolve"
    assert run.command_calls == "work <n>\nresolve <n>"
    assert command_syntax("put <object> in <container> - place it - now") == (
        "put <object> in <container>")
    assert command_verb("[x]") == ""


# -- fixture loading and the registry -----------------------------------------


class TestFixtureLoading:
    @pytest.mark.parametrize("path", ALL_FIXTURES, ids=lambda p: p.stem)
    def test_shipped_fixtures_load_clean(self, path):
        instance = load_task_instance(path)
        assert instance.environment in ENVIRONMENTS
        assert instance.query.strip()

    def test_missing_file(self, tmp_path):
        with pytest.raises(FixtureError, match="fixture not found"):
            load_task_instance(tmp_path / "ghost.json")

    @pytest.mark.parametrize("key", ["id", "environment", "query"])
    def test_missing_or_blank_required_key(self, tmp_path, key):
        doc = {"id": "t", "environment": "mockwiki", "query": "q",
               "payload": {"articles": {"A": "Body."}}}
        doc[key] = "   "
        path = tmp_path / "bad.json"
        path.write_text(__import__("json").dumps(doc))
        with pytest.raises(FixtureError, match=f"missing or empty {key!r}"):
            load_task_instance(path)

    def test_unknown_environment_rejected(self):
        instance = TaskInstance(id="t", environment="marsbase", query="q")
        with pytest.raises(FixtureError, match="unknown environment 'marsbase'"):
            validate_instance(instance)

    def test_make_environment_unknown_id(self):
        with pytest.raises(FixtureError, match="known: mockwiki, textlab, traveltoy"):
            make_environment("marsbase")

    def test_make_environment_returns_fresh_instances(self):
        a = make_environment("mockwiki")
        b = make_environment("mockwiki")
        assert a is not b

    def test_fixture_error_is_a_value_error(self):
        assert issubclass(FixtureError, ValueError)
        assert issubclass(EnvironmentClosedError, ValueError)


class TestWikiValidation:
    def _instance(self, articles, gold=None):
        return TaskInstance(id="w", environment="mockwiki", query="q",
                            gold=gold or {}, payload={"articles": articles})

    def test_articles_must_be_nonempty_map(self):
        with pytest.raises(FixtureError, match="payload: 'articles' is empty"):
            MockWiki.validate_instance(self._instance({}))
        with pytest.raises(FixtureError, match=re.escape(
                "fixture w: payload: 'articles' must be an object, got ['not', 'a', 'map']")):
            MockWiki.validate_instance(
                TaskInstance(id="w", environment="mockwiki", query="q",
                             payload={"articles": ["not", "a", "map"]}))

    def test_blank_title_or_body(self):
        with pytest.raises(FixtureError, match="empty article title or body"):
            MockWiki.validate_instance(self._instance({"  ": "Body."}))
        with pytest.raises(FixtureError, match="empty article title or body"):
            MockWiki.validate_instance(self._instance({"Title": "   "}))

    def test_gold_answer_must_occur_in_some_article(self):
        good = self._instance({"A": "The moon is made of basalt."},
                              gold={"answer": "basalt"})
        MockWiki.validate_instance(good)  # no raise
        bad = self._instance({"A": "The moon is made of basalt."},
                             gold={"answer": "cheese"})
        with pytest.raises(FixtureError, match="does not occur in any article"):
            MockWiki.validate_instance(bad)


class TestTravelValidation:
    def test_list_tables_must_be_lists(self):
        bad = TaskInstance(id="t", environment="traveltoy", query="q",
                           payload={"flights": {"no": "rows"}})
        with pytest.raises(FixtureError, match="payload: 'flights' must be a list, got {"):
            TravelToy.validate_instance(bad)

    def test_map_tables_must_be_maps(self):
        bad = TaskInstance(id="t", environment="traveltoy", query="q",
                           payload={"cities": ["Peoria"]})
        with pytest.raises(FixtureError, match=re.escape(
                "payload: 'cities' must be an object, got ['Peoria']")):
            TravelToy.validate_instance(bad)

    @staticmethod
    def _load_with_constraint(tmp_path, constraint):
        doc = json.loads(TRAVEL_FIXTURE.read_text(encoding="utf-8"))
        doc["gold"]["constraints"].append(constraint)
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        return load_task_instance(path)

    def test_constraint_kind_whitelist(self, tmp_path):
        with pytest.raises(FixtureError, match=re.escape(
                "fixture illinois_trip: gold constraint [4]: 'kind' must be 'mentions' or "
                "'avoids', got 'requires'")):
            self._load_with_constraint(tmp_path, {"kind": "requires", "value": "x"})

    def test_constraint_needs_a_value(self, tmp_path):
        with pytest.raises(FixtureError, match=re.escape(
                "fixture illinois_trip: gold constraint [4]: 'value' must be a nonblank "
                "string, got ' '")):
            self._load_with_constraint(tmp_path, {"kind": "mentions", "value": " "})


class TestLabValidation:
    def _payload(self):
        return {
            "start_room": "kitchen",
            "rooms": {"kitchen": {"connects": [], "objects": ["pot"]}},
            "containers": {},
        }

    def test_rooms_required(self):
        bad = TaskInstance(id="l", environment="textlab", query="q",
                           payload={"start_room": "kitchen"})
        with pytest.raises(FixtureError, match="payload: missing required field 'rooms'"):
            TextLab.validate_instance(bad)

    def test_start_room_must_exist(self):
        payload = self._payload()
        payload["start_room"] = "attic"
        bad = TaskInstance(id="l", environment="textlab", query="q", payload=payload)
        with pytest.raises(FixtureError, match="start_room missing from rooms"):
            TextLab.validate_instance(bad)

    def test_connections_must_resolve(self):
        payload = self._payload()
        payload["rooms"]["kitchen"]["connects"] = ["void"]
        bad = TaskInstance(id="l", environment="textlab", query="q", payload=payload)
        with pytest.raises(FixtureError, match="connects to unknown 'void'"):
            TextLab.validate_instance(bad)

    def test_condition_kind_whitelist(self):
        bad = TaskInstance(id="l", environment="textlab", query="q",
                           payload=self._payload(),
                           gold={"conditions": [{"kind": "painted", "object": "pot"}]})
        with pytest.raises(FixtureError, match="unknown condition kind 'painted'"):
            TextLab.validate_instance(bad)

    def test_condition_targets_must_exist(self):
        with pytest.raises(FixtureError, match="unknown object 'ghost'"):
            TextLab.validate_instance(TaskInstance(
                id="l", environment="textlab", query="q", payload=self._payload(),
                gold={"conditions": [{"kind": "holding", "object": "ghost"}]}))
        with pytest.raises(FixtureError, match="unknown room 'attic'"):
            TextLab.validate_instance(TaskInstance(
                id="l", environment="textlab", query="q", payload=self._payload(),
                gold={"conditions": [{"kind": "at", "room": "attic"}]}))
        with pytest.raises(FixtureError, match="unknown container 'vault'"):
            TextLab.validate_instance(TaskInstance(
                id="l", environment="textlab", query="q", payload=self._payload(),
                gold={"conditions": [{"kind": "in", "object": "pot",
                                      "container": "vault"}]}))


#: A mistyped field of a shipped fixture, one or more per mock: the fixture,
#: the change to its document, and the error naming the field in the shape
#: every checked read gives.
MISTYPED_FIXTURE_FIELDS = {
    "wiki article body": (
        FIXTURE_DIR / "wiki" / "wiki_peoria.json",
        lambda doc: doc["payload"]["articles"].update({"Peoria, Illinois": 5}),
        "fixture wiki_peoria: payload.articles 'Peoria, Illinois' must be a string, got 5"),
    "travel flight origin": (
        TRAVEL_FIXTURE, lambda doc: doc["payload"]["flights"][0].update(origin=5),
        "fixture illinois_trip: payload.flights row: 'origin' must be a string, got 5"),
    "travel restaurant row": (
        TRAVEL_FIXTURE, lambda doc: doc["payload"].update(restaurants={"Peoria": [{"name": "x"}]}),
        "fixture illinois_trip: payload.restaurants 'Peoria' row: "
        "missing required field 'avg_cost'"),
    "lab start room": (
        LAB_FIXTURE, lambda doc: doc["payload"].update(start_room=["kitchen"]),
        "fixture heat_water: payload: 'start_room' must be a string, got ['kitchen']"),
    "lab room objects": (
        LAB_FIXTURE, lambda doc: doc["payload"]["rooms"]["lab"].update(objects=3),
        "fixture heat_water: room 'lab': 'objects' must be a list of strings, got 3"),
    "lab condition object": (
        LAB_FIXTURE, lambda doc: doc["gold"]["conditions"][0].update(object=5),
        "fixture heat_water: gold condition [0]: 'object' must be a string, got 5"),
}


@pytest.mark.parametrize("case", sorted(MISTYPED_FIXTURE_FIELDS))
def test_each_mock_names_a_mistyped_fixture_field(tmp_path, case):
    fixture, change, message = MISTYPED_FIXTURE_FIELDS[case]
    doc = json.loads(fixture.read_text(encoding="utf-8"))
    change(doc)
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(FixtureError) as raised:
        load_task_instance(path)
    assert str(raised.value) == message


# -- MockWiki ------------------------------------------------------------------


class TestMockWiki:
    def test_reset_returns_query_and_zeroed_metrics(self, wiki_instance):
        env = make_environment("mockwiki")
        assert env.reset(wiki_instance) == wiki_instance.query
        assert env.metrics() == {
            "answer": None, "delivered": False, "done": False, "env_steps": 0,
        }

    def test_search_exact_is_case_insensitive_and_first_paragraph_only(self, wiki_instance):
        env = make_environment("mockwiki")
        env.reset(wiki_instance)
        obs = env.step("Search[peoria, illinois]").observation
        expected = wiki_instance.payload["articles"]["Peoria, Illinois"].split("\n\n")[0]
        assert obs == expected
        assert "Murray Baker Bridge" not in obs  # second paragraph held back

    def test_search_miss_lists_similar_titles_shortest_first(self, wiki_instance):
        env = make_environment("mockwiki")
        env.reset(wiki_instance)
        obs = env.step("Search[Peoria]").observation
        assert obs == (
            "Could not find an exact page for 'Peoria'. "
            "Similar titles: Peoria, Arizona, Peoria, Illinois."
        )

    def test_search_similar_titles_capped_at_five(self):
        titles = {f"{c}x": "Some body text." for c in "fedcba"}
        instance = TaskInstance(id="w", environment="mockwiki", query="q",
                                payload={"articles": titles})
        env = make_environment("mockwiki")
        env.reset(instance)
        obs = env.step("Search[x]").observation
        assert obs.endswith("Similar titles: ax, bx, cx, dx, ex.")
        assert "fx" not in obs

    def test_search_miss_without_similar(self, wiki_instance):
        env = make_environment("mockwiki")
        env.reset(wiki_instance)
        obs = env.step("Search[zebras]").observation
        assert obs == "Could not find 'zebras'. No similar titles."

    def test_lookup_requires_an_active_page(self, wiki_instance):
        env = make_environment("mockwiki")
        env.reset(wiki_instance)
        obs = env.step("Lookup[river]").observation
        assert obs == "No page is active. Use Search[keyword] first."

    def test_lookup_cursor_walks_matches_in_order_then_exhausts(self, wiki_instance):
        env = make_environment("mockwiki")
        env.reset(wiki_instance)
        env.step("Search[Illinois River]")
        first = env.step("Lookup[Mississippi]").observation
        second = env.step("Lookup[Mississippi]").observation
        third = env.step("Lookup[Mississippi]").observation
        assert first.startswith("(Result 1 / 2) ")
        assert "principal tributary" in first
        assert second.startswith("(Result 2 / 2) ")
        assert "Great Lakes" in second
        assert third == "No more results for 'Mississippi'."

    def test_lookup_keywords_cursor_independently(self, wiki_instance):
        env = make_environment("mockwiki")
        env.reset(wiki_instance)
        env.step("Search[Illinois River]")
        env.step("Lookup[Mississippi]")
        obs = env.step("Lookup[Peoria]").observation
        assert obs.startswith("(Result 1 / 1) ")

    def test_new_search_resets_lookup_cursors(self, wiki_instance):
        env = make_environment("mockwiki")
        env.reset(wiki_instance)
        env.step("Search[Illinois River]")
        env.step("Lookup[Mississippi]")
        env.step("Search[Illinois River]")
        obs = env.step("Lookup[Mississippi]").observation
        assert obs.startswith("(Result 1 / 2) ")

    def test_lookup_no_match_on_page(self, wiki_instance):
        env = make_environment("mockwiki")
        env.reset(wiki_instance)
        env.step("Search[Illinois River]")
        obs = env.step("Lookup[volcano]").observation
        assert obs == "No results for 'volcano' on the current page."

    def test_malformed_action(self, wiki_instance):
        env = make_environment("mockwiki")
        env.reset(wiki_instance)
        for junk in ("look around", "Search[unclosed", "Open[door]"):
            obs = env.step(junk).observation
            assert obs == ("Invalid action. Valid actions: Search[keyword], "
                           "Lookup[keyword], Finish[answer].")

    def test_finish_records_answer_and_ends_episode(self, wiki_instance):
        env = make_environment("mockwiki")
        env.reset(wiki_instance)
        env.step("Search[Peoria, Illinois]")
        result = env.step("Finish[Illinois River]")
        assert result.observation == "Final answer recorded: Illinois River"
        assert result.done and env.done
        assert env.metrics() == {
            "answer": "Illinois River", "delivered": True, "done": True, "env_steps": 2,
        }

    def test_step_after_finish_is_refused(self, wiki_instance):
        env = make_environment("mockwiki")
        env.reset(wiki_instance)
        env.step("Finish[whatever]")
        with pytest.raises(EnvironmentClosedError, match="mockwiki: step"):
            env.step("Search[Peoria]")

    def test_no_reward_channel(self, wiki_instance):
        env = make_environment("mockwiki")
        env.reset(wiki_instance)
        assert env.step("Search[Peoria, Illinois]").reward_delta is None


# -- TravelToy -------------------------------------------------------------------


class TestTravelToy:
    @pytest.fixture
    def env(self, travel_instance):
        env = make_environment("traveltoy")
        env.reset(travel_instance)
        return env

    def test_reset_returns_query(self, travel_instance):
        env = make_environment("traveltoy")
        assert env.reset(travel_instance) == travel_instance.query

    def test_malformed_call(self, env):
        obs = env.step("just do the thing").observation
        assert obs.startswith("Invalid call. Use tool[argument, ...]")
        assert "FlightSearch" in obs and "MakePlan" in obs

    def test_unknown_tool(self, env):
        obs = env.step("Teleport[Peoria]").observation
        assert obs.startswith("Unknown tool 'Teleport'. Tools: ")

    def test_wrong_arity_shows_usage(self, env):
        obs = env.step("FlightSearch[only two, args]").observation
        assert obs == "Usage: FlightSearch[origin, destination, date]"

    def test_blank_argument_shows_usage(self, env):
        assert env.step("CitySearch[  ]").observation == "Usage: CitySearch[state]"

    def test_flight_search_hit_row_format(self, env):
        obs = env.step("FlightSearch[colorado springs, PEORIA, 2024-03-01]").observation
        assert obs == ("F101 | Colorado Springs -> Peoria | 2024-03-01 | "
                       "depart 08:10 arrive 11:45 | $182")

    def test_flight_search_date_is_exact_string_match(self, env):
        obs = env.step("FlightSearch[Colorado Springs, Peoria, 2024-3-1]").observation
        assert obs == "No flights found from Colorado Springs to Peoria on 2024-3-1."

    def test_flight_search_empty_result(self, env):
        obs = env.step("FlightSearch[Peoria, Colorado Springs, 2024-03-04]").observation
        assert obs == "No flights found from Peoria to Colorado Springs on 2024-03-04."

    def test_distance_matrix_hit_and_modes(self, env):
        obs = env.step("GoogleDistanceMatrix[Peoria, Chicago, self-driving]").observation
        assert obs == ("self-driving from Peoria to Chicago: 266 km, "
                       "2 hours 45 minutes, cost $21")
        obs = env.step("GoogleDistanceMatrix[Peoria, Chicago, taxi]").observation
        assert obs.endswith("cost $330")

    def test_distance_matrix_unknown_mode(self, env):
        obs = env.step("GoogleDistanceMatrix[Peoria, Chicago, walking]").observation
        assert obs == "Unknown mode 'walking'. Modes: self-driving, taxi."

    def test_distance_matrix_empty_result(self, env):
        obs = env.step("GoogleDistanceMatrix[Chicago, Peoria, taxi]").observation
        assert obs == "No distance data for Chicago to Peoria by taxi."

    def test_accommodation_rows(self, env):
        obs = env.step("AccommodationSearch[peoria]").observation
        assert obs == ("Riverside Inn | double | $95\n"
                       "Warehouse District Suites | suite | $140")

    def test_accommodation_empty_result(self, env):
        obs = env.step("AccommodationSearch[Dallas]").observation
        assert obs == "No accommodations found in Dallas."

    def test_restaurant_and_attraction_rows(self, env):
        obs = env.step("RestaurantSearch[Peoria]").observation
        assert obs.splitlines()[0] == "Rhythm Kitchen | creole | avg $18"
        obs = env.step("AttractionSearch[Peoria]").observation
        assert obs == "Grand View Drive\nPeoria Riverfront Museum"

    def test_city_search(self, env):
        obs = env.step("CitySearch[illinois]").observation
        assert obs == "Cities in Illinois: Chicago, Peoria, Springfield"
        obs = env.step("CitySearch[Texas]").observation
        assert obs == "No cities known in Texas."

    def test_notebook_keeps_commas_and_counts(self, env):
        obs = env.step("NotebookWrite[flight F101, depart 08:10, $182]").observation
        assert obs == "Noted (1 entries)."
        env.step("NotebookWrite[Riverside Inn double $95]")
        assert env.metrics()["notebook_entries"] == 2

    def test_make_plan_assembles_notebook_and_finishes(self, env):
        env.step("NotebookWrite[flight F101 outbound]")
        env.step("NotebookWrite[stay at Riverside Inn]")
        result = env.step("MakePlan[trip to Peoria]")
        assert result.observation == "Plan created from 2 notebook entries."
        assert result.done and env.done
        metrics = env.metrics()
        assert metrics["delivered"] is True
        assert metrics["plan_text"] == ("Travel plan for: trip to Peoria\n"
                                        "1. flight F101 outbound\n"
                                        "2. stay at Riverside Inn")

    def test_make_plan_singular_entry_wording(self, env):
        env.step("NotebookWrite[one fact]")
        obs = env.step("MakePlan[q]").observation
        assert obs == "Plan created from 1 notebook entry."

    def test_make_plan_with_empty_notebook(self, env):
        result = env.step("MakePlan[bare plan]")
        assert result.observation == "Plan created from 0 notebook entries."
        assert env.metrics()["plan_text"] == "Travel plan for: bare plan"

    def test_step_after_plan_is_refused(self, env):
        env.step("MakePlan[done]")
        with pytest.raises(EnvironmentClosedError, match="traveltoy: step"):
            env.step("CitySearch[Illinois]")

    def test_no_reward_channel(self, env):
        assert env.step("CitySearch[Illinois]").reward_delta is None


# -- TextLab -----------------------------------------------------------------------


class TestTextLab:
    @pytest.fixture
    def env(self, lab_instance):
        env = make_environment("textlab")
        env.reset(lab_instance)
        return env

    def test_reset_shows_query_and_room(self, lab_instance):
        env = make_environment("textlab")
        obs = env.reset(lab_instance)
        assert obs == (lab_instance.query + "\n"
                       "You are in the kitchen. Exits: hallway. "
                       "You see: cupboard, sink, stove.")
        assert env.metrics() == {
            "reward": 0.0, "done": False, "delivered": False,
            "satisfied": 0, "total_conditions": 4, "env_steps": 0,
        }

    def test_full_episode_pays_equal_shares(self, env):
        steps = [
            ("open cupboard", "You open the cupboard. Inside you see: beaker, mug."),
            ("take beaker", "You take the beaker."),
            ("activate stove", "You activate the stove."),
            ("measure beaker", "You measure the beaker: water at 100 degrees Celsius."),
        ]
        for i, (action, expected) in enumerate(steps, start=1):
            result = env.step(action)
            assert result.observation == expected
            assert result.reward_delta == pytest.approx(0.25)
            assert result.done is (i == 4)
        assert env.metrics() == {
            "reward": 1.0, "done": True, "delivered": True,
            "satisfied": 4, "total_conditions": 4, "env_steps": 4,
        }

    def test_step_after_done_is_refused(self, env):
        for action in ("open cupboard", "take beaker", "activate stove", "measure beaker"):
            env.step(action)
        with pytest.raises(EnvironmentClosedError, match="textlab: step"):
            env.step("focus beaker")

    def test_satisfied_conditions_never_unearn(self, env):
        env.step("open cupboard")
        env.step("take beaker")
        assert env.metrics()["reward"] == pytest.approx(0.5)
        result = env.step("put beaker in sink")  # no longer holding the beaker
        assert result.observation == "You put the beaker in the sink."
        assert result.reward_delta == pytest.approx(0.0)
        assert env.metrics()["reward"] == pytest.approx(0.5)
        assert env.metrics()["satisfied"] == 2

    def test_container_contents_hidden_until_opened(self, env):
        assert env.step("take beaker").observation == "You don't see any beaker here."
        env.step("open cupboard")
        assert env.step("take beaker").observation == "You take the beaker."

    def test_open_branches(self, env):
        assert env.step("open ghost").observation == "You don't see any ghost here."
        assert env.step("open sink").observation == "The sink can't be opened."
        env.step("open cupboard")
        assert env.step("open cupboard").observation == "The cupboard is already open."

    def test_activate_branches(self, env):
        env.step("activate stove")
        assert env.step("activate stove").observation == "The stove is already activated."
        assert env.step("activate comet").observation == "You don't see any comet here."

    def test_movement_and_room_descriptions(self, env):
        assert env.step("go lab").observation == "You can't go to 'lab' from here."
        obs = env.step("go hallway").observation
        assert obs == "You are in the hallway. Exits: kitchen, lab. You see: nothing."
        obs = env.step("go lab").observation
        assert obs == "You are in the lab. Exits: hallway. You see: scale, thermometer."

    def test_measure_default_reading_and_focus(self, env):
        env.step("go hallway")
        env.step("go lab")
        assert env.step("measure scale").observation == ("You measure the scale: "
                                                         "a stable reading.")
        assert env.step("focus thermometer").observation == ("You focus on the "
                                                             "thermometer.")

    def test_put_requires_held_object_and_visible_container(self, env):
        assert env.step("put mug in sink").observation == "You are not holding any mug."
        env.step("open cupboard")
        env.step("take mug")
        assert env.step("put mug in thermometer").observation == (
            "You don't see any thermometer here.")
        assert env.step("put mug in sink").observation == "You put the mug in the sink."

    def test_carried_objects_stay_reachable_across_rooms(self, env):
        env.step("open cupboard")
        env.step("take beaker")
        env.step("go hallway")
        assert env.step("measure beaker").observation == (
            "You measure the beaker: water at 100 degrees Celsius.")

    def test_junk_actions_do_nothing(self, env):
        for junk in ("look", "open", "dance wildly"):
            result = env.step(junk)
            assert result.observation == "Nothing happens."
            assert result.reward_delta == pytest.approx(0.0)

    def test_at_condition(self):
        instance = TaskInstance(
            id="walk", environment="textlab", query="Walk to the lab.",
            gold={"conditions": [{"kind": "at", "room": "lab"}]},
            payload={"start_room": "kitchen",
                     "rooms": {"kitchen": {"connects": ["lab"], "objects": []},
                               "lab": {"connects": ["kitchen"], "objects": []}}})
        env = make_environment("textlab")
        env.reset(instance)
        result = env.step("go lab")
        assert result.reward_delta == pytest.approx(1.0)
        assert result.done

    def test_in_condition(self):
        instance = TaskInstance(
            id="stow", environment="textlab", query="Put the key in the box.",
            gold={"conditions": [{"kind": "in", "object": "key", "container": "box"}]},
            payload={"start_room": "lab",
                     "rooms": {"lab": {"connects": [], "objects": ["box"]}},
                     "containers": {"box": ["key"]}})
        env = make_environment("textlab")
        env.reset(instance)
        env.step("open box")
        env.step("take key")
        result = env.step("put key in box")
        assert result.done and result.reward_delta == pytest.approx(1.0)

    def test_empty_goal_set_is_complete_at_reset(self):
        instance = TaskInstance(
            id="idle", environment="textlab", query="Nothing to do.",
            payload={"start_room": "lab",
                     "rooms": {"lab": {"connects": [], "objects": []}}})
        env = make_environment("textlab")
        env.reset(instance)
        assert env.done
        assert env.metrics()["reward"] == pytest.approx(1.0)
        with pytest.raises(EnvironmentClosedError):
            env.step("look")


# -- determinism ---------------------------------------------------------------------


class TestDeterminism:
    @pytest.mark.parametrize(
        "path",
        [FIXTURE_DIR / "wiki" / "wiki_peoria.json", TRAVEL_FIXTURE, LAB_FIXTURE],
        ids=lambda p: p.stem,
    )
    def test_replayed_streams_are_identical(self, path):
        instance = load_task_instance(path)
        make_actions = ACTION_POOLS[instance.environment]
        for seed in range(30):
            actions = make_actions(random.Random(seed), instance, 25)
            log_a, metrics_a = run_stream(instance, actions)
            log_b, metrics_b = run_stream(instance, actions)
            assert log_a == log_b
            assert metrics_a == metrics_b

    def test_cumulative_reward_bounded_and_monotone(self):
        instance = load_task_instance(LAB_FIXTURE)
        for seed in range(30):
            actions = ACTION_POOLS["textlab"](random.Random(seed), instance, 40)
            log, _ = run_stream(instance, actions)
            running = stream_rewards(log)
            assert all(0.0 <= r <= 1.0 + 1e-9 for r in running)
            assert all(b >= a - 1e-9 for a, b in zip(running, running[1:]))

    @pytest.mark.parametrize("path", [FIXTURE_DIR / "wiki" / "wiki_peoria.json",
                                      TRAVEL_FIXTURE], ids=lambda p: p.stem)
    def test_reward_channel_silent_outside_textlab(self, path):
        instance = load_task_instance(path)
        actions = ACTION_POOLS[instance.environment](random.Random(7), instance, 20)
        log, _ = run_stream(instance, actions)
        assert all(entry[2] is None for entry in log[1:])


# SHA-256 of ``json.dumps([log, metrics], sort_keys=True)`` for the seeded
# 40-action stream of seeds 0-4 on each shipped fixture.  The streams reach
# observations no golden trace does (usage lines, unknown tools, invalid
# calls, unknown modes, exhausted lookups), so a refactor of the mocks must
# keep every one of these hashes.
OBSERVATION_PINS = {
    "wiki_bridge": [
        "e1af7c851acd569450e5303aa8be0c5ff5d7e8a0801a6b2777d4ee5c911f0e9c",
        "5b53d5b53794ae0101b985356f9eedbb69105650320f9d54a64a72eaf3d463a2",
        "71f582b58be31e747089a2590dbcbf99b7975ca93f5b4349c0e0f224667aeb80",
        "916a27ba4854d189bef2bc4522eb69637ef01bbe50c7d9b1e92355ed6ef08599",
        "b96c8339d0635583abe4cadaf4c50370de9590fd11730297169d73b48a7300a7",
    ],
    "wiki_composer": [
        "916c4ebc93e45a6aa932e16cfb607959d3c8c77717297c3ae1dd5c56b5bf1783",
        "5f7db8316267df1332155f976ff0ecea513d710d78c14a361eeac32a4770bdee",
        "879e862480eadc53872184df1336d813f11c7a3e8e5efacfdcec12d6e7bbc1f9",
        "c463a3985f8f5d334da0b6c03c78acc075870b5e41e14f5c2eeb3e9a04de5cd4",
        "f9d0d443eaf820daae620456c82e76a16e6912161cda5fbb34814c2a4bcfd79a",
    ],
    "wiki_peoria": [
        "739ca1d2f239c105c7ca11243f85438e4d2e3211de836254d0cf9fddbda9f94d",
        "4699622852fe837160a499c1121313ce5fd56a762d1d76ea7f514d6bd8ef97bb",
        "0cdf29b7f2e08000b336b59c508c7c5fbe01fba8564a1f6848b2b6b4e5b52cf9",
        "8f26fb4131dc8cf8bd34ec4db23d81bf33e3c30db6686f0f6cc0c43ab863f4eb",
        "ccbd1376e27962194ab93c0d79b7105c7d99278631b941eaa49b6a273dc350f7",
    ],
    "illinois_trip": [
        "74098b0ae5c6bd39751534e312a68c9b9d8e81bcc97be3654b00bd86a721319c",
        "763e32059d884aa304deb57384fe6936e5cc0c13eb48266980899fc35edbb343",
        "e192ab141846c3ceb2600390036a0227cb0220fac8cfee8717dd51b714645d15",
        "a594724e6b99f39b9354cafb6993ebca13ccf0290d44e6df90aff24fad5ffeb8",
        "ad395b2bbc13f8a395ee84eac8ae3b3773be1adcfff6e82ec1a86126c0e8a8f6",
    ],
    "heat_water": [
        "fb44e9bfd295fba6ccf5c6f9dcd08f0223ba847e1311d8f812bdca7675bfe0f3",
        "fde7fe8ff25235b68f38535759b00dcbe76451790b3b92b55bebba5a1c8f9e1e",
        "9635553685835b316338a0a05404744f7e7d05d5383f4f3b3921b745c692ed7c",
        "72d3cdf43a163c3343bee97c060b5dffaf811b0b4b9b953188af78195c328389",
        "dea34a3aef7d4bc30486d32529a3be58f7c0050d5022c385d3df599d66c7833d",
    ],
}


class TestObservationPins:
    @pytest.mark.parametrize("path", ALL_FIXTURES, ids=lambda p: p.stem)
    def test_seeded_streams_match_recorded_hashes(self, path):
        instance = load_task_instance(path)
        make_actions = ACTION_POOLS[instance.environment]
        digests = []
        for seed in range(5):
            log, metrics = run_stream(instance, make_actions(random.Random(seed), instance, 40))
            blob = json.dumps([log, metrics], sort_keys=True).encode("utf-8")
            digests.append(hashlib.sha256(blob).hexdigest())
        assert digests == OBSERVATION_PINS[path.stem]
