"""CLI surface: config loading, run/compare/replay/report, exit codes."""

from __future__ import annotations

import json
import os
import re
import runpy
import shutil
import subprocess
import sys
import tempfile
import time
import urllib.request
from concurrent.futures import ThreadPoolExecutor
from dataclasses import fields

import pytest

from tdp.baselines import BASELINES
from tdp.cli import CliError, METHODS, dispatch, load_config
from tdp.engine import RunConfig, run_task
from tdp.environments import load_task_instance, make_environment
from tdp.roles import RemoteChatBackend, ScriptedBackend
from tdp.telemetry import TRACE_VERSION, CounterClock, TraceSink, read_trace

from conftest import CONFIG_DIR, FIXTURE_DIR, REPO_ROOT
from scenarios import TRANSPORT_FAULTS, Transport

WIKI_CONFIG = str(CONFIG_DIR / "scripted_wiki.json")
TRAVEL_CONFIG = str(CONFIG_DIR / "scripted_travel.json")
REMOTE_CONFIG = str(CONFIG_DIR / "remote_example.json")
WIKI_TASKS = str(FIXTURE_DIR / "wiki")
WIKI_ONE = str(FIXTURE_DIR / "wiki" / "wiki_peoria.json")
#: A well-formed react rule of a script file.
REACT_RULE = {"match": ["Lookup"], "responses": ["Action: Finish[x]"], "role": "executor:react"}
TRAVEL_ONE = str(FIXTURE_DIR / "travel" / "illinois_trip.json")


# -- config loading -----------------------------------------------------------------


def _remote(**spec):
    """A config whose executor is a remote backend, with `spec` laid over it."""
    return {"backends": {"executor": {
        "kind": "remote", "endpoint": "http://localhost:9/v1/chat/completions",
        "model": "m", "credential_env": "TDP_API_KEY", **spec}}}


def _travel(doc, **tables):
    """`doc` with the given payload tables replaced."""
    return {**doc, "payload": {**doc["payload"], **tables}}


def _first_flight(doc, **fields):
    """`doc` whose first flight row has `fields` laid over it (None drops a key)."""
    first, *rest = doc["payload"]["flights"]
    row = {k: v for k, v in {**first, **fields}.items() if v is not None}
    return _travel(doc, flights=[row, *rest])


class TestLoadConfig:
    def test_shipped_config_round_trips(self):
        config = load_config(WIKI_CONFIG)
        assert config.s_max == 8
        assert config.environment == "mockwiki"
        assert set(config.role_backends) == {"supervisor", "planner", "executor"}
        assert all(isinstance(b, ScriptedBackend) for b in config.role_backends.values())

    def test_missing_config_file(self):
        with pytest.raises(CliError, match="config file not found"):
            load_config("/nowhere/config.json")

    @pytest.mark.parametrize("config", sorted(p.name for p in CONFIG_DIR.glob("*.json")))
    def test_each_shipped_config_loads_with_the_clock_its_backends_imply(
        self, monkeypatch, config
    ):
        """Wall time for the remote config; the counter for the scripted ones,
        whose traces are byte-identical."""
        monkeypatch.setenv("TDP_API_KEY", "k-local-test")
        clock = load_config(CONFIG_DIR / config).make_clock()
        if config == "remote_example.json":
            assert clock is time.time
        else:
            assert isinstance(clock, CounterClock)

    def test_inline_scripted_rules_are_refused(self, tmp_path):
        """A scripted backend's rules come from a script file alone."""
        path = _write_config(tmp_path, {"backends": {"executor": {"kind": "scripted", "rules": [
            {"role": "executor:react", "match": ["anything"], "responses": ["Action: look"]}]}}})
        with pytest.raises(CliError, match="scripted backend: 'rules' must be a string, got \\["):
            load_config(path)

    def test_script_file_resolved_relative_to_config(self, tmp_path):
        (tmp_path / "rules.json").write_text(json.dumps(
            [{"role": "executor:react", "match": [], "responses": ["ok"]}]))
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({
            "backends": {"executor": {"kind": "scripted", "rules": "rules.json"}}}))
        config = load_config(path)
        assert isinstance(config.role_backends["executor"], ScriptedBackend)

    def test_missing_script_file_named_in_error(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({
            "backends": {"executor": {"kind": "scripted", "rules": "ghost.json"}}}))
        with pytest.raises(CliError, match="script file not found.*ghost.json"):
            load_config(path)

    def test_scripted_without_rules(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"backends": {"executor": {"kind": "scripted"}}}))
        with pytest.raises(CliError, match="scripted backend: missing required field 'rules'"):
            load_config(path)

    def test_unknown_backend_kind(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"backends": {"executor": {"kind": "psychic"}}}))
        with pytest.raises(CliError, match="unknown backend kind 'psychic'"):
            load_config(path)

    def test_remote_config_requires_every_field(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"backends": {"executor": {
            "kind": "remote", "endpoint": "https://x", "model": "m"}}}))
        with pytest.raises(CliError,
                           match="remote backend: missing required field 'credential_env'"):
            load_config(path)

    def test_remote_refuses_without_the_credential(self, monkeypatch):
        monkeypatch.delenv("TDP_API_KEY", raising=False)
        with pytest.raises(CliError, match="TDP_API_KEY.*is not set"):
            load_config(REMOTE_CONFIG)

    def test_remote_builds_when_credential_present(self, monkeypatch):
        monkeypatch.setenv("TDP_API_KEY", "k-local-test")
        config = load_config(REMOTE_CONFIG)
        assert all(isinstance(b, RemoteChatBackend)
                   for b in config.role_backends.values())

    def test_every_key_maps_onto_its_run_config_field(self, tmp_path):
        doc = {"environment": "mockwiki", "s_max": 9, "max_replans_per_node": 1,
               "parser_retry_budget": 0}
        config = load_config(_write_config(tmp_path, doc))
        assert {key: getattr(config, key) for key in doc} == doc
        assert config.role_backends == {}

    @pytest.mark.parametrize("doc, message", [
        # the backends set the trace clock
        ({"deterministic_clock": False}, "unknown config key 'deterministic_clock'"),
        ({"s_max": 7.9}, "'s_max' must be an integer, got 7.9"),
        ({"parser_retry_budget": "2"}, "'parser_retry_budget' must be an integer"),
        ({"max_replans_per_node": True}, "'max_replans_per_node' must be an integer"),
        # the --trace-dir flag alone sets the trace directory
        ({"trace_dir": "out"}, "unknown config key 'trace_dir'"),
        # only the packaged templates load, and runs go one after another
        ({"template_dir": "tpl"}, "unknown config key 'template_dir'"),
        ({"parallel_tasks": 2}, "unknown config key 'parallel_tasks'"),
        ({"environment": 3}, "'environment' must be a string or null"),
        ({"s_mx": 8}, "unknown config key 's_mx'"),
        ({"backends": None}, "config: 'backends' must be an object, got None"),
        ({"backends": {"executor": "scripted"}},
         "config: backend 'executor' must be an object, got 'scripted'"),
        ({"s_max": 0}, "s_max must be >= 1"),
        (_remote(temperature=None),
         "remote backend: 'temperature' must be a number or an integer, got None"),
        (_remote(temperature="hot"),
         "remote backend: 'temperature' must be a number or an integer, got 'hot'"),
        (_remote(temperature=True),
         "remote backend: 'temperature' must be a number or an integer, got True"),
        (_remote(endpoint=5), "remote backend: 'endpoint' must be a string, got 5"),
        (_remote(model=" "), "remote backend: 'model' must be a nonblank string, got ' '"),
    ])
    def test_misread_values_and_unknown_keys_are_errors(self, tmp_path, monkeypatch,
                                                        doc, message):
        monkeypatch.setenv("TDP_API_KEY", "k-local-test")
        with pytest.raises(CliError, match=message):
            load_config(_write_config(tmp_path, doc))

    def test_unknown_key_is_exit_two_naming_the_key(self, tmp_path, capsys):
        path = _write_config(tmp_path, {"s_mx": 8})
        code = dispatch(["run", "--method", "tdp", "--tasks", WIKI_ONE,
                         "--config", str(path), "--trace-dir", str(tmp_path)])
        assert code == 2
        assert "unknown config key 's_mx'" in capsys.readouterr().err

    def test_a_backend_for_a_role_no_template_has_is_exit_two_naming_the_roles(
        self, tmp_path, capsys
    ):
        """A misspelt role would build a backend no call uses; it is refused
        with the roles the templates name."""
        path = _write_config(tmp_path, {"backends": {
            "planer": {"kind": "scripted", "rules": "planner.json"},
            "executor": {"kind": "scripted", "rules": "executor.json"}}})
        code = dispatch(["run", "--method", "react", "--tasks", WIKI_ONE,
                         "--config", str(path), "--trace-dir", str(tmp_path)])
        assert code == 2
        assert capsys.readouterr().err == (
            "error: config key 'backends' names unknown role(s) 'planer'; "
            "known roles: executor, planner, supervisor\n")
        assert not list(tmp_path.glob("*.jsonl"))  # refused before any run

    def test_readme_names_exactly_the_config_keys(self):
        """Each top-level bullet of README's "Configuration" section names one
        key ``load_config`` accepts, and every such key has one: the
        :class:`RunConfig` fields, with ``backends`` for ``role_backends``."""
        readme = (REPO_ROOT / "README.md").read_text(encoding="utf-8")
        section = readme.split("\n## Configuration\n", 1)[1].split("\n## ", 1)[0]
        bullets = [line for line in section.splitlines() if line.startswith("- ")]
        keys = [re.match(r"- `(\w+)`", line) for line in bullets]
        assert None not in keys, [line for line, key in zip(bullets, keys) if key is None]
        accepted = {f.name for f in fields(RunConfig)} - {"role_backends"} | {"backends"}
        assert sorted(key.group(1) for key in keys) == sorted(accepted)


def _write_config(tmp_path, doc):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(doc))
    return path


# -- run ---------------------------------------------------------------------------------


class TestRun:
    def test_tdp_over_the_wiki_fixture_dir(self, tmp_path, capsys):
        code = dispatch(["run", "--method", "tdp", "--tasks", WIKI_TASKS,
                         "--config", WIKI_CONFIG, "--trace-dir", str(tmp_path)])
        out = capsys.readouterr().out
        assert code == 0
        assert "completed 3 run(s)" in out
        traces = sorted(p.name for p in tmp_path.glob("*.jsonl"))
        assert traces == ["tdp__wiki_bridge.jsonl", "tdp__wiki_composer.jsonl",
                          "tdp__wiki_peoria.jsonl"]

    def test_demos_report_the_cli_token_counts(self, tmp_path, capsys, monkeypatch):
        """Both demos run tdp on the Peoria fixture; each prints the prompt,
        output and total tokens that `tdp run` prints for the same run."""
        code = dispatch(["run", "--method", "tdp", "--tasks", WIKI_ONE,
                         "--config", WIKI_CONFIG, "--trace-dir", str(tmp_path)])
        assert code == 0
        line = capsys.readouterr().out.splitlines()[0]
        prompt, output = (int(re.search(rf"{key}=(\d+)", line).group(1))
                          for key in ("prompt_tokens", "output_tokens"))
        monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
        for demo, shown in (
            ("run_wiki_demo.py", f"prompt tokens: {prompt}, output tokens: {output}, "
                                 f"total tokens: {prompt + output}"),
            ("replay_trace.py", f"prompt_tokens={prompt} output_tokens={output} "
                                f"total_tokens={prompt + output}"),
        ):
            runpy.run_path(str(REPO_ROOT / "demos" / demo), run_name="__main__")
            assert shown in capsys.readouterr().out, demo
        assert not list(tmp_path.glob("tdp-replay-*"))  # the replay demo cleans up

    def test_the_case_study_demo_shows_the_scoped_repair(self, capsys):
        runpy.run_path(str(REPO_ROOT / "demos" / "run_case_study.py"), run_name="__main__")
        out = capsys.readouterr().out
        assert "node_2: 1  <- plan rewritten here" in out
        assert "Completed (task done) in 9 steps" in out

    def test_an_unknown_method_is_refused_before_any_run(self, tmp_path, capsys):
        for argv, named in ((["run", "--method", "tot"], "'tot'"),
                            (["compare", "--methods", "tdp,tot"], "'tot'"),
                            (["compare", "--methods", "tdp,react,tdp"], "'tdp' is named twice")):
            code = dispatch([*argv, "--tasks", WIKI_ONE, "--config", WIKI_CONFIG,
                             "--trace-dir", str(tmp_path)])
            assert code == 2
            assert named in capsys.readouterr().err
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("command", (["run", "--method", "tdp"],
                                         ["compare", "--methods", "tdp,plan-act"]))
    def test_two_fixtures_with_one_id_are_refused_before_any_run(self, tmp_path, capsys,
                                                                 command):
        """Both runs would write one trace file, the second truncating the first."""
        tasks = tmp_path / "tasks"
        tasks.mkdir()
        for name in ("a.json", "b.json"):
            shutil.copy(FIXTURE_DIR / "wiki" / "wiki_bridge.json", tasks / name)
        code = dispatch([*command, "--tasks", str(tasks), "--config", WIKI_CONFIG,
                         "--trace-dir", str(tmp_path / "traces")])
        out, err = capsys.readouterr()
        assert code == 2 and out == ""
        assert f"fixtures {tasks / 'a.json'} and {tasks / 'b.json'} share the id" in err
        assert not (tmp_path / "traces").exists()

    def test_single_fixture_file(self, tmp_path, capsys):
        code = dispatch(["run", "--method", "react", "--tasks", WIKI_ONE,
                         "--config", WIKI_CONFIG, "--trace-dir", str(tmp_path)])
        out = capsys.readouterr().out
        assert code == 0
        assert "react__wiki_peoria: Completed" in out

    def test_travel_case(self, tmp_path, capsys):
        code = dispatch(["run", "--method", "tdp", "--tasks", TRAVEL_ONE,
                         "--config", TRAVEL_CONFIG, "--trace-dir", str(tmp_path)])
        assert code == 0
        assert "tdp__illinois_trip: Completed" in capsys.readouterr().out

    def test_failed_run_is_one_line_and_exit_one(self, tmp_path, capsys):
        # the travel scripts have no react rules
        code = dispatch(["run", "--method", "react", "--tasks", TRAVEL_ONE,
                         "--config", TRAVEL_CONFIG, "--trace-dir", str(tmp_path)])
        out = capsys.readouterr().out
        assert code == 1
        first, last = out.splitlines()
        assert first.startswith("react__illinois_trip: failed: LookupError: ")
        assert last == "completed 0 run(s), 1 failed"

    @pytest.mark.parametrize("fault", sorted(TRANSPORT_FAULTS))
    def test_a_failed_remote_request_is_one_line_and_exit_one(
        self, tmp_path, capsys, monkeypatch, fault
    ):
        """The first call fails in the transport: the trace records it, and
        the run ends on one failure line naming the error."""
        reply, error = TRANSPORT_FAULTS[fault]
        monkeypatch.setenv("TDP_API_KEY", "sk-test-123")
        monkeypatch.setattr(urllib.request, "urlopen", Transport([reply]))
        code = dispatch(["run", "--method", "tdp", "--tasks", WIKI_ONE,
                         "--config", REMOTE_CONFIG, "--trace-dir", str(tmp_path)])
        assert code == 1
        assert capsys.readouterr().out.splitlines() == [
            f"tdp__wiki_peoria: failed: {error}", "completed 0 run(s), 1 failed"]
        (call,) = [e.payload for e in read_trace(tmp_path / "tdp__wiki_peoria.jsonl")[1]
                   if e.kind == "role_call"]
        assert call["ok"] is False and call["error"] == error

    def test_environment_filter_refuses_mismatched_fixtures(self, tmp_path, capsys):
        code = dispatch(["run", "--method", "tdp",
                         "--tasks", str(FIXTURE_DIR / "travel"),
                         "--config", WIKI_CONFIG, "--trace-dir", str(tmp_path)])
        err = capsys.readouterr().err
        assert code == 2
        assert "no fixtures for environment 'mockwiki'" in err

    def test_missing_tasks_path(self, tmp_path, capsys):
        code = dispatch(["run", "--method", "tdp", "--tasks", "/nowhere",
                         "--config", WIKI_CONFIG, "--trace-dir", str(tmp_path)])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error: tasks path not found")

    def test_missing_config_is_exit_two(self, tmp_path, capsys):
        code = dispatch(["run", "--method", "tdp", "--tasks", WIKI_ONE,
                         "--config", "/nowhere.json", "--trace-dir", str(tmp_path)])
        err = capsys.readouterr().err
        assert code == 2
        assert "config file not found: /nowhere.json" in err

    def test_unknown_method_rejected_by_the_parser(self, tmp_path, capsys):
        code = dispatch(["run", "--method", "zen", "--tasks", WIKI_ONE,
                         "--config", WIKI_CONFIG, "--trace-dir", str(tmp_path)])
        assert code == 2
        assert not list(tmp_path.glob("*.jsonl"))

    @pytest.mark.parametrize("bad_rule, message", [
        ({"match": ["Search"], "role": "executor:react"},
         "script rule [1]: missing required field 'responses'"),
        (["Search", "Finish[x]"], "script rule [1] must be an object"),
        ({**REACT_RULE, "regex": True}, "script rule [1] has unknown key(s) ['regex']"),
        ({**REACT_RULE, "match": "Search"},
         "script rule [1]: 'match' must be a list of strings, got 'Search'"),
    ])
    def test_malformed_script_rule_is_exit_one_with_one_line(self, tmp_path, capsys,
                                                              bad_rule, message):
        script = tmp_path / "executor.json"
        script.write_text(json.dumps([REACT_RULE, bad_rule]))
        path = _write_config(tmp_path, {"backends": {
            "executor": {"kind": "scripted", "rules": "executor.json"}}})
        code = dispatch(["run", "--method", "react", "--tasks", WIKI_ONE,
                         "--config", str(path), "--trace-dir", str(tmp_path)])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith(f"error: script file {script}: {message}")
        assert err.count("\n") == 1 and err.endswith("\n")

    @pytest.mark.parametrize("fixture, edit, message", [
        ("wiki/wiki_peoria.json", lambda doc: [doc], "must be an object, got [{"),
        ("wiki/wiki_peoria.json", lambda doc: {**doc, "gold": "Illinois River"},
         "'gold' must be an object"),
        ("wiki/wiki_peoria.json", lambda doc: {**doc, "payload": ["Peoria"]},
         "'payload' must be an object"),
        ("travel/illinois_trip.json",
         lambda doc: {**doc, "gold": {**doc["gold"], "constraints": ["mentions Peoria"]}},
         "gold: 'constraints' must be a list of objects"),
        ("lab/heat_water.json",
         lambda doc: {**doc, "payload": {**doc["payload"],
                                         "rooms": {**doc["payload"]["rooms"], "lab": "shut"}}},
         "room 'lab' must be an object"),
        ("lab/heat_water.json",
         lambda doc: {**doc, "gold": {"conditions": [["open", "cupboard"]]}},
         "gold: 'conditions' must be a list of objects"),
        ("lab/heat_water.json",
         lambda doc: {**doc, "payload": {**doc["payload"], "rooms": {
             **doc["payload"]["rooms"], "lab": {"connects": 5, "objects": []}}}},
         "room 'lab': 'connects' must be a list of strings"),
        ("lab/heat_water.json",
         lambda doc: {**doc, "payload": {**doc["payload"], "rooms": {
             **doc["payload"]["rooms"], "lab": {"connects": [["hallway"]], "objects": []}}}},
         "room 'lab': 'connects' must be a list of strings"),
        ("lab/heat_water.json",
         lambda doc: {**doc, "payload": {**doc["payload"], "rooms": {
             **doc["payload"]["rooms"], "lab": {"connects": ["hallway"], "objects": 3}}}},
         "room 'lab': 'objects' must be a list of strings"),
        ("lab/heat_water.json",
         lambda doc: {**doc, "payload": {**doc["payload"], "containers": {"cupboard": 3}}},
         "container 'cupboard' must be a list of strings"),
        ("lab/heat_water.json",
         lambda doc: {**doc, "payload": {**doc["payload"], "containers": ["cupboard"]}},
         "payload: 'containers' must be an object"),
        ("lab/heat_water.json",
         lambda doc: {**doc, "payload": {**doc["payload"], "measurements": 5}},
         "payload: 'measurements' must be an object"),
        ("travel/illinois_trip.json", lambda doc: _first_flight(doc, origin=None),
         "payload.flights row: missing required field 'origin'"),
        ("travel/illinois_trip.json", lambda doc: _travel(doc, flights=[5]),
         "payload.flights must be a list of objects, got [5]"),
        ("travel/illinois_trip.json", lambda doc: _first_flight(doc, origin=5),
         "payload.flights row: 'origin' must be a string, got 5"),
        ("travel/illinois_trip.json", lambda doc: _travel(doc, accommodations={"Peoria": 5}),
         "payload.accommodations 'Peoria' must be a list of objects"),
        ("travel/illinois_trip.json",
         lambda doc: _travel(doc, accommodations={"Peoria": [{"room_type": "double",
                                                              "price": 95}]}),
         "payload.accommodations 'Peoria' row: missing required field 'name'"),
        ("travel/illinois_trip.json", lambda doc: _travel(doc, cities={"Illinois": 5}),
         "payload.cities 'Illinois' must be a list of strings"),
    ])
    def test_malformed_fixture_is_exit_one_with_one_line(self, tmp_path, capsys,
                                                         fixture, edit, message):
        doc = json.loads((FIXTURE_DIR / fixture).read_text(encoding="utf-8"))
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(edit(doc)))
        config = TRAVEL_CONFIG if fixture.startswith("travel/") else WIKI_CONFIG
        code = dispatch(["run", "--method", "tdp", "--tasks", str(path),
                         "--config", config, "--trace-dir", str(tmp_path)])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("error: fixture ") and message in err
        assert err.count("\n") == 1 and err.endswith("\n")

    @pytest.mark.parametrize("kind, code", [("config", 2), ("fixture", 1), ("script", 1)])
    def test_a_file_that_is_not_json_is_one_line_naming_it(self, tmp_path, capsys,
                                                            kind, code):
        """A config error exits 2, as every other config error does; a fixture
        or script file that does not parse exits 1, as one that is malformed does."""
        truncated = tmp_path / f"{kind}.json"
        truncated.write_text('{"id": ')
        tasks, config = WIKI_ONE, WIKI_CONFIG
        if kind == "config":
            config = str(truncated)
        elif kind == "fixture":
            tasks = str(truncated)
        else:
            config = str(_write_config(tmp_path, {"backends": {
                "executor": {"kind": "scripted", "rules": truncated.name}}}))
        assert dispatch(["run", "--method", "react", "--tasks", tasks,
                         "--config", config, "--trace-dir", str(tmp_path)]) == code
        err = capsys.readouterr().err
        assert err.startswith(f"error: {truncated}: ")
        assert err.count("\n") == 1 and err.endswith("\n")

    def test_missing_role_backend_is_exit_two_with_one_line(self, tmp_path, capsys):
        (tmp_path / "executor.json").write_text(json.dumps([REACT_RULE]))
        path = _write_config(tmp_path, {"backends": {
            "executor": {"kind": "scripted", "rules": "executor.json"}}})
        code = dispatch(["run", "--method", "tdp", "--tasks", WIKI_ONE,
                         "--config", str(path), "--trace-dir", str(tmp_path)])
        assert code == 2
        assert capsys.readouterr().err == (
            "error: missing backend(s) for role(s): supervisor, planner\n")

    def test_remote_config_refuses_before_any_run(self, tmp_path, capsys, monkeypatch):
        monkeypatch.delenv("TDP_API_KEY", raising=False)
        code = dispatch(["run", "--method", "tdp", "--tasks", WIKI_ONE,
                         "--config", REMOTE_CONFIG, "--trace-dir", str(tmp_path)])
        err = capsys.readouterr().err
        assert code == 2
        assert "TDP_API_KEY" in err
        assert not list(tmp_path.glob("*.jsonl"))

    def test_identical_runs_write_identical_traces(self, tmp_path, capsys):
        for sub in ("a", "b"):
            dispatch(["run", "--method", "tdp", "--tasks", WIKI_ONE,
                      "--config", WIKI_CONFIG, "--trace-dir", str(tmp_path / sub)])
        capsys.readouterr()
        first = (tmp_path / "a" / "tdp__wiki_peoria.jsonl").read_bytes()
        second = (tmp_path / "b" / "tdp__wiki_peoria.jsonl").read_bytes()
        assert first == second


# -- compare -----------------------------------------------------------------------------


class TestCompare:
    def test_four_methods_tabulated(self, tmp_path, capsys):
        code = dispatch(["compare", "--methods", ",".join(METHODS),
                         "--tasks", WIKI_ONE, "--config", WIKI_CONFIG,
                         "--trace-dir", str(tmp_path)])
        out = capsys.readouterr().out
        assert code == 0
        assert "plan-act (ref)" in out
        for method in METHODS:
            assert f"{method}__wiki_peoria" in out
        header = next(l for l in out.splitlines() if l.startswith("method"))
        assert "tok_reduction" in header

    def test_the_compare_demo_prints_the_cli_table(self, tmp_path, capsys):
        """compare_methods.py prints the table `tdp compare` prints for the
        four methods over the wiki fixtures."""
        code = dispatch(["compare", "--methods", "tdp,react,cot,plan-act",
                         "--tasks", WIKI_TASKS, "--config", WIKI_CONFIG,
                         "--reference", "plan-act", "--trace-dir", str(tmp_path)])
        assert code == 0
        table = capsys.readouterr().out.split("\n\n", 1)[1]
        runpy.run_path(str(REPO_ROOT / "demos" / "compare_methods.py"), run_name="__main__")
        assert capsys.readouterr().out == table

    def test_without_plan_act_the_first_method_by_name_is_the_reference(self, tmp_path, capsys):
        code = dispatch(["compare", "--methods", "tdp,react",
                         "--tasks", WIKI_ONE, "--config", WIKI_CONFIG,
                         "--trace-dir", str(tmp_path)])
        out = capsys.readouterr().out
        assert code == 0
        table = out.split("\n\n", 1)[1].splitlines()
        assert table[0].startswith("method") and "tok_reduction" in table[0]
        assert [row.split()[:2] for row in table[2:]] == [["react", "(ref)"], ["tdp", "1"]]

    def test_reference_must_be_among_methods(self, tmp_path, capsys):
        code = dispatch(["compare", "--methods", "tdp,react",
                         "--tasks", WIKI_ONE, "--config", WIKI_CONFIG,
                         "--reference", "cot", "--trace-dir", str(tmp_path)])
        err = capsys.readouterr().err
        assert code == 2
        assert "reference method 'cot' is not among" in err

    @pytest.mark.parametrize("key, value", [("template_dir", "tpl"), ("parallel_tasks", 2)])
    def test_a_dropped_knob_is_one_error_before_any_run(self, tmp_path, capsys, key, value):
        """A config that still sets a knob no run reads is refused once, with
        exit 2, before any run prints a line or writes a trace."""
        doc = json.loads((CONFIG_DIR / "scripted_wiki.json").read_text())
        for spec in doc["backends"].values():
            spec["rules"] = str(CONFIG_DIR / spec["rules"])
        config = _write_config(tmp_path, {**doc, key: value})
        code = dispatch(["compare", "--methods", ",".join(METHODS), "--tasks", WIKI_TASKS,
                         "--config", str(config), "--trace-dir", str(tmp_path / "traces")])
        out, err = capsys.readouterr()
        assert code == 2
        assert err.count(f"unknown config key '{key}'") == 1
        assert out == ""
        assert not list(tmp_path.glob("**/*.jsonl"))

    def test_runs_driven_from_threads_write_the_traces_compare_writes(self, tmp_path, capsys):
        """A library caller may drive the runs from threads: each run, with
        its own sink and clock, writes the bytes the sequential compare does."""
        code = dispatch(["compare", "--methods", ",".join(METHODS), "--tasks", WIKI_TASKS,
                         "--config", WIKI_CONFIG, "--trace-dir", str(tmp_path / "loop")])
        assert code == 0
        capsys.readouterr()
        config = load_config(WIKI_CONFIG)
        instances = [load_task_instance(p) for p in sorted((FIXTURE_DIR / "wiki").glob("*.json"))]
        threaded = tmp_path / "threads"
        threaded.mkdir()

        def run(method, instance):
            run_id = f"{method}__{instance.id}"
            sink = TraceSink(threaded / f"{run_id}.jsonl", clock=config.make_clock())
            runner = run_task if method == "tdp" else BASELINES[method]
            try:
                runner(instance, make_environment(instance.environment), config,
                       sink=sink, run_id=run_id)
            finally:
                sink.close()

        pairs = [(method, instance) for method in METHODS for instance in instances]
        with ThreadPoolExecutor(max_workers=2) as pool:
            list(pool.map(lambda pair: run(*pair), pairs))
        traces = [{p.name: p.read_bytes() for p in (tmp_path / sub).glob("*.jsonl")}
                  for sub in ("loop", "threads")]
        assert len(traces[0]) == len(METHODS) * 3
        assert traces[1] == traces[0]

    def test_a_failing_run_does_not_sink_the_others(self, tmp_path, capsys):
        """The travel scripts have no react rules, so react's run raises.  Its
        failure is one line, tdp's run still finishes, and the exit code is 1;
        with react as the reference there is no table, only a line saying so."""
        doc = json.loads((CONFIG_DIR / "scripted_travel.json").read_text())
        for spec in doc["backends"].values():
            spec["rules"] = str(CONFIG_DIR / spec["rules"])
        config = str(_write_config(tmp_path, doc))
        outs = {}
        for reference in ("tdp", "react"):
            code = dispatch(["compare", "--methods", "tdp,react",
                             "--tasks", str(FIXTURE_DIR / "travel"), "--config", config,
                             "--reference", reference,
                             "--trace-dir", str(tmp_path / reference)])
            assert code == 1
            outs[reference] = capsys.readouterr().out
        for out in outs.values():
            failed = [l for l in out.splitlines() if ": failed: " in l]
            assert failed == [l for l in failed if l.startswith(
                "react__illinois_trip: failed: LookupError: no scripted rule matches role "
                "'executor:react'")]
            assert len(failed) == 1
            assert "tdp__illinois_trip: Completed (task done)" in out
        assert "tdp (ref)" in outs["tdp"]
        assert "react" not in outs["tdp"].split("\n\n", 1)[1]
        assert outs["react"].endswith(
            "\nno table: reference method 'react' has no finished run\n")

    def test_empty_methods_list(self, tmp_path, capsys):
        code = dispatch(["compare", "--methods", " , ", "--tasks", WIKI_ONE,
                         "--config", WIKI_CONFIG, "--trace-dir", str(tmp_path)])
        assert code == 2
        assert "at least one method" in capsys.readouterr().err


# -- replay and report ---------------------------------------------------------------------


def _produce_trace(tmp_path, method="tdp", tasks=WIKI_ONE, config=WIKI_CONFIG):
    assert dispatch(["run", "--method", method, "--tasks", tasks,
                     "--config", config, "--trace-dir", str(tmp_path)]) == 0
    (trace,) = tmp_path.glob(f"{method}__*.jsonl")
    return trace


class TestReplay:
    def test_replay_emits_metrics_json(self, tmp_path, capsys):
        trace = _produce_trace(tmp_path)
        capsys.readouterr()
        code = dispatch(["replay", "--trace", str(trace)])
        out = capsys.readouterr().out
        assert code == 0
        record = json.loads(out.strip())
        assert record["run_id"] == "tdp__wiki_peoria"
        assert record["method"] == "tdp"
        assert record["delivery"] is True
        assert record["accuracy"] is True
        assert record["reason"] == "task done"
        assert record["node_records"] and all(
            node["status"] == "completed" for node in record["node_records"].values())
        assert sorted(record["role_tokens"]) == ["executor", "planner", "supervisor"]
        assert all(count > 0 for role in record["role_tokens"].values() for count in role.values())

    def test_missing_trace(self, capsys):
        code = dispatch(["replay", "--trace", "/nowhere.jsonl"])
        assert code == 2
        assert "trace file not found" in capsys.readouterr().err

    @pytest.mark.parametrize("lines", [
        ["[1, 2]"],
        [json.dumps({"kind": "header", "version": TRACE_VERSION, "meta": {}})],
        [json.dumps({"kind": "header", "version": TRACE_VERSION, "run_id": ["r"], "meta": {}})],
        [json.dumps({"kind": "header", "version": TRACE_VERSION, "run_id": "r", "meta": 5})],
        [json.dumps({"kind": "header", "version": TRACE_VERSION, "run_id": "r", "meta": {}}),
         json.dumps({"kind": "run_end", "run_id": "r", "seq": 0, "ts": 0, "payload": 5})],
        [json.dumps({"kind": "header", "version": TRACE_VERSION, "run_id": "r", "meta": {}}),
         json.dumps({"kind": ["run_end"], "run_id": "r", "seq": 0, "ts": 0})],
        [json.dumps({"kind": "header", "version": True, "run_id": "r", "meta": {}})],
        [json.dumps({"kind": "header", "version": float(TRACE_VERSION), "run_id": "r",
                     "meta": {}})],
    ])
    def test_malformed_trace_is_exit_one_with_one_line(self, tmp_path, capsys, lines):
        path = tmp_path / "bad.jsonl"
        path.write_text("\n".join(lines) + "\n")
        code = dispatch(["replay", "--trace", str(path)])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith(f"error: {path}:{len(lines)}: ")
        assert err.count("\n") == 1 and err.endswith("\n")

    def test_headerless_trace(self, tmp_path, capsys):
        path = tmp_path / "empty.jsonl"
        path.write_text("")
        code = dispatch(["replay", "--trace", str(path)])
        assert code == 2
        assert "no run header" in capsys.readouterr().err


class TestReport:
    def test_report_over_a_glob(self, tmp_path, capsys):
        for method in ("tdp", "plan-act"):
            dispatch(["run", "--method", method, "--tasks", WIKI_ONE,
                      "--config", WIKI_CONFIG, "--trace-dir", str(tmp_path)])
        capsys.readouterr()
        code = dispatch(["report", "--traces", str(tmp_path / "*.jsonl")])
        out = capsys.readouterr().out
        assert code == 0
        assert "plan-act (ref)" in out  # default reference when present
        assert out.splitlines()[0].startswith("method")

    def test_explicit_reference(self, tmp_path, capsys):
        for method in ("tdp", "react"):
            dispatch(["run", "--method", method, "--tasks", WIKI_ONE,
                      "--config", WIKI_CONFIG, "--trace-dir", str(tmp_path)])
        capsys.readouterr()
        code = dispatch(["report", "--traces", str(tmp_path / "*.jsonl"),
                         "--reference", "react"])
        out = capsys.readouterr().out
        assert code == 0
        assert "react (ref)" in out

    def test_a_trace_matched_twice_is_read_once(self, tmp_path, capsys, monkeypatch):
        """A file named by a glob and again by a path, relative this time,
        counts its runs once."""
        for method in ("tdp", "plan-act"):
            dispatch(["run", "--method", method, "--tasks", WIKI_ONE,
                      "--config", WIKI_CONFIG, "--trace-dir", str(tmp_path)])
        capsys.readouterr()
        monkeypatch.chdir(tmp_path)
        code = dispatch(["report", "--traces", str(tmp_path / "*.jsonl"),
                         "tdp__wiki_peoria.jsonl"])
        rows = capsys.readouterr().out.splitlines()[2:]
        assert code == 0
        runs = [row.replace(" (ref)", "").split()[:2] for row in rows]
        assert runs == [["plan-act", "1"], ["tdp", "1"]]

    def test_no_matching_traces(self, tmp_path, capsys):
        code = dispatch(["report", "--traces", str(tmp_path / "*.jsonl")])
        assert code == 2
        assert "no trace files match" in capsys.readouterr().err

    def test_absent_reference_named(self, tmp_path, capsys):
        _produce_trace(tmp_path)  # tdp only
        capsys.readouterr()
        code = dispatch(["report", "--traces", str(tmp_path / "*.jsonl"),
                         "--reference", "react"])
        assert code == 2
        assert "reference method 'react' not present" in capsys.readouterr().err

    def test_a_compare_with_a_failed_run_reports_every_run(self, tmp_path, capsys):
        """The travel scripts have no react rules, so react's run raises; its
        trace still ends on ``run_end``, so the directory reports both methods."""
        code = dispatch(["compare", "--methods", "tdp,react",
                         "--tasks", str(FIXTURE_DIR / "travel"), "--config", TRAVEL_CONFIG,
                         "--reference", "tdp", "--trace-dir", str(tmp_path)])
        assert code == 1
        capsys.readouterr()
        code = dispatch(["report", "--traces", str(tmp_path / "*.jsonl")])
        out = capsys.readouterr().out
        assert code == 0
        assert [line.split()[0] for line in out.splitlines()[2:]] == ["react", "tdp"]
        (end,) = [e for e in read_trace(tmp_path / "react__illinois_trip.jsonl")[1]
                  if e.kind == "run_end"]
        assert end.payload["terminal"] == "Terminated"
        assert end.payload["reason"].startswith(
            "error: LookupError: no scripted rule matches role 'executor:react'")


def _write_cut_trace(path):
    """A trace cut off mid-run, as by a killed process: a header and one event."""
    path.write_text(
        json.dumps({"kind": "header", "version": TRACE_VERSION, "run_id": "tdp__cut",
                    "meta": {}}) + "\n"
        + json.dumps({"kind": "node_status", "run_id": "tdp__cut", "seq": 0, "ts": 0,
                      "payload": {"node_id": "node_1", "status": "in_progress"}}) + "\n")


@pytest.mark.parametrize("command", ["replay", "report"])
def test_a_run_with_no_run_end_is_named(tmp_path, capsys, command):
    """A run with no run_end is an error naming the file and the run."""
    path = tmp_path / "cut.jsonl"
    _write_cut_trace(path)
    code = dispatch([command, "--trace" if command == "replay" else "--traces", str(path)])
    assert code == 1
    assert capsys.readouterr().err == f"error: {path}: run 'tdp__cut': run has no run_end event\n"


def test_report_tabulates_the_runs_it_can_read(tmp_path, capsys):
    """One trace cut off by a killed process does not hide the finished runs."""
    _produce_trace(tmp_path)
    cut = tmp_path / "cut.jsonl"
    _write_cut_trace(cut)
    capsys.readouterr()
    code = dispatch(["report", "--traces", str(tmp_path / "*.jsonl")])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.err == f"error: {cut}: run 'tdp__cut': run has no run_end event\n"
    assert [line.split()[0] for line in captured.out.splitlines()[2:]] == ["tdp"]


def _set_payload(**fields):
    return lambda doc: doc["payload"].update(fields)


def _set_constraints(constraints):
    return lambda doc: doc["meta"]["gold"].update(constraints=constraints)


#: A trace line of a valid run given a field of the wrong type: the kind of
#: the first line changed, the change, and the error that names the field.
MISTYPED_FIELDS = {
    "role_call tokens": ("role_call", _set_payload(prompt_tokens="12"),
                         r"role_call event \d+: 'prompt_tokens' must be an integer or null, "
                         r"got '12'"),
    "run_end env_metrics": ("run_end", _set_payload(env_metrics=3),
                            r"run_end event \d+: 'env_metrics' must be an object, got 3"),
    "header gold": ("header", lambda doc: doc["meta"].update(gold=5),
                    r"'gold' must be an object, got 5"),
    "header method": ("header", lambda doc: doc["meta"].update(method=5),
                      r"compute_metrics: 'method' must be a string, got 5"),
    "env_step scope": ("env_step", _set_payload(scope=None),
                       r"env_step event \d+: 'scope' must be a string, got None"),
    "run_end reward": ("run_end", lambda doc: doc["payload"]["env_metrics"].update(reward="abc"),
                       r"run_end event \d+ env_metrics: 'reward' must be a number or an integer "
                       r"or null, got 'abc'"),
    "run_end answer": ("run_end", lambda doc: doc["payload"]["env_metrics"].update(answer=5),
                       r"run_end event \d+ env_metrics: 'answer' must be a string or null, "
                       r"got 5"),
    "run_end reason": ("run_end", _set_payload(reason=None),
                       r"run_end event \d+: 'reason' must be a string, got None"),
    "node_status status": ("node_status", _set_payload(status=["completed"]),
                           r"node_status event \d+: 'status' must be a string, "
                           r"got \['completed'\]"),
    "header constraint not an object": (
        "header", _set_constraints([5]),
        r"gold: 'constraints' must be a list of objects, got \[5\]"),
    "header constraint without a value": (
        "header", _set_constraints([{"kind": "mentions"}]),
        r"gold constraint \[0\]: missing required field 'value'"),
    "header constraints a string": (
        "header", _set_constraints("Peoria"),
        r"gold: 'constraints' must be a list of objects, got 'Peoria'"),
    "header constraint of an unknown kind": (
        "header", _set_constraints([{"kind": "bogus", "value": "Peoria"}]),
        r"gold constraint \[0\]: 'kind' must be 'mentions' or 'avoids', got 'bogus'"),
    "header constraint with an empty value": (
        "header", _set_constraints([{"kind": "mentions", "value": ""}]),
        r"gold constraint \[0\]: 'value' must be a nonblank string, got ''"),
    "header answer a number": ("header", lambda doc: doc["meta"]["gold"].update(answer=5),
                               r"gold: 'answer' must be a string, got 5"),
    "replan accepted a string": ("replan", _set_payload(accepted="false"),
                                 r"replan event \d+: 'accepted' must be true or false, "
                                 r"got 'false'"),
}


@pytest.mark.parametrize("case", sorted(MISTYPED_FIELDS))
def test_a_mistyped_trace_field_is_named_and_the_other_runs_are_tabulated(
    tmp_path, capsys, case
):
    """Replay names the file, the run and the field; report tabulates the
    good trace beside it.  A travel trace, so that replay grades its plan
    text against the gold constraints."""
    kind, change, message = MISTYPED_FIELDS[case]
    good = _produce_trace(tmp_path, tasks=TRAVEL_ONE, config=TRAVEL_CONFIG)
    docs = [json.loads(line) for line in good.read_text().splitlines()]
    change(next(doc for doc in docs if doc["kind"] == kind))
    bad = tmp_path / "mistyped" / "bad.jsonl"
    bad.parent.mkdir()
    bad.write_text("".join(json.dumps(doc) + "\n" for doc in docs))
    error = re.escape(f"error: {bad}: run 'tdp__illinois_trip': ") + message + "\n"
    capsys.readouterr()
    assert dispatch(["replay", "--trace", str(bad)]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and re.fullmatch(error, captured.err)
    assert dispatch(["report", "--traces", str(good), str(bad)]) == 1
    captured = capsys.readouterr()
    assert re.fullmatch(error, captured.err)
    assert {m: row["runs"] for m, row in _table_rows(captured.out).items()} == {"tdp": "1"}


#: The golden diamond_repair trace given an event its graph cannot be rebuilt
#: from: the kind of the first line changed, the change, and the error.
UNREBUILDABLE = {
    "unknown status": ("node_status", _set_payload(status="weird"),
                       r"node_status event \d+ of run 'tdp__diamond_repair': "
                       r"node 'node_1' has unknown status 'weird'"),
    "construction that does not apply": (
        "graph_constructed",
        lambda doc: doc["payload"]["delta"]["new_nodes"][0]["dependencies"].append("ghost"),
        r"graph_constructed event \d+ of run 'tdp__diamond_repair': delta does not apply: "
        r"dangling: node 'node_1' depends on unknown 'ghost'"),
}


@pytest.mark.parametrize("case", sorted(UNREBUILDABLE))
def test_a_tdp_run_whose_graph_cannot_be_rebuilt_is_an_error(tmp_path, capsys, case):
    """replay and report rebuild each tdp run's graph from its trace, so a
    run with an unknown node status or a construction that does not apply is
    an error line naming the file and run, not a record; report tabulates
    the unchanged trace beside it."""
    kind, change, message = UNREBUILDABLE[case]
    good = tmp_path / "good.jsonl"
    shutil.copyfile(REPO_ROOT / "tests" / "golden" / "tdp" / "diamond_repair.jsonl", good)
    docs = [json.loads(line) for line in good.read_text().splitlines()]
    change(next(doc for doc in docs if doc["kind"] == kind))
    bad = tmp_path / "bad.jsonl"
    bad.write_text("".join(json.dumps(doc) + "\n" for doc in docs))
    error = re.escape(f"error: {bad}: run 'tdp__diamond_repair': ") + message + "\n"
    capsys.readouterr()
    assert dispatch(["replay", "--trace", str(good)]) == 0
    capsys.readouterr()
    assert dispatch(["replay", "--trace", str(bad)]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and re.fullmatch(error, captured.err)
    assert dispatch(["report", "--traces", str(good), str(bad)]) == 1
    captured = capsys.readouterr()
    assert re.fullmatch(error, captured.err)
    assert {m: row["runs"] for m, row in _table_rows(captured.out).items()} == {"tdp": "1"}


def _table_rows(table):
    """{method: {column: cell}} of a comparison table, read by header position."""
    header, _rule, *rows = table.splitlines()
    names = header.split()
    starts = [header.index(name) for name in names]
    ends = starts[1:] + [None]
    return {
        row.split()[0]: {n: row[a:b].strip() for n, a, b in zip(names, starts, ends)}
        for row in rows
    }


def test_token_columns_are_the_role_call_sums_for_every_method(tmp_path, capsys):
    """compare, report and replay count prompt, output and total tokens as
    the role_call events of each run add them up; tok_reduction is on the total."""
    assert dispatch(["compare", "--methods", ",".join(METHODS), "--tasks", WIKI_TASKS,
                     "--config", WIKI_CONFIG, "--trace-dir", str(tmp_path)]) == 0
    compare_table = capsys.readouterr().out.split("\n\n")[-1].strip()
    assert dispatch(["report", "--traces", str(tmp_path / "*.jsonl")]) == 0
    assert capsys.readouterr().out.strip() == compare_table

    sums = {}
    for trace in sorted(tmp_path.glob("*.jsonl")):
        calls = [e.payload for e in read_trace(trace)[1] if e.kind == "role_call"]
        prompt = sum(c["prompt_tokens"] for c in calls)
        output = sum(c["output_tokens"] for c in calls)
        sums.setdefault(trace.name.split("__")[0], []).append((prompt, output))
        assert dispatch(["replay", "--trace", str(trace)]) == 0
        replayed = json.loads(capsys.readouterr().out)
        assert (replayed["avg_prompt_tokens"], replayed["avg_output_tokens"]) == (prompt, output)

    rows = _table_rows(compare_table)
    assert sorted(rows) == sorted(METHODS) and len(sums) == len(METHODS)
    mean = {m: [sum(col) / len(runs) for col in zip(*runs)] for m, runs in sums.items()}
    ref_total = sum(mean["plan-act"])
    for method, (prompt, output) in mean.items():
        row = rows[method]
        assert row["prompt_tokens"] == f"{prompt:.2f}"
        assert row["out_tokens"] == f"{output:.2f}"
        assert row["total_tokens"] == f"{prompt + output:.2f}"
        reduction = 1 - (prompt + output) / ref_total
        assert row["tok_reduction"] == ("-" if method == "plan-act" else f"{reduction:.1%}")


def test_a_run_ended_by_a_backend_error_reads_as_no_token_count(tmp_path, capsys):
    """The travel scripts have rules for tdp only, so the other methods' runs
    end on a backend error before any usage is known: report shows no tokens
    and no reduction for them, not 0 tokens and a 100% reduction."""
    dispatch(["compare", "--methods", "tdp,react,cot,plan-act",
              "--tasks", str(FIXTURE_DIR / "travel"), "--config", TRAVEL_CONFIG,
              "--trace-dir", str(tmp_path)])
    capsys.readouterr()
    assert dispatch(["report", "--traces", str(tmp_path / "*.jsonl"),
                     "--reference", "tdp"]) == 0
    rows = _table_rows(capsys.readouterr().out)
    assert sorted(rows) == ["cot", "plan-act", "react", "tdp"]
    token_columns = ("prompt_tokens", "out_tokens", "total_tokens", "tok_reduction")
    for method in ("cot", "plan-act", "react"):
        assert [rows[method][column] for column in token_columns] == ["-"] * 4, method
    assert float(rows["tdp"]["prompt_tokens"]) > 0


# -- the installed entry point ----------------------------------------------------------


@pytest.mark.skipif(shutil.which("tdp") is None, reason="console script not on PATH")
def test_console_script_exists():
    proc = subprocess.run(["tdp", "--help"], capture_output=True, text=True)
    assert proc.returncode == 0
    assert "run" in proc.stdout and "replay" in proc.stdout


def test_module_entry_point_runs_the_cli():
    env = dict(os.environ, PYTHONPATH=str(REPO_ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, "-m", "tdp.cli", "--help"], capture_output=True, text=True, env=env
    )
    assert proc.returncode == 0
    assert "run" in proc.stdout and "replay" in proc.stdout
