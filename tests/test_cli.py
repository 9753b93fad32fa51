"""CLI surface: config loading, run/compare/replay/report, exit codes."""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import time

import pytest

from tdp.cli import CliError, METHODS, dispatch, load_config
from tdp.roles import RemoteChatBackend, ScriptedBackend
from tdp.telemetry import read_trace

from conftest import CONFIG_DIR, FIXTURE_DIR, REPO_ROOT

WIKI_CONFIG = str(CONFIG_DIR / "scripted_wiki.json")
TRAVEL_CONFIG = str(CONFIG_DIR / "scripted_travel.json")
REMOTE_CONFIG = str(CONFIG_DIR / "remote_example.json")
WIKI_TASKS = str(FIXTURE_DIR / "wiki")
WIKI_ONE = str(FIXTURE_DIR / "wiki" / "wiki_peoria.json")
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

    def test_inline_scripted_rules(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({
            "backends": {"executor": {"kind": "scripted", "rules": [
                {"role": "executor:react", "match": "anything",
                 "responses": "Action: look"}]}},
        }))
        config = load_config(path)
        assert isinstance(config.role_backends["executor"], ScriptedBackend)

    def test_script_file_resolved_relative_to_config(self, tmp_path):
        (tmp_path / "rules.json").write_text(json.dumps(
            [{"role": None, "match": [], "responses": ["ok"]}]))
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
        with pytest.raises(CliError, match="needs 'rules'"):
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
        with pytest.raises(CliError, match="missing 'credential_env'"):
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
        assert config.deterministic_clock is False

    def test_every_key_maps_onto_its_run_config_field(self, tmp_path):
        doc = {"environment": "mockwiki", "s_max": 9, "max_replans_per_node": 1,
               "parser_retry_budget": 0,
               "deterministic_clock": False, "trace_dir": "out", "parallel_tasks": 2}
        config = load_config(_write_config(tmp_path, {**doc, "template_dir": "tpl"}))
        assert {key: getattr(config, key) for key in doc} == doc
        assert config.template_dir == str(tmp_path / "tpl")
        assert config.make_clock() is time.time
        assert config.role_backends == {}

    @pytest.mark.parametrize("doc, message", [
        ({"deterministic_clock": "false"}, "'deterministic_clock' must be true or false"),
        ({"deterministic_clock": 0}, "'deterministic_clock' must be true or false"),
        ({"s_max": 7.9}, "'s_max' must be an integer, got 7.9"),
        ({"parallel_tasks": "2"}, "'parallel_tasks' must be an integer"),
        ({"max_replans_per_node": True}, "'max_replans_per_node' must be an integer"),
        ({"trace_dir": 3}, "'trace_dir' must be a string or null"),
        ({"s_mx": 8}, "unknown config key 's_mx'"),
        ({"backends": None}, "'backends' must map each role to a backend object"),
        ({"backends": {"executor": "scripted"}}, "'backends' must map each role"),
        ({"s_max": 0}, "s_max must be >= 1"),
        (_remote(temperature=None), "remote backend 'temperature' must be a number, got None"),
        (_remote(temperature="hot"), "remote backend 'temperature' must be a number, got 'hot'"),
        (_remote(temperature=True), "remote backend 'temperature' must be a number, got True"),
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
        ({"match": "Search"}, "script rule [1] has no 'responses'"),
        (["Search", "Finish[x]"], "script rule [1] must be an object"),
        ({"match": "Search", "responses": "Finish[x]", "regex": True},
         "script rule [1] has unknown key(s) ['regex']"),
    ])
    def test_malformed_script_rule_is_exit_one_with_one_line(self, tmp_path, capsys,
                                                              bad_rule, message):
        script = tmp_path / "executor.json"
        script.write_text(json.dumps([{"match": "Lookup", "responses": "Finish[x]"}, bad_rule]))
        path = _write_config(tmp_path, {"backends": {
            "executor": {"kind": "scripted", "rules": "executor.json"}}})
        code = dispatch(["run", "--method", "react", "--tasks", WIKI_ONE,
                         "--config", str(path), "--trace-dir", str(tmp_path)])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith(f"error: script file {script}: {message}")
        assert err.count("\n") == 1 and err.endswith("\n")

    @pytest.mark.parametrize("fixture, edit, message", [
        ("wiki/wiki_peoria.json", lambda doc: [doc], "must be a JSON object"),
        ("wiki/wiki_peoria.json", lambda doc: {**doc, "gold": "Illinois River"},
         "'gold' must be an object"),
        ("wiki/wiki_peoria.json", lambda doc: {**doc, "payload": ["Peoria"]},
         "'payload' must be an object"),
        ("travel/illinois_trip.json",
         lambda doc: {**doc, "gold": {**doc["gold"], "constraints": ["mentions Peoria"]}},
         "gold.constraints must be a list of objects"),
        ("lab/heat_water.json",
         lambda doc: {**doc, "payload": {**doc["payload"],
                                         "rooms": {**doc["payload"]["rooms"], "lab": "shut"}}},
         "room 'lab' must be an object"),
        ("lab/heat_water.json",
         lambda doc: {**doc, "gold": {"conditions": [["open", "cupboard"]]}},
         "gold.conditions must be a list of objects"),
        ("lab/heat_water.json",
         lambda doc: {**doc, "payload": {**doc["payload"], "rooms": {
             **doc["payload"]["rooms"], "lab": {"connects": 5, "objects": []}}}},
         "room 'lab' connects must be a list of names"),
        ("lab/heat_water.json",
         lambda doc: {**doc, "payload": {**doc["payload"], "rooms": {
             **doc["payload"]["rooms"], "lab": {"connects": [["hallway"]], "objects": []}}}},
         "room 'lab' connects must be a list of names"),
        ("lab/heat_water.json",
         lambda doc: {**doc, "payload": {**doc["payload"], "rooms": {
             **doc["payload"]["rooms"], "lab": {"connects": ["hallway"], "objects": 3}}}},
         "room 'lab' objects must be a list of names"),
        ("lab/heat_water.json",
         lambda doc: {**doc, "payload": {**doc["payload"], "containers": {"cupboard": 3}}},
         "container 'cupboard' must be a list of names"),
        ("lab/heat_water.json",
         lambda doc: {**doc, "payload": {**doc["payload"], "containers": ["cupboard"]}},
         "payload.containers must be a map"),
        ("lab/heat_water.json",
         lambda doc: {**doc, "payload": {**doc["payload"], "measurements": 5}},
         "payload.measurements must be a map"),
        ("travel/illinois_trip.json", lambda doc: _first_flight(doc, origin=None),
         "payload.flights row lacks 'origin'"),
        ("travel/illinois_trip.json", lambda doc: _travel(doc, flights=[5]),
         "payload.flights row must be an object, got 5"),
        ("travel/illinois_trip.json", lambda doc: _first_flight(doc, origin=5),
         "payload.flights row field 'origin' must be a string, got 5"),
        ("travel/illinois_trip.json", lambda doc: _travel(doc, accommodations={"Peoria": 5}),
         "payload.accommodations 'Peoria' must be a list of rows"),
        ("travel/illinois_trip.json",
         lambda doc: _travel(doc, accommodations={"Peoria": [{"room_type": "double",
                                                              "price": 95}]}),
         "payload.accommodations row lacks 'name'"),
        ("travel/illinois_trip.json", lambda doc: _travel(doc, cities={"Illinois": 5}),
         "payload.cities 'Illinois' must be a list of names"),
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

    def test_missing_role_backend_is_exit_two_with_one_line(self, tmp_path, capsys):
        path = _write_config(tmp_path, {"backends": {
            "executor": {"kind": "scripted", "rules": [{"responses": "Finish[x]"}]}}})
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

    def test_reference_must_be_among_methods(self, tmp_path, capsys):
        code = dispatch(["compare", "--methods", "tdp,react",
                         "--tasks", WIKI_ONE, "--config", WIKI_CONFIG,
                         "--reference", "cot", "--trace-dir", str(tmp_path)])
        err = capsys.readouterr().err
        assert code == 2
        assert "reference method 'cot' is not among" in err

    def test_thread_pool_writes_the_same_traces_and_table(self, tmp_path, capsys):
        doc = json.loads((CONFIG_DIR / "scripted_wiki.json").read_text())
        for spec in doc["backends"].values():
            spec["rules"] = str(CONFIG_DIR / spec["rules"])
        outputs, traces = [], []
        for workers in (1, 2):
            run_dir = tmp_path / f"workers_{workers}"
            run_dir.mkdir()
            config = _write_config(run_dir, {**doc, "parallel_tasks": workers})
            code = dispatch(["compare", "--methods", ",".join(METHODS),
                             "--tasks", WIKI_TASKS, "--config", str(config),
                             "--trace-dir", str(run_dir / "traces")])
            assert code == 0
            outputs.append(capsys.readouterr().out)
            traces.append({p.name: p.read_bytes()
                           for p in (run_dir / "traces").glob("*.jsonl")})
        assert len(traces[0]) == len(METHODS) * 3
        assert traces[1] == traces[0]
        assert outputs[1] == outputs[0]

    @pytest.mark.parametrize("workers", [1, 2])
    def test_a_failing_run_does_not_sink_the_others(self, tmp_path, capsys, workers):
        """The travel scripts have no react rules, so react's run raises.  Its
        failure is one line, tdp's run still finishes, and the exit code is 1;
        with react as the reference there is no table, only a line saying so."""
        doc = json.loads((CONFIG_DIR / "scripted_travel.json").read_text())
        for spec in doc["backends"].values():
            spec["rules"] = str(CONFIG_DIR / spec["rules"])
        config = str(_write_config(tmp_path, {**doc, "parallel_tasks": workers}))
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

    def test_missing_trace(self, capsys):
        code = dispatch(["replay", "--trace", "/nowhere.jsonl"])
        assert code == 2
        assert "trace file not found" in capsys.readouterr().err

    @pytest.mark.parametrize("lines", [
        ["[1, 2]"],
        [json.dumps({"kind": "header", "version": 1, "meta": {}})],
        [json.dumps({"kind": "header", "version": 1, "run_id": ["r"], "meta": {}})],
        [json.dumps({"kind": "header", "version": 1, "run_id": "r", "meta": 5})],
        [json.dumps({"kind": "header", "version": 1, "run_id": "r", "meta": {}}),
         json.dumps({"kind": "run_end", "run_id": "r", "seq": 0, "ts": 0, "payload": 5})],
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
        json.dumps({"kind": "header", "version": 1, "run_id": "tdp__cut", "meta": {}}) + "\n"
        + json.dumps({"kind": "node_dispatched", "run_id": "tdp__cut", "seq": 0, "ts": 0,
                      "payload": {"node_id": "node_1"}}) + "\n")


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
