"""Trace sink, replayable metrics, and the comparison report."""

from __future__ import annotations

import ast
import builtins
import json
import os
import threading
from pathlib import Path

import pytest

from tdp.baselines import BASELINES
from tdp.cli import load_config
from tdp.engine import run_task
from tdp.environments import load_task_instance, make_environment
from tdp.fields import _NAMES
from tdp.telemetry import (
    EVENT_FIELDS,
    CounterClock,
    MetricsRecord,
    SequenceError,
    TraceError,
    TraceEvent,
    TraceSink,
    compare_report,
    compute_metrics,
    normalize_answer,
    read_trace,
)

from conftest import CONFIG_DIR, FIXTURE_DIR, REPO_ROOT
from scenarios import ChainEnv, chain_config, chain_instance, tdp_chain_rules, with_fault

#: The ``tdp-revise/chain3`` golden case as trace version 1 wrote it:
#: ``graph_constructed`` holds a graph snapshot instead of a delta.
V1_TRACE = Path(__file__).with_name("trace_v1.jsonl")


#: A payload of each event kind holding every required field, for events
#: built by hand.
PAYLOADS = {
    "node_dispatched": {"node_id": "n"},
    "node_status": {"node_id": "n", "status": "completed", "replan_count": 0},
    "role_call": {"role": "planner", "template": "plan", "scope": "global", "attempts": 1,
                  "prompt_tokens": 0, "output_tokens": 0, "prompt_chars": 0, "ok": True},
    "env_step": {"step_index": 1, "action": "look", "observation": "ok", "reward_delta": None,
                 "done": False, "scope": "global"},
    "replan": {"scope": "global", "accepted": False, "replan_count": 0},
    "run_end": {"terminal": "Completed", "reason": "task done", "delivered": True,
                "method": "tdp", "env_metrics": {}},
}


def _payload(kind, **fields):
    return {**PAYLOADS[kind], **fields}


def _run_end(run_id="r1", **overrides):
    return _event(0, "run_end", run_id=run_id, **overrides)


def _file_backed_run(path, instance, monkeypatch):
    """One scripted tdp run into a sink on `path`; every handle opened on
    `path` meanwhile, in order."""
    handles = []
    real_open = builtins.open

    def recording_open(file, *args, **kwargs):
        handle = real_open(file, *args, **kwargs)
        if isinstance(file, (str, os.PathLike)) and os.fspath(file) == os.fspath(path):
            handles.append(handle)
        return handle

    monkeypatch.setattr(builtins, "open", recording_open)
    config = load_config(CONFIG_DIR / "scripted_wiki.json")
    sink = TraceSink(path, clock=config.make_clock())
    report = run_task(instance, make_environment(instance.environment), config, sink=sink)
    monkeypatch.undo()
    return sink, report, handles


def _event(seq, kind, run_id="r1", **fields):
    return TraceEvent(run_id=run_id, seq=seq, timestamp=float(seq), kind=kind,
                      payload=_payload(kind, **fields))


# -- sink and sequence discipline ----------------------------------------------


class TestTraceSink:
    def test_emit_numbers_events_contiguously_from_zero(self):
        sink = TraceSink(clock=CounterClock())
        sink.begin_run("r1", {"method": "tdp"})
        first = sink.emit("r1", "node_dispatched", node_id="node_1")
        second = sink.emit("r1", "node_status", **_payload("node_status", node_id="node_1"))
        assert (first.seq, second.seq) == (0, 1)
        assert [e.kind for e in sink.events_for("r1")] == ["node_dispatched", "node_status"]

    def test_interleaved_runs_stay_contiguous_per_run(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        sink = TraceSink(path, clock=CounterClock())
        sink.begin_run("a", {})
        sink.begin_run("b", {})
        sink.emit("a", "node_dispatched", node_id="n")
        sink.emit("b", "node_dispatched", node_id="n")
        sink.emit("a", "node_status", **_payload("node_status"))
        assert [e.seq for e in sink.events_for("a")] == [0, 1]
        assert [e.seq for e in sink.events_for("b")] == [0]
        headers, _ = read_trace(path)
        assert set(headers) == {"a", "b"}
        sink.close()

    def test_runs_on_their_own_threads_stay_contiguous_per_run(self, tmp_path):
        """Runs that append to one sink from their own threads each number
        their events 0, 1, 2, ..., and the file reads back whole."""
        path = tmp_path / "trace.jsonl"
        sink = TraceSink(path, clock=CounterClock())
        run_ids = [f"r{i}" for i in range(4)]

        def worker(run_id):
            sink.begin_run(run_id, {})
            for i in range(200):
                sink.emit(run_id, "node_dispatched", node_id=f"n{i}")

        threads = [threading.Thread(target=worker, args=(run_id,)) for run_id in run_ids]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        sink.close()
        for run_id in run_ids:
            events = sink.events_for(run_id)
            assert [e.seq for e in events] == list(range(200))
            assert [e.payload["node_id"] for e in events] == [f"n{i}" for i in range(200)]
        headers, events = read_trace(path)
        assert set(headers) == set(run_ids)
        assert len(events) == 800
        assert len({e.timestamp for e in events}) == 800  # one clock, one tick per event

    def test_duplicate_run_id_refused(self):
        sink = TraceSink()
        sink.begin_run("r1", {})
        with pytest.raises(TraceError, match="already started"):
            sink.begin_run("r1", {})

    def test_event_without_header_refused(self):
        sink = TraceSink()
        with pytest.raises(TraceError, match="has no header"):
            sink.emit("r1", "node_dispatched", node_id="n")
        assert sink.events_for("r1") == []

    def test_unknown_kind_refused(self):
        sink = TraceSink()
        sink.begin_run("r1", {})
        with pytest.raises(TraceError, match="unknown event kind 'telemetry'"):
            sink.emit("r1", "telemetry")
        # the refused event takes no sequence number
        assert sink.emit("r1", "node_dispatched", node_id="n").seq == 0

    def test_counter_clock_ticks_deterministically(self):
        clock = CounterClock()
        assert [clock() for _ in range(3)] == [0.0, 1.0, 2.0]

    def test_counter_clock_is_thread_safe(self):
        clock = CounterClock()
        seen = []

        def worker():
            for _ in range(200):
                seen.append(clock())

        threads = [threading.Thread(target=worker) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert len(set(seen)) == 800

    def test_file_mirroring_and_truncation(self, tmp_path):
        path = tmp_path / "runs.jsonl"
        path.write_text("stale content\n")
        sink = TraceSink(path, clock=CounterClock())
        sink.begin_run("r1", {"method": "react"})
        sink.emit("r1", "run_end", **_payload("run_end"))
        lines = path.read_text().splitlines()
        assert len(lines) == 2
        header = json.loads(lines[0])
        assert header["kind"] == "header" and header["meta"]["method"] == "react"
        assert json.loads(lines[1])["kind"] == "run_end"
        sink.close()

    def test_a_file_backed_run_opens_its_trace_once(self, tmp_path, wiki_instance, monkeypatch):
        path = tmp_path / "run.jsonl"
        sink, report, handles = _file_backed_run(path, wiki_instance, monkeypatch)
        assert len(handles) == 1
        lines = path.read_text(encoding="utf-8").splitlines()
        assert len(lines) == 1 + len(sink.events_for(report.run_id))

    def test_the_run_closes_its_trace_handle(self, tmp_path, wiki_instance, monkeypatch):
        path = tmp_path / "run.jsonl"
        _sink, _report, (handle,) = _file_backed_run(path, wiki_instance, monkeypatch)
        assert handle.closed

    def test_a_closed_sink_reopens_for_appending(self, tmp_path):
        path = tmp_path / "runs.jsonl"
        sink = TraceSink(path, clock=CounterClock())
        sink.begin_run("a", {})
        sink.emit("a", "run_end", **_payload("run_end"))
        sink.close()
        sink.begin_run("b", {})
        sink.emit("b", "run_end", **_payload("run_end"))
        sink.close()
        headers, events = read_trace(path)
        assert list(headers) == ["a", "b"]
        assert [e.run_id for e in events] == ["a", "b"]

    def test_a_sink_without_a_file_serialises_no_line(self, monkeypatch):
        """An in-memory sink keeps its events as objects: a run completes
        with no event turned into a trace line, and a header whose meta no
        JSON can hold is kept without being written."""

        def refuse(event):
            raise AssertionError(f"serialised {event.kind} event {event.seq}")

        monkeypatch.setattr(TraceEvent, "to_line", refuse)
        sink = TraceSink(clock=CounterClock())
        report = run_task(chain_instance(3), ChainEnv(), chain_config(3, tdp_chain_rules(3)),
                          sink=sink, run_id="r")
        assert report.terminal == "Completed" and sink.events_for("r")[-1].kind == "run_end"
        sink.begin_run("unwritable", {"method": object()})


_HEADER = json.dumps({"kind": "header", "version": 1, "run_id": "r", "meta": {}})


class TestReadTrace:
    def _write(self, tmp_path, lines):
        path = tmp_path / "trace.jsonl"
        path.write_text("\n".join(lines) + "\n")
        return path

    def test_round_trip_through_file(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        sink = TraceSink(path, clock=CounterClock())
        sink.begin_run("r1", {"method": "tdp", "gold": {"answer": "x"}})
        sink.emit("r1", "node_dispatched", node_id="node_1")
        sink.emit("r1", "run_end", **_payload("run_end"))
        headers, events = read_trace(path)
        assert headers["r1"]["meta"]["gold"] == {"answer": "x"}
        assert events == sink.events_for("r1")
        sink.close()

    def test_blank_lines_tolerated(self, tmp_path):
        header = json.dumps({"kind": "header", "version": 1, "run_id": "r", "meta": {}})
        event = _event(0, "run_end", run_id="r").to_line()
        path = self._write(tmp_path, [header, "", event, ""])
        headers, events = read_trace(path)
        assert list(headers) == ["r"] and len(events) == 1

    def test_non_json_line(self, tmp_path):
        path = self._write(tmp_path, ["{not json"])
        with pytest.raises(TraceError, match=r"trace\.jsonl:1: not JSON"):
            read_trace(path)

    @pytest.mark.parametrize("lines, message", [
        (["[1, 2]"], r"trace\.jsonl:1: line must be an object, got \[1, 2\]"),
        (["5"], r"trace\.jsonl:1: line must be an object, got 5"),
        ([json.dumps({"kind": "header", "version": 1, "meta": {}})],
         r"trace\.jsonl:1: header: missing required field 'run_id'"),
        ([_HEADER, json.dumps({"kind": "run_end", "seq": 0, "ts": 0})],
         r"trace\.jsonl:2: run_end event: missing required field 'run_id'"),
        ([_HEADER, json.dumps({"kind": "run_end", "run_id": "r", "ts": 0})],
         r"trace\.jsonl:2: run_end event: missing required field 'seq'"),
        ([_HEADER, json.dumps({"kind": "run_end", "run_id": "r", "seq": 0})],
         r"trace\.jsonl:2: run_end event: missing required field 'ts'"),
        ([json.dumps({"kind": "header", "version": 1, "run_id": ["r"], "meta": {}})],
         r"trace\.jsonl:1: header: 'run_id' must be a string, got \['r'\]"),
        ([json.dumps({"kind": "header", "version": 1, "run_id": "r", "meta": 5})],
         r"trace\.jsonl:1: header: 'meta' must be an object, got 5"),
        ([_HEADER, json.dumps({"kind": "run_end", "run_id": "r", "seq": 0, "ts": 0,
                               "payload": 5})],
         r"trace\.jsonl:2: run_end event: 'payload' must be an object, got 5"),
        ([_HEADER, json.dumps({"kind": "run_end", "run_id": ["r"], "seq": 0, "ts": 0})],
         r"trace\.jsonl:2: run_end event: 'run_id' must be a string, got \['r'\]"),
        ([_HEADER, json.dumps({"kind": "run_end", "run_id": "r", "seq": True, "ts": 0})],
         r"trace\.jsonl:2: run_end event: 'seq' must be an integer, got True"),
        ([_HEADER, json.dumps({"kind": "run_end", "run_id": "r", "seq": 0, "ts": "yesterday"})],
         r"trace\.jsonl:2: run_end event: 'ts' must be a number or an integer, got 'yesterday'"),
        ([_HEADER, json.dumps({"kind": ["run_end"], "run_id": "r", "seq": 0, "ts": 0})],
         r"trace\.jsonl:2: line: 'kind' must be a string, got \['run_end'\]"),
        ([json.dumps({"run_id": "r", "seq": 0, "ts": 0})],
         r"trace\.jsonl:1: line: missing required field 'kind'"),
    ])
    def test_malformed_line_names_path_and_line(self, tmp_path, lines, message):
        path = self._write(tmp_path, lines)
        with pytest.raises(TraceError, match=message):
            read_trace(path)

    @pytest.mark.parametrize("version, message", [
        (99, r"trace\.jsonl:1: unsupported trace version 99"),
        (True, r"trace\.jsonl:1: header: 'version' must be an integer, got True"),
        (2.0, r"trace\.jsonl:1: header: 'version' must be an integer, got 2\.0"),
    ])
    def test_unsupported_version(self, tmp_path, version, message):
        """A bool or a float never passes as a version, even one equal to 1 or 2."""
        header = json.dumps({"kind": "header", "version": version, "run_id": "r", "meta": {}})
        path = self._write(tmp_path, [header])
        with pytest.raises(TraceError, match=message):
            read_trace(path)

    def test_unknown_kind_in_file(self, tmp_path):
        header = json.dumps({"kind": "header", "version": 1, "run_id": "r", "meta": {}})
        bogus = json.dumps({"kind": "banana", "run_id": "r", "seq": 0, "ts": 0})
        path = self._write(tmp_path, [header, bogus])
        with pytest.raises(TraceError, match="unknown event kind 'banana'"):
            read_trace(path)

    def test_event_before_header(self, tmp_path):
        path = self._write(tmp_path, [_event(0, "run_end", run_id="r").to_line()])
        with pytest.raises(TraceError, match="event before header for run 'r'"):
            read_trace(path)

    def test_second_header_for_a_run_refused(self, tmp_path):
        """A run id headed twice would merge two runs' events into one."""
        path = self._write(
            tmp_path,
            [_HEADER, _event(0, "node_dispatched", run_id="r", node_id="n").to_line(),
             _event(1, "run_end", run_id="r").to_line(),
             _HEADER, _event(0, "run_end", run_id="r").to_line()],
        )
        with pytest.raises(TraceError, match=r"trace\.jsonl:4: second header for run 'r'"):
            read_trace(path)

    def test_a_version_1_trace_still_reads(self):
        """Its metrics are the record computed when it was written."""
        headers, events = read_trace(V1_TRACE)
        (header,) = headers.values()
        assert header["version"] == 1
        assert "graph" in next(e for e in events if e.kind == "graph_constructed").payload
        assert compute_metrics(events, header["meta"]["gold"]) == MetricsRecord(
            run_id="tdp__chain3", method="tdp", delivery=True, accuracy=None,
            delivered_accuracy=None, avg_reward=None, avg_prompt_tokens=3360.0,
            avg_output_tokens=306.0, replans_total=3,
            constraint_micro=None, constraint_macro=None, steps_used=6, terminal="Completed",
            reason="task done",
            env_metrics={"delivered": True, "stages_cleared": 3, "stages_total": 3},
            node_records={nid: {"replan_count": 1, "status": "completed", "trace_len": 2}
                          for nid in ("node_1", "node_2", "node_3")},
            role_tokens={"executor": {"prompt_tokens": 766, "output_tokens": 12},
                         "planner": {"prompt_tokens": 1018, "output_tokens": 114},
                         "supervisor": {"prompt_tokens": 1576, "output_tokens": 180}},
        )

    def test_a_trace_whose_run_end_carries_the_old_sums_still_reads(self, tmp_path):
        """Earlier writers also put ``steps_used``, ``node_records`` and
        ``role_tokens`` in ``run_end``; the fold reads past them, so such a
        trace replays to the record the current one does."""
        path = tmp_path / "trace.jsonl"
        record = run_task(chain_instance(3), ChainEnv(), chain_config(3, tdp_chain_rules(3)),
                          sink=TraceSink(path, clock=CounterClock()))
        docs = [json.loads(line) for line in path.read_text().splitlines()]
        assert docs[-1]["kind"] == "run_end"
        docs[-1]["payload"].update(steps_used=record.steps_used, node_records=record.node_records,
                                   role_tokens=record.role_tokens)
        old = tmp_path / "old.jsonl"
        old.write_text("".join(json.dumps(doc, sort_keys=True) + "\n" for doc in docs))
        for trace in (path, old):
            headers, events = read_trace(trace)
            (header,) = headers.values()
            assert compute_metrics(events, header["meta"]["gold"]) == record
        assert record.steps_used == 6 and len(record.node_records) == 3

    def test_sequence_gap_in_file(self, tmp_path):
        header = json.dumps({"kind": "header", "version": 1, "run_id": "r", "meta": {}})
        path = self._write(
            tmp_path,
            [header, _event(0, "node_dispatched", run_id="r", node_id="n").to_line(),
             _event(2, "run_end", run_id="r").to_line()],
        )
        with pytest.raises(SequenceError, match="expected seq 1, got 2"):
            read_trace(path)


# -- the event table ---------------------------------------------------------------


#: A writer bug: the kind of event it breaks, how, and the error emit raises.
WRITER_BUGS = {
    "delivered a string": ("run_end", lambda p: p.update(delivered="yes"),
                           r"run_end event \d+: 'delivered' must be true or false, got 'yes'"),
    "an undeclared field": ("replan", lambda p: p.update(nodes_touched=["node_1"]),
                            r"replan event \d+: undeclared field 'nodes_touched'"),
    "a role_call without attempts": ("role_call", lambda p: p.pop("attempts"),
                                     r"role_call event 0: missing required field 'attempts'"),
}


@pytest.mark.parametrize("case", sorted(WRITER_BUGS))
def test_a_writer_bug_fails_at_emit_naming_the_kind_and_the_field(case, monkeypatch):
    """A tdp run over a chain whose every event of one kind is written
    wrong: the first such event raises, and none of them reaches the trace."""
    kind, bug, message = WRITER_BUGS[case]
    real_emit = TraceSink.emit

    def buggy_emit(self, run_id, event_kind, **payload):
        if event_kind == kind:
            bug(payload)
        return real_emit(self, run_id, event_kind, **payload)

    monkeypatch.setattr(TraceSink, "emit", buggy_emit)
    sink = TraceSink(clock=CounterClock())
    with pytest.raises(TraceError, match=message):
        run_task(chain_instance(3), ChainEnv(), chain_config(3, tdp_chain_rules(3)), sink=sink,
                 run_id="r")
    assert kind not in {e.kind for e in sink.events_for("r")}


def test_readme_lists_each_event_kind_s_fields():
    """README's "Traces and metrics" section has one bullet per event kind,
    naming its fields as :data:`EVENT_FIELDS` declares them."""
    readme = (REPO_ROOT / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n## Traces and metrics\n", 1)[1].split("\n## ", 1)[0]
    bullets = [line for line in section.splitlines() if line.startswith("- ")]
    expected = [
        f"- `{kind}`: " + ", ".join(
            f"`{name}` ({' or '.join(_NAMES[t] for t in field.types)}"
            f"{'' if field.required else ', optional'})"
            for name, field in fields.items())
        for kind, fields in EVENT_FIELDS.items()
    ]
    assert bullets == expected


#: The payload fields perfbench's workloads read by subscript, with no check
#: of their own, by event kind.
PERFBENCH_READS = {
    "role_call": {"prompt_tokens", "output_tokens", "attempts", "template"},
    "revision": {"status"},
}


def test_the_payload_fields_perfbench_reads_unchecked_are_required():
    """A field renamed in the table or made optional would leave the
    benchmark counting from a key that is no longer written.  The reads are
    found in the source: subscripts of an ``.payload`` attribute or of a name
    bound to one."""
    tree = ast.parse((REPO_ROOT / "perfbench" / "workloads.py").read_text(encoding="utf-8"))

    def is_payload(node):
        return isinstance(node, ast.Attribute) and node.attr == "payload"

    aliases = {target.id for node in ast.walk(tree)
               if isinstance(node, ast.Assign) and is_payload(node.value)
               for target in node.targets if isinstance(target, ast.Name)}
    read = {node.slice.value for node in ast.walk(tree)
            if isinstance(node, ast.Subscript) and isinstance(node.slice, ast.Constant)
            and (is_payload(node.value) or getattr(node.value, "id", None) in aliases)}
    assert read == set().union(*PERFBENCH_READS.values())
    for kind, names in PERFBENCH_READS.items():
        assert all(EVENT_FIELDS[kind][name].required for name in names), kind


# -- metrics -------------------------------------------------------------------------


class TestNormalizeAnswer:
    @pytest.mark.parametrize(
        "raw, expected",
        [
            ("The Illinois River.", "illinois river"),
            ("  An  answer,  THE answer!  ", "answer answer"),
            ("F-204", "f204"),
            ("a the an", ""),
        ],
    )
    def test_normalization(self, raw, expected):
        assert normalize_answer(raw) == expected


class TestComputeMetrics:
    def test_requires_run_end(self):
        events = [_event(0, "node_dispatched", node_id="n")]
        with pytest.raises(TraceError, match="no run_end"):
            compute_metrics(events)

    def test_answer_accuracy_normalized(self):
        events = [_run_end(env_metrics={"answer": "the ILLINOIS river"})]
        record = compute_metrics(events, gold={"answer": "Illinois River"})
        assert record.accuracy is True
        assert record.delivered_accuracy is True
        assert record.method == "tdp" and record.run_id == "r1"
        assert record.terminal == "Completed"

    def test_wrong_answer(self):
        events = [_run_end(env_metrics={"answer": "Mississippi"})]
        record = compute_metrics(events, gold={"answer": "Illinois River"})
        assert record.accuracy is False and record.delivered_accuracy is False

    def test_undelivered_run_masks_delivered_accuracy(self):
        events = [_run_end(delivered=False, env_metrics={"answer": "Illinois River"})]
        record = compute_metrics(events, gold={"answer": "Illinois River"})
        assert record.delivery is False
        assert record.accuracy is True
        assert record.delivered_accuracy is None

    def test_no_gold_answer_leaves_accuracy_undefined(self):
        record = compute_metrics([_run_end()], gold={})
        assert record.accuracy is None and record.delivered_accuracy is None

    def test_output_tokens_summed_over_role_calls(self):
        events = [
            _event(0, "role_call", role="planner", output_tokens=5),
            _event(1, "role_call", role="executor", output_tokens=7),
            _event(2, "env_step", step_index=1),
            _run_end(),
        ]
        assert compute_metrics(events).avg_output_tokens == 12.0

    def test_a_backend_error_leaves_the_run_tokens_undefined(self):
        """A call that ended on a backend error has no known usage, so neither
        has the run; it must not read as a run that used no tokens."""
        events = [
            _event(0, "role_call", role="planner", prompt_tokens=9, output_tokens=5),
            _event(1, "role_call", role="executor", prompt_tokens=0, output_tokens=0,
                   ok=False, error="LookupError: no scripted rule"),
            _run_end(),
        ]
        record = compute_metrics(events)
        assert (record.avg_prompt_tokens, record.avg_output_tokens) == (None, None)
        faulted = _event(1, "role_call", role="executor", prompt_tokens=4, output_tokens=2,
                         ok=False)  # a parse fault: its usage is known
        record = compute_metrics([events[0], faulted, events[2]])
        assert (record.avg_prompt_tokens, record.avg_output_tokens) == (13.0, 7.0)

    def test_a_backend_error_run_reads_its_role_tokens_as_unknown(self):
        """react on wiki_bridge whose executor raises on its second call: the
        record's per-role account and its token totals both read the
        executor's tokens as unknown."""
        instance = load_task_instance(FIXTURE_DIR / "wiki" / "wiki_bridge.json")
        config, _ = with_fault(load_config(CONFIG_DIR / "scripted_wiki.json"), 2, "error")
        sink = TraceSink(clock=CounterClock())
        with pytest.raises(RuntimeError, match="injected fault at call 2"):
            BASELINES["react"](instance, make_environment(instance.environment), config,
                               sink=sink, run_id="r")
        record = compute_metrics(sink.events_for("r"), instance.gold, method="react")
        assert record.role_tokens == {"executor": {"prompt_tokens": None, "output_tokens": None}}
        assert (record.avg_prompt_tokens, record.avg_output_tokens) == (None, None)

    def test_a_backend_error_makes_only_its_own_role_unknown(self):
        """The errored role's sums stay unknown through its later calls; the
        other roles keep theirs."""
        events = [
            _event(0, "role_call", role="supervisor", prompt_tokens=10, output_tokens=3),
            _event(1, "role_call", role="executor", prompt_tokens=4, output_tokens=1),
            _event(2, "role_call", role="executor", prompt_tokens=5, output_tokens=2,
                   error="ConnectionError: backend went away"),
            _event(3, "role_call", role="executor", prompt_tokens=6, output_tokens=2),
            _event(4, "role_call", role="planner", prompt_tokens=7, output_tokens=4),
            _run_end(),
        ]
        assert compute_metrics(events).role_tokens == {
            "executor": {"prompt_tokens": None, "output_tokens": None},
            "planner": {"prompt_tokens": 7, "output_tokens": 4},
            "supervisor": {"prompt_tokens": 10, "output_tokens": 3},
        }

    def test_replan_counting(self):
        events = [
            _event(0, "replan", scope="node_1", accepted=True),
            _event(1, "replan", scope="node_2", accepted=False),
            _event(2, "replan", scope="node_3", accepted=True),
            _run_end(),
        ]
        assert compute_metrics(events).replans_total == 2

    def test_no_accepted_replans(self):
        assert compute_metrics([_run_end()]).replans_total == 0

    def test_steps_replans_and_node_records_are_folded_from_the_events(self):
        """A node's record is its last status, its accepted replans and its
        steps, by node id; a step or replan outside any node counts only in
        the run's totals."""
        events = [
            _event(0, "node_status", node_id="node_2", status="in_progress"),
            _event(1, "env_step", step_index=1, scope="node_2"),
            _event(2, "replan", scope="node_2", accepted=True, replan_count=1),
            _event(3, "replan", scope="node_2", accepted=False, replan_count=1),
            _event(4, "env_step", step_index=2, scope="node_2"),
            _event(5, "node_status", node_id="node_2", status="failed", replan_count=1),
            _event(6, "node_status", node_id="node_1", status="in_progress"),
            _event(7, "env_step", step_index=3, scope="global"),
            _event(8, "replan", scope="global", accepted=True, replan_count=1),
            _run_end(),
        ]
        record = compute_metrics(events)
        assert (record.steps_used, record.replans_total) == (3, 2)
        assert list(record.node_records.items()) == [
            ("node_1", {"status": "in_progress", "replan_count": 0, "trace_len": 0}),
            ("node_2", {"status": "failed", "replan_count": 1, "trace_len": 2}),
        ]

    def test_constraints_scored_on_plan_text(self):
        gold = {"constraints": [
            {"kind": "mentions", "value": "Peoria"},
            {"kind": "mentions", "value": "F204"},
            {"kind": "avoids", "value": "Denver"},
            {"kind": "avoids", "value": "Riverside"},
        ]}
        events = [_run_end(env_metrics={
            "plan_text": "Fly F204 to peoria, stay at the Riverside Inn."})]
        record = compute_metrics(events, gold=gold)
        assert record.constraint_micro == pytest.approx(0.75)
        assert record.constraint_macro is False

    def test_constraints_with_no_plan_text_score_zero(self):
        gold = {"constraints": [{"kind": "mentions", "value": "Peoria"}]}
        record = compute_metrics([_run_end(env_metrics={"plan_text": None})], gold=gold)
        assert record.constraint_micro == 0.0
        assert record.constraint_macro is False

    def test_reward_passthrough(self):
        record = compute_metrics([_run_end(env_metrics={"reward": 0.75})])
        assert record.avg_reward == pytest.approx(0.75)
        assert compute_metrics([_run_end()]).avg_reward is None

    def test_explicit_method_and_run_id_override(self):
        record = compute_metrics([_run_end()], method="react", run_id="alias")
        assert record.method == "react" and record.run_id == "alias"

    def test_to_dict_round_trip_keys(self):
        record = compute_metrics([_run_end()])
        doc = record.to_dict()
        assert MetricsRecord(**doc) == record


# -- comparison report ------------------------------------------------------------------


def _record(method, tokens, **overrides):
    base = dict(
        run_id=f"{method}-{tokens}", method=method, delivery=True, accuracy=None,
        delivered_accuracy=None, avg_reward=None, avg_prompt_tokens=0.0,
        avg_output_tokens=float(tokens),
        replans_total=0,
    )
    base.update(overrides)
    return MetricsRecord(**base)


class TestCompareReport:
    def test_needs_batches(self):
        with pytest.raises(TraceError, match="at least one method batch"):
            compare_report({})

    def test_empty_batch_rejected(self):
        with pytest.raises(TraceError, match="method 'tdp' has an empty batch"):
            compare_report({"plan-act": [_record("plan-act", 10)], "tdp": []})

    def test_missing_reference_rejected(self):
        with pytest.raises(TraceError, match="reference method 'plan-act' not among"):
            compare_report({"tdp": [_record("tdp", 10)]})

    def test_token_reduction_against_reference(self):
        report = compare_report({
            "plan-act": [_record("plan-act", 800), _record("plan-act", 1200)],
            "tdp": [_record("tdp", 250)],
        })
        by_name = {m.method: m for m in report.methods}
        assert by_name["plan-act"].token_reduction_vs_reference is None
        assert by_name["tdp"].token_reduction_vs_reference == pytest.approx(0.75)
        assert report.reference == "plan-act"

    def test_zero_reference_tokens_leaves_reduction_undefined(self):
        report = compare_report({
            "plan-act": [_record("plan-act", 0)],
            "tdp": [_record("tdp", 10)],
        })
        by_name = {m.method: m for m in report.methods}
        assert by_name["tdp"].token_reduction_vs_reference is None

    def test_runs_with_undefined_tokens_are_left_out_of_the_token_means(self):
        unknown = dict(avg_prompt_tokens=None, avg_output_tokens=None)
        report = compare_report({
            "plan-act": [_record("plan-act", 1000)],
            "react": [_record("react", 0, **unknown), _record("react", 0, **unknown)],
            "tdp": [_record("tdp", 250), _record("tdp", 0, delivery=False, **unknown)],
        })
        by_name = {m.method: m for m in report.methods}
        assert by_name["tdp"].avg_total_tokens == pytest.approx(250.0)
        assert by_name["tdp"].token_reduction_vs_reference == pytest.approx(0.75)
        assert by_name["tdp"].delivery_rate == pytest.approx(0.5)  # the run still counts
        react = by_name["react"]
        assert (react.avg_prompt_tokens, react.avg_output_tokens, react.avg_total_tokens,
                react.token_reduction_vs_reference) == (None, None, None, None)
        react_row = next(l for l in report.format_table().splitlines() if l.startswith("react"))
        assert react_row.split()[6:10] == ["-", "-", "-", "0.00"]
        assert react_row.split()[-1] == "-"
        # with no known tokens for the reference, no method has a reduction
        report = compare_report({"react": [_record("react", 0, **unknown)],
                                 "tdp": [_record("tdp", 250)]}, reference="react")
        assert all(m.token_reduction_vs_reference is None for m in report.methods)

    def test_avg_score_means_only_defined_parts(self):
        report = compare_report(
            {"plan-act": [_record("plan-act", 10, avg_reward=0.5)]},
        )
        (summary,) = report.methods
        # delivery 1.0 and reward 0.5 are the only defined fraction metrics
        assert summary.avg_score == pytest.approx(0.75)
        assert summary.accuracy_rate is None

    def test_methods_sorted_and_rates_averaged(self):
        report = compare_report({
            "plan-act": [_record("plan-act", 100)],
            "react": [_record("react", 50, delivery=False), _record("react", 70)],
            "tdp": [_record("tdp", 30, accuracy=True, delivered_accuracy=True),
                    _record("tdp", 40, accuracy=False)],
        })
        assert [m.method for m in report.methods] == ["plan-act", "react", "tdp"]
        by_name = {m.method: m for m in report.methods}
        assert by_name["react"].delivery_rate == pytest.approx(0.5)
        assert by_name["tdp"].accuracy_rate == pytest.approx(0.5)
        assert by_name["tdp"].delivered_accuracy_rate == pytest.approx(1.0)
        assert by_name["tdp"].avg_output_tokens == pytest.approx(35.0)

    def test_format_table_shape(self):
        report = compare_report({
            "plan-act": [_record("plan-act", 1000)],
            "tdp": [_record("tdp", 250)],
        })
        table = report.format_table()
        lines = table.splitlines()
        assert lines[0].split()[:2] == ["method", "runs"]
        assert set(lines[1]) <= {"-", " "}
        ref_line = next(l for l in lines if l.startswith("plan-act"))
        tdp_line = next(l for l in lines if l.startswith("tdp"))
        assert "(ref)" in ref_line and "-" in ref_line.split()[-1]
        assert "75.0%" in tdp_line
