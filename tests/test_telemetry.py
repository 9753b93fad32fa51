"""Trace sink, replayable metrics, and the comparison report."""

from __future__ import annotations

import json
import threading

import pytest

from tdp.telemetry import (
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


def _run_end(run_id="r1", **overrides):
    payload = {
        "terminal": "Completed",
        "reason": "task done",
        "steps_used": 3,
        "delivered": True,
        "method": "tdp",
        "env_metrics": {},
        "node_records": [],
        "role_tokens": {},
    }
    payload.update(overrides)
    return TraceEvent(run_id=run_id, seq=0, timestamp=0.0, kind="run_end", payload=payload)


def _event(seq, kind, run_id="r1", **payload):
    return TraceEvent(run_id=run_id, seq=seq, timestamp=float(seq), kind=kind, payload=payload)


# -- sink and sequence discipline ----------------------------------------------


class TestTraceSink:
    def test_emit_numbers_events_contiguously_from_zero(self):
        sink = TraceSink(clock=CounterClock())
        sink.begin_run("r1", {"method": "tdp"})
        first = sink.emit("r1", "node_dispatched", node_id="node_1")
        second = sink.emit("r1", "node_status", node_id="node_1", status="completed")
        assert (first.seq, second.seq) == (0, 1)
        assert [e.kind for e in sink.events_for("r1")] == ["node_dispatched", "node_status"]

    def test_interleaved_runs_stay_contiguous_per_run(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        sink = TraceSink(path, clock=CounterClock())
        sink.begin_run("a", {})
        sink.begin_run("b", {})
        sink.emit("a", "node_dispatched", node_id="n")
        sink.emit("b", "node_dispatched", node_id="n")
        sink.emit("a", "node_status", node_id="n", status="completed")
        assert [e.seq for e in sink.events_for("a")] == [0, 1]
        assert [e.seq for e in sink.events_for("b")] == [0]
        headers, _ = read_trace(path)
        assert set(headers) == {"a", "b"}

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
        clock = CounterClock(start=10.0, step=0.5)
        assert [clock() for _ in range(3)] == [10.0, 10.5, 11.0]

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
        sink.emit("r1", "run_end", terminal="Completed")
        lines = path.read_text().splitlines()
        assert len(lines) == 2
        header = json.loads(lines[0])
        assert header["kind"] == "header" and header["meta"]["method"] == "react"
        assert json.loads(lines[1])["kind"] == "run_end"


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
        sink.emit("r1", "run_end", terminal="Completed", delivered=True)
        headers, events = read_trace(path)
        assert headers["r1"]["meta"]["gold"] == {"answer": "x"}
        assert events == sink.events_for("r1")

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
        (["[1, 2]"], r"trace\.jsonl:1: not a JSON object"),
        (["5"], r"trace\.jsonl:1: not a JSON object"),
        ([json.dumps({"kind": "header", "version": 1, "meta": {}})],
         r"trace\.jsonl:1: header lacks 'run_id'"),
        ([_HEADER, json.dumps({"kind": "run_end", "seq": 0, "ts": 0})],
         r"trace\.jsonl:2: run_end event lacks 'run_id'"),
        ([_HEADER, json.dumps({"kind": "run_end", "run_id": "r", "ts": 0})],
         r"trace\.jsonl:2: run_end event lacks 'seq'"),
        ([_HEADER, json.dumps({"kind": "run_end", "run_id": "r", "seq": 0})],
         r"trace\.jsonl:2: run_end event lacks 'ts'"),
        ([json.dumps({"kind": "header", "version": 1, "run_id": ["r"], "meta": {}})],
         r"trace\.jsonl:1: header 'run_id' is not a string"),
        ([json.dumps({"kind": "header", "version": 1, "run_id": "r", "meta": 5})],
         r"trace\.jsonl:1: header 'meta' is not an object"),
        ([_HEADER, json.dumps({"kind": "run_end", "run_id": "r", "seq": 0, "ts": 0,
                               "payload": 5})],
         r"trace\.jsonl:2: run_end event 'payload' is not an object"),
        ([_HEADER, json.dumps({"kind": "run_end", "run_id": ["r"], "seq": 0, "ts": 0})],
         r"trace\.jsonl:2: run_end event 'run_id' is not a string"),
    ])
    def test_malformed_line_names_path_and_line(self, tmp_path, lines, message):
        path = self._write(tmp_path, lines)
        with pytest.raises(TraceError, match=message):
            read_trace(path)

    def test_unsupported_version(self, tmp_path):
        header = json.dumps({"kind": "header", "version": 99, "run_id": "r", "meta": {}})
        path = self._write(tmp_path, [header])
        with pytest.raises(TraceError, match="unsupported trace version 99"):
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

    def test_sequence_gap_in_file(self, tmp_path):
        header = json.dumps({"kind": "header", "version": 1, "run_id": "r", "meta": {}})
        path = self._write(
            tmp_path,
            [header, _event(0, "node_dispatched", run_id="r", node_id="n").to_line(),
             _event(2, "run_end", run_id="r").to_line()],
        )
        with pytest.raises(SequenceError, match="expected seq 1, got 2"):
            read_trace(path)


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
        assert record.terminal == "Completed" and record.steps_used == 3

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

    def test_replan_counting_and_locality_mean(self):
        events = [
            _event(0, "replan", scope="node_1", accepted=True, nodes_touched=1),
            _event(1, "replan", scope="node_2", accepted=False, nodes_touched=4),
            _event(2, "replan", scope="node_3", accepted=True, nodes_touched=2),
            _run_end(),
        ]
        record = compute_metrics(events)
        assert record.replans_total == 2
        assert record.nodes_touched_per_replan == pytest.approx(1.5)

    def test_no_accepted_replans(self):
        record = compute_metrics([_run_end()])
        assert record.replans_total == 0
        assert record.nodes_touched_per_replan is None

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
        replans_total=0, nodes_touched_per_replan=None,
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

    def test_report_to_dict(self):
        report = compare_report({"plan-act": [_record("plan-act", 10)]})
        doc = report.to_dict()
        assert doc["reference"] == "plan-act"
        assert doc["methods"][0]["method"] == "plan-act"
