"""Run telemetry: append-only traces, replayable metrics, comparisons.

A trace is line-delimited JSON: one versioned header line per run followed by
its events, sequence-numbered contiguously from 0.  Everything needed to
recompute a run's metrics rides inside the trace (gold record included in the
header), so replay never touches a backend or an environment.

The composite ``avg_score`` reported per method is the arithmetic mean over
whichever fraction-valued metrics are defined for that method's runs
(delivery rate, accuracy, delivered accuracy, reward, constraint micro/macro).
"""

from __future__ import annotations

import json
import string
import threading
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Any, Callable, Iterable, Mapping, Sequence, TextIO

__all__ = [
    "EVENT_KINDS",
    "TraceEvent",
    "TraceError",
    "SequenceError",
    "TraceSink",
    "CounterClock",
    "read_trace",
    "MetricsRecord",
    "normalize_answer",
    "role_tokens",
    "compute_metrics",
    "MethodSummary",
    "ComparisonReport",
    "compare_report",
]

#: Version 2 records the decomposition in ``graph_constructed`` as a delta;
#: version 1, still read, recorded it as a graph snapshot.
TRACE_VERSION = 2

EVENT_KINDS = frozenset(
    {
        "graph_constructed",
        "node_dispatched",
        "role_call",
        "env_step",
        "node_status",
        "replan",
        "revision",
        "run_end",
    }
)


class TraceError(ValueError):
    """Malformed trace input or event."""


class SequenceError(TraceError):
    """A trace-file event whose sequence number is not last+1 for its run."""


@dataclass(frozen=True)
class TraceEvent:
    run_id: str
    seq: int
    timestamp: float
    kind: str
    payload: dict[str, Any] = field(default_factory=dict)

    def to_line(self) -> str:
        return json.dumps(
            {
                "run_id": self.run_id,
                "seq": self.seq,
                "ts": self.timestamp,
                "kind": self.kind,
                "payload": self.payload,
            },
            sort_keys=True,
        )


class CounterClock:
    """A clock that ticks one unit per read — for bit-reproducible traces."""

    def __init__(self, start: float = 0.0, step: float = 1.0):
        self._next = start
        self._step = step
        self._lock = threading.Lock()

    def __call__(self) -> float:
        with self._lock:
            value = self._next
            self._next += self._step
            return value


class TraceSink:
    """Append-only event stream, optionally mirrored to a JSONL file.

    Tolerates concurrent appends from independent runs; the sink numbers each
    run's events itself, contiguously from 0.  A file-backed sink writes every
    line through one handle, flushed per line so a crash loses no emitted
    event; :meth:`close` releases it, and a later line reopens the file for
    appending.
    """

    def __init__(self, path: str | Path | None = None, clock: Callable[[], float] = time.time):
        self.path = Path(path) if path is not None else None
        self.clock = clock
        self._lock = threading.Lock()
        self._last_seq: dict[str, int] = {}
        self._events: list[TraceEvent] = []
        self._handle: TextIO | None = None
        if self.path is not None:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            self._handle = open(self.path, "w", encoding="utf-8")

    def begin_run(self, run_id: str, meta: Mapping[str, Any]) -> None:
        with self._lock:
            if run_id in self._last_seq:
                raise TraceError(f"run {run_id!r} already started in this sink")
            header = {
                "kind": "header",
                "version": TRACE_VERSION,
                "run_id": run_id,
                "meta": dict(meta),
            }
            self._last_seq[run_id] = -1
            self._write(json.dumps(header, sort_keys=True))

    def emit(self, run_id: str, kind: str, **payload: Any) -> TraceEvent:
        """Append the next event of `run_id`, a run begun with :meth:`begin_run`."""
        if kind not in EVENT_KINDS:
            raise TraceError(f"unknown event kind {kind!r}")
        with self._lock:
            if run_id not in self._last_seq:
                raise TraceError(f"run {run_id!r} has no header; call begin_run first")
            seq = self._last_seq[run_id] + 1
            event = TraceEvent(
                run_id=run_id, seq=seq, timestamp=self.clock(), kind=kind, payload=payload
            )
            self._last_seq[run_id] = seq
            self._events.append(event)
            self._write(event.to_line())
        return event

    def _write(self, line: str) -> None:
        if self.path is None:
            return
        if self._handle is None:
            self._handle = open(self.path, "a", encoding="utf-8")
        self._handle.write(line + "\n")
        self._handle.flush()

    def close(self) -> None:
        """Close the trace file's handle, if one is open."""
        with self._lock:
            if self._handle is not None:
                self._handle.close()
                self._handle = None

    def events_for(self, run_id: str) -> list[TraceEvent]:
        with self._lock:
            return [e for e in self._events if e.run_id == run_id]


def read_trace(path: str | Path) -> tuple[dict[str, dict[str, Any]], list[TraceEvent]]:
    """Load a trace file back into (headers by run_id, events in file order).

    Re-validates version (1 or 2), event kinds, one header per run, and
    per-run sequence contiguity.
    """
    headers: dict[str, dict[str, Any]] = {}
    events: list[TraceEvent] = []
    last_seq: dict[str, int] = {}
    with open(path, "r", encoding="utf-8") as handle:
        for line_no, line in enumerate(handle, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                doc = json.loads(line)
            except json.JSONDecodeError as err:
                raise TraceError(f"{path}:{line_no}: not JSON: {err}") from None
            if not isinstance(doc, dict):
                raise TraceError(f"{path}:{line_no}: not a JSON object")
            if doc.get("kind") == "header":
                if doc.get("version") not in (1, TRACE_VERSION):
                    raise TraceError(
                        f"{path}:{line_no}: unsupported trace version {doc.get('version')!r}"
                    )
                if "run_id" not in doc:
                    raise TraceError(f"{path}:{line_no}: header lacks 'run_id'")
                if not isinstance(doc["run_id"], str):
                    raise TraceError(f"{path}:{line_no}: header 'run_id' is not a string")
                if not isinstance(doc.get("meta", {}), dict):
                    raise TraceError(f"{path}:{line_no}: header 'meta' is not an object")
                if doc["run_id"] in headers:
                    raise TraceError(f"{path}:{line_no}: second header for run {doc['run_id']!r}")
                headers[doc["run_id"]] = doc
                last_seq[doc["run_id"]] = -1
                continue
            if doc.get("kind") not in EVENT_KINDS:
                raise TraceError(f"{path}:{line_no}: unknown event kind {doc.get('kind')!r}")
            kind = doc["kind"]
            for key in ("run_id", "seq", "ts"):
                if key not in doc:
                    raise TraceError(f"{path}:{line_no}: {kind} event lacks {key!r}")
            run_id = doc["run_id"]
            if not isinstance(run_id, str):
                raise TraceError(f"{path}:{line_no}: {kind} event 'run_id' is not a string")
            if not isinstance(doc.get("payload", {}), dict):
                raise TraceError(f"{path}:{line_no}: {kind} event 'payload' is not an object")
            if run_id not in headers:
                raise TraceError(f"{path}:{line_no}: event before header for run {run_id!r}")
            expected = last_seq[run_id] + 1
            if doc["seq"] != expected:
                raise SequenceError(
                    f"{path}:{line_no}: run {run_id!r} expected seq {expected}, got {doc['seq']}"
                )
            last_seq[run_id] = doc["seq"]
            events.append(
                TraceEvent(
                    run_id=run_id,
                    seq=doc["seq"],
                    timestamp=doc["ts"],
                    kind=doc["kind"],
                    payload=doc.get("payload", {}),
                )
            )
    return headers, events


# ---------------------------------------------------------------------------
# metrics

_ARTICLES = frozenset({"a", "an", "the"})
_PUNCT_TABLE = str.maketrans("", "", string.punctuation)


def normalize_answer(text: str) -> str:
    """Lowercase, drop punctuation and articles, collapse whitespace."""
    lowered = text.casefold().translate(_PUNCT_TABLE)
    words = [w for w in lowered.split() if w not in _ARTICLES]
    return " ".join(words)


@dataclass(frozen=True)
class MetricsRecord:
    """Per-run metrics; ``None`` marks a metric that is undefined for the run,
    as the tokens of a run with a model call that ended on a backend error or
    whose backend did not report them."""

    run_id: str
    method: str
    delivery: bool
    accuracy: bool | None
    delivered_accuracy: bool | None
    avg_reward: float | None
    avg_prompt_tokens: float | None  # for one run: its total prompt tokens
    avg_output_tokens: float | None  # for one run: its total output tokens
    replans_total: int
    nodes_touched_per_replan: float | None
    constraint_micro: float | None = None
    constraint_macro: bool | None = None
    steps_used: int = 0
    terminal: str = ""

    def to_dict(self) -> dict[str, Any]:
        return asdict(self)


def role_tokens(events: Iterable[TraceEvent]) -> dict[str, dict[str, int | None]]:
    """Per-role prompt and output tokens summed over the ``role_call`` events,
    in role order: the one account of a run's tokens.  A role's sum is
    ``None`` once one of its calls has a count its backend did not report."""
    totals: dict[str, dict[str, int | None]] = {}
    for event in events:
        if event.kind == "role_call":
            sums = totals.setdefault(event.payload.get("role", ""), {})
            for key in ("prompt_tokens", "output_tokens"):
                total, count = sums.get(key, 0), event.payload.get(key, 0)
                sums[key] = None if total is None or count is None else total + count
    return dict(sorted(totals.items()))


def _check_constraints(plan_text: str, constraints: Sequence[Mapping[str, Any]]) -> tuple[float, bool]:
    satisfied = 0
    for constraint in constraints:
        value = str(constraint["value"])
        present = value.casefold() in plan_text.casefold()
        ok = present if constraint["kind"] == "mentions" else not present
        satisfied += int(ok)
    micro = satisfied / len(constraints)
    return micro, satisfied == len(constraints)


def compute_metrics(
    events: Sequence[TraceEvent],
    gold: Mapping[str, Any] | None = None,
    *,
    method: str = "",
    run_id: str = "",
) -> MetricsRecord:
    """Reduce one run's events (+ its gold record) to a MetricsRecord.

    Pure function of its inputs — this is what both live reporting and
    offline replay call, so the two can be compared for exact equality.
    """
    gold = gold or {}
    run_end = next((e for e in reversed(events) if e.kind == "run_end"), None)
    if run_end is None:
        raise TraceError("run has no run_end event")
    if not run_id:
        run_id = run_end.run_id
    env_metrics = run_end.payload.get("env_metrics", {})

    delivery = bool(run_end.payload.get("delivered", False))

    accuracy: bool | None = None
    gold_answer = gold.get("answer")
    answer = env_metrics.get("answer")
    if gold_answer is not None:
        accuracy = (
            answer is not None
            and normalize_answer(str(answer)) == normalize_answer(str(gold_answer))
        )
    delivered_accuracy = accuracy if (delivery and accuracy is not None) else None

    # a backend error's usage is not known, nor an unreported count, so
    # neither is the run's
    known = not any(e.kind == "role_call" and "error" in e.payload for e in events)
    tokens = role_tokens(events).values()

    def run_total(key: str) -> float | None:
        counts = [role[key] for role in tokens]
        return float(sum(counts)) if known and None not in counts else None

    prompt_tokens, output_tokens = run_total("prompt_tokens"), run_total("output_tokens")

    accepted_replans = [
        e for e in events if e.kind == "replan" and e.payload.get("accepted", False)
    ]
    touched = [
        e.payload["nodes_touched"]
        for e in accepted_replans
        if e.payload.get("nodes_touched") is not None
    ]
    nodes_touched = (sum(touched) / len(touched)) if touched else None

    constraint_micro: float | None = None
    constraint_macro: bool | None = None
    constraints = gold.get("constraints")
    if constraints:
        plan_text = env_metrics.get("plan_text") or ""
        if plan_text:
            constraint_micro, constraint_macro = _check_constraints(plan_text, constraints)
        else:
            constraint_micro, constraint_macro = 0.0, False

    return MetricsRecord(
        run_id=run_id,
        method=method or run_end.payload.get("method", ""),
        delivery=delivery,
        accuracy=accuracy,
        delivered_accuracy=delivered_accuracy,
        avg_reward=env_metrics.get("reward"),
        avg_prompt_tokens=prompt_tokens,
        avg_output_tokens=output_tokens,
        replans_total=len(accepted_replans),
        nodes_touched_per_replan=nodes_touched,
        constraint_micro=constraint_micro,
        constraint_macro=constraint_macro,
        steps_used=int(run_end.payload.get("steps_used", 0)),
        terminal=str(run_end.payload.get("terminal", "")),
    )


# ---------------------------------------------------------------------------
# comparisons


def _mean(values: Iterable[float]) -> float | None:
    values = list(values)
    if not values:
        return None
    return sum(values) / len(values)


@dataclass(frozen=True)
class MethodSummary:
    method: str
    runs: int
    delivery_rate: float
    accuracy_rate: float | None
    delivered_accuracy_rate: float | None
    avg_reward: float | None
    avg_prompt_tokens: float | None
    avg_output_tokens: float | None
    avg_total_tokens: float | None
    replans_mean: float
    nodes_touched_mean: float | None
    constraint_micro: float | None
    constraint_macro_rate: float | None
    avg_score: float | None
    token_reduction_vs_reference: float | None

    def to_dict(self) -> dict[str, Any]:
        return asdict(self)


@dataclass(frozen=True)
class ComparisonReport:
    reference: str
    methods: tuple[MethodSummary, ...]

    def to_dict(self) -> dict[str, Any]:
        return {
            "reference": self.reference,
            "methods": [m.to_dict() for m in self.methods],
        }

    def format_table(self) -> str:
        def fmt(value: Any, percent: bool) -> str:
            if value is None:
                return "-"
            if isinstance(value, float):
                return f"{value * 100:.1f}%" if percent else f"{value:.2f}"
            return str(value)

        rows = [[header for header, _, _ in _COLUMNS]]
        for m in self.methods:
            row = [fmt(getattr(m, name), percent) for _, name, percent in _COLUMNS]
            row[0] += " (ref)" if m.method == self.reference else ""
            rows.append(row)
        widths = [max(len(row[i]) for row in rows) for i in range(len(_COLUMNS))]
        lines = []
        for r, row in enumerate(rows):
            lines.append("  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row)))
            if r == 0:
                lines.append("  ".join("-" * width for width in widths))
        return "\n".join(lines)


#: The comparison table's columns: header, :class:`MethodSummary` field, and
#: whether the value is shown as a percentage.
_COLUMNS = (
    ("method", "method", False),
    ("runs", "runs", False),
    ("delivery", "delivery_rate", True),
    ("accuracy", "accuracy_rate", True),
    ("deliv_acc", "delivered_accuracy_rate", True),
    ("reward", "avg_reward", False),
    ("prompt_tokens", "avg_prompt_tokens", False),
    ("out_tokens", "avg_output_tokens", False),
    ("total_tokens", "avg_total_tokens", False),
    ("replans", "replans_mean", False),
    ("avg_score", "avg_score", True),
    ("tok_reduction", "token_reduction_vs_reference", True),
)

#: Each averaged :class:`MethodSummary` field and the :class:`MetricsRecord`
#: field it is the mean of, over the runs where that is defined.
_AVERAGED = {
    "delivery_rate": "delivery",
    "accuracy_rate": "accuracy",
    "delivered_accuracy_rate": "delivered_accuracy",
    "avg_reward": "avg_reward",
    "avg_prompt_tokens": "avg_prompt_tokens",
    "avg_output_tokens": "avg_output_tokens",
    "replans_mean": "replans_total",
    "nodes_touched_mean": "nodes_touched_per_replan",
    "constraint_micro": "constraint_micro",
    "constraint_macro_rate": "constraint_macro",
}
#: The fraction-valued summary fields whose defined values ``avg_score`` averages.
_SCORED = (
    "delivery_rate",
    "accuracy_rate",
    "delivered_accuracy_rate",
    "avg_reward",
    "constraint_micro",
    "constraint_macro_rate",
)


def _summarize(method: str, records: Sequence[MetricsRecord]) -> dict[str, Any]:
    summary: dict[str, Any] = {
        name: _mean(
            float(value) for r in records if (value := getattr(r, source)) is not None
        )
        for name, source in _AVERAGED.items()
    }
    prompt, output = summary["avg_prompt_tokens"], summary["avg_output_tokens"]
    summary["avg_total_tokens"] = None if prompt is None or output is None else prompt + output
    summary["avg_score"] = _mean(v for n in _SCORED if (v := summary[n]) is not None)
    return {"method": method, "runs": len(records), **summary}


def compare_report(
    batches: Mapping[str, Sequence[MetricsRecord]], reference: str = "plan-act"
) -> ComparisonReport:
    """Aggregate per-method batches and compute token reduction vs the reference.

    reduction = 1 - tokens(method) / tokens(reference), on the mean total of
    prompt and output tokens per run; e.g. 250 vs 1000 -> 75%.  The means
    leave out runs whose tokens are undefined, and a method none of whose runs
    has defined tokens gets no token mean and no reduction.
    """
    if not batches:
        raise TraceError("compare_report needs at least one method batch")
    for method, records in batches.items():
        if not records:
            raise TraceError(f"method {method!r} has an empty batch")
    if reference not in batches:
        raise TraceError(
            f"reference method {reference!r} not among batches: {sorted(batches)}"
        )
    summaries = {method: _summarize(method, records) for method, records in batches.items()}
    ref_tokens = summaries[reference]["avg_total_tokens"]
    methods = []
    for method in sorted(summaries):
        summary = summaries[method]
        reduction = None
        tokens = summary["avg_total_tokens"]
        if method != reference and ref_tokens and tokens is not None:
            reduction = 1.0 - tokens / ref_tokens
        methods.append(MethodSummary(token_reduction_vs_reference=reduction, **summary))
    return ComparisonReport(reference=reference, methods=tuple(methods))
