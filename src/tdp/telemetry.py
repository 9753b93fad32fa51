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
from dataclasses import asdict, astuple, dataclass, field
from functools import partial
from pathlib import Path
from typing import Any, Callable, Iterable, Mapping, Sequence, TextIO

from .fields import check_value, read_field

__all__ = [
    "EVENT_KINDS",
    "TraceEvent",
    "TraceError",
    "SequenceError",
    "TraceSink",
    "CounterClock",
    "read_trace",
    "TokenUsage",
    "MetricsRecord",
    "normalize_answer",
    "read_gold",
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
            check_value(doc, dict, name=f"{path}:{line_no}: line", error=TraceError)
            if doc.get("kind") == "header":
                if doc.get("version") not in (1, TRACE_VERSION):
                    raise TraceError(
                        f"{path}:{line_no}: unsupported trace version {doc.get('version')!r}"
                    )
                read = partial(read_field, doc, where=f"{path}:{line_no}: header",
                               error=TraceError)
                run_id = read("run_id", str)
                read("meta", dict, default={})
                if run_id in headers:
                    raise TraceError(f"{path}:{line_no}: second header for run {run_id!r}")
                headers[run_id] = doc
                last_seq[run_id] = -1
                continue
            if doc.get("kind") not in EVENT_KINDS:
                raise TraceError(f"{path}:{line_no}: unknown event kind {doc.get('kind')!r}")
            read = partial(read_field, doc, where=f"{path}:{line_no}: {doc['kind']} event",
                           error=TraceError)
            run_id, seq, ts = read("run_id", str), read("seq"), read("ts")
            payload = read("payload", dict, default={})
            if run_id not in headers:
                raise TraceError(f"{path}:{line_no}: event before header for run {run_id!r}")
            expected = last_seq[run_id] + 1
            if seq != expected:
                raise SequenceError(
                    f"{path}:{line_no}: run {run_id!r} expected seq {expected}, got {seq}"
                )
            last_seq[run_id] = seq
            events.append(
                TraceEvent(run_id=run_id, seq=seq, timestamp=ts, kind=doc["kind"], payload=payload)
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
class TokenUsage:
    """A call's token counts; ``None`` is a count the backend did not report,
    and a sum with an unknown count is unknown: the one rule for token sums."""

    prompt_tokens: int | None = 0
    output_tokens: int | None = 0

    def __add__(self, other: TokenUsage) -> TokenUsage:
        pairs = (self.prompt_tokens, other.prompt_tokens), (self.output_tokens, other.output_tokens)
        return TokenUsage(*(None if None in pair else sum(pair) for pair in pairs))


@dataclass(frozen=True)
class MetricsRecord:
    """One run's record: what its runner returns and what replay recomputes
    from its trace.  ``None`` marks a metric that is undefined for the run,
    as the tokens of a run with a model call that ended on a backend error or
    whose backend did not report them.  ``node_records`` holds one entry per
    node of the run's final graph, nodes never dispatched included; a node a
    revision removed has none."""

    run_id: str
    method: str
    delivery: bool
    accuracy: bool | None
    delivered_accuracy: bool | None
    avg_reward: float | None
    avg_prompt_tokens: float | None  # for one run: its total prompt tokens
    avg_output_tokens: float | None  # for one run: its total output tokens
    replans_total: int
    constraint_micro: float | None = None
    constraint_macro: bool | None = None
    steps_used: int = 0
    terminal: str = ""
    reason: str = ""
    env_metrics: dict[str, Any] = field(default_factory=dict)
    node_records: dict[str, dict[str, Any]] = field(default_factory=dict)
    role_tokens: dict[str, dict[str, int | None]] = field(default_factory=dict)

    def to_dict(self) -> dict[str, Any]:
        return asdict(self)


def role_tokens(events: Iterable[TraceEvent]) -> dict[str, dict[str, int | None]]:
    """Per-role prompt and output tokens summed over the ``role_call`` events,
    in role order: the one account of a run's tokens.  A call that ended on a
    backend error adds unknown counts, since its usage is not known."""
    usages: dict[str, TokenUsage] = {}
    for event in events:
        if event.kind == "role_call":
            read = partial(read_field, event.payload, where=f"role_call event {event.seq}",
                           error=TraceError)
            usage = TokenUsage(
                read("prompt_tokens", int, None, default=0),
                read("output_tokens", int, None, default=0),
            )
            if "error" in event.payload:
                usage = TokenUsage(None, None)
            role = read("role", str, default="")
            usages[role] = usages.get(role, TokenUsage()) + usage
    return {role: asdict(usage) for role, usage in sorted(usages.items())}


def read_gold(gold: Mapping[str, Any], *, where: str,
              error: type[Exception]) -> tuple[str | None, list[tuple[str, str]]]:
    """The graded fields of a gold record, read by one rule for fixtures and
    traces alike: the ``answer``, a string (None when absent), and the
    ``constraints``, a list of ``{"kind": "mentions" or "avoids", "value": a
    nonblank string}`` objects, as (kind, value) pairs.  A plan text meets a
    ``mentions`` constraint when it contains the value, ignoring case, and an
    ``avoids`` one when it does not.  ``null`` is a mistyped field, not an
    absent one; a mistyped field is an `error` naming it."""
    read = partial(read_field, gold, where=where, error=error)
    constraints = []
    for index, constraint in enumerate(read("constraints", list[dict], default=[])):
        name = f"{where} constraint [{index}]"
        kind, value = (read_field(constraint, key, str, where=name, error=error)
                       for key in ("kind", "value"))
        if kind not in ("mentions", "avoids"):
            raise error(f"{name}: 'kind' must be 'mentions' or 'avoids', got {kind!r}")
        if not value.strip():
            raise error(f"{name}: 'value' must be a nonblank string, got {value!r}")
        constraints.append((kind, value))
    return read("answer", str, default=None), constraints


def _check_constraints(plan_text: str,
                       constraints: Sequence[tuple[str, str]]) -> tuple[float, bool]:
    met = [(value.casefold() in plan_text.casefold()) == (kind == "mentions")
           for kind, value in constraints]
    return sum(met) / len(met), all(met)


def compute_metrics(
    events: Sequence[TraceEvent],
    gold: Mapping[str, Any] | None = None,
    *,
    method: str = "",
    run_id: str = "",
) -> MetricsRecord:
    """Reduce one run's events (+ its gold record) to a MetricsRecord.

    Pure function of its inputs — this is what both live reporting and
    offline replay call, so the two can be compared for exact equality.  A
    field of the wrong type, `method` included, is a :class:`TraceError`
    naming the event and the field.
    """
    gold_answer, constraints = read_gold(
        check_value(gold or {}, Mapping, name="'gold'", error=TraceError), where="gold",
        error=TraceError)
    run_end = next((e for e in reversed(events) if e.kind == "run_end"), None)
    if run_end is None:
        raise TraceError("run has no run_end event")
    read = partial(read_field, run_end.payload, where=f"run_end event {run_end.seq}",
                   error=TraceError)
    env_metrics = read("env_metrics", dict, default={})
    read_env = partial(read_field, env_metrics, where=f"run_end event {run_end.seq} env_metrics",
                       error=TraceError)
    delivery = read("delivered", bool, default=False)

    answer = read_env("answer", str, None, default=None)
    accuracy = None if gold_answer is None else (
        answer is not None and normalize_answer(answer) == normalize_answer(gold_answer)
    )
    delivered_accuracy = accuracy if (delivery and accuracy is not None) else None

    tokens = role_tokens(events)
    total = sum((TokenUsage(**role) for role in tokens.values()), TokenUsage())
    prompt_tokens, output_tokens = (None if n is None else float(n) for n in astuple(total))

    replans = sum(
        read_field(e.payload, "accepted", bool, default=False, where=f"replan event {e.seq}",
                   error=TraceError)
        for e in events if e.kind == "replan"
    )

    constraint_micro: float | None = None
    constraint_macro: bool | None = None
    if constraints:
        plan_text = read_env("plan_text", str, None, default=None)
        if plan_text:
            constraint_micro, constraint_macro = _check_constraints(plan_text, constraints)
        else:
            constraint_micro, constraint_macro = 0.0, False

    return MetricsRecord(
        run_id=run_id or run_end.run_id,
        method=check_value(method, str, name="compute_metrics: 'method'", error=TraceError)
        or read("method", str, default=""),
        delivery=delivery,
        accuracy=accuracy,
        delivered_accuracy=delivered_accuracy,
        avg_reward=read_env("reward", float, int, None, default=None),
        avg_prompt_tokens=prompt_tokens,
        avg_output_tokens=output_tokens,
        replans_total=replans,
        constraint_micro=constraint_micro,
        constraint_macro=constraint_macro,
        steps_used=read("steps_used", int, default=0),
        terminal=read("terminal", str, default=""),
        reason=read("reason", str, default=""),
        env_metrics=env_metrics,
        node_records=read("node_records", dict, default={}),
        role_tokens=tokens,
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
    constraint_micro: float | None
    constraint_macro_rate: float | None
    avg_score: float | None
    token_reduction_vs_reference: float | None


@dataclass(frozen=True)
class ComparisonReport:
    reference: str
    methods: tuple[MethodSummary, ...]

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
