"""Run telemetry: append-only traces, replayable metrics, comparisons.

A trace is line-delimited JSON: one versioned header line per run followed by
its events, sequence-numbered contiguously from 0.  Everything needed to
recompute a run's metrics rides inside the trace (gold record included in the
header), so replay never touches a backend or an environment.

:data:`EVENT_FIELDS` declares each event kind's payload fields, and payloads
are checked against it and nowhere else: by :meth:`TraceSink.emit` when
written, and by :func:`compute_metrics` once per event of the run it folds.
:func:`~tdp.engine.replay_graph` reads them unchecked.

The composite ``avg_score`` reported per method is the arithmetic mean over
whichever fraction-valued metrics are defined for that method's runs
(delivery rate, accuracy, delivered accuracy, reward, constraint micro/macro).
"""

from __future__ import annotations

import json
import string
import threading
import time
from collections import Counter
from dataclasses import asdict, astuple, dataclass, field
from functools import partial
from pathlib import Path
from typing import Any, Callable, Iterable, Mapping, Sequence, TextIO

from .fields import Field, check_fields, check_value, read_field

__all__ = [
    "EVENT_FIELDS",
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
    "compute_metrics",
    "MethodSummary",
    "ComparisonReport",
    "compare_report",
]

#: Version 2 records the decomposition in ``graph_constructed`` as a delta;
#: version 1, still read, recorded it as a graph snapshot.
TRACE_VERSION = 2

_STR, _INT, _BOOL, _OBJECT = Field((str,)), Field((int,)), Field((bool,)), Field((dict,))
_COUNT = Field((int, None))  # a token count, null when the backend did not report it

#: Each event kind's payload fields and the types each may have; a field is
#: required unless declared otherwise.  ``graph_constructed.delta`` is not,
#: since version 1 wrote a ``graph`` snapshot in its place.
EVENT_FIELDS: dict[str, dict[str, Field]] = {
    "graph_constructed": {"delta": Field((dict,), required=False)},
    "node_dispatched": {"node_id": _STR},
    "role_call": {"role": _STR, "template": _STR, "scope": _STR, "attempts": _INT,
                  "prompt_tokens": _COUNT, "output_tokens": _COUNT, "prompt_chars": _INT,
                  "ok": _BOOL, "error": Field((str,), required=False)},
    "env_step": {"step_index": _INT, "action": _STR, "observation": _STR,
                 "reward_delta": Field((float, int, None)), "done": _BOOL, "scope": _STR},
    "node_status": {"node_id": _STR, "status": _STR, "replan_count": _INT},
    "replan": {"scope": _STR, "accepted": _BOOL, "replan_count": _INT,
               "budget_exhausted": Field((bool,), required=False)},
    "revision": {"status": _STR, "reasons": Field((list[str],)), "delta": Field((dict, None)),
                 "error": Field((str,), required=False)},
    "run_end": {"terminal": _STR, "reason": _STR, "delivered": _BOOL, "method": _STR,
                "env_metrics": _OBJECT},
}
#: The fields around a trace line's payload: a header's, and an event's.
_HEADER_FIELDS = {"run_id": _STR, "meta": Field((dict,), required=False)}
_ENVELOPE_FIELDS = {"run_id": _STR, "seq": _INT, "ts": Field((float, int)),
                    "payload": Field((dict,), required=False)}


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
        """The event as a trace line: its envelope around its payload."""
        return json.dumps({"run_id": self.run_id, "seq": self.seq, "ts": self.timestamp,
                           "kind": self.kind, "payload": self.payload}, sort_keys=True)


class CounterClock:
    """A clock that reads 0.0, 1.0, 2.0, ... — one tick per read, for
    bit-reproducible traces."""

    def __init__(self) -> None:
        self._next = 0.0
        self._lock = threading.Lock()

    def __call__(self) -> float:
        with self._lock:
            value = self._next
            self._next += 1.0
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
            header = {"kind": "header", "version": TRACE_VERSION, "run_id": run_id,
                      "meta": dict(meta)}
            self._last_seq[run_id] = -1
            if self.path is not None:
                self._write(json.dumps(header, sort_keys=True))

    def emit(self, run_id: str, kind: str, **payload: Any) -> TraceEvent:
        """Append the next event of `run_id`, a run begun with :meth:`begin_run`.
        A payload field that :data:`EVENT_FIELDS` does not declare for `kind`,
        or declares otherwise, is a :class:`TraceError` naming it."""
        if kind not in EVENT_FIELDS:
            raise TraceError(f"unknown event kind {kind!r}")
        with self._lock:
            if run_id not in self._last_seq:
                raise TraceError(f"run {run_id!r} has no header; call begin_run first")
            seq = self._last_seq[run_id] + 1
            where = f"{kind} event {seq}"
            undeclared = payload.keys() - EVENT_FIELDS[kind].keys()
            if undeclared:
                raise TraceError(f"{where}: undeclared field {min(undeclared)!r}")
            check_fields(payload, EVENT_FIELDS[kind], where=where, error=TraceError)
            event = TraceEvent(
                run_id=run_id, seq=seq, timestamp=self.clock(), kind=kind, payload=payload
            )
            self._last_seq[run_id] = seq
            self._events.append(event)
            if self.path is not None:
                self._write(event.to_line())
        return event

    def _write(self, line: str) -> None:
        """Append `line` to the trace file; called only when the sink has one,
        so an in-memory sink never serialises an event."""
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

    Re-validates each line's ``kind`` and envelope, a header's version (the
    integer 1 or 2), one header per run, and per-run sequence contiguity.
    Payloads are checked run by run, by :func:`compute_metrics`, so a bad one hides no other run.
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
            kind = read_field(doc, "kind", str, where=f"{path}:{line_no}: line", error=TraceError)
            if kind == "header":
                version = read_field(doc, "version", int, where=f"{path}:{line_no}: header",
                                     error=TraceError)
                if version not in (1, TRACE_VERSION):
                    raise TraceError(f"{path}:{line_no}: unsupported trace version {version!r}")
                check_fields(doc, _HEADER_FIELDS, where=f"{path}:{line_no}: header",
                             error=TraceError)
                run_id = doc["run_id"]
                if run_id in headers:
                    raise TraceError(f"{path}:{line_no}: second header for run {run_id!r}")
                headers[run_id] = doc
                last_seq[run_id] = -1
                continue
            if kind not in EVENT_FIELDS:
                raise TraceError(f"{path}:{line_no}: unknown event kind {kind!r}")
            check_fields(doc, _ENVELOPE_FIELDS, where=f"{path}:{line_no}: {kind} event",
                         error=TraceError)
            run_id, seq = doc["run_id"], doc["seq"]
            if run_id not in headers:
                raise TraceError(f"{path}:{line_no}: event before header for run {run_id!r}")
            expected = last_seq[run_id] + 1
            if seq != expected:
                raise SequenceError(
                    f"{path}:{line_no}: run {run_id!r} expected seq {expected}, got {seq}"
                )
            last_seq[run_id] = seq
            events.append(TraceEvent(run_id=run_id, seq=seq, timestamp=doc["ts"], kind=kind,
                                     payload=doc.get("payload", {})))
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
    node the run dispatched, by id, a node a revision later removed included;
    a node never dispatched has none."""

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


def _check_constraints(plan_text: str | None, constraints: Sequence[tuple[str, str]]
                       ) -> tuple[float | None, bool | None]:
    """(share met, all met), undefined without constraints; no plan text meets none."""
    if not constraints:
        return None, None
    met = [bool(plan_text) and (value.casefold() in plan_text.casefold()) == (kind == "mentions")
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
    offline replay call, so the two can be compared for exact equality, and
    the one fold of a run's counts.  One pass checks each event against
    :data:`EVENT_FIELDS` and folds ``role_call`` usage per role (a call that
    ended on a backend error adds unknown counts), ``env_step`` and accepted
    ``replan`` events per scope, and each node's last ``node_status``: a
    node's record is that status, its replans and its steps.  The last
    ``run_end`` gives the rest.  `gold`, `method` and the graded
    ``env_metrics`` fields are checked by their own reads; a field of the
    wrong type is a :class:`TraceError` naming the event and the field.
    """
    gold_answer, constraints = read_gold(
        check_value(gold or {}, Mapping, name="'gold'", error=TraceError), where="gold",
        error=TraceError)
    usages: dict[str, TokenUsage] = {}
    steps: Counter[str] = Counter()
    replans: Counter[str] = Counter()
    statuses: dict[str, str] = {}
    run_end: TraceEvent | None = None
    for event in events:
        p = event.payload
        check_fields(p, EVENT_FIELDS[event.kind], where=f"{event.kind} event {event.seq}",
                     error=TraceError)
        if event.kind == "role_call":
            usage = TokenUsage(None, None) if "error" in p else TokenUsage(
                p["prompt_tokens"], p["output_tokens"])
            usages[p["role"]] = usages.get(p["role"], TokenUsage()) + usage
        elif event.kind == "env_step":
            steps[p["scope"]] += 1
        elif event.kind == "replan" and p["accepted"]:
            replans[p["scope"]] += 1
        elif event.kind == "node_status":
            statuses[p["node_id"]] = p["status"]
        elif event.kind == "run_end":
            run_end = event
    if run_end is None:
        raise TraceError("run has no run_end event")
    end = run_end.payload
    read_env = partial(read_field, end["env_metrics"],
                       where=f"run_end event {run_end.seq} env_metrics", error=TraceError)

    answer = read_env("answer", str, None, default=None)
    accuracy = None if gold_answer is None else (
        answer is not None and normalize_answer(answer) == normalize_answer(gold_answer)
    )
    delivered_accuracy = accuracy if (end["delivered"] and accuracy is not None) else None

    total = sum(usages.values(), TokenUsage())
    prompt_tokens, output_tokens = (None if n is None else float(n) for n in astuple(total))

    plan_text = read_env("plan_text", str, None, default=None) if constraints else None
    constraint_micro, constraint_macro = _check_constraints(plan_text, constraints)

    return MetricsRecord(
        run_id=run_id or run_end.run_id,
        method=check_value(method, str, name="compute_metrics: 'method'", error=TraceError)
        or end["method"],
        delivery=end["delivered"],
        accuracy=accuracy,
        delivered_accuracy=delivered_accuracy,
        avg_reward=read_env("reward", float, int, None, default=None),
        avg_prompt_tokens=prompt_tokens,
        avg_output_tokens=output_tokens,
        replans_total=replans.total(),
        constraint_micro=constraint_micro,
        constraint_macro=constraint_macro,
        steps_used=steps.total(),
        terminal=end["terminal"],
        reason=end["reason"],
        env_metrics=end["env_metrics"],
        node_records={nid: {"status": status, "replan_count": replans[nid],
                            "trace_len": steps[nid]} for nid, status in sorted(statuses.items())},
        role_tokens={role: asdict(usage) for role, usage in sorted(usages.items())},
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
