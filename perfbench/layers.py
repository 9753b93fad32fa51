"""Per-layer measurement from outside the program.

Spans are recorded only in this file, around calls into tdp's public
functions: a wrapper is installed where a name is looked up (``tdp.engine``
imports ``ready_nodes`` by name, so ``tdp.engine.ready_nodes`` is wrapped, not
``tdp.graph.ready_nodes``), the model backend and the environment are timed by
delegating objects the benchmark passes in, and the sink by wrapping
``TraceSink.emit`` and ``TraceSink.begin_run``.  Every wrapper is removed again
after each traced op, so untraced ops run the program untouched.

A layer's self time is its span's duration minus the part its child spans
cover.  Calls run on one thread, so children never overlap and the covered
part is the sum of their durations.
"""

from __future__ import annotations

import builtins
import functools
import io
import os
import time
from collections import defaultdict
from pathlib import Path
from typing import Any, Callable

import tdp.baselines
import tdp.cli
import tdp.engine
import tdp.graph
import tdp.roles
import tdp.telemetry
from tdp.environments import Environment
from tdp.roles import ModelBackend, RoleFault

now = time.perf_counter

#: (module, attribute, span name) for every plain function wrapped by name.
SPAN_SITES: tuple[tuple[Any, str, str], ...] = (
    (tdp.engine, "render_prompt", "roles.render_prompt"),
    (tdp.roles, "render_prompt", "roles.render_prompt"),
    (tdp.engine, "load_templates", "roles.load_templates"),
    (tdp.baselines, "load_templates", "roles.load_templates"),
    (tdp.engine, "task_done", "engine.task_done"),
    (tdp.engine, "call_and_record", "engine.call_and_record"),
    (tdp.baselines, "call_and_record", "engine.call_and_record"),
    (tdp.engine, "run_task", "engine.run"),
    (tdp.cli, "run_task", "engine.run"),
    (tdp.baselines, "run_react", "baselines.run"),
    (tdp.baselines, "run_cot", "baselines.run"),
    (tdp.baselines, "run_plan_and_act", "baselines.run"),
    (tdp.engine, "ready_nodes", "graph.ready_nodes"),
    (tdp.engine, "build_node_context", "graph.build_node_context"),
    (tdp.engine, "render_dag_state", "graph.render_dag_state"),
    (tdp.engine, "validate_graph", "graph.validate_graph"),
    (tdp.graph, "validate_graph", "graph.validate_graph"),
    (tdp.engine, "graph_to_doc", "graph.graph_to_doc"),
    (tdp.telemetry.TraceSink, "emit", "telemetry.emit"),
    (tdp.telemetry.TraceSink, "begin_run", "telemetry.emit"),
    (tdp.telemetry, "compute_metrics", "telemetry.compute_metrics"),
    (tdp.cli, "compute_metrics", "telemetry.compute_metrics"),
    (tdp.cli, "read_trace", "telemetry.read_trace"),
    (tdp.cli, "compare_report", "telemetry.compare_report"),
    (tdp.cli, "load_config", "cli.load_config"),
    (tdp.cli, "dispatch", "cli.dispatch"),
)

#: Layer entries reported as ``<name>.calls`` and ``<name>.self_ms``.
TIMED = (
    "roles.complete",
    "roles.render_prompt",
    "roles.call_role",
    "roles.parse",
    "roles.load_templates",
    "engine.history",
    "engine.task_done",
    "engine.call_and_record",
    "graph.ready_nodes",
    "graph.build_node_context",
    "graph.render_dag_state",
    "graph.apply_revision",
    "graph.validate_graph",
    "graph.graph_to_doc",
    "environments.step",
    "telemetry.emit",
    "telemetry.compute_metrics",
    "telemetry.read_trace",
    "telemetry.compare_report",
    "cli.load_config",
    "cli.dispatch",
)
#: Layer entries whose self time is reported but whose call count is not asked for.
SELF_ONLY = ("engine.run", "baselines.run")


class Patcher:
    """Set attributes or dict entries and put the originals back in reverse order."""

    def __init__(self) -> None:
        self._undo: list[tuple[Any, str, Any]] = []

    def set(self, owner: Any, name: str, value: Any) -> None:
        if isinstance(owner, dict):
            self._undo.append((owner, name, owner[name]))
            owner[name] = value
        else:
            self._undo.append((owner, name, owner.__dict__[name]))
            setattr(owner, name, value)

    def restore(self) -> None:
        while self._undo:
            owner, name, original = self._undo.pop()
            if isinstance(owner, dict):
                owner[name] = original
            else:
                setattr(owner, name, original)


class Tracer:
    """Spans and counters of the traced ops, kept in memory.

    Per-op totals (calls and self seconds per span name, plus counters) are
    kept for every op; the raw spans only for the latest op, so memory stays
    flat however long the run.
    """

    def __init__(self, trace_root: Path) -> None:
        self.trace_root = str(trace_root)
        self.per_op: list[tuple[dict[str, list[float]], dict[str, float]]] = []
        self.spans: list[tuple[int, int, str, float, float]] = []
        self._stack: list[list[Any]] = []  # [span id, name, child seconds]
        self._next_id = 0
        self._totals: dict[str, list[float]] = {}
        self._counts: dict[str, float] = {}

    def begin_op(self) -> None:
        self._totals = defaultdict(lambda: [0, 0.0])
        self._counts = defaultdict(float)
        self.per_op.append((self._totals, self._counts))
        self.spans = []
        self._next_id = 0

    def count(self, name: str, amount: float = 1) -> None:
        self._counts[name] += amount

    def parent_name(self) -> str | None:
        return self._stack[-1][1] if self._stack else None

    def call(self, name: str, fn: Callable[..., Any], *args: Any, **kwargs: Any) -> Any:
        span_id = self._next_id
        self._next_id += 1
        parent = self._stack[-1][0] if self._stack else -1
        frame = [span_id, name, 0.0]
        self._stack.append(frame)
        start = now()
        try:
            return fn(*args, **kwargs)
        finally:
            end = now()
            self._stack.pop()
            duration = end - start
            cell = self._totals[name]
            cell[0] += 1
            cell[1] += duration - frame[2]
            if self._stack:
                self._stack[-1][2] += duration
            self.spans.append((span_id, parent, name, start, end))

    def wrap(self, name: str, fn: Callable[..., Any]) -> Callable[..., Any]:
        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            return self.call(name, fn, *args, **kwargs)

        return traced

    # -- the wrappers that record more than calls and time -------------------

    def _wrap_call_role(self, fn: Callable[..., Any]) -> Callable[..., Any]:
        @functools.wraps(fn)
        def call_role(backend: Any, template: Any, bindings: Any, parser: Any, *a: Any, **k: Any):
            try:
                result = self.call(
                    "roles.call_role", fn, backend, template, bindings,
                    self.wrap("roles.parse", parser), *a, **k,
                )
            except RoleFault as fault:
                self.count("roles.call_role.attempts", fault.attempts)
                self.count("roles.call_role.faults")
                raise
            self.count("roles.call_role.attempts", result[2])
            return result

        return call_role

    def _wrap_history(self, fn: Callable[..., Any]) -> Callable[..., Any]:
        @functools.wraps(fn)
        def history(*args: Any, **kwargs: Any) -> str:
            outermost = self.parent_name() != "engine.history"
            text = self.call("engine.history", fn, *args, **kwargs)
            if outermost:
                self.count("engine.history.chars", len(text))
            return text

        return history

    def _wrap_apply_revision(self, fn: Callable[..., Any]) -> Callable[..., Any]:
        @functools.wraps(fn)
        def apply_revision(*args: Any, **kwargs: Any) -> Any:
            result = self.call("graph.apply_revision", fn, *args, **kwargs)
            self.count("graph.apply_revision.applied", int(result.applied))
            return result

        return apply_revision

    def _counting_open(self, real_open: Callable[..., Any]) -> Callable[..., Any]:
        @functools.wraps(real_open)
        def counting_open(file: Any, *args: Any, **kwargs: Any) -> Any:
            if isinstance(file, (str, os.PathLike)) and os.fspath(file).startswith(self.trace_root):
                self.count("telemetry.file_opens")
            return real_open(file, *args, **kwargs)

        return counting_open

    def install(self, patch: Patcher) -> None:
        """Install every wrapper through `patch`; ``patch.restore()`` removes them.

        A name a later version of tdp no longer has is skipped, and its layer
        then reads zero calls.
        """
        special = {
            "call_role": self._wrap_call_role,
            "apply_revision": self._wrap_apply_revision,
            "assemble_history": self._wrap_history,
            "render_context_history": self._wrap_history,
        }
        for attr, make in special.items():
            if attr in tdp.engine.__dict__:
                patch.set(tdp.engine, attr, make(tdp.engine.__dict__[attr]))
        for owner, attr, name in SPAN_SITES:
            if attr in owner.__dict__:
                patch.set(owner, attr, self.wrap(name, owner.__dict__[attr]))
        for key, runner in list(tdp.baselines.BASELINES.items()):
            patch.set(tdp.baselines.BASELINES, key, self.wrap("baselines.run", runner))
        counting = self._counting_open(builtins.open)
        patch.set(builtins, "open", counting)
        patch.set(io, "open", counting)

    # -- per-op numbers ------------------------------------------------------

    def op_layers(self, index: int) -> dict[str, tuple[float, str]]:
        """Per-layer (value, unit) for traced op `index`."""
        totals, counts = self.per_op[index]

        def calls(name: str) -> int:
            return totals.get(name, (0, 0.0))[0]

        def share(part: float, whole: float) -> float:
            return part / whole if whole else 0.0

        out: dict[str, tuple[float, str]] = {}
        for name in TIMED:
            out[f"{name}.calls"] = (calls(name), "count")
            out[f"{name}.self_ms"] = (totals.get(name, (0, 0.0))[1] * 1000.0, "ms")
        for name in SELF_ONLY:
            out[f"{name}.self_ms"] = (totals.get(name, (0, 0.0))[1] * 1000.0, "ms")
        out["roles.complete.prompt_chars"] = (counts.get("roles.complete.prompt_chars", 0), "chars")
        out["roles.call_role.attempts_per_call"] = (
            share(counts.get("roles.call_role.attempts", 0), calls("roles.call_role")), "ratio"
        )
        out["roles.call_role.faults"] = (counts.get("roles.call_role.faults", 0), "count")
        out["engine.history.chars"] = (counts.get("engine.history.chars", 0), "chars")
        out["graph.apply_revision.applied_share"] = (
            share(counts.get("graph.apply_revision.applied", 0), calls("graph.apply_revision")),
            "ratio",
        )
        out["telemetry.file_opens"] = (counts.get("telemetry.file_opens", 0), "count")
        return out


class TimedBackend(ModelBackend):
    """Untraced-pass backend: adds the time inside ``complete`` to a shared meter."""

    def __init__(self, inner: ModelBackend, meter: list[float]) -> None:
        self.inner = inner
        self.meter = meter

    def complete(self, role_tag: str, prompt: str) -> Any:
        start = now()
        completion = self.inner.complete(role_tag, prompt)
        self.meter[0] += now() - start
        return completion


class TracedBackend(ModelBackend):
    """Traced-pass backend: one ``roles.complete`` span per call, plus prompt size."""

    def __init__(self, inner: ModelBackend, tracer: Tracer) -> None:
        self.inner = inner
        self.tracer = tracer

    def complete(self, role_tag: str, prompt: str) -> Any:
        self.tracer.count("roles.complete.prompt_chars", len(prompt))
        return self.tracer.call("roles.complete", self.inner.complete, role_tag, prompt)


class TracedEnvironment(Environment):
    """Traced-pass environment: one ``environments.step`` span per step."""

    def __init__(self, inner: Environment, tracer: Tracer) -> None:
        self.inner = inner
        self.tracer = tracer
        self.name = inner.name

    def reset(self, instance: Any) -> str:
        return self.inner.reset(instance)

    def step(self, action: str) -> Any:
        return self.tracer.call("environments.step", self.inner.step, action)

    def admissible_commands(self) -> list[str]:
        return self.inner.admissible_commands()

    @property
    def done(self) -> bool:
        return self.inner.done

    def metrics(self) -> dict[str, Any]:
        return self.inner.metrics()
