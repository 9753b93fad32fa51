"""Command-line front end: run, compare, replay, report.

Configuration is a JSON file; relative script-file paths inside it resolve
against the config file's own directory.  Remote backends read their API key
from the environment variable named in the config and refuse to start when it
is unset.  Replay and report work purely from trace files — no backend and no
environment is ever constructed for them.
"""

from __future__ import annotations

import argparse
import glob as globlib
import json
import sys
from dataclasses import fields
from functools import partial
from pathlib import Path
from typing import Any, Collection, Sequence

from .baselines import BASELINES
from .engine import EngineError, RunConfig, replay_graph, run_task
from .environments import TaskInstance, load_task_instance, make_environment
from .fields import check_value, load_json, read_field
from .roles import TEMPLATE_TABLE, ModelBackend, RemoteChatBackend, ScriptedBackend
from .telemetry import (
    MetricsRecord,
    TraceError,
    TraceSink,
    compare_report,
    compute_metrics,
    read_trace,
)

__all__ = ["CliError", "load_config", "dispatch", "main", "METHODS", "ROLES"]

METHODS = ("tdp",) + tuple(sorted(BASELINES))
#: The roles a backend may be configured for: those the templates name.
ROLES = tuple(sorted({role for role, _read in TEMPLATE_TABLE.values()}))


class CliError(ValueError):
    """User-facing command failure; rendered as one line on stderr."""


# ---------------------------------------------------------------------------
# config + inputs


def _build_backend(role: str, spec: Any, base_dir: Path) -> ModelBackend:
    check_value(spec, dict, name=f"config: backend {role!r}", error=CliError)
    kind = spec.get("kind")
    read = partial(read_field, spec, where=f"{kind} backend", error=CliError)
    if kind == "scripted":
        rules = read("rules", str)
        path = (base_dir / rules).resolve() if not Path(rules).is_absolute() else Path(rules)
        if not path.exists():
            raise CliError(f"script file not found: {path}")
        return ScriptedBackend.from_file(path)
    if kind == "remote":
        settings = {key: read(key, str) for key in ("endpoint", "model", "credential_env")}
        for key, value in settings.items():
            if not value.strip():
                raise CliError(f"remote backend: {key!r} must be a nonblank string, got {value!r}")
        try:
            return RemoteChatBackend(
                **settings, temperature=float(read("temperature", float, int, default=0.0))
            )
        except RuntimeError as err:  # unset credential env var, non-HTTP endpoint
            raise CliError(str(err)) from None
    raise CliError(f"unknown backend kind {kind!r} (expected 'scripted' or 'remote')")


def load_config(path: str | Path) -> RunConfig:
    """Read a run-config JSON file into a RunConfig with live backends.

    Every top-level key except ``backends`` names a :class:`RunConfig` field,
    whose default applies when the key is absent; an unknown key or a value
    of the wrong type is an error.  ``backends`` maps roles a template names
    (:data:`ROLES`) to backend objects; any other role is an error.
    """
    path = Path(path)
    if not path.exists():
        raise CliError(f"config file not found: {path}")
    doc = check_value(load_json(path, CliError), dict, name=f"config {path}", error=CliError)
    read = partial(read_field, doc, where="config", error=CliError)
    # the type of each field's default; the one optional field is the environment
    types = {f.name: (type(f.default),) if f.default is not None else (str, None)
             for f in fields(RunConfig) if f.name != "role_backends"}
    kwargs: dict[str, Any] = {}
    for key in doc:
        if key == "backends":
            backends = read(key, dict)
            unknown = sorted(set(backends) - set(ROLES))
            if unknown:
                raise CliError(
                    f"config key 'backends' names unknown role(s) {', '.join(map(repr, unknown))}"
                    f"; known roles: {', '.join(ROLES)}"
                )
            kwargs["role_backends"] = {
                role: _build_backend(role, spec, path.parent) for role, spec in backends.items()
            }
        elif key in types:
            kwargs[key] = read(key, *types[key])
        else:
            raise CliError(f"unknown config key {key!r}")
    try:
        return RunConfig(**kwargs)
    except EngineError as err:
        raise CliError(str(err)) from None


def _collect_instances(tasks_path: str, config: RunConfig) -> list[TaskInstance]:
    path = Path(tasks_path)
    if not path.exists():
        raise CliError(f"tasks path not found: {path}")
    files = sorted(path.glob("*.json")) if path.is_dir() else [path]
    if not files:
        raise CliError(f"no fixture files under: {path}")
    instances = [load_task_instance(f) for f in files]
    seen: dict[str, Path] = {}
    for file, instance in zip(files, instances):
        first = seen.setdefault(instance.id, file)
        if first != file:  # their runs would write one trace file
            raise CliError(f"fixtures {first} and {file} share the id {instance.id!r}")
    if config.environment:
        instances = [i for i in instances if i.environment == config.environment]
        if not instances:
            raise CliError(
                f"no fixtures for environment {config.environment!r} under {path}"
            )
    return instances


def _single_run(
    method: str, instance: TaskInstance, config: RunConfig, trace_dir: Path
) -> tuple[MetricsRecord, MetricsRecord, Path]:
    env = make_environment(instance.environment)
    run_id = f"{method}__{instance.id}"
    trace_path = trace_dir / f"{run_id}.jsonl"
    sink = TraceSink(path=trace_path, clock=config.make_clock())
    runner = run_task if method == "tdp" else BASELINES[method]
    try:
        record = runner(instance, env, config, sink=sink, run_id=run_id)
    finally:
        sink.close()  # also when the runner refuses the config before the run starts
    # the record twice: perfbench's fixtures workload unpacks (report, record, path)
    return record, record, trace_path


def _run_matrix(
    methods: Sequence[str],
    instances: Sequence[TaskInstance],
    config: RunConfig,
    trace_dir: Path,
) -> tuple[list[tuple[MetricsRecord, Path]], int]:
    """Run every (method, instance) pair in turn; return the finished runs and
    how many failed.

    A run that raises does not stop the others: its one-line failure account
    is printed, in run order, after the last run.  Configuration errors
    (:class:`CliError`, :class:`EngineError`) would end every run alike, so
    they propagate.
    """
    results: list[tuple[MetricsRecord, Path]] = []
    failures: list[str] = []
    for method in methods:
        for instance in instances:
            try:
                results.append(_single_run(method, instance, config, trace_dir)[1:])
            except (CliError, EngineError):
                raise
            except Exception as err:
                message = " ".join(str(err).splitlines())
                failures.append(
                    f"{method}__{instance.id}: failed: {type(err).__name__}: {message}"
                )
    for line in failures:
        print(line)
    return results, len(failures)


def _trace_dir(args: argparse.Namespace) -> Path:
    path = Path(args.trace_dir)
    path.mkdir(parents=True, exist_ok=True)
    return path


def _reference(requested: str | None, methods: Collection[str]) -> str:
    """The token-reduction reference: `requested` if given, else plan-act
    when among `methods`, else the first of `methods` by name."""
    return requested or ("plan-act" if "plan-act" in methods else sorted(methods)[0])


def _report_line(record: MetricsRecord) -> str:
    """One run's summary from its record; an unknown token total shows ``-``."""
    prompt, output = (
        "-" if total is None else int(total)
        for total in (record.avg_prompt_tokens, record.avg_output_tokens)
    )
    return (
        f"{record.run_id}: {record.terminal} ({record.reason}) "
        f"steps={record.steps_used} delivered={record.delivery} "
        f"prompt_tokens={prompt} output_tokens={output}"
    )


# ---------------------------------------------------------------------------
# commands


def _cmd_run(args: argparse.Namespace) -> int:
    config = load_config(args.config)
    instances = _collect_instances(args.tasks, config)
    trace_dir = _trace_dir(args)
    results, failed = _run_matrix([args.method], instances, config, trace_dir)
    for record, trace_path in results:
        print(_report_line(record))
        print(f"  trace: {trace_path}")
    print(f"completed {len(results)} run(s)" + (f", {failed} failed" if failed else ""))
    return 1 if failed else 0


def _cmd_compare(args: argparse.Namespace) -> int:
    methods = [m.strip() for m in args.methods.split(",") if m.strip()]
    if not methods:
        raise CliError("--methods must name at least one method")
    for pos, method in enumerate(methods):
        if method not in METHODS:
            raise CliError(f"unknown method {method!r}; known: {', '.join(METHODS)}")
        if method in methods[:pos]:  # its runs would overwrite the first ones' traces
            raise CliError(f"method {method!r} is named twice in --methods")
    reference = _reference(args.reference, methods)
    if reference not in methods:
        raise CliError(
            f"reference method {reference!r} is not among --methods {', '.join(methods)}"
        )
    config = load_config(args.config)
    instances = _collect_instances(args.tasks, config)
    trace_dir = _trace_dir(args)
    results, failed = _run_matrix(methods, instances, config, trace_dir)
    batches: dict[str, list[MetricsRecord]] = {}
    for record, _path in results:
        print(_report_line(record))
        batches.setdefault(record.method, []).append(record)
    print()
    if reference in batches:
        print(compare_report(batches, reference=reference).format_table())
    else:
        print(f"no table: reference method {reference!r} has no finished run")
    return 1 if failed else 0


def _trace_records(path: Path) -> tuple[list[MetricsRecord], list[str]]:
    """Replayed metrics of every run in one trace file, in run-id order, and
    one message naming the file and run for each run that cannot be replayed,
    such as a tdp run whose graph :func:`~tdp.engine.replay_graph` refuses (a
    file that does not parse is one such message, naming its line)."""
    try:
        headers, events = read_trace(path)
    except TraceError as err:  # say, a last line cut short by a killed process
        return [], [str(err)]
    records, errors = [], []
    for run_id in sorted(headers):
        meta = headers[run_id].get("meta", {})
        run_events = [e for e in events if e.run_id == run_id]
        try:
            record = compute_metrics(
                run_events, meta.get("gold") or {}, method=meta.get("method", ""), run_id=run_id
            )
            if record.method == "tdp":
                replay_graph(run_events)
            records.append(record)
        except TraceError as err:  # say, no run_end: its process was killed
            errors.append(f"{path}: run {run_id!r}: {err}")
    return records, errors


def _print_errors(errors: Sequence[str]) -> None:
    for message in errors:
        print(f"error: {message}", file=sys.stderr)


def _cmd_replay(args: argparse.Namespace) -> int:
    path = Path(args.trace)
    if not path.exists():
        raise CliError(f"trace file not found: {path}")
    records, errors = _trace_records(path)
    if not records and not errors:
        raise CliError(f"trace file has no run header: {path}")
    for record in records:
        print(json.dumps(record.to_dict(), sort_keys=True))
    _print_errors(errors)
    return 1 if errors else 0


def _cmd_report(args: argparse.Namespace) -> int:
    paths: dict[Path, Path] = {}  # by resolved path: a file matched twice is read once
    for pattern in args.traces:
        expanded = [Path(p) for p in sorted(globlib.glob(pattern))]
        if not expanded and Path(pattern).exists():
            expanded = [Path(pattern)]
        if not expanded:
            raise CliError(f"no trace files match: {pattern}")
        for path in expanded:
            paths.setdefault(path.resolve(), path)
    batches: dict[str, list[MetricsRecord]] = {}
    errors: list[str] = []
    for path in paths.values():
        records, unread = _trace_records(path)
        errors.extend(unread)
        for record in records:
            batches.setdefault(record.method or "unknown", []).append(record)
    _print_errors(errors)
    if not batches:
        if errors:
            return 1
        raise CliError("no runs found in the given traces")
    reference = _reference(args.reference, batches)
    if reference not in batches:
        raise CliError(f"reference method {reference!r} not present in traces")
    print(compare_report(batches, reference=reference).format_table())
    return 1 if errors else 0


# ---------------------------------------------------------------------------
# wiring


REFERENCE_HELP = "token-reduction reference (default: plan-act if run, else the first by name)"


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tdp",
        description="Run, compare, replay, and report graph-orchestrated agent tasks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run one method over a fixture set")
    run_p.add_argument("--method", required=True, choices=METHODS)
    run_p.add_argument("--tasks", required=True, help="fixture file or directory")
    run_p.add_argument("--config", required=True, help="run-config JSON file")
    run_p.add_argument("--trace-dir", default="traces", help="where trace files go")
    run_p.set_defaults(handler=_cmd_run)

    cmp_p = sub.add_parser("compare", help="run several methods and tabulate metrics")
    cmp_p.add_argument("--methods", required=True, help="comma-separated method names")
    cmp_p.add_argument("--tasks", required=True)
    cmp_p.add_argument("--config", required=True)
    cmp_p.add_argument("--reference", default=None, help=REFERENCE_HELP)
    cmp_p.add_argument("--trace-dir", default="traces")
    cmp_p.set_defaults(handler=_cmd_compare)

    rep_p = sub.add_parser("replay", help="recompute metrics from a trace file")
    rep_p.add_argument("--trace", required=True)
    rep_p.set_defaults(handler=_cmd_replay)

    rpt_p = sub.add_parser("report", help="aggregate existing traces into a table")
    rpt_p.add_argument("--traces", required=True, nargs="+", help="trace files or globs")
    rpt_p.add_argument("--reference", default=None, help=REFERENCE_HELP)
    rpt_p.set_defaults(handler=_cmd_report)

    return parser


def dispatch(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse exits on bad flags; keep it a return code
        return int(exc.code or 0)
    try:
        return args.handler(args)
    except (CliError, EngineError) as err:  # EngineError: e.g. a role with no backend
        print(f"error: {err}", file=sys.stderr)
        return 2
    except (OSError, ValueError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(dispatch())


if __name__ == "__main__":
    main()
