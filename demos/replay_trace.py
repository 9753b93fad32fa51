#!/usr/bin/env python3
"""Every run is an append-only event log; this shows the log is the run.

A task is executed twice into two trace files — byte-identical, because the
scripted backends and the counter clock are deterministic.  The metrics are
then recomputed purely from the file and compared with the live numbers.
"""

import tempfile
from pathlib import Path

from tdp.cli import load_config
from tdp.engine import run_task
from tdp.environments import load_task_instance, make_environment
from tdp.telemetry import TraceSink, compute_metrics, read_trace

ROOT = Path(__file__).resolve().parents[1]


def run_once(instance_path: Path, trace_path: Path):
    instance = load_task_instance(instance_path)
    config = load_config(ROOT / "configs" / "scripted_wiki.json")
    sink = TraceSink(trace_path, clock=config.make_clock())
    record = run_task(instance, make_environment(instance.environment), config, sink=sink)
    return instance, record


def replay(fixture: Path, workdir: Path) -> None:
    """Run `fixture` twice into `workdir`, then replay the first trace."""
    instance, live = run_once(fixture, workdir / "first.jsonl")
    run_once(fixture, workdir / "second.jsonl")

    first = (workdir / "first.jsonl").read_bytes()
    second = (workdir / "second.jsonl").read_bytes()
    print(f"trace file: {workdir / 'first.jsonl'} ({len(first)} bytes)")
    print(f"re-run is byte-identical: {first == second}")

    _, events = read_trace(workdir / "first.jsonl")
    kinds = {}
    for event in events:
        kinds[event.kind] = kinds.get(event.kind, 0) + 1
    print("events by kind:", ", ".join(f"{k}={n}" for k, n in sorted(kinds.items())))

    replayed = compute_metrics(events, instance.gold)
    print(f"metrics replayed from file equal live metrics: {replayed == live}")
    prompt, output = replayed.avg_prompt_tokens, replayed.avg_output_tokens
    print(f"delivery={replayed.delivery}, accuracy={replayed.accuracy}, "
          f"prompt_tokens={prompt:.0f} output_tokens={output:.0f} "
          f"total_tokens={prompt + output:.0f}")


def main() -> None:
    fixture = ROOT / "fixtures" / "wiki" / "wiki_peoria.json"
    with tempfile.TemporaryDirectory(prefix="tdp-replay-") as tmp:
        replay(fixture, Path(tmp))


if __name__ == "__main__":
    main()
