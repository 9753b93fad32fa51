#!/usr/bin/env python3
"""Walk one look-up question through the full engine, narrating as it goes.

The supervisor decomposes the question into a small dependency graph, each
node is planned and executed against the mock wiki with only its own scoped
context, and the answer is delivered by the final node.  Everything is driven
by the scripted backends shipped under configs/, so the output is identical
on every run.
"""

from pathlib import Path

from tdp.cli import load_config
from tdp.engine import replay_graph, run_task
from tdp.environments import load_task_instance, make_environment
from tdp.telemetry import TraceSink

ROOT = Path(__file__).resolve().parents[1]


def main() -> None:
    instance = load_task_instance(ROOT / "fixtures" / "wiki" / "wiki_peoria.json")
    config = load_config(ROOT / "configs" / "scripted_wiki.json")
    sink = TraceSink(clock=config.make_clock())

    print(f"question: {instance.query}\n")
    report = run_task(instance, make_environment(instance.environment), config, sink=sink)
    events = sink.events_for(report.run_id)

    # the graph as the trace records it right after the decomposition
    constructed = next(i for i, e in enumerate(events) if e.kind == "graph_constructed")
    graph = replay_graph(events[: constructed + 1])
    print("decomposition:")
    for nid, node in sorted(graph.nodes.items()):
        deps = ", ".join(sorted(node.dependencies)) or "none"
        print(f"  {nid}: {node.description}  (needs: {deps})")

    print("\nexecution:")
    for event in events:
        if event.kind == "env_step":
            p = event.payload
            print(f"  [{p['scope']}] step {p['step_index']}: {p['action']}")
            print(f"      -> {p['observation'][:96]}")

    print(f"\noutcome: {report.terminal} ({report.reason})")
    print(f"answer: {report.env_metrics.get('answer')!r}  (expected {instance.gold.get('answer')!r})")
    prompt, output = report.avg_prompt_tokens, report.avg_output_tokens
    print(f"steps: {report.steps_used}, prompt tokens: {prompt:.0f}, "
          f"output tokens: {output:.0f}, total tokens: {prompt + output:.0f}")


if __name__ == "__main__":
    main()
