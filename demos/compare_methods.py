#!/usr/bin/env python3
"""Run every method over the wiki task set and print the comparison table.

Same scripted backends, same fixtures, four controllers: the graph engine and
the three single-context baselines.  The last column is the reduction in
total (prompt plus output) tokens relative to plan-act.
"""

from collections import defaultdict
from pathlib import Path

from tdp.baselines import BASELINES
from tdp.cli import load_config
from tdp.engine import run_task
from tdp.environments import load_task_instance, make_environment
from tdp.telemetry import TraceSink, compare_report, compute_metrics

ROOT = Path(__file__).resolve().parents[1]
METHODS = ("tdp", "react", "cot", "plan-act")


def main() -> None:
    batches = defaultdict(list)
    for fixture in sorted((ROOT / "fixtures" / "wiki").glob("*.json")):
        for method in METHODS:
            instance = load_task_instance(fixture)
            config = load_config(ROOT / "configs" / "scripted_wiki.json")
            env = make_environment(instance.environment)
            sink = TraceSink(clock=config.make_clock())
            if method == "tdp":
                report = run_task(instance, env, config, sink=sink)
            else:
                report = BASELINES[method](instance, env, config, sink=sink)
            batches[method].append(
                compute_metrics(sink.events_for(report.run_id), instance.gold)
            )

    print(compare_report(batches, reference="plan-act").format_table())


if __name__ == "__main__":
    main()
