"""The measurement loop: run ops, check them, and reduce their samples to metrics.

An untraced op runs the program with only a timing delegate around the model
backend (two clock reads per call).  A traced op installs every span wrapper
from ``layers`` first and removes them after.  Both kinds of op must write
byte-identical traces; every op's trace digest is compared with the first's.
"""

from __future__ import annotations

import gc
import time
import traceback
from pathlib import Path
from typing import Any

from .layers import Patcher, TimedBackend, TracedBackend, TracedEnvironment, Tracer
from .stats import median, tail

now = time.perf_counter


class Runner:
    """Runs ops of one workload and keeps their samples."""

    def __init__(self, workload: Any, work_dir: Path) -> None:
        self.workload = workload
        self.tracer = Tracer(work_dir)
        self.attempted = 0
        self.failed = 0
        self.correct = 0
        self.problems: list[str] = []
        self.digest: str | None = None
        self.untraced: list[dict[str, Any]] = []
        self.traced: list[dict[str, Any]] = []

    def run_op(self, traced: bool) -> None:
        meter = [0.0]
        patch = Patcher()
        self.attempted += 1
        try:
            if traced:
                self.tracer.begin_op()
                op = self.workload.prepare(
                    patch,
                    lambda backend: TracedBackend(backend, self.tracer),
                    lambda env: TracedEnvironment(env, self.tracer),
                )
                self.tracer.install(patch)
            else:
                op = self.workload.prepare(patch, lambda backend: TimedBackend(backend, meter), None)
            gc.collect()
            start = now()
            runs = op()
            wall = now() - start
            patch.restore()
            checked = self.workload.check(runs)
        except Exception:  # one bad op is recorded and the workload carries on
            patch.restore()
            self.failed += 1
            self.problems.append(traceback.format_exc(limit=3))
            return
        if self.digest is None:
            self.digest = checked.digest
        elif checked.digest != self.digest:
            kind = "traced" if traced else "untraced"
            checked.problems.append(f"{kind} op wrote traces that differ from the first op's")
        self.problems.extend(checked.problems)
        self.correct += not checked.problems
        sample = {"wall_s": wall, "checked": checked}
        if traced:
            sample["layers"] = self.tracer.op_layers(len(self.tracer.per_op) - 1)
            self.traced.append(sample)
        else:
            sample["model_s"] = meter[0]
            self.untraced.append(sample)


#: End-to-end timings printed with every result but not gated in BENCHMARK.json:
#: on a shared 2-core host their run-to-run spread (0.12-0.36 of the median
#: over ten seeds) exceeds the largest bound a gated metric may have (0.25).
REPORTED_ONLY = ("op_ms_p50", "op_ms_tail", "orchestration_ms_p50", "env_steps_per_s")


def end_to_end(runner: Runner) -> tuple[dict[str, tuple[float, str]], dict[str, Any]]:
    """End-to-end metrics from the untraced ops, except ``setup_s`` and ``peak_rss_mb``,
    which the caller measures."""
    samples = runner.untraced
    checked = [s["checked"] for s in samples]
    wall_ms = [s["wall_s"] * 1000.0 for s in samples]
    tail_ms, percentile, beyond = tail(wall_ms)
    metrics = {
        "op_ms_p50": (median(wall_ms), "ms"),
        "op_ms_tail": (tail_ms, "ms"),
        "orchestration_ms_p50": (
            median([(s["wall_s"] - s["model_s"]) * 1000.0 for s in samples]), "ms"
        ),
        "env_steps_per_s": (median([c.steps / s["wall_s"] for c, s in zip(checked, samples)]), "1/s"),
        "prompt_tokens_per_op": (median([c.prompt_tokens for c in checked]), "count"),
        "output_tokens_per_op": (median([c.output_tokens for c in checked]), "count"),
        "model_calls_per_op": (median([c.model_calls for c in checked]), "count"),
        "max_replan_prompt_tokens": (median([c.max_replan_prompt_tokens for c in checked]), "count"),
        "correct_op_share": (runner.correct / runner.attempted, "share"),
        "failed_op_share": (runner.failed / runner.attempted, "share"),
    }
    record = {
        "untraced_ops": len(samples),
        "tail_percentile": percentile,
        "tail_samples_beyond": beyond,
    }
    return metrics, record


def per_layer(runner: Runner) -> tuple[dict[str, tuple[float, str]], dict[str, Any]]:
    """Per-layer metrics: medians over the traced ops, plus the tracing overhead."""
    samples = runner.traced
    metrics = {
        name: (median([s["layers"][name][0] for s in samples]), unit)
        for name, (_, unit) in samples[0]["layers"].items()
    }
    metrics["telemetry.trace_bytes"] = (median([s["checked"].trace_bytes for s in samples]), "bytes")
    untraced_ms = median([s["wall_s"] * 1000.0 for s in runner.untraced])
    traced_ms = median([s["wall_s"] * 1000.0 for s in samples])
    metrics["bench.trace_overhead_share"] = ((traced_ms - untraced_ms) / untraced_ms, "ratio")
    record = {
        "untraced_ops": len(runner.untraced),
        "traced_ops": len(samples),
        "untraced_op_ms_p50": untraced_ms,
        "traced_op_ms_p50": traced_ms,
    }
    return metrics, record
