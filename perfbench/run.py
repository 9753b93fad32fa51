"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload chain_tdp --seed 1 --seconds 25 --trace 0

Run from the repository root.  The load is a closed loop with one client: a
single process and thread runs one op after another until ``--seconds`` have
passed.  ``--trace 0`` times the program untouched (apart from a backend
delegate that reads the clock twice per model call) and prints the end-to-end
metrics (the timings among them are printed but left out of the result
object; see ``harness.REPORTED_ONLY``).  Between its ops it starts
``SETUP_PROBES`` fresh processes, spread over the run, that stop after set-up;
``setup_s`` is their median.  ``--trace 1`` alternates untraced and traced ops
of the same input, prints the per-layer metrics, and requires both kinds of op
to write byte-identical traces.  Every op is checked; see
``perfbench/README.md``.

The last line of standard output is one JSON object:
``{"correct": ..., "attempted": ..., "failed": ..., "metrics": {name: {"value", "unit"}}}``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOAD_NAMES = ("chain_tdp", "chain_planact", "chain_revise", "fixtures")
SETUP_PROBES = 30


def import_program() -> None:
    """Put the checkout's ``src`` first on the path and make sure it is what loads."""
    if sys.path and Path(sys.path[0]).resolve() == Path(__file__).resolve().parent:
        del sys.path[0]  # run as a script: import perfbench's modules as a package only
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    import tdp

    loaded = Path(tdp.__file__).resolve().parent
    if loaded != ROOT / "src" / "tdp":
        raise ImportError(f"tdp loaded from {loaded}, not from this checkout's src/")


def git_commit() -> str:
    """The checked-out commit, or ``unknown`` outside a git checkout."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30,
            env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)},
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def setup(name: str, seed: int, work_dir: Path):
    """Everything before the first op: load templates and generate the inputs."""
    from tdp.roles import load_templates

    from perfbench.workloads import WORKLOADS

    load_templates()
    workload = WORKLOADS[name]()
    workload.setup(seed, work_dir)
    return workload


def setup_probe(args: argparse.Namespace) -> float:
    """Seconds from starting a fresh process to the end of its set-up."""
    start = time.monotonic()
    probe = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
         "--seed", str(args.seed), "--setup-probe"],
        cwd=ROOT, capture_output=True, text=True, timeout=120, check=True,
    )
    return float(probe.stdout.split()[-1]) - start


def write_spans(spans: list, args: argparse.Namespace) -> Path:
    """Write the last traced op's spans, one JSON list per line:
    [span id, parent id or -1, name, start s, end s]."""
    out = ROOT / ".perfbench_out" / "spans" / f"{args.workload}-seed{args.seed}.jsonl"
    out.parent.mkdir(parents=True, exist_ok=True)
    with open(out, "w", encoding="utf-8") as handle:
        for span in spans:
            handle.write(json.dumps(span) + "\n")
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    try:
        import_program()
    except ImportError as err:
        print(f"error: cannot import tdp from {ROOT / 'src'}: {err}", file=sys.stderr)
        return 2

    work_dir = ROOT / ".perfbench_work" / f"{args.workload}-{os.getpid()}"
    try:
        workload = setup(args.workload, args.seed, work_dir)
    except Exception as err:  # missing fixtures or configs: no result to report
        print(f"error: set-up failed: {err!r}", file=sys.stderr)
        return 2
    if args.setup_probe:
        print(time.monotonic())
        return 0

    from perfbench.harness import REPORTED_ONLY, Runner, end_to_end, per_layer
    from perfbench.stats import median

    work_dir.mkdir(parents=True, exist_ok=True)
    try:
        runner = Runner(workload, work_dir)
        start = time.monotonic()
        deadline = start + args.seconds
        minimum = 2 if args.trace else 1
        # set-up probes are spread over the run, between ops, so that a slow
        # spell of the host touches only some of them
        probes: list[float] = []
        wanted = 0 if args.trace else SETUP_PROBES
        spacing = args.seconds / SETUP_PROBES
        while runner.attempted < minimum or time.monotonic() < deadline:
            while len(probes) < wanted and time.monotonic() >= start + len(probes) * spacing:
                probes.append(setup_probe(args))
            runner.run_op(traced=bool(args.trace) and runner.attempted % 2 == 1)
        while len(probes) < wanted:
            probes.append(setup_probe(args))
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
        try:
            work_dir.parent.rmdir()
        except OSError:
            pass

    for problem in runner.problems[:5]:
        print(f"problem: {problem}", file=sys.stderr)
    if not runner.untraced or (args.trace and not runner.traced):
        print("error: no op completed; nothing to report", file=sys.stderr)
        return 1

    if args.trace:
        metrics, record = per_layer(runner)
        record["spans_file"] = str(write_spans(runner.tracer.spans, args).relative_to(ROOT))
    else:
        metrics, record = end_to_end(runner)
        metrics["setup_s"] = (median(probes), "s")
        record["setup_probes_s"] = [round(probe, 4) for probe in probes]
        metrics["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB")
    record.update(
        workload=args.workload,
        seed=args.seed,
        seconds=args.seconds,
        trace=args.trace,
        python=platform.python_version(),
        nproc=len(os.sched_getaffinity(0)),
        commit=git_commit(),
        attempted=runner.attempted,
        failed=runner.failed,
    )
    print("run record: " + json.dumps(record, sort_keys=True))
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value} {unit}")
    # failed_op_share is 0 when all is well, so the result's "failed" field carries it
    gated = {
        name: {"value": value, "unit": unit}
        for name, (value, unit) in metrics.items()
        if name not in REPORTED_ONLY and name != "failed_op_share"
    }
    result = {
        "correct": runner.correct == runner.attempted,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": gated,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
