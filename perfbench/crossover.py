"""Token-crossover record: tdp against plan-act on the seeded chain at several lengths.

    python3 perfbench/crossover.py [--seed N] > perfbench/crossover.json

At each chain length W every stage throws an obstacle, as in the acceptance
suite's chain (``tests/scenarios.py``); the seed picks only the filler lengths.
Each method runs once; the record holds total prompt tokens, the largest
single replan prompt and the model calls.  These are exact counts, so the
record is informational and carries no bound.
"""

from __future__ import annotations

import argparse
import json
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
LENGTHS = (3, 10, 40, 100)


def record(seed: int) -> list[dict]:
    from perfbench.harness import Runner
    from perfbench.workloads import ChainWorkload

    rows = []
    with tempfile.TemporaryDirectory(dir=ROOT) as tmp:
        for stages in LENGTHS:
            row: dict = {"stages": stages, "obstacles": stages}
            for method in ("tdp", "plan-act"):
                workload = ChainWorkload(method, method, stages=stages, obstacles=row["obstacles"])
                workload.setup(seed, Path(tmp))
                runner = Runner(workload, Path(tmp))
                runner.run_op(traced=False)
                if runner.problems:
                    raise RuntimeError(f"{method} at W={stages}: {runner.problems}")
                checked = runner.untraced[0]["checked"]
                row[method] = {
                    "prompt_tokens": checked.prompt_tokens,
                    "max_replan_prompt_tokens": checked.max_replan_prompt_tokens,
                    "model_calls": checked.model_calls,
                }
            rows.append(row)
    return rows


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args()
    sys.path[0:1] = [str(ROOT / "src"), str(ROOT)]
    print(json.dumps({"seed": args.seed, "chains": record(args.seed)}, indent=2))
    return 0


if __name__ == "__main__":
    sys.exit(main())
