"""Rewrite README.md's generated blocks from the runs that measure them.

    python3 tools/readme_tables.py

A block is the text between a ``<!-- NAME:begin -->`` line and its
``<!-- NAME:end -->`` line.  There is one, ``crossover``: tdp against
plan-act on the benchmark's seed-1 chain at each length of
``perfbench.crossover``, from ``perfbench.crossover.record(1)``.  The
counts are exact, so a block that differs from a fresh run is stale;
``tests/test_docs.py`` fails until this script is rerun.
"""

from __future__ import annotations

import re
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
README = ROOT / "README.md"
SEED = 1
MINUS = "−"


def crossover_table(rows: list[dict]) -> str:
    """The crossover rows as a Markdown table: each method's prompt tokens,
    in total and per stage, and tdp's change against plan-act."""
    lines = [
        "| stages W | tdp prompt tokens | per stage | plan-act prompt tokens | per stage "
        "| tdp against plan-act |",
        "| ---: | ---: | ---: | ---: | ---: | ---: |",
    ]
    for row in rows:
        stages = row["stages"]
        tdp, planact = row["tdp"]["prompt_tokens"], row["plan-act"]["prompt_tokens"]
        change = f"{100 * (tdp - planact) / planact:+.1f}%".replace("-", MINUS)
        lines.append(f"| {stages} | {tdp:,} | {round(tdp / stages):,} | {planact:,} "
                     f"| {round(planact / stages):,} | {change} |")
    return "\n".join(lines)


def blocks() -> dict[str, str]:
    """Each generated block's name and its fresh text."""
    from perfbench.crossover import record

    return {"crossover": crossover_table(record(SEED))}


def rewrite(text: str, fresh: dict[str, str]) -> str:
    """`text` with each named block replaced by its fresh text; a name whose
    markers do not occur exactly once is a ValueError."""
    for name, body in fresh.items():
        block = re.compile(rf"^(<!-- {name}:begin -->\n).*?^(<!-- {name}:end -->)$",
                           re.MULTILINE | re.DOTALL)
        text, count = block.subn(lambda m: f"{m.group(1)}{body}\n{m.group(2)}", text)
        if count != 1:
            raise ValueError(f"expected one {name!r} block, found {count}")
    return text


def main() -> None:
    sys.path[0:0] = [str(ROOT / "src"), str(ROOT)]
    text = README.read_text(encoding="utf-8")
    new = rewrite(text, blocks())
    if new != text:
        README.write_text(new, encoding="utf-8")
        print(f"rewrote {README.name}")


if __name__ == "__main__":
    main()
