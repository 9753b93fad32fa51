"""Golden traces and prompts: the behaviour oracle for refactors.

Every case below runs one method on one task with a scripted backend and the
counter clock, writes its trace to a file and hashes the file's bytes
(SHA-256).  Traces carry only prompt sizes, so the case's role backends are
also wrapped in recording delegates sharing one call log, and every prompt
sent is hashed, in call order, as ``role_tag NUL prompt NUL``.
``golden_traces.json`` and ``golden_prompts.json`` hold the expected hashes of
each case, so a refactor that is meant to keep behaviour must keep every hash.
The tests only read those files.  A change that alters traces or prompts on
purpose regenerates both with

    PYTHONPATH=src python tests/test_golden_traces.py

and says in CHANGES.md why they changed.
"""

from __future__ import annotations

import hashlib
import json
import sys
import tempfile
from functools import lru_cache
from pathlib import Path
from typing import Any, Callable

import pytest

from tdp.baselines import BASELINES
from tdp.cli import load_config
from tdp.engine import RunConfig, run_task
from tdp.environments import Environment, TaskInstance, load_task_instance, make_environment
from tdp.telemetry import CounterClock, TraceSink

from conftest import CONFIG_DIR, TRAVEL_FIXTURE, WIKI_FIXTURES
from scenarios import (
    ChainEnv,
    RecordingBackend,
    chain_config,
    chain_instance,
    diamond_config,
    diamond_instance,
    diamond_rules,
    planact_chain_rules,
    tdp_chain_rules,
    travel_locality_config,
    travel_locality_instance,
    travel_locality_rules,
)

GOLDEN_PATH = Path(__file__).with_name("golden_traces.json")
PROMPTS_PATH = Path(__file__).with_name("golden_prompts.json")

# a case builds (method, instance, environment, config) afresh each time it runs
Case = Callable[[], tuple[str, TaskInstance, Environment, RunConfig]]


def _fixture_case(method: str, fixture: Path, config_name: str) -> Case:
    def build():
        instance = load_task_instance(fixture)
        config = load_config(CONFIG_DIR / config_name)
        return method, instance, make_environment(instance.environment), config

    return build


def _chain_case(method: str, stages: int, revise: bool = False, **overrides: Any) -> Case:
    def build():
        rules = (
            tdp_chain_rules(stages, revise=revise)
            if method == "tdp"
            else planact_chain_rules(stages)
        )
        config = chain_config(stages, rules)
        for name, value in overrides.items():
            setattr(config, name, value)
        return method, chain_instance(stages), ChainEnv(), config

    return build


def _scenario_case(instance: Callable[[], TaskInstance], config: Callable[[], RunConfig]) -> Case:
    def build():
        task = instance()
        return "tdp", task, make_environment(task.environment), config()

    return build


def _cases() -> dict[str, Case]:
    cases: dict[str, Case] = {}
    for fixture in WIKI_FIXTURES:
        for method in ("tdp", "react", "cot", "plan-act"):
            cases[f"{method}/{fixture.stem}"] = _fixture_case(
                method, fixture, "scripted_wiki.json"
            )
    cases[f"tdp/{TRAVEL_FIXTURE.stem}"] = _fixture_case(
        "tdp", TRAVEL_FIXTURE, "scripted_travel.json"
    )
    for stages in (3, 8):
        cases[f"tdp/chain{stages}"] = _chain_case("tdp", stages)
        cases[f"tdp-revise/chain{stages}"] = _chain_case("tdp", stages, revise=True)
        cases[f"plan-act/chain{stages}"] = _chain_case("plan-act", stages)
    # no replan allowed: both methods write the budget-exhausted replan event
    for method in ("tdp", "plan-act"):
        cases[f"{method}/chain3-no-replans"] = _chain_case(
            method, 3, max_replans_per_node=0
        )
    cases["tdp/diamond_lab"] = _scenario_case(
        diamond_instance, lambda: diamond_config(diamond_rules())
    )
    for variant in ("blocked", "direct"):
        cases[f"tdp/travel_locality_{variant}"] = _scenario_case(
            lambda v=variant: travel_locality_instance(v),
            lambda: travel_locality_config(travel_locality_rules()),
        )
    return cases


CASES = _cases()


def case_hashes(case: Case, trace_dir: Path) -> tuple[str, str]:
    """Run `case` with a file sink on the counter clock; SHA-256 of the trace
    file and of every (role tag, prompt) the backends received."""
    method, instance, env, config = case()
    calls: list[tuple[str, str]] = []
    for role, backend in config.role_backends.items():
        config.role_backends[role] = recorder = RecordingBackend(backend)
        recorder.calls = calls
    path = trace_dir / f"{method}__{instance.id}.jsonl"
    sink = TraceSink(path, clock=CounterClock())
    if method == "tdp":
        run_task(instance, env, config, sink=sink)
    else:
        BASELINES[method](instance, env, config, sink=sink)
    prompts = hashlib.sha256()
    for role_tag, prompt in calls:
        prompts.update(role_tag.encode() + b"\0" + prompt.encode() + b"\0")
    return hashlib.sha256(path.read_bytes()).hexdigest(), prompts.hexdigest()


@lru_cache(maxsize=None)
def _hashes_of(name: str) -> tuple[str, str]:
    with tempfile.TemporaryDirectory() as tmp:
        return case_hashes(CASES[name], Path(tmp))


def _golden(path: Path = GOLDEN_PATH) -> dict[str, str]:
    return json.loads(path.read_text(encoding="utf-8"))


def test_golden_file_covers_exactly_the_cases():
    assert sorted(_golden()) == sorted(CASES)
    assert sorted(_golden(PROMPTS_PATH)) == sorted(CASES)


@pytest.mark.parametrize("name", sorted(CASES))
def test_trace_matches_its_golden_hash(name):
    assert _hashes_of(name)[0] == _golden()[name]


@pytest.mark.parametrize("name", sorted(CASES))
def test_prompts_match_their_golden_hash(name):
    assert _hashes_of(name)[1] == _golden(PROMPTS_PATH)[name]


def _write(path: Path, hashes: dict[str, str]) -> None:
    path.write_text(json.dumps(hashes, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {len(hashes)} hashes to {path}", file=sys.stderr)


def _regenerate() -> None:
    hashes = {name: _hashes_of(name) for name in sorted(CASES)}
    _write(GOLDEN_PATH, {name: pair[0] for name, pair in hashes.items()})
    _write(PROMPTS_PATH, {name: pair[1] for name, pair in hashes.items()})


if __name__ == "__main__":
    _regenerate()
