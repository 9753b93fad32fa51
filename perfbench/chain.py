"""The seeded staged chain: environment, task instance and scripted role rules.

A chain has W stages cleared in order.  A stage with an obstacle needs
``work i`` (which surfaces the obstacle with a long filler observation) and
then ``resolve i``; a plain stage clears on ``work i``.  This follows
``ChainEnv`` in ``tests/scenarios.py``, where every stage throws an obstacle
with a 40-word filler.  Here the seed picks which stages throw one and how
long each filler is (36-44 words); see :func:`generate`.  The obstacle count
is fixed by the caller, so every seed gives the same numbers of stages,
environment steps, model calls and accepted replans; only prompt lengths
move, and by little.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from typing import Any

from tdp.engine import RunConfig
from tdp.environments import Environment, StepResult, TaskInstance
from tdp.roles import ScriptRule

FILLER_WORDS = (36, 44)


@dataclass(frozen=True)
class ChainSpec:
    """One generated chain: its length and the filler length of each obstacle stage."""

    stages: int
    obstacles: tuple[tuple[int, int], ...]  # (stage, filler words), stage ascending

    @property
    def obstacle_stages(self) -> frozenset[int]:
        return frozenset(stage for stage, _ in self.obstacles)

    @property
    def steps(self) -> int:
        return self.stages + len(self.obstacles)


def generate(seed: int, stages: int, obstacles: int) -> ChainSpec:
    """Let the seed pick which stages stay plain, and each obstacle's filler length.

    The plain stages are drawn from the last tenth of the chain (or the last
    ``stages - obstacles`` stages, if that is more).  A plain stage early in the
    chain would drop its filler from every later single-context prompt; kept
    near the end, where it falls moves a run's prompt tokens by under 1%.
    """
    if not 1 <= obstacles <= stages:
        raise ValueError(f"need 1 <= obstacles <= stages, got {obstacles} of {stages}")
    rng = random.Random(seed)
    window = max(stages - obstacles, stages // 10)
    plain = set(rng.sample(range(stages - window + 1, stages + 1), stages - obstacles))
    chosen = [stage for stage in range(1, stages + 1) if stage not in plain]
    return ChainSpec(
        stages=stages, obstacles=tuple((stage, rng.randint(*FILLER_WORDS)) for stage in chosen)
    )


class ChainEnv(Environment):
    """Work queue over a :class:`ChainSpec` carried in the instance payload."""

    name = "chain"

    def __init__(self) -> None:
        self._stages = 0
        self._filler: dict[int, int] = {}
        self._stage = 1
        self._pending = False
        self._cleared = 0
        self._done = False

    def reset(self, instance: TaskInstance) -> str:
        self._stages = int(instance.payload["stages"])
        self._filler = {int(s): int(n) for s, n in instance.payload["obstacles"]}
        self._stage = 1
        self._pending = False
        self._cleared = 0
        self._done = False
        return f"Work queue ready: {self._stages} stages, to be cleared in order."

    def admissible_commands(self) -> list[str]:
        return [
            "work <n> - start the stage n work order",
            "resolve <n> - clear the blocker that stage n surfaced",
        ]

    @property
    def done(self) -> bool:
        return self._done

    def step(self, action: str) -> StepResult:
        self._guard_open()
        act = action.strip()
        stage = self._stage
        if act == f"work {stage}" and not self._pending:
            if stage in self._filler:
                self._pending = True
                filler = " ".join(f"detail-{stage}-{k}" for k in range(self._filler[stage]))
                return StepResult(f"obstacle at stage {stage}: {filler}")
            return self._clear()
        if act == f"resolve {stage}" and self._pending:
            self._pending = False
            return self._clear()
        return StepResult("nothing happened")

    def _clear(self) -> StepResult:
        self._cleared += 1
        obs = f"stage {self._stage} resolved"
        if self._stage == self._stages:
            self._done = True
            return StepResult(obs, reward_delta=1.0, done=True)
        self._stage += 1
        return StepResult(obs)

    def metrics(self) -> dict[str, Any]:
        return {
            "delivered": self._done,
            "stages_cleared": self._cleared,
            "stages_total": self._stages,
        }


def instance(spec: ChainSpec) -> TaskInstance:
    return TaskInstance(
        id=f"chain{spec.stages}",
        environment=ChainEnv.name,
        query=f"Clear all {spec.stages} stages of the work queue in order.",
        gold={"stages": spec.stages, "replans": len(spec.obstacles)},
        payload={"stages": spec.stages, "obstacles": [list(o) for o in spec.obstacles]},
    )


def run_config(spec: ChainSpec, role_backends: dict[str, Any]) -> RunConfig:
    """One environment step per stage plus one per obstacle; one replan per obstacle."""
    return RunConfig(
        s_max=spec.steps + 2,
        max_replans_per_node=spec.stages,
        role_backends=dict(role_backends),
    )


# ---------------------------------------------------------------------------
# scripted replies.  First matching rule wins, so rules keyed on a later stage
# come first, and within a stage the "resolved" marker precedes the obstacle.


def _rule(role: str, match: list[str], response: str) -> ScriptRule:
    return ScriptRule(match=tuple(match), responses=(response,), role=role)


def _plan(*steps: str) -> str:
    return "\n".join(f"## Step {i}\nStep: {text}" for i, text in enumerate(steps, start=1))


def _evaluation(status: str, reason: str, need_replan: bool = False) -> str:
    return json.dumps({"status": status, "reason": reason, "need_replan": need_replan})


def _replan(new_plan: str, thought: str) -> str:
    return json.dumps({"RePlan": True, "Thought": thought, "NewPlan": new_plan})


def _revision(updates: list[dict[str, str]]) -> str:
    return json.dumps(
        {
            "thought": "The next stage's wording should say what is already cleared."
            if updates
            else "The remaining nodes still cover the task; no change needed.",
            "need_update": bool(updates),
            "description_updates": updates,
            "new_nodes": [],
            "remove_nodes": [],
        }
    )


def _frag(i: int) -> str:
    return f"Handle stage {i} of"


def tdp_rules(spec: ChainSpec, revise: bool) -> dict[str, list[ScriptRule]]:
    """Rules for the tdp engine: one node per stage, each depending on the previous.

    With ``revise`` the supervisor rewords the next pending node every round,
    keeping the ``Handle stage i of`` text the node's rules match on, so every
    revision applies.  Without it every revision is a noop.
    """
    n = spec.stages
    nodes = [
        {
            "id": f"node_{i}",
            "description": f"Handle stage {i} of the queue.",
            "dependencies": [] if i == 1 else [f"node_{i - 1}"],
        }
        for i in range(1, n + 1)
    ]
    supervisor = [
        _rule("supervisor:construct", [f"Clear all {n} stages"], json.dumps({"subgoals": nodes}))
    ]
    planner: list[ScriptRule] = []
    executor: list[ScriptRule] = []
    blocked = spec.obstacle_stages
    for i in range(n, 0, -1):
        frag = _frag(i)
        supervisor.append(
            _rule(
                "supervisor:evaluate",
                [frag, f"stage {i} resolved"],
                _evaluation("completed", f"Stage {i} finished with its work order done."),
            )
        )
        if i in blocked:
            supervisor.append(
                _rule(
                    "supervisor:evaluate",
                    [frag, f"obstacle at stage {i}:"],
                    _evaluation(
                        "needs_more_steps",
                        f"A blocker surfaced at stage {i}; the plan must deal with it first.",
                        need_replan=True,
                    ),
                )
            )
            planner.append(
                _rule(
                    "planner:replan",
                    [frag, f"obstacle at stage {i}:"],
                    _replan(
                        _plan(f"Clear the blocker, then finish the stage {i} work."),
                        f"The blocker at stage {i} must be handled before the work order.",
                    ),
                )
            )
            executor.append(
                _rule("executor:execute", [frag, f"obstacle at stage {i}:"], f"resolve {i}")
            )
        planner.append(_rule("planner:plan", [frag], _plan(f"Run the stage {i} work order.")))
        executor.append(_rule("executor:execute", [frag], f"work {i}"))
    if revise:
        for i in range(n - 1, 0, -1):
            update = {
                "node_id": f"node_{i + 1}",
                "new_description": f"Handle stage {i + 1} of the queue, now that the "
                f"earlier stages are clear.",
            }
            supervisor.append(
                _rule(
                    "supervisor:revise",
                    [f"- node_{i} [completed]", f"- node_{i + 1} [pending]"],
                    _revision([update]),
                )
            )
    else:
        supervisor.append(_rule("supervisor:revise", [], _revision([])))
    return {"supervisor": supervisor, "planner": planner, "executor": executor}


def planact_rules(spec: ChainSpec) -> dict[str, list[ScriptRule]]:
    """Rules for the plan-act baseline: one global plan over the whole history."""
    n = spec.stages
    blocked = spec.obstacle_stages
    planner = [
        _rule(
            "planner:plan",
            [f"Clear all {n} stages"],
            _plan("Work the stages in order from first to last, clearing blockers as they appear."),
        )
    ]
    supervisor = [
        _rule(
            "supervisor:evaluate",
            [f"stage {n} resolved"],
            _evaluation("completed", "Every stage has been cleared."),
        )
    ]
    executor: list[ScriptRule] = []
    for i in range(n, 0, -1):
        if i < n:
            executor.append(_rule("executor:execute", [f"stage {i} resolved"], f"work {i + 1}"))
            supervisor.append(
                _rule(
                    "supervisor:evaluate",
                    [f"stage {i} resolved"],
                    _evaluation("needs_more_steps", f"Stage {i} is done; begin stage {i + 1} next."),
                )
            )
        if i in blocked:
            executor.append(
                _rule("executor:execute", [f"obstacle at stage {i}:"], f"resolve {i}")
            )
            supervisor.append(
                _rule(
                    "supervisor:evaluate",
                    [f"obstacle at stage {i}:"],
                    _evaluation(
                        "needs_more_steps",
                        f"A blocker surfaced at stage {i}; the plan must deal with it first.",
                        need_replan=True,
                    ),
                )
            )
            planner.append(
                _rule(
                    "planner:replan",
                    [f"obstacle at stage {i}:"],
                    _replan(
                        _plan(
                            f"Clear the stage {i} blocker before anything else.",
                            "Continue the remaining stages in order.",
                        ),
                        f"The blocker at stage {i} invalidates the straight-through plan.",
                    ),
                )
            )
    executor.append(_rule("executor:execute", ["(no actions yet)"], "work 1"))
    return {"supervisor": supervisor, "planner": planner, "executor": executor}
