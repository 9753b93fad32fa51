"""Graph-orchestrated task decomposition for tool-using language agents.

A supervisor turns a task into a dependency graph of sub-task nodes, a planner
drafts a short plan for one node at a time, and an executor acts in the
environment with only that node's context in view.  Evaluation can trigger a
node-local replan, and between dispatch rounds the supervisor revises the
graph from a view of its frontier, in which every other node is only counted.
Baselines (react, cot, plan-act) share the same environments, trace format,
and metrics so comparisons stay apples-to-apples.
"""

from __future__ import annotations

from .baselines import BASELINES
from .engine import RunConfig, RunReport, run_task
from .environments import (
    Environment,
    TaskInstance,
    load_task_instance,
    make_environment,
)
from .graph import (
    NodeStatus,
    OutcomeSummary,
    RevisionDelta,
    SubTaskNode,
    TaskGraph,
    apply_revision,
    ready_nodes,
    validate_graph,
)
from .roles import (
    ModelBackend,
    RemoteChatBackend,
    ScriptedBackend,
    load_templates,
)
from .telemetry import (
    TraceSink,
    compare_report,
    compute_metrics,
    read_trace,
)

__version__ = "0.1.0"

__all__ = [
    "BASELINES",
    "Environment",
    "ModelBackend",
    "NodeStatus",
    "OutcomeSummary",
    "RemoteChatBackend",
    "RevisionDelta",
    "RunConfig",
    "RunReport",
    "ScriptedBackend",
    "SubTaskNode",
    "TaskGraph",
    "TaskInstance",
    "TraceSink",
    "apply_revision",
    "compare_report",
    "compute_metrics",
    "load_task_instance",
    "load_templates",
    "make_environment",
    "read_trace",
    "ready_nodes",
    "run_task",
    "validate_graph",
    "__version__",
]
