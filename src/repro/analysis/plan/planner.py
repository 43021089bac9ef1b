"""Build the declarative :class:`LogPlan` artifact.

A plan is a plain-JSON contract between the static planner and the
sharded runtime (:mod:`repro.log.sharding`): per-shard placement of
every deployed component, the priced interaction edges PHX015 judges
the cut by, and the per-(process, entry-method) force budgets — the
serialised ``CostModel.force_bounds()`` — that TRC109 replays recorded
executions against.  The paper has one logging strategy, message
logging under Algorithms 1-5, and that is what every budget prices.

Serialization is canonical — ``sort_keys``, two-space indent, trailing
newline, no timestamps — so two runs over one tree are byte-identical.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from pathlib import Path

from ...errors import ConfigurationError
from ...log.sharding import plan_shards
from ..infer.costmodel import CostModel, ForceBounds, SpanBound
from ..model import ProgramModel
from ..trace_check import Violation, check_runtime_force_bounds
from .graph import build_graph
from .partition import partition

PLAN_VERSION = 1


@dataclass
class PlanConfig:
    shards: int | None = None
    loop_weight: int = 4
    cut_threshold: float = 8.0

    def to_dict(self) -> dict:
        return {
            "shards": self.shards,
            "loop_weight": self.loop_weight,
            "cut_threshold": self.cut_threshold,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "PlanConfig":
        return cls(
            shards=data.get("shards"),
            loop_weight=data.get("loop_weight", 4),
            cut_threshold=data.get("cut_threshold", 8.0),
        )


class LogPlan:
    """The emitted artifact; a thin typed wrapper over plain JSON."""

    def __init__(self, payload: dict):
        self.payload = payload
        self._bounds: ForceBounds | None = None

    # -- views ---------------------------------------------------------
    @property
    def config(self) -> PlanConfig:
        return PlanConfig.from_dict(self.payload["config"])

    @property
    def components(self) -> list[dict]:
        return self.payload["components"]

    @property
    def shards(self) -> list[dict]:
        return self.payload["shards"]

    @property
    def edges(self) -> list[dict]:
        return self.payload["edges"]

    @property
    def span_budgets(self) -> list[dict]:
        return self.payload["span_budgets"]

    def component(self, name: str) -> dict | None:
        for entry in self.components:
            if entry["name"] == name:
                return entry
        return None

    def for_span(self, process: str, method: str) -> SpanBound | None:
        """The committed budget of one entry span — the lookup
        ``check_force_bounds`` takes its bounds through, same as
        ``ForceBounds.for_span`` (the table is built on first use)."""
        if self._bounds is None:
            self._bounds = ForceBounds()
            for entry in self.span_budgets:
                self._bounds.add(SpanBound.from_dict(entry))
        return self._bounds.for_span(process, method)

    # -- serialization -------------------------------------------------
    def dumps(self) -> str:
        return json.dumps(self.payload, sort_keys=True, indent=2) + "\n"

    def write(self, path: str | Path) -> None:
        Path(path).write_text(self.dumps())

    @classmethod
    def loads(cls, text: str) -> "LogPlan":
        return cls(json.loads(text))


def load_plan(path: str | Path) -> LogPlan:
    return LogPlan.loads(Path(path).read_text())


_REPO_ROOT = Path(__file__).resolve().parents[4]


def _artifact_path(path: str) -> str:
    """Repo-relative POSIX path for the plan artifact, so the emitted
    bytes do not depend on whether the model was built from absolute
    or cwd-relative inputs.  Paths outside the repo pass through."""
    resolved = Path(path).resolve()
    try:
        return resolved.relative_to(_REPO_ROOT).as_posix()
    except ValueError:
        return str(path)


def _committed_plan_paths() -> list[Path]:
    """``plans/*.logplan.json`` at the repo root, or — when the
    ``REPRO_LOG_PLANS`` environment variable is set — its
    ``os.pathsep``-separated list of plan files (the empty string
    names none)."""
    env = os.environ.get("REPRO_LOG_PLANS")
    if env is not None:
        return [Path(p) for p in env.split(os.pathsep) if p]
    return sorted((_REPO_ROOT / "plans").glob("*.logplan.json"))


_COMMITTED: list[LogPlan] | None = None


def committed_plans() -> list[LogPlan]:
    """The repo's committed plans, loaded once per process, for the
    conformance oracles.  Unreadable files are skipped silently here —
    ``repro-analyze plan --check`` is the gate that reports them, and
    :func:`routing_plan` refuses them."""
    global _COMMITTED
    if _COMMITTED is not None:
        return _COMMITTED
    plans: list[LogPlan] = []
    for path in _committed_plan_paths():
        try:
            plans.append(load_plan(path))
        except (OSError, ValueError):
            continue
    _COMMITTED = plans
    return plans


def routing_plan() -> LogPlan | None:
    """The plan ``config.sharded_logging`` routes by when none was
    installed explicitly: the first committed plan, or ``None`` when
    there are no plan files.  A plan file that exists but cannot be
    routed by is an error, not a reason to run on one stream."""
    first: LogPlan | None = None
    for path in _committed_plan_paths():
        try:
            plan = load_plan(path)
            plan_shards(plan)
        except (
            OSError, ValueError, KeyError, TypeError, ConfigurationError,
        ) as exc:
            raise ConfigurationError(
                f"config.sharded_logging is on but the committed plan "
                f"{path} cannot be routed by "
                f"({type(exc).__name__}: {exc}); fix or regenerate it "
                "(make plan-write), or point REPRO_LOG_PLANS elsewhere"
            ) from exc
        first = first or plan
    return first


def check_runtime_plan(
    runtime, plan: LogPlan
) -> list[tuple[str, Violation]]:
    """TRC109: TRC106's span check with the committed budgets as its
    bounds, over the live traffic of every process (an entry span that
    recovery replayed is reconstruction, not traffic the plan budgets).
    """
    return check_runtime_force_bounds(
        runtime, plan, rule="TRC109", live_only=True
    )


def build_plan(model: ProgramModel, config: PlanConfig) -> LogPlan:
    graph, engine = build_graph(model, loop_weight=config.loop_weight)
    shards = partition(graph, config.shards)
    shard_of = {
        member: shard.shard_id
        for shard in shards
        for member in shard.members
    }

    components = []
    for name in sorted(graph.nodes):
        node = graph.nodes[name]
        components.append({
            "name": name,
            "type": node.ctype,
            "processes": list(node.processes),
            "shard": shard_of.get(name),
            "path": _artifact_path(node.path),
            "line": node.line,
        })

    edge_entries = []
    for key in sorted(graph.edges):
        edge = graph.edges[key]
        data = edge.to_dict()
        src_sig = graph.nodes[edge.src].processes
        dst_sig = graph.nodes[edge.dst].processes
        data["cross_shard"] = (
            shard_of.get(edge.src) != shard_of.get(edge.dst)
        )
        # an edge is *cuttable* (PHX015's subject) only when both ends
        # could legally co-shard; cross-process traffic is the paper's
        # distributed deployment, not a planning mistake
        data["cuttable"] = src_sig == dst_sig
        edge_entries.append(data)

    payload = {
        "version": PLAN_VERSION,
        "config": config.to_dict(),
        "components": components,
        "shards": [shard.to_dict() for shard in shards],
        "edges": edge_entries,
        "span_budgets": CostModel(engine).force_bounds().to_dict()[
            "bounds"
        ],
    }
    return LogPlan(payload)
