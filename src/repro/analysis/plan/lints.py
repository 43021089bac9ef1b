"""Planner diagnostics: PHX015, PHX016.

* **PHX015** — a cross-shard edge between co-shardable components
  (same process signature) whose priced force traffic exceeds the
  plan's cut threshold: the partition is paying avoidable cross-log
  traffic.
* **PHX016** — plan drift: the committed plan disagrees with what the
  planner derives from the current ``apps/*/deploy`` wiring (component
  set, process placement, shard membership, or a shard's force load).
"""

from __future__ import annotations

from ..lint import Finding
from .planner import LogPlan


def plan_findings(plan: LogPlan) -> list[Finding]:
    """PHX015 over one plan."""
    out: list[Finding] = []
    threshold = plan.config.cut_threshold
    by_name = {entry["name"]: entry for entry in plan.components}
    for edge in plan.edges:
        if not edge["cross_shard"] or not edge["cuttable"]:
            continue
        if edge["subordinate"]:
            continue
        if edge["weight"] <= threshold:
            continue
        src = by_name.get(edge["src"])
        if src is None:
            continue
        out.append(Finding(
            src["path"], src["line"], 0, "PHX015",
            f"hot cross-shard edge {edge['src']} -> {edge['dst']} "
            f"prices {edge['weight']:g} forces per sweep across the "
            f"shard cut (threshold {threshold:g}); co-shard the pair "
            "(fewer --shards, or adjust the partition) or raise "
            "--cut-threshold if the cut is deliberate",
        ))
    out.sort(key=lambda f: (f.path, f.line, f.rule_id, f.col))
    return out


def drift_findings(
    fresh: LogPlan, committed: LogPlan, plan_path: str
) -> list[Finding]:
    """PHX016: committed plan vs the wiring-derived plan."""
    out: list[Finding] = []
    fresh_by_name = {e["name"]: e for e in fresh.components}
    committed_by_name = {e["name"]: e for e in committed.components}
    for name in sorted(set(fresh_by_name) - set(committed_by_name)):
        entry = fresh_by_name[name]
        out.append(Finding(
            entry["path"], entry["line"], 0, "PHX016",
            f"component {name} is deployed by the wiring but missing "
            f"from the committed plan {plan_path}. Fix: regenerate the "
            "plan (make plan-write)",
        ))
    for name in sorted(set(committed_by_name) - set(fresh_by_name)):
        out.append(Finding(
            plan_path, 1, 0, "PHX016",
            f"component {name} is in the committed plan but no longer "
            "deployed by any apps/*/deploy wiring. Fix: regenerate the "
            "plan (make plan-write)",
        ))
    # Shard membership lists are serialized separately from the
    # per-component entries, so a deploy rename (or a hand-edit) can
    # leave a shard referencing a component name the wiring no longer
    # defines while every per-component entry looks consistent.  The
    # router would silently route nothing to that shard's stream for
    # the stale name — make it a hard drift finding.  Names that are
    # still in the committed component table are already reported by
    # the committed-minus-fresh check above.
    for shard in committed.shards:
        stale = (
            set(shard["components"])
            - set(fresh_by_name)
            - set(committed_by_name)
        )
        for name in sorted(stale):
            out.append(Finding(
                plan_path, 1, 0, "PHX016",
                f"shard {shard['id']} of the committed plan "
                f"{plan_path} lists component {name}, which no "
                "apps/*/deploy wiring defines (renamed or removed "
                "after the plan was committed); sharded logging would "
                "silently route nothing to its stream. Fix: regenerate "
                "the plan (make plan-write)",
            ))
    for name in sorted(set(fresh_by_name) & set(committed_by_name)):
        fresh_entry = fresh_by_name[name]
        committed_entry = committed_by_name[name]
        for key, label in (
            ("processes", "process placement"),
            ("shard", "shard"),
            ("type", "component type"),
        ):
            if fresh_entry[key] != committed_entry[key]:
                out.append(Finding(
                    fresh_entry["path"], fresh_entry["line"], 0,
                    "PHX016",
                    f"plan drift for {name}: the wiring derives "
                    f"{label} {fresh_entry[key]!r} but the committed "
                    f"plan {plan_path} records "
                    f"{committed_entry[key]!r}. Fix: regenerate the "
                    "plan (make plan-write) or fix the deploy wiring",
                ))
    # The partitioner balances shards by message-logging force load; a
    # component that gained or lost a forced call path moves it while
    # every placement above still agrees.
    fresh_load = {
        shard["id"]: shard["force_load"] for shard in fresh.shards
    }
    for shard in committed.shards:
        load = fresh_load.get(shard["id"])
        if load is not None and load != shard["force_load"]:
            out.append(Finding(
                plan_path, 1, 0, "PHX016",
                f"plan drift for shard {shard['id']}: the wiring "
                f"derives force load {load:g} but the committed plan "
                f"{plan_path} records {shard['force_load']:g}. Fix: "
                "regenerate the plan (make plan-write)",
            ))
    out.sort(key=lambda f: (f.path, f.line, f.rule_id, f.col))
    return out
