"""Shard routing: the committed :class:`LogPlan` made executable.

The shard planner (docs/internals.md section 15) partitions the
deployed components into log shards and commits the partition as
``plans/apps.logplan.json``.  This module is the runtime half
(docs/internals.md section 16): behind ``config.sharded_logging`` a
process hosts one :class:`~repro.core.process.LogStream` per shard the
plan assigns to it, and the :class:`ShardRouter` resolves
``record.context_id -> shard -> stream`` so every append, force and
recovery replay touches exactly the stream its component lives on.

Routing rules:

* stream 0 is always the process's legacy log — same name, same files.
  It carries every record the plan does not place: unplanned component
  classes, checkpoint control records (``context_id == -1``), and the
  whole process when the flag is off (in which case it is the ONLY
  stream and every byte is identical to the unsharded runtime).
* each plan shard whose ``processes`` list names this process gets one
  extra stream, named ``{log_name}@{shard_id}`` — a distinct stream
  name means distinct log files, distinct per-(session, stream)
  commit-gate watermarks, and distinct torn-tail fault sites for free.
* a component routes by its class name per the plan's shard membership;
  the assignment is fixed at creation time (``assign``) so replay and
  recovery resolve the same stream from the records alone.
* subordinates never route themselves: their records carry the parent
  context's id (the plan's affinity edges keep parent and subordinate
  in one shard), so they follow the parent automatically.
"""

from __future__ import annotations

from ..errors import ConfigurationError


def plan_shards(plan) -> list[dict]:
    """Normalize a plan-ish object into its shard dicts.

    Accepts a :class:`~repro.analysis.plan.planner.LogPlan`, anything
    with a ``shards`` attribute, or a bare list of shard dicts (the
    benches build synthetic plans this way).  Each shard dict needs
    ``id``, ``processes`` and ``components``.
    """
    shards = getattr(plan, "shards", plan)
    for shard in shards:
        missing = {"id", "processes", "components"} - set(shard)
        if missing:
            raise ConfigurationError(
                f"shard {shard.get('id', '?')!r} is missing keys "
                f"{sorted(missing)}"
            )
    return list(shards)


class ShardRouter:
    """Per-process view of the plan: which shards this process hosts
    and which stream index each component class maps to.

    Stream index 0 is the legacy log; hosting shards occupy indices
    1..N in the plan's (canonical, sorted) shard order.
    """

    __slots__ = ("process_name", "shard_ids", "_class_stream")

    def __init__(self, plan, process_name: str):
        self.process_name = process_name
        #: shard id per extra stream, parallel to stream indices 1..N.
        self.shard_ids: list[str] = []
        #: component class name -> stream index (only planned classes
        #: hosted here appear; everything else falls back to 0).
        self._class_stream: dict[str, int] = {}
        for shard in plan_shards(plan):
            if process_name not in shard["processes"]:
                continue
            self.shard_ids.append(shard["id"])
            index = len(self.shard_ids)
            for cls_name in shard["components"]:
                self._class_stream[cls_name] = index

    @property
    def stream_count(self) -> int:
        """Total streams including the legacy stream 0."""
        return 1 + len(self.shard_ids)

    def stream_for_class(self, cls_name: str) -> int:
        """The stream a component class is planned onto (0 when the
        plan does not place it on this process)."""
        return self._class_stream.get(cls_name, 0)
