"""Runtime configuration.

Paper Section 5: "In our new prototype, log optimizations and
checkpointing can all be turned on or off via switches."  This module is
those switches.  ``RuntimeConfig.baseline()`` reproduces the IDEAS 2003
prototype (Algorithm 1: log and immediately force every message);
``RuntimeConfig.optimized()`` enables the paper's contributions.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from ..errors import ConfigurationError


@dataclass(frozen=True)
class CheckpointConfig:
    """Checkpointing switches (paper Section 4).

    ``context_state_every_n_calls`` saves a context's state after every
    N-th completed incoming call (``None`` disables automatic saves; the
    paper's Section 5.4 experiments suggest ~400 calls for the
    micro-benchmark).  ``process_checkpoint_every_n_saves`` takes a
    process checkpoint after every N-th context state save (the paper
    takes them "periodically"); manual checkpoints are always available
    through :meth:`repro.core.process.AppProcess.take_process_checkpoint`.
    """

    context_state_every_n_calls: int | None = None
    process_checkpoint_every_n_saves: int | None = None

    #: Reclaim the log prefix no recovery can ever need, each time a
    #: process checkpoint is published in the well-known file.  An
    #: extension beyond the paper (which lets the log grow); the safe
    #: truncation point is the minimum of the checkpoint LSN, every
    #: context's recovery-start LSN, and every referenced reply LSN.
    truncate_log: bool = False

    @property
    def enabled(self) -> bool:
        return self.context_state_every_n_calls is not None


@dataclass(frozen=True)
class RuntimeConfig:
    """Switches controlling logging, optimizations and recovery."""

    # Algorithm selection: False = Algorithm 1 (baseline: log + force
    # every message); True = Algorithms 2-5 chosen per component type.
    optimized_logging: bool = True

    # Section 3.3: treat calls to @read_only_method methods like calls
    # to read-only components (only meaningful with optimized_logging).
    read_only_method_optimization: bool = True

    # Section 3.5: force only on the first outgoing call of a served
    # method (and on calling the same server twice).  An extension — the
    # paper describes it but did not implement it.
    multicall_optimization: bool = False

    # Section 5.2.3: when the caller says it already knows the server's
    # identity, the server omits the type attachment in its reply.
    reply_attachment_omission: bool = True

    # Warm-start the remote component type table from the static type
    # directory (the declared types `repro-analyze infer` verifies
    # against the whole-program fixpoint) instead of learning each
    # server's type from its first reply.  Off by default: the learned
    # cold-start path is the paper's Section 3.4 behavior, and the
    # benchmark tables are calibrated against it.
    static_type_seeding: bool = False

    # Section 4: checkpointing.
    checkpoint: CheckpointConfig = field(default_factory=CheckpointConfig)

    # Condition 4 handling: how many times a persistent caller retries a
    # failed outgoing call before giving up, and whether hitting a
    # crashed process synchronously runs recovery (the simulated
    # equivalent of the recovery service restarting it).
    max_call_retries: int = 8
    auto_recover: bool = True

    # Group commit (extension): under the deterministic concurrent
    # scheduler, force requests arriving within one window on the same
    # process log share a single stable write.  Off by default — the
    # serial benchmarks and Tables 4-8 are calibrated without it, and
    # with the flag off the scheduler's output is byte-identical to the
    # serial runtime.  The window defaults to one disk rotation
    # (``RotationalDisk.group_commit_window_ms``); the override is in
    # simulated milliseconds.
    group_commit: bool = False
    group_commit_window_ms: float | None = None

    # Pipelined causal commit (extension; docs/internals.md section 14,
    # after partially constrained transaction logs): relax Algorithm 2's
    # global "force all previous records" point to the *causal* prefix
    # TRC107 proves sufficient.  Each session keeps a per-log durability
    # watermark (the highest LSN it causally knows, maintained by the
    # commit gate from the same sync edges as the vector clocks); a send
    # is released the moment the log is stable through that watermark,
    # even while other sessions' tails are volatile, and group-commit
    # batches pipeline — a new batch opens while the previous write is
    # still in flight, and waiters whose causal prefix an earlier
    # in-flight write already covered release without waiting for their
    # own window.  Off by default: with the flag off every commit point
    # is the whole-log ``end_lsn`` and the scheduler's output is
    # byte-identical to group commit alone.  It pipelines group-commit
    # batches, so it requires ``group_commit`` (see ``__post_init__``).
    pipelined_commit: bool = False

    # On-demand recovery (extension; docs/internals.md section 12, after
    # Sauer & Härder's instant restart and Lomet's logical recovery): restart
    # runs only the analysis pass (repair tail, re-mark, restore
    # checkpointed state) and then admits new calls; each remaining
    # context is replayed lazily on first access from its own frame
    # chain in the per-component log index, while background drain
    # workers (scheduled as deterministic sessions when the concurrent
    # scheduler is active) replay the rest.  Off by default — eager
    # recovery (every chain replayed before admission) is the paper's
    # Table 7 model and the benchmark tables are calibrated against it.
    on_demand_recovery: bool = False

    # Sharded multi-log runtime (extension; docs/internals.md section 16,
    # the executable half of the committed ``plans/apps.logplan.json``): a
    # process hosts one ``LogManager`` stream per plan shard assigned to
    # it, a :class:`~repro.log.sharding.ShardRouter` resolves
    # ``record.context_id -> shard -> stream`` at deploy time (unplanned
    # components fall back to stream 0, subordinates follow their
    # parent), forces touch only the stream the decision's causal target
    # lives on, and recovery replays the shards independently — so
    # restart time scales with the largest shard, not the whole log.
    # Off by default: with the flag off a process keeps exactly its one
    # legacy log and every byte it writes is identical.
    sharded_logging: bool = False

    def __post_init__(self) -> None:
        # Pipelined commit alone would run exactly the both-on runtime:
        # reject the redundant cell rather than alias it.
        if self.pipelined_commit and not self.group_commit:
            raise ConfigurationError(
                "pipelined_commit requires group_commit=True"
            )

    @classmethod
    def baseline(cls, **overrides: object) -> "RuntimeConfig":
        """The IDEAS 2003 baseline system (Algorithm 1, no checkpoints)."""
        config = cls(
            optimized_logging=False,
            read_only_method_optimization=False,
            multicall_optimization=False,
            reply_attachment_omission=False,
        )
        return replace(config, **overrides) if overrides else config

    @classmethod
    def optimized(cls, **overrides: object) -> "RuntimeConfig":
        """This paper's system (Algorithms 2-5 + checkpointing available)."""
        config = cls()
        return replace(config, **overrides) if overrides else config

    def with_overrides(self, **overrides: object) -> "RuntimeConfig":
        return replace(self, **overrides)
