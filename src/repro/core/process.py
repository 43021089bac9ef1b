"""Application processes.

Paper Section 4.1 / Figure 7: a process hosts multiple contexts, a set
of global tables (context, component, remote-component, last-call), a
log manager and a recovery manager.  At start it registers with its
machine's recovery service to obtain a stable logical process ID (part
of every method-call ID).

A process is its durable identity plus one :class:`Incarnation` that
owns everything volatile — contexts, component instances, tables, and
the log managers with their buffers.  A simulated crash (:meth:`crash`)
drops the incarnation whole and starts an empty one over the same
stable files, exactly the state a killed OS process leaves behind.
"""

from __future__ import annotations

import enum
from typing import TYPE_CHECKING

from ..analysis.trace import ProtocolTrace
from ..common.ids import component_uri
from ..common.types import ComponentType
from ..errors import ComponentUnavailableError, DeploymentError
from ..faults import plane as faultplane
from ..log.log_manager import LogManager
from ..log.records import CreationRecord
from ..log.sharding import ShardRouter
from .attributes import declared_type, read_only_method_names
from .component import PersistentComponent
from .config import RuntimeConfig
from .context import SUB_LID_BASE, Context
from .last_call import LastCallTable
from .policy import LoggingPolicy
from .proxy import ComponentProxy
from .remote_types import RemoteComponentTypeTable
from .swizzle import swizzle_for_message, unswizzle_for_message
from .tables import ComponentTableEntry, ContextTableEntry, NO_LSN

if TYPE_CHECKING:  # pragma: no cover
    from ..sim.machine import Machine
    from .runtime import PhoenixRuntime


class ProcessState(enum.Enum):
    RUNNING = "running"
    CRASHED = "crashed"
    RECOVERING = "recovering"


class LogStream:
    """One log stream of a process: its :class:`LogManager`, its
    protocol trace, and the accounting of the forces requested on it.

    Stream 0 of every process is its unsharded log (``shard_id is
    None``, ``process.log``), the only stream the flag-off runtime has;
    sharded logging adds one stream per hosted plan shard
    (docs/internals.md section 16).  The protocol trace and the
    ``LogStats`` outlive a crash (:meth:`reopen`); the manager does not.

    Several protocol sites can request a force at the same simulated
    instant — e.g. a multicall's per-callee forces, or Algorithm 2
    forcing "all previous messages" for components that share one log.
    Only the first request finds buffered bytes and pays a disk write;
    the rest ride along for free, counted as
    ``LogStats.coalesced_forces``.  Whether a request is forced alone,
    causally gated or batched with other sessions' requests is the
    commit gate's decision (``runtime.commit.force``); the stream only
    performs and accounts what the gate decided.
    """

    __slots__ = ("shard_id", "log", "trace", "process", "_clock",
                 "_last_write_at")

    def __init__(
        self,
        shard_id: str | None,
        log: LogManager,
        trace: ProtocolTrace,
        process: "AppProcess",
    ) -> None:
        self.shard_id = shard_id
        self.log = log
        self.trace = trace
        self.process = process
        self._clock = process.runtime.clock
        self._last_write_at: float | None = None

    @property
    def name(self) -> str:
        return self.log.process_name

    def force(self) -> bool:
        """Force the stream's log now; a same-instant request after a
        write is counted as coalesced."""
        wrote = self.log.force()  # phx: disable=PHX005
        now = self._clock.now
        if wrote:
            self._last_write_at = now
        elif self._last_write_at == now:
            self.log.stats.coalesced_forces += 1
        return wrote

    def note_gated(self) -> None:
        """Account one force request satisfied by causal gating: it
        never reaches :meth:`LogManager.force`."""
        stats = self.log.stats
        stats.forces_requested += 1
        stats.pipelined_gated += 1

    def note_write_skip(self, waiters: int) -> None:
        """Account a closed batch whose shared write was elided because
        an earlier in-flight write covered every remaining target."""
        stats = self.log.stats
        stats.forces_requested += waiters
        stats.pipelined_gated += waiters
        stats.pipelined_write_skips += 1

    def execute_batch(self, riders: int) -> bool:
        """The batch leader's shared write: one flush covers every
        rider's bytes.  Riders' requests are accounted as requested and
        coalesced — they never reach :meth:`LogManager.force`."""
        stats = self.log.stats
        stats.group_commit_batches += 1
        stats.group_commit_riders += riders
        stats.forces_requested += riders
        stats.coalesced_forces += riders
        return self.force()

    def group_window_ms(self) -> float:
        override = self.process.config.group_commit_window_ms
        if override is not None:
            return override
        return self.process.machine.disk.group_commit_window_ms

    def reopen(self) -> "LogStream":
        """This stream in the next incarnation: a fresh
        :class:`LogManager` over the same stable files, keeping the
        trace and the ``LogStats``, but not the last write instant.  The
        pipelined batch counters are zeroed: they count gating decisions
        taken against watermarks the crash wiped."""
        log = self.log
        stats = log.stats
        stats.pipelined_gated = 0
        stats.pipelined_write_skips = 0
        fresh = LogManager(
            log.process_name, log.disk, log.stable_store,
            log.buffer_capacity, stats=stats,
        )
        return LogStream(self.shard_id, fresh, self.trace, self.process)

    def __repr__(self) -> str:
        return f"LogStream({self.name!r}, shard={self.shard_id!r})"


class Incarnation:
    """One life of a process: every volatile table and log manager.  A
    crash drops it whole, so nothing of it can leak into the next life;
    recovery fills the empty incarnation the crash built."""

    __slots__ = ("streams", "context_table", "component_table", "last_calls",
                 "remote_types", "context_stream", "next_component_lid",
                 "state_saves", "pending_checkpoint", "pending_recovery",
                 "__weakref__")

    def __init__(self, streams: list[LogStream]) -> None:
        self.streams = streams
        self.context_table: dict[int, ContextTableEntry] = {}
        self.component_table: dict[int, ComponentTableEntry] = {}
        self.last_calls = LastCallTable()
        self.remote_types = RemoteComponentTypeTable()
        #: context_id -> stream index; only non-zero assignments stored.
        self.context_stream: dict[int, int] = {}
        self.next_component_lid = 1
        self.state_saves = 0
        self.pending_checkpoint: tuple[int, int] | None = None
        # repro.recovery.incremental.PendingRecovery while replay is
        # still owed; None once every component is recovered.
        self.pending_recovery = None


class AppProcess:
    """A process hosting Phoenix/App contexts: its durable identity and
    its current :class:`Incarnation`."""

    def __init__(
        self,
        runtime: "PhoenixRuntime",
        machine: "Machine",
        name: str,
    ):
        self.runtime = runtime
        self.machine = machine
        self.name = name
        self.config: RuntimeConfig = runtime.config
        self.policy = LoggingPolicy(self.config)
        self.state = ProcessState.RUNNING

        # Registration with the machine's recovery service assigns the
        # stable logical PID and force-writes the registration (2.4).
        self.logical_pid = machine.recovery_service.register(self)

        self.crash_count = 0
        self.recovery_count = 0

        # Log streams (docs/internals.md section 16).  Stream 0 is the
        # process's own log.  With ``config.sharded_logging`` on and a
        # committed plan installed, each plan shard hosted here gets its
        # own stream (distinct name -> distinct files, watermarks, fault
        # sites) and records route by their context's planned shard.
        # Each trace is an observation-only journal of logging decisions
        # that the conformance checker (repro.analysis) replays.
        log_name = f"{machine.name}-{name}"
        names = {None: log_name}
        self.shard_router: ShardRouter | None = None
        if self.config.sharded_logging and runtime.log_plan is not None:
            self.shard_router = ShardRouter(runtime.log_plan, name)
            for shard_id in self.shard_router.shard_ids:
                names[shard_id] = f"{log_name}@{shard_id}"
        self.incarnation = Incarnation([
            LogStream(
                shard_id,
                LogManager(stream, machine.disk, machine.stable_store),
                ProtocolTrace(),
                self,
            )
            for shard_id, stream in names.items()
        ])

        machine.register_process(self)

    # Read-only views of the current incarnation.
    @property
    def streams(self) -> list[LogStream]:
        return self.incarnation.streams

    @property
    def log(self) -> LogManager:
        return self.incarnation.streams[0].log

    @property
    def pending_recovery(self):
        return self.incarnation.pending_recovery

    # ------------------------------------------------------------------
    # stream routing (docs/internals.md section 16)
    # ------------------------------------------------------------------
    def stream_index(self, context_id: int | None) -> int:
        """The stream a context's records live on.  Unplanned contexts,
        checkpoint control records (``context_id == -1``) and the whole
        flag-off runtime resolve to stream 0; subordinate LIDs follow
        their parent context (the plan's affinity edges never split a
        context across shards)."""
        context_stream = self.incarnation.context_stream
        if not context_stream or context_id is None or context_id < 0:
            return 0
        if context_id >= SUB_LID_BASE:
            context_id //= SUB_LID_BASE
        return context_stream.get(context_id, 0)

    def stream_for(self, context_id: int | None) -> LogStream:
        return self.incarnation.streams[self.stream_index(context_id)]

    def log_for(self, context_id: int | None) -> LogManager:
        return self.stream_for(context_id).log

    def assign_stream(self, context_id: int, index: int) -> None:
        """Pin a context to a stream (creation and recovery both call
        this; the assignment is stable for the context's lifetime)."""
        if index:
            self.incarnation.context_stream[context_id] = index

    # ------------------------------------------------------------------
    # log access with cost accounting
    # ------------------------------------------------------------------
    def log_append(self, record) -> int:
        stream = self.stream_for(getattr(record, "context_id", None))
        # Yield BEFORE the append: once a record is buffered, the next
        # force must pair with it without another session in between.
        self.runtime.sched_yield(f"log.append:{self.name}")
        self.runtime.clock.advance(self.runtime.costs.log_buffer_write)
        lsn = stream.log.append(record)  # phx: disable=PHX005
        # Advance the appending session's durability watermark
        # (pipelined causal commit; a no-op under every other gate).
        self.runtime.commit.note_append(stream.log)
        self._maybe_publish_checkpoint()
        return lsn

    def log_force(
        self,
        commit_lsn: int | None = None,
        context_id: int | None = None,
    ) -> bool:
        wrote = self.runtime.commit.force(
            self.stream_for(context_id), commit_lsn
        )
        self._maybe_publish_checkpoint()
        # Yield AFTER the force (a durability boundary has completed).
        self.runtime.sched_yield(f"log.force:{self.name}")
        return wrote

    def _maybe_publish_checkpoint(self) -> None:
        """Section 4.3: once a checkpoint has been flushed (possibly by a
        later send message), force its begin LSN into the well-known
        file."""
        incarnation = self.incarnation
        if incarnation.pending_checkpoint is None:
            return
        begin_lsn, end_lsn = incarnation.pending_checkpoint
        log = incarnation.streams[0].log
        if log.stable_lsn > end_lsn:
            log.write_well_known_lsn(begin_lsn)
            incarnation.pending_checkpoint = None
            faultplane.site_hit(
                f"checkpoint.publish.before_truncate:{self.name}", self.name
            )
            if self.config.checkpoint.truncate_log:
                self.collect_log_garbage()

    def set_pending_checkpoint(self, begin_lsn: int, end_lsn: int) -> None:
        self.incarnation.pending_checkpoint = (begin_lsn, end_lsn)
        self._maybe_publish_checkpoint()

    # ------------------------------------------------------------------
    # component creation
    # ------------------------------------------------------------------
    def create_component(
        self,
        cls: type,
        args: tuple = (),
        component_type: ComponentType | None = None,
        install_interceptors: bool | None = None,
    ) -> ComponentProxy:
        """Create a (parent) component in a fresh context.

        ``component_type`` overrides the declared attribute only for the
        native .NET kinds of Table 4 (``MARSHAL_BY_REF`` /
        ``CONTEXT_BOUND``); Phoenix kinds always come from declarations.
        ``install_interceptors`` models Table 4's "(interception)" row
        for native components; Phoenix components always have
        interceptors.
        """
        if self.state is not ProcessState.RUNNING:
            raise ComponentUnavailableError(
                f"phoenix://{self.machine.name}/{self.name}", "not running"
            )
        ctype = component_type or declared_type(cls)
        if ctype is ComponentType.SUBORDINATE:
            raise DeploymentError(
                f"{cls.__name__} is @subordinate; create it from its "
                "parent via new_subordinate()"
            )
        if ctype.is_phoenix and not issubclass(cls, PersistentComponent):
            raise DeploymentError(
                f"{cls.__name__} must inherit PersistentComponent to be "
                f"a {ctype.value} component"
            )
        if ctype is ComponentType.EXTERNAL:
            raise DeploymentError(
                f"{cls.__name__} has no Phoenix attribute; declare it "
                "@persistent/@functional/@read_only or pass a native "
                "component_type"
            )

        incarnation = self.incarnation
        lid = incarnation.next_component_lid
        incarnation.next_component_lid += 1
        uri = component_uri(self.machine.name, self.name, lid)
        if self.shard_router is not None:
            self.assign_stream(
                lid, self.shard_router.stream_for_class(cls.__name__)
            )
        if ctype.is_phoenix:
            # feed the static type directory (consulted only when
            # config.static_type_seeding is on; see RuntimeConfig)
            self.runtime.note_static_type(
                uri, ctype, read_only_method_names(cls)
            )
        interceptors = (
            bool(install_interceptors)
            if not ctype.is_phoenix
            else True
        )
        context = Context(
            self, lid, uri, ctype, install_interceptors=interceptors
        )
        entry = ContextTableEntry(
            context_id=lid, uri=uri, context_ref=context
        )
        incarnation.context_table[lid] = entry

        if ctype.is_phoenix:
            class_name = self.runtime.registry.register(cls)
            record = CreationRecord(
                context_id=lid,
                component_lid=lid,
                class_name=class_name,
                args=swizzle_for_message(tuple(args)),
                uri=uri,
                component_type=ctype,
                registered_name=class_name,
            )
            entry.creation_lsn = self.log_append(record)
            self.log_force(context_id=lid)
            self._construct(context, cls, args, lid, ctype)
        else:
            self.instantiate_in_context(context, cls, args, lid, ctype)
        return self.runtime.proxy_for(uri)

    def _construct(
        self,
        context: Context,
        cls: type,
        args: tuple,
        lid: int,
        ctype: ComponentType,
    ) -> None:
        """Run a phoenix component's constructor with interception active
        — construction methods are allowed to make method calls to other
        components (Section 4.4)."""
        component = self._attach_instance(context, cls, lid, ctype)
        context.begin_incoming(None)
        self.runtime.push_context(context)
        try:
            component.__init__(
                *unswizzle_for_message(
                    swizzle_for_message(tuple(args)), self.runtime
                )
            )
        finally:
            self.runtime.pop_context()
            context.end_incoming()
        # A new component is immediately quiescent; don't count
        # construction toward the checkpoint-policy call count.
        context.incoming_calls_handled = 0

    def instantiate_in_context(
        self,
        context: Context,
        cls: type,
        args: tuple,
        lid: int,
        ctype: ComponentType,
    ) -> PersistentComponent:
        """Create and attach an instance, running its constructor inline
        (subordinates and native components)."""
        component = self._attach_instance(context, cls, lid, ctype)
        component.__init__(*args)
        return component

    def _attach_instance(
        self,
        context: Context,
        cls: type,
        lid: int,
        ctype: ComponentType,
    ) -> PersistentComponent:
        """Allocate the instance and wire the runtime fields without
        running the constructor (recovery also restores this way)."""
        component = cls.__new__(cls)
        component._phoenix_lid = lid
        component._phoenix_uri = component_uri(
            self.machine.name, self.name, lid
        )
        component._phoenix_type = ctype
        component._phoenix_context = context
        if lid == context.context_id:
            context.parent = component
        else:
            context.subordinates[lid] = component
        class_name = (
            self.runtime.registry.register(cls)
            if ctype.is_phoenix
            else f"{cls.__module__}.{cls.__qualname__}"
        )
        incarnation = self.incarnation
        incarnation.component_table[lid] = ComponentTableEntry(
            component_lid=lid,
            component_type=ctype,
            class_name=class_name,
            instance=component,
            context_id=context.context_id,
        )
        entry = incarnation.context_table.get(context.context_id)
        if entry is not None and lid not in entry.component_lids:
            entry.component_lids.append(lid)
        return component

    # ------------------------------------------------------------------
    # lookup
    # ------------------------------------------------------------------
    def find_context(self, component_lid: int) -> Context:
        incarnation = self.incarnation
        entry = incarnation.component_table.get(component_lid)
        if entry is None:
            raise DeploymentError(
                f"no component {component_lid} in process {self.name} "
                f"on {self.machine.name}"
            )
        return incarnation.context_table[entry.context_id].context_ref

    def contexts(self) -> list[Context]:
        return [
            entry.context_ref
            for entry in self.incarnation.context_table.values()
        ]

    # ------------------------------------------------------------------
    # checkpointing entry points (implementation in repro.checkpoint)
    # ------------------------------------------------------------------
    def maybe_save_context_state(self, context: Context) -> bool:
        """Apply the checkpoint policy after an incoming call finishes."""
        if context.replaying or not context.component_type.is_persistent_family:
            return False
        every = self.config.checkpoint.context_state_every_n_calls
        if every is None or context.incoming_calls_handled == 0:
            return False
        if context.incoming_calls_handled % every != 0:
            return False
        self.save_context_state(context)
        return True

    def save_context_state(self, context: Context) -> int:
        from ..checkpoint.state_record import save_context_state

        lsn = save_context_state(context)
        incarnation = self.incarnation
        incarnation.state_saves += 1
        every = self.config.checkpoint.process_checkpoint_every_n_saves
        if (
            every is not None
            and incarnation.state_saves % every == 0
            and incarnation.pending_recovery is None
        ):
            # Automatic process checkpoints wait until on-demand replay
            # has drained: a checkpoint taken mid-drain would publish a
            # last-call table that unreplayed components have not yet
            # repopulated.
            self.take_process_checkpoint()
        return lsn

    def take_process_checkpoint(self) -> tuple[int, int]:
        from ..checkpoint.process_checkpoint import take_process_checkpoint

        return take_process_checkpoint(self)

    # ------------------------------------------------------------------
    # log garbage collection (extension — see CheckpointConfig)
    # ------------------------------------------------------------------
    def log_truncation_point(self, stream: int = 0) -> int:
        """The highest LSN below which no recovery can ever read from
        one stream.

        Recovery needs: the published checkpoint onward (stream 0 holds
        the checkpoint control records), each of the stream's contexts'
        recovery-start record (latest state record, else creation
        record), and every reply record the last-call table still
        points at.
        """
        incarnation = self.incarnation
        candidates: list[int] = []
        published = incarnation.streams[stream].log.read_well_known_lsn()
        if published is not None:
            candidates.append(published)
        for entry in incarnation.context_table.values():
            if self.stream_index(entry.context_id) != stream:
                continue
            start = entry.recovery_start_lsn
            if start != NO_LSN:
                candidates.append(start)
        for __, last_call in incarnation.last_calls.all_entries():
            if last_call.reply_lsn == NO_LSN:
                continue
            # The reply record lives on the serving context's stream;
            # entries recovery created without a context id (NO_LSN)
            # floor every stream — conservative, never unsafe.
            if (
                last_call.context_id != NO_LSN
                and self.stream_index(last_call.context_id) != stream
            ):
                continue
            candidates.append(last_call.reply_lsn)
        if incarnation.pending_recovery is not None:
            # Frame chains still owed to on-demand replay.  (Their
            # contexts' recovery-start LSNs cover them already; keep
            # the invariant explicit.)
            candidates.extend(incarnation.pending_recovery.start_lsns(stream))
        if not candidates:
            return incarnation.streams[stream].log.base_lsn
        return min(candidates)

    def collect_log_garbage(self) -> int:
        """Reclaim each stream's dead log prefix; returns bytes
        reclaimed."""
        reclaimed = 0
        for index, stream in enumerate(self.incarnation.streams):
            point = self.log_truncation_point(index)
            if index:
                # Publish an extra stream's own scan anchor before
                # dropping the prefix: recovery pass 1 starts each
                # stream at its well-known LSN, which must never sit
                # below truncated bytes.
                stream.log.write_well_known_lsn(point)
            reclaimed += stream.log.truncate_prefix(point)
        return reclaimed

    # ------------------------------------------------------------------
    # failure & restart
    # ------------------------------------------------------------------
    def crash(self) -> None:
        """Kill the process: the incarnation is dropped whole and an
        empty one, over the same stable files, waits for recovery."""
        if self.state is ProcessState.CRASHED:
            return
        self.state = ProcessState.CRASHED
        self.crash_count += 1
        self.incarnation = Incarnation(
            [stream.reopen() for stream in self.incarnation.streams]
        )
        for stream in self.incarnation.streams:
            # Volatile records above the stable boundary are gone and
            # their LSNs will be reused; tell the conformance trace.
            stream.trace.note_crash(stream.log.stable_lsn)

    def finish_recovery(self) -> None:
        self.state = ProcessState.RUNNING
        self.recovery_count += 1
        # Eager recovery replayed every context outside the admission
        # path; publish the driving session's clock on each so later
        # admissions order happens-after the replay (TRC108).
        scheduler = self.runtime.scheduler
        for context in self.contexts():
            scheduler.publish_context(context)

    def __repr__(self) -> str:
        return (
            f"AppProcess({self.machine.name}/{self.name}, "
            f"pid={self.logical_pid}, {self.state.value}, "
            f"contexts={len(self.incarnation.context_table)})"
        )
