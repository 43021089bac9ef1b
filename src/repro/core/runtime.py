"""The Phoenix/App runtime facade.

Owns the simulated cluster, the configuration switches, the component
class registry and the execution stack, and runs the message pipeline
that proxies call into:

    client interceptor -> network -> server interceptor -> method
                       <- network <-

Every hop charges the calibrated cost model; every logging decision goes
through the active :class:`LoggingPolicy`.  Failures surface as
*recognized* exceptions which persistent callers retry with the same
call ID (condition 4), triggering recovery of the crashed process.
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass

from ..analysis.registry import register_runtime
from ..common.ids import parse_uri
from ..common.messages import MethodCallMessage, ReplyMessage
from ..common.types import ComponentType
from ..concurrency.scheduler import SerialScheduler
from ..errors import (
    ApplicationError,
    ComponentUnavailableError,
    CrashSignal,
    DeploymentError,
    RetriesExhaustedError,
)
from ..faults import plane as faultplane
from ..log.serialization import serialized_size
from ..recovery.recovery_service import RecoveryService
from ..sim.cluster import Cluster
from .component import ComponentClassRegistry
from .config import RuntimeConfig
from .context import SUB_LID_BASE, Context
from .interceptor import ReplayOutcome
from .process import AppProcess, ProcessState
from .proxy import ComponentProxy
from .swizzle import swizzle_for_message, unswizzle_for_message


@dataclass
class RuntimeStats:
    """Aggregated counters for experiment reports."""

    log_forces: int = 0
    log_appends: int = 0
    disk_writes: int = 0
    network_messages: int = 0
    crashes: int = 0
    recoveries: int = 0


class PhoenixRuntime:
    """Facade over a simulated cluster running Phoenix/App."""

    def __init__(
        self,
        cluster: Cluster | None = None,
        config: RuntimeConfig | None = None,
        machine_names: Iterable[str] = ("alpha", "beta"),
    ):
        self.cluster = cluster if cluster is not None else Cluster(machine_names)
        self.config = config if config is not None else RuntimeConfig.optimized()
        self.clock = self.cluster.clock
        self.costs = self.cluster.costs
        self.registry = ComponentClassRegistry()
        # Execution stacks are per *session* (the deterministic
        # scheduler's unit of concurrency); key None is the main thread
        # and the serial runtime.  A process-global stack would let one
        # session's unwind pop another session's frame.
        self._exec_stacks: dict[int | None, list[Context]] = {None: []}
        self._processes: dict[tuple[str, str], AppProcess] = {}

        #: The scheduler every hook calls: the one-session serial
        #: scheduler, whose hooks do nothing, except while a
        #: ``DeterministicScheduler.run`` has installed itself (see
        #: repro.concurrency).
        self.scheduler = SerialScheduler()

        # The LogPlan the sharded runtime routes by (repro.log.sharding).
        # ``install_log_plan`` pins one explicitly (benches and tests
        # build synthetic plans); otherwise the first committed plan is
        # resolved lazily when the first process spawns with
        # ``config.sharded_logging`` on — a ConfigurationError if a
        # plan file exists but cannot be routed by.
        self._log_plan: object | None = None
        self._log_plan_resolved = False

        #: uri -> (component type, read-only method names) for every
        #: deployed Phoenix component.  Populated unconditionally at
        #: creation (no clock charge, no log writes); consulted by the
        #: interceptor only when ``config.static_type_seeding`` is on,
        #: so the default cold-start runs are byte-identical with the
        #: directory present.
        self.static_type_directory: dict[
            str, tuple[ComponentType, frozenset[str]]
        ] = {}

        #: Where external (non-Phoenix) callers live.  ``None`` means
        #: external calls originate on the target's machine (the
        #: paper's "local" micro-benchmark columns); setting a machine
        #: name makes external calls pay network costs (the "remote"
        #: columns and the bookstore's BookBuyer machine).
        self.external_client_machine: str | None = None

        for machine in self.cluster.machines():
            machine.recovery_service = RecoveryService(machine, self)

        register_runtime(self)  # for the pytest conformance oracle

    # ------------------------------------------------------------------
    # deployment
    # ------------------------------------------------------------------
    @property
    def log_plan(self):
        if self._log_plan is None and not self._log_plan_resolved:
            if self.config.sharded_logging:
                from ..analysis.plan.planner import routing_plan

                self._log_plan = routing_plan()
            self._log_plan_resolved = True
        return self._log_plan

    def install_log_plan(self, plan) -> None:
        """Pin the plan the sharded runtime routes by.  Call before
        spawning processes — a process builds its streams at spawn."""
        self._log_plan = plan
        self._log_plan_resolved = True

    def spawn_process(self, name: str, machine: str = "alpha") -> AppProcess:
        host = self.cluster.machine(machine)
        if host.has_process(name):
            raise DeploymentError(
                f"process {name!r} already exists on machine {machine}"
            )
        process = AppProcess(self, host, name)
        self._processes[(machine, name)] = process
        return process

    def process(self, machine: str, name: str) -> AppProcess:
        try:
            return self._processes[(machine, name)]
        except KeyError:
            raise DeploymentError(
                f"no process {name!r} on machine {machine!r}"
            ) from None

    def processes(self) -> list[AppProcess]:
        return list(self._processes.values())

    def proxy_for(self, uri: str) -> ComponentProxy:
        return ComponentProxy(self, uri)

    def note_static_type(
        self,
        uri: str,
        component_type: ComponentType,
        read_only_methods: frozenset[str],
    ) -> None:
        self.static_type_directory[uri] = (
            component_type, read_only_methods,
        )

    def static_type_for(
        self, uri: str
    ) -> tuple[ComponentType, frozenset[str]] | None:
        return self.static_type_directory.get(uri)

    # ------------------------------------------------------------------
    # execution stacks (which context is running right now, per session)
    # ------------------------------------------------------------------
    def _exec_stack_here(self) -> list[Context]:
        key = self.scheduler.current_session_id()
        stack = self._exec_stacks.get(key)
        if stack is None:
            stack = self._exec_stacks[key] = []
        return stack

    def current_context(self) -> Context | None:
        stack = self._exec_stack_here()
        return stack[-1] if stack else None

    def push_context(self, context: Context) -> None:
        self._exec_stack_here().append(context)

    def pop_context(self) -> None:
        self._exec_stack_here().pop()

    # ------------------------------------------------------------------
    # scheduler cooperation
    # ------------------------------------------------------------------
    def sched_yield(self, tag: str) -> None:
        """A durability/network boundary: give the scheduler a chance
        to switch sessions."""
        self.scheduler.yield_point(tag)

    # ------------------------------------------------------------------
    # crash hooks
    # ------------------------------------------------------------------
    def fire_hook(
        self, point: str, process: AppProcess, context: Context | None = None
    ) -> None:
        """Cross Figure 2 pipeline ``point`` of ``process``: fault-plane
        site ``<point>:<process>`` (``repro.faults.plane.PIPELINE_POINTS``).

        Hooks are quiet during replay: recovery re-executes application
        code, and crash points belong to the original execution, so a
        replayed call neither fires nor advances a count.  The site name
        is built only when a plane is installed: every served call
        crosses five to ten hooks.
        """
        if context is not None and context.replaying:
            return
        plane = faultplane._PLANE
        if plane is not None:
            plane.hit(f"{point}:{process.name}", process.name, process)

    # ------------------------------------------------------------------
    # the call pipeline
    # ------------------------------------------------------------------
    def invoke_method(
        self,
        uri: str,
        method: str,
        args: tuple,
        kwargs: dict | None = None,
    ) -> object:
        kwargs = kwargs or {}
        machine_name, process_name, lid = parse_uri(uri)
        process = self._processes.get((machine_name, process_name))
        if process is None:
            raise DeploymentError(f"no process behind {uri}")
        caller_ctx = self.current_context()

        # Within a context, method calls are local calls (Section 2.3):
        # a proxy that happens to target the caller's own context short-
        # circuits to a direct invocation with no interception.
        if caller_ctx is not None and caller_ctx.process is process:
            entry = process.component_table.get(lid)
            if (
                entry is not None
                and entry.context_id == caller_ctx.context_id
            ):
                caller_ctx.charge_subordinate_call()
                return getattr(entry.instance, method)(*args, **kwargs)

        phoenix_caller = caller_ctx is not None and caller_ctx.is_phoenix
        try:
            if phoenix_caller:
                return self._phoenix_client_call(
                    caller_ctx, process, lid, uri, method, args, kwargs
                )
            return self._external_client_call(
                caller_ctx, process, lid, uri, method, args, kwargs
            )
        except CrashSignal as signal:
            # A signal for the *caller's* process must unwind further —
            # its process boundary (the _deliver_once frame that entered
            # it) is higher on the Python stack.  Only a top-level
            # external call has no such frame; convert there.
            if caller_ctx is not None:
                raise
            target = signal.process
            if target is not None:
                if not signal.stale:
                    target.crash()
                raise ComponentUnavailableError(
                    uri, f"crashed at {signal.point}"
                ) from None
            raise

    def _phoenix_client_call(
        self,
        caller_ctx: Context,
        process: AppProcess,
        lid: int,
        uri: str,
        method: str,
        args: tuple,
        kwargs: dict,
    ) -> object:
        interceptor = caller_ctx.interceptor
        message, server_type, method_ro = interceptor.prepare_outgoing(
            uri, method, args, kwargs
        )
        if caller_ctx.replaying:
            outcome, logged_reply = interceptor.check_replay(message)
            if outcome is ReplayOutcome.SUPPRESSED:
                return interceptor.reply_value(logged_reply)
            if outcome is ReplayOutcome.EXECUTE_SILENT:
                # A never-logged (functional) reply: re-execute the pure
                # call without leaving replay or logging anything.
                reply = self._deliver_with_retry(
                    caller_ctx, process, lid, message
                )
                interceptor.learn_from_reply(message, reply)
                return interceptor.reply_value(reply)
            # GO_LIVE: the log ran dry; fall through to normal execution.
        interceptor.on_outgoing(message, server_type, method_ro)
        reply = self._deliver_with_retry(caller_ctx, process, lid, message)
        return interceptor.on_reply_received(message, reply)

    def _external_client_call(
        self,
        caller_ctx: Context | None,
        process: AppProcess,
        lid: int,
        uri: str,
        method: str,
        args: tuple,
        kwargs: dict,
    ) -> object:
        message = MethodCallMessage(
            target_uri=uri,
            method=method,
            args=swizzle_for_message(tuple(args)),
            kwargs=swizzle_for_message(
                MethodCallMessage.pack_kwargs(kwargs)
            ),
            call_id=None,
        )
        reply = self._deliver_with_retry(caller_ctx, process, lid, message)
        if reply.is_exception:
            raise ApplicationError(
                reply.exception_message,
                original_type=reply.exception_message.split(":", 1)[0],
            )
        return unswizzle_for_message(reply.value, self)

    def _deliver_with_retry(
        self,
        caller_ctx: Context | None,
        process: AppProcess,
        lid: int,
        message: MethodCallMessage,
    ) -> ReplyMessage:
        phoenix_caller = caller_ctx is not None and caller_ctx.is_phoenix
        attempts = 0
        while True:
            attempts += 1
            try:
                return self._deliver_once(caller_ctx, process, lid, message)
            except (ComponentUnavailableError, ConnectionError) as exc:
                if not phoenix_caller:
                    # No guarantees for external callers; they may retry
                    # manually (and the paper's window of vulnerability
                    # applies).
                    raise
                if self._caller_is_dead(caller_ctx):
                    # The failure took the caller's own process down
                    # (a same-process call): these frames are ghosts of
                    # a crashed execution and must unwind to their own
                    # process boundary instead of retrying.  The signal
                    # is stale — the crash already happened (and under
                    # concurrent sessions the process may by now be
                    # recovering, or recovered); the boundary must not
                    # crash it again.
                    raise CrashSignal(
                        caller_ctx.process.name, "cascaded crash",
                        process=caller_ctx.process, stale=True,
                    ) from None
                if attempts > self.config.max_call_retries:
                    raise RetriesExhaustedError(
                        message.target_uri, attempts
                    ) from exc
                # Condition 4: wait a while, then retry the call with
                # the SAME method call ID.
                self.clock.advance(self.costs.retry_backoff)
                if self.config.auto_recover:
                    try:
                        self.restart_process(process)
                    except CrashSignal as signal:
                        # The server crashed again while recovering.  If
                        # the signal is the caller's own (a cascade), it
                        # must keep unwinding; otherwise crash the target
                        # and let the next attempt re-run its recovery.
                        target = signal.process
                        if target is None or target is caller_ctx.process:
                            raise
                        target.crash()

    @staticmethod
    def _caller_is_dead(caller_ctx: Context) -> bool:
        """Is this execution a ghost of a crashed incarnation?

        True when the caller's process has crashed, or when recovery has
        already replaced the caller's context with a new generation."""
        process = caller_ctx.process
        if process.state is ProcessState.CRASHED:
            return True
        entry = process.context_table.get(caller_ctx.context_id)
        return entry is None or entry.context_ref is not caller_ctx

    def _deliver_once(
        self,
        caller_ctx: Context | None,
        process: AppProcess,
        lid: int,
        message: MethodCallMessage,
    ) -> ReplyMessage:
        if caller_ctx is not None:
            source_machine = caller_ctx.process.machine.name
        else:
            source_machine = (
                self.external_client_machine or process.machine.name
            )
        target_machine = process.machine.name

        self.cluster.network.transmit(
            source_machine, target_machine, serialized_size(message)
        )
        self.sched_yield(f"net.request:{process.name}")
        scheduler = self.scheduler
        entered = scheduler.enter_process(process)
        claimed: Context | None = None
        try:
            try:
                while True:
                    if process.state is ProcessState.CRASHED:
                        if not self.config.auto_recover:
                            raise ComponentUnavailableError(
                                message.target_uri, "process crashed"
                            )
                        self.restart_process(process)
                    if (
                        process.state is ProcessState.RECOVERING
                        and not scheduler.is_recovery_driver(process)
                    ):
                        # Another session is driving this process's
                        # recovery; park until it finishes (or the
                        # process crashes again), then re-check.
                        scheduler.block_until(
                            lambda: process.state
                            is not ProcessState.RECOVERING,
                            tag=f"recovering:{process.name}",
                        )
                        continue
                    break
                pending = process.pending_recovery
                if pending is not None:
                    # Replay still owed (on-demand admission, or an
                    # eager drain whose replay went live): the target
                    # component's watermark decides, and its frame chain
                    # is applied before the call is delivered, so
                    # duplicate detection sees the regenerated reply.
                    pending.ensure_component(
                        lid if lid < SUB_LID_BASE else lid // SUB_LID_BASE
                    )
                context = process.find_context(lid)
                if context.crashed:
                    if not self.config.auto_recover:
                        raise ComponentUnavailableError(
                            message.target_uri, "context crashed"
                        )
                    self.recover_context(context)
                base_cost = (
                    self.costs.marshal_by_ref_call
                    if context.component_type is ComponentType.MARSHAL_BY_REF
                    else self.costs.context_bound_call
                )
                self.clock.advance(base_cost)
                if not context.is_phoenix:
                    if context.install_interceptors:
                        self.clock.advance(self.costs.interception_overhead)
                    reply = self._invoke_native(context, message)
                else:
                    if lid != context.context_id:
                        context.check_subordinate_access()
                    if scheduler.acquire_context(context):
                        # Contexts are single-threaded: one session
                        # serves a context at a time; the rest wait at
                        # the boundary instead of looking re-entrant.
                        claimed = context
                    reply = context.interceptor.handle_incoming(message)
            except CrashSignal as signal:
                if signal.process is process:
                    if not signal.stale:
                        process.crash()
                    raise ComponentUnavailableError(
                        message.target_uri, f"crashed at {signal.point}"
                    ) from None
                raise
        finally:
            if claimed is not None:
                scheduler.release_context(claimed)
            if entered:
                scheduler.exit_process()

        self.cluster.network.transmit(
            target_machine, source_machine, serialized_size(reply)
        )
        # An after-send crash: the reply is already with the caller, the
        # server dies afterwards (Figure 2, failure point 3).
        try:
            self.fire_hook("reply.after_send", process)
        except CrashSignal:
            process.crash()
        if (
            caller_ctx is not None
            and caller_ctx.process is process
            and process.state is ProcessState.CRASHED
        ):
            # Same-process caller: the after-send crash killed it too.
            # Stale: the process is already crashed — the boundary
            # converts without crashing whatever incarnation is live by
            # the time the unwind reaches it.
            raise CrashSignal(
                process.name, "reply.after_send", process=process, stale=True
            )
        self.sched_yield(f"net.reply:{process.name}")
        return reply

    def _invoke_native(
        self, context: Context, message: MethodCallMessage
    ) -> ReplyMessage:
        """Plain .NET objects of Table 4: no logging, no guarantees."""
        self.push_context(context)
        try:
            bound = getattr(context.parent, message.method)
            value = bound(
                *unswizzle_for_message(message.args, self),
                **dict(
                    unswizzle_for_message(message.kwargs, self)
                ),
            )
            return ReplyMessage(
                call_id=message.call_id, value=swizzle_for_message(value)
            )
        except Exception as exc:
            return ReplyMessage(
                call_id=message.call_id,
                is_exception=True,
                exception_message=f"{type(exc).__name__}: {exc}",
            )
        finally:
            self.pop_context()

    # ------------------------------------------------------------------
    # failure & recovery entry points
    # ------------------------------------------------------------------
    def crash_process(self, process: AppProcess) -> None:
        """Kill a process immediately (tests and benchmarks)."""
        process.crash()

    def crash_context(self, context: Context) -> None:
        """Kill a single context; its process stays up."""
        context.crashed = True
        context.parent = None
        context.subordinates = {}
        context.busy = False
        context.current_call = None

    def restart_process(self, process: AppProcess) -> None:
        """Restart a crashed process.  With eager recovery this replays
        the whole log; with ``config.on_demand_recovery`` it returns as
        soon as the analysis pass admits new calls — the remaining
        replay happens lazily on first touch and in background drain
        workers."""
        if process.state is not ProcessState.CRASHED:
            return
        # Mark this session as the recovery driver so concurrent
        # sessions calling into the process park at the boundary
        # instead of observing RECOVERING state mid-replay.
        with self.scheduler.driving_recovery(process):
            process.machine.recovery_service.restart(process)

    def ensure_recovered(self, process: AppProcess) -> None:
        """The full-recovery barrier: restart if crashed *and* drain any
        on-demand replay backlog.  Workloads, benchmarks and state
        capture use this when they need every component materialized."""
        self.restart_process(process)
        pending = process.pending_recovery
        if pending is not None:
            pending.drain_all()

    def recover_context(self, context: Context) -> None:
        from ..recovery.recovery_manager import recover_context

        recover_context(context)

    # ------------------------------------------------------------------
    # statistics
    # ------------------------------------------------------------------
    def stats(self) -> RuntimeStats:
        totals = RuntimeStats()
        for process in self._processes.values():
            for stream in process.streams:
                totals.log_forces += stream.log.stats.forces_performed
                totals.log_appends += stream.log.stats.appends
            totals.crashes += process.crash_count
            totals.recoveries += process.recovery_count
        for machine in self.cluster.machines():
            totals.disk_writes += machine.disk.stats.writes
        totals.network_messages = self.cluster.network.stats.messages
        return totals

    @property
    def now(self) -> float:
        return self.clock.now

    def describe(self) -> str:
        """A human-readable fleet report: machines, processes, contexts,
        log and disk statistics.  Operator/debugging surface; examples
        print it after a run."""
        lines = [f"runtime at t={self.now / 1000:.3f}s"]
        for machine in self.cluster.machines():
            disk = machine.disk.stats
            lines.append(
                f"  machine {machine.name}: disk writes={disk.writes} "
                f"(media={disk.media_writes}, cached={disk.cached_writes}), "
                f"busy={disk.busy_ms:.0f}ms"
            )
            for process in machine.processes():
                streams = process.streams
                forces = sum(
                    s.log.stats.forces_performed for s in streams
                )
                appends = sum(s.log.stats.appends for s in streams)
                lines.append(
                    f"    process {process.name} [{process.state.value}] "
                    f"pid={process.logical_pid}: "
                    f"forces={forces}, "
                    f"appends={appends}, "
                    f"crashes={process.crash_count}, "
                    f"recoveries={process.recovery_count}"
                )
                for entry in sorted(process.context_table.values(),
                                    key=lambda e: e.context_id):
                    context = entry.context_ref
                    if context is None:
                        continue
                    parent = (
                        type(context.parent).__name__
                        if context.parent is not None
                        else "?"
                    )
                    lines.append(
                        f"      context #{entry.context_id} "
                        f"{parent} ({context.component_type.value}): "
                        f"{context.incoming_calls_handled} calls, "
                        f"{len(context.subordinates)} subordinates"
                    )
        network = self.cluster.network.stats
        lines.append(
            f"  network: {network.messages} messages, "
            f"{network.bytes} bytes, {network.busy_ms:.1f}ms"
        )
        return "\n".join(lines)
