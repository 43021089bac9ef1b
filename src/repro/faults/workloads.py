"""The three sweep workloads: bookstore, orderflow, queued substrate.

Each workload is a deterministic script that can be executed fault-free
(the *golden* run, with a recording plane that journals every crash
site) or armed with crash specs.  Either way it must run to completion:
the drivers retry through injected crashes exactly the way the paper's
external clients do, so after the sweep's one-shot crash has fired and
recovery has run, the workload finishes and its observable outcome can
be compared byte-for-byte against the golden run.

The two Phoenix workloads are driven through a :class:`ScriptRunner` —
a persistent, memoizing component in its own process on the client
machine.  The external client's retry is the paper's window of
vulnerability (external call IDs cannot be duplicate-detected), so the
runner memoizes each step's result under its step index: a re-delivered
step returns the cached result instead of re-executing, while crashes
of the *server* tier are masked by ordinary persistent-caller duplicate
detection.  With that one idempotency layer at the edge, every injected
crash must leave replies and component state byte-identical to the
golden run — anything else is a recovery bug.

The queued workload drives the TP-monitor substrate (recoverable queues
+ durable state store + 2PC) with a client that resolves in-doubt
transactions after every crash, checking queue contents to decide
whether an interrupted operation committed or must be resubmitted.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..analysis.trace_check import check_runtime
from ..apps.bookstore.deploy import deploy_bookstore
from ..apps.orderflow.deploy import deploy_orderflow
from ..checkpoint.fields import capture_fields
from ..core import PersistentComponent, PhoenixRuntime, persistent
from ..core.config import CheckpointConfig, RuntimeConfig
from ..errors import (
    ApplicationError,
    ComponentUnavailableError,
    CrashSignal,
    RecoveryError,
)
from ..log.serialization import encode_value
from ..queues import (
    DurableStateStore,
    QueuedClient,
    RecoverableQueue,
    StatelessWorker,
    TransactionCoordinator,
)
from ..sim.cluster import Cluster
from .plane import CrashSpec, FaultPlane, SiteHit, installed

#: Attempts before a driver declares a schedule unrecoverable.  Specs
#: are one-shot, so anything above a handful means recovery is looping.
MAX_ATTEMPTS = 30


@dataclass
class RunOutcome:
    """Everything the sweep compares between golden and crashed runs."""

    workload: str
    replies: list
    state: dict[str, bytes]
    state_after_recover: dict[str, bytes]
    journal: list[SiteHit] = field(default_factory=list)
    fired: list[str] = field(default_factory=list)
    violations: list[str] = field(default_factory=list)
    retries: int = 0
    #: Byte fingerprint of the run's durable artifacts (stable logs,
    #: protocol traces, final clock).  Only the concurrent workload
    #: fills it; two same-seed runs must produce equal fingerprints.
    #: NOT compared between golden and crashed runs — a crash legally
    #: changes the schedule from the injection point on.
    determinism: dict[str, bytes] = field(default_factory=dict)
    #: Per-process, per-event trace reprs (concurrent workload only):
    #: what the determinism check diffs to report the *first divergent
    #: trace event* when two runs disagree.
    trace_reprs: dict[str, list[str]] = field(default_factory=dict)


# ----------------------------------------------------------------------
# the Phoenix driver component
# ----------------------------------------------------------------------
@persistent
class ScriptRunner(PersistentComponent):
    """Memoizing step executor (see module docstring).

    Application errors are part of a step's *result* — they are caught
    and cached like values, so a re-delivered step cannot re-raise its
    way past the memo and double-execute the failing call.
    """

    def __init__(self, targets: dict):
        self.targets = dict(targets)
        self.done: dict = {}

    def step(self, index: int, target: str, method: str, args: tuple):
        key = f"s{index}"
        if key in self.done:
            return self.done[key]
        try:
            result = ["ok", getattr(self.targets[target], method)(*args)]
        except ApplicationError as exc:
            result = ["err", str(exc)]
        self.done[key] = result
        return result


def _capture_state(runtime: PhoenixRuntime) -> dict[str, bytes]:
    """Byte fingerprint of every persistent-family component's fields,
    via the same capture path checkpoints use."""
    state: dict[str, bytes] = {}
    for process in sorted(runtime.processes(), key=lambda p: p.name):
        for context_id in sorted(process.context_table):
            entry = process.context_table[context_id]
            context = entry.context_ref
            if context is None or not context.is_phoenix:
                continue
            if not context.component_type.is_persistent_family:
                continue
            for position, component in enumerate(context.components()):
                fields = capture_fields(component, context)
                blob = encode_value(
                    tuple(sorted(fields.items(), key=lambda kv: kv[0]))
                )
                key = (
                    f"{process.name}/{context_id}/{position}:"
                    f"{type(component).__name__}"
                )
                state[key] = blob
    return state


def _ensure_all_recovered(runtime: PhoenixRuntime) -> None:
    """Drive every process to fully recovered, retrying through injected
    crashes.

    Eagerly-recovering workloads finish their replay inside the step
    loop, so this barrier is a no-op for them.  With
    ``config.on_demand_recovery`` the post-step drain replays the
    remaining components *here* — one-shot specs armed at ``recovery.*``
    sites can fire mid-drain, and the barrier must absorb the crash and
    restart exactly the way the external client's retry absorbs mid-call
    crashes."""
    for __ in range(MAX_ATTEMPTS):
        try:
            for process in runtime.processes():
                runtime.ensure_recovered(process)
            return
        except CrashSignal as signal:
            if signal.process is not None and not signal.stale:
                signal.process.crash()
        except (ComponentUnavailableError, ConnectionError):
            continue
    raise RecoveryError(
        f"processes did not reach a recovered state within {MAX_ATTEMPTS} "
        "attempts (a recovery-site crash spec is looping)"
    )


def _run_phoenix(
    name: str,
    deploy,
    steps: tuple,
    specs: tuple[CrashSpec, ...],
    record: bool,
) -> RunOutcome:
    runtime, targets, client_machine = deploy()
    driver_process = runtime.spawn_process("sweep-driver", machine=client_machine)
    runner = driver_process.create_component(ScriptRunner, args=(targets,))

    plane = FaultPlane(specs=tuple(specs), record=record)
    plane.bind(runtime)
    replies: list = []
    retries = 0
    with installed(plane):
        for index, (target, method, args) in enumerate(steps):
            for __ in range(MAX_ATTEMPTS):
                try:
                    replies.append(runner.step(index, target, method, args))
                    break
                except (ComponentUnavailableError, ConnectionError):
                    retries += 1
            else:
                raise RecoveryError(
                    f"{name} step {index} did not complete within "
                    f"{MAX_ATTEMPTS} attempts (specs={specs!r})"
                )
        # Still inside the plane: the on-demand drain happens here, so a
        # golden/armed run journals its ``recovery.*`` crossings and
        # composite specs can fire mid-drain.  No-op (and journal-silent)
        # when recovery already completed eagerly in the step loop.
        _ensure_all_recovered(runtime)
    state = _capture_state(runtime)
    violations = [
        f"{process_name}: {violation.render()}"
        for process_name, violation in check_runtime(runtime)
    ]
    violations.extend(_plan_violations(runtime))
    # Recover-twice idempotency: crash every process and recover again —
    # replay must regenerate byte-identical state (and the second
    # recovery must tolerate whatever the first one left on the logs).
    for process in runtime.processes():
        process.crash()
    _ensure_all_recovered(runtime)
    state_after = _capture_state(runtime)
    violations.extend(
        f"{process_name}: {violation.render()}"
        for process_name, violation in check_runtime(runtime)
    )
    return RunOutcome(
        workload=name,
        replies=replies,
        state=state,
        state_after_recover=state_after,
        journal=plane.journal,
        fired=[spec.render() for spec in plane.fired],
        violations=violations,
        retries=retries,
    )


# ----------------------------------------------------------------------
# bookstore
# ----------------------------------------------------------------------
_TITLE_A = "Principles of Recovery (vol. 1)"
_TITLE_B = "Principles of Logging (vol. 1)"

BOOKSTORE_STEPS = (
    ("grabber", "search", ("recovery",)),
    ("store0", "buy", (_TITLE_A,)),
    ("seller", "add_to_basket", ("buyer-1", 0, _TITLE_A, 19.99)),
    ("store1", "price", (_TITLE_B,)),
    ("store1", "buy", (_TITLE_B,)),
    ("seller", "add_to_basket", ("buyer-1", 1, _TITLE_B, 29.99)),
    ("seller", "basket_subtotal", ("buyer-1",)),
    ("tax", "total_with_tax", (49.98, "wa")),
    ("seller", "show_basket", ("buyer-1",)),
    ("seller", "clear_basket", ("buyer-1",)),
    ("store0", "buy", (_TITLE_A,)),
    ("seller", "add_to_basket", ("buyer-1", 0, _TITLE_A, 19.99)),
)


def _deploy_bookstore_workload():
    config = RuntimeConfig.optimized(
        checkpoint=CheckpointConfig(
            context_state_every_n_calls=2,
            process_checkpoint_every_n_saves=2,
            truncate_log=True,
        )
    )
    runtime = PhoenixRuntime(config=config)
    app = deploy_bookstore(runtime=runtime)
    targets = {
        "store0": app.stores[0],
        "store1": app.stores[1],
        "grabber": app.price_grabber,
        "tax": app.tax_calculator,
        "seller": app.seller,
    }
    return runtime, targets, "alpha"


def run_bookstore(
    specs: tuple[CrashSpec, ...] = (), record: bool = False
) -> RunOutcome:
    return _run_phoenix(
        "bookstore", _deploy_bookstore_workload, BOOKSTORE_STEPS, specs, record
    )


def _deploy_bookstore_ondemand_workload():
    config = RuntimeConfig.optimized(
        on_demand_recovery=True,
        checkpoint=CheckpointConfig(
            context_state_every_n_calls=2,
            process_checkpoint_every_n_saves=2,
            truncate_log=True,
        ),
    )
    runtime = PhoenixRuntime(config=config)
    app = deploy_bookstore(runtime=runtime)
    targets = {
        "store0": app.stores[0],
        "store1": app.stores[1],
        "grabber": app.price_grabber,
        "tax": app.tax_calculator,
        "seller": app.seller,
    }
    return runtime, targets, "alpha"


def run_bookstore_ondemand(
    specs: tuple[CrashSpec, ...] = (), record: bool = False
) -> RunOutcome:
    """The bookstore with incremental recovery on: a crashed server is
    re-admitted after analysis, the steps' own deliveries trigger lazy
    per-component replay, and the post-step barrier drains the rest —
    covering ``recovery.admit_early`` and ``recovery.lazy_replay.*``
    crash sites (the log-truncation interaction rides along)."""
    return _run_phoenix(
        "bookstore-ondemand",
        _deploy_bookstore_ondemand_workload,
        BOOKSTORE_STEPS,
        specs,
        record,
    )


# ----------------------------------------------------------------------
# concurrent bookstore (deterministic scheduler, N interleaved buyers)
# ----------------------------------------------------------------------
#: Sessions in the concurrent bookstore workload; buyer i shops only at
#: store i, so per-session replies and component state are independent
#: of the interleaving and byte-comparable against the golden run.
CONCURRENT_BUYERS = 4

#: The scheduler seed for both golden and armed runs.  Identical seeds
#: make the pre-crash schedule of an armed run identical to the golden
#: run, which is what lets one-shot specs fire at the recorded hit.
CONCURRENT_SEED = 5824

#: Synthetic shard split for the sharded sweep workload (the committed
#: plan hosts the whole bookstore on one shard, which would leave the
#: extra streams idle).  Accepted verbatim by
#: :func:`repro.log.sharding.plan_shards`; unlisted components (the
#: driver's runners, checkpoint control records) stay on stream 0.
SHARDED_SWEEP_SHARDS = (
    {
        "id": "store-tier",
        "processes": ["bookstore-app"],
        "components": ["Bookstore"],
    },
    {
        "id": "seller-tier",
        "processes": ["bookstore-app"],
        "components": [
            "BookSeller",
            "BookSellerRemoteBaskets",
            "BasketManager",
            "BasketManagerPersistent",
            "ShoppingBasket",
            "ShoppingBasketPersistent",
        ],
    },
    {
        "id": "pricing-tier",
        "processes": ["bookstore-app"],
        "components": [
            "PriceGrabber",
            "PriceGrabberPersistent",
            "TaxCalculator",
            "TaxCalculatorPersistent",
        ],
    },
)

_FORCE_BOUNDS = None


def _concurrent_force_bounds():
    """Lazily built static force bounds (TRC106) shared by every run in
    this process; building the whole-program model is the expensive
    part, so it happens once."""
    global _FORCE_BOUNDS
    if _FORCE_BOUNDS is None:
        from pathlib import Path

        from ..analysis.infer import build_cost_model
        from ..analysis.model import ProgramModel, iter_py_files

        apps = Path(__file__).resolve().parents[1] / "apps"
        model = ProgramModel.from_paths(list(iter_py_files([apps])))
        _FORCE_BOUNDS = build_cost_model(model).force_bounds()
    return _FORCE_BOUNDS


def _plan_violations(runtime) -> list[str]:
    """TRC109: replay this runtime's traces against every committed
    LogPlan's force budgets.  Silent when no plan file is present (or
    ``REPRO_LOG_PLANS`` is set empty)."""
    from ..analysis.plan import check_runtime_plan, committed_plans

    return [
        f"{process_name}: {violation.render()}"
        for plan in committed_plans()
        for process_name, violation in check_runtime_plan(runtime, plan)
    ]


def _concurrent_buyer_steps(index: int) -> tuple:
    buyer = f"buyer-{index}"
    store = f"store{index}"
    return (
        ("grabber", "search", ("recovery",)),
        (store, "price", (_TITLE_A,)),
        (store, "buy", (_TITLE_A,)),
        ("seller", "add_to_basket", (buyer, index, _TITLE_A, 19.99)),
        (store, "buy", (_TITLE_B,)),
        ("seller", "add_to_basket", (buyer, index, _TITLE_B, 29.99)),
        ("seller", "basket_subtotal", (buyer,)),
        ("tax", "total_with_tax", (49.98, "wa")),
        ("seller", "show_basket", (buyer,)),
        ("seller", "clear_basket", (buyer,)),
    )


def _determinism_fingerprint(runtime: PhoenixRuntime) -> dict[str, bytes]:
    fingerprint: dict[str, bytes] = {}
    for process in sorted(runtime.processes(), key=lambda p: p.name):
        # Stream 0 keeps the legacy keys so flag-off fingerprints stay
        # byte-identical; extra shard streams get their own entries.
        for index, stream in enumerate(process.streams):
            suffix = "" if index == 0 else f"@{stream.shard_id}"
            fingerprint[f"log:{process.name}{suffix}"] = (
                stream.log.stable_bytes()
            )
            fingerprint[f"trace:{process.name}{suffix}"] = repr(
                stream.trace.entries
            ).encode()
    fingerprint["clock"] = repr(runtime.clock.now).encode()
    return fingerprint


def run_bookstore_concurrent(
    specs: tuple[CrashSpec, ...] = (),
    record: bool = False,
    on_demand: bool = False,
    workload_name: str = "bookstore-concurrent",
    seed: int | None = None,
    pipelined: bool = False,
    sharded: bool = False,
) -> RunOutcome:
    """The bookstore driven by ``CONCURRENT_BUYERS`` interleaved
    sessions under the deterministic scheduler, with group commit on.

    Each buyer session drives its own memoizing :class:`ScriptRunner`
    (all runners share one driver process, so its log interleaves too)
    and retries through injected crashes like the serial workloads.
    The outcome carries the run's determinism fingerprint in addition
    to the usual sweep-comparable fields.

    With ``on_demand`` the server processes recover incrementally: a
    mid-run crash admits calls after analysis, buyer sessions trigger
    lazy per-component replay, and background drain workers join the
    seeded interleaving (``recovery.drain_worker`` coverage).
    """
    from ..concurrency import DeterministicScheduler

    config = RuntimeConfig.optimized(
        group_commit=True,
        pipelined_commit=pipelined,
        on_demand_recovery=on_demand,
        sharded_logging=sharded,
        checkpoint=CheckpointConfig(
            context_state_every_n_calls=2,
            process_checkpoint_every_n_saves=2,
        ),
    )
    runtime = PhoenixRuntime(config=config)
    if sharded:
        # The committed plan keeps the whole bookstore in one shard, so
        # the sweep installs a synthetic three-way split instead: real
        # cross-stream traffic (seller spans force the pricing tier's
        # stream, never the store tier's) is what exercises per-stream
        # watermarks and parallel shard recovery.
        runtime.install_log_plan(SHARDED_SWEEP_SHARDS)
    buyer_ids = tuple(f"buyer-{i}" for i in range(CONCURRENT_BUYERS))
    app = deploy_bookstore(
        runtime=runtime, n_stores=CONCURRENT_BUYERS, buyer_ids=buyer_ids
    )
    targets = {"grabber": app.price_grabber, "tax": app.tax_calculator,
               "seller": app.seller}
    for index, store in enumerate(app.stores):
        targets[f"store{index}"] = store

    driver_process = runtime.spawn_process("sweep-driver", machine="alpha")
    runners = [
        driver_process.create_component(ScriptRunner, args=(targets,))
        for __ in range(CONCURRENT_BUYERS)
    ]

    # Serial warmup, before the fault plane arms: touching every basket
    # in fixed order pins the seller's lazy subordinate creation order,
    # so component positions in the state capture don't depend on which
    # buyer reaches the seller first in a (crash-perturbed) schedule.
    for buyer_id in buyer_ids:
        app.seller.show_basket(buyer_id)

    retry_counts = [0] * CONCURRENT_BUYERS

    def make_session(index: int):
        runner = runners[index]
        steps = _concurrent_buyer_steps(index)

        def session() -> list:
            replies: list = []
            for step_index, (target, method, args) in enumerate(steps):
                for __ in range(MAX_ATTEMPTS):
                    try:
                        replies.append(
                            runner.step(step_index, target, method, args)
                        )
                        break
                    except (ComponentUnavailableError, ConnectionError):
                        retry_counts[index] += 1
                else:
                    raise RecoveryError(
                        f"buyer {index} step {step_index} did not complete "
                        f"within {MAX_ATTEMPTS} attempts (specs={specs!r})"
                    )
            return replies

        return session

    plane = FaultPlane(specs=tuple(specs), record=record)
    plane.bind(runtime)
    scheduler = DeterministicScheduler(
        runtime, seed=CONCURRENT_SEED if seed is None else seed
    )
    with installed(plane):
        per_session = scheduler.run(
            [make_session(i) for i in range(CONCURRENT_BUYERS)]
        )
        # In-plane drain barrier, as in :func:`_run_phoenix` (with
        # on-demand recovery, components no session touched after the
        # crash are still pending here).
        _ensure_all_recovered(runtime)

    determinism = _determinism_fingerprint(runtime)
    trace_reprs = {
        f"{process.name}{'' if index == 0 else f'@{stream.shard_id}'}": [
            repr(entry) for entry in stream.trace.entries
        ]
        for process in sorted(runtime.processes(), key=lambda p: p.name)
        for index, stream in enumerate(process.streams)
    }
    state = _capture_state(runtime)
    violations = [
        f"{process_name}: {violation.render()}"
        for process_name, violation in check_runtime(runtime)
    ]
    from ..analysis.trace_check import check_runtime_force_bounds

    violations.extend(
        f"{process_name}: {violation.render()}"
        for process_name, violation in check_runtime_force_bounds(
            runtime, _concurrent_force_bounds()
        )
    )
    violations.extend(_plan_violations(runtime))
    for process in runtime.processes():
        process.crash()
    _ensure_all_recovered(runtime)
    state_after = _capture_state(runtime)
    violations.extend(
        f"{process_name}: {violation.render()}"
        for process_name, violation in check_runtime(runtime)
    )
    return RunOutcome(
        workload=workload_name,
        replies=per_session,
        state=state,
        state_after_recover=state_after,
        journal=plane.journal,
        fired=[spec.render() for spec in plane.fired],
        violations=violations,
        retries=sum(retry_counts),
        determinism=determinism,
        trace_reprs=trace_reprs,
    )


def run_bookstore_concurrent_ondemand(
    specs: tuple[CrashSpec, ...] = (), record: bool = False
) -> RunOutcome:
    """The concurrent bookstore with incremental recovery on: background
    drain workers join the seeded interleaving, so this workload is what
    sweeps the ``recovery.drain_worker`` sites."""
    return run_bookstore_concurrent(
        specs,
        record,
        on_demand=True,
        workload_name="bookstore-concurrent-ondemand",
    )


def run_bookstore_concurrent_sharded(
    specs: tuple[CrashSpec, ...] = (), record: bool = False
) -> RunOutcome:
    """The concurrent bookstore with ``sharded_logging`` on: the server
    process hosts one log stream per shard of a synthetic three-way
    split, commits force only the stream a decision's causal target
    lives on, and recovery replays the shards as independent drains —
    sweeping the per-stream torn-tail sites and the
    ``recovery.shard.drained`` boundaries."""
    return run_bookstore_concurrent(
        specs,
        record,
        workload_name="bookstore-sharded",
        sharded=True,
    )


def run_bookstore_concurrent_pipelined(
    specs: tuple[CrashSpec, ...] = (), record: bool = False
) -> RunOutcome:
    """The concurrent bookstore with ``pipelined_commit`` on: committing
    sends gate on per-session causal watermarks instead of the global
    end of log, so this workload is what sweeps crash recovery around
    the relaxed force ordering (watermarks must die with the process —
    recovery rebuilds them from fresh appends)."""
    return run_bookstore_concurrent(
        specs,
        record,
        workload_name="bookstore-concurrent-pipelined",
        pipelined=True,
    )


# ----------------------------------------------------------------------
# orderflow
# ----------------------------------------------------------------------
ORDERFLOW_STEPS = (
    ("desk", "place_order", ("alice", "widget", 5)),
    ("desk", "place_order", ("bob", "gadget", 12)),
    ("desk", "place_order", ("alice", "gizmo", 2)),
    ("desk", "order_history", ("alice",)),
    ("desk", "place_order", ("carol", "gizmo", 100)),  # fraud reject
    ("desk", "cancel_order", ("alice", 1)),
    ("desk", "place_order", ("bob", "widget", 50)),
    ("desk", "rejected_count", ()),
    ("desk", "order_history", ("bob",)),
)


def _deploy_orderflow_workload():
    config = RuntimeConfig.optimized(
        multicall_optimization=True,
        checkpoint=CheckpointConfig(
            context_state_every_n_calls=3,
            process_checkpoint_every_n_saves=2,
        ),
    )
    runtime = PhoenixRuntime(config=config)
    app = deploy_orderflow(runtime=runtime)
    targets = {"desk": app.desk}
    return runtime, targets, "alpha"


def run_orderflow(
    specs: tuple[CrashSpec, ...] = (), record: bool = False
) -> RunOutcome:
    return _run_phoenix(
        "orderflow", _deploy_orderflow_workload, ORDERFLOW_STEPS, specs, record
    )


# ----------------------------------------------------------------------
# queued substrate
# ----------------------------------------------------------------------
QUEUED_OPS = (
    ("inc", ()),
    ("add", (5,)),
    ("inc", ()),
    ("add", (2,)),
    ("inc", ()),
)


def _queued_handler(state, request):
    state = dict(state or {})
    count = state.get("count", 0)
    if request.operation == "add":
        count += request.args[0]
    else:
        count += 1
    state["count"] = count
    ops = list(state.get("ops", ()))
    ops.append([request.operation, list(request.args)])
    state["ops"] = ops
    return state, count


class _QueuedDriver:
    """Crash-aware client for the queued substrate.

    After any injected crash it crashes-and-recovers every resource
    manager (repairing torn log tails), resolves in-doubt prepares with
    the coordinator, and then *inspects the queues* to decide whether
    the interrupted operation's transaction committed — re-submitting
    only when it provably did not.  That inspection is what makes the
    driver exactly-once, mirroring a TP monitor's recoverable requests.
    """

    def __init__(self):
        cluster = Cluster()
        machine = cluster.machine("beta")
        self.coordinator = TransactionCoordinator(machine)
        self.requests = RecoverableQueue(machine, "requests")
        self.replies = RecoverableQueue(machine, "replies")
        self.store = DurableStateStore(machine, "state")
        self.worker = StatelessWorker(
            "worker",
            self.coordinator,
            self.requests,
            self.replies,
            self.store,
            _queued_handler,
        )
        self.client = QueuedClient(
            self.coordinator, self.requests, self.replies
        )
        self.retries = 0

    def recover_all(self) -> None:
        self.coordinator.crash()
        for rm in (self.requests, self.replies, self.store):
            rm.crash()
        for rm in (self.requests, self.replies, self.store):
            rm.resolve_in_doubt(self.coordinator)

    def _request_pending(self, request_id: int) -> bool:
        return any(
            payload.get("request_id") == request_id
            for payload in self.requests.peek_payloads()
        )

    def _reply_payload(self, request_id: int):
        for payload in self.replies.peek_payloads():
            if payload.get("request_id") == request_id:
                return payload
        return None

    def call(self, operation: str, args: tuple):
        client = self.client
        request_id = client._next_request_id
        # 1. submit (one-phase commit on the request queue)
        for __ in range(MAX_ATTEMPTS):
            try:
                client.submit(operation, *args)
                break
            except CrashSignal:
                self.retries += 1
                self.recover_all()
                if self._request_pending(request_id):
                    # the commit record survived the crash
                    client._next_request_id = request_id + 1
                    break
                client._next_request_id = request_id
        else:
            raise RecoveryError(f"submit of request {request_id} looped")
        # 2. process (2PC across request queue, store, reply queue)
        for __ in range(MAX_ATTEMPTS):
            if self._reply_payload(request_id) is not None:
                break
            try:
                if not self.worker.process_one():
                    raise RecoveryError(
                        f"request {request_id} lost: queue empty with no "
                        "reply (a committed submit disappeared)"
                    )
                break
            except CrashSignal:
                self.retries += 1
                self.recover_all()
        else:
            raise RecoveryError(f"processing of request {request_id} looped")
        # 3. collect (one-phase commit on the reply queue); peek first so
        # a crash after the dequeue committed cannot lose the payload
        payload = self._reply_payload(request_id)
        if payload is None:
            raise RecoveryError(f"no reply for request {request_id}")
        for __ in range(MAX_ATTEMPTS):
            try:
                self.client.collect_reply()
                break
            except CrashSignal:
                self.retries += 1
                self.recover_all()
                if self._reply_payload(request_id) is None:
                    break  # the dequeue committed before the crash
        else:
            raise RecoveryError(f"collect of request {request_id} looped")
        return payload["reply"]

    def snapshot(self) -> dict[str, bytes]:
        return {
            "store": encode_value(
                tuple(sorted(self.store.snapshot().items()))
            ),
            "requests": encode_value(tuple(self.requests.peek_payloads())),
            "replies": encode_value(tuple(self.replies.peek_payloads())),
        }


def run_queued(
    specs: tuple[CrashSpec, ...] = (), record: bool = False
) -> RunOutcome:
    driver = _QueuedDriver()
    plane = FaultPlane(specs=tuple(specs), record=record)
    replies: list = []
    with installed(plane):
        for operation, args in QUEUED_OPS:
            replies.append(driver.call(operation, args))
    state = driver.snapshot()
    # Recover-twice idempotency for the substrate: a full crash of every
    # resource manager must rebuild identical contents from the logs.
    driver.recover_all()
    state_after = driver.snapshot()
    return RunOutcome(
        workload="queued",
        replies=replies,
        state=state,
        state_after_recover=state_after,
        journal=plane.journal,
        fired=[spec.render() for spec in plane.fired],
        violations=[],
        retries=driver.retries,
    )


#: name -> runner; the sweep's unit of work.
WORKLOADS = {
    "bookstore": run_bookstore,
    "bookstore-ondemand": run_bookstore_ondemand,
    "bookstore-concurrent": run_bookstore_concurrent,
    "bookstore-concurrent-ondemand": run_bookstore_concurrent_ondemand,
    "bookstore-concurrent-pipelined": run_bookstore_concurrent_pipelined,
    "bookstore-sharded": run_bookstore_concurrent_sharded,
    "orderflow": run_orderflow,
    "queued": run_queued,
}
