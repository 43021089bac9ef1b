"""The workload catalogue: every leg the sweep, explorer and gates run.

A :class:`Workload` is one application script — deploy, one step script
per session, an optional warm-up — written once against a base
:class:`RuntimeConfig`.  A *leg* is a workload under a flag set
(``RuntimeConfig`` overrides), as the paper's Table 8 runs one bookstore
under successive logging configurations.  The catalogue is a table of
``(workload, flags)`` rows (:data:`WORKLOADS` here, ``EXPLORE_WORKLOADS``
in :mod:`repro.concurrency.explore`) and :func:`run` is the one driver.

A run is deterministic: fault-free (the *golden* run, with a recording
plane that journals every crash site) or armed with crash specs, it
runs to completion, because sessions retry through injected crashes
the way the paper's external clients do.  The external client's retry
is the paper's window of vulnerability (external call IDs cannot be
duplicate-detected), so application sessions call through a
:class:`ScriptRunner`: a persistent component on the client machine
that memoizes each step's result under its step index, while crashes
of the server tier are masked by ordinary persistent-caller duplicate
detection.  With that one idempotency layer at the edge, every injected
crash must leave replies and component state byte-identical to the
golden run — anything else is a recovery bug.

The ``queued`` leg drives the TP-monitor substrate (recoverable queues
+ durable state store + 2PC), a different substrate with its own
runner: its client resolves in-doubt transactions after every crash,
checking queue contents to decide whether an interrupted operation
committed or must be resubmitted.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cache
from typing import Callable

from ..analysis.trace_check import check_runtime, check_runtime_force_bounds
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

#: Attempts before a session declares a schedule unrecoverable.  Specs
#: are one-shot, so anything above a handful means recovery is looping.
MAX_ATTEMPTS = 30

#: The scheduler seed of every multi-session run unless one is given.
#: Identical seeds make the pre-crash schedule of an armed run identical
#: to the golden run, which is what lets one-shot specs fire at the
#: recorded hit.
CONCURRENT_SEED = 5824


@dataclass
class RunOutcome:
    """Everything one leg's run shows the sweep, explorer and gates."""

    workload: str
    #: One reply list per session, in session order.
    replies: list = field(default_factory=list)
    state: dict[str, bytes] = field(default_factory=dict)
    state_after_recover: dict[str, bytes] = field(default_factory=dict)
    journal: list[SiteHit] = field(default_factory=list)
    fired: list[str] = field(default_factory=list)
    violations: list[str] = field(default_factory=list)
    retries: int = 0
    #: Fingerprint of the run's durable artifacts: each stream's stable
    #: log bytes (``log:<stream>``) and trace events (``trace:<stream>``,
    #: what the determinism gate diffs for the *first divergent trace
    #: event*), and the final clock.  Two same-seed runs must produce
    #: equal fingerprints.  NOT compared between golden and crashed
    #: runs — a crash legally changes the schedule from the injection
    #: point on.
    determinism: dict[str, object] = field(default_factory=dict)
    #: The scheduling steps a recording policy observed (explorer runs).
    steps: list = field(default_factory=list)
    #: The exception that escaped the run: the sweep reports it as an
    #: incomplete workload, the explorer as a counterexample.
    exception: BaseException | None = field(default=None, repr=False)

    @property
    def choices(self) -> list[int]:
        return [step.chosen for step in self.steps]

    @property
    def error(self) -> str | None:
        exc = self.exception
        return None if exc is None else f"{type(exc).__name__}: {exc}"

    def raise_error(self) -> RunOutcome:
        """Re-raise the exception that escaped the run, if any, and
        otherwise return the outcome: for callers that need the run to
        have completed."""
        if self.exception is not None:
            raise self.exception
        return self


@dataclass(frozen=True)
class Workload:
    """One application script, runnable under any flag set."""

    name: str
    config: RuntimeConfig
    #: ``deploy(runtime, sessions)`` -> step target name -> proxy.
    deploy: Callable[[PhoenixRuntime, int], dict]
    #: Session index -> that session's steps, ``(target, method, args)``.
    script: Callable[[int], tuple]
    sessions: int = 1
    #: ``warmup(targets, sessions)``, run before the fault plane arms.
    warmup: Callable[[dict, int], None] | None = None
    #: Synthetic shard split installed when the flags turn on
    #: ``sharded_logging``; accepted verbatim by
    #: :func:`repro.log.sharding.plan_shards`.
    shards: tuple | None = None
    #: Sessions call through memoizing :class:`ScriptRunner`\ s.  False
    #: calls targets directly: a shared driver process would put every
    #: step in every DPOR footprint.
    runners: bool = True


# ----------------------------------------------------------------------
# the driver component
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
        table = process.incarnation.context_table
        for context_id in sorted(table):
            context = table[context_id].context_ref
            if not context.is_phoenix:
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


@cache
def _force_bounds():
    """Static force bounds (TRC106), built once per process: building
    the whole-program model is the expensive part."""
    from pathlib import Path

    from ..analysis.infer import build_cost_model
    from ..analysis.model import ProgramModel, iter_py_files

    apps = Path(__file__).resolve().parents[1] / "apps"
    model = ProgramModel.from_paths(list(iter_py_files([apps])))
    return build_cost_model(model).force_bounds()


def _violations(runtime: PhoenixRuntime) -> list[str]:
    """TRC101-109: the trace/log invariants, the static force bounds,
    and every committed LogPlan's force budgets (silent when no plan
    file is present, or ``REPRO_LOG_PLANS`` is set empty)."""
    from ..analysis.plan import check_runtime_plan, committed_plans

    found = list(check_runtime(runtime))
    found.extend(check_runtime_force_bounds(runtime, _force_bounds()))
    for plan in committed_plans():
        found.extend(check_runtime_plan(runtime, plan))
    return [f"{name}: {violation.render()}" for name, violation in found]


def _fingerprint(runtime: PhoenixRuntime, outcome: RunOutcome) -> None:
    """Per log stream, processes in name order: stream 0 keeps the bare
    process name, extra shard streams get ``@shard-id`` keys.  Trace
    events are immutable tuples of plain values, so the snapshot
    compares by value like bytes would."""
    for process in sorted(runtime.processes(), key=lambda p: p.name):
        for index, stream in enumerate(process.streams):
            key = process.name if index == 0 else (
                f"{process.name}@{stream.shard_id}"
            )
            outcome.determinism[f"log:{key}"] = stream.log.stable_bytes()
            outcome.determinism[f"trace:{key}"] = tuple(stream.trace.entries)
    outcome.determinism["clock"] = runtime.clock.now


def _recover_twice(runtime: PhoenixRuntime, outcome: RunOutcome) -> None:
    """Recover-twice idempotency: crash every process and recover again
    — replay must regenerate byte-identical state, and the second
    recovery must tolerate whatever the first one left on the logs."""
    outcome.state = _capture_state(runtime)
    for process in runtime.processes():
        process.crash()
    _ensure_all_recovered(runtime)
    outcome.state_after_recover = _capture_state(runtime)
    outcome.violations.extend(
        f"{process_name}: {violation.render()}"
        for process_name, violation in check_runtime(runtime)
    )
    _check_recover_twice(outcome)


def _check_recover_twice(outcome: RunOutcome) -> None:
    if outcome.state_after_recover != outcome.state:
        diff = dict_diff(outcome.state_after_recover, outcome.state)
        outcome.violations.append(f"recover-twice state diverged: {diff}")


def dict_diff(got: dict, want: dict) -> str:
    missing = sorted(set(want) - set(got))
    extra = sorted(set(got) - set(want))
    changed = sorted(k for k in set(got) & set(want) if got[k] != want[k])
    parts = []
    if missing:
        parts.append(f"missing {missing}")
    if extra:
        parts.append(f"extra {extra}")
    if changed:
        parts.append(f"changed {changed}")
    return "; ".join(parts) or "?"


def run(
    workload: Workload,
    flags: dict | None = None,
    specs: tuple[CrashSpec, ...] = (),
    record: bool = False,
    seed: int | None = None,
    policy=None,
    sessions: int | None = None,
) -> RunOutcome:
    """Run one leg — ``workload`` under ``flags`` — and apply the oracle.

    Deploy, create the driver process and runners, warm up, arm the
    fault plane (that order is fixed: the disk's spindle phase is a
    function of simulated time), then run the sessions: one on the main
    thread under the serial scheduler, more under a
    :class:`DeterministicScheduler` drawing from ``seed`` (default
    :data:`CONCURRENT_SEED`) or driven by ``policy``.  The on-demand
    drain runs inside the plane, so a recording run journals its
    ``recovery.*`` crossings and composite specs can fire mid-drain.

    The oracle is the same for every leg: TRC101-109, the determinism
    fingerprint, the state capture and recover-twice.  An exception
    escaping the run is returned in the outcome, not raised; callers
    that need a completed run call :meth:`RunOutcome.raise_error`.
    """
    n = workload.sessions if sessions is None else sessions
    runtime = PhoenixRuntime(
        config=workload.config.with_overrides(**(flags or {}))
    )
    if workload.shards is not None and runtime.config.sharded_logging:
        runtime.install_log_plan(workload.shards)
    targets = workload.deploy(runtime, n)
    if workload.runners:
        driver = runtime.spawn_process("sweep-driver", machine="alpha")
        runners = [
            driver.create_component(ScriptRunner, args=(targets,))
            for __ in range(n)
        ]

        def call(session, index, target, method, args):
            return runners[session].step(index, target, method, args)

    else:

        def call(session, index, target, method, args):
            return getattr(targets[target], method)(*args)

    if workload.warmup is not None:
        workload.warmup(targets, n)

    retries = [0] * n

    def make_session(session: int):
        steps = workload.script(session)

        def run_session() -> list:
            replies: list = []
            for index, (target, method, args) in enumerate(steps):
                for __ in range(MAX_ATTEMPTS):
                    try:
                        replies.append(call(session, index, target, method, args))
                        break
                    except (ComponentUnavailableError, ConnectionError):
                        retries[session] += 1
                else:
                    raise RecoveryError(
                        f"{workload.name} session {session} step {index} did "
                        f"not complete within {MAX_ATTEMPTS} attempts "
                        f"(specs={specs!r})"
                    )
            return replies

        return run_session

    plane = FaultPlane(specs=tuple(specs), record=record)
    plane.bind(runtime)
    outcome = RunOutcome(workload.name)
    with installed(plane):
        try:
            if n == 1 and policy is None:
                outcome.replies = [make_session(0)()]
            else:
                from ..concurrency import DeterministicScheduler

                scheduler = DeterministicScheduler(
                    runtime,
                    seed=CONCURRENT_SEED if seed is None else seed,
                    policy=policy,
                )
                outcome.replies = scheduler.run(
                    [make_session(i) for i in range(n)]
                )
            _ensure_all_recovered(runtime)
        except (Exception, CrashSignal) as exc:
            outcome.exception = exc
    outcome.journal = plane.journal
    outcome.fired = [spec.render() for spec in plane.fired]
    outcome.retries = sum(retries)
    # Non-recording policies (the seeded default) have no step log.
    outcome.steps = list(getattr(policy, "steps", ()))
    _fingerprint(runtime, outcome)
    outcome.violations = _violations(runtime)
    if outcome.error is None:
        try:
            _recover_twice(runtime, outcome)
        except (Exception, CrashSignal) as exc:
            outcome.exception = exc
    return outcome


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


def _deploy_bookstore(runtime: PhoenixRuntime, sessions: int) -> dict:
    app = deploy_bookstore(runtime=runtime)
    return {
        "store0": app.stores[0],
        "store1": app.stores[1],
        "grabber": app.price_grabber,
        "tax": app.tax_calculator,
        "seller": app.seller,
    }


#: One buyer, twelve steps, with state saves, process checkpoints and
#: log truncation on.
BOOKSTORE = Workload(
    name="bookstore",
    config=RuntimeConfig.optimized(
        checkpoint=CheckpointConfig(
            context_state_every_n_calls=2,
            process_checkpoint_every_n_saves=2,
            truncate_log=True,
        )
    ),
    deploy=_deploy_bookstore,
    script=lambda session: BOOKSTORE_STEPS,
)


# ----------------------------------------------------------------------
# bookstore buyers (deterministic scheduler, N interleaved sessions)
# ----------------------------------------------------------------------
def _buyer_ids(sessions: int) -> tuple:
    return tuple(f"buyer-{i}" for i in range(sessions))


def _deploy_buyers(runtime: PhoenixRuntime, sessions: int) -> dict:
    app = deploy_bookstore(
        runtime=runtime, n_stores=sessions, buyer_ids=_buyer_ids(sessions)
    )
    targets = {"grabber": app.price_grabber, "tax": app.tax_calculator,
               "seller": app.seller}
    for index, store in enumerate(app.stores):
        targets[f"store{index}"] = store
    return targets


def _buyer_steps(index: int) -> tuple:
    # Buyer i shops only at store i, so per-session replies and
    # component state are independent of the interleaving and
    # byte-comparable against the golden run.
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


def _touch_baskets(targets: dict, sessions: int) -> None:
    # Touching every basket in fixed order pins the seller's lazy
    # subordinate creation order, so component positions in the state
    # capture don't depend on which buyer reaches the seller first in a
    # (crash-perturbed) schedule.
    for buyer_id in _buyer_ids(sessions):
        targets["seller"].show_basket(buyer_id)


#: The committed plan hosts the whole bookstore on one shard, which
#: would leave the extra streams idle, so sharded legs install this
#: three-way split instead: real cross-stream traffic (seller spans
#: force the pricing tier's stream, never the store tier's) is what
#: exercises per-stream watermarks and parallel shard recovery.
#: Unlisted components (the driver's runners, checkpoint control
#: records) stay on stream 0.
BUYER_SHARDS = tuple(
    {"id": shard, "processes": ["bookstore-app"], "components": classes}
    for shard, classes in (
        ("store-tier", ["Bookstore"]),
        ("seller-tier", [
            "BookSeller", "BookSellerRemoteBaskets", "BasketManager",
            "BasketManagerPersistent", "ShoppingBasket",
            "ShoppingBasketPersistent",
        ]),
        ("pricing-tier", [
            "PriceGrabber", "PriceGrabberPersistent", "TaxCalculator",
            "TaxCalculatorPersistent",
        ]),
    )
)

#: Four interleaved buyers under group commit, each driving its own
#: runner (all runners share one driver process, so its log interleaves
#: too).
BOOKSTORE_BUYERS = Workload(
    name="bookstore-buyers",
    config=RuntimeConfig.optimized(
        group_commit=True,
        checkpoint=CheckpointConfig(
            context_state_every_n_calls=2,
            process_checkpoint_every_n_saves=2,
        ),
    ),
    deploy=_deploy_buyers,
    script=_buyer_steps,
    sessions=4,
    warmup=_touch_baskets,
    shards=BUYER_SHARDS,
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

ORDERFLOW = Workload(
    name="orderflow",
    config=RuntimeConfig.optimized(
        multicall_optimization=True,
        checkpoint=CheckpointConfig(
            context_state_every_n_calls=3,
            process_checkpoint_every_n_saves=2,
        ),
    ),
    deploy=lambda runtime, sessions: {
        "desk": deploy_orderflow(runtime=runtime).desk
    },
    script=lambda session: ORDERFLOW_STEPS,
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
    outcome = RunOutcome("queued", replies=[replies])  # one session
    try:
        with installed(plane):
            for operation, args in QUEUED_OPS:
                replies.append(driver.call(operation, args))
        outcome.state = driver.snapshot()
        # Recover-twice idempotency for the substrate: a full crash of
        # every resource manager must rebuild identical contents from
        # the logs.
        driver.recover_all()
        outcome.state_after_recover = driver.snapshot()
    except (Exception, CrashSignal) as exc:
        outcome.exception = exc
    else:
        _check_recover_twice(outcome)
    outcome.journal = plane.journal
    outcome.fired = [spec.render() for spec in plane.fired]
    outcome.retries = driver.retries
    return outcome


#: The sweep's Phoenix legs: name -> ``(workload, flags)``.
PHOENIX_LEGS: dict[str, tuple[Workload, dict]] = {
    "bookstore": (BOOKSTORE, {}),
    # incremental recovery: a crashed server is re-admitted after
    # analysis, the steps' own deliveries trigger lazy per-component
    # replay, and the post-step barrier drains the rest
    "bookstore-ondemand": (BOOKSTORE, {"on_demand_recovery": True}),
    "bookstore-concurrent": (BOOKSTORE_BUYERS, {}),
    # background drain sessions join the seeded interleaving: the
    # ``recovery.drain_worker`` sites and a ``recovery.shard`` yield
    # after each drained component
    "bookstore-concurrent-ondemand": (
        BOOKSTORE_BUYERS, {"on_demand_recovery": True}
    ),
    # committing sends gate on per-session causal watermarks, which
    # must die with the process (recovery rebuilds them)
    "bookstore-concurrent-pipelined": (
        BOOKSTORE_BUYERS, {"pipelined_commit": True}
    ),
    # one log stream per shard of BUYER_SHARDS: per-stream torn tails,
    # one drain session per stream with pending components, and the
    # ``recovery.shard.drained`` boundaries
    "bookstore-sharded": (BOOKSTORE_BUYERS, {"sharded_logging": True}),
    "orderflow": (ORDERFLOW, {}),
}

#: Every sweep leg: the Phoenix rows, then the queued substrate, which
#: has its own runner.
WORKLOADS = {**PHOENIX_LEGS, "queued": run_queued}


def run_leg(
    name: str, specs: tuple[CrashSpec, ...] = (), record: bool = False
) -> RunOutcome:
    """Run the sweep leg called ``name`` (see :func:`run`)."""
    if name in PHOENIX_LEGS:
        return run(*PHOENIX_LEGS[name], specs=specs, record=record)
    return WORKLOADS[name](specs, record)
