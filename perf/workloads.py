"""The five crash-terminated workloads.

Every workload has the same shape — set-up, a steady phase cut into
blocks of timed calls, a crash, the first post-crash reply, full
recovery, and an exactly-once check — and drives ``repro`` only through
component proxies and the public runtime entry points.  The seed feeds
the generated inputs (keywords, ping payloads and targets, scheduler
interleavings); ``repro`` receives nothing but the calls.

Every external call goes through :class:`CallSite`, the driver's call
site: it reads the simulated clock before and after the call (the
``sim_call_ms`` samples) and, in a traced run, opens the root span.
Replies are checked against closed-form expectations as they arrive
(one equality per call, inside the timed blocks); a miss is counted,
never raised, so ``failed_share`` is measured rather than assumed.
"""

from __future__ import annotations

import contextlib
import dataclasses
import random

from repro import (
    CheckpointConfig,
    PersistentComponent,
    PhoenixRuntime,
    RuntimeConfig,
    persistent,
)
from repro.apps.bookstore import (
    BookBuyer,
    OptimizationLevel,
    deploy_bookstore,
    make_catalog,
)
from repro.concurrency import DeterministicScheduler


# ----------------------------------------------------------------------
# the driver's call site
# ----------------------------------------------------------------------
class CallSite:
    """Where the benchmark's driver calls into the program.

    ``attempted``/``failed`` count every external call of the run;
    ``samples`` holds the simulated latency of the calls made while
    ``sampling`` is on (the steady phase).  Concurrent sessions share
    one call site: exactly one session thread runs at any instant and
    list appends are atomic, so no lock is needed.
    """

    def __init__(self, recorder=None):
        self.recorder = recorder
        self.clock = None  # set by the workload once its runtime exists
        self.samples: list[float] = []
        self.sampling = False
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def call(self, expected, method, *args):
        """One external call; ``expected`` is the closed-form reply
        (``None`` when the caller checks the reply itself)."""
        clock = self.clock
        recorder = self.recorder
        self.attempted += 1
        if recorder is not None:
            recorder.begin_root()
        before = clock.now
        try:
            reply = method(*args)
        except Exception as exc:  # a call that raises is a failed call
            self.fail(f"{method!r}{args!r} raised {exc!r}")
            reply = None
            expected = None
        finally:
            elapsed = clock.now - before
            if recorder is not None:
                recorder.end_root()
        if self.sampling:
            self.samples.append(elapsed)
        if expected is not None and reply != expected:
            self.fail(f"{method!r}{args!r} -> {reply!r}, want {expected!r}")
        return reply

    @contextlib.contextmanager
    def root(self, name: str):
        """A driver action that is not a call (the crash, the recovery
        barrier): a root span in a traced run, nothing otherwise."""
        recorder = self.recorder
        if recorder is None:
            yield
            return
        recorder.begin_root(name)
        try:
            yield
        finally:
            recorder.end_root()

    def fail(self, why: str) -> None:
        self.failed += 1
        if len(self.failures) < 20:
            self.failures.append(why)

    def miss(self, why: str) -> None:
        """A failed check that is not itself a call (an iteration's
        result, a post-recovery invariant): one failed attempt."""
        self.attempted += 1
        self.fail(why)


class _TimedProxy:
    """A component proxy whose every method call goes through the call
    site — lets :class:`BookBuyer` drive the paper's op mix unchanged
    while the benchmark times each of its eleven external calls."""

    def __init__(self, proxy, site: CallSite):
        self._proxy = proxy
        self._site = site

    def __getattr__(self, name: str):
        method = getattr(self._proxy, name)
        site = self._site
        return lambda *args: site.call(None, method, *args)


class Workload:
    """Common shape; subclasses fill in the phases."""

    name = ""
    #: Steady-phase blocks (the unit ``wall_us_per_call`` is a median of).
    blocks = 10
    #: Replayed calls the first post-crash reply actually needs (only
    #: on-demand recovery can replay fewer than everything).
    useful_replays = 0

    def __init__(self, seed: int, scale: float, site: CallSite):
        self.seed = seed
        self.scale = scale
        self.site = site
        self.rng = random.Random(seed)
        self.runtime: PhoenixRuntime | None = None
        #: Server processes: the ones whose logs are summed and that the
        #: crash kills.
        self.processes: list = []

    def sized(self, full: int, floor: int = 1) -> int:
        return max(floor, round(full * self.scale))

    def attach(self, runtime: PhoenixRuntime) -> None:
        self.runtime = runtime
        self.site.clock = runtime.clock
        if self.site.recorder is not None:
            self.site.recorder.clock = runtime.clock

    # phases ------------------------------------------------------------
    def setup(self) -> None:
        raise NotImplementedError

    def steady_block(self, index: int) -> int:
        """Run block ``index``; return the number of calls it made."""
        raise NotImplementedError

    def before_crash(self) -> None:
        """Untimed work that leaves state for the exactly-once check."""

    def crash(self) -> None:
        with self.site.root("driver.crash"):
            for process in self.processes:
                self.runtime.crash_process(process)

    def first_reply(self) -> None:
        raise NotImplementedError

    def recover(self) -> None:
        with self.site.root("driver.recover"):
            for process in self.processes:
                self.runtime.ensure_recovered(process)

    def verify(self) -> None:
        """Post-recovery: the next calls must return exactly what an
        uncrashed run would."""
        raise NotImplementedError


# ----------------------------------------------------------------------
# bookstore (serial and checkpointed)
# ----------------------------------------------------------------------
_SUBJECTS = (
    "recovery", "logging", "transactions", "indexing", "replication",
    "checkpointing", "concurrency", "durability", "serialization",
    "messaging",
)
_WA_TAX = 0.095


def _expected_iteration(keyword: str) -> dict:
    """Closed form of one op-mix iteration over two default stores:
    the buyer adds the cheapest matching title of each store."""
    added, hits = [], 0
    for store in range(2):
        matches = [
            (title, price)
            for title, price in make_catalog(store, 24).items()
            if keyword in title.lower()
        ]
        hits += len(matches)
        # BookBuyer keeps the first of equally cheap titles in title order.
        title, price = min(matches, key=lambda hit: (hit[1], hit[0]))
        added.append((store, title, price))
    subtotal = round(sum(price for __, __, price in added), 2)
    total = round(subtotal + round(subtotal * _WA_TAX, 2), 2)
    return {
        "hits": hits,
        "added": added,
        "basket_size": 2,
        "subtotal": subtotal,
        "total": total,
        "removed": 2,
    }


class _Bookstore(Workload):
    """Table 8's op mix: eleven external calls per iteration, the
    keyword of each iteration drawn from the seeded RNG."""

    level = OptimizationLevel.SPECIALIZED
    config: RuntimeConfig | None = None
    iterations_per_block = 400
    warmup_iterations = 20
    calls_per_iteration = 11

    def setup(self) -> None:
        runtime = (
            PhoenixRuntime(config=self.config)
            if self.config is not None
            else None
        )
        app = deploy_bookstore(level=self.level, runtime=runtime)
        self.attach(app.runtime)
        self.app = app
        self.processes = [app.server_process]
        site = self.site
        timed = dataclasses.replace(
            app,
            stores=[_TimedProxy(store, site) for store in app.stores],
            price_grabber=_TimedProxy(app.price_grabber, site),
            tax_calculator=_TimedProxy(app.tax_calculator, site),
            seller=_TimedProxy(app.seller, site),
        )
        self.buyer = BookBuyer(timed)
        self.expected = {k: _expected_iteration(k) for k in _SUBJECTS}
        self.per_block = self.sized(self.iterations_per_block, floor=4)
        self.iterate(self.sized(self.warmup_iterations, floor=2))

    def iterate(self, count: int) -> int:
        buyer, rng, expected, site = (
            self.buyer, self.rng, self.expected, self.site,
        )
        for __ in range(count):
            keyword = rng.choice(_SUBJECTS)
            before = site.attempted
            try:
                outcome = buyer.run_iteration(keyword)
            except Exception as exc:
                site.miss(f"iteration {keyword!r} raised {exc!r}")
                continue
            made = site.attempted - before
            if outcome != expected[keyword] or made != self.calls_per_iteration:
                site.miss(
                    f"iteration {keyword!r} ({made} calls) -> {outcome!r}"
                )
        return count * self.calls_per_iteration

    def steady_block(self, index: int) -> int:
        return self.iterate(self.per_block)

    def before_crash(self) -> None:
        """Half an iteration: both books bought and in the basket, so
        the first post-crash reply proves nothing was lost or doubled."""
        app, call = self.app, self.site.call
        self.keyword = self.rng.choice(_SUBJECTS)
        want = self.expected[self.keyword]
        call(None, app.price_grabber.search, self.keyword)
        for size, (store, title, price) in enumerate(want["added"], start=1):
            call(price, app.stores[store].price, title)
            call(price, app.stores[store].buy, title)
            call(size, app.seller.add_to_basket, "buyer-1", store, title, price)

    def first_reply(self) -> None:
        want = [tuple(item) for item in self.expected[self.keyword]["added"]]
        reply = self.site.call(None, self.app.seller.show_basket, "buyer-1")
        got = None if reply is None else [tuple(item) for item in reply]
        if got != want:
            self.site.fail(f"post-crash basket {reply!r}, want {want!r}")

    def verify(self) -> None:
        app, call = self.app, self.site.call
        want = self.expected[self.keyword]
        call(want["subtotal"], app.seller.basket_subtotal, "buyer-1")
        call(want["removed"], app.seller.clear_basket, "buyer-1")
        call(0, app.seller.clear_basket, "buyer-1")
        self.iterate(2)


class SerialBookstore(_Bookstore):
    name = "serial-bookstore"


class CheckpointedBookstore(_Bookstore):
    name = "checkpointed-bookstore"
    level = OptimizationLevel.OPTIMIZED_PERSISTENT
    config = OptimizationLevel.OPTIMIZED_PERSISTENT.config.with_overrides(
        checkpoint=CheckpointConfig(
            context_state_every_n_calls=400,
            process_checkpoint_every_n_saves=4,
            truncate_log=True,
        )
    )
    iterations_per_block = 150


# ----------------------------------------------------------------------
# the benchmark's own components
# ----------------------------------------------------------------------
@persistent
class Ledger(PersistentComponent):
    """Back tier: counts the calls it has served."""

    def __init__(self):
        self.count = 0

    def record(self) -> int:
        self.count += 1
        return self.count


@persistent
class Desk(PersistentComponent):
    """Front tier: counts, then calls its session's ledger — the
    persistent→persistent hop is the Algorithm-2 committing send."""

    def __init__(self, ledger):
        self.ledger = ledger
        self.count = 0

    def record(self) -> int:
        self.count += 1
        return self.ledger.record()


# Stream routing is by component class name, so a two-shard split per
# tier needs two (otherwise identical) classes per tier.
@persistent
class DeskA(Desk):
    pass


@persistent
class DeskB(Desk):
    pass


@persistent
class LedgerA(Ledger):
    pass


@persistent
class LedgerB(Ledger):
    pass


@persistent
class Pinger(PersistentComponent):
    """Single-hop server: returns how many pings it has served, so a
    lost or doubled replay shows in the very next reply."""

    def __init__(self):
        self.calls = 0

    def ping(self, payload) -> int:
        self.calls += 1
        return self.calls


# ----------------------------------------------------------------------
# concurrent sessions (causal and sharded)
# ----------------------------------------------------------------------
FRONT, BACK = "perf-front", "perf-back"

SHARD_PLAN = (
    {"id": "front-a", "processes": [FRONT], "components": ["DeskA"]},
    {"id": "front-b", "processes": [FRONT], "components": ["DeskB"]},
    {"id": "back-a", "processes": [BACK], "components": ["LedgerA"]},
    {"id": "back-b", "processes": [BACK], "components": ["LedgerB"]},
)


class _Concurrent(Workload):
    """N closed-loop sessions, one Desk → Ledger pair each, all on two
    shared server processes; one steady block is one scheduler round."""

    config: RuntimeConfig
    pairs: tuple = ((Desk, Ledger),)
    plan = None
    sessions = 64
    calls_per_round = 12
    warmup_calls = 1

    def setup(self) -> None:
        runtime = PhoenixRuntime(config=self.config)
        if self.plan is not None:
            runtime.install_log_plan(self.plan)
        runtime.external_client_machine = "alpha"
        self.attach(runtime)
        front = runtime.spawn_process(FRONT, machine="beta")
        back = runtime.spawn_process(BACK, machine="beta")
        self.processes = [front, back]
        self.per_round = self.sized(self.calls_per_round)
        pairs = self.pairs
        self.desks = [
            front.create_component(
                pairs[i % len(pairs)][0],
                args=(back.create_component(pairs[i % len(pairs)][1]),),
            )
            for i in range(self.sessions)
        ]
        #: Calls each session has completed (the ledger's closed form).
        self.done = [0] * self.sessions
        self.round(self.warmup_calls, self.seed - 1)

    def round(self, calls: int, seed: int) -> int:
        call, done = self.site.call, self.done
        recorder = self.site.recorder

        def session(index: int):
            record = self.desks[index].record

            def body() -> None:
                if recorder is not None:
                    recorder.set_session(index)
                for __ in range(calls):
                    done[index] += 1
                    call(done[index], record)

            return body

        scheduler = DeterministicScheduler(self.runtime, seed=seed)
        scheduler.run([session(i) for i in range(self.sessions)])
        return calls * self.sessions

    def steady_block(self, index: int) -> int:
        return self.round(self.per_round, self.seed + index)

    def first_reply(self) -> None:
        self.done[0] += 1
        self.site.call(self.done[0], self.desks[0].record)

    def verify(self) -> None:
        for index, desk in enumerate(self.desks):
            self.done[index] += 1
            self.site.call(self.done[index], desk.record)


class ConcurrentCausal(_Concurrent):
    name = "concurrent-causal"
    config = RuntimeConfig.optimized(group_commit=True, pipelined_commit=True)


class ConcurrentSharded(_Concurrent):
    name = "concurrent-sharded"
    config = RuntimeConfig.optimized(group_commit=True, sharded_logging=True)
    pairs = ((DeskA, LedgerA), (DeskB, LedgerB))
    plan = SHARD_PLAN


# ----------------------------------------------------------------------
# on-demand recovery of a long log
# ----------------------------------------------------------------------
class RecoveryOnDemand(Workload):
    """One hot and eight bulk components; filling the log *is* the
    steady phase.  After the crash the first reply needs only the hot
    component's 100-call chain; the drain replays the rest."""

    name = "recovery-ondemand-50k"
    hot_calls = 100
    bulk_components = 8
    calls_per_block = 5_000

    def setup(self) -> None:
        runtime = PhoenixRuntime(
            config=RuntimeConfig.optimized(on_demand_recovery=True)
        )
        runtime.external_client_machine = "alpha"
        self.attach(runtime)
        process = runtime.spawn_process("perf-recovery", machine="beta")
        self.processes = [process]
        self.hot = process.create_component(Pinger)
        self.bulk = [
            process.create_component(Pinger)
            for __ in range(self.bulk_components)
        ]
        self.hot_done = 0
        self.bulk_done = [0] * self.bulk_components
        self.per_block = self.sized(self.calls_per_block, floor=50)
        self.hot_in_first_block = min(self.hot_calls, self.per_block)
        self.useful_replays = self.hot_in_first_block

    def payload(self) -> str:
        """A seeded argument of 0–24 characters: record sizes (and so
        disk transfer times) are an input, not a constant."""
        rng = self.rng
        return "%x" % rng.getrandbits(4 * rng.randrange(1, 25))

    def steady_block(self, index: int) -> int:
        call, rng, done = self.site.call, self.rng, self.bulk_done
        count = self.per_block
        if index == 0:
            for __ in range(self.hot_in_first_block):
                self.hot_done += 1
                call(self.hot_done, self.hot.ping, self.payload())
            count -= self.hot_in_first_block
        for __ in range(count):
            target = rng.randrange(self.bulk_components)
            done[target] += 1
            call(done[target], self.bulk[target].ping, self.payload())
        return self.per_block

    def first_reply(self) -> None:
        self.hot_done += 1
        self.site.call(self.hot_done, self.hot.ping, self.payload())

    def verify(self) -> None:
        if self.processes[0].pending_recovery is not None:
            self.site.miss("replay backlog left after ensure_recovered")
        self.first_reply()
        for target, component in enumerate(self.bulk):
            self.bulk_done[target] += 1
            self.site.call(
                self.bulk_done[target], component.ping, self.payload()
            )


WORKLOADS = {
    cls.name: cls
    for cls in (
        SerialBookstore,
        ConcurrentCausal,
        ConcurrentSharded,
        RecoveryOnDemand,
        CheckpointedBookstore,
    )
}
