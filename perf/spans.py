"""Span recorder: per-layer self time on both clocks, from outside.

:data:`BOUNDARIES` declares the public entry points of each ``repro``
layer.  A :class:`Recorder` replaces each with a wrapper that opens a
span on entry and closes it on exit; :meth:`Recorder.uninstall` puts the
original objects back.  Nothing under ``src/`` is edited, and the
wrappers read the clocks but never move them, so a traced run produces
the same simulated figures as an untraced one.

Two ledgers, two attribution rules:

* **Simulated self time** is per call tree: a span's duration on the
  simulated clock minus the durations of its children on the same
  thread.  Summed over a root's tree it equals the root's duration, so
  per-layer simulated self times add up to ``sim_call_ms`` exactly —
  including, for a concurrent session, the time it spent parked while
  other sessions ran (charged to the scheduler span it parked in).
* **Wall self time** is one global timeline: the interval between two
  consecutive span events is charged to the span that was on top when
  the interval began.  The scheduler's turnstile keeps exactly one
  thread runnable, so this partitions the run's wall time with no
  double counting, and the cost of handing the CPU from one session to
  the next lands on the ``yield_point``/``block_until`` span that gave
  it up — not on every parked session at once.

Aggregates are kept per phase and per span name; full span records
(id, parent, root, name, wall start/end ns, sim start/end ms, session)
are kept in memory for the first ``KEEP_ROOTS`` roots of each phase (up
to ``KEEP_SPANS`` in all) and written as JSON lines when the run ends.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import threading
from array import array
from time import perf_counter_ns

#: (layer, owner, attributes).  ``owner`` is ``module:Class`` for methods
#: and a bare module for functions; a function is patched in every loaded
#: ``repro`` module that holds a reference to it (``from x import f``
#: binds the importer's own name).  Public names only.
BOUNDARIES = (
    ("core.runtime", "repro.core.runtime:PhoenixRuntime",
     ("invoke_method", "crash_process", "ensure_recovered")),
    ("core.swizzle", "repro.core.swizzle",
     ("swizzle_for_message", "unswizzle_for_message")),
    ("core.interceptor", "repro.core.interceptor:MessageInterceptor",
     ("handle_incoming", "prepare_outgoing", "on_outgoing",
      "on_reply_received", "invoke_for_replay")),
    ("core.policy", "repro.core.policy:LoggingPolicy",
     ("on_incoming_call", "on_reply_send", "on_outgoing_call",
      "on_reply_from_outgoing")),
    ("core.process", "repro.core.process:AppProcess",
     ("log_append", "log_force", "save_context_state",
      "take_process_checkpoint", "collect_log_garbage")),
    ("log.log_manager", "repro.log.log_manager:LogManager",
     ("append", "force", "append_and_force", "scan", "read_record",
      "component_chains", "repair_tail", "truncate_prefix",
      "write_well_known_lsn")),
    ("log.records", "repro.log.records",
     ("encode_record_into", "decode_record")),
    ("sim.stable_store", "repro.sim.stable_store:StableFile",
     ("append", "read", "read_range", "trim_front", "overwrite")),
    ("sim.disk", "repro.sim.disk:RotationalDisk", ("write",)),
    ("sim.network", "repro.sim.network:Network", ("transmit",)),
    ("checkpoint", "repro.checkpoint.state_record",
     ("save_context_state", "restore_context_state")),
    ("checkpoint", "repro.checkpoint.process_checkpoint",
     ("take_process_checkpoint",)),
    ("recovery.recovery_manager",
     "repro.recovery.recovery_manager:RecoveryManager",
     ("recover", "drain_context")),
    ("recovery.recovery_manager", "repro.recovery.recovery_manager",
     ("recover_context",)),
    ("recovery.incremental", "repro.recovery.incremental:PendingRecovery",
     ("ensure_component", "drain_all")),
    ("concurrency.scheduler",
     "repro.concurrency.scheduler:DeterministicScheduler",
     ("run", "yield_point", "block_until", "group_force",
      "acquire_context")),
    ("analysis.trace", "repro.analysis.trace:ProtocolTrace", ("record",)),
    ("analysis.trace_check", "repro.analysis.trace_check",
     ("check_runtime",)),
    ("faults.sweep", "repro.faults.sweep", ("run_sweep",)),
)

#: Span name 0: the benchmark's own code between and around spans.
DRIVER = "driver"
#: Root spans, opened by the driver itself: one external call (the call
#: site), the crash, and the full-recovery barrier.
CALL_ROOT = "driver.call"
CRASH_ROOT = "driver.crash"
RECOVER_ROOT = "driver.recover"
#: Full span records kept for the span file; aggregates cover every span.
KEEP_ROOTS = 200
KEEP_SPANS = 50_000


class _Phase:
    """Aggregates of one phase, indexed by span-name index."""

    def __init__(self, size: int):
        self.count = [0] * size
        self.wall_ns = [0] * size
        self.sim_ms = [0.0] * size
        #: Largest single span, inclusive, on the simulated clock.
        self.sim_max_ms = [0.0] * size
        self.root_wall_ns = array("q")
        self.kept_roots = 0


class _ThreadState:
    __slots__ = ("stack", "root", "keep", "session")

    def __init__(self):
        self.stack: list = []
        self.root = 0
        self.keep = False
        self.session = -1


class _NoClock:
    now = 0.0


class Recorder:
    """Wraps every boundary on construction (so construct it after the
    workload modules, and with them every ``repro`` module they use,
    are imported) and records until :meth:`uninstall`."""

    def __init__(self):
        self.names: list[str] = []
        self._index: dict[str, int] = {}
        for name in (DRIVER, CALL_ROOT, CRASH_ROOT, RECOVER_ROOT):
            self._name_index(name)
        #: The simulated clock spans read; the workload sets it once its
        #: runtime exists.
        self.clock = _NoClock()
        self.phases: dict[str, _Phase] = {}
        self.kept: list[tuple] = []
        self.spans = 0
        self._local = threading.local()
        self._patched: list[tuple[object, str, object]] = []
        self._install()
        # the global wall timeline
        self._top = 0
        self._last = perf_counter_ns()
        self.phase_name = "setup"
        self.acc = self.phases["setup"] = _Phase(len(self.names))

    # ------------------------------------------------------------------
    # phases and roots (called by the runner and the call site)
    # ------------------------------------------------------------------
    def phase(self, name: str) -> None:
        """Switch the aggregate set; only between roots."""
        self._charge(perf_counter_ns())
        acc = self.phases.get(name)
        if acc is None:
            acc = self.phases[name] = _Phase(len(self.names))
        self.phase_name = name
        self.acc = acc

    def _state(self) -> _ThreadState:
        try:
            return self._local.state
        except AttributeError:
            state = self._local.state = _ThreadState()
            return state

    def set_session(self, index: int) -> None:
        self._state().session = index

    def _charge(self, now: int) -> None:
        """Advance the wall timeline: the interval since the last span
        event belongs to the span that was on top."""
        self.acc.wall_ns[self._top] += now - self._last
        self._last = now

    def begin_root(self, name: str = CALL_ROOT) -> None:
        state = self._state()
        acc = self.acc
        state.root = self.spans + 1
        state.keep = acc.kept_roots < KEEP_ROOTS
        acc.kept_roots += state.keep
        self._enter(self._index[name])

    def end_root(self) -> None:
        state = self._state()
        frame = state.stack[-1]
        self._leave(state, frame)
        self.acc.root_wall_ns.append(self._last - frame[3])
        state.root = 0
        state.keep = False

    def _enter(self, index: int):
        state = self._state()
        now = perf_counter_ns()
        self._charge(now)
        self._top = index
        self.spans += 1
        frame = [index, self.clock.now, 0.0, now, self.spans]
        state.stack.append(frame)
        return state, frame

    def _leave(self, state: _ThreadState, frame: list) -> None:
        now = perf_counter_ns()
        self._charge(now)
        stack = state.stack
        stack.pop()
        index, sim_start, child_sim, wall_start, span_id = frame
        acc = self.acc
        acc.count[index] += 1
        sim_now = self.clock.now
        parent_id = 0
        if state.root:
            # Simulated self time only under a root: the ledger is per
            # call tree.
            duration = sim_now - sim_start
            acc.sim_ms[index] += duration - child_sim
            if duration > acc.sim_max_ms[index]:
                acc.sim_max_ms[index] = duration
            if stack:
                stack[-1][2] += duration
                parent_id = stack[-1][4]
        if state.keep and len(self.kept) < KEEP_SPANS:
            self.kept.append((
                span_id, parent_id, state.root, index, wall_start, now,
                sim_start, sim_now, state.session, self.phase_name,
            ))
        self._top = stack[-1][0] if stack else 0

    # ------------------------------------------------------------------
    # wrapping
    # ------------------------------------------------------------------
    def _name_index(self, name: str) -> int:
        index = self._index.get(name)
        if index is None:
            index = self._index[name] = len(self.names)
            self.names.append(name)
        return index

    def _wrap(self, name: str, fn):
        index = self._name_index(name)
        enter, leave = self._enter, self._leave
        if inspect.isgeneratorfunction(fn):
            # A generator is timed per next(): the consumer's work
            # between items is not the generator's.
            def wrapper(*args, **kwargs):
                iterator = fn(*args, **kwargs)
                try:
                    while True:
                        state, frame = enter(index)
                        try:
                            item = next(iterator)
                        except StopIteration:
                            return
                        finally:
                            leave(state, frame)
                        yield item
                finally:
                    iterator.close()
        else:
            def wrapper(*args, **kwargs):
                state, frame = enter(index)
                try:
                    return fn(*args, **kwargs)
                finally:
                    leave(state, frame)
        return functools.update_wrapper(wrapper, fn)

    def _install(self) -> None:
        for layer, owner, attributes in BOUNDARIES:
            module_name, __, class_name = owner.partition(":")
            module = importlib.import_module(module_name)
            for attribute in attributes:
                name = f"{layer}.{attribute}"
                if class_name:
                    cls = getattr(module, class_name)
                    original = cls.__dict__[attribute]
                    self._patch(cls, attribute, self._wrap(name, original))
                    continue
                original = getattr(module, attribute)
                wrapper = self._wrap(name, original)
                for holder in list(sys.modules.values()):
                    if not getattr(holder, "__name__", "").startswith("repro"):
                        continue
                    for key, value in list(vars(holder).items()):
                        if value is original:
                            self._patch(holder, key, wrapper)

    def _patch(self, holder: object, key: str, wrapper: object) -> None:
        self._patched.append((holder, key, vars(holder)[key]))
        setattr(holder, key, wrapper)

    def uninstall(self) -> None:
        for holder, key, original in reversed(self._patched):
            setattr(holder, key, original)
        self._patched.clear()

    def patched(self) -> list[tuple[object, str, object]]:
        """(holder, attribute, original object) of every live patch."""
        return list(self._patched)

    # ------------------------------------------------------------------
    # reading the aggregates
    # ------------------------------------------------------------------
    def total(self, field: str, names, phases) -> float:
        """Sum one aggregate over span names and phases.  ``names`` may
        hold exact names or ``layer.`` prefixes (trailing dot)."""
        indexes = [
            i for i, name in enumerate(self.names)
            if any(
                name == want or (want.endswith(".") and name.startswith(want))
                for want in names
            )
        ]
        result = 0
        for phase in phases:
            acc = self.phases.get(phase)
            if acc is not None:
                values = getattr(acc, field)
                result += sum(values[i] for i in indexes)
        return result

    def peak(self, names, phases) -> float:
        best = 0.0
        for phase in phases:
            acc = self.phases.get(phase)
            if acc is None:
                continue
            for i, name in enumerate(self.names):
                if name in names and acc.sim_max_ms[i] > best:
                    best = acc.sim_max_ms[i]
        return best

    def table(self) -> dict:
        """phase -> span name -> aggregates, for the results file."""
        out: dict = {}
        for phase, acc in self.phases.items():
            rows = {}
            for i, name in enumerate(self.names):
                if acc.count[i] or acc.wall_ns[i]:
                    rows[name] = {
                        "count": acc.count[i],
                        "self_wall_us": acc.wall_ns[i] / 1e3,
                        "self_sim_ms": acc.sim_ms[i],
                    }
            out[phase] = rows
        return out

    def write_spans(self, path) -> None:
        names = self.names
        with open(path, "w", encoding="utf-8") as out:
            out.write(json.dumps({
                "spans_recorded": self.spans,
                "spans_kept": len(self.kept),
                "kept": f"first {KEEP_ROOTS} roots of each phase, "
                        f"at most {KEEP_SPANS} spans",
                "fields": ["id", "parent", "root", "name", "wall_start_ns",
                           "wall_end_ns", "sim_start_ms", "sim_end_ms",
                           "session", "phase"],
            }) + "\n")
            for span in self.kept:
                row = list(span)
                row[3] = names[row[3]]
                out.write(json.dumps(row) + "\n")
