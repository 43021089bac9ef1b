"""Static force/record cost model — Algorithms 1-5 priced per call path.

Walks the interprocedural call tree rooted at each deployed component's
public methods (self-calls and subordinate calls stay in the caller's
context; proxied calls cross the interceptor) and charges every
intercepted edge the log records and forces the paper's algorithms
prescribe.  The prescriptions are not restated here: an edge is priced
by summing the cells of :mod:`repro.common.message_actions` (printed in
docs/paper-map.md) it exercises — messages 3 and 4 at the caller facing
the target's class, messages 1 and 2 at the target facing the caller's
— and the entry call from the external client by the ``external`` cells
of messages 1 and 2.  An unknown target is priced persistent (Section
3.4).  Section 3.5's multi-call rule is reported as a per-path saving:
within one context's execution, distinct server *processes* after the
first need no pre-send force.

Two consumers:

* :meth:`CostModel.report` — the machine-readable per-path prediction
  behind ``repro-analyze cost``;
* :meth:`CostModel.force_bounds` — the per-(process, entry-method)
  force/event ratio table the TRC106 trace cross-check replays
  observed :class:`~repro.analysis.trace.ProtocolTrace` spans against.

The TRC106 bound is deliberately *linear in observed events* rather
than a fixed count: loops and branches make the static event count
unknowable, but every intercepted call contributes one trace event per
table cell to its caller's span (messages 3 and 4, plus the callee's 1
and 2 when it shares the process) and at most ``ratio × events`` forces
— :func:`force_ratio`, the committing share of those cells.  ``bound =
entry_forces + ratio × (events - 2)`` is therefore sound for any
iteration count, and tight (ratio 0) on read-only fan-outs, where an
over-forcing policy is most visible.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ...common.message_actions import (
    MSG1,
    MSG2,
    MSG3,
    MSG4,
    NO_RECORD,
    Action,
    action_for,
)
from ...common.types import ComponentType
from ..model import ProgramModel
from .engine import Engine

#: display rank; persistent (and unknown, priced the same) dominate
_CATEGORY_RANK = {"functional": 0, "read_only": 1, "unknown": 2,
                  "persistent": 3}

def _priced_as(kind: str | None) -> ComponentType:
    """The component type a declared kind or an edge category is priced
    as: an unknown one as persistent (Section 3.4).  A read-only
    *method* of a persistent target prices like a read-only component —
    both select the table's read-only column and log nothing themselves."""
    if kind in (None, "unknown"):
        return ComponentType.PERSISTENT
    return ComponentType(kind)


def entry_cells(
    declared: str | None, read_only_marked: bool, optimized: bool = True
) -> list[Action]:
    """Messages 1 and 2 of one call from the external client."""
    return [
        action_for(
            row, optimized, True, _priced_as(declared),
            ComponentType.EXTERNAL, read_only_marked,
        )
        for row in (MSG1, MSG2)
    ]


def edge_cells(
    caller_declared: str | None, category: str, optimized: bool = True
) -> list[Action]:
    """The four cells one intercepted call exercises, client side
    first: messages 3 and 4 in the caller's context, then messages 1
    and 2 in the target's."""
    caller, target = _priced_as(caller_declared), _priced_as(category)
    return [
        action_for(row, optimized, True, caller, target, False)
        for row in (MSG3, MSG4)
    ] + [
        action_for(row, optimized, True, target, caller, False)
        for row in (MSG1, MSG2)
    ]


def records(cells: list[Action]) -> int:
    return sum(cell.record != NO_RECORD for cell in cells)


def forces(cells: list[Action]) -> int:
    return sum(cell.commits for cell in cells)


def force_ratio(category: str) -> float:
    """Forces per trace event an intercepted edge may cost, priced for
    a persistent caller (the dearest): the committing share of the
    cells that land on the caller's span — its own two, or all four
    when the callee shares the process — whichever is larger."""
    cells = edge_cells("persistent", category)
    return max(forces(part) / len(part) for part in (cells[:2], cells))


@dataclass(frozen=True)
class Edge:
    """One intercepted call edge, in some context's execution."""

    context: str  #: class whose context issues the call
    method: str  #: callee method name
    targets: tuple[str, ...]  #: resolved callee classes ("?" = unknown)
    category: str  #: functional | read_only | persistent | unknown
    in_loop: bool
    lineno: int

    def to_dict(self) -> dict:
        return {
            "context": self.context,
            "method": self.method,
            "targets": list(self.targets),
            "category": self.category,
            "in_loop": self.in_loop,
            "line": self.lineno,
        }


@dataclass
class CallPathCost:
    """Predicted logging cost of one external invocation of
    ``entry.method()`` (loop edges priced for a single iteration)."""

    entry: str
    method: str
    processes: tuple[str, ...]
    exported: bool  #: instance escapes to the external client
    baseline_records: int
    baseline_forces: int
    optimized_records: int
    optimized_forces: int
    #: Section 3.5: forces saved per invocation when the multi-call
    #: optimization is on (distinct server processes after the first)
    multicall_saved_forces: int
    #: edges sitting inside loops: each extra iteration re-pays them
    loop_edges: int
    per_iteration_records: int
    per_iteration_forces: int
    edges: list[Edge] = field(default_factory=list)

    def to_dict(self) -> dict:
        return {
            "entry": self.entry,
            "method": self.method,
            "processes": list(self.processes),
            "exported": self.exported,
            "baseline": {
                "records": self.baseline_records,
                "forces": self.baseline_forces,
            },
            "optimized": {
                "records": self.optimized_records,
                "forces": self.optimized_forces,
            },
            "multicall_saved_forces": self.multicall_saved_forces,
            "loop_edges": self.loop_edges,
            "per_extra_iteration": {
                "records": self.per_iteration_records,
                "forces": self.per_iteration_forces,
            },
            "edges": [edge.to_dict() for edge in self.edges],
        }


@dataclass(frozen=True)
class SpanBound:
    """Per-(process, entry-method) force bound for TRC106 (and, once
    committed in a LogPlan's ``span_budgets``, TRC109)."""

    process: str
    method: str
    classes: tuple[str, ...]
    #: max forces-per-event ratio over reachable edges, with the
    #: read-only-method optimization on / off
    ratio_ro_on: float
    ratio_ro_off: float

    def to_dict(self) -> dict:
        return {
            "process": self.process,
            "method": self.method,
            "classes": list(self.classes),
            "ratio_ro_on": self.ratio_ro_on,
            "ratio_ro_off": self.ratio_ro_off,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "SpanBound":
        return cls(
            process=data["process"],
            method=data["method"],
            classes=tuple(data["classes"]),
            ratio_ro_on=data["ratio_ro_on"],
            ratio_ro_off=data["ratio_ro_off"],
        )


class ForceBounds:
    """Lookup table ``(process, entry method) -> SpanBound``."""

    def __init__(self) -> None:
        self._table: dict[tuple[str, str], SpanBound] = {}

    def add(self, bound: SpanBound) -> None:
        key = (bound.process, bound.method)
        existing = self._table.get(key)
        if existing is not None:
            bound = SpanBound(
                process=bound.process,
                method=bound.method,
                classes=tuple(sorted(
                    set(existing.classes) | set(bound.classes)
                )),
                ratio_ro_on=max(existing.ratio_ro_on, bound.ratio_ro_on),
                ratio_ro_off=max(
                    existing.ratio_ro_off, bound.ratio_ro_off
                ),
            )
        self._table[key] = bound

    def for_span(self, process: str, method: str) -> SpanBound | None:
        return self._table.get((process, method))

    def __len__(self) -> int:
        return len(self._table)

    def to_dict(self) -> dict:
        return {
            "bounds": [
                self._table[key].to_dict()
                for key in sorted(self._table)
            ],
        }


class CostModel:
    """Prices call paths over an :class:`Engine`'s facts and wiring."""

    def __init__(self, engine: Engine):
        self.engine = engine

    # -- edge collection ----------------------------------------------
    def collect_edges(
        self,
        class_name: str,
        method_name: str,
        ro_opt: bool = True,
        process: str | None = None,
    ) -> list[Edge]:
        """All intercepted edges reachable from one method execution.

        ``process`` restricts recursion across proxied edges to callees
        that may share that process (span mode: a cross-process callee's
        events land on its own trace, not the caller's).  ``None``
        recurses everywhere (whole-application cost mode).
        """
        out: list[Edge] = []
        self._collect(
            class_name, class_name, method_name, ro_opt, process,
            in_loop=False, seen=set(), out=out,
        )
        return out

    def _collect(
        self,
        ctx_class: str,
        impl_class: str,
        method_name: str,
        ro_opt: bool,
        process: str | None,
        in_loop: bool,
        seen: set,
        out: list[Edge],
    ) -> None:
        key = (impl_class, method_name)
        if key in seen:
            return
        seen.add(key)
        facts = self.engine.facts.get(impl_class)
        if facts is None:
            return
        method = facts.methods.get(method_name)
        if method is None:
            return
        for callee, loop in method.self_calls:
            self._collect(
                ctx_class, impl_class, callee, ro_opt, process,
                in_loop or loop, seen, out,
            )
        for call in method.out_calls:
            resolution = self.engine.resolve(facts, call.bases)
            loop = in_loop or call.in_loop
            # subordinate targets run inside this same context; their
            # calls are direct (no interception, no records)
            for sub in sorted(resolution.subordinate):
                self._collect(
                    ctx_class, sub, call.method, ro_opt, process,
                    loop, seen, out,
                )
            if not resolution.proxied and not resolution.unknown:
                continue
            category = self._category(resolution, call.method, ro_opt)
            out.append(Edge(
                context=ctx_class,
                method=call.method,
                targets=tuple(sorted(resolution.proxied)) or ("?",),
                category=category,
                in_loop=loop,
                lineno=call.lineno,
            ))
            for target in sorted(resolution.proxied):
                target_processes = self.engine.wiring.processes_for(
                    target
                )
                if (
                    process is not None
                    and target_processes
                    and process not in target_processes
                ):
                    continue  # span mode: callee logs on its own trace
                self._collect(
                    target, target, call.method, ro_opt, process,
                    loop, seen, out,
                )

    def _category(self, resolution, method_name: str, ro_opt: bool) -> str:
        categories: list[str] = []
        for target in resolution.proxied:
            info = self.engine.by_name.get(target)
            declared = info.effective_declared if info else None
            if declared == "functional":
                categories.append("functional")
                continue
            if declared == "read_only":
                categories.append("read_only")
                continue
            facts = self.engine.facts.get(target)
            method = facts.methods.get(method_name) if facts else None
            marked = bool(method is not None and method.read_only_marked)
            categories.append(
                "read_only" if (marked and ro_opt) else "persistent"
            )
        if resolution.unknown:
            categories.append("unknown")
        if not categories:
            return "unknown"
        return max(categories, key=lambda c: _CATEGORY_RANK[c])

    # -- per-edge pricing ---------------------------------------------
    def _declared(self, class_name: str) -> str | None:
        info = self.engine.by_name.get(class_name)
        return info.effective_declared if info else None

    def _path_cells(
        self,
        class_name: str,
        method_name: str,
        edges: list[Edge],
        optimized: bool = True,
    ) -> list[Action]:
        """Every cell one external invocation exercises: the entry
        call's, then each intercepted edge's (both sides)."""
        method = self.engine.facts[class_name].methods[method_name]
        cells = entry_cells(
            self._declared(class_name), method.read_only_marked, optimized
        )
        for edge in edges:
            cells += edge_cells(
                self._declared(edge.context), edge.category, optimized
            )
        return cells

    # -- call-path pricing --------------------------------------------
    def entries(self) -> list[tuple[str, str]]:
        """(class, public method) pairs for every deployed component."""
        out: list[tuple[str, str]] = []
        deployed = (
            self.engine.wiring.instantiated_classes()
            & set(self.engine.by_name)
        )
        for class_name in sorted(deployed):
            facts = self.engine.facts[class_name]
            for method_name in sorted(facts.methods):
                if method_name.startswith("_"):
                    continue
                out.append((class_name, method_name))
        return out

    def path_cost(self, class_name: str, method_name: str) -> CallPathCost:
        edges = self.collect_edges(class_name, method_name, ro_opt=True)
        optimized = self._path_cells(class_name, method_name, edges)
        baseline = self._path_cells(
            class_name, method_name, edges, optimized=False
        )
        per_iteration = [
            cell for edge in edges if edge.in_loop
            for cell in edge_cells(
                self._declared(edge.context), edge.category
            )
        ]
        # Section 3.5: per context execution, the pre-send force is
        # needed only for the first distinct server process
        saved = 0
        by_context: dict[str, set[str]] = {}
        for edge in edges:
            if edge.category not in ("persistent", "unknown"):
                continue
            if edge.in_loop:
                continue  # a loop may revisit a process: no static claim
            processes = by_context.setdefault(edge.context, set())
            for target in edge.targets:
                processes |= self.engine.wiring.processes_for(target)
        for processes in by_context.values():
            saved += max(0, len(processes) - 1)
        return CallPathCost(
            entry=class_name,
            method=method_name,
            processes=tuple(sorted(
                self.engine.wiring.processes_for(class_name)
            )),
            exported=self.engine.wiring.escapes(class_name),
            baseline_records=records(baseline),
            baseline_forces=forces(baseline),
            optimized_records=records(optimized),
            optimized_forces=forces(optimized),
            multicall_saved_forces=saved,
            loop_edges=sum(1 for edge in edges if edge.in_loop),
            per_iteration_records=records(per_iteration),
            per_iteration_forces=forces(per_iteration),
            edges=edges,
        )

    def report(self) -> dict:
        return {
            "paths": [
                self.path_cost(class_name, method_name).to_dict()
                for class_name, method_name in self.entries()
            ],
        }

    # -- TRC106 bounds -------------------------------------------------
    def force_bounds(self) -> ForceBounds:
        bounds = ForceBounds()
        for class_name, method_name in self.entries():
            for process in sorted(
                self.engine.wiring.processes_for(class_name)
            ):
                ratios = []
                for ro_opt in (True, False):
                    edges = self.collect_edges(
                        class_name, method_name,
                        ro_opt=ro_opt, process=process,
                    )
                    ratios.append(max(
                        (force_ratio(edge.category) for edge in edges),
                        default=0.0,
                    ))
                bounds.add(SpanBound(
                    process=process,
                    method=method_name,
                    classes=(class_name,),
                    ratio_ro_on=ratios[0],
                    ratio_ro_off=ratios[1],
                ))
        return bounds


def build_cost_model(model: ProgramModel) -> CostModel:
    return CostModel(Engine(model))
