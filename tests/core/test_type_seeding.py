"""Static type seeding (``config.static_type_seeding``).

Section 3.4 learns server component types from reply attachments,
paying conservative Algorithm 2/3 costs until each server's first
reply.  Because ``repro-analyze infer --check`` verifies that every
declaration matches the inference fixpoint, the runtime may trust the
declarations *before* the first call: every ``create_component``
records the declared type in ``runtime.static_type_directory``
(unconditionally — no clock charge, no log writes), and with the flag
on, ``prepare_outgoing`` seeds the remote-type table from it on first
contact.  docs/internals.md section 10; the force/byte deltas are
measured in ``bench/ablations.py::static_type_seeding_ablation``.
"""

from __future__ import annotations

import pytest

from repro.analysis.trace_check import record_signature
from repro.apps.orderflow import deploy_orderflow
from repro.common.messages import MessageKind
from repro.common.types import ComponentType
from repro.core import PhoenixRuntime, RuntimeConfig


def run_workload(config):
    runtime = PhoenixRuntime(config=config)
    runtime.external_client_machine = "gamma"
    app = deploy_orderflow(runtime=runtime, split_backend=True)
    replies = [
        app.desk.place_order("ada", "widget", 3),
        app.desk.order_history("ada"),
        app.desk.rejected_count(),
        app.ledger.exposure("ada"),
    ]
    return runtime, app, replies


def app_processes(app):
    return [app.desk_process, app.backend_process, app.ledger_process]


def unknown_peer_calls(process) -> int:
    return sum(
        1
        for event in process.streams[0].trace.events()
        if event.kind is MessageKind.OUTGOING_CALL
        and event.peer_type is None
    )


class TestStaticTypeDirectory:
    def test_populated_for_every_phoenix_component(self):
        runtime, app, __ = run_workload(RuntimeConfig.optimized())
        directory = runtime.static_type_directory
        types = [ctype for ctype, __ in directory.values()]
        # inventory, ledger, pricing, fraud, desk
        assert len(directory) == 5
        assert ComponentType.READ_ONLY in types  # FraudScreen
        assert ComponentType.FUNCTIONAL in types  # PricingEngine

    def test_carries_read_only_method_markings(self):
        runtime, app, __ = run_workload(RuntimeConfig.optimized())
        marked = {
            frozenset(methods)
            for __, methods in runtime.static_type_directory.values()
        }
        assert frozenset({"available"}) in marked  # Inventory
        assert frozenset({"exposure", "limit"}) in marked  # CustomerLedger

    def test_population_never_touches_the_log(self, monkeypatch):
        # the directory is filled whether or not the flag is on; byte
        # identity of the flag-off path is the calibration guarantee
        # (Tables 4-8 unchanged), so prove population has no log effect
        __, reference_app, reference_replies = run_workload(
            RuntimeConfig.optimized()
        )
        monkeypatch.setattr(
            PhoenixRuntime, "note_static_type", lambda *a, **k: None
        )
        __, muted_app, muted_replies = run_workload(
            RuntimeConfig.optimized()
        )
        assert muted_replies == reference_replies
        for reference, muted in zip(
            app_processes(reference_app), app_processes(muted_app)
        ):
            assert record_signature(reference.log) == record_signature(
                muted.log
            )


class TestSeededRuns:
    @pytest.fixture(scope="class")
    def runs(self):
        return {
            enabled: run_workload(
                RuntimeConfig.optimized(static_type_seeding=enabled)
            )
            for enabled in (False, True)
        }

    def test_replies_identical(self, runs):
        assert runs[False][2] == runs[True][2]

    def test_state_identical(self, runs):
        for enabled in (False, True):
            app = runs[enabled][1]
            assert app.inventory.available("widget") == 997
            assert app.ledger.exposure("ada") == pytest.approx(
                runs[False][1].ledger.exposure("ada")
            )

    def test_no_unknown_peer_calls_when_seeded(self, runs):
        cold = sum(unknown_peer_calls(p) for p in app_processes(runs[False][1]))
        warm = sum(unknown_peer_calls(p) for p in app_processes(runs[True][1]))
        assert cold > 0
        assert warm == 0

    def test_fewer_cold_start_force_requests(self, runs):
        requested = {
            enabled: sum(
                process.log.stats.forces_requested
                for process in app_processes(runs[enabled][1])
            )
            for enabled in (False, True)
        }
        assert requested[True] < requested[False]

    def test_omitted_attachments_shrink_the_log(self, runs):
        appended = {
            enabled: sum(
                process.log.stats.bytes_appended
                for process in app_processes(runs[enabled][1])
            )
            for enabled in (False, True)
        }
        assert appended[True] < appended[False]

    def test_seeded_table_knows_the_servers_up_front(self, runs):
        desk_process = runs[True][1].desk_process
        table = desk_process.incarnation.remote_types
        # four injected server proxies, all known before any reply
        # could have taught them (plus whatever replies added since)
        assert len(table) >= 4
        fraud_uri = next(
            uri
            for uri, (ctype, __) in
            runs[True][0].static_type_directory.items()
            if ctype is ComponentType.READ_ONLY
        )
        assert table.known_type(fraud_uri) is ComponentType.READ_ONLY
