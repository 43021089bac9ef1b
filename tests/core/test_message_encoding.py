"""One encoding per message, shared by the network charge and the log.

A message's wire bytes are computed at most once
(``repro.log.serialization.message_encoding``): the network sizes a
request or reply by them and its ``MessageRecord`` carries them.  These
tests pin that each message is encoded once, that the shared bytes are
the bytes a fresh encoding gives, that a caller mutating its own
argument afterwards cannot reach them, and that text the codec cannot
represent fails as a typed error before anything is logged or sent.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import replace

import pytest

from repro import (
    ApplicationError,
    PersistentComponent,
    PhoenixRuntime,
    RuntimeConfig,
    SerializationError,
    persistent,
)
from repro.apps.bookstore import BookBuyer, OptimizationLevel, deploy_bookstore
from repro.checkpoint.fields import capture_fields
from repro.faults.workloads import PHOENIX_LEGS, run
from repro.log import encode_record, log_manager
from repro.log.records import MessageRecord
from repro.log.serialization import Writer, encode_value
from repro.sim.network import Network

from ..conftest import KvStore, instance_of

LONE_SURROGATE = "\ud800"


@persistent
class Sink(PersistentComponent):
    def __init__(self):
        self.seen = []

    def take(self, items):
        self.seen.append(items)
        return len(self.seen)


@persistent
class Source(PersistentComponent):
    def __init__(self, sink):
        self.sink = sink

    def send_then_mutate(self):
        items = [1, 2, 3]
        self.sink.take(items)
        items[0] = "mutated"
        items.append(4)
        return items

    def send_text(self, prefix):
        return self.sink.take(prefix + LONE_SURROGATE)


def _deploy_pair(runtime):
    runtime.external_client_machine = "alpha"
    sink_process = runtime.spawn_process("sink-proc", machine="beta")
    sink = sink_process.create_component(Sink)
    source_process = runtime.spawn_process("source-proc", machine="alpha")
    source = source_process.create_component(Source, args=(sink,))
    return sink_process, source_process, source


def _message_records(process) -> list[MessageRecord]:
    process.log.force()
    return [
        record
        for __, record in process.log.scan(kinds=(MessageRecord,))
        if record.message is not None
    ]


@pytest.fixture
def transmitted(monkeypatch) -> list[int]:
    """Every byte count the network charges, in order."""
    sizes: list[int] = []
    original = Network.transmit

    def spy(self, source, target, nbytes=256):
        sizes.append(nbytes)
        return original(self, source, target, nbytes)

    monkeypatch.setattr(Network, "transmit", spy)
    return sizes


class TestEncodeOnce:
    def test_a_bookstore_iteration_encodes_each_message_once(
        self, monkeypatch
    ):
        app = deploy_bookstore(level=OptimizationLevel.SPECIALIZED)
        buyer = BookBuyer(app)
        buyer.run_iteration("recovery")  # warm: types learned

        encoded: list = []  # holds the messages, so ids stay unique
        for name in ("method_call", "reply"):
            original = getattr(Writer, name)

            def spy(writer, message, original=original):
                encoded.append(message)
                return original(writer, message)

            monkeypatch.setattr(Writer, name, spy)
        buyer.run_iteration("logging")

        per_message = Counter(id(message) for message in encoded)
        assert max(per_message.values()) == 1
        # 11 calls; each of the 26 messages is sized for the network
        # and 7 are also logged: 33 encodes without the shared encoding
        assert len(encoded) == 26

    @pytest.mark.parametrize(
        "leg", ["bookstore", "orderflow"], ids=lambda leg: f"run_{leg}"
    )
    def test_logged_bytes_equal_a_fresh_encoding(self, monkeypatch, leg):
        original = log_manager.encode_record_into
        checked: list[MessageRecord] = []

        def spy(writer, record):
            original(writer, record)
            if isinstance(record, MessageRecord) and record.message:
                # a copy of the message carries no shared encoding
                fresh = replace(record, message=replace(record.message))
                assert writer.getvalue() == encode_record(fresh)
                checked.append(record)

        monkeypatch.setattr(log_manager, "encode_record_into", spy)
        assert not run(*PHOENIX_LEGS[leg]).raise_error().violations
        assert checked

    def test_a_caller_mutating_its_argument_changes_nothing_sent(
        self, transmitted
    ):
        runtime = PhoenixRuntime(config=RuntimeConfig.baseline())
        sink_process, source_process, source = _deploy_pair(runtime)
        assert source.send_then_mutate() == ["mutated", 2, 3, 4]

        assert instance_of(sink_process, 1).seen == [[1, 2, 3]]
        # Algorithm 1 logs the call on both sides: as message 3 at the
        # caller and as message 1 at the server
        logged = [
            record.message
            for process in (source_process, sink_process)
            for record in _message_records(process)
            if getattr(record.message, "method", None) == "take"
        ]
        assert len(logged) == 2
        for message in logged:
            assert message.args == ([1, 2, 3],)
        # the network charged the request at its logged size
        assert len(encode_value(logged[0])) in transmitted


class TestUnencodableText:
    def test_a_component_field_is_named(self, runtime):
        process = runtime.spawn_process("p", machine="alpha")
        process.create_component(KvStore)
        store = instance_of(process, 1)
        store.data = {"key": LONE_SURROGATE}
        with pytest.raises(SerializationError, match="field 'data'"):
            capture_fields(store, process.find_context(1))

    def test_an_external_call_fails_before_it_is_sent(
        self, runtime, transmitted
    ):
        runtime.external_client_machine = "alpha"
        process = runtime.spawn_process("p", machine="beta")
        store = process.create_component(KvStore)
        end_lsn = process.log.end_lsn

        with pytest.raises(SerializationError, match="surrogate"):
            store.put("key", LONE_SURROGATE)

        assert transmitted == []
        assert process.log.end_lsn == end_lsn
        assert instance_of(process, 1).executions == 0

    def test_an_outgoing_call_fails_before_it_is_logged_or_sent(
        self, transmitted
    ):
        runtime = PhoenixRuntime(config=RuntimeConfig.baseline())
        sink_process, source_process, source = _deploy_pair(runtime)
        sink_end = sink_process.log.end_lsn

        with pytest.raises(ApplicationError, match="SerializationError"):
            source.send_text("bad ")

        # only the external request and its exception reply crossed the
        # network; the failed call wrote no message-3 record
        assert len(transmitted) == 2
        assert sink_process.log.end_lsn == sink_end
        assert instance_of(sink_process, 1).seen == []
        assert [
            record.message.method
            for record in _message_records(source_process)
            if hasattr(record.message, "method")
        ] == ["send_text"]
