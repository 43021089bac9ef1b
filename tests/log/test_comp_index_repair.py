"""Per-component chains across crashes and torn tails.

``component_chains`` is a group-by over the frame index's context
column, and a restart rebuilds that index from the stable bytes in
``repair_tail``'s validating walk.  So a fresh manager opened over a
crashed one's files serves the same chains without decoding a record,
and a torn tail shortens exactly the chains that referenced it.
"""

import pytest

from repro.common import MessageKind, MethodCallMessage
from repro.log import LogManager, MessageRecord, log_manager
from repro.sim import Cluster


def record(cid: int, n: object) -> MessageRecord:
    return MessageRecord(
        context_id=cid,
        kind=MessageKind.INCOMING_CALL,
        message=MethodCallMessage(
            target_uri=f"phoenix://alpha/p/{cid}", method="m", args=(n,)
        ),
    )


@pytest.fixture
def machine():
    return Cluster().machine("alpha")


@pytest.fixture
def log(machine):
    return LogManager("p1", machine.disk, machine.stable_store)


class TestChainsAfterRestart:
    def test_fresh_manager_rebuilds_chains_from_stable_bytes(
        self, machine, log, monkeypatch
    ):
        for i in range(12):
            log.append(record((1, 2, 200, -1)[i % 4], i))
            if i % 5 == 4:
                log.force()
        log.force()
        chains = log.component_chains(0)
        log.append(record(3, "lost"))  # buffered, dies with the crash

        decoded = []
        real = log_manager.decode_record
        monkeypatch.setattr(
            log_manager,
            "decode_record",
            lambda payload: decoded.append(1) or real(payload),
        )
        # The restarted process holds nothing of the crashed one's
        # memory: only its stable files.
        fresh = LogManager("p1", machine.disk, machine.stable_store)
        fresh.repair_tail()
        assert fresh.component_chains(0) == chains
        assert fresh.stats.comp_index_rebuilds == 0
        assert decoded == []

    def test_buffered_records_still_die_with_the_process(self, log):
        stable_lsn = log.append_and_force(record(1, "stable"))
        log.append(record(2, "lost"))  # buffered, dies with the crash
        log = LogManager(log.process_name, log.disk, log.stable_store)
        chains = log.component_chains(0)
        assert chains == {1: [stable_lsn]}
        assert 2 not in chains


class TestRepairTailPrunesPerChain:
    def test_torn_frame_prunes_only_its_component(self, log):
        kept = [log.append_and_force(record(1, i)) for i in range(3)]
        torn = log.append_and_force(record(2, "torn"))
        assert log.component_chains(0) == {1: kept, 2: [torn]}
        rebuilds = log.stats.comp_index_rebuilds

        stable = log.stable_store.open("p1.log")
        stable.truncate(stable.size - 3)  # tear component 2's frame
        log.repair_tail()

        chains = log.component_chains(0)
        # Component 1's chain survived untouched, with no decoding walk.
        assert chains == {1: kept}
        assert log.stats.comp_index_rebuilds == rebuilds

        # Ground truth: scanning the repaired log derives the same view.
        assert [
            (lsn, rec.context_id) for lsn, rec in log.scan(0)
        ] == [(lsn, 1) for lsn in kept]

    def test_torn_mid_chain_prunes_the_suffix(self, log):
        first = log.append_and_force(record(1, 0))
        second = log.append_and_force(record(1, 1))
        rebuilds = log.stats.comp_index_rebuilds
        stable = log.stable_store.open("p1.log")
        stable.truncate(stable.size - 3)  # tear the second frame
        log.repair_tail()
        assert log.component_chains(0) == {1: [first]}
        assert log.stats.comp_index_rebuilds == rebuilds
        assert second >= log.stable_lsn
