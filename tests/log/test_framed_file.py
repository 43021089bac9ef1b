"""Damage in any framed file ends in an error that says where it is.

Three kinds of stable file share the CRC framing: a process log, a
durable log of the queued substrate (``<name>.qlog``) and the recovery
service's registration table (``recovery-service.log``).  Each is
written here by its own writer, damaged, and restarted the way the
system restarts it.  Damage a torn write cannot leave behind — a flipped
byte of an interior frame's magic, length, CRC or payload, a flipped
byte of the last frame's magic, CRC or payload (a torn write keeps a
prefix, so it never leaves a frame that fits and fails), or a
CRC-valid frame that does not decode, last or not — ends in a
:class:`LogCorruptionError` naming the file and the position (an LSN
for a process log, a frame index for the other two) and never calling
itself torn, and the stable file keeps every byte.  A torn tail, cut
anywhere in its header or payload, is still truncated.

Duplicated frames are not here: they are CRC-valid and decode, so the
framing cannot see them.
"""

import pytest

from repro import PhoenixRuntime
from repro.common import MessageKind, MethodCallMessage
from repro.errors import LogCorruptionError
from repro.faults.plan import HEADER_CUTS
from repro.log import (
    FramedFile,
    LogManager,
    MessageRecord,
    frame,
    frame_overhead,
    iter_frames,
)
from repro.queues.dlog import DurableLog
from repro.recovery.recovery_service import RecoveryService
from repro.sim import Cluster

FRAMES = 4
#: A payload no reader of the three files decodes: an unknown record
#: kind for a process log, a text field cut short for the other two.
UNDECODABLE = b"\xee\x01\x05"


def _process_log():
    machine = Cluster().machine("alpha")
    log = LogManager("p1", machine.disk, machine.stable_store)
    for n in range(FRAMES):
        log.append(MessageRecord(
            context_id=1,
            kind=MessageKind.INCOMING_CALL,
            message=MethodCallMessage(
                target_uri="phoenix://alpha/p1/1", method="m", args=(n,)
            ),
        ))
    log.force()

    def restart():
        fresh = LogManager("p1", machine.disk, machine.stable_store)
        fresh.repair_tail()
        list(fresh.scan())

    return machine.stable_store.open("p1.log"), restart


def _durable_log():
    machine = Cluster().machine("alpha")
    log = DurableLog(machine, "q")
    for n in range(FRAMES):
        log.append("put", n)
    log.force()

    def restart():
        fresh = DurableLog(machine, "q")
        fresh.crash()
        list(fresh.records())

    return machine.stable_store.open("q.qlog"), restart


def _registration_table():
    runtime = PhoenixRuntime()
    for n in range(FRAMES):
        runtime.spawn_process(f"p{n}", machine="beta")
    machine = runtime.cluster.machine("beta")
    return (
        machine.stable_store.open("recovery-service.log"),
        lambda: RecoveryService(machine, runtime),
    )


#: kind -> (build, where: (frame offset, frame index) -> message prefix)
KINDS = {
    "process-log": (_process_log, lambda at, i: f"log 'p1', LSN {at}: "),
    "qlog": (_durable_log, lambda at, i: f"file 'q.qlog', frame {i}: "),
    "registrations": (
        _registration_table,
        lambda at, i: f"file 'recovery-service.log', frame {i}: ",
    ),
}


def _flip(offset: int, mask: int):
    """Flip ``mask``'s bits of the byte ``offset`` into a frame."""

    def damage(data: bytearray, at: int) -> None:
        data[at + offset] ^= mask

    return damage


def _undecodable(data: bytearray, at: int) -> None:
    """Replace the frame at ``at`` by a CRC-valid one that no reader
    decodes."""
    __, ___, end = next(iter_frames(bytes(data), at))
    data[at:end] = frame(UNDECODABLE)


#: [magic u16][length u32][crc32 u32][payload]
DAMAGE = {
    "magic": _flip(0, 0xFF),
    "length-overruns": _flip(5, 0x40),
    "length-short": _flip(2, 0x01),
    "crc": _flip(6, 0x01),
    "payload": _flip(12, 0x01),
    "undecodable": _undecodable,
}
CASES = [(what, 1) for what in DAMAGE] + [
    (what, FRAMES - 1) for what in ("magic", "crc", "payload", "undecodable")
]


def _starts(data: bytes) -> list[int]:
    return [offset for offset, __, ___ in iter_frames(data)]


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize(
    "what, nth", CASES, ids=[f"{what}-frame{nth}" for what, nth in CASES]
)
def test_damage_is_named_and_kept(kind, what, nth):
    build, where = KINDS[kind]
    stable, restart = build()
    data = bytearray(stable.read())
    starts = _starts(bytes(data))
    assert len(starts) == FRAMES
    DAMAGE[what](data, starts[nth])
    stable.overwrite(bytes(data))
    with pytest.raises(LogCorruptionError) as raised:
        restart()
    message = str(raised.value)
    assert message.startswith(where(starts[nth], nth)), message
    if kind == "process-log":
        assert raised.value.lsn == starts[nth]
    assert "torn" not in message
    assert stable.read() == data  # nothing was cut off


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("cut", [*HEADER_CUTS, "payload"])
def test_a_torn_tail_is_truncated(kind, cut):
    build, __ = KINDS[kind]
    stable, restart = build()
    data = stable.read()
    last = data[_starts(data)[-1]:]
    size = frame_overhead() + 2 if cut == "payload" else cut
    assert size < len(last)
    stable.append(last[:size])
    restart()
    assert stable.read() == data


def test_the_boundaries_bound_the_search_after_a_bad_frame():
    """Given the offsets frames were written at (a process log's index),
    the rule looks for a whole frame after a short one only there, so a
    frame's bytes inside another frame's payload do not count; without
    them, every frame magic past the short frame is tried."""
    machine = Cluster().machine("alpha")
    framed = FramedFile(machine.stable_store, machine.disk, "t.log")
    frames = [frame(b"keep"), frame(b"short"), frame(frame(b"inner"))]
    starts = [0, len(frames[0]), len(frames[0]) + len(frames[1])]
    data = bytearray(b"".join(frames))
    data[starts[1] + 5] ^= 0x40  # a length running past the data
    data[starts[2] + 6] ^= 1  # the CRC of the frame holding a whole one
    framed.stable.append(bytes(data))
    with pytest.raises(LogCorruptionError, match="frame 1: bad frame length"):
        framed.repair(framed.walk())
    assert framed.stable.read() == data
    assert framed.repair(framed.walk(), starts) == starts[1]
    assert framed.stable.read() == frames[0]
