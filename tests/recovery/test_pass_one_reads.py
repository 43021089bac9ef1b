"""Pass one decodes only what it consumes.

Recovery's analysis pass folds each stream from its well-known LSN and
selects only ``_PASS_ONE_KINDS``.  On a checkpointed log it decodes
exactly the creation, state and checkpoint-table records past the
published checkpoint — none of the message records among them, and
nothing before the checkpoint — counted where every frame is decoded.
"""

from repro import CheckpointConfig, PhoenixRuntime, RuntimeConfig
from repro.log import MessageRecord, log_manager
from repro.recovery import recovery_manager
from tests.conftest import Counter


def _checkpointed_crash():
    config = RuntimeConfig.optimized(
        checkpoint=CheckpointConfig(
            context_state_every_n_calls=4,
            process_checkpoint_every_n_saves=2,
        )
    )
    runtime = PhoenixRuntime(config=config)
    runtime.external_client_machine = "alpha"
    process = runtime.spawn_process("p", machine="beta")
    counters = [process.create_component(Counter) for __ in range(3)]
    for __ in range(10):
        for counter in counters:
            counter.increment()
    process.log.force()
    runtime.crash_process(process)
    return runtime, process, counters


def test_pass_one_decodes_only_its_kinds_past_the_checkpoint(monkeypatch):
    runtime, process, counters = _checkpointed_crash()
    log = process.log
    published = log.read_well_known_lsn()
    assert published is not None and published > log.base_lsn
    past = [record for __, record in log.scan(published)]
    expected = [
        record
        for record in past
        if isinstance(record, recovery_manager._PASS_ONE_KINDS)
    ]
    assert any(isinstance(record, MessageRecord) for record in past)
    assert expected and len(expected) < len(past)

    decoded: list = []
    folding: list = []
    real_decode = log_manager.decode_record
    real_fold = recovery_manager.fold

    def counting_decode(payload):
        record = real_decode(payload)
        if folding:
            decoded.append(record)
        return record

    def watched_fold(*args, **kwargs):
        folding.append(True)
        try:
            return real_fold(*args, **kwargs)
        finally:
            folding.pop()

    monkeypatch.setattr(log_manager, "decode_record", counting_decode)
    monkeypatch.setattr(recovery_manager, "fold", watched_fold)
    runtime.ensure_recovered(process)
    assert decoded == expected
    assert [counter.value() for counter in counters] == [10, 10, 10]
