"""Serial checkpoint cadence under quarantine.

:class:`CheckpointManager` snapshots every ``every`` input records, and
the serial driver's barrier is any record, so every snapshot must land
on an exact multiple of ``every`` — also when the record that makes the
snapshot due is quarantined at admission.  A durable resume from such a
snapshot must land byte-identical to an uninterrupted run.
"""

from __future__ import annotations

import pytest

from repro import api
from repro.logmodel.record import LogRecord
from repro.resilience.checkpoint import CheckpointManager
from repro.resilience.deadletter import DeadLetterQueue

from .conftest import result_signature

SYSTEM = "liberty"
EVERY = 50
TOKEN = "cadence"
CRASH_AT = 230


class MidStreamCrash(Exception):
    pass


class RecordingManager(CheckpointManager):
    """Remembers where each snapshot it took was consumed."""

    def __post_init__(self):
        super().__post_init__()
        self.seen = []

    def maybe(self, records_consumed, snapshot):
        taken = super().maybe(records_consumed, snapshot)
        if taken:
            self.seen.append(self.latest.records_consumed)
        return taken


def crash_after(records, at):
    for index, record in enumerate(records):
        if index == at:
            raise MidStreamCrash(f"injected crash at record {at}")
        yield record


@pytest.fixture(scope="module")
def stream(golden_records):
    """The golden stream with an invalid record at every position whose
    consumption makes a snapshot due (1-based multiples of ``EVERY``)."""
    records = list(golden_records[SYSTEM])
    for due in range(EVERY, len(records) + 1, EVERY):
        records[due - 1] = LogRecord(
            timestamp=float("nan"), source="n1", facility="kernel",
            body="bad clock", system=SYSTEM,
        )
    return records


def _run(records, state_dir):
    manager = RecordingManager(every=EVERY)
    result = api.run_stream(
        records, SYSTEM, dead_letters=DeadLetterQueue(),
        checkpointer=manager, state_dir=state_dir, state_token=TOKEN,
    )
    return result, manager


def _letters(result):
    return [
        (letter.reason, letter.detail, repr(letter.record))
        for letter in result.dead_letters.snapshot().letters
    ]


def test_snapshots_land_on_exact_multiples(stream, tmp_path):
    _result, manager = _run(iter(stream), str(tmp_path / "whole"))
    assert manager.seen == list(range(EVERY, len(stream) + 1, EVERY))


def test_durable_resume_is_byte_identical(stream, tmp_path):
    baseline, _manager = _run(iter(stream), None)
    state_dir = str(tmp_path / "state")
    with pytest.raises(MidStreamCrash):
        _run(crash_after(stream, CRASH_AT), state_dir)
    resumed, manager = _run(iter(stream), state_dir)
    assert all(seen % EVERY == 0 for seen in manager.seen)
    assert manager.seen[0] == (CRASH_AT // EVERY + 1) * EVERY
    assert result_signature(resumed) == result_signature(baseline)
    assert _letters(resumed) == _letters(baseline)
    assert resumed.dead_letters.by_reason == baseline.dead_letters.by_reason
    assert resumed.checkpoints.taken == baseline.checkpoints.taken
