"""Quarantine differential: dead letters keep stream-position order.

A per-record loop quarantines each record at the step that fails it —
admission (``invalid-record``), tagging (``tagger-error``) or the
Algorithm 3.1 offer (``out-of-order``) — so the dead-letter queue reads
in stream order with the three reasons interleaved.  Every batch shape
of :class:`AlertPath`, and the serial and sharded drivers, must produce
exactly that sequence (reason, record, detail, order) and the same
result as the per-record loop.
"""

from __future__ import annotations

import pytest

from repro.core.rules import get_ruleset
from repro.core.tagging import Tagger
from repro.engine.drivers import SerialDriver, ShardedDriver
from repro.engine.path import AlertPath
from repro.logmodel.record import LogRecord
from repro.parallel.config import ParallelConfig
from repro.resilience.deadletter import (
    DeadLetterQueue,
    REASON_INVALID_RECORD,
    REASON_OUT_OF_ORDER,
    REASON_TAGGER_ERROR,
)

from .conftest import assert_equivalent

SYSTEM = "liberty"
POISON = "POISON"
#: A Liberty alert body (GM_LANAI), so a backwards copy reaches the filter.
ALERT_BODY = "GM: LANai is not running. Allowing port=0 open for debugging"
BATCH_SIZES = [1, 7, 4096]


class ExplodingTagger(Tagger):
    """The real Liberty rules, except that any text carrying the poison
    marker crashes the rules engine — per record and per batch alike."""

    def __init__(self):
        super().__init__(get_ruleset(SYSTEM))

    def match_text(self, text):
        if POISON in text:
            raise RuntimeError("rules engine crashed")
        return super().match_text(text)

    def match_texts(self, texts):
        if any(POISON in text for text in texts):
            raise RuntimeError("rules engine crashed")
        return super().match_texts(texts)


def _injected(base, poison):
    """``base`` with a bad record after every few clean ones: a
    non-finite timestamp, a poison body (when ``poison``), and an alert
    stamped before the whole stream, cycling so the reasons interleave
    inside a batch of 7 as well as across batches.  Returns the stream
    and the ``(position, reason)`` letters a per-record loop must
    produce."""
    kinds = [REASON_INVALID_RECORD, REASON_OUT_OF_ORDER]
    if poison:
        kinds.insert(1, REASON_TAGGER_ERROR)
    start = base[0].timestamp
    stream, expected = [], []
    for index, record in enumerate(base):
        stream.append(record)
        # Start after the first alerts so "backwards" means something.
        if index < 40 or index % 5:
            continue
        reason = kinds[len(expected) % len(kinds)]
        t = record.timestamp
        if reason == REASON_INVALID_RECORD:
            bad = LogRecord(timestamp=float("nan"), source="n1",
                            facility="kernel", body="bad clock",
                            system=SYSTEM)
        elif reason == REASON_TAGGER_ERROR:
            bad = LogRecord(timestamp=t, source="n1", facility="kernel",
                            body=f"{POISON} pill {index}", system=SYSTEM)
        else:
            bad = LogRecord(timestamp=start - 1000.0, source="n1",
                            facility="kernel", body=ALERT_BODY,
                            system=SYSTEM)
        expected.append((len(stream), reason))
        stream.append(bad)
    return stream, expected


def _letters(path, stream):
    """The dead-letter sequence as ``(position, reason, detail)``
    (records compared by identity: a NaN timestamp is never ``==``)."""
    position = {id(record): i for i, record in enumerate(stream)}
    return [
        (position[id(letter.record)], letter.reason, letter.detail)
        for letter in path.dead_letters.snapshot().letters
    ]


def _per_record(stream, tagger=None):
    path = AlertPath(SYSTEM, dead_letters=DeadLetterQueue(), tagger=tagger)
    for record in stream:
        if path.admit(record):
            path.process(record)
    return path


def _chunks(stream, size):
    return [stream[i:i + size] for i in range(0, len(stream), size)]


@pytest.fixture(scope="module")
def poisoned(golden_records):
    stream, expected = _injected(golden_records[SYSTEM], poison=True)
    reference = _per_record(stream, ExplodingTagger())
    return stream, expected, reference


@pytest.fixture(scope="module")
def unpoisoned(golden_records):
    stream, expected = _injected(golden_records[SYSTEM], poison=False)
    return stream, expected, _per_record(stream)


class TestReference:
    def test_per_record_loop_interleaves_all_three_reasons(self, poisoned):
        stream, expected, reference = poisoned
        letters = _letters(reference, stream)
        assert [(p, r) for p, r, _d in letters] == expected
        reasons = [r for _p, r in expected]
        assert reasons[:3] == [REASON_INVALID_RECORD, REASON_TAGGER_ERROR,
                               REASON_OUT_OF_ORDER]
        assert reference.consumed == len(stream)


class TestBatchShapes:
    @pytest.mark.parametrize("batch_size", BATCH_SIZES)
    def test_process_batch(self, poisoned, batch_size):
        stream, _expected, reference = poisoned
        path = AlertPath(SYSTEM, dead_letters=DeadLetterQueue(),
                         tagger=ExplodingTagger())
        for chunk in _chunks(stream, batch_size):
            path.process_batch(chunk)
        assert _letters(path, stream) == _letters(reference, stream)
        assert_equivalent(path.result(), reference.result())
        assert path.consumed == reference.consumed

    @pytest.mark.parametrize("batch_size", BATCH_SIZES)
    def test_process_tagged_batch(self, poisoned, batch_size):
        """The sharded shape: each raw batch's outcome as a worker would
        compute it (workers run the registered rules, so the poison is
        simulated by tagging in process)."""
        stream, _expected, reference = poisoned
        tagger = ExplodingTagger()
        path = AlertPath(SYSTEM, dead_letters=DeadLetterQueue())
        for chunk in _chunks(stream, batch_size):
            path.process_tagged_batch(chunk, tagger.tag_batch(chunk))
        assert _letters(path, stream) == _letters(reference, stream)
        assert_equivalent(path.result(), reference.result())
        assert path.consumed == reference.consumed


class TestDrivers:
    def test_serial_driver(self, poisoned):
        stream, _expected, reference = poisoned
        path = AlertPath(SYSTEM, dead_letters=DeadLetterQueue(),
                         tagger=ExplodingTagger())
        SerialDriver().run(iter(stream), path)
        assert _letters(path, stream) == _letters(reference, stream)
        assert_equivalent(path.result(), reference.result())

    @pytest.mark.parametrize("batch_size", BATCH_SIZES)
    def test_serial_versus_sharded(self, unpoisoned, env_workers,
                                   batch_size):
        stream, expected, reference = unpoisoned
        assert [(p, r) for p, r, _d in _letters(reference, stream)] == \
            expected
        serial = AlertPath(SYSTEM, dead_letters=DeadLetterQueue())
        SerialDriver().run(iter(stream), serial)
        sharded = AlertPath(SYSTEM, dead_letters=DeadLetterQueue())
        config = ParallelConfig(workers=env_workers, batch_size=batch_size)
        ShardedDriver(config).run(iter(stream), sharded)
        for path in (serial, sharded):
            assert _letters(path, stream) == _letters(reference, stream)
            assert_equivalent(path.result(), reference.result())
            assert path.consumed == reference.consumed
