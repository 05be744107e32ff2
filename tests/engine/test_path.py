"""Unit tests for :class:`repro.engine.path.AlertPath` — the one object
holding the semantics every driver shares."""

from __future__ import annotations

import pytest

from repro.core.rules import get_ruleset
from repro.core.tagging import BatchOutcome, Tagger
from repro.engine.drivers import SerialDriver
from repro.engine.path import AlertPath
from repro.logmodel.record import LogRecord
from repro.parallel.sharded import TaggerErrorReplay
from repro.resilience.deadletter import (
    DeadLetterQueue,
    REASON_INVALID_RECORD,
    REASON_OUT_OF_ORDER,
    REASON_TAGGER_ERROR,
)

from ..conftest import make_alert


def record(t=1.0, body="ok", source="n1"):
    return LogRecord(timestamp=t, source=source, facility="kernel",
                     body=body, system="liberty")


def invalid_record():
    return LogRecord(timestamp=float("nan"), source="n1",
                     facility="kernel", body="bad clock", system="liberty")


class ExplodingTagger(Tagger):
    def __init__(self):
        super().__init__(get_ruleset("liberty"))

    def match_text(self, text):
        raise RuntimeError("rules engine crashed")

    def match_texts(self, texts):
        raise RuntimeError("rules engine crashed")


def worker_error(rec, error="RuntimeError('boom')"):
    """A one-record batch as a worker reports a rules-engine crash."""
    return [rec], BatchOutcome(size=1, errors=((0, error),))


class TestAdmission:
    def test_valid_has_no_side_effects(self):
        path = AlertPath("liberty", dead_letters=DeadLetterQueue())
        assert not AlertPath.valid(invalid_record())
        assert AlertPath.valid(record())
        assert path.consumed == 0
        assert path.dead_letters.quarantined == 0

    def test_invalid_record_quarantined(self):
        dlq = DeadLetterQueue()
        path = AlertPath("liberty", dead_letters=dlq)
        assert path.admit(record()) is True
        assert path.admit(invalid_record()) is False
        assert path.consumed == 2
        assert dlq.by_reason.get(REASON_INVALID_RECORD) == 1

    def test_strict_mode_admits_everything(self):
        path = AlertPath("liberty")
        assert path.admit(invalid_record()) is True
        assert path.consumed == 1


class TestTagAndOffer:
    def test_tagger_error_quarantines_and_skips_severity(self):
        dlq = DeadLetterQueue()
        path = AlertPath("liberty", dead_letters=dlq,
                         tagger=ExplodingTagger())
        assert path.tag_batch_admitted([record()]) == []
        assert dlq.by_reason.get(REASON_TAGGER_ERROR) == 1
        assert not dict(path.severity_tab.messages)

    def test_tagger_error_strict_raises(self):
        path = AlertPath("liberty", tagger=ExplodingTagger())
        with pytest.raises(RuntimeError):
            path.process(record())

    def test_apply_tagged_error_strict_raises_replay(self):
        path = AlertPath("liberty")
        with pytest.raises(TaggerErrorReplay):
            path.process_tagged_batch(*worker_error(record()))

    def test_apply_tagged_error_quarantines(self):
        dlq = DeadLetterQueue()
        path = AlertPath("liberty", dead_letters=dlq)
        path.process_tagged_batch(*worker_error(record()))
        assert not path.sink.raw_alerts
        assert dlq.by_reason.get(REASON_TAGGER_ERROR) == 1

    def test_out_of_order_alert_quarantined(self):
        dlq = DeadLetterQueue()
        path = AlertPath("liberty", dead_letters=dlq)
        path.offer([make_alert(100.0, system="liberty")])
        path.offer([make_alert(50.0, system="liberty")])  # way backwards
        assert dlq.by_reason.get(REASON_OUT_OF_ORDER) == 1
        assert len(path.sink.raw_alerts) == 1

    def test_offer_feeds_sink_and_report(self):
        path = AlertPath("liberty")
        path.offer([make_alert(10.0, system="liberty"),
                    make_alert(10.5, category="CAT", system="liberty")])
        assert len(path.sink.raw_alerts) == 2
        assert path.report.raw_total == 2


class TestSnapshotResume:
    def test_mid_stream_snapshot_round_trips(self):
        records = [record(t=float(i), body=f"msg {i}") for i in range(40)]

        whole = AlertPath("liberty")
        SerialDriver().run(iter(records), whole)

        first = AlertPath("liberty")
        SerialDriver().run(iter(records[:25]), first)
        checkpoint = first.snapshot()
        assert checkpoint.records_consumed == 25

        second = AlertPath("liberty", resume_from=checkpoint)
        assert second.consumed == 25
        SerialDriver().run(iter(records[25:]), second)

        resumed_stats = second.stats_collector.finish()
        whole_stats = whole.stats_collector.finish()
        assert resumed_stats.messages == whole_stats.messages
        assert resumed_stats.raw_bytes == whole_stats.raw_bytes
        assert resumed_stats.compressed_bytes == whole_stats.compressed_bytes
        assert dict(second.severity_tab.messages) == \
            dict(whole.severity_tab.messages)
        assert second.consumed == whole.consumed

    def test_resume_rejects_wrong_system(self):
        path = AlertPath("liberty")
        checkpoint = path.snapshot()
        with pytest.raises(ValueError, match="liberty"):
            AlertPath("spirit", resume_from=checkpoint)

    def test_resume_rejects_wrong_threshold(self):
        path = AlertPath("liberty", threshold=5.0)
        checkpoint = path.snapshot()
        with pytest.raises(ValueError, match="threshold"):
            AlertPath("liberty", threshold=10.0, resume_from=checkpoint)

    def test_snapshot_carries_shed_state(self):
        path = AlertPath("liberty")
        checkpoint = path.snapshot(shed_state={"CAT": 12.5})
        assert checkpoint.shed_state == {"CAT": 12.5}
        resumed = AlertPath("liberty", resume_from=checkpoint)
        assert resumed.resumed_shed_state == {"CAT": 12.5}
