"""Batch flow through the stage engine: the sink seam and the
batch/per-record differential.

:class:`AlertPath` moves records through one batch core
(``process_batch``/``process_tagged_batch``) and hands each batch's
``(alert, kept)`` pairs to the sink in one ``emit_batch`` call.  These
tests pin:

* every sink's ``emit_batch`` equals its per-pair ``emit`` loop, and
  the path makes one ``emit_batch`` call per batch;
* ``AlertPath.process_batch`` over the golden corpus produces results
  identical to the per-record ``process`` loop, batch size by batch size;
* strict batch mode and dead-letter mode agree where both are defined.
"""

from __future__ import annotations

import pytest

from repro.core.tagging import RulesetHandle
from repro.engine.path import AlertPath
from repro.engine.stages import Sink
from repro.logmodel.record import LogRecord
from repro.resilience.deadletter import DeadLetterQueue

from .conftest import ALL_SYSTEMS, assert_equivalent


def record(t=1.0, body="ok", source="n1", system="liberty"):
    return LogRecord(timestamp=t, source=source, facility="kernel",
                     body=body, system=system)


class RecordingBatchSink:
    def __init__(self):
        self.pairs = []
        self.batches = 0

    def emit(self, alert, kept):
        self.pairs.append((alert, kept))

    def emit_batch(self, pairs):
        self.batches += 1
        self.pairs.extend(pairs)


class TestProtocolDispatch:
    def test_batch_sink_gets_one_call(self):
        handle = RulesetHandle("liberty")
        records = [
            record(t=float(i), body=cat.example)
            for i, cat in enumerate(handle.resolve()) if cat.example
        ]
        path = AlertPath("liberty")
        path.sink = sink = RecordingBatchSink()
        path.process_batch(records)
        tagged = [r for r in records if path.tagger.tag(r) is not None]
        assert tagged, "fixture must produce alerts"
        assert sink.batches == 1
        assert [alert.record for alert, _kept in sink.pairs] == tagged
        assert isinstance(sink, Sink)

    def test_alert_list_sink_is_a_batch_sink(self):
        path = AlertPath("liberty")
        assert isinstance(path.sink, Sink)


class TestEmitBatchEquivalence:
    def _pairs(self, system="liberty"):
        handle = RulesetHandle(system)
        tagger = handle.tagger()
        records = [
            record(t=float(i), body=cat.example or "quiet", system=system)
            for i, cat in enumerate(handle.resolve())
        ]
        pairs = []
        for i, rec in enumerate(records):
            alert = tagger.tag(rec)
            if alert is not None:
                pairs.append((alert, i % 2 == 0))
        return pairs

    def test_alert_list_sink_batch_equals_loop(self):
        pairs = self._pairs()
        assert pairs, "fixture must produce alerts"
        a = AlertPath("liberty").sink
        b = AlertPath("liberty").sink
        a.emit_batch(pairs)
        for alert, kept in pairs:
            b.emit(alert, kept)
        assert a.raw_alerts == b.raw_alerts
        assert a.filtered_alerts == b.filtered_alerts
        assert a.report.raw_total == b.report.raw_total
        assert a.report.filtered_total == b.report.filtered_total
        assert a.report.by_category == b.report.by_category

    def test_service_sink_batch_equals_loop(self):
        from repro.core.filtering import FilterReport
        from repro.service.accounting import TenantCounters
        from repro.service.tenant import ServiceAlertSink

        pairs = self._pairs()
        a = ServiceAlertSink(FilterReport(threshold=5.0), TenantCounters(), tail=64)
        b = ServiceAlertSink(FilterReport(threshold=5.0), TenantCounters(), tail=64)
        a.emit_batch(pairs)
        for alert, kept in pairs:
            b.emit(alert, kept)
        assert list(a.raw_alerts) == list(b.raw_alerts)
        assert list(a.filtered_alerts) == list(b.filtered_alerts)
        assert a.counters.alerts_raw == b.counters.alerts_raw
        assert a.counters.alerts_filtered == b.counters.alerts_filtered


class TestBatchPathDifferential:
    """process_batch must be observationally identical to the loop."""

    @pytest.mark.parametrize("system", ALL_SYSTEMS)
    @pytest.mark.parametrize("batch_size", [1, 7, 4096])
    def test_strict_batches_equal_per_record(
        self, golden_records, serial_baselines, system, batch_size
    ):
        records = golden_records[system]
        path = AlertPath(system)
        for start in range(0, len(records), batch_size):
            path.process_batch(records[start:start + batch_size])
        assert_equivalent(path.result(), serial_baselines[system])

    @pytest.mark.parametrize("system", ALL_SYSTEMS)
    def test_dead_letter_batches_equal_per_record(
        self, golden_records, system
    ):
        records = golden_records[system]
        a = AlertPath(system, dead_letters=DeadLetterQueue())
        b = AlertPath(system, dead_letters=DeadLetterQueue())
        a.process_batch(records)
        for rec in records:
            b.process(rec)
        assert_equivalent(a.result(), b.result())
        assert a.dead_letters.quarantined == b.dead_letters.quarantined

    def test_empty_batch_is_a_no_op(self):
        path = AlertPath("liberty")
        path.process_batch([])
        assert path.consumed == 0
        assert path.result().raw_alert_count == 0

    def test_tagged_batch_with_errors_falls_back(self):
        """process_tagged_batch with a worker-reported error must raise
        exactly where the per-record loop would (strict mode)."""
        from repro.core.tagging import BatchOutcome
        from repro.parallel.sharded import TaggerErrorReplay

        path = AlertPath("liberty")
        records = [record(t=1.0), record(t=2.0)]
        outcome = BatchOutcome(
            size=2, hits=(), errors=((1, "RuntimeError('boom')"),),
        )
        with pytest.raises(TaggerErrorReplay):
            path.process_tagged_batch(records, outcome)
        assert path.consumed == 2  # the clean record was consumed first
