"""The semantics of the pipeline, expressed exactly once.

Section 3's pipeline is one chain: admission, Table 2 volume
statistics, expert-rule tagging, the severity cross-tab, and the
Algorithm 3.1 offer.  :class:`AlertPath` runs that chain in one private
batch core; drivers (:mod:`repro.engine.drivers`) decide *when* a batch
moves, the core decides *what* happens to it, so the serial, sharded,
bounded, and service schedules cannot drift apart semantically.

The public entries are thin calls into the core:

* :meth:`process_batch` — admit and run a batch, tagging in process
  through :meth:`Tagger.match_texts` (the serial driver);
* :meth:`process_tagged_batch` — the same, with the tag outcome a
  worker computed (the sharded drivers);
* :meth:`tag_batch_admitted` + :meth:`offer` — the bounded driver's tag
  and filter stages, split across its filter queue;
* :meth:`admit` + :meth:`process` — one record (the service tenant,
  whose unit of failure is one record).

Without a dead-letter queue the path is strict: a record a step cannot
process raises that step's exception.  With one it quarantines the
record instead.  One helper makes that decision, and a batch's dead
letters are queued in stream-position order, so ``invalid-record``,
``tagger-error`` and ``out-of-order`` letters interleave exactly as a
per-record loop interleaves them.

The path also owns resumability: :meth:`snapshot` captures every piece
of mutable state plus ``consumed`` (records pulled from the input
stream), and constructing a path with ``resume_from=`` restores it, so
checkpoint/resume works identically under every driver.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from operator import itemgetter
from typing import Dict, List, Optional, Sequence, Tuple

from ..core.filtering import (
    DEFAULT_THRESHOLD,
    FilterReport,
    OutOfOrderError,
    SpatioTemporalFilter,
)
from ..core.categories import Alert
from ..core.rules import get_ruleset
from ..core.tagging import BatchOutcome, Tagger
from ..analysis.severity_eval import SeverityCrossTab
from ..logio.stats import StatsCollector
from ..logmodel.record import LogRecord
from ..resilience.checkpoint import (
    PipelineCheckpoint,
    copy_report,
    copy_severity,
)
from ..resilience.deadletter import (
    DeadLetterQueue,
    REASON_INVALID_RECORD,
    REASON_OUT_OF_ORDER,
    REASON_TAGGER_ERROR,
)
from ..parallel.sharded import TaggerErrorReplay
from .result import PipelineResult
from .stages import AlertListSink, ObservingSink

#: How far back an alert timestamp may run (collector fan-in jitter,
#: syslog's one-second granularity) before it is quarantined rather than
#: filtered.  Matches the strict-monotonicity contract of Algorithm 3.1.
DEFAULT_REORDER_TOLERANCE = 1.0

#: A held dead letter: ``(position in batch, record, reason, detail)``.
_Letter = Tuple[int, LogRecord, str, str]


def _valid_record(record: LogRecord) -> bool:
    """Structural admission check: can downstream stages process this?"""
    try:
        if not math.isfinite(record.timestamp):
            return False
    except TypeError:
        return False
    return isinstance(record.body, str) and isinstance(record.source, str)


class AlertPath:
    """admit -> observe stats -> tag -> severity -> filter -> sink, as
    one stateful object shared by every driver.

    With ``dead_letters`` attached the path quarantines what it cannot
    process instead of raising; without a queue the historical strict
    behavior holds (admission admits everything, errors propagate).

    Pass ``resume_from`` (a :class:`PipelineCheckpoint`) to restore
    mid-stream state; the caller must also skip the consumed prefix of
    the re-presented stream (``islice(source, path.consumed, None)``).
    """

    def __init__(
        self,
        system: str,
        threshold: float = DEFAULT_THRESHOLD,
        dead_letters: Optional[DeadLetterQueue] = None,
        reorder_tolerance: float = DEFAULT_REORDER_TOLERANCE,
        resume_from: Optional[PipelineCheckpoint] = None,
        tagger: Optional[Tagger] = None,
        prediction: Optional[object] = None,
        store_writer: Optional[object] = None,
    ):
        self.system = system
        self.threshold = threshold
        self.dead_letters = dead_letters
        self.reorder_tolerance = reorder_tolerance
        self.tagger = tagger if tagger is not None else Tagger(get_ruleset(system))
        #: Optional prediction stage (duck-typed:
        #: :class:`repro.streaming.stage.PredictionStage`); when present
        #: the sink is wrapped so the stage observes every ruled-on
        #: alert, and its state rides the checkpoint wire.
        self.prediction = prediction
        #: Optional columnar store writer (duck-typed:
        #: :class:`repro.store.columnar.ColumnarStoreWriter`); when
        #: present the sink spills every ruled-on alert to disk instead
        #: of keeping Python lists, and the committed sequence watermark
        #: rides the checkpoint as ``store_state``.
        self.store_writer = store_writer

        if resume_from is not None:
            if resume_from.system != system:
                raise ValueError(
                    f"checkpoint is for {resume_from.system!r}, not {system!r}"
                )
            if resume_from.threshold != threshold:
                raise ValueError(
                    "checkpoint was taken with a different threshold"
                )
            self.stats_collector = resume_from.restore_stats()
            self.filter = resume_from.restore_filter()
            self.report = resume_from.restore_report()
            self.severity_tab = resume_from.restore_severity()
            raw = list(resume_from.raw_alerts)
            filtered = list(resume_from.filtered_alerts)
            self.corrupted = resume_from.corrupted_messages
            self.consumed = resume_from.records_consumed
            if dead_letters is not None:
                dead_letters.restore(resume_from.dead_letters)
            self.resumed_shed_state = resume_from.shed_state
            if prediction is not None:
                # getattr: checkpoints pickled before the field existed
                # restore as a fresh (empty) prediction stage.
                state = getattr(resume_from, "prediction_state", None)
                if state is not None:
                    prediction.load_state_dict(state)
        else:
            self.stats_collector = StatsCollector(system)
            self.filter = SpatioTemporalFilter(
                threshold, reorder_tolerance=reorder_tolerance
            )
            self.report = FilterReport(threshold=threshold)
            self.severity_tab = SeverityCrossTab()
            raw = []
            filtered = []
            self.corrupted = 0
            self.consumed = 0
            self.resumed_shed_state = None
        if store_writer is not None:
            from ..store.sink import ColumnarSink

            resume_seq = 0
            if resume_from is not None:
                # getattr: checkpoints pickled before the field existed.
                state = getattr(resume_from, "store_state", None)
                if state is None:
                    raise ValueError(
                        "checkpoint was taken without a columnar store; "
                        "resume it without store_dir"
                    )
                resume_seq = state["seq"]
            store_writer.begin(resume_seq)
            self.sink = ColumnarSink(self.report, store_writer)
        else:
            if resume_from is not None and getattr(
                resume_from, "store_state", None
            ) is not None:
                raise ValueError(
                    "checkpoint was taken with a columnar store; "
                    "resume it with the same store_dir"
                )
            self.sink = AlertListSink(self.report, raw, filtered)
        if prediction is not None:
            self.sink = ObservingSink(self.sink, prediction)

    # -- the public entries: thin calls into the core ----------------------

    @staticmethod
    def valid(record: LogRecord) -> bool:
        """Structural validity, with no side effects."""
        return _valid_record(record)

    def admit(self, record: LogRecord) -> bool:
        """Count one input record and quarantine it if it is structurally
        invalid; ``True`` when it proceeds to :meth:`process`."""
        self.consumed += 1
        return _valid_record(record) or not self._reject(
            None, 0, record, REASON_INVALID_RECORD)

    def process(self, record: LogRecord) -> None:
        """The chain after :meth:`admit` for one record (the service
        tenant's unit: its unit of failure is one record)."""
        self._run((record,), None, False)

    def process_batch(self, records: Sequence[LogRecord]) -> None:
        """Admit and run a batch, tagging in process (the serial unit)."""
        self._run(records)

    def process_tagged_batch(
        self,
        records: Sequence[LogRecord],
        outcome: BatchOutcome,
        admitted: bool = False,
    ) -> None:
        """Run a batch a worker tagged: ``outcome`` covers exactly
        ``records``, and its entries at positions admission rejects are
        ignored.  ``admitted`` skips admission for records that already
        passed :meth:`admit` (the bounded-sharded pump)."""
        self._run(records, outcome, admit=not admitted)

    def tag_batch_admitted(
        self, records: Sequence[LogRecord]
    ) -> List[Alert]:
        """Observe, tag, and tally admitted records, returning the alerts
        for the bounded filter stage to hand to :meth:`offer`."""
        hits = self._run(records, admit=False, offer=False)
        return [alert for _i, alert in hits]

    def offer(self, alerts: Sequence[Alert]) -> None:
        """The Algorithm 3.1 offers alone (the bounded filter stage)."""
        letters: List[_Letter] = []
        self._offer(list(enumerate(alerts)), range(len(alerts)), letters)
        self._post(letters)

    # -- the core ------------------------------------------------------------

    def _run(
        self,
        records: Sequence[LogRecord],
        outcome: Optional[BatchOutcome] = None,
        admit: bool = True,
        offer: bool = True,
    ) -> Sequence[Tuple[int, Alert]]:
        """admit -> observe -> tag -> severity -> offer -> emit, once per
        batch.  ``outcome`` is a worker's tag result (``None`` tags in
        process); ``offer=False`` stops after the severity tally.
        Returns the ``(index, alert)`` hits."""
        letters: List[_Letter] = []
        # positions[k] is the k-th surviving record's place in the batch.
        positions: Sequence[int] = range(len(records))
        if admit:
            self.consumed += len(records)
            if not all(map(_valid_record, records)):
                positions = [
                    i for i, record in enumerate(records)
                    if _valid_record(record) or not self._reject(
                        letters, i, record, REASON_INVALID_RECORD)
                ]
                records = [records[i] for i in positions]

        self.stats_collector.observe_batch(records)
        self.corrupted += sum(1 for r in records if r.corrupted)

        if outcome is None:
            hits, errors = self._tag(records)
        else:
            hits = outcome.hits
            errors = [(i, detail, TaggerErrorReplay(detail))
                      for i, detail in outcome.errors]
            if len(positions) < outcome.size:
                slot = {raw: k for k, raw in enumerate(positions)}
                hits = [(slot[i], a) for i, a in hits if i in slot]
                errors = [(slot[i], d, e) for i, d, e in errors if i in slot]

        # A record the rules engine crashed on skips the severity tab.
        tallied = records
        alert_at = [i for i, _alert in hits] if hits else []
        if errors:
            failed = sorted(i for i, _detail, _exc in errors)
            for i, detail, exc in errors:
                self._reject(letters, positions[i], records[i],
                             REASON_TAGGER_ERROR, detail, exc)
            skip = set(failed)
            tallied = [r for i, r in enumerate(records) if i not in skip]
            alert_at = [i - bisect_left(failed, i) for i in alert_at]
        self.severity_tab.add_batch(tallied, alert_at)

        if offer and hits:
            self._offer(hits, positions, letters)
        self._post(letters)
        return hits

    def _tag(self, records: Sequence[LogRecord]):
        """In-process tagging: one ruleset pass over the batch.  Only when
        it raises does :meth:`Tagger.tag_batch` run, to locate the
        records that raised; each error carries the original exception
        for strict mode to re-raise."""
        try:
            texts = [
                f"{r.facility}: {r.body}" if r.facility else r.body
                for r in records
            ]
            matched = self.tagger.match_texts(texts)
            from_record = Alert.from_record
            return [
                (i, from_record(records[i], category))
                for i, category in matched
            ] if matched else [], ()
        except Exception as exc:
            located = self.tagger.tag_batch(records)
            if not located.errors:
                raise
            return located.hits, [(i, d, exc) for i, d in located.errors]

    def _offer(self, hits, positions: Sequence[int],
               letters: List[_Letter]) -> None:
        """Offer ``(index, alert)`` hits in stream order, then emit every
        ruled-on pair to the sink in one call."""
        offer = self.filter.offer
        pairs = []
        for i, alert in hits:
            try:
                pairs.append((alert, offer(alert)))
            except OutOfOrderError as exc:
                self._reject(letters, positions[i], alert.record,
                             REASON_OUT_OF_ORDER, str(exc), exc)
        if pairs:
            self.sink.emit_batch(pairs)

    def _reject(
        self,
        letters: Optional[List[_Letter]],
        position: int,
        record: LogRecord,
        reason: str,
        detail: str = "",
        exc: Optional[BaseException] = None,
    ) -> bool:
        """The one strict-versus-quarantine decision, for a record a step
        failed.  Strict mode (no dead-letter queue) raises ``exc``, the
        step's own exception; admission has none, and strict admits
        everything.  Quarantine holds the letter for :meth:`_post` (or
        queues it at once when ``letters`` is ``None``).  Returns
        ``True`` when the record leaves the batch."""
        if self.dead_letters is None:
            if exc is not None:
                raise exc
            return False
        if letters is None:
            self.dead_letters.put(record, reason, detail)
        else:
            letters.append((position, record, reason, detail))
        return True

    def _post(self, letters: List[_Letter]) -> None:
        """Queue a batch's dead letters in stream-position order, so the
        three reasons interleave exactly as a per-record loop puts them
        (each record fails at most one step)."""
        if letters:
            letters.sort(key=itemgetter(0))
            put = self.dead_letters.put
            for _position, record, reason, detail in letters:
                put(record, reason, detail)

    # -- resumability ------------------------------------------------------

    def snapshot(
        self, shed_state: Optional[Dict[str, float]] = None
    ) -> PipelineCheckpoint:
        """Complete resumable state at the current record boundary.
        Drivers must only call this when every consumed record is fully
        accounted for (processed, quarantined, or shed): between core
        calls, or at a bounded driver's drained-queue barrier.

        A store-backed path commits the writer here, so every checkpoint
        is also a store commit barrier: the checkpoint's ``store_state``
        watermark never lands inside a committed page, which is what
        makes resume truncation page-granular.  The alert tuples travel
        empty in that mode — the column files are the durable copy."""
        if self.store_writer is not None:
            store_state = {"seq": self.store_writer.commit()}
            raw_alerts: tuple = ()
            filtered_alerts: tuple = ()
        else:
            store_state = None
            raw_alerts = tuple(self.sink.raw_alerts)
            filtered_alerts = tuple(self.sink.filtered_alerts)
        return PipelineCheckpoint(
            system=self.system,
            threshold=self.threshold,
            records_consumed=self.consumed,
            stats=self.stats_collector.snapshot(),
            filter_state=self.filter.state_dict(),
            report=copy_report(self.report),
            severity=copy_severity(self.severity_tab),
            raw_alerts=raw_alerts,
            filtered_alerts=filtered_alerts,
            corrupted_messages=self.corrupted,
            dead_letters=(
                self.dead_letters.snapshot() if self.dead_letters else None
            ),
            shed_state=shed_state,
            prediction_state=(
                self.prediction.state_dict()
                if self.prediction is not None
                else None
            ),
            store_state=store_state,
        )

    # -- finishing ---------------------------------------------------------

    def result(self, **extras) -> PipelineResult:
        """Finish the stats and assemble the :class:`PipelineResult`;
        ``extras`` carry driver-specific fields (``shard_stats``,
        ``overload``, ``generated``, ``checkpoints``)."""
        if self.prediction is not None and "prediction" not in extras:
            self.prediction.finish()
            extras["prediction"] = self.prediction.report()
        if self.store_writer is not None:
            self.store_writer.commit()
            extras.setdefault("store", self.store_writer.reader())
        return PipelineResult(
            system=self.system,
            stats=self.stats_collector.finish(),
            raw_alerts=self.sink.raw_alerts,
            filtered_alerts=self.sink.filtered_alerts,
            filter_report=self.report,
            severity_tab=self.severity_tab,
            corrupted_messages=self.corrupted,
            threshold=self.threshold,
            dead_letters=self.dead_letters,
            **extras,
        )
