"""Span tracing installed from the benchmark's side of the API.

:func:`install` wraps the public entry points of each layer (class
methods and module functions) so that every call records a span: name,
start, end and the span that caused it.  Batch-granularity calls keep
their span (up to :data:`SPAN_CAP`); per-record calls fold into
per-name call counts, counters and accumulated time, because one span
per record would not fit in memory.

A span's self time is its duration minus the time covered by its child
spans.  The time a traced section spends outside every top-level span
is reported as uncovered.
"""

from __future__ import annotations

import functools
import json
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Callable, Dict, Iterator, List, Optional

#: Batch-granularity spans kept verbatim for the trace file.
SPAN_CAP = 100_000


class Tracer:
    """The open-span stack plus per-name self time and counters."""

    def __init__(self):
        self.stack: List[list] = []
        self.depth: Dict[str, int] = defaultdict(int)
        self.self_s: Dict[str, float] = defaultdict(float)
        self.counters: Dict[str, float] = defaultdict(float)
        self.spans: List[tuple] = []
        self.covered = 0.0

    def enter(self, name: str) -> list:
        outer = not self.depth[name]
        self.depth[name] += 1
        frame = [name, time.perf_counter(), 0.0, outer]
        self.stack.append(frame)
        return frame

    def leave(self, frame: list, keep_span: bool) -> None:
        end = time.perf_counter()
        stack = self.stack
        stack.pop()  # wrapped calls nest strictly: frame is on top
        name, start, child, _outer = frame
        self.depth[name] -= 1
        duration = end - start
        self.self_s[name] += duration - child
        if stack:
            stack[-1][2] += duration
            parent = stack[-1][0]
        else:
            self.covered += duration
            parent = None
        if keep_span and len(self.spans) < SPAN_CAP:
            self.spans.append((name, start, end, parent))

    def peak(self, key: str, value: float) -> None:
        if value > self.counters.get(key, 0):
            self.counters[key] = value

    @contextmanager
    def span(self, name: str):
        """A span around the benchmark's own calls into a layer."""
        frame = self.enter(name)
        try:
            yield
        finally:
            self.leave(frame, True)

    def write_spans(self, path: str) -> None:
        with open(path, "w") as handle:
            for name, start, end, parent in self.spans:
                handle.write(json.dumps(
                    {"name": name, "start": start, "end": end, "parent": parent}
                ) + "\n")


class TimedIterator:
    """Times each ``next`` of a wrapped iterator as a folded span."""

    def __init__(self, tracer: Tracer, name: str, inner: Iterator,
                 counter: Optional[str] = None):
        self._tracer = tracer
        self._name = name
        self._inner = iter(inner)
        self._counter = counter

    def __iter__(self):
        return self

    def __next__(self):
        tracer = self._tracer
        frame = tracer.enter(self._name)
        try:
            item = next(self._inner)
        finally:
            tracer.leave(frame, False)
        if self._counter is not None:
            tracer.counters[self._counter] += 1
        return item


def wrap(tracer: Tracer, name: str, fn: Callable, keep_span: bool = True,
         before: Optional[Callable] = None,
         after: Optional[Callable] = None) -> Callable:
    """``fn`` inside a span named ``name``.

    ``before(args)`` runs ahead of the call and its value is handed to
    ``after(tracer, token, args, result, outer)``, which does the
    layer's counting; ``outer`` is true when no span of the same name
    encloses this one, so nested calls of one layer count once.
    """

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        token = before(args) if before is not None else None
        frame = tracer.enter(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.leave(frame, keep_span)
        if after is not None:
            after(tracer, token, args, result, frame[3])
        return result

    traced.__wrapped_by_perfbench__ = True
    return traced


def _patch(tracer, owner, attr, name, **options) -> None:
    original = getattr(owner, attr)
    if getattr(original, "__wrapped_by_perfbench__", False):
        return
    setattr(owner, attr, wrap(tracer, name, original, **options))


def _patch_iter(tracer, owner, attr, name, counter=None,
                keep_span: bool = False) -> None:
    """Wrap a function that returns an iterator: the call itself and
    each later ``next`` are spans of ``name``."""
    original = getattr(owner, attr)
    if getattr(original, "__wrapped_by_perfbench__", False):
        return

    @functools.wraps(original)
    def traced(*args, **kwargs):
        frame = tracer.enter(name)
        try:
            result = original(*args, **kwargs)
        finally:
            tracer.leave(frame, keep_span)
        return TimedIterator(tracer, name, result, counter)

    traced.__wrapped_by_perfbench__ = True
    setattr(owner, attr, traced)


def _count(key: str, amount: Callable = lambda args, result: 1,
           outer_only: bool = True) -> Callable:
    def after(tracer, _token, args, result, outer):
        if outer or not outer_only:
            tracer.counters[key] += amount(args, result)
    return after


def _size(args, result) -> int:
    return len(args[1])


def install(tracer: Tracer) -> None:
    """Wrap every layer's public entry points.  Idempotent."""
    from repro import store as store_pkg
    from repro.analysis.severity_eval import SeverityCrossTab
    from repro.core.filtering import SpatioTemporalFilter
    from repro.core.tagging import Tagger
    from repro.engine import path as path_mod
    from repro.engine import stages
    from repro.logio import reader as reader_mod
    from repro.logio.stats import StatsCollector
    from repro.parallel.sharded import ShardedTagger
    from repro.reporting import tables
    from repro.resilience import durability, shedding
    from repro.resilience.deadletter import DeadLetterQueue
    from repro.service import persistence, router, stats, tenant
    from repro.simulation.generator import LogGenerator
    from repro.store import columnar, replay, sink
    from repro.streaming.stage import PredictionStage
    from repro import cli

    # -- simulation -------------------------------------------------------
    original_generate = LogGenerator.generate
    if not getattr(original_generate, "__wrapped_by_perfbench__", False):
        def generate(self):
            with tracer.span("simulation.generate"):
                generated = original_generate(self)
            generated.records = TimedIterator(
                tracer, "simulation.generate", generated.records,
                "simulation.generate.records",
            )
            return generated
        generate.__wrapped_by_perfbench__ = True
        LogGenerator.generate = generate

    # -- logio ------------------------------------------------------------
    _patch_iter(tracer, reader_mod, "read_log", "logio.read",
                counter="logio.read.lines")

    def stats_before(args):
        stats = args[0].stats
        return stats.raw_bytes, stats.compressed_bytes

    def stats_after(records):
        def after(tracer, token, args, result, outer):
            stats = args[0].stats
            counters = tracer.counters
            if records is not None:
                counters["logio.stats.records"] += records(args)
            counters["logio.stats.raw_bytes"] += stats.raw_bytes - token[0]
            counters["logio.stats.compressed_bytes"] += (
                stats.compressed_bytes - token[1]
            )
        return after

    _patch(tracer, StatsCollector, "observe_batch", "logio.stats",
           before=stats_before, after=stats_after(lambda a: len(a[1])))
    _patch(tracer, StatsCollector, "observe_record", "logio.stats",
           keep_span=False, before=stats_before,
           after=stats_after(lambda a: 1))
    _patch(tracer, StatsCollector, "finish", "logio.stats",
           before=stats_before, after=stats_after(None))

    # -- core -------------------------------------------------------------
    def tag_one(tracer, _t, args, result, outer):
        tracer.counters["core.tag.attempts"] += 1
        if result is not None:
            tracer.counters["core.tag.hits"] += 1

    def tag_many(tracer, _t, args, result, outer):
        tracer.counters["core.tag.attempts"] += len(args[1])
        tracer.counters["core.tag.hits"] += len(result)

    _patch(tracer, Tagger, "match_text", "core.tag", keep_span=False,
           after=tag_one)
    _patch(tracer, Tagger, "match_texts", "core.tag", after=tag_many)

    def offered(tracer, _t, args, result, outer):
        tracer.counters["core.filter.offers"] += 1
        if result:
            tracer.counters["core.filter.kept"] += 1

    _patch(tracer, SpatioTemporalFilter, "offer", "core.filter",
           keep_span=False, after=offered)

    # -- analysis ---------------------------------------------------------
    _patch(tracer, SeverityCrossTab, "add", "analysis.severity",
           keep_span=False, after=_count("analysis.severity.records"))
    _patch(tracer, SeverityCrossTab, "add_batch", "analysis.severity",
           after=_count("analysis.severity.records", _size))

    # -- engine -----------------------------------------------------------
    AlertPath = path_mod.AlertPath

    def per_record(tracer, _t, args, result, outer):
        tracer.counters["engine.path.per_record"] += 1
        if outer:
            tracer.counters["engine.path.records"] += 1

    _patch(tracer, AlertPath, "process", "engine.path", keep_span=False,
           after=per_record)
    for attr in ("process_batch", "process_tagged_batch",
                 "tag_batch_admitted"):
        _patch(tracer, AlertPath, attr, "engine.path",
               after=_count("engine.path.records", _size))
    sink_classes = (stages.AlertListSink, stages.ObservingSink,
                    sink.ColumnarSink, sink.StoreTeeSink,
                    tenant.ServiceAlertSink)
    for klass in sink_classes:
        _patch(tracer, klass, "emit", "engine.sink", keep_span=False,
               after=_count("engine.sink.alerts"))
        _patch(tracer, klass, "emit_batch", "engine.sink",
               after=_count("engine.sink.alerts", _size))

    # -- resilience -------------------------------------------------------
    _patch(tracer, AlertPath, "snapshot", "resilience.checkpoint",
           after=_count("resilience.checkpoint.count"))

    def wrote(tracer, _t, args, result, outer):
        data = args[2] if len(args) > 2 else b""
        counters = tracer.counters
        counters["resilience.durable.bytes"] += len(data)
        if len(args) < 4 or args[3]:
            counters["resilience.durable.fsyncs"] += 1
        if args[1].endswith(".ckpt.tmp"):
            # The generation file CheckpointStore.save writes first.
            if "resilience.checkpoint.bytes_first" not in counters:
                counters["resilience.checkpoint.bytes_first"] = len(data)
            counters["resilience.checkpoint.bytes_last"] = len(data)

    _patch(tracer, durability.CheckpointStore, "save", "resilience.durable")
    _patch(tracer, durability.RealFilesystem, "write_bytes",
           "resilience.durable", after=wrote)
    _patch(tracer, durability.RealFilesystem, "fsync_dir",
           "resilience.durable", after=_count("resilience.durable.fsyncs"))

    def wal_before(args):
        handle = args[0]._handle
        return handle.tell() if handle is not None else 0

    def wal_appended(tracer, token, args, result, outer):
        handle = args[0]._handle
        after_bytes = handle.tell() if handle is not None else 0
        counters = tracer.counters
        counters["resilience.wal.appends"] += 1
        counters["resilience.wal.bytes"] += (
            after_bytes - token if after_bytes >= token else after_bytes
        )

    _patch(tracer, durability.SegmentedWal, "append", "resilience.wal",
           keep_span=False, before=wal_before, after=wal_appended)
    _patch(tracer, durability.SegmentedWal, "sync", "resilience.wal")
    _patch(tracer, durability._AppendHandle, "sync", "resilience.wal",
           after=_count("resilience.wal.syncs", outer_only=False))

    def decided(tracer, _t, args, result, outer):
        tracer.counters["resilience.shed.decisions"] += 1
        if result[0] == shedding.SHED:
            tracer.counters["resilience.shed.shed"] += 1

    for klass in (shedding.PriorityShedPolicy, shedding.ChatterOnlyShedPolicy,
                  shedding.NoShedPolicy):
        _patch(tracer, klass, "decide", "resilience.shed", keep_span=False,
               after=decided)
    for klass in (DeadLetterQueue, persistence.JournaledDeadLetterQueue):
        _patch(tracer, klass, "put", "resilience.deadletter", keep_span=False,
               after=_count("resilience.deadletter.count"))

    # -- store ------------------------------------------------------------
    Writer = columnar.ColumnarStoreWriter
    _patch(tracer, Writer, "append", "store.write", keep_span=False,
           after=_count("store.write.rows", outer_only=False))
    _patch(tracer, Writer, "append_batch", "store.write")
    _patch(tracer, Writer, "commit", "store.commit",
           after=_count("store.commit.count", outer_only=False))
    _patch(tracer, Writer, "finalize", "store.commit")
    _patch(tracer, store_pkg, "load_result", "store.read")
    _patch(tracer, replay, "load_result", "store.read")
    Store = columnar.ColumnarStore
    _patch_iter(tracer, Store, "iter_rows", "store.read",
                counter="store.read.rows")
    _patch_iter(tracer, Store, "iter_alerts", "store.read")
    for attr in ("timestamps", "category_timestamps", "count_by_category"):
        _patch(tracer, Store, attr, "store.read")

    # -- streaming --------------------------------------------------------
    _patch(tracer, PredictionStage, "observe", "streaming.observe",
           keep_span=False, after=_count("streaming.observe.alerts"))
    _patch(tracer, PredictionStage, "observe_batch", "streaming.observe",
           after=_count("streaming.observe.alerts", lambda a, r: len(a[1])))
    _patch(tracer, PredictionStage, "finish", "streaming.observe")

    # -- parallel ---------------------------------------------------------
    _patch_iter(tracer, ShardedTagger, "tag_batches", "parallel.boundary")

    # -- reporting --------------------------------------------------------
    _patch(tracer, tables, "all_tables", "reporting.tables")
    _patch(tracer, cli, "cmd_report", "reporting.report")

    # -- service ----------------------------------------------------------
    _patch(tracer, router.TenantRouter, "ingest_line", "service.ingest",
           keep_span=False, after=_count("service.ingest.lines"))
    _patch(tracer, router, "parse_native_line", "service.parse",
           keep_span=False)
    _patch(tracer, tenant.Tenant, "offer", "service.offer", keep_span=False)
    _patch(tracer, stats.StatsServer, "_answer", "service.stats",
           after=_count("service.stats.requests"))


def derive(tracer: Tracer, records: int) -> Dict[str, float]:
    """The per-layer metrics of a finished trace: every counter, every
    span name's self time as ``<name>.self_s``, and the ratios.
    ``records`` is the number of input records (serve: wire lines)."""
    counters = tracer.counters
    metrics = {f"{name}.self_s": t for name, t in tracer.self_s.items()}
    metrics.update(counters)
    metrics["startup.import_s"] = tracer.self_s.get("startup.import", 0.0)
    metrics["core.tag.attempts_per_record"] = (
        counters.get("core.tag.attempts", 0) / records if records else 0.0
    )
    path_records = counters.get("engine.path.records", 0)
    metrics["engine.path.per_record_frac"] = (
        counters.get("engine.path.per_record", 0) / path_records
        if path_records else 0.0
    )
    return metrics
