"""The generated record stream is pinned against a reference assembly.

The reference below is a test-only copy of the generator's historical
record assembly: one Python generator per background slice and per
incident, merged by ``heapq.merge`` (through :class:`Collector`).  It is
driven from the same :class:`LogGenerator` planning, so the comparison is
made in one process against one numpy build — a committed digest would
break on another numpy version, this oracle does not.

Every record must match field for field (``corrupted`` and ``raw``
included), for whole streams, under the volume and corruption overrides,
and for a prefix of a partially consumed stream.  The generator's
streaming memory must stay within 1.1x the reference's.
"""

from __future__ import annotations

import itertools
import tracemalloc
from typing import Iterator, Optional

import numpy as np
import pytest

from repro.logmodel.record import Channel, LogRecord
from repro.simulation.background import pool_for
from repro.simulation.collector import Collector, merge_streams
from repro.simulation.corruptor import Corruptor
from repro.simulation import generator
from repro.simulation.generator import LogGenerator, _quantize
from repro.systems.specs import SYSTEMS

#: The benchmark's study volume; BG/L runs at 100x, as ``repro study`` does.
STUDY_SCALE = 5e-5


def study_scale(system: str, scale: float = STUDY_SCALE) -> float:
    return scale * (100 if system == "bgl" else 1)


# -- the reference assembly ---------------------------------------------------


def _alert_record(gen, cat, t, source, body) -> LogRecord:
    if cat.channel is Channel.RAS_TCP:
        body = f"src:::{source} svc:::{source} {body}"
    return LogRecord(
        timestamp=_quantize(t, cat.channel),
        source=source,
        facility=cat.facility,
        body=body,
        system=gen.system,
        severity=cat.severity,
        channel=cat.channel,
    )


def _incident_stream(gen, incident) -> Iterator[LogRecord]:
    cat = gen._categories[incident.category]
    rng = gen._rng_bodies
    gap_mean = min(1.2, max(0.08, 600.0 / incident.multiplicity))
    t = incident.start
    n_sources = len(incident.sources)
    body = cat.make_body(rng)
    for k in range(incident.multiplicity):
        source = incident.sources[k % n_sources]
        yield _alert_record(gen, cat, t, source, body)
        gap = float(rng.exponential(gap_mean))
        t += min(4.0, max(0.05, gap))


def _background_slice(gen, severity, channel, count) -> Iterator[LogRecord]:
    n = round(count * gen.background_scale)
    if n <= 0:
        return
    rng = gen._rng_background
    times = gen._background_times(rng, n)
    pool = pool_for(gen.system, severity, channel)
    nodes, weights = zip(*gen.cluster.chattiness())
    probabilities = np.asarray(weights, dtype=float)
    probabilities /= probabilities.sum()
    node_idx = rng.choice(len(nodes), size=n, p=probabilities)
    template_idx = rng.integers(0, len(pool), size=n)
    for i in range(n):
        facility, body = pool[int(template_idx[i])]
        source = nodes[int(node_idx[i])].name
        record_body = body
        if channel is Channel.RAS_TCP:
            record_body = f"src:::{source} svc:::{source} {body}"
        yield LogRecord(
            timestamp=_quantize(float(times[i]), channel),
            source=source,
            facility=facility,
            body=record_body,
            system=gen.system,
            severity=severity,
            channel=channel,
        )


def reference_records(system: str, scale: float, seed: int, **overrides):
    """The historical assembly over a fresh generator's own planning."""
    gen = LogGenerator(system, scale=scale, seed=seed, **overrides)
    incidents = gen.build_incidents(gen.build_jobs(), gen.build_timeline())
    corruptor = (
        Corruptor(gen._rng_corrupt, rate=gen.corruption)
        if gen.corruption > 0
        else None
    )
    collector = Collector(gen.spec.log_server, corruptor=corruptor)
    background = merge_streams(*(
        _background_slice(gen, spec.severity, spec.channel, spec.count)
        for spec in gen.scenario.background
    ))
    streams = [background]
    streams.extend(_incident_stream(gen, inc) for inc in incidents)
    return collector.collect(*streams)


def generated_records(system: str, scale: float, seed: int, **overrides):
    return LogGenerator(system, scale=scale, seed=seed, **overrides).generate().records


# -- comparison ----------------------------------------------------------------


def _fields(record: LogRecord) -> tuple:
    return (
        record.timestamp, record.source, record.facility, record.body,
        record.system, record.severity, record.channel, record.corrupted,
        record.raw,
    )


def assert_same_stream(actual, expected, limit: Optional[int] = None) -> int:
    """Field-for-field equality; returns the number of records compared."""
    if limit is not None:
        actual = itertools.islice(actual, limit)
        expected = itertools.islice(expected, limit)
    missing = object()
    count = 0
    for got, want in itertools.zip_longest(actual, expected, fillvalue=missing):
        assert got is not missing, f"stream ends early at record {count}"
        assert want is not missing, f"stream runs past the reference at {count}"
        assert _fields(got) == _fields(want), f"record {count} differs"
        count += 1
    return count


# -- tests ---------------------------------------------------------------------


@pytest.mark.parametrize("seed", [1, 7])
@pytest.mark.parametrize("system", sorted(SYSTEMS))
def test_full_stream_matches_reference(system, seed):
    scale = study_scale(system)
    compared = assert_same_stream(
        generated_records(system, scale, seed),
        reference_records(system, scale, seed),
    )
    assert compared > 1000


@pytest.mark.parametrize(
    "overrides",
    [
        {"background_scale": 0},
        {"corruption": 0},
        {"incident_scale": 0.5},
        {"corruption": 0.05, "background_scale": 3e-6},
    ],
    ids=["no-background", "no-corruption", "half-incidents", "dense-corruption"],
)
@pytest.mark.parametrize("system", ["bgl", "redstorm", "spirit"])
def test_overrides_match_reference(system, overrides):
    scale = study_scale(system, 2e-5)
    compared = assert_same_stream(
        generated_records(system, scale, 3, **overrides),
        reference_records(system, scale, 3, **overrides),
    )
    assert compared > 0


def test_corrupted_records_are_compared():
    records = list(generated_records("thunderbird", STUDY_SCALE, 1))
    assert any(record.corrupted for record in records)


def test_stream_is_lazy_and_prefix_matches():
    records = generated_records("liberty", STUDY_SCALE, 7)
    assert iter(records) is records  # an iterator, not a materialized list
    assert assert_same_stream(
        records, reference_records("liberty", STUDY_SCALE, 7), limit=1000
    ) == 1000


def _streaming_peak(records_factory) -> int:
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        for _record in records_factory():
            pass
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_streaming_memory_within_reference():
    scale = 3e-4
    reference = _streaming_peak(lambda: reference_records("liberty", scale, 1))
    generated = _streaming_peak(lambda: generated_records("liberty", scale, 1))
    assert generated <= 1.1 * reference, (generated, reference)


@pytest.mark.parametrize("window", [1, 2, 3, 512])
def test_background_windows_keep_stable_order_under_ties(monkeypatch, window):
    """Dense ties and runs longer than a window: the windowed merge must
    still equal a stable sort of the slices by (timestamp, slice)."""
    monkeypatch.setattr(generator, "_WINDOW", window)
    rng = np.random.default_rng(11)
    gen = LogGenerator("redstorm", scale=2e-5, seed=1)
    pool = [("kernel", f"message {k}") for k in range(4)]
    names = [f"n{k}" for k in range(8)]
    sizes = [40, 0, 7, 25, 1]
    slices = [
        generator._BackgroundSlice(
            times=np.sort(rng.integers(0, 6, size=size)).astype(float),
            node_idx=rng.integers(0, len(names), size=size),
            template_idx=rng.integers(0, len(pool), size=size),
            pool=pool, names=names, severity=str(s), channel=Channel.SYSLOG_UDP,
        )
        for s, size in enumerate(sizes)
    ]
    expected = sorted(
        (
            record
            for piece in slices
            for record in piece.records("redstorm", 0, len(piece.times))
        ),
        key=lambda record: record.timestamp,
    )
    monkeypatch.setattr(gen, "_background_slices", lambda: slices)
    assert assert_same_stream(gen._background_records(), iter(expected)) == 73
