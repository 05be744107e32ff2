"""Bench P1: sharded-parallel tagging vs. the serial pipeline.

The parallel layer's contract has two halves: the output is *identical*
to the serial path (the spatio-temporal filter stays a single sequential
consumer, so Algorithm 3.1 is untouched), and throughput scales with
workers when cores exist to back them.  This bench measures both paths
on the same synthetic Liberty stream and asserts the first half
unconditionally; the second half is recorded, not asserted, because
speedup is a property of the host (see the cpu_count line in the
artifact — on a single-core runner the parallel path can only lose).

The committed perf trajectory lives in ``BENCH_pipeline.json``, emitted
by ``scripts/bench_report.py`` at the full 1M-record size; this bench is
the fast pytest-benchmark variant that runs with the rest of the suite.
"""

import os
import time

from repro import api
from repro.core.tagging import RulesetHandle
from repro.logmodel.record import LogRecord
from repro.parallel import ParallelConfig
from repro.resilience.backpressure import BackpressureConfig

from _bench_utils import write_artifact

SYSTEM = "liberty"
N_RECORDS = int(100_000 * float(os.environ.get("REPRO_BENCH_SCALE", "1")))
BATCH_SIZE = 2048


def _synthetic_stream(n):
    ruleset = RulesetHandle(SYSTEM).resolve()
    cats = [cat for cat in ruleset if cat.example]
    records = []
    for i in range(n):
        t = i * 0.05
        source = f"n{i % 29}"
        if i % 11 == 0:
            cat = cats[i % len(cats)]
            records.append(LogRecord(
                timestamp=t, source=source, facility=cat.facility,
                body=cat.example, system=SYSTEM,
            ))
        else:
            records.append(LogRecord(
                timestamp=t, source=source, facility="kernel",
                body="routine interconnect heartbeat ok", system=SYSTEM,
            ))
    return records


def _signature(result):
    return (result.raw_alerts, result.filtered_alerts,
            result.stats.messages, result.category_counts())


def test_serial_pipeline_throughput(benchmark):
    records = _synthetic_stream(N_RECORDS)
    result = benchmark.pedantic(
        api.run_stream, args=(records, SYSTEM), rounds=3, iterations=1,
    )
    assert result.raw_alert_count > 0


def test_parallel_pipeline_throughput(benchmark):
    records = _synthetic_stream(N_RECORDS)
    config = ParallelConfig(workers=2, batch_size=BATCH_SIZE)
    result = benchmark.pedantic(
        api.run_stream, args=(records, SYSTEM),
        kwargs={"parallel": config}, rounds=3, iterations=1,
    )
    assert result.shard_stats is not None
    assert result.shard_stats.worker_crashes == 0


def test_parallel_matches_serial_and_records_trajectory(benchmark):
    records = _synthetic_stream(N_RECORDS)

    def sweep():
        t0 = time.perf_counter()
        serial = api.run_stream(records, SYSTEM)
        serial_secs = time.perf_counter() - t0
        timings = []
        for workers in (2, 4):
            config = ParallelConfig(workers=workers, batch_size=BATCH_SIZE)
            t0 = time.perf_counter()
            par = api.run_stream(records, SYSTEM, parallel=config)
            timings.append((workers, time.perf_counter() - t0, par))
        return serial, serial_secs, timings

    serial, serial_secs, timings = benchmark.pedantic(
        sweep, rounds=1, iterations=1,
    )

    # The unconditional half of the contract: identical output.
    for _, _, par in timings:
        assert _signature(par) == _signature(serial)

    serial_rps = N_RECORDS / serial_secs
    lines = [
        "Pipeline throughput: serial vs. sharded-parallel "
        f"({SYSTEM}, {N_RECORDS:,} records, cpu_count={os.cpu_count()})",
        f"serial:     {serial_rps:12,.0f} rec/s",
    ]
    for workers, secs, _ in timings:
        rps = N_RECORDS / secs
        lines.append(
            f"workers={workers}:  {rps:12,.0f} rec/s  "
            f"({rps / serial_rps:.2f}x)"
        )
    lines.append(
        "full 1M-record trajectory: scripts/bench_report.py "
        "-> benchmarks/output/BENCH_pipeline.json"
    )
    write_artifact("parallel_pipeline.txt", "\n".join(lines) + "\n")


def test_engine_driver_matrix_equivalence_and_cost(benchmark):
    """Every engine driver over the same stream: identical output
    asserted, per-driver cost recorded.  The bounded rows use roomy
    buffers and a pausable source so nothing sheds — the measured delta
    vs serial is the tick pump itself."""
    records = _synthetic_stream(N_RECORDS)
    parallel = ParallelConfig(workers=2, batch_size=BATCH_SIZE)
    bounded = BackpressureConfig(
        max_buffer=4 * BATCH_SIZE, filter_buffer=BATCH_SIZE,
        arrival_batch=BATCH_SIZE, service_batch=BATCH_SIZE,
        filter_batch=BATCH_SIZE,
    )
    matrix = {
        "serial": {},
        "sharded": {"parallel": parallel},
        "bounded": {"backpressure": bounded},
        "bounded-sharded": {"parallel": parallel, "backpressure": bounded},
    }

    def sweep():
        timings = []
        for name, kwargs in matrix.items():
            t0 = time.perf_counter()
            result = api.run_stream(records, SYSTEM, **kwargs)
            timings.append((name, time.perf_counter() - t0, result))
        return timings

    timings = benchmark.pedantic(sweep, rounds=1, iterations=1)

    baseline = _signature(timings[0][2])
    for name, _, result in timings[1:]:
        assert _signature(result) == baseline, name

    serial_secs = timings[0][1]
    lines = [
        "Engine driver matrix: identical output, per-driver cost "
        f"({SYSTEM}, {N_RECORDS:,} records, cpu_count={os.cpu_count()})",
    ]
    for name, secs, _ in timings:
        rps = N_RECORDS / secs
        lines.append(
            f"{name:<16}: {rps:12,.0f} rec/s  ({serial_secs / secs:.2f}x)"
        )
    lines.append(
        "full 1M-record matrix: scripts/bench_report.py "
        "-> benchmarks/output/BENCH_engine.json"
    )
    write_artifact("engine_drivers.txt", "\n".join(lines) + "\n")
