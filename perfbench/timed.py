"""One timed section of a batch workload, in a fresh process.

Usage: ``python3 perfbench/timed.py <spec.json>`` with ``PYTHONPATH``
holding the repo's ``src`` and root.  The spec names the workload, its
inputs and a fresh work directory; the result (timings, peak RSS, the
output digest, and the trace when asked) is written as JSON to the
spec's ``out`` path.

The timed section starts before anything from ``repro`` is imported, so
it pays the import and ruleset-compile costs every CLI invocation pays.
``sharded`` is the exception: it generates its corpora in this process
first (set-up, which imports the package), then runs its timed section
``repeat`` times, resetting the peak-RSS high-water mark before each.

Each timed section is split into phases with :class:`perfbench.speed.Laps`
(imports, one phase per system, the tables or the report), so every run
reports its raw wall time ``job_s`` and its speed-adjusted ``adj_s``.
When the spec names a ``pin`` CPU, the process runs on it alone, so the
probes measure the CPU the work ran on.
"""

import time

T_START = time.monotonic()

import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402


def _peak_rss_mb() -> float:
    """This process's peak RSS since start or the last reset."""
    with open("/proc/self/status") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _reset_peak_rss() -> None:
    with open("/proc/self/clear_refs", "w") as handle:
        handle.write("5")


def _children_peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0


def _imports(tracer) -> None:
    """The imports the workload's CLI command pays; when traced, as a
    span, followed by installing the wrappers."""
    if tracer is None:
        import repro.api  # noqa: F401
        import repro.cli  # noqa: F401
        return
    from perfbench import tracer as tracing

    with tracer.span("startup.import"):
        import repro.api  # noqa: F401
        import repro.cli  # noqa: F401
    tracing.install(tracer)


def _laps(spec, t0, cpu_set=None, user_only=False):
    from perfbench.speed import Laps

    return Laps(spec["probe"], t0=t0, cpu_set=cpu_set, user_only=user_only)


def _timings(laps) -> dict:
    return {"job_s": laps.raw_s, "adj_s": laps.adjusted_s,
            "user_s": laps.user_s}


def run_study(spec, tracer):
    from perfbench import checks, corpora

    laps = _laps(spec, T_START)
    _imports(tracer)
    from repro import api
    from repro.reporting import tables

    laps.lap()
    results = {}
    for system in corpora.SYSTEMS:
        results[system] = api.run_system(
            system, scale=corpora.system_scale(system, spec["scale"]),
            seed=spec["seed"],
        )
        laps.lap()
    text = tables.all_tables(results)
    laps.lap()
    return {
        "t_ready": T_START,
        "runs": [{**_timings(laps), "peak_rss_mb": _peak_rss_mb(),
                  "digest": checks.study_digest(results, text)}],
        "records": sum(r.message_count for r in results.values()),
    }


def run_ingest(spec, tracer):
    from perfbench import checks, corpora

    # The store's file operations cost the kernel several times more
    # in some minutes than in others on a shared host: time user CPU.
    laps = _laps(spec, T_START, user_only=True)
    _imports(tracer)
    from repro import api
    from repro.logio import reader
    from repro.resilience.deadletter import DeadLetterQueue

    laps.lap()
    work = spec["workdir"]
    store_root = os.path.join(work, "store")
    messages = {}
    dead_letters = {}
    for system in corpora.SYSTEMS:
        queue = DeadLetterQueue()
        result = api.run_stream(
            reader.read_log(spec["inputs"][system], system,
                            year=corpora.log_year(system)),
            system,
            dead_letters=queue,
            state_dir=os.path.join(work, "state", system),
            store_dir=os.path.join(store_root, system),
            predict=True,
        )
        messages[system] = result.message_count
        dead_letters[system] = dict(queue.by_reason)
        del result
        laps.lap()
    code, text = checks.run_report(store_root)
    laps.lap()
    rss = _peak_rss_mb()
    if tracer is not None:
        rows = tracer.counters.get("store.write.rows", 0)
        if rows:
            tracer.counters["store.bytes_per_alert"] = (
                _tree_bytes(store_root) / rows
            )
    return {
        "t_ready": T_START,
        "runs": [{**_timings(laps), "peak_rss_mb": rss,
                  "digest": checks.ingest_digest(code, text, messages,
                                                 dead_letters)}],
        "records": sum(messages.values()),
    }


def _tree_bytes(root: str) -> int:
    total = 0
    for directory, _dirs, files in os.walk(root):
        for name in files:
            total += os.path.getsize(os.path.join(directory, name))
    return total


def run_sharded(spec, tracer):
    """Generate the corpora once (set-up), then run the timed section
    ``repeat`` times, each with fresh worker pools and a reset peak-RSS
    mark.  The package was imported by set-up; the parent's ruleset
    compile (about 25 ms for all five) is cached after the first run.
    The parent and its worker share the host's CPUs, so every probe
    runs on each CPU of this process's set and their mean is used."""
    from perfbench import checks, corpora

    corpus = corpora.generate_all(spec["scale"], spec["seed"])
    t_ready = time.monotonic()
    if tracer is not None:
        from perfbench import tracer as tracing

        tracing.install(tracer)
    from perfbench.speed import cpus
    from repro import api
    from repro.parallel.config import ParallelConfig

    runs = []
    for _ in range(spec["repeat"]):
        _reset_peak_rss()
        laps = _laps(spec, None, cpu_set=cpus())
        results = {}
        for system, records in corpus.items():
            results[system] = api.run_stream(
                records, system, parallel=ParallelConfig(workers=1)
            )
            laps.lap()
        runs.append({
            **_timings(laps),
            "peak_rss_mb": _peak_rss_mb() + _children_peak_rss_mb(),
            "digest": checks.sharded_digest(results),
        })
        if tracer is not None:
            for result in results.values():
                shards = result.shard_stats
                tracer.counters["parallel.batches"] += shards.batches
                tracer.counters["parallel.retried"] += shards.batches_retried
                tracer.peak("parallel.merge_peak", shards.merge_peak)
        # The next run must not start with this one's results alive.
        del results
    return {
        "t_ready": t_ready,
        "runs": runs,
        "records": sum(len(records) for records in corpus.values()),
    }


RUNNERS = {
    "study": run_study,
    "ingest-durable": run_ingest,
    "sharded": run_sharded,
}


def main() -> int:
    with open(sys.argv[1]) as handle:
        spec = json.load(handle)
    if spec.get("pin") is not None:
        os.sched_setaffinity(0, {spec["pin"]})
    tracer = None
    if spec.get("trace"):
        from perfbench.tracer import Tracer

        tracer = Tracer()
    out = RUNNERS[spec["workload"]](spec, tracer)
    if tracer is not None:
        from perfbench.tracer import derive

        out["trace"] = {
            "metrics": derive(tracer, out["records"]),
            "covered_s": tracer.covered,
        }
        tracer.write_spans(os.path.join(spec["workdir"], "spans.jsonl"))
    with open(spec["out"], "w") as handle:
        json.dump(out, handle)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
