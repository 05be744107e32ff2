"""Traced ``repro serve``: the benchmark's child entry point.

Usage: ``python3 perfbench/serve_child.py <trace.json> serve [options]``
with ``PYTHONPATH`` holding the repo's ``src`` and root.  It installs
the benchmark's span wrappers, runs the ``repro`` CLI exactly as
``python -m repro`` does, and at drain writes the per-layer metrics and
the batch spans next to ``<trace.json>``.

The service's event-loop waits (the selector's ``select``) are a span
of their own, so ``service.loop.other_s`` - wall time outside every
top-level span - is busy time: asyncio streams, readline, decode and
scheduling.
"""

import time

T_START = time.monotonic()

import json  # noqa: E402
import os  # noqa: E402
import selectors  # noqa: E402
import sys  # noqa: E402


def main() -> int:
    from perfbench.tracer import Tracer, derive, install, wrap

    out_path = sys.argv[1]
    tracer = Tracer()
    with tracer.span("startup.import"):
        from repro import cli
    install(tracer)
    selector = type(selectors.DefaultSelector())
    selector.select = wrap(tracer, "service.idle", selector.select,
                           keep_span=False)

    from repro.service import IngestService

    peaks = {}
    original_report = IngestService.final_report

    def final_report(self):
        report = original_report(self)
        peaks["queue"] = max(
            (row.get("queue_peak", 0) for tid, row in report.items()
             if tid != "_service"),
            default=0,
        )
        return report

    IngestService.final_report = final_report
    code = cli.main(sys.argv[2:])
    wall = time.monotonic() - T_START
    tracer.counters["service.loop.other_s"] = wall - tracer.covered
    tracer.counters["service.queue.peak"] = peaks.get("queue", 0)
    metrics = derive(tracer, int(tracer.counters.get("service.ingest.lines", 0)))
    with open(out_path, "w") as handle:
        json.dump({"metrics": metrics, "wall_s": wall,
                   "covered_s": tracer.covered}, handle)
    tracer.write_spans(os.path.splitext(out_path)[0] + ".spans.jsonl")
    return code


if __name__ == "__main__":
    raise SystemExit(main())
