"""Output checks: each run's outputs against a reference computed from
the same inputs by a different path the repo trusts.

Digests are plain JSON-able dicts, so a timed child process computes
its own after its timed section and the runner compares it with the
reference it computed once, outside every timed section.
"""

from __future__ import annotations

import hashlib
import io
from contextlib import redirect_stderr, redirect_stdout
from typing import Dict, List


def _sha(rows) -> str:
    digest = hashlib.sha256()
    for row in rows:
        digest.update(repr(row).encode("utf-8"))
        digest.update(b"\n")
    return digest.hexdigest()


def _alert_rows(alerts):
    return ((a.timestamp, a.source, a.category) for a in alerts)


def result_digest(result) -> dict:
    """Everything a batch run's user reads off one ``PipelineResult``:
    volume stats, the raw and filtered alert sequences, and the
    per-category [raw, filtered] counts (Table 4's columns)."""
    stats = result.stats
    return {
        "messages": stats.messages,
        "stats": [stats.raw_bytes, stats.compressed_bytes,
                  repr(stats.first_timestamp), repr(stats.last_timestamp)],
        "raw": len(result.raw_alerts),
        "filtered": len(result.filtered_alerts),
        "raw_sha": _sha(_alert_rows(result.raw_alerts)),
        "filtered_sha": _sha(_alert_rows(result.filtered_alerts)),
        "categories": {
            name: list(counts)
            for name, counts in sorted(result.category_counts().items())
        },
    }


def study_digest(results: Dict[str, object], tables_text: str) -> dict:
    from repro.reporting import tables

    return {
        "systems": {name: result_digest(r) for name, r in results.items()},
        "table2": tables.table2(results),
        "tables_sha": hashlib.sha256(tables_text.encode("utf-8")).hexdigest(),
    }


def study_reference(scale: float, seed: int) -> dict:
    """``repro study`` through the genuine per-record serial loop: a
    ``CheckpointManager`` forces ``SerialDriver`` off its batch path."""
    from repro import api
    from repro.reporting import tables

    from . import corpora

    results = {
        system: api.run_system(
            system, scale=corpora.system_scale(system, scale), seed=seed,
            checkpoint_every=1 << 30,
        )
        for system in corpora.SYSTEMS
    }
    return study_digest(results, tables.all_tables(results))


def render_report(results: Dict[str, object]) -> str:
    """The text ``repro report`` prints for ``results``."""
    from repro.reporting import figures, tables

    out = io.StringIO()
    print(tables.all_tables(results), file=out)
    figure_text = figures.all_figures(results)
    if figure_text:
        print(file=out)
        print(figure_text, file=out)
    return out.getvalue()


def run_report(store_root: str):
    """``repro report <store_root>``: its exit code and stdout."""
    from repro import cli

    out = io.StringIO()
    with redirect_stdout(out), redirect_stderr(io.StringIO()):
        code = cli.main(["report", store_root])
    return code, out.getvalue()


def ingest_digest(report_code: int, report_text: str, messages: dict,
                  dead_letters: dict) -> dict:
    return {
        "report_code": report_code,
        "report_sha": hashlib.sha256(report_text.encode("utf-8")).hexdigest(),
        "report_lines": report_text.count("\n"),
        "messages": messages,
        "dead_letters": dead_letters,
    }


def ingest_reference(paths: Dict[str, str]) -> dict:
    """The strict in-memory run over the same files: no dead-letter
    queue, state, store or prediction, with the report rendered from the
    in-memory results.  Its expected dead letters are the records the
    path's admission check rejects."""
    from repro import api
    from repro.engine.path import AlertPath
    from repro.logio.reader import read_log

    from . import corpora

    results = {}
    invalid = {}
    for system in corpora.SYSTEMS:
        records = list(read_log(paths[system], system,
                                year=corpora.log_year(system)))
        rejected = sum(1 for r in records if not AlertPath.valid(r))
        invalid[system] = {"invalid_record": rejected} if rejected else {}
        results[system] = api.run_stream(records, system)
    return ingest_digest(
        0, render_report(results),
        {s: r.message_count for s, r in results.items()}, invalid,
    )


def sharded_digest(results: Dict[str, object]) -> dict:
    return {name: result_digest(r) for name, r in results.items()}


def sharded_reference(corpus: Dict[str, list]) -> dict:
    """The serial strict run over the same in-memory records."""
    from repro import api

    return sharded_digest(
        {system: api.run_stream(records, system)
         for system, records in corpus.items()}
    )


def serve_reference(lines, prefix: str, year: int) -> dict:
    """Per tenant ``<prefix>-<system>``: the alerts a serial quarantine
    ``AlertPath`` finds over the same ``(system, line)`` pairs, parsed
    as the service parses them (what the tenant should report once the
    ``low`` phase has drained)."""
    from repro.engine.path import AlertPath
    from repro.resilience.deadletter import DeadLetterQueue
    from repro.service.router import parse_native_line

    paths = {}
    for system, line in lines:
        path = paths.get(system)
        if path is None:
            path = paths[system] = AlertPath(
                system, dead_letters=DeadLetterQueue())
        record = parse_native_line(line, system, year)
        if path.admit(record):
            path.process(record)
    return {
        f"{prefix}-{system}": {
            "alerts_raw": len(path.sink.raw_alerts),
            "alerts_filtered": len(path.sink.filtered_alerts),
            "dead_letters": path.dead_letters.quarantined,
        }
        for system, path in paths.items()
    }


def diff(got, want, where: str = "") -> List[str]:
    """Human-readable differences between two digests (empty = equal)."""
    if isinstance(want, dict) and isinstance(got, dict):
        out = []
        for key in sorted(set(want) | set(got)):
            if key not in got or key not in want:
                out.append(f"{where}/{key}: missing on one side")
            else:
                out.extend(diff(got[key], want[key], f"{where}/{key}"))
        return out
    if got != want:
        return [f"{where}: got {str(got)[:80]!r}, want {str(want)[:80]!r}"]
    return []
