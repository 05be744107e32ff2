"""Tests of the benchmark itself, at smoke size.

Run from the repo root: ``python3 -m pytest perfbench/tests -q``.
"""

import json
import os
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
SRC = os.path.join(ROOT, "src")
for entry in (SRC, ROOT):
    if entry not in sys.path:
        sys.path.insert(0, entry)

from perfbench import checks, corpora, run, speed  # noqa: E402

WORKLOADS = ["study", "ingest-durable", "serve", "sharded"]


def benchmark(workload, seed=1, trace=0):
    proc = subprocess.run(
        [sys.executable, os.path.join(ROOT, "perfbench", "run.py"),
         "--workload", workload, "--seed", str(seed), "--seconds", "1",
         "--trace", str(trace), "--smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stderr[-3000:]
    return json.loads(proc.stdout.strip().splitlines()[-1]), proc.stderr


def declared(kind):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return [metric["name"] for metric in json.load(handle)[kind]]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_run_passes_its_output_check(workload):
    result, log = benchmark(workload)
    assert result["correct"], log[-3000:]
    assert result["attempted"] >= 1
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert list(result["metrics"]) == declared("end_to_end")
    for entry in result["metrics"].values():
        assert entry["value"] > 0


def test_traced_run_prints_every_per_layer_metric():
    result, log = benchmark("study", trace=1)
    assert result["correct"], log[-3000:]
    assert list(result["metrics"]) == declared("per_layer")
    metrics = {name: entry["value"] for name, entry in result["metrics"].items()}
    # study loads the generator, the batch path and Table rendering ...
    assert metrics["simulation.generate.records"] > 0
    assert metrics["core.tag.attempts_per_record"] == pytest.approx(1.0)
    assert metrics["engine.path.per_record_frac"] == 0
    assert metrics["reporting.tables.self_s"] > 0
    # ... and bypasses reading, durability, the store and the service.
    for name in ("logio.read.lines", "resilience.checkpoint.count",
                 "store.write.rows", "service.ingest.lines"):
        assert metrics[name] == 0


def test_second_seed_changes_inputs_and_passes():
    first = corpora.generate("spirit", 2e-6, 1)
    second = corpora.generate("spirit", 2e-6, 2)
    assert [r.timestamp for r in first] != [r.timestamp for r in second]
    assert ([r.timestamp for r in first]
            == [r.timestamp for r in corpora.generate("spirit", 2e-6, 1)])
    result, log = benchmark("sharded", seed=2)
    assert result["correct"], log[-3000:]


def test_dropped_alert_fails_the_batch_check():
    from repro import api

    records = corpora.generate("spirit", 2e-6, 1)
    reference = checks.sharded_digest({"spirit": api.run_stream(records, "spirit")})
    tampered = api.run_stream(records, "spirit")
    assert not checks.diff(checks.sharded_digest({"spirit": tampered}), reference)
    del tampered.raw_alerts[len(tampered.raw_alerts) // 2]
    assert checks.diff(checks.sharded_digest({"spirit": tampered}), reference)


def _serve_rep(low_raw, received, conserves=True):
    class Phase:
        final = {"t-spirit": {"alerts_raw": low_raw, "alerts_filtered": 3,
                              "shed": 0, "dead_letter_total": 0}}

    return {
        "sent": {"t-spirit": 10},
        "report": {"t-spirit": {"received": received, "conserves": conserves}},
        "low": Phase,
    }


def test_shed_or_lost_line_fails_the_serve_check():
    expected = {"t-spirit": {"alerts_raw": 5, "alerts_filtered": 3}}
    assert run.serve_check(_serve_rep(5, 10), expected) == []
    assert run.serve_check(_serve_rep(4, 10), expected)  # an alert dropped
    assert run.serve_check(_serve_rep(5, 9), expected)  # a line lost
    assert run.serve_check(_serve_rep(5, 10, conserves=False), expected)


def test_probe_adjustment_scales_phases_to_nominal_speed():
    # probes twice as slow as nominal halve the phase; no probe before
    # the phase means the probe after it alone is used
    assert speed.adjust(2.0, 0.06, 0.08, 0.035) == pytest.approx(1.0)
    assert speed.adjust(2.0, None, 0.07, 0.035) == pytest.approx(1.0)
    assert speed.adjust(2.0, 0.035, 0.035, 0.035) == pytest.approx(2.0)


def test_laps_scale_phases_and_can_keep_user_time_only(monkeypatch):
    def laps(user_only):
        clock = iter([0.0, 1.0, 1.0, 3.0, 3.0])
        user = iter([0.0, 0.5, 0.5, 1.5, 1.5])
        probes = iter([0.035, 0.07, 0.035])
        monkeypatch.setattr(speed.time, "monotonic", lambda: next(clock))
        monkeypatch.setattr(speed, "_user_s", lambda: next(user))
        monkeypatch.setattr(speed, "probe", lambda loops: next(probes))
        section = speed.Laps({"loops": 1, "nominal_s": 0.035},
                             user_only=user_only)
        section.lap()
        section.lap()
        return section

    section = laps(user_only=False)
    assert section.raw_s == pytest.approx(3.0)
    assert section.user_s == pytest.approx(1.5)
    # a 1 s phase between probes of 35 and 70 ms, then a 2 s phase
    # between probes of 70 and 35 ms: each scaled by 35 / 52.5
    assert section.adjusted_s == pytest.approx(3.0 * 0.035 / 0.0525)
    # user_only keeps the section's user-CPU share (half) of that
    assert laps(user_only=True).adjusted_s == pytest.approx(
        1.5 * 0.035 / 0.0525)


def test_refuses_to_run_without_the_program(tmp_path):
    bench = tmp_path / "perfbench"
    bench.mkdir()
    for name in os.listdir(os.path.join(ROOT, "perfbench")):
        source = os.path.join(ROOT, "perfbench", name)
        if os.path.isfile(source):
            (bench / name).write_bytes(open(source, "rb").read())
    (tmp_path / "BENCHMARK.json").write_bytes(
        open(os.path.join(ROOT, "BENCHMARK.json"), "rb").read()
    )
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "study",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
