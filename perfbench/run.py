"""The repo benchmark: one workload, measured end to end.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload study --seed 1 --seconds 10 --trace 0

Workloads (see ``perfbench/plan.json`` for why each was chosen and
which layers it loads and bypasses):

* ``study``          - ``repro study``: five calibrated systems generated
                       from the seed and run strict serial, then Tables 1-6;
* ``ingest-durable`` - native log files read and run with quarantine,
                       ``state_dir``, ``store_dir`` and prediction, then
                       ``repro report`` rendered from the stores alone;
* ``serve``          - ``repro serve --state-dir`` under an open-loop TCP
                       replay of all five dialects at a ``low`` rate, then
                       at an ``over`` rate, sustained and in bursts;
* ``sharded``        - the in-memory corpora run strict through one
                       sharded tagging worker.

Batch workloads repeat a set-up plus fresh-process timed section while
another fits in ``--seconds`` (at least ``min_reps`` times; ``sharded``
times ``repeat`` runs per process after one set-up); ``serve`` repeats
whole service runs.  Every run's outputs are checked against a reference
computed once from the same inputs by a different trusted path.  With
``--trace 1`` one more run is made with span wrappers installed and the
per-layer split is reported instead of the end-to-end metrics.

The gated throughput, ``adj_throughput_rps``, scales every timed phase
by host-speed probes run next to it (``perfbench/speed.py``), because
this benchmark's host moves its speed by more than the metric's bound
from minute to minute; the raw rates are printed beside it.

Human-readable lines go to standard error; the last line of standard
output is the JSON result.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK_ROOT = os.path.join(ROOT, ".perfbench")

#: Seconds a single child process may take before the run is abandoned.
CHILD_TIMEOUT = 150


def load_plan() -> dict:
    with open(os.path.join(HERE, "plan.json")) as handle:
        return json.load(handle)


def nearest_rank(values, q: float) -> float:
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([SRC, ROOT])
    return env


def another_rep(reps: list, began: float, seconds: float,
                min_reps: int) -> bool:
    """Repeat until ``min_reps`` runs are done and another run of the
    average length so far would overrun the ``seconds`` budget."""
    if len(reps) < min_reps:
        return True
    spent = time.monotonic() - began
    return spent + spent / len(reps) <= seconds


def fresh_dir(path: str) -> None:
    """A new directory for one run, made after every dirty page is
    written back, so one run's disk writes never stall the next run's
    timed section.  Runs are deleted together when the invocation ends."""
    os.sync()
    os.makedirs(path)


def log(message: str) -> None:
    print(message, file=sys.stderr, flush=True)


class BenchError(RuntimeError):
    pass


# -- batch workloads -----------------------------------------------------------


def batch_rep(workload: str, scale: float, seed: int, rep_dir: str,
              trace: bool, repeat: int, probe: dict) -> dict:
    """Set up one fresh process and run its timed section(s).  Single-
    process workloads run pinned to one CPU, the one their probes time."""
    from perfbench import corpora, speed

    fresh_dir(rep_dir)
    t_setup = time.monotonic()
    inputs = None
    if workload == "ingest-durable":
        inputs = corpora.write_files(os.path.join(rep_dir, "inputs"), scale, seed)
    spec = {
        "workload": workload,
        "scale": scale,
        "seed": seed,
        "inputs": inputs,
        "workdir": os.path.join(rep_dir, "run"),
        "out": os.path.join(rep_dir, "result.json"),
        "trace": trace,
        "repeat": repeat,
        "probe": probe,
        "pin": None if workload == "sharded" else speed.cpus()[-1],
    }
    os.makedirs(spec["workdir"])
    spec_path = os.path.join(rep_dir, "spec.json")
    with open(spec_path, "w") as handle:
        json.dump(spec, handle)
    t_spawn = time.monotonic()
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "timed.py"), spec_path],
        cwd=ROOT, env=child_env(), stdin=subprocess.DEVNULL,
        stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        timeout=CHILD_TIMEOUT,
    )
    if proc.returncode != 0:
        raise BenchError(
            f"{workload} timed section failed ({proc.returncode}): "
            + proc.stderr.decode("utf-8", "replace")[-3000:]
        )
    with open(spec["out"]) as handle:
        out = json.load(handle)
    out["inputs"] = inputs
    out["setup_s"] = (t_spawn - t_setup) + (out["t_ready"] - t_spawn)
    return out


def batch_reference(workload: str, scale: float, seed: int, last: dict):
    from perfbench import checks, corpora

    if workload == "study":
        return checks.study_reference(scale, seed)
    if workload == "ingest-durable":
        return checks.ingest_reference(last["inputs"])
    return checks.sharded_reference(corpora.generate_all(scale, seed))


def failed_records(workload: str, out: dict) -> int:
    if workload == "ingest-durable":
        return sum(
            sum(reasons.values())
            for reasons in out["digest"]["dead_letters"].values()
        )
    return 0


def run_batch(workload: str, args, plan: dict, work: str) -> dict:
    scale = plan["sizes"]["smoke_scale" if args.smoke else "scale"][workload]
    min_reps = 1 if args.smoke else plan["min_reps"][workload]
    repeat = 1 if args.smoke else plan["repeat"].get(workload, 1)
    probe = plan["probe"]
    reps = []
    began = time.monotonic()
    while another_rep(reps, began, 0 if args.smoke else args.seconds,
                      min_reps):
        reps.append(batch_rep(workload, scale, args.seed,
                              os.path.join(work, f"rep-{len(reps)}"),
                              trace=False, repeat=repeat, probe=probe))
        log(f"{workload:>14}  process {len(reps)}: setup "
            f"{reps[-1]['setup_s']:.4f} s, jobs (raw/adjusted) "
            + ", ".join(f"{r['job_s']:.4f}/{r['adj_s']:.4f}"
                        for r in reps[-1]["runs"])
            + " s")
    from perfbench import checks

    reference = batch_reference(workload, scale, args.seed, reps[-1])
    attempted = failed = 0
    problems = []
    runs = [run for out in reps for run in out["runs"]]
    for run in runs:
        attempted += reps[0]["records"]
        wrong = checks.diff(run["digest"], reference)
        if wrong:
            problems.extend(wrong[:5])
            failed += reps[0]["records"]
        else:
            failed += failed_records(workload, run)
    jobs = [run["job_s"] for run in runs]
    job = statistics.median(jobs)
    adj = statistics.median(run["adj_s"] for run in runs)
    records = reps[0]["records"]
    e2e = {
        "adj_throughput_rps": (records / adj, "rec/s", len(jobs)),
        "peak_rss_mb": (statistics.median(r["peak_rss_mb"] for r in runs),
                        "MiB", len(runs)),
        "setup_s": (statistics.median(o["setup_s"] for o in reps), "s",
                    len(reps)),
    }
    extra = {
        "throughput_rps": (records / job, "rec/s", len(jobs)),
        "job_s": (job, "s", len(jobs)),
        "adj_job_s": (adj, "s", len(jobs)),
        "failed_frac": (failed / attempted, "ratio", attempted),
        "records": (records, "records", 1),
    }
    layers = None
    if args.trace:
        traced = batch_rep(workload, scale, args.seed,
                           os.path.join(work, "traced"), trace=True, repeat=1,
                           probe=probe)
        run = traced["runs"][0]
        wrong = checks.diff(run["digest"], reference)
        if wrong:
            problems.extend(wrong[:5])
            failed += traced["records"]
        attempted += traced["records"]
        layers = dict(traced["trace"]["metrics"])
        wall = run["job_s"]
        layers["trace.wall_s"] = wall
        layers["trace.uncovered_s"] = wall - traced["trace"]["covered_s"]
        layers["trace.overhead_frac"] = run["adj_s"] / adj - 1.0
    return {
        "e2e": e2e, "extra": extra, "layers": layers,
        "attempted": attempted, "failed": failed, "problems": problems,
    }


# -- serve -----------------------------------------------------------------------


def serve_cpus():
    """``(service CPU, generator CPUs)``: on two or more CPUs the service
    and the load generator each get their own, so probes of the service
    CPU between bursts time the CPU the service ran on."""
    from perfbench import speed

    cpus = speed.cpus()
    if len(cpus) < 2:
        return cpus, cpus
    return cpus[-1:], cpus[:-1]


def serve_rep(plan: dict, scale: float, seed: int, rep_dir: str,
              trace_path=None) -> dict:
    """Set up ``repro serve`` and replay three phases against it.

    * ``low``: ``low_lines`` at the low rate, for latency;
    * ``over``: ``over_lines`` at the over rate, a sustained overload
      that sheds; its processed lines per second is ``capacity_lps``;
    * ``burst``: ``bursts`` bursts of ``burst_lines`` at the over rate,
      consecutive slices of one stream, each drained before the next.
      The service CPU is probed (service idle) before the first burst
      and after each one; a burst's cost is the service's CPU time
      during it, scaled by the probes around it.

    Every phase feeds its own five tenants (``low-<system>``,
    ``over-<system>``, ``burst-<system>``) from the start of the
    interleaved corpora, so each sees the five streams from their
    beginning, in log order.
    """
    from perfbench import corpora, serve_load, speed

    serve = plan["serve"]
    probe = plan["probe"]
    service_cpus, generator_cpus = serve_cpus()
    speed.pin(generator_cpus)
    fresh_dir(rep_dir)
    t_setup = time.monotonic()
    lines = corpora.interleaved_lines(scale, seed)
    n_low, n_over = serve["low_lines"], serve["over_lines"]
    n_burst, n_bursts = serve["burst_lines"], serve["bursts"]
    needed = max(n_low, n_over, n_burst * n_bursts)
    if len(lines) < needed:
        raise BenchError(f"serve corpus has {len(lines)} lines, needs "
                         f"{needed}")
    low_lines = serve_load.encode(lines[:n_low], "low")
    over_lines = serve_load.encode(lines[:n_over], "over")
    burst_lines = serve_load.encode(lines[:n_burst * n_bursts], "burst")
    if trace_path is None:
        prefix = [sys.executable, "-m", "repro"]
    else:
        prefix = [sys.executable, os.path.join(HERE, "serve_child.py"),
                  trace_path]
    service = serve_load.Service(ROOT, rep_dir, prefix, env=child_env(),
                                 cpus=service_cpus)
    bursts = []
    try:
        service.wait_listening()
        setup_s = time.monotonic() - t_setup
        replay = serve_load.Replay(service.tcp_port, service.stats_port)
        try:
            low = replay.run_phase("low", low_lines, serve["low_rate"],
                                   serve["poll_interval_ms"] / 1000.0)
            over = replay.run_phase("over", over_lines, serve["over_rate"],
                                    serve["over_poll_interval_ms"] / 1000.0)
            before = speed.probe_on(service_cpus, probe["loops"])
            done = 0
            for k in range(n_bursts):
                cpu0 = service.cpu_s()
                burst = replay.run_phase(
                    f"burst {k}", burst_lines[k * n_burst:(k + 1) * n_burst],
                    serve["over_rate"],
                    serve["poll_interval_ms"] / 1000.0)
                cpu_s = service.cpu_s() - cpu0
                after = speed.probe_on(service_cpus, probe["loops"])
                processed = sum(row["processed"]
                                for tenant, row in burst.final.items()
                                if tenant.startswith("burst-"))
                bursts.append({
                    "processed": processed - done,
                    "cpu_s": cpu_s,
                    "adj_s": speed.adjust(cpu_s, before, after,
                                          probe["nominal_s"]),
                })
                done = processed
                before = after
        finally:
            replay.close()
        report = service.stop()
    finally:
        service.kill()
    samples = replay.poller.samples
    over_processed = sum(row["processed"] for tenant, row in over.final.items()
                         if tenant.startswith("over-"))
    return {
        "setup_s": setup_s,
        "low_lines": lines[:n_low],
        "low": low,
        "over": over,
        "bursts": bursts,
        "latencies": serve_load.latencies(
            low, low_lines, samples[low.polls_from:low.polls_to]),
        "polls": low.polls_to - low.polls_from,
        "capacity": over_processed / (over.t_done - over.t0),
        "report": report,
        "peak_rss_mb": service.peak_rss_mb,
        "sent": dict(replay.sent_by_tenant),
    }


def burst_rates(bursts) -> tuple:
    """``(adjusted, raw)`` lines processed per second of service CPU time
    over ``bursts``."""
    processed = sum(b["processed"] for b in bursts)
    return (processed / sum(b["adj_s"] for b in bursts),
            processed / sum(b["cpu_s"] for b in bursts))


def serve_check(rep: dict, expected: dict) -> list:
    """Every tenant conserves and received every line sent to it; at the
    low rate each tenant reported exactly the reference's alerts."""
    problems = []
    for tenant, sent in rep["sent"].items():
        row = rep["report"].get(tenant)
        if row is None:
            problems.append(f"{tenant}: missing from the final report")
            continue
        if not row.get("conserves"):
            problems.append(f"{tenant}: does not conserve")
        if row["received"] != sent:
            problems.append(f"{tenant}: received {row['received']} != "
                            f"sent {sent}")
    for tenant, want in expected.items():
        got = rep["low"].final.get(tenant, {})
        for key in ("alerts_raw", "alerts_filtered"):
            if got.get(key) != want[key]:
                problems.append(f"{tenant}: low-rate {key} {got.get(key)} "
                                f"!= {want[key]}")
    return problems


def low_failures(rep: dict) -> int:
    """Low-rate lines shed, refused or dead-lettered."""
    return sum(
        row["shed"] + row["dead_letter_total"]
        for tenant, row in rep["low"].final.items()
        if tenant.startswith("low-")
    )


def run_serve(args, plan: dict, work: str) -> dict:
    from perfbench import checks

    serve = plan["serve"]
    scale = plan["sizes"]["smoke_scale" if args.smoke else "scale"]["serve"]
    if args.smoke:
        serve = dict(serve, **serve["smoke"])
        plan = dict(plan, serve=serve)
    min_reps = 1 if args.smoke else serve["min_reps"]
    reps = []
    began = time.monotonic()
    while another_rep(reps, began, 0 if args.smoke else args.seconds,
                      min_reps):
        reps.append(serve_rep(plan, scale, args.seed,
                              os.path.join(work, f"rep-{len(reps)}")))
        rep = reps[-1]
        adj, raw = burst_rates(rep["bursts"])
        log(f"         serve  run {len(reps)}: over-rate capacity "
            f"{rep['capacity']:.1f} lines/s, bursts {raw:.1f} lines per "
            f"CPU-s ({adj:.1f} adjusted), setup {rep['setup_s']:.4f} s, "
            f"peak rss {rep['peak_rss_mb']:.1f} MiB")
    expected = checks.serve_reference(reps[0]["low_lines"], "low",
                                      serve["year"])
    attempted = failed = 0
    problems = []
    for rep in reps:
        attempted += serve["low_lines"]
        wrong = serve_check(rep, expected)
        if wrong:
            problems.extend(wrong)
            failed += serve["low_lines"]
        else:
            failed += low_failures(rep)
    latencies = [x for rep in reps for x in rep["latencies"]]
    lag = [x for rep in reps for x in rep["low"].lag]
    lag_over = [x for rep in reps for x in rep["over"].lag]
    bursts = [b for rep in reps for b in rep["bursts"]]
    capacity = statistics.median(rep["capacity"] for rep in reps)
    adj_rate, cpu_rate = burst_rates(bursts)
    e2e = {
        "adj_throughput_rps": (adj_rate, "rec/s", len(bursts)),
        "peak_rss_mb": (statistics.median(r["peak_rss_mb"] for r in reps),
                        "MiB", len(reps)),
        "setup_s": (statistics.median(r["setup_s"] for r in reps), "s",
                    len(reps)),
    }
    p99 = nearest_rank(latencies, 99) * 1000.0
    extra = {
        "capacity_lps": (capacity, "lines/s", len(reps)),
        "burst_lines_per_cpu_s": (cpu_rate, "lines/s", len(bursts)),
        "latency_p50_ms": (nearest_rank(latencies, 50) * 1000.0, "ms",
                           len(latencies)),
        "latency_p99_ms": (p99, "ms", len(latencies)),
        "p99_limit_ms": (serve["p99_limit_ms"], "ms", 1),
        "p99_within_limit": (int(p99 <= serve["p99_limit_ms"]), "bool", 1),
        "failed_frac": (failed / attempted, "ratio", attempted),
        "low_rate": (serve["low_rate"], "lines/s", 1),
        "over_rate": (serve["over_rate"], "lines/s", 1),
        "poll_interval_ms": (serve["poll_interval_ms"], "ms", 1),
        "polls": (sum(rep["polls"] for rep in reps), "count", 1),
        "generator_lag_p99_ms": (nearest_rank(lag, 99) * 1000.0, "ms",
                                 len(lag)),
        "generator_lag_max_ms": (max(lag) * 1000.0, "ms", len(lag)),
        "generator_lag_over_max_ms": (max(lag_over) * 1000.0, "ms",
                                      len(lag_over)),
    }
    layers = {
        "serve." + name: extra[name][0]
        for name in ("latency_p50_ms", "latency_p99_ms", "poll_interval_ms",
                     "polls", "generator_lag_p99_ms", "generator_lag_max_ms")
    }
    if args.trace:
        trace_path = os.path.join(work, "serve-trace.json")
        traced = serve_rep(plan, scale, args.seed, os.path.join(work, "traced"),
                           trace_path=trace_path)
        wrong = serve_check(traced, expected)
        if wrong:
            problems.extend(wrong)
            failed += serve["low_lines"]
        attempted += serve["low_lines"]
        with open(trace_path) as handle:
            trace = json.load(handle)
        layers.update(trace["metrics"])
        layers["trace.wall_s"] = trace["wall_s"]
        layers["trace.uncovered_s"] = layers["service.loop.other_s"]
        layers["trace.overhead_frac"] = (
            adj_rate / burst_rates(traced["bursts"])[0] - 1.0)
    return {
        "e2e": e2e, "extra": extra, "layers": layers,
        "attempted": attempted, "failed": failed, "problems": problems,
    }


# -- entry point -------------------------------------------------------------------


def per_layer_metrics(outcome: dict) -> dict:
    """Every per-layer metric ``BENCHMARK.json`` names; layers the
    workload bypasses read 0."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        declared = json.load(handle)["per_layer"]
    values = outcome["layers"] or {}
    return {
        m["name"]: {"value": values.get(m["name"], 0), "unit": m["unit"]}
        for m in declared
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=["study", "ingest-durable", "serve", "sharded"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny inputs and one run (the benchmark's tests)")
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        log(f"error: no repro package under {SRC}; run from a full checkout")
        return 2
    sys.path.insert(0, SRC)
    sys.path.insert(0, ROOT)
    plan = load_plan()
    os.makedirs(WORK_ROOT, exist_ok=True)
    work = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK_ROOT)
    try:
        if args.workload == "serve":
            outcome = run_serve(args, plan, work)
        else:
            outcome = run_batch(args.workload, args, plan, work)
    except BenchError as exc:
        log(f"error: {exc}")
        return 1
    finally:
        # Delete and write back now, so this invocation's files cannot
        # slow the next one's timed sections.
        shutil.rmtree(work, ignore_errors=True)
        os.sync()

    for name, (value, unit, n) in {**outcome["e2e"], **outcome["extra"]}.items():
        log(f"{args.workload:>14}  {name:<26} {value:>14.6g} {unit:<8} n={n}")
    for problem in outcome["problems"]:
        log(f"CHECK FAILED: {problem}")
    if args.trace:
        metrics = per_layer_metrics(outcome)
        for name, entry in metrics.items():
            log(f"{args.workload:>14}  {name:<38} {entry['value']:>14.6g} "
                f"{entry['unit']}")
    else:
        metrics = {
            name: {"value": value, "unit": unit}
            for name, (value, unit, _n) in outcome["e2e"].items()
        }
    print(json.dumps({
        "correct": not outcome["problems"],
        "attempted": int(outcome["attempted"]),
        "failed": int(outcome["failed"]),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
