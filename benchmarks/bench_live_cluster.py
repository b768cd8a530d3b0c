"""Live cluster: group-commit/batching speedup, plus sim calibration.

Two comparisons on one matched workload (name-keyed RNG streams seed the
transaction generator identically everywhere):

1. **baseline vs batched** — the same live cluster run twice at
   ``durability="fsync"``, once with ``batch=1`` (every message its own
   wire frame, every record its own forced log write) and once with
   ``batch=64`` (frame batching + WAL/journal group commit).  Load is
   open-loop, so throughput is bound by the servers' hot path — the
   syscall amortization under test.  The bench asserts the batched run
   is **at least 2x** the baseline throughput with both correctness
   oracles green (convergence + DSG-acyclic serializability).
2. **live vs sim** — the discrete-event harness runs the identical
   workload under the paper's 1999-era cost model.  This comparison is
   calibration, not a race: absolute numbers differ (virtual clock vs
   real 2020s syscalls); what must agree is the workload (identical
   spec counts) and the correctness verdicts.
3. **instrumented vs plain** — the batched configuration runs once
   more with observability disabled (``obs=False``: no metrics
   registry, no span tracing, no staleness probe).  The instrumented
   run must stay **within 10 %** of the plain run's throughput — the
   "low-overhead" claim of :mod:`repro.obs`, asserted where it is most
   exposed (the fsync-amortized hot path).

Writes ``BENCH_live_cluster.json`` with the paired numbers
(p50/p95/p99 latency, throughput, wire amortization, speedup,
observability overhead, live propagation-delay p50/p95/max, and
replica version-lag stats), appends the run to the
``BENCH_history.jsonl`` trajectory (git SHA + timestamp), and warns if
batched throughput dropped more than 20 % below the best recorded run.
The instrumented runs ride with the embedded invariant watchdog; a
healthy bench must record **zero critical alerts**.
"""

import json
import os
import pathlib
import tempfile

from bench_history import append_history, check_regression
from common import BENCH_TXNS, run_once
from repro.cluster.loadgen import spawn_and_load
from repro.obs.reconstruct import format_attribution
from repro.cluster.spec import ClusterSpec
from repro.harness.runner import ExperimentConfig, run_experiment
from repro.workload.params import WorkloadParams

ARTIFACT = pathlib.Path(__file__).resolve().parent.parent / \
    "BENCH_live_cluster.json"

#: Seed 27 gives a DAG copy graph at 3 sites / 32 items / 0.8
#: replication.  Write-heavy (10 % read txns) and wide enough that the
#: workload is fsync-bound, not lock-contention-bound — the regime the
#: paper's deferred propagation (and group commit) exists for.
LIVE_SEED = 27
LIVE_PARAMS = WorkloadParams(
    n_sites=3, n_items=32, replication_probability=0.8,
    threads_per_site=4,
    transactions_per_thread=max(20, BENCH_TXNS // 3),
    read_txn_probability=0.1, deadlock_timeout=0.05)

#: Client admission bound for the open-loop runs (identical for
#: baseline and batched, so queueing pressure is matched).
MAX_IN_FLIGHT = 64


def run_live(batch: int, obs: bool = True):
    spec = ClusterSpec(params=LIVE_PARAMS, protocol="dag_wt",
                       seed=LIVE_SEED,
                       base_port=(7580 + 10 * min(batch, 9) +
                                  (0 if obs else 5)),
                       durability="fsync", batch=batch, obs=obs)
    with tempfile.TemporaryDirectory(prefix="bench-live-") as wal_dir:
        # The embedded watchdog only attaches on instrumented runs
        # (monitor needs the stats plane); alert counts land in
        # report.alerts and must stay free of criticals.
        return spawn_and_load(spec, wal_dir=wal_dir, verify=True,
                              max_in_flight=MAX_IN_FLIGHT,
                              loop_mode="open", timeout=120.0,
                              quiesce_timeout=60.0, monitor=obs)


def best_live(batch: int, obs: bool = True, runs: int = 2):
    """Best-of-``runs`` throughput for one configuration.  Single live
    runs jitter several percent on a shared box; the overhead
    comparison below is a tight (10 %) bound, so each side gets its
    best attempt rather than one noisy sample."""
    reports = [run_live(batch, obs=obs) for _ in range(runs)]
    return max(reports, key=lambda report: report.throughput)


def run_sim():
    config = ExperimentConfig(protocol="dag_wt", params=LIVE_PARAMS,
                              seed=LIVE_SEED)
    return run_experiment(config)


def _live_row(report):
    return {
        "batch": report.batch, "durability": report.durability,
        "loop_mode": report.loop_mode, "obs": report.obs,
        "committed": report.committed, "aborted": report.aborted,
        "duration_s": round(report.duration, 4),
        "throughput_txn_s": round(report.throughput, 2),
        "latency_ms": {key: round(value * 1000.0, 3)
                       for key, value in report.latency.items()},
        "messages": report.messages_sent,
        "frames": report.frames_sent,
        "msgs_per_frame": round(
            report.messages_sent / report.frames_sent, 2)
            if report.frames_sent else 0.0,
        "wal_syncs": report.wal_syncs,
        "convergent": report.convergent,
        "serializable": report.serializable,
    }


def test_live_cluster_batching_speedup(benchmark):
    baseline, batched, plain, sim = run_once(
        benchmark, lambda: (run_live(batch=1), best_live(batch=64),
                            best_live(batch=64, obs=False), run_sim()))

    total = (LIVE_PARAMS.n_sites * LIVE_PARAMS.threads_per_site *
             LIVE_PARAMS.transactions_per_thread)
    for live in (baseline, batched, plain):
        # Matched workload: every generated transaction was decided.
        assert live.committed + live.aborted == total
        assert live.unknown == 0
        # Correctness oracles stay green under batching.
        assert live.convergent and live.serializable
    assert sim.committed + sim.aborted == total
    assert sim.serializable

    # The amortization is real on the wire and in the log...
    assert batched.frames_sent < baseline.frames_sent
    assert batched.wal_syncs < baseline.wal_syncs
    # ...and it buys the headline number: >= 2x live throughput.
    speedup = batched.throughput / baseline.throughput
    assert speedup >= 2.0, \
        "batched run only {:.2f}x the unbatched baseline".format(speedup)

    # The instrumented run measured real propagation + recency...
    assert batched.obs and not plain.obs
    propagation = batched.propagation
    version_lag = batched.version_lag
    assert propagation["complete"] > 0
    assert propagation["p50"] <= propagation["p95"] \
        <= propagation["max"]
    assert version_lag["samples"] >= 1
    # The stage timers attributed the propagation hops: per-hop
    # components (queue/wal/wire/apply) must cover >= 95 % of the
    # total hop time on an instrumented live run.
    attribution = batched.attribution
    assert attribution["hops"] > 0
    assert attribution["coverage"] >= 0.95, \
        "only {:.0%} of hop latency attributed to stages".format(
            attribution["coverage"])
    # ...without costing the hot path: within 10 % of the plain run.
    overhead_ratio = batched.throughput / plain.throughput
    assert overhead_ratio >= 0.9, \
        "instrumented run at {:.2f}x the plain run's " \
        "throughput (budget: >= 0.90x)".format(overhead_ratio)

    # The embedded watchdog rode the instrumented runs: a healthy
    # bench cluster must finish with zero critical alerts.
    assert batched.alerts, "instrumented run was not monitored"
    assert batched.alerts["critical"] == 0, \
        "watchdog fired critical alerts on a healthy bench run: " \
        "{}".format(batched.alerts["by_rule"])
    assert not plain.alerts  # no stats plane to monitor

    rows = {
        "workload": {
            "protocol": "dag_wt", "seed": LIVE_SEED,
            "n_sites": LIVE_PARAMS.n_sites,
            "n_items": LIVE_PARAMS.n_items,
            "threads_per_site": LIVE_PARAMS.threads_per_site,
            "transactions_per_thread":
                LIVE_PARAMS.transactions_per_thread,
            "read_txn_probability": LIVE_PARAMS.read_txn_probability,
            "max_in_flight": MAX_IN_FLIGHT,
        },
        "live_baseline": _live_row(baseline),
        "live_batched": _live_row(batched),
        "live_batched_noobs": _live_row(plain),
        "speedup": round(speedup, 3),
        "obs_overhead_ratio": round(overhead_ratio, 3),
        "propagation_delay_ms": {
            "p50": round(propagation["p50"] * 1000.0, 3),
            "p95": round(propagation["p95"] * 1000.0, 3),
            "max": round(propagation["max"] * 1000.0, 3),
            "mean": round(propagation["mean"] * 1000.0, 3),
            "trees_complete": propagation["complete"],
            "trees_propagating": propagation["propagating"],
        },
        "replica_version_lag": version_lag,
        "latency_attribution": {
            "hops": attribution["hops"],
            "coverage": round(attribution["coverage"], 4),
            "unattributed_ms": round(
                attribution["unattributed_s"] * 1000.0, 3),
            "components": {
                name: {"share": round(component["share"], 4),
                       "p95_ms": round(
                           component["p95_s"] * 1000.0, 3)}
                for name, component in
                attribution["components"].items()},
        },
        "monitor_alerts": batched.alerts,
        "sim": {
            "committed": sim.committed, "aborted": sim.aborted,
            "duration_s": round(sim.duration, 4),
            "throughput_txn_s_site": round(sim.average_throughput, 2),
            "mean_response_ms": round(
                sim.mean_response_time * 1000.0, 3),
            "messages": sim.total_messages,
            "serializable": sim.serializable,
        },
    }
    with open(ARTIFACT, "w", encoding="utf-8") as handle:
        json.dump(rows, handle, indent=2, sort_keys=True)
        handle.write("\n")

    # Bench trajectory: compare against the best recorded batched
    # throughput — and, in the other direction, the best (lowest)
    # recorded batched p95 latency — *before* appending this run, so a
    # regressed run does not rank against itself.
    warning = check_regression("live_cluster",
                               "batched_throughput_txn_s",
                               batched.throughput, threshold=0.2)
    p95_warning = check_regression(
        "live_cluster", "batched_p95_ms",
        batched.latency["p95"] * 1000.0, threshold=0.2,
        direction="lower")
    history_record = append_history("live_cluster", {
        "baseline_throughput_txn_s": round(baseline.throughput, 2),
        "batched_throughput_txn_s": round(batched.throughput, 2),
        "batched_p95_ms": round(batched.latency["p95"] * 1000.0, 3),
        "speedup": round(speedup, 3),
        "obs_overhead_ratio": round(overhead_ratio, 3),
        "propagation_p95_ms": round(propagation["p95"] * 1000.0, 3),
        "attribution_coverage": round(attribution["coverage"], 4),
        "attribution_top_stage": max(
            attribution["components"],
            key=lambda name: attribution["components"][name]["share"]),
        "monitor_critical": batched.alerts.get("critical", 0),
        "monitor_warning": batched.alerts.get("warning", 0),
        "regression_warning": warning,
        "p95_regression_warning": p95_warning,
    })

    print("")
    print("=" * 70)
    print("Live DAG(WT) cluster, fsync durability, open loop "
          "({} txns)".format(total))
    print("=" * 70)
    print("{:<28}{:>13}{:>13}{:>13}".format(
        "", "batch=1", "batch=64", "sim"))
    print("{:<28}{:>13}{:>13}{:>13}".format(
        "committed / aborted",
        "{} / {}".format(baseline.committed, baseline.aborted),
        "{} / {}".format(batched.committed, batched.aborted),
        "{} / {}".format(sim.committed, sim.aborted)))
    print("{:<28}{:>13.1f}{:>13.1f}{:>13.1f}".format(
        "throughput (txn/s total)", baseline.throughput,
        batched.throughput,
        sim.average_throughput * LIVE_PARAMS.n_sites))
    print("{:<28}{:>13.1f}{:>13.1f}{:>13.2f}".format(
        "mean latency (ms)", baseline.latency["mean"] * 1000.0,
        batched.latency["mean"] * 1000.0,
        sim.mean_response_time * 1000.0))
    print("{:<28}{:>13.1f}{:>13.1f}{:>13}".format(
        "p50 latency (ms)", baseline.latency["p50"] * 1000.0,
        batched.latency["p50"] * 1000.0, "-"))
    print("{:<28}{:>13.1f}{:>13.1f}{:>13}".format(
        "p95 latency (ms)", baseline.latency["p95"] * 1000.0,
        batched.latency["p95"] * 1000.0, "-"))
    print("{:<28}{:>13.1f}{:>13.1f}{:>13}".format(
        "p99 latency (ms)", baseline.latency["p99"] * 1000.0,
        batched.latency["p99"] * 1000.0, "-"))
    print("{:<28}{:>13}{:>13}{:>13}".format(
        "wire frames", baseline.frames_sent, batched.frames_sent,
        sim.total_messages))
    print("{:<28}{:>13}{:>13}{:>13}".format(
        "wal+journal syncs", baseline.wal_syncs, batched.wal_syncs,
        "-"))
    print("speedup (batched / baseline): {:.2f}x".format(speedup))
    print("obs overhead (instrumented / plain): {:.2f}x".format(
        overhead_ratio))
    print("propagation delay (ms): p50 {:.1f}  p95 {:.1f}  max {:.1f} "
          "({}/{} trees complete)".format(
              propagation["p50"] * 1000.0, propagation["p95"] * 1000.0,
              propagation["max"] * 1000.0, propagation["complete"],
              propagation["propagating"]))
    print("replica version lag: mean {:.2f}  p95 {}  max {} "
          "({:.0%} current over {} samples)".format(
              version_lag["mean"], version_lag["p95"],
              version_lag["max"], version_lag["fraction_current"],
              version_lag["samples"]))
    print(format_attribution(attribution))
    print("monitor: {} critical / {} warning alert(s) over {} "
          "poll(s)".format(batched.alerts.get("critical", 0),
                           batched.alerts.get("warning", 0),
                           batched.alerts.get("polls", 0)))
    if warning:
        print(warning)
    if p95_warning:
        print(p95_warning)
    print("wrote {}".format(os.path.relpath(ARTIFACT)))
    print("appended run {} to {}".format(
        history_record["git_sha"],
        os.path.relpath(str(ARTIFACT.parent / "BENCH_history.jsonl"))))

    benchmark.extra_info["speedup"] = round(speedup, 3)
    benchmark.extra_info["obs_overhead_ratio"] = round(
        overhead_ratio, 3)
    benchmark.extra_info["propagation_p95_ms"] = round(
        propagation["p95"] * 1000.0, 3)
    benchmark.extra_info["attribution_coverage"] = round(
        attribution["coverage"], 4)
    benchmark.extra_info["baseline_throughput"] = round(
        baseline.throughput, 2)
    benchmark.extra_info["batched_throughput"] = round(
        batched.throughput, 2)
    benchmark.extra_info["batched_p95_ms"] = round(
        batched.latency["p95"] * 1000.0, 3)


# ----------------------------------------------------------------------
# Flight-recorder dump latency
# ----------------------------------------------------------------------

def _filled_recorder():
    """A flight recorder at realistic incident sizes: a span ring with
    thousands of entries, a populated registry, full event and
    checkpoint rings, and a couple of state sources."""
    from repro.obs.flight import FlightRecorder
    from repro.obs.registry import MetricsRegistry
    from repro.obs.trace import TraceSink
    from repro.types import GlobalTransactionId

    trace = TraceSink(0, capacity=8192)
    for index in range(8192):
        trace.emit("applied", trace="t0.{}".format(index % 512),
                   gid=GlobalTransactionId(site=0, seq=index),
                   peer=(index % 3))
    metrics = MetricsRegistry()
    metrics.counter("txn.committed").inc(12345)
    metrics.gauge("server.apply_queue").set(7)
    hist = metrics.histogram("server.apply_s")
    for index in range(1000):
        hist.observe(0.0001 * (index % 50 + 1))
    recorder = FlightRecorder(0, trace=trace, metrics=metrics,
                              epoch=lambda: 3)
    recorder.add_source("wal", lambda: {"appended": 9000,
                                        "synced_records": 9000})
    recorder.add_source("watermarks",
                        lambda: {str(item): item * 7
                                 for item in range(32)})
    for index in range(600):  # overflows the 512-deep event ring
        recorder.record_event("alert", rule="lag", index=index)
    for _ in range(70):  # overflows the 64-deep checkpoint ring
        recorder.checkpoint()
    return recorder


def test_flight_dump_latency(benchmark, tmp_path):
    """An incident dump must be cheap enough to run inline on a
    struggling site: bound the p50 over repeated full-size dumps and
    track the trajectory like every other headline number."""
    import time as _time

    from repro.obs.flight import load_bundle, validate_bundle

    recorder = _filled_recorder()
    durations = []

    def dumps():
        for index in range(20):
            start = _time.perf_counter()
            path = recorder.dump("bench", out_dir=str(tmp_path))
            durations.append(_time.perf_counter() - start)
        return path

    last_path = run_once(benchmark, dumps)
    problems = validate_bundle(last_path)
    assert not problems, problems
    manifest, records = load_bundle(last_path)
    assert manifest["trigger"] == "bench"
    assert len(records) == sum(manifest["counts"].values())

    durations.sort()
    p50_ms = durations[len(durations) // 2] * 1000.0
    max_ms = durations[-1] * 1000.0
    # Generous absolute ceiling (shared CI boxes): a full-ring dump —
    # gather + serialize + fsync — must stay well under a second.
    assert p50_ms < 500.0, \
        "flight dump p50 {:.1f} ms".format(p50_ms)

    warning = check_regression("flight_dump", "dump_p50_ms", p50_ms,
                               threshold=0.2, direction="lower")
    history_record = append_history("flight_dump", {
        "dump_p50_ms": round(p50_ms, 3),
        "dump_max_ms": round(max_ms, 3),
        "records": len(records),
        "regression_warning": warning,
    })

    print("")
    print("flight dump: {} record(s)  p50 {:.2f} ms  max {:.2f} ms"
          .format(len(records), p50_ms, max_ms))
    if warning:
        print(warning)
    print("appended run {} to BENCH_history.jsonl".format(
        history_record["git_sha"]))
    benchmark.extra_info["dump_p50_ms"] = round(p50_ms, 3)
    benchmark.extra_info["dump_records"] = len(records)
