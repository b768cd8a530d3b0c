"""The layered perf ledger: one command, four workloads, every metric.

Two ways in::

    python3 benchmarks/ledger/run.py [--seed N] [--runs K] [--out F]
    python3 benchmarks/ledger/run.py --workload W --seed N \
        --seconds S --trace 0|1

The first runs every workload untraced (``--runs`` times, seeds N,
N+1, ...) and once traced, each run in a fresh process, prints every
end-to-end and per-layer metric by name with its unit and can write the
result file ``--compare`` reads.  The second is one run — what the first
calls, and what a harness that schedules runs itself calls — and ends
with one JSON line: ``correct``, ``attempted``, ``failed`` and the
end-to-end (``--trace 0``) or per-layer (``--trace 1``) metrics.

Metric names, units and regression bounds are declared once, in
``BENCHMARK.json`` at the repository root; the README here says what
each one means and why it is there.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import typing

LEDGER_DIR = os.path.dirname(os.path.abspath(__file__))
REPO_ROOT = os.path.dirname(os.path.dirname(LEDGER_DIR))
SRC_DIR = os.path.join(REPO_ROOT, "src")
WORK_ROOT = os.path.join(LEDGER_DIR, ".work")
SCHEMA = 1

if not os.path.isdir(os.path.join(SRC_DIR, "repro")):
    sys.exit("ledger: no program to measure: {} is missing".format(
        os.path.join(SRC_DIR, "repro")))
sys.path.insert(0, SRC_DIR)

import host  # noqa: E402
import layers  # noqa: E402
import traced_site  # noqa: E402
import workloads  # noqa: E402
from workloads import WORKLOADS, RunResult  # noqa: E402


def declared() -> typing.Dict[str, typing.Any]:
    """``BENCHMARK.json``: the metric names, units and bounds."""
    with open(os.path.join(REPO_ROOT, "BENCHMARK.json"),
              encoding="utf-8") as handle:
        return json.load(handle)


# ----------------------------------------------------------------------
# Per-layer rows from a traced run
# ----------------------------------------------------------------------

def span_metrics(spans: typing.Mapping[str, typing.Any], committed: int
                 ) -> typing.Dict[str, float]:
    """The "T" rows: per-transaction self time of each layer, from the
    span aggregates of every site (or of the simulator's process)."""
    rows, layer_of = spans["boundaries"], spans["layers"]

    def self_us(select: typing.Callable[[str], bool]) -> float:
        return sum(row["self_ns_loop"] for name, row in rows.items()
                   if select(name)) / 1e3 / committed

    def layer(name: str) -> typing.Callable[[str], bool]:
        return lambda boundary: layer_of[boundary] == name

    def boundary(suffix: str) -> typing.Callable[[str], bool]:
        return lambda name: name.endswith(suffix)

    run = "repro.sim.environment.Environment.run"
    return {
        "sim.events_per_txn": spans["deltas"].get(run, 0) / committed,
        "sim.run_self_us_per_txn": self_us(layer("sim")),
        "storage.self_us_per_txn": self_us(layer("storage")),
        "graph.self_us_per_txn": self_us(layer("graph")),
        "graph.tree_queries_per_txn": sum(
            row["count"] for name, row in rows.items()
            if layer_of[name] == "graph") / committed,
        "codec.self_us_per_txn": self_us(layer("codec")),
        "transport.send_self_us_per_txn": self_us(
            boundary("LiveTransport.send")),
        "transport.deliver_self_us_per_txn": self_us(
            boundary("LiveTransport.deliver")),
        "wal.self_us_per_txn": self_us(layer("wal")),
        "journal.self_us_per_txn": self_us(layer("journal")),
        "obs.self_us_per_txn": self_us(layer("obs")),
        # Process CPU no boundary accounts for: asyncio, streams, the
        # protocol generators and the server's glue.
        "server.residual_us_per_txn": (
            spans["cpu_s"] * 1e6 / committed - self_us(lambda _: True)),
        "trace.unresolved_boundaries": float(
            len(spans["unresolved_boundaries"])),
    }


# ----------------------------------------------------------------------
# One run
# ----------------------------------------------------------------------

def run_untraced(name: str, seed: int, seconds: float, quick: bool,
                 work_dir: str, anti_entropy_s: float = 0.0) -> RunResult:
    if WORKLOADS[name].loop == "sim":
        return workloads.run_sim(seed, seconds,
                                 min_passes=1 if quick else 2)
    return workloads.run_live(
        WORKLOADS[name], seed, seconds, work_dir,
        setups=1 if quick else workloads.SETUPS,
        warmup_s=1.0 if quick else workloads.WARMUP_S,
        anti_entropy_s=anti_entropy_s)


def run_traced(name: str, seed: int, seconds: float, quick: bool,
               work_dir: str, raw_transactions: int = 0) -> RunResult:
    """The same workload with spans, plus what only this run measures:
    the isolated microbenches, the host yardstick before and after, and
    the traced / untraced throughput ratio."""
    workload = WORKLOADS[name]
    reference_s = max(2.0, 0.3 * seconds)
    ref_before = host.ref_loop_ms()
    micro = layers.run_all(work_dir)
    if workload.loop == "sim":
        reference = workloads.run_sim(seed, reference_s, min_passes=1)
        verify = workloads.sim_verify_ms_per_ktxn()
        tracer = traced_site.install(raw_transactions)
        result = workloads.run_sim(seed, seconds, min_passes=1)
        result.spans = workloads.merge_spans([tracer.snapshot()])
        result.per_layer["harness.verify_ms_per_ktxn"] = verify
    else:
        reference = workloads.run_live(
            workload, seed, reference_s, os.path.join(work_dir, "ref"),
            setups=1, warmup_s=1.0, full=False)
        result = workloads.run_live(
            workload, seed, seconds, work_dir, traced=True, setups=1,
            warmup_s=1.0 if quick else workloads.WARMUP_S,
            raw_transactions=raw_transactions)
    ref_after = host.ref_loop_ms()
    result.per_layer.update(
        {metric: row["value"] for metric, row in micro.items()})
    result.per_layer.update(
        span_metrics(result.spans, max(1, result.notes["committed"])))
    result.per_layer["trace.overhead_ratio"] = (
        result.end_to_end["commit_txn_s"]
        / reference.end_to_end["commit_txn_s"])
    result.per_layer["host.ref_loop_ms"] = ref_before
    result.notes["microbench_calls"] = {
        metric: row["calls"] for metric, row in micro.items()}
    result.notes["unresolved_boundaries"] = \
        result.spans["unresolved_boundaries"]
    if abs(ref_after - ref_before) > 0.1 * ref_before:
        # Something else was using the machine while this ran.
        result.notes["noisy_host"] = [ref_before, ref_after]
    return result


def one_run(args: argparse.Namespace) -> int:
    """``--workload``: run, print, end with the one-line JSON result."""
    spec = declared()
    section = "per_layer" if args.trace else "end_to_end"
    units = {metric["name"]: metric["unit"] for metric in spec[section]}
    os.makedirs(WORK_ROOT, exist_ok=True)
    work_dir = tempfile.mkdtemp(prefix="run-", dir=WORK_ROOT)
    try:
        if args.trace:
            result = run_traced(
                args.workload, args.seed, args.seconds, args.quick,
                work_dir, raw_transactions=2000 if args.chrome_trace else 0)
        else:
            result = run_untraced(
                args.workload, args.seed, args.seconds, args.quick,
                work_dir, anti_entropy_s=args.anti_entropy)
        if args.chrome_trace:
            write_chrome_trace(result.spans, args.chrome_trace)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    measured = result.per_layer if args.trace else result.end_to_end
    missing = sorted(set(units) - set(measured)) if not args.trace else []
    if missing:
        result.problems.append("metrics not measured: {}".format(missing))
    # A layer a workload never enters reads 0 there (sim_paper has no
    # WAL; a closed loop has no generator lateness).
    metrics = {name: {"value": float(measured.get(name, 0.0)),
                      "unit": unit} for name, unit in units.items()}
    print("{} seed {} {:.0f} s {}".format(
        args.workload, args.seed, args.seconds,
        "traced" if args.trace else "untraced"))
    for name, metric in metrics.items():
        print("  {:<36} {:>14.4f} {}".format(name, metric["value"],
                                           metric["unit"]))
    for key, value in sorted(result.notes.items()):
        if key != "microbench_calls":
            print("  # {}: {}".format(key, value))
    for problem in result.problems:
        print("PROBLEM: " + problem, file=sys.stderr)
    print(json.dumps({"correct": result.correct,
                      "attempted": result.attempted,
                      "failed": result.failed, "metrics": metrics,
                      **({"notes": result.notes} if args.notes else {})}))
    return 0 if result.correct else 1


def write_chrome_trace(spans: typing.Mapping[str, typing.Any],
                       path: str) -> None:
    """Raw spans of the first 2 000 transactions per site, as a Chrome
    / Perfetto ``traceEvents`` file (one process per site)."""
    events = []
    for site, raw in spans["raw_spans"].items():
        for name, tid, start_ns, end_ns, parent in raw:
            events.append({
                "name": ".".join(name.rsplit(".", 2)[-2:]),
                "cat": spans["layers"].get(name, ""), "ph": "X",
                "pid": int(site), "tid": tid, "ts": start_ns / 1e3,
                "dur": (end_ns - start_ns) / 1e3,
                "args": {"parent": parent}})
    with open(path, "w", encoding="utf-8") as handle:
        json.dump({"traceEvents": events}, handle)


# ----------------------------------------------------------------------
# The whole ledger
# ----------------------------------------------------------------------

def _child(workload: str, seed: int, seconds: float, trace: int,
           quick: bool, chrome_trace: typing.Optional[str]
           ) -> typing.Dict[str, typing.Any]:
    """One run in a fresh process (as a scheduling harness would make
    it); returns its last-line JSON."""
    argv = [sys.executable, os.path.abspath(__file__), "--workload",
            workload, "--seed", str(seed), "--seconds", str(seconds),
            "--trace", str(trace), "--notes"]
    if quick:
        argv.append("--quick")
    if chrome_trace:
        argv += ["--chrome-trace", chrome_trace]
    done = subprocess.run(argv, stdout=subprocess.PIPE, text=True)
    lines = done.stdout.strip().splitlines()
    if not lines:
        raise SystemExit("{} produced no result".format(workload))
    sys.stdout.write("\n".join(lines[:-1]) + "\n")
    sys.stdout.flush()
    result = json.loads(lines[-1])
    if done.returncode != 0 or not result["correct"]:
        raise SystemExit("{} seed {} failed the correctness gate"
                         .format(workload, seed))
    return result


def host_stamp() -> typing.Dict[str, typing.Any]:
    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=REPO_ROOT, text=True,
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
            check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        sha = "unknown"
    return {"git_sha": sha, "nproc": os.cpu_count(),
            "python": platform.python_version(),
            "machine": platform.machine(),
            "host.ref_loop_ms": host.ref_loop_ms()}


def full_ledger(args: argparse.Namespace) -> int:
    spec = declared()
    seconds = args.seconds or (2.0 if args.quick
                               else float(spec["run_seconds"]))
    names = [entry["name"] for entry in spec["workloads"]]
    document: typing.Dict[str, typing.Any] = {
        "schema": SCHEMA, "quick": bool(args.quick), "seconds": seconds,
        "seeds": [args.seed + index for index in range(args.runs)],
        "host": host_stamp(), "workloads": {}}
    for name in names:
        runs = [_child(name, seed, seconds, 0, args.quick, None)
                for seed in document["seeds"]]
        traced = _child(name, args.seed, seconds, 1, args.quick,
                        args.chrome_trace and "{}.{}.json".format(
                            args.chrome_trace, name))
        document["workloads"][name] = {
            "end_to_end": {
                metric: {"unit": runs[0]["metrics"][metric]["unit"],
                         "values": [run["metrics"][metric]["value"]
                                    for run in runs]}
                for metric in runs[0]["metrics"]},
            "per_layer": traced["metrics"],
            "attempted": sum(run["attempted"] for run in runs),
            "failed": sum(run["failed"] for run in runs),
            "notes": {"untraced": [run["notes"] for run in runs],
                      "traced": traced["notes"]}}
    print_ledger(document)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump(document, handle, indent=1)
            handle.write("\n")
    return 0


def print_ledger(document: typing.Mapping[str, typing.Any]) -> None:
    names = list(document["workloads"])
    print("\nEnd to end (median of {} run(s), {:.0f} s windows{})".format(
        len(document["seeds"]), document["seconds"],
        ", QUICK" if document["quick"] else ""))
    header = "{:<36}" + "{:>16}" * len(names) + "  {}"
    print(header.format("metric", *names, "unit"))
    first = document["workloads"][names[0]]
    for metric, row in first["end_to_end"].items():
        print(header.format(metric, *(
            "{:.4f}".format(statistics.median(
                document["workloads"][name]["end_to_end"][metric]
                ["values"])) for name in names), row["unit"]))
    print("\nPer layer (one traced run)")
    print(header.format("metric", *names, "unit"))
    for metric, row in first["per_layer"].items():
        print(header.format(metric, *(
            "{:.4f}".format(document["workloads"][name]["per_layer"]
                            [metric]["value"]) for name in names),
            row["unit"]))


# ----------------------------------------------------------------------
# --compare
# ----------------------------------------------------------------------

def _spread(values: typing.Sequence[float]) -> float:
    """Interquartile range as a share of the median (0 under 2 runs)."""
    if len(values) < 2:
        return 0.0
    quartiles = statistics.quantiles(values, n=4)
    return (quartiles[2] - quartiles[0]) / statistics.median(values)


def compare(path_a: str, path_b: str) -> int:
    """Apply the bounds of ``BENCHMARK.json`` to two result files: A is
    the base, B the candidate.  Returns 1 when anything regressed."""
    documents = []
    for path in (path_a, path_b):
        with open(path, encoding="utf-8") as handle:
            document = json.load(handle)
        if document.get("quick"):
            raise SystemExit(
                "{} is a --quick result: its windows are too short to "
                "compare".format(path))
        documents.append(document)
    base, candidate = documents
    regressed = 0
    print("{:<16}{:<20}{:>12}{:>12}{:>9}{:>8}  {}".format(
        "workload", "metric", "A median", "B median", "B/A", "bound",
        "verdict"))
    for metric in declared()["end_to_end"]:
        name, bound = metric["name"], metric["bound"]
        for workload in base["workloads"]:
            a = base["workloads"][workload]["end_to_end"][name]["values"]
            b = candidate["workloads"][workload]["end_to_end"][name][
                "values"]
            median_a, median_b = statistics.median(a), statistics.median(b)
            ratio = median_b / median_a
            worse = (ratio - 1.0 if metric["better"] == "lower"
                     else 1.0 - ratio)
            apart = (min(b) > max(a) if metric["better"] == "higher"
                     else max(b) < min(a))
            if worse > bound:
                verdict = "regressed"
                regressed += 1
            elif max(_spread(a), _spread(b)) > bound and not apart:
                verdict = "unresolved"  # noise wider than the bound
            else:
                verdict = "ok"
            print("{:<16}{:<20}{:>12.4f}{:>12.4f}{:>9.3f}{:>8.2f}  {}"
                  .format(workload, name, median_a, median_b, ratio,
                          bound, verdict))
    return 1 if regressed else 0


def main(argv: typing.Optional[typing.Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description="layered perf ledger (see README.md beside this file)")
    parser.add_argument("--workload", choices=sorted(WORKLOADS),
                        help="one run of this workload, ending in the "
                             "one-line JSON result")
    parser.add_argument("--seed", type=int, default=27)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measured window (default: run_seconds of "
                             "BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--runs", type=int, default=1,
                        help="untraced runs per workload, seeds "
                             "seed .. seed+runs-1")
    parser.add_argument("--out", metavar="FILE",
                        help="write the full ledger as JSON")
    parser.add_argument("--quick", action="store_true",
                        help="2 s windows, 1 s warm-up, one set-up: a "
                             "smoke run, refused by --compare")
    parser.add_argument("--compare", nargs=2, metavar=("A", "B"),
                        help="apply the bounds to two --out files")
    parser.add_argument("--chrome-trace", metavar="FILE",
                        help="traced runs: dump raw spans of the first "
                             "2 000 transactions for chrome://tracing")
    parser.add_argument("--anti-entropy", type=float, default=0.0,
                        metavar="S",
                        help="untraced --workload runs only: start the "
                             "sites with this anti-entropy interval "
                             "(the ledger uses 0; 2.0 reproduces the "
                             "README's known defect)")
    parser.add_argument("--notes", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.compare:
        return compare(*args.compare)
    if args.workload:
        if args.chrome_trace and not args.trace:
            parser.error("--chrome-trace needs --trace 1")
        if args.seconds is None:
            args.seconds = (2.0 if args.quick
                            else float(declared()["run_seconds"]))
        return one_run(args)
    return full_ledger(args)


if __name__ == "__main__":
    sys.exit(main())
