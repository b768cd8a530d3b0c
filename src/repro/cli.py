"""Command-line interface: ``python -m repro <command>``.

Commands
--------

``protocols``
    List the registered protocols.
``run``
    Run one experiment and print the Sec. 5.3 metrics.
``sweep``
    Vary one workload parameter across protocols and print the
    paper-style table.
``figure``
    Regenerate a named artifact of the paper's evaluation (``table1``,
    ``fig2a``, ``fig2b``, ``fig3a``, ``fig3b``).
``explore``
    Adversarial schedule exploration: run generated scenarios under
    perturbed schedules, check the oracle suite, shrink the first
    failure to a minimal replayable trace.
``replay``
    Re-run a saved trace deterministically and verify it reproduces.
``serve``
    Run one live site server (TCP, WAL-backed) of a cluster, in the
    foreground.
``loadgen``
    Drive the paper's closed-loop workload against a live cluster and
    print throughput, latency percentiles, and the convergence +
    serializability verdicts.  ``--spawn`` starts the whole cluster
    in-process first.
``stats``
    Fetch every site's metrics-registry snapshot (counters, gauges,
    sync-latency histograms) over the ``stats`` wire request.
    ``--check`` validates the snapshot schema (CI mode).
``trace``
    Fetch span records (live, over the ``trace`` wire request, or
    offline from per-site ``.trace`` JSONL files via ``--files``) and
    reconstruct origin→replica propagation trees with per-hop
    latencies.
    ``--attribute`` splits each hop's latency into queue/wal/wire/apply
    components.
``monitor``
    Online invariant watchdog: poll a live cluster and alert on
    replica-lag SLO violations, stuck propagation (localized to the
    copy-graph hop via trace trees), divergence and dead sites.
    ``--check`` exits non-zero if any critical alert fired (CI mode);
    ``--alerts`` appends each alert to a JSONL sink; ``--dump-dir``
    fans a flight-recorder dump out on each new critical.
``top``
    Live terminal dashboard: per-site throughput, queue depths,
    version lag, dominant stage, propagation-delay percentiles and
    active alerts, refreshed in place on a TTY; degrades to a
    single-shot snapshot when stdout is not a terminal (or with
    ``--once``).
``reconfig``
    Drive one online placement change (add-replica, drop-replica,
    migrate-primary, remove-site) through an epoch transition against
    a live cluster — fence, quiesce, read, commit — or survey the
    members' epochs with ``status``.  See docs/RECONFIGURATION.md.
``chaos``
    Run one seeded fault script against an in-process live cluster and
    judge it with the offline oracles.  See docs/CHAOS.md.
``dump``
    Ask live sites to dump their flight-recorder incident bundles now.
``postmortem``
    Merge flight-recorder bundles from all sites into one causally
    ordered cross-site incident timeline with fault localization.

Examples::

    python -m repro run --protocol backedge --txns 100
    python -m repro sweep --parameter backedge_probability \\
        --values 0,0.5,1 --protocols backedge,psl
    python -m repro figure fig2a --txns 60
    python -m repro explore --protocol indiscriminate --budget 200
    python -m repro replay explorer-trace.json
    python -m repro serve --site 0 --sites 3 --items 12 --replication 0.8 --seed 3 --wal s0.wal
    python -m repro loadgen --spawn --sites 3 --items 12 --replication 0.8 --seed 3 --txns 20
    python -m repro stats --sites 3 --seed 3 --check
    python -m repro trace --files s0.wal.trace s1.wal.trace --require-complete 1
    python -m repro monitor --sites 3 --seed 3 --duration 10 --check
    python -m repro top --sites 3 --seed 3 --once
    python -m repro reconfig add-replica --item 4 --target-site 2 \\
        --sites 6 --placement-scheme sharded-hash --replication-factor 2
    python -m repro reconfig status --sites 6 \\
        --placement-scheme sharded-hash --replication-factor 2
"""

from __future__ import annotations

import argparse
import os
import sys
import typing

from repro.core.base import PROTOCOLS, make_protocol  # noqa: F401
from repro.harness.reporting import format_comparison, format_sweep_table
from repro.harness.runner import ExperimentConfig, run_experiment
from repro.harness.sweep import sweep
from repro.workload.params import WorkloadParams, format_parameter_table

#: Workload fields settable from the command line: flag -> (field, type).
_PARAM_FLAGS: typing.Dict[str, typing.Tuple[str, type]] = {
    "sites": ("n_sites", int),
    "items": ("n_items", int),
    "replication": ("replication_probability", float),
    "site-prob": ("site_probability", float),
    "backedge": ("backedge_probability", float),
    "ops": ("ops_per_transaction", int),
    "threads": ("threads_per_site", int),
    "txns": ("transactions_per_thread", int),
    "read-op": ("read_op_probability", float),
    "read-txn": ("read_txn_probability", float),
    "latency": ("network_latency", float),
    "timeout": ("deadlock_timeout", float),
    "placement-scheme": ("placement_scheme", str),
    "replication-factor": ("replication_factor", int),
}

#: figure name -> (parameter, values, base-parameter overrides).
_FIGURES: typing.Dict[str, tuple] = {
    "fig2a": ("backedge_probability", [0.0, 0.2, 0.4, 0.6, 0.8, 1.0],
              {}),
    "fig2b": ("replication_probability", [0.0, 0.1, 0.2, 0.4, 0.7, 1.0],
              {}),
    "fig3a": ("read_op_probability", [0.0, 0.2, 0.4, 0.5, 0.6, 0.8, 1.0],
              {"backedge_probability": 0.0,
               "replication_probability": 0.5,
               "read_txn_probability": 0.0}),
    "fig3b": ("read_op_probability", [0.0, 0.3, 0.5, 0.7, 0.9, 1.0],
              {"backedge_probability": 1.0,
               "replication_probability": 0.5,
               "read_txn_probability": 0.0}),
}


def _add_param_flags(parser: argparse.ArgumentParser) -> None:
    for flag, (field, flag_type) in _PARAM_FLAGS.items():
        parser.add_argument("--" + flag, dest=field, type=flag_type,
                            default=None,
                            help="workload parameter {}".format(field))


def _params_from_args(args: argparse.Namespace) -> WorkloadParams:
    params = WorkloadParams()
    changes = {}
    for _flag, (field, _type) in _PARAM_FLAGS.items():
        value = getattr(args, field, None)
        if value is not None:
            changes[field] = value
    if changes:
        params = params.replaced(**changes)
    return params.validate()


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduction of 'Update Propagation Protocols For "
                    "Replicated Databases' (SIGMOD 1999)")
    subparsers = parser.add_subparsers(dest="command")

    subparsers.add_parser("protocols",
                          help="list the registered protocols")

    run_parser = subparsers.add_parser(
        "run", help="run one experiment")
    run_parser.add_argument("--protocol", default="backedge",
                            help="protocol name (see 'protocols')")
    run_parser.add_argument("--seed", type=int, default=0)
    run_parser.add_argument("--verbose", action="store_true",
                            help="print message counts and per-site "
                                 "commits")
    run_parser.add_argument("--trace", type=int, default=0,
                            metavar="N",
                            help="print the last N commit spans "
                                 "(committed/applied, with their "
                                 "simulated time)")
    _add_param_flags(run_parser)

    sweep_parser = subparsers.add_parser(
        "sweep", help="vary one workload parameter across protocols")
    sweep_parser.add_argument("--parameter", required=True,
                              help="WorkloadParams field to vary")
    sweep_parser.add_argument("--values", required=True,
                              help="comma-separated values")
    sweep_parser.add_argument("--protocols", default="backedge,psl",
                              help="comma-separated protocol names")
    sweep_parser.add_argument("--seed", type=int, default=0)
    sweep_parser.add_argument("--export", metavar="PATH",
                              help="write the sweep rows to a .csv or "
                                   ".json file")
    _add_param_flags(sweep_parser)

    figure_parser = subparsers.add_parser(
        "figure", help="regenerate a paper artifact")
    figure_parser.add_argument(
        "name", choices=sorted(_FIGURES) + ["table1"],
        help="which artifact to regenerate")
    figure_parser.add_argument("--seed", type=int, default=42)
    _add_param_flags(figure_parser)

    explore_parser = subparsers.add_parser(
        "explore", help="adversarial schedule exploration")
    explore_parser.add_argument("--protocol", default="dag_wt",
                                help="protocol name (see 'protocols')")
    explore_parser.add_argument("--budget", type=int, default=100,
                                help="number of perturbed schedules")
    explore_parser.add_argument("--seed", type=int, default=0)
    explore_parser.add_argument("--sites", default="2-6", metavar="A-B",
                                help="scenario size range (default 2-6)")
    explore_parser.add_argument("--latency-scale", type=float,
                                default=300.0,
                                help="max extra message delay as a "
                                     "multiple of the base latency")
    explore_parser.add_argument("--no-schedule-noise",
                                action="store_true",
                                help="disable same-time event "
                                     "reordering")
    explore_parser.add_argument("--no-shrink", action="store_true",
                                help="skip shrinking the first failure")
    explore_parser.add_argument("--out", metavar="PATH",
                                default="explorer-trace.json",
                                help="where to write the failure trace")
    explore_parser.add_argument("--expect-clean", action="store_true",
                                help="exit non-zero if any oracle "
                                     "failure is found (CI mode)")

    replay_parser = subparsers.add_parser(
        "replay", help="re-run a saved explorer trace")
    replay_parser.add_argument("trace", help="trace JSON path")

    serve_parser = subparsers.add_parser(
        "serve", help="run one live site server in the foreground")
    serve_parser.add_argument("--site", type=int, required=True,
                              help="site id to host")
    _add_cluster_flags(serve_parser)
    _add_server_flags(serve_parser)
    serve_parser.add_argument("--wal", metavar="PATH", required=True,
                              help="WAL file (the inbox journal and the "
                                   "span file sit beside it); recovery "
                                   "replays it on restart")
    # Accepted and ignored: the frozen benchmarks/ledger passes it.
    serve_parser.add_argument("--anti-entropy", type=float,
                              help=argparse.SUPPRESS)
    serve_parser.add_argument("--dump-dir", metavar="DIR", default=None,
                              help="arm the flight-recorder exit "
                                   "triggers: SIGTERM and fatal "
                                   "exceptions dump an incident bundle "
                                   "here before the process dies")
    _add_param_flags(serve_parser)

    loadgen_parser = subparsers.add_parser(
        "loadgen", help="drive the closed-loop workload against a "
                        "live cluster")
    _add_cluster_flags(loadgen_parser)
    _add_server_flags(loadgen_parser)
    loadgen_parser.add_argument("--spawn", action="store_true",
                                help="start the whole cluster "
                                     "in-process before generating "
                                     "load (no external servers "
                                     "needed)")
    loadgen_parser.add_argument("--wal-dir", metavar="DIR", default=None,
                                help="with --spawn: directory for the "
                                     "sites' WAL files (default: a "
                                     "fresh temporary directory)")
    loadgen_parser.add_argument("--no-verify", action="store_true",
                                help="skip the convergence and "
                                     "serializability oracles")
    loadgen_parser.add_argument("--json", metavar="PATH", default=None,
                                help="also write the report as JSON")
    loadgen_parser.add_argument("--txn-timeout", type=float,
                                default=30.0,
                                help="per-request client timeout "
                                     "(seconds)")
    loadgen_parser.add_argument("--max-in-flight", type=int, default=64,
                                help="client-side transaction "
                                     "admission bound")
    loadgen_parser.add_argument("--open-loop", action="store_true",
                                help="submit each thread's whole "
                                     "stream concurrently (bounded by "
                                     "--max-in-flight) instead of the "
                                     "closed per-thread loop")
    _add_param_flags(loadgen_parser)

    stats_parser = subparsers.add_parser(
        "stats", help="fetch every site's metrics snapshot from a "
                      "live cluster")
    _add_cluster_flags(stats_parser)
    stats_parser.add_argument("--site", type=int, default=None,
                              help="query one site instead of all")
    stats_parser.add_argument("--check", action="store_true",
                              help="validate each snapshot against the "
                                   "stats schema; exit non-zero on "
                                   "violation (CI mode)")
    stats_parser.add_argument("--json", metavar="PATH", default=None,
                              help="also write the snapshots as JSON")
    _add_param_flags(stats_parser)

    trace_parser = subparsers.add_parser(
        "trace", help="reconstruct update-propagation trees from span "
                      "records")
    _add_cluster_flags(trace_parser)
    trace_parser.add_argument("--id", metavar="TRACE", default=None,
                              help="show one trace id (e.g. t0.3) in "
                                   "full instead of the summary")
    trace_parser.add_argument("--files", metavar="PATH", nargs="+",
                              default=None,
                              help="read spans offline from per-site "
                                   ".trace JSONL files instead of the "
                                   "live cluster")
    trace_parser.add_argument("--limit", type=int, default=None,
                              help="per-site span tail limit for live "
                                   "fetches")
    trace_parser.add_argument("--show", type=int, default=1,
                              metavar="N",
                              help="print the N slowest complete trees "
                                   "(default 1)")
    trace_parser.add_argument("--require-complete", type=int, default=0,
                              metavar="N",
                              help="exit non-zero unless at least N "
                                   "complete propagation trees were "
                                   "reconstructed (CI mode)")
    trace_parser.add_argument("--json", metavar="PATH", default=None,
                              help="also write the propagation summary "
                                   "as JSON")
    trace_parser.add_argument("--attribute", action="store_true",
                              help="attribute per-hop latency to "
                                   "queue/wal/wire/apply components "
                                   "and print the aggregate table + "
                                   "slowest critical paths")
    _add_param_flags(trace_parser)

    monitor_parser = subparsers.add_parser(
        "monitor", help="online invariant watchdog against a live "
                        "cluster")
    _add_cluster_flags(monitor_parser)
    monitor_parser.add_argument("--interval", type=float, default=0.5,
                                help="poll period in seconds")
    monitor_parser.add_argument("--duration", type=float, default=10.0,
                                help="how long to watch, in seconds "
                                     "(0 = until interrupted)")
    monitor_parser.add_argument("--alerts", metavar="PATH",
                                default=None,
                                help="append each alert (and "
                                     "escalation) to this JSONL file")
    monitor_parser.add_argument("--check", action="store_true",
                                help="exit non-zero if any critical "
                                     "alert fired (CI mode)")
    monitor_parser.add_argument("--lag-warn", type=int, default=4,
                                help="replica version lag that warns")
    monitor_parser.add_argument("--lag-slo", type=int, default=16,
                                help="replica version-lag SLO; beyond "
                                     "it the alert is critical")
    monitor_parser.add_argument("--stuck-deadline", type=float,
                                default=5.0,
                                help="seconds a committed update may "
                                     "stay un-applied at an expected "
                                     "replica before propagation "
                                     "counts as stuck")
    monitor_parser.add_argument("--trace-limit", type=int,
                                default=20000,
                                help="per-site span fetch cap for "
                                     "stuck-propagation localization "
                                     "(0 disables the rule)")
    monitor_parser.add_argument("--no-convergence",
                                action="store_true",
                                help="skip the sampled convergence "
                                     "(divergence) checks")
    monitor_parser.add_argument("--json", metavar="PATH", default=None,
                                help="also write the final alert "
                                     "summary as JSON")
    monitor_parser.add_argument("--dump-dir", metavar="DIR",
                                default=None,
                                help="on each new critical alert, fan "
                                     "a flight-recorder dump to every "
                                     "reachable site; bundles land "
                                     "here")
    monitor_parser.add_argument("--alerts-max-bytes", type=int,
                                default=None, metavar="BYTES",
                                help="rotate the --alerts JSONL past "
                                     "this size (keeps --alerts-backups "
                                     "older generations; default: "
                                     "unbounded)")
    monitor_parser.add_argument("--alerts-backups", type=int, default=3,
                                metavar="N",
                                help="rotated --alerts generations to "
                                     "keep (default 3)")
    _add_param_flags(monitor_parser)

    top_parser = subparsers.add_parser(
        "top", help="live cluster dashboard (single-shot when stdout "
                    "is not a terminal)")
    _add_cluster_flags(top_parser)
    top_parser.add_argument("--interval", type=float, default=1.0,
                            help="refresh period in seconds")
    top_parser.add_argument("--once", action="store_true",
                            help="print one snapshot and exit even on "
                                 "a terminal")
    top_parser.add_argument("--iterations", type=int, default=None,
                            metavar="N",
                            help="refresh N times then exit (default: "
                                 "until interrupted)")
    top_parser.add_argument("--trace-limit", type=int, default=5000,
                            help="per-site span fetch cap for the "
                                 "propagation-delay panel (0 disables "
                                 "it)")
    top_parser.add_argument("--json", action="store_true",
                            help="print one machine-readable snapshot "
                                 "(the same model as the non-TTY "
                                 "fallback) and exit")
    _add_param_flags(top_parser)

    chaos_parser = subparsers.add_parser(
        "chaos", help="run one seeded fault script against an "
                      "in-process live cluster and judge it with the "
                      "offline oracles (see docs/CHAOS.md)")
    _add_cluster_flags(chaos_parser)
    _add_server_flags(chaos_parser)
    source = chaos_parser.add_mutually_exclusive_group()
    source.add_argument("--fault-profile", default="jitter",
                        metavar="NAME",
                        help="named fault profile (calm, jitter, "
                             "lossy, crash, torn-journal, bitflip-wal)")
    source.add_argument("--scenario", metavar="PATH", default=None,
                        help="load a complete scenario JSON (spec + "
                             "plan + regression switches); other "
                             "cluster flags are ignored")
    chaos_parser.add_argument("--fault-seed", type=int, default=0,
                              help="seed of the fault plan's "
                                   "probability rolls")
    chaos_parser.add_argument("--wal-dir", default=None, metavar="DIR",
                              help="WAL directory (default: a fresh "
                                   "temporary directory)")
    chaos_parser.add_argument("--regression", default=None,
                              choices=("forward-before-wal",
                                       "ack-before-journal"),
                              help="inject a protocol regression on "
                                   "the target site (the oracles must "
                                   "catch it)")
    chaos_parser.add_argument("--regression-site", type=int,
                              default=None, metavar="SITE",
                              help="site the regression neuters "
                                   "(default: the first kill's victim)")
    chaos_parser.add_argument("--quiesce-timeout", type=float,
                              default=30.0, metavar="SECONDS")
    chaos_parser.add_argument("--no-monitor", action="store_true",
                              help="skip the during-run and post-run "
                                   "watchdog passes")
    chaos_parser.add_argument("--shrink", action="store_true",
                              help="on failure, ddmin the fault events "
                                   "to a minimal still-failing script")
    chaos_parser.add_argument("--max-shrunk-events", type=int,
                              default=None, metavar="N",
                              help="with --shrink: also fail unless "
                                   "the minimal script has at most N "
                                   "events")
    chaos_parser.add_argument("--expect-fail", action="store_true",
                              help="invert the exit code: succeed only "
                                   "if the oracles flag the run (for "
                                   "known-bad fixtures)")
    chaos_parser.add_argument("--out", metavar="PATH", default=None,
                              help="write the run report as JSON")
    chaos_parser.add_argument("--save-script", metavar="PATH",
                              default=None,
                              help="save the executed (or, after "
                                   "--shrink, the minimal) scenario as "
                                   "a replayable JSON artifact")
    chaos_parser.add_argument("--injection-log", metavar="PATH",
                              default=None,
                              help="write the canonical injection log "
                                   "as JSON (replay equality evidence)")
    chaos_parser.add_argument("--bundle-dir", metavar="DIR",
                              default=None,
                              help="on a failing verdict, dump every "
                                   "member's flight-recorder bundle "
                                   "(plus injections.json) here for "
                                   "repro postmortem")
    _add_param_flags(chaos_parser)

    reconfig_parser = subparsers.add_parser(
        "reconfig", help="drive one online placement change (epoch "
                         "transition) against a live cluster, or show "
                         "the cluster's epoch state (see "
                         "docs/RECONFIGURATION.md)")
    reconfig_parser.add_argument(
        "action", choices=("add-replica", "drop-replica",
                           "migrate-primary", "remove-site", "status"),
        help="placement change to drive, or 'status' to survey the "
             "members' epochs without changing anything")
    _add_cluster_flags(reconfig_parser)
    reconfig_parser.add_argument("--item", type=int, default=None,
                                 help="item the change targets "
                                      "(required for all changes but "
                                      "remove-site)")
    reconfig_parser.add_argument("--target-site", type=int, default=None,
                                 help="site the change targets: the "
                                      "new replica holder, the replica "
                                      "being dropped, the new primary, "
                                      "or the site being removed")
    reconfig_parser.add_argument("--txn-timeout", type=float,
                                 default=30.0,
                                 help="per-transition ceiling in "
                                      "seconds; on expiry the change "
                                      "is aborted everywhere")
    reconfig_parser.add_argument("--allow-empty-primaries",
                                 action="store_true",
                                 help="permit a change that leaves a "
                                      "site with no primary items")
    _add_param_flags(reconfig_parser)

    dump_parser = subparsers.add_parser(
        "dump", help="ask live sites to dump their flight-recorder "
                     "incident bundles now")
    _add_cluster_flags(dump_parser)
    dump_parser.add_argument("--site", type=int, default=None,
                             help="dump one site instead of all")
    dump_parser.add_argument("--dir", metavar="DIR", default=None,
                             help="directory the bundles land in "
                                  "(default: each site's WAL "
                                  "directory, else its cwd)")
    dump_parser.add_argument("--trigger", default="manual",
                             help="trigger label recorded in each "
                                  "bundle's manifest (default: manual)")
    _add_param_flags(dump_parser)

    postmortem_parser = subparsers.add_parser(
        "postmortem", help="merge flight-recorder bundles from all "
                           "sites into one causally ordered cross-site "
                           "incident timeline (offline; see "
                           "docs/OBSERVABILITY.md)")
    postmortem_parser.add_argument(
        "bundles", nargs="+", metavar="PATH",
        help="bundle files and/or directories holding "
             "flight-s*.jsonl bundles")
    postmortem_parser.add_argument("--injections", metavar="PATH",
                                   default=None,
                                   help="chaos injection log "
                                        "(injections.json) to fold "
                                        "into the report")
    postmortem_parser.add_argument("--json", metavar="PATH",
                                   default=None,
                                   help="also write the full analysis "
                                        "as JSON")
    postmortem_parser.add_argument("--check", action="store_true",
                                   help="validate every bundle against "
                                        "the schema; exit non-zero on "
                                        "violation or zero loadable "
                                        "bundles (CI mode)")
    postmortem_parser.add_argument("--timeline-limit", type=int,
                                   default=60, metavar="N",
                                   help="timeline entries to print "
                                        "(default 60; 0 hides the "
                                        "timeline)")

    return parser


def _add_cluster_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--protocol", default="dag_wt",
                        help="live protocol (dag_wt or backedge)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--base-port", type=int, default=7450,
                        help="site i listens on base-port + i")


def _add_server_flags(parser: argparse.ArgumentParser) -> None:
    """Per-process server settings, outside the cluster fingerprint:
    only the commands that start servers take them.  Unset, they are
    :class:`~repro.cluster.spec.ClusterSpec`'s defaults."""
    parser.add_argument("--batch", type=int, default=None,
                        help="max messages per peer wire frame "
                             "(default 64)")
    parser.add_argument("--durability",
                        choices=("none", "flush", "fsync"),
                        default=None,
                        help="WAL/journal sync level: none (process "
                             "buffer), flush (OS page cache; survives "
                             "a process crash), fsync (default; disk; "
                             "survives power loss)")


def _cluster_spec_from_args(args: argparse.Namespace):
    from repro.cluster.spec import ClusterSpec

    server = {name: getattr(args, name)
              for name in ("durability", "batch")
              if getattr(args, name, None) is not None}
    return ClusterSpec(params=_params_from_args(args),
                       protocol=args.protocol, seed=args.seed,
                       host=args.host, base_port=args.base_port,
                       **server)


def _cmd_protocols(_args: argparse.Namespace,
                   out: typing.TextIO) -> int:
    # Importing the package registers every protocol module.
    import repro.core  # noqa: F401
    for name in sorted(PROTOCOLS):
        out.write("{:<16}{}\n".format(
            name, (PROTOCOLS[name].__doc__ or "").strip().split("\n")[0]))
    return 0


def _cmd_run(args: argparse.Namespace, out: typing.TextIO) -> int:
    params = _params_from_args(args)
    strict = args.protocol != "indiscriminate"
    config = ExperimentConfig(protocol=args.protocol, params=params,
                              seed=args.seed,
                              strict_serializability=strict)
    sink = None
    if args.trace:
        from repro.obs.trace import SpanObserver, TraceSink

        # Keeps only the tail the report prints; the observer puts the
        # notifying site on every span.
        sink = TraceSink(site_id=0, capacity=args.trace)
        config.extra_observers.append(SpanObserver(sink))
    result = run_experiment(config)
    out.write(result.summary() + "\n")
    out.write("committed={} aborted={} duration={:.2f}s "
              "serializable={}\n".format(
                  result.committed, result.aborted, result.duration,
                  result.serializable))
    if result.mean_propagation_delay:
        out.write("mean propagation delay: {:.1f} ms\n".format(
            result.mean_propagation_delay * 1000.0))
    if not result.serializable and result.violation_cycle:
        out.write("DSG cycle: {}\n".format(
            " -> ".join(str(g) for g in result.violation_cycle)))
        if result.violation_explanation:
            out.write(result.violation_explanation + "\n")
    if args.verbose:
        out.write("messages by type: {}\n".format(
            dict(sorted(result.messages_by_type.items()))))
        out.write("committed per site: {}\n".format(
            dict(sorted(result.committed_per_site.items()))))
    if sink is not None:
        out.write("trace tail:\n")
        for span in sink.spans():
            out.write("[{:10.4f}s] {:<9} {} @s{}{}\n".format(
                span["now"], span["event"], span["trace"], span["site"],
                " expects " + ",".join(
                    "s{}".format(site) for site in span["expected"])
                if span.get("expected") else ""))
    return 0 if result.serializable in (True, None) else 1


def _parse_values(raw: str) -> typing.List:
    values = []
    for token in raw.split(","):
        token = token.strip()
        try:
            values.append(int(token))
        except ValueError:
            values.append(float(token))
    return values


def _cmd_sweep(args: argparse.Namespace, out: typing.TextIO) -> int:
    params = _params_from_args(args)
    values = _parse_values(args.values)
    protocols = [name.strip() for name in args.protocols.split(",")]
    points = sweep(args.parameter, values, protocols,
                   base_params=params, seed=args.seed)
    out.write(format_sweep_table(points) + "\n")
    if len(protocols) == 2:
        out.write("\n" + format_comparison(points, protocols[1],
                                           protocols[0]) + "\n")
    out.write("\n" + format_sweep_table(
        points, metric="abort_rate", metric_label="Abort rate (%)")
        + "\n")
    if args.export:
        from repro.harness.export import sweep_rows, write_rows
        write_rows(sweep_rows(points), args.export)
        out.write("\nwrote {}\n".format(args.export))
    return 0


def _cmd_figure(args: argparse.Namespace, out: typing.TextIO) -> int:
    if args.name == "table1":
        out.write(format_parameter_table(_params_from_args(args)) + "\n")
        return 0
    from repro.harness.plots import render_sweep

    parameter, values, overrides = _FIGURES[args.name]
    params = _params_from_args(args).replaced(**overrides)
    points = sweep(parameter, values, ["backedge", "psl"],
                   base_params=params, seed=args.seed)
    out.write(render_sweep(
        points, title="{}: throughput vs {}".format(args.name,
                                                    parameter)) + "\n\n")
    out.write(format_sweep_table(points) + "\n\n")
    out.write(format_comparison(points, "psl", "backedge") + "\n")
    return 0


def _cmd_explore(args: argparse.Namespace, out: typing.TextIO) -> int:
    from repro.explorer import ExplorationConfig, explore

    try:
        low, _, high = args.sites.partition("-")
        min_sites, max_sites = int(low), int(high or low)
    except ValueError:
        out.write("invalid --sites {!r} (expected A-B)\n".format(
            args.sites))
        return 2
    config = ExplorationConfig(
        protocol=args.protocol, budget=args.budget, seed=args.seed,
        min_sites=min_sites, max_sites=max_sites,
        latency_scale=args.latency_scale,
        schedule_noise=not args.no_schedule_noise,
        shrink=not args.no_shrink)
    report = explore(config,
                     progress=lambda msg: out.write(msg + "\n"))
    out.write(report.summary() + "\n")
    if report.trace is not None:
        import json

        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump(report.trace, handle, indent=2, sort_keys=True)
            handle.write("\n")
        out.write("wrote trace: {}\n".format(args.out))
        out.write("replay with: python -m repro replay {}\n".format(
            args.out))
    if args.expect_clean and not report.clean:
        return 1
    return 0


def _cmd_replay(args: argparse.Namespace, out: typing.TextIO) -> int:
    from repro.explorer.trace import replay_trace, reproduces

    outcome, document = replay_trace(args.trace)
    out.write("replayed {}: {} transaction(s), {} event(s), "
              "{} oracle failure(s)\n".format(
                  args.trace, len(outcome.outcomes),
                  outcome.events_processed, len(outcome.failures)))
    for failure in outcome.failures:
        out.write("  [{}] {}\n".format(failure.oracle, failure.detail))
    if reproduces(outcome, document):
        out.write("trace reproduced exactly (outcomes and failures "
                  "match the recording)\n")
        return 0
    out.write("REPLAY DIVERGED from the recorded trace\n")
    return 1


def _cmd_serve(args: argparse.Namespace, out: typing.TextIO) -> int:
    import asyncio

    from repro.cluster.server import SiteServer

    spec = _cluster_spec_from_args(args)
    server = SiteServer(spec, args.site, wal_path=args.wal)
    host, port = spec.address(args.site)
    out.write("site s{} serving {}:{} (protocol {}, seed {}, wal {})\n"
              .format(args.site, host, port, spec.protocol, spec.seed,
                      args.wal))
    async def _serve_until_signalled() -> None:
        # SIGTERM is the standard stop for a backgrounded site (shell
        # scripts, CI smokes); a bare kill would drop the group-commit
        # buffers and the deferred trace spans.  Catch it (and SIGINT)
        # and tear down gracefully so the WAL, journal and `.trace`
        # sink are all flushed before exit.
        import signal

        loop = asyncio.get_running_loop()
        stopping = asyncio.Event()
        signals_seen: typing.List[str] = []

        def _on_signal(name: str) -> None:
            signals_seen.append(name)
            stopping.set()

        for sig in (signal.SIGINT, signal.SIGTERM):
            try:
                loop.add_signal_handler(sig, _on_signal, sig.name)
            except NotImplementedError:  # pragma: no cover - non-unix
                pass
        serve_task = asyncio.ensure_future(server.serve_forever())
        stop_task = asyncio.ensure_future(stopping.wait())
        await asyncio.wait({serve_task, stop_task},
                           return_when=asyncio.FIRST_COMPLETED)
        stop_task.cancel()
        # SIGTERM with --dump-dir is the "operator pulled the plug"
        # trigger: capture the black box before the graceful drain
        # (SIGINT stays quiet — interactive stops are not incidents).
        if args.dump_dir is not None and "SIGTERM" in signals_seen:
            try:
                path = await server.flight.dump_async(
                    "sigterm", out_dir=args.dump_dir)
                out.write("dumped flight bundle {}\n".format(path))
            except OSError as exc:  # pragma: no cover - disk trouble
                out.write("flight dump failed: {}\n".format(exc))
        if not serve_task.done():
            serve_task.cancel()  # serve_forever() absorbs the cancel
        await serve_task
        await server.stop()

    try:
        asyncio.run(_serve_until_signalled())
    except KeyboardInterrupt:  # pragma: no cover - interactive
        pass
    except Exception as exc:
        # Fatal exception: the whole point of a black box.  The dump
        # is synchronous — no event loop survives to await one.
        try:
            path = server.flight.dump("fatal-exception",
                                      out_dir=args.dump_dir)
            out.write("fatal: dumped flight bundle {}\n".format(path))
        except OSError:  # pragma: no cover - disk trouble
            pass
        out.write("fatal: {}: {}\n".format(type(exc).__name__, exc))
        return 1
    return 0


def _cmd_loadgen(args: argparse.Namespace, out: typing.TextIO) -> int:
    from repro.cluster.loadgen import run_loadgen, spawn_and_load

    spec = _cluster_spec_from_args(args)
    loop_mode = "open" if args.open_loop else "closed"
    if args.spawn:
        report = spawn_and_load(spec, wal_dir=args.wal_dir,
                                verify=not args.no_verify,
                                max_in_flight=args.max_in_flight,
                                timeout=args.txn_timeout,
                                loop_mode=loop_mode)
    else:
        report = run_loadgen(spec, verify=not args.no_verify,
                             max_in_flight=args.max_in_flight,
                             timeout=args.txn_timeout,
                             loop_mode=loop_mode)
    out.write(report.format() + "\n")
    if args.json:
        import json

        with open(args.json, "w", encoding="utf-8") as handle:
            json.dump(report.to_json(), handle, indent=2,
                      sort_keys=True)
            handle.write("\n")
        out.write("wrote {}\n".format(args.json))
    return 0 if report.convergent and report.serializable else 1


def _format_stats(site: int, response: typing.Mapping) -> str:
    """Human-readable rendering of one site's stats response."""
    from repro.obs.registry import snapshot_percentile

    snapshot = response.get("stats", {})
    lines = ["site s{}".format(site)]
    counters = snapshot.get("counters", {})
    if counters:
        lines.append("  counters: " + "  ".join(
            "{}={}".format(name, value)
            for name, value in sorted(counters.items())))
    for name, gauge in sorted(snapshot.get("gauges", {}).items()):
        lines.append("  gauge {}: {} (high water {})".format(
            name, gauge.get("value"), gauge.get("high_water")))
    for name, hist in sorted(snapshot.get("histograms", {}).items()):
        if not hist.get("count"):
            continue
        # Snapshots ship pre-derived quantiles since the registry
        # started computing them server-side; fall back to deriving
        # from the raw buckets for older senders.
        p50 = hist.get("p50", None)
        p95 = hist.get("p95", None)
        if p50 is None or p95 is None:
            p50 = snapshot_percentile(hist, 50.0)
            p95 = snapshot_percentile(hist, 95.0)
        lines.append(
            "  hist {}: n={} mean={:.4g} p50<={:.4g} p95<={:.4g} "
            "max={:.4g}".format(
                name, hist["count"], hist["sum"] / hist["count"],
                p50, p95, hist.get("max") or 0.0))
    return "\n".join(lines)


def _cmd_stats(args: argparse.Namespace, out: typing.TextIO) -> int:
    import asyncio

    from repro.cluster.client import ClusterClient, ClusterError
    from repro.obs.registry import validate_snapshot

    spec = _cluster_spec_from_args(args)

    async def fetch():
        client = ClusterClient(spec)
        try:
            if args.site is not None:
                return {args.site: await client.stats(args.site)}
            return await client.stats_all()
        finally:
            await client.close()

    try:
        responses = asyncio.run(fetch())
    except (ClusterError, OSError) as exc:
        out.write("stats fetch failed: {}\n".format(exc))
        return 1
    violations = 0
    payload = {}
    for site, response in sorted(responses.items()):
        payload["s{}".format(site)] = response.get("stats")
        out.write(_format_stats(site, response) + "\n")
        if args.check:
            try:
                validate_snapshot(response.get("stats"))
            except ValueError as exc:
                out.write("  SCHEMA VIOLATION: {}\n".format(exc))
                violations += 1
    if args.check and not violations:
        out.write("all {} snapshot(s) schema-valid\n".format(
            len(responses)))
    if args.json:
        import json

        with open(args.json, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, indent=2, sort_keys=True)
            handle.write("\n")
        out.write("wrote {}\n".format(args.json))
    return 1 if violations else 0


def _cmd_monitor(args: argparse.Namespace, out: typing.TextIO) -> int:
    import asyncio

    from repro.cluster.client import ClusterClient
    from repro.obs.monitor import MonitorConfig, Watchdog

    spec = _cluster_spec_from_args(args)
    config = MonitorConfig(
        interval=args.interval, lag_warn=args.lag_warn,
        lag_critical=args.lag_slo, stuck_deadline=args.stuck_deadline,
        trace_limit=args.trace_limit,
        convergence_every=0 if args.no_convergence else 5)
    duration = None if args.duration == 0 else args.duration

    async def run() -> Watchdog:
        # Short per-request timeout + one retry: a dead member must
        # slow a poll by ~a connect failure, not a full client timeout.
        client = ClusterClient(spec, timeout=2.0, retries=1)
        watchdog = Watchdog(
            spec, client, config=config, sink_path=args.alerts,
            on_alert=lambda alert: out.write(alert.format() + "\n"),
            sink_max_bytes=args.alerts_max_bytes,
            sink_backups=args.alerts_backups,
            dump_dir=args.dump_dir)
        try:
            await watchdog.run(duration=duration)
        finally:
            watchdog.close()
            await client.close()
        return watchdog

    try:
        watchdog = asyncio.run(run())
    except KeyboardInterrupt:  # pragma: no cover - interactive
        return 130
    summary = watchdog.summary()
    out.write("monitored {} poll(s): {} critical, {} warning "
              "alert(s)\n".format(summary["polls"],
                                  summary["critical"],
                                  summary["warning"]))
    for rule, count in summary["by_rule"].items():
        out.write("  {} x{}\n".format(rule, count))
    if summary.get("bundles"):
        out.write("dumped {} flight bundle(s):\n".format(
            len(summary["bundles"])))
        for path in summary["bundles"]:
            out.write("  {}\n".format(path))
    if args.json:
        import json

        with open(args.json, "w", encoding="utf-8") as handle:
            json.dump(summary, handle, indent=2, sort_keys=True)
            handle.write("\n")
        out.write("wrote {}\n".format(args.json))
    if args.check and summary["critical"]:
        out.write("FAIL: {} critical alert(s)\n".format(
            summary["critical"]))
        return 1
    return 0


def _cmd_top(args: argparse.Namespace, out: typing.TextIO) -> int:
    import asyncio

    from repro.cluster.client import ClusterClient
    from repro.obs.dashboard import Dashboard

    spec = _cluster_spec_from_args(args)
    live = (not args.once and not args.json and out is sys.stdout
            and sys.stdout.isatty())

    async def run() -> None:
        client = ClusterClient(spec, timeout=2.0, retries=1)
        dashboard = Dashboard(spec, client, interval=args.interval,
                              trace_limit=args.trace_limit)
        try:
            if args.json:
                import json

                model = await dashboard.snapshot_json()
                json.dump(model, out, indent=2, sort_keys=True)
                out.write("\n")
            elif live:
                await dashboard.run(out, iterations=args.iterations)
            elif args.iterations is not None and args.iterations > 1:
                await dashboard.run(out, iterations=args.iterations,
                                    clear=False)
            else:
                await dashboard.snapshot(out)
        finally:
            await client.close()

    try:
        asyncio.run(run())
    except KeyboardInterrupt:  # pragma: no cover - interactive
        return 0
    return 0


def _cmd_chaos(args: argparse.Namespace, out: typing.TextIO) -> int:
    import json
    import tempfile

    from repro.chaos import (ChaosScenario, profile_plan, run_chaos,
                             shrink_scenario)

    if args.scenario is not None:
        scenario = ChaosScenario.load(args.scenario)
    else:
        spec = _cluster_spec_from_args(args)
        plan = profile_plan(args.fault_profile, seed=args.fault_seed,
                            n_sites=spec.params.n_sites)
        scenario = ChaosScenario(
            spec=spec, plan=plan, regression=args.regression,
            regression_site=args.regression_site,
            name=args.fault_profile)
    scenario.validate()

    with tempfile.TemporaryDirectory(prefix="repro-chaos-") as scratch:
        wal_dir = args.wal_dir or os.path.join(scratch, "wal")
        report = run_chaos(scenario, wal_dir,
                           quiesce_timeout=args.quiesce_timeout,
                           monitor=not args.no_monitor,
                           bundle_dir=args.bundle_dir)
        out.write(report.format() + "\n")

        final_scenario = scenario
        if args.shrink and not report.ok:
            out.write("shrinking {} fault event(s)...\n".format(
                len(scenario.plan.events)))
            final_scenario, report = shrink_scenario(
                scenario, os.path.join(scratch, "shrink"),
                quiesce_timeout=args.quiesce_timeout,
                monitor=not args.no_monitor,
                log=lambda line: out.write(line + "\n"))
            out.write("minimal script: {} event(s)\n".format(
                len(final_scenario.plan.events)))
            for event in final_scenario.plan.events:
                out.write("  {}\n".format(
                    json.dumps(event.to_json(), sort_keys=True)))

    if args.out:
        report.save(args.out)
    if args.save_script:
        final_scenario.save(args.save_script)
    if args.injection_log:
        with open(args.injection_log, "w", encoding="utf-8") as handle:
            json.dump(report.injections, handle, indent=2,
                      sort_keys=True)
            handle.write("\n")

    if args.expect_fail:
        if report.ok:
            out.write("expected a failing run, but the oracles were "
                      "green\n")
            return 1
        if args.shrink and args.max_shrunk_events is not None and \
                len(final_scenario.plan.events) > args.max_shrunk_events:
            out.write("minimal script has {} events "
                      "(allowed: {})\n".format(
                          len(final_scenario.plan.events),
                          args.max_shrunk_events))
            return 1
        return 0
    return 0 if report.ok else 1


def _cmd_reconfig(args: argparse.Namespace, out: typing.TextIO) -> int:
    import asyncio

    from repro.cluster.client import ClusterClient, ClusterError
    from repro.reconfig import (PlacementChange, ReconfigCoordinator,
                                ReconfigError)

    spec = _cluster_spec_from_args(args)

    async def status() -> int:
        client = ClusterClient(spec, timeout=5.0, retries=1)
        coordinator = ReconfigCoordinator(client)
        try:
            statuses = await coordinator.survey()
            epoch, placement = await coordinator.current_placement()
        finally:
            await client.close()
        out.write("cluster epoch {} ({} members)\n".format(
            epoch, len(statuses)))
        for site, state in sorted(statuses.items()):
            pending = state.get("pending_epoch")
            out.write("  s{}: epoch {}{}{}\n".format(
                site, state["epoch"],
                ", pending {}".format(pending)
                if pending is not None else "",
                ", fenced {}".format(state["fenced"])
                if state.get("fenced") else ""))
        for site in range(placement.n_sites):
            items = placement.items_at(site)
            if not items:
                out.write("  s{}: no copies (outside the replication "
                          "plane)\n".format(site))
                continue
            primaries = placement.primary_items_at(site)
            out.write("  s{}: {} copies, {} primaries\n".format(
                site, len(items), len(primaries)))
        epochs = {state["epoch"] for state in statuses.values()}
        return 0 if len(epochs) == 1 else 1

    async def drive(change: PlacementChange) -> int:
        client = ClusterClient(spec, timeout=args.txn_timeout)
        coordinator = ReconfigCoordinator(
            client, timeout=args.txn_timeout,
            allow_empty_primaries=args.allow_empty_primaries)
        try:
            report = await coordinator.execute(change)
        finally:
            await client.close()
        out.write(report.format() + "\n")
        return 0

    try:
        if args.action == "status":
            return asyncio.run(status())
        if args.target_site is None:
            out.write("--target-site is required for {}\n".format(
                args.action))
            return 2
        change = PlacementChange(kind=args.action,
                                 site=args.target_site,
                                 item=args.item).validate()
        return asyncio.run(drive(change))
    except (ReconfigError, ClusterError, OSError) as exc:
        out.write("reconfig failed: {}\n".format(exc))
        return 1


def _cmd_trace(args: argparse.Namespace, out: typing.TextIO) -> int:
    from repro.obs.reconstruct import (format_tree, propagation_summary,
                                       reconstruct)

    if args.files:
        from repro.obs.trace import load_trace_file

        spans = []
        for path in args.files:
            spans.extend(load_trace_file(path))
    else:
        import asyncio

        from repro.cluster.client import ClusterClient, ClusterError

        spec = _cluster_spec_from_args(args)

        async def fetch():
            client = ClusterClient(spec)
            try:
                return await client.traces_all(trace=args.id,
                                               limit=args.limit)
            finally:
                await client.close()

        try:
            spans = asyncio.run(fetch())
        except (ClusterError, OSError) as exc:
            out.write("trace fetch failed: {}\n".format(exc))
            return 1
    trees = reconstruct(spans)
    if args.id is not None:
        tree = trees.get(args.id)
        if tree is None:
            out.write("no spans for trace {}\n".format(args.id))
            return 1
        out.write(format_tree(tree) + "\n")
        return 0
    summary = propagation_summary(trees)
    out.write("{} span(s), {} trace(s): {} propagating, {} complete\n"
              .format(len(spans), summary["count"],
                      summary["propagating"], summary["complete"]))
    if summary["complete"]:
        out.write("propagation delay: p50 {:.1f} ms  p95 {:.1f} ms  "
                  "max {:.1f} ms\n".format(summary["p50"] * 1000,
                                           summary["p95"] * 1000,
                                           summary["max"] * 1000))
    complete = sorted((tree for tree in trees.values() if tree.complete),
                      key=lambda tree: tree.delay, reverse=True)
    for tree in complete[:max(0, args.show)]:
        out.write("\n" + format_tree(tree) + "\n")
    attribution = None
    if args.attribute:
        from repro.obs.reconstruct import (attribution_summary,
                                           format_attribution)

        attribution = attribution_summary(trees, top=max(0, args.show))
        out.write("\n" + format_attribution(attribution) + "\n")
    if args.json:
        import json

        payload = {"summary": summary,
                   "delays_ms": {tid: tree.delay * 1000
                                 for tid, tree in trees.items()
                                 if tree.delay is not None}}
        if attribution is not None:
            payload["attribution"] = attribution
        with open(args.json, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, indent=2, sort_keys=True)
            handle.write("\n")
        out.write("wrote {}\n".format(args.json))
    if summary["complete"] < args.require_complete:
        out.write("FAIL: {} complete tree(s) < required {}\n".format(
            summary["complete"], args.require_complete))
        return 1
    return 0


def _cmd_dump(args: argparse.Namespace, out: typing.TextIO) -> int:
    import asyncio

    from repro.cluster.client import ClusterClient, ClusterError

    spec = _cluster_spec_from_args(args)

    async def fan():
        client = ClusterClient(spec, timeout=5.0, retries=1)
        try:
            fields: typing.Dict[str, typing.Any] = {
                "trigger": args.trigger}
            if args.dir is not None:
                fields["dir"] = args.dir
            return await client.try_each("dump", **fields)
        finally:
            await client.close()

    try:
        responses, unreachable = asyncio.run(fan())
    except (ClusterError, OSError) as exc:
        out.write("dump failed: {}\n".format(exc))
        return 1
    if args.site is not None:
        responses = {site: response
                     for site, response in responses.items()
                     if site == args.site}
        unreachable = [site for site in unreachable
                       if site == args.site]
    failures = 0
    for site, response in sorted(responses.items()):
        if response.get("ok"):
            out.write("s{}: {} ({} record(s))\n".format(
                site, response.get("path"), response.get("records")))
        else:
            failures += 1
            out.write("s{}: FAILED: {}\n".format(
                site, response.get("error")))
    for site in sorted(unreachable):
        failures += 1
        out.write("s{}: unreachable\n".format(site))
    return 1 if failures or not responses else 0


def _cmd_postmortem(args: argparse.Namespace,
                    out: typing.TextIO) -> int:
    import json

    from repro.obs.flight import validate_bundle
    from repro.obs.postmortem import (analyze, collect_bundles,
                                      format_report)

    bundles, problems = collect_bundles(args.bundles)
    for problem in problems:
        out.write("WARN: {}\n".format(problem))
    if not bundles:
        out.write("no loadable bundles\n")
        return 1
    violations = 0
    if args.check:
        for bundle in bundles:
            for problem in validate_bundle(bundle.path):
                out.write("SCHEMA VIOLATION {}: {}\n".format(
                    bundle.path, problem))
                violations += 1
        if not violations:
            out.write("all {} bundle(s) schema-valid\n".format(
                len(bundles)))
    injections = None
    if args.injections:
        with open(args.injections, "r", encoding="utf-8") as handle:
            injections = json.load(handle)
    analysis = analyze(bundles, injections=injections)
    out.write(format_report(analysis,
                            timeline_limit=args.timeline_limit) + "\n")
    if args.json:
        with open(args.json, "w", encoding="utf-8") as handle:
            json.dump(analysis, handle, indent=2, sort_keys=True)
            handle.write("\n")
        out.write("wrote {}\n".format(args.json))
    if args.check and (violations or problems):
        return 1
    return 0


def main(argv: typing.Optional[typing.Sequence[str]] = None,
         out: typing.TextIO = sys.stdout) -> int:
    """CLI entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command is None:
        parser.print_help(out)
        return 2
    handlers = {
        "protocols": _cmd_protocols,
        "run": _cmd_run,
        "sweep": _cmd_sweep,
        "figure": _cmd_figure,
        "explore": _cmd_explore,
        "replay": _cmd_replay,
        "serve": _cmd_serve,
        "loadgen": _cmd_loadgen,
        "stats": _cmd_stats,
        "trace": _cmd_trace,
        "monitor": _cmd_monitor,
        "top": _cmd_top,
        "chaos": _cmd_chaos,
        "reconfig": _cmd_reconfig,
        "dump": _cmd_dump,
        "postmortem": _cmd_postmortem,
    }
    return handlers[args.command](args, out)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
