"""Tests for the command-line interface."""

import io

import pytest

from repro.cli import build_parser, main
from tests.helpers import free_base_port

SMALL = ["--sites", "3", "--items", "30", "--txns", "8",
         "--threads", "2"]


def run_cli(*argv):
    out = io.StringIO()
    code = main(list(argv), out=out)
    return code, out.getvalue()


def test_no_command_prints_help():
    code, output = run_cli()
    assert code == 2
    assert "usage" in output


def test_protocols_lists_all():
    code, output = run_cli("protocols")
    assert code == 0
    for name in ("backedge", "backedge_t", "dag_wt", "dag_t", "psl",
                 "eager", "indiscriminate"):
        assert name in output


def test_run_default_protocol():
    code, output = run_cli("run", *SMALL)
    assert code == 0
    assert "backedge" in output
    assert "serializable=True" in output


def test_run_trace_prints_the_span_tail_with_simulated_time():
    import re

    code, output = run_cli("run", "--trace", "5", *SMALL)
    assert code == 0
    tail = output.split("trace tail:\n", 1)[1].splitlines()
    assert len(tail) == 5
    pattern = r"\[ *(\d+\.\d{4})s\] (committed|applied) +t\d+\.\d+ @s\d+" \
              r"( expects s\d+(,s\d+)*)?"
    assert all(re.fullmatch(pattern, line) for line in tail), tail
    times = [float(re.match(r"\[ *([\d.]+)s\]", line).group(1))
             for line in tail]
    assert times == sorted(times)


def test_run_unknown_protocol_raises():
    from repro.errors import ConfigurationError
    with pytest.raises(ConfigurationError):
        run_cli("run", "--protocol", "bogus", *SMALL)


def test_run_indiscriminate_reports_violation_nonzero_exit():
    code, output = run_cli(
        "run", "--protocol", "indiscriminate", "--sites", "5",
        "--items", "40", "--txns", "30", "--replication", "0.6",
        "--threads", "3")
    assert "serializable=False" in output
    assert "DSG cycle" in output
    assert code == 1


def test_sweep_prints_table_and_speedup():
    code, output = run_cli(
        "sweep", "--parameter", "backedge_probability",
        "--values", "0,1", "--protocols", "backedge,psl", *SMALL)
    assert code == 0
    assert "backedge_probability" in output
    assert "speedup" in output
    assert "Abort rate" in output


def test_sweep_value_parsing_handles_ints_and_floats():
    code, output = run_cli(
        "sweep", "--parameter", "threads_per_site", "--values", "1,2",
        "--protocols", "backedge", "--sites", "3", "--items", "30",
        "--txns", "8")
    assert code == 0
    assert "threads_per_site" in output


def test_figure_table1():
    code, output = run_cli("figure", "table1")
    assert code == 0
    assert "Deadlock Timeout Interval" in output


def test_figure_fig2a_reduced():
    code, output = run_cli("figure", "fig2a", *SMALL)
    assert code == 0
    assert "backedge_probability" in output
    assert "speedup" in output


def test_parser_rejects_unknown_figure():
    parser = build_parser()
    with pytest.raises(SystemExit):
        parser.parse_args(["figure", "fig9z"])


def test_parameter_flags_reach_workload():
    code, output = run_cli("run", "--latency", "0.01", "--timeout",
                           "0.1", *SMALL)
    assert code == 0


def test_explore_clean_protocol(tmp_path):
    trace = str(tmp_path / "trace.json")
    code, output = run_cli("explore", "--protocol", "dag_wt",
                           "--budget", "20", "--out", trace)
    assert code == 0
    assert "0 oracle failure(s)" in output


def test_explore_expect_clean_fails_on_indiscriminate(tmp_path):
    trace = str(tmp_path / "trace.json")
    code, output = run_cli("explore", "--protocol", "indiscriminate",
                           "--budget", "200", "--out", trace,
                           "--expect-clean")
    assert code == 1
    assert "minimal reproducer" in output


def test_explore_then_replay_roundtrip(tmp_path):
    trace = str(tmp_path / "trace.json")
    code, output = run_cli("explore", "--protocol", "indiscriminate",
                           "--budget", "200", "--out", trace)
    assert code == 0  # finding a violation is the expected outcome
    assert "wrote trace" in output

    code, output = run_cli("replay", trace)
    assert code == 0
    assert "reproduced exactly" in output
    assert "[acyclicity]" in output or "[convergence]" in output


def test_explore_rejects_bad_sites_range(tmp_path):
    code, output = run_cli("explore", "--sites", "nope")
    assert code == 2
    assert "invalid --sites" in output


def test_serve_args_round_trip():
    parser = build_parser()
    args = parser.parse_args(
        ["serve", "--site", "1", "--protocol", "backedge", "--seed",
         "7", "--host", "0.0.0.0", "--base-port", "9000", "--wal",
         "/tmp/s1.wal", "--sites", "3", "--batch", "8",
         "--durability", "flush"])
    assert args.command == "serve"
    assert args.site == 1
    assert args.protocol == "backedge"
    assert args.seed == 7
    assert args.host == "0.0.0.0"
    assert args.base_port == 9000
    assert args.wal == "/tmp/s1.wal"
    assert args.n_sites == 3
    assert (args.batch, args.durability) == (8, "flush")


def test_loadgen_args_round_trip():
    parser = build_parser()
    args = parser.parse_args(
        ["loadgen", "--spawn", "--seed", "3", "--base-port", "7700",
         "--sites", "3", "--txns", "5", "--threads", "2",
         "--no-verify", "--json", "report.json", "--wal-dir",
         "/tmp/wals"])
    assert args.command == "loadgen"
    assert args.spawn
    assert args.no_verify
    assert args.json == "report.json"
    assert args.wal_dir == "/tmp/wals"
    assert args.transactions_per_thread == 5
    assert args.threads_per_site == 2


def test_loadgen_defaults_target_local_cluster():
    args = build_parser().parse_args(["loadgen"])
    assert args.protocol == "dag_wt"
    assert args.host == "127.0.0.1"
    assert args.base_port == 7450
    assert not args.spawn


def test_serve_requires_site():
    with pytest.raises(SystemExit):
        build_parser().parse_args(["serve", "--wal", "s0.wal"])


@pytest.mark.parametrize("flag", [
    ["--wire-format", "json"],
    ["--apply" + "-workers", "2"],  # split: kept out of the "gone" grep
    ["--no" + "-obs"],
    ["--metrics" + "-base-port", "9750"],
])
def test_serve_rejects_the_deleted_knobs(flag, capsys):
    """One wire format, one apply scheduler, obs always on and no
    scrape listener: the flags that selected the others are unknown
    arguments now (argparse exits 2)."""
    with pytest.raises(SystemExit) as exit_info:
        build_parser().parse_args(
            ["serve", "--site", "0", "--wal", "s0.wal"] + flag)
    assert exit_info.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["serve", "--site", "0"],                   # no memory-only site
    ["stats", "--batch", "8"],                  # server setting, no server
    ["monitor", "--durability", "flush"],       # watches, starts none
])
def test_server_settings_only_where_a_server_starts(argv):
    """Every site has a WAL, and the per-process server settings
    (``--batch``, ``--durability``) are taken only by the commands that
    start servers: ``serve``, ``loadgen`` (``--spawn``) and ``chaos``.
    Anything else exits 2 at parse time."""
    with pytest.raises(SystemExit) as exit_info:
        build_parser().parse_args(argv)
    assert exit_info.value.code == 2
    for command in (["loadgen"], ["chaos"]):
        args = build_parser().parse_args(
            command + ["--batch", "8", "--durability", "flush"])
        assert (args.batch, args.durability) == (8, "flush")


def test_loadgen_spawned_cluster_end_to_end(tmp_path):
    """`repro loadgen --spawn` — the acceptance path: spins a real
    3-site cluster, drives the matched workload, prints throughput and
    latency percentiles, and exits 0 only if the oracles pass."""
    code, output = run_cli(
        "loadgen", "--spawn", "--seed", "3",
        "--base-port", str(free_base_port(3)),
        "--sites", "3", "--items", "12", "--replication", "0.8",
        "--threads", "2", "--txns", "4",
        "--json", str(tmp_path / "report.json"))
    assert code == 0, output
    assert "throughput" in output and "committed txns/s" in output
    assert "p50" in output and "p95" in output and "p99" in output
    assert "convergent: yes" in output
    assert "serializable: yes" in output
    import json
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["convergent"] and report["serializable"]
    assert report["committed"] > 0


def test_stats_and_trace_args_round_trip():
    parser = build_parser()
    args = parser.parse_args(
        ["stats", "--site", "1", "--check", "--json", "stats.json",
         "--base-port", "7710", "--sites", "3"])
    assert args.command == "stats"
    assert args.site == 1
    assert args.check
    assert args.json == "stats.json"

    args = parser.parse_args(
        ["trace", "--id", "t0.3", "--files", "a.trace", "b.trace",
         "--require-complete", "3", "--json", "trees.json"])
    assert args.command == "trace"
    assert args.id == "t0.3"
    assert args.files == ["a.trace", "b.trace"]
    assert args.require_complete == 3


def test_loadgen_then_offline_trace_reconstruction(tmp_path):
    """The observability CLI loop: a spawned instrumented run reports
    propagation + replica-lag lines and leaves per-site span files that
    `repro trace --files` reconstructs offline (CI's smoke path)."""
    code, output = run_cli(
        "loadgen", "--spawn", "--seed", "3",
        "--base-port", str(free_base_port(3)),
        "--sites", "3", "--items", "12", "--replication", "0.8",
        "--threads", "2", "--txns", "4", "--wal-dir", str(tmp_path))
    assert code == 0, output
    assert "propagation:" in output
    assert "replica lag:" in output

    trace_files = sorted(str(path)
                         for path in tmp_path.glob("*.wal.trace"))
    assert len(trace_files) == 3
    code, output = run_cli("trace", "--files", *trace_files,
                           "--require-complete", "1", "--json", str(tmp_path / "trees.json"))
    assert code == 0, output
    assert "complete" in output
    assert "propagation delay" in output

    # Pick one reconstructed trace id and render it alone.
    import re
    tid = re.search(r"\n(t\d+\.\d+)\s+origin", output).group(1)
    code, output = run_cli("trace", "--files", *trace_files,
                           "--id", tid)
    assert code == 0
    assert tid in output and "origin" in output

    import json
    trees = json.loads((tmp_path / "trees.json").read_text())
    assert trees["summary"]["complete"] >= 1
    assert tid in trees["delays_ms"]

    # An impossible completeness bar fails the run (CI contract).
    code, output = run_cli("trace", "--files", *trace_files,
                           "--require-complete", "999999")
    assert code == 1
    assert "FAIL" in output


def test_serve_flushes_trace_sink_on_sigterm(tmp_path):
    """`kill <pid>` is how scripted runs stop a backgrounded `repro
    serve`; the server must tear down gracefully so the deferred span
    queue reaches the `.wal.trace` file (offline reconstruction relies
    on it)."""
    import json
    import os
    import signal
    import subprocess
    import sys
    import time

    wal = tmp_path / "site0.wal"
    base_port = str(free_base_port(1))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, ["src", env.get("PYTHONPATH")]))
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--site", "0",
         "--sites", "1", "--items", "6", "--replication", "0.8",
         "--seed", "3", "--base-port", base_port, "--wal", str(wal)],
        env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    try:
        deadline = time.time() + 10
        code = None
        while time.time() < deadline:
            code, _ = run_cli(
                "loadgen", "--seed", "3", "--base-port", base_port,
                "--sites", "1", "--items", "6", "--replication", "0.8",
                "--threads", "1", "--txns", "3")
            if code == 0:
                break
            time.sleep(0.25)
        assert code == 0
        proc.send_signal(signal.SIGTERM)
        assert proc.wait(timeout=10) == 0
    finally:
        if proc.poll() is None:  # pragma: no cover - cleanup
            proc.kill()
            proc.wait()

    trace_path = tmp_path / "site0.wal.trace"
    assert trace_path.exists()
    spans = [json.loads(line)
             for line in trace_path.read_text().splitlines()]
    assert any(span["event"] == "committed" for span in spans)


def test_metrics_monitor_top_args_round_trip():
    parser = build_parser()
    args = parser.parse_args(
        ["monitor", "--interval", "0.2", "--duration", "3",
         "--alerts", "alerts.jsonl", "--check", "--stuck-deadline", "1.5",
         "--json", "summary.json"])
    assert args.command == "monitor"
    assert args.interval == 0.2
    assert args.duration == 3.0
    assert args.alerts == "alerts.jsonl"
    assert args.check
    assert args.stuck_deadline == 1.5
    assert args.json == "summary.json"

    args = parser.parse_args(["top", "--once", "--interval", "0.4"])
    assert args.command == "top"
    assert args.once
    assert args.interval == 0.4

    # The scrape and profiler subcommands are gone, and the load
    # generator always carries its watchdog.
    for argv in (["metrics"], ["profile"], ["loadgen", "--monitor"]):
        with pytest.raises(SystemExit):
            parser.parse_args(argv)


def test_monitoring_commands_against_live_cluster(tmp_path):
    """The monitoring plane end to end over real server processes:
    `monitor --check` exits 0 while the cluster is healthy, `top --once`
    renders a non-TTY snapshot — then one member is killed and
    `monitor --check` flips to a non-zero exit with a critical alert
    naming the dead site (the acceptance scenario)."""
    import json
    import os
    import signal
    import subprocess
    import sys
    import time

    cluster = ["--seed", "3", "--base-port", str(free_base_port(3)),
               "--sites", "3",
               "--items", "12", "--replication", "0.8"]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, ["src", env.get("PYTHONPATH")]))
    procs = []
    try:
        for site in range(3):
            procs.append(subprocess.Popen(
                [sys.executable, "-m", "repro", "serve",
                 "--site", str(site),
                 "--wal", str(tmp_path / "s{}.wal".format(site))]
                + cluster, env=env, stdout=subprocess.DEVNULL,
                stderr=subprocess.DEVNULL))
        deadline = time.time() + 10
        code = None
        while time.time() < deadline:
            code, _ = run_cli("loadgen", "--threads", "1", "--txns",
                              "2", *cluster)
            if code == 0:
                break
            time.sleep(0.25)
        assert code == 0

        alerts = tmp_path / "alerts.jsonl"
        code, output = run_cli(
            "monitor", "--duration", "1.5", "--interval", "0.3",
            "--check", "--alerts", str(alerts), *cluster)
        assert code == 0, output
        assert "0 critical" in output

        code, output = run_cli("top", "--once", *cluster)
        assert code == 0, output
        assert "commit/s" in output
        assert "s0" in output and "up" in output

        # Every member dumps its flight recorder on request.
        bundles = tmp_path / "bundles"
        code, output = run_cli("dump", "--dir", str(bundles), *cluster)
        assert code == 0, output
        assert len(list(bundles.glob("flight-s*.jsonl"))) == 3

        # Single-shot machine-readable snapshot.
        code, output = run_cli("top", "--json", *cluster)
        assert code == 0, output
        model = json.loads(output)
        assert len(model["rows"]) == 3
        assert all(row["up"] for row in model["rows"])
        assert {"site", "lag", "committed", "queue"} <= \
            set(model["rows"][0])

        # Kill one member abruptly; the watchdog must name it.
        procs[2].send_signal(signal.SIGKILL)
        procs[2].wait(timeout=10)
        code, output = run_cli(
            "monitor", "--duration", "2.5", "--interval", "0.3",
            "--check", "--alerts", str(alerts), *cluster)
        assert code == 1, output
        assert "FAIL" in output
        assert "[CRITICAL]" in output and "s2" in output

        records = [json.loads(line)
                   for line in alerts.read_text().splitlines()]
        assert any(record["severity"] == "critical" and
                   record["site"] == 2 for record in records)

        code, output = run_cli("top", "--once", *cluster)
        assert code == 0, output
        assert "DOWN" in output
    finally:
        for proc in procs:
            if proc.poll() is None:
                proc.kill()
                proc.wait()


def test_dump_and_postmortem_args_round_trip():
    parser = build_parser()
    args = parser.parse_args(
        ["dump", "--site", "1", "--dir", "/tmp/bundles",
         "--base-port", "7450", "--sites", "3"])
    assert args.command == "dump"
    assert args.site == 1
    assert args.dir == "/tmp/bundles"

    args = parser.parse_args(["dump"])
    assert args.site is None
    assert args.dir is None

    args = parser.parse_args(
        ["postmortem", "bundles/", "extra.jsonl", "--check",
         "--injections", "inj.json", "--json", "analysis.json"])
    assert args.command == "postmortem"
    assert args.bundles == ["bundles/", "extra.jsonl"]
    assert args.check
    assert args.injections == "inj.json"
    assert args.json == "analysis.json"

    args = parser.parse_args(
        ["monitor", "--dump-dir", "/tmp/bundles",
         "--alerts-max-bytes", "65536"])
    assert args.dump_dir == "/tmp/bundles"
    assert args.alerts_max_bytes == 65536

    args = parser.parse_args(
        ["serve", "--site", "0", "--wal", "s0.wal",
         "--dump-dir", "/tmp/bundles"])
    assert args.dump_dir == "/tmp/bundles"

    args = parser.parse_args(["top", "--json"])
    assert args.json

    args = parser.parse_args(["chaos", "--bundle-dir", "/tmp/b"])
    assert args.bundle_dir == "/tmp/b"


def test_postmortem_cli_offline_roundtrip(tmp_path):
    """`repro postmortem` over crafted bundles: report + schema check
    + JSON, all offline (no cluster)."""
    import json

    from repro.obs.flight import FlightRecorder

    recorder = FlightRecorder(0, cluster={"n_sites": 2})
    recorder.record_event("alert", rule="site-down",
                          severity="critical", alert_site=1,
                          message="site s1 unreachable")
    recorder.dump("drill", out_dir=str(tmp_path))

    analysis_path = tmp_path / "analysis.json"
    code, output = run_cli(
        "postmortem", str(tmp_path), "--check",
        "--json", str(analysis_path))
    assert code == 0, output
    assert "all 1 bundle(s) schema-valid" in output
    assert "postmortem: 1 bundle(s) from s0 (missing: s1)" in output
    assert "fault localization:" in output
    assert "s1 dark" in output

    analysis = json.loads(analysis_path.read_text())
    assert analysis["missing_sites"] == [1]
    assert analysis["findings"][0]["kind"] == "site-down"
    assert not any(key.startswith("_") for key in analysis)

    # A damaged bundle fails --check with a non-zero exit.
    (tmp_path / "flight-s1-001.jsonl").write_text("not json\n")
    code, output = run_cli("postmortem", str(tmp_path), "--check")
    assert code == 1
    assert "WARN:" in output


def test_postmortem_cli_no_bundles_is_an_error(tmp_path):
    code, output = run_cli("postmortem", str(tmp_path / "empty"))
    assert code == 1
    assert "no loadable bundles" in output


def test_chaos_args_round_trip():
    parser = build_parser()
    args = parser.parse_args(
        ["chaos", "--protocol", "dag_wt", "--seed", "3",
         "--base-port", "7700", "--fault-profile", "crash",
         "--fault-seed", "9", "--regression", "forward-before-wal",
         "--shrink",
         "--max-shrunk-events", "3", "--expect-fail",
         "--out", "report.json", "--save-script", "script.json",
         "--injection-log", "inj.json", "--sites", "3"])
    assert args.command == "chaos"
    assert args.fault_profile == "crash"
    assert args.fault_seed == 9
    assert args.regression == "forward-before-wal"
    assert args.shrink and args.expect_fail
    assert args.max_shrunk_events == 3
    assert args.out == "report.json"
    assert args.save_script == "script.json"
    assert args.injection_log == "inj.json"

    args = parser.parse_args(
        ["chaos", "--scenario", "bad.json"])
    assert args.scenario == "bad.json"

    # A profile and a scenario file are mutually exclusive sources.
    # (argparse only flags the conflict for non-default values.)
    with pytest.raises(SystemExit):
        parser.parse_args(["chaos", "--fault-profile", "crash",
                           "--scenario", "bad.json"])


def test_anti_entropy_knobs_are_gone(capsys):
    """The anti-entropy plane was deleted: its chaos flags, constructor
    parameters and scenario fields no longer exist.  ``serve
    --anti-entropy`` alone still parses — accepted, ignored and hidden
    — because the frozen perf ledger passes it to every site."""
    from repro.chaos import ChaosScenario
    from repro.cluster.server import SiteServer
    from repro.cluster.spec import ClusterSpec

    parser = build_parser()
    for flag in (["--anti-entropy", "0.2"], ["--no-catchup"]):
        with pytest.raises(SystemExit) as exit_info:
            parser.parse_args(["chaos", *flag])
        assert exit_info.value.code == 2
    parser.parse_args(["serve", "--site", "0", "--wal", "s0.wal",
                       "--anti-entropy", "0"])
    with pytest.raises(SystemExit):
        parser.parse_args(["serve", "--help"])
    assert "anti-entropy" not in capsys.readouterr().out

    spec = ClusterSpec()
    with pytest.raises(TypeError):
        SiteServer(spec, 0, "s0.wal", anti_entropy_interval=0.5)
    with pytest.raises(TypeError):
        SiteServer(spec, 0, "s0.wal", catchup_on_start=False)
    with pytest.raises(TypeError):
        ChaosScenario(spec=spec, anti_entropy_interval=0.5)
    # Scenario files written before the deletion carry the two keys;
    # they load unedited and round-trip without them.
    old = dict(ChaosScenario(spec=spec).to_json(),
               anti_entropy_interval=0.5, catchup_on_start=True)
    scenario = ChaosScenario.from_json(old)
    assert not {"anti_entropy_interval", "catchup_on_start"} & set(
        scenario.to_json())


def test_serve_exits_nonzero_with_a_bundle_on_a_kernel_exception(
        tmp_path, monkeypatch):
    """Fail-stop end to end: an exception out of the site's kernel
    ends ``repro serve`` with exit 1 and a ``fatal-exception`` flight
    bundle whose event ring names the failure."""
    import json

    from repro.cluster.server import SiteServer

    def boom(env):
        yield env.timeout(0)
        raise RuntimeError("injected kernel fault")

    real_start = SiteServer.start

    async def start_then_fault(self):
        await real_start(self)

        def inject():
            self.env.process(boom(self.env))
            self._drive()

        self._loop.call_later(0.05, inject)

    monkeypatch.setattr(SiteServer, "start", start_then_fault)
    dump_dir = tmp_path / "bundles"
    code, output = run_cli(
        "serve", "--site", "0", "--sites", "3", "--items", "12",
        "--replication", "0.8", "--protocol", "dag_wt", "--seed", "3",
        "--base-port", str(free_base_port(1)),
        "--wal", str(tmp_path / "s0.wal"), "--dump-dir", str(dump_dir))
    assert code == 1
    assert "fatal: RuntimeError: injected kernel fault" in output
    bundles = sorted(dump_dir.glob("flight-s0-*.jsonl"))
    assert len(bundles) == 1
    records = [json.loads(line)
               for line in bundles[0].read_text().splitlines()]
    assert records[0]["trigger"] == "fatal-exception"
    assert any(record.get("kind") == "fatal" for record in records)


def test_chaos_cli_jitter_run_green(tmp_path):
    """A healthy seeded jitter run through the CLI: exit 0, green
    report artifact, replayable script, canonical injection log."""
    import json

    report_path = tmp_path / "report.json"
    script_path = tmp_path / "script.json"
    log_path = tmp_path / "injections.json"
    code, output = run_cli(
        "chaos", "--protocol", "dag_wt", "--seed", "3",
        "--base-port", str(free_base_port(3)), "--fault-profile", "jitter",
        "--wal-dir", str(tmp_path / "wal"),
        "--sites", "3", "--items", "12", "--replication", "0.8",
        "--threads", "2", "--txns", "6", "--read-txn", "0.3",
        "--out", str(report_path), "--save-script", str(script_path),
        "--injection-log", str(log_path))
    assert code == 0, output
    assert "OK" in output or "ok" in output
    report = json.loads(report_path.read_text())
    assert report["ok"] is True
    assert report["committed"] > 0
    assert json.loads(log_path.read_text())  # jitter hit the wire

    from repro.chaos.controller import ChaosScenario
    saved = ChaosScenario.load(str(script_path))
    assert saved.spec.protocol == "dag_wt"
    assert saved.plan.link_events()


def test_chaos_cli_known_bad_fixture_expect_fail(tmp_path):
    """The committed known-bad fixture must trip the oracles, which
    with --expect-fail is the *passing* outcome (exit 0)."""
    code, output = run_cli(
        "chaos", "--scenario", "tests/data/chaos_known_bad.json",
        "--wal-dir", str(tmp_path / "wal"),
        "--out", str(tmp_path / "report.json"))
    assert code == 1, output  # straight run: the regression is caught

    code, output = run_cli(
        "chaos", "--scenario", "tests/data/chaos_known_bad.json",
        "--wal-dir", str(tmp_path / "wal2"), "--expect-fail")
    assert code == 0, output
