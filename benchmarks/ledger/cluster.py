"""Process-per-site cluster for the ledger: spawn, wait ready, stop.

Every site is its own OS process started through the public CLI
(``python -m repro serve``); a traced site goes through
``traced_site.py``, which calls the same ``repro.cli.main``.  The load
comes from the benchmark's process, so the sites share no interpreter
with each other or with the driver.
"""

from __future__ import annotations

import asyncio
import dataclasses
import os
import random
import signal
import socket
import subprocess
import sys
import time
import typing

from repro.cluster.client import ClusterClient
from repro.cluster.spec import ClusterSpec
from repro.workload.params import WorkloadParams

LEDGER_DIR = os.path.dirname(os.path.abspath(__file__))
REPO_ROOT = os.path.dirname(os.path.dirname(LEDGER_DIR))
SRC_DIR = os.path.join(REPO_ROOT, "src")

#: The live topology: 3 sites, 32 items, DAG(WT), placement seed 27
#: (b = 0, so every seed yields a DAG; 27 is the legacy live bench's).
TOPOLOGY_SEED = 27
N_SITES = 3
#: Server flags that differ from `serve`'s defaults (with
#: ``--anti-entropy 0``, which is load-bearing — see the README's known
#: defect).  Wire format, apply workers and obs are *not* passed: the
#: ledger measures what ships.
SERVER_FLAGS = ("--durability", "fsync", "--batch", "64",
                "--timeout", "0.05")
TOPOLOGY_FLAGS = ("--protocol", "dag_wt", "--seed", str(TOPOLOGY_SEED),
                  "--sites", str(N_SITES), "--items", "32",
                  "--replication", "0.8", "--backedge", "0.0")

#: Ping poll interval while a cluster comes up, seconds.
READY_POLL_S = 0.010
#: Fixed pause after the cluster is ready (not part of ``setup_s``): lets
#: a start-up catch-up reply, if any, land before the load counters are
#: snapshotted.
SETTLE_S = 0.3


def cluster_spec(base_port: int, read_txn_probability: float
                 ) -> ClusterSpec:
    """The client's view of the cluster the flags above start.  Only
    the placement-determining fields enter the fingerprint; the read
    mix is the load generator's business."""
    params = WorkloadParams(
        n_sites=N_SITES, n_items=32, replication_probability=0.8,
        backedge_probability=0.0, deadlock_timeout=0.05,
        read_txn_probability=read_txn_probability)
    return ClusterSpec(params=params, protocol="dag_wt",
                       seed=TOPOLOGY_SEED, base_port=base_port,
                       durability="fsync", batch=64)


def free_base_port(n_ports: int) -> int:
    """A base port with ``n_ports`` consecutive free ports above it.

    Below the kernel's ephemeral range on purpose: the ready poll
    connects to a port nobody listens on yet, and on loopback such a
    connect can be handed its own destination as source port — it then
    connects to itself and the site can no longer bind."""
    rng = random.Random()  # seeded from the OS: runs must not collide
    for _ in range(200):
        base = rng.randrange(12000, 30000)
        sockets = []
        try:
            for offset in range(n_ports):
                sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
                sockets.append(sock)
                sock.bind(("127.0.0.1", base + offset))
        except OSError:
            continue
        finally:
            for sock in sockets:
                sock.close()
        return base
    raise RuntimeError("no free port range found")


@dataclasses.dataclass
class SiteUsage:
    """What ``wait4`` reports for one stopped site process."""

    cpu_s: float
    max_rss_mb: float
    exit_code: int


class Cluster:
    """Three site processes over one work directory."""

    def __init__(self, work_dir: str, read_txn_probability: float,
                 traced: bool = False, raw_transactions: int = 0,
                 anti_entropy_s: float = 0.0):
        self.work_dir = work_dir
        self.traced = traced
        #: Always 0 in the ledger; the README's defect reproducer
        #: passes `serve`'s default to show what it breaks.
        self.anti_entropy_s = anti_entropy_s
        self.raw_transactions = raw_transactions
        self.base_port = free_base_port(N_SITES)
        self.spec = cluster_spec(self.base_port, read_txn_probability)
        self.procs: typing.List[subprocess.Popen] = []
        #: site -> usage, once reaped.  Sites are reaped only here, with
        #: ``wait4`` (for the rusage) — never through ``Popen.poll``,
        #: which would reap without it.
        self._reaped: typing.Dict[int, SiteUsage] = {}
        self._logs: typing.List[typing.IO] = []
        os.makedirs(work_dir, exist_ok=True)

    def wal_path(self, site: int) -> str:
        return os.path.join(self.work_dir, "site{}.wal".format(site))

    def trace_path(self, site: int) -> str:
        return os.path.join(self.work_dir,
                            "site{}.spans.json".format(site))

    def _argv(self, site: int) -> typing.List[str]:
        serve = ["serve", "--site", str(site), "--wal",
                 self.wal_path(site), "--base-port", str(self.base_port),
                 *TOPOLOGY_FLAGS, *SERVER_FLAGS,
                 "--anti-entropy", str(self.anti_entropy_s)]
        if not self.traced:
            return [sys.executable, "-m", "repro", *serve]
        return [sys.executable, os.path.join(LEDGER_DIR, "traced_site.py"),
                "--ledger-out", self.trace_path(site),
                "--ledger-raw", str(self.raw_transactions), *serve]

    def spawn(self) -> None:
        env = dict(os.environ)
        env["PYTHONPATH"] = SRC_DIR + (
            os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
        for site in range(N_SITES):
            log = open(os.path.join(self.work_dir,
                                    "site{}.log".format(site)), "w")
            self._logs.append(log)
            self.procs.append(subprocess.Popen(
                self._argv(site), env=env, cwd=self.work_dir,
                stdout=log, stderr=subprocess.STDOUT))

    async def wait_ready(self, client: ClusterClient,
                         timeout: float = 30.0) -> None:
        """Until every site answers ``ping`` and no site has a message
        queued or unacknowledged — the start-up catch-up requests have
        reached their sources."""
        deadline = time.monotonic() + timeout
        for site in range(N_SITES):
            while True:
                self._check_alive()
                try:
                    await client.ping(site)
                    break
                except Exception:  # noqa: BLE001 - any refusal: retry
                    if time.monotonic() > deadline:
                        raise
                    await asyncio.sleep(READY_POLL_S)
        while any(status.get("pending_out", 0)
                  for status in (await client.statuses()).values()):
            if time.monotonic() > deadline:
                raise TimeoutError("start-up catch-up did not finish")
            await asyncio.sleep(READY_POLL_S)

    def _reap(self, site: int, block: bool) -> typing.Optional[SiteUsage]:
        if site not in self._reaped:
            proc = self.procs[site]
            pid, status, usage = os.wait4(
                proc.pid, 0 if block else os.WNOHANG)
            if not pid:
                return None
            proc.returncode = os.waitstatus_to_exitcode(status)
            self._reaped[site] = SiteUsage(
                cpu_s=usage.ru_utime + usage.ru_stime,
                max_rss_mb=usage.ru_maxrss / 1024.0,  # Linux: KiB
                exit_code=proc.returncode)
        return self._reaped[site]

    def _check_alive(self) -> None:
        for site in range(len(self.procs)):
            usage = self._reap(site, block=False)
            if usage is not None:
                raise RuntimeError("site {} exited with {}:\n{}".format(
                    site, usage.exit_code, self.log_tail(site)))

    def log_tail(self, site: int, lines: int = 20) -> str:
        try:
            with open(os.path.join(self.work_dir,
                                   "site{}.log".format(site))) as handle:
                return "".join(handle.readlines()[-lines:])
        except OSError:
            return ""

    def stop(self, grace_s: float = 15.0) -> typing.List[SiteUsage]:
        """SIGTERM every site (``serve`` drains and flushes), reap each
        with ``wait4`` for its CPU time and peak RSS; SIGKILL stragglers."""
        sites = range(len(self.procs))
        for site in sites:
            if self._reap(site, block=False) is None:
                os.kill(self.procs[site].pid, signal.SIGTERM)
        deadline = time.monotonic() + grace_s
        for site in sites:
            while self._reap(site, block=False) is None:
                if time.monotonic() > deadline:
                    os.kill(self.procs[site].pid, signal.SIGKILL)
                    self._reap(site, block=True)
                time.sleep(0.005)
        for log in self._logs:
            log.close()
        usages = [self._reaped[site] for site in sites]
        self.procs, self._logs, self._reaped = [], [], {}
        return usages

    def disk_bytes(self) -> int:
        """WAL + inbox-journal bytes on disk, all sites."""
        total = 0
        for site in range(N_SITES):
            for path in (self.wal_path(site),
                         self.wal_path(site) + ".inbox"):
                if os.path.exists(path):
                    total += os.path.getsize(path)
        return total
