"""How fast is this host, right now?

The reference box is a 2-vCPU VM on a shared machine, and its cores run
at two speeds: for seconds to tens of minutes at a time the same Python
code costs up to 1.3x the CPU time (a neighbour on the sibling
hyperthread, by the look of it).  Two ledgers of identical code taken
half an hour apart differed by 20-28 % on every CPU-bound metric while
this file did not exist — more than any bound the ledger could then
enforce.

So every run carries a yardstick: a fixed pure-Python loop, timed in CPU
time (descheduling does not count), sampled every 50 ms for as long as
the measurement lasts.  Its mean, over the loop's cost on the quiet
reference box, is the run's *slowness*, and the workloads that keep the
cores busy — the closed loops and the simulator — report their
end-to-end rates and times **at nominal host speed**: rates multiplied
by the slowness, times divided by it (ROADMAP item 1c: "a reference-loop
calibration so numbers normalise across machines").  The values as
measured and the slowness are printed with every run.

``steady_write`` is reported as measured.  It leaves the cores mostly
idle, so the yardstick there times a core waking up (it read 1.5-2.1
while the workload's own CPU cost per transaction had not moved), and
its latency is a chain of waits, not a CPU budget.
"""

from __future__ import annotations

import asyncio
import contextlib
import statistics
import time
import typing

_SPIN = 10000
#: CPU seconds the spin costs on the reference box when nothing
#: interferes.  A constant: it only fixes the unit of "slowness".
NOMINAL_SPIN_S = 0.00050
#: Seconds between yardstick samples (a 1 % load on one core).
PERIOD_S = 0.05


def _spin(iterations: int) -> int:
    total = 0
    for index in range(iterations):
        total += index * index % 7
    return total


def ref_loop_ms() -> float:
    """Wall time of a fixed loop, best of three (so a descheduled slice
    does not read as a slow host): the stamp in result files."""
    best = float("inf")
    for _ in range(3):
        started = time.perf_counter()
        _spin(200000)
        best = min(best, time.perf_counter() - started)
    return best * 1000.0


class Yardstick:
    """Samples of the spin's CPU cost while something else is measured."""

    def __init__(self) -> None:
        self.samples: typing.List[float] = []

    def sample(self) -> float:
        started = time.thread_time()
        _spin(_SPIN)
        self.samples.append(time.thread_time() - started)
        return self.samples[-1] / NOMINAL_SPIN_S

    @property
    def slowness(self) -> float:
        """Mean spin cost over nominal: 1.0 on the quiet reference box,
        above it while the host is slow.  The mean, not the median: a
        run that spent a third of its time on a slow core should read
        a third of the way to slow."""
        return statistics.fmean(self.samples) / NOMINAL_SPIN_S

    @contextlib.asynccontextmanager
    async def sampling(self) -> typing.AsyncIterator["Yardstick"]:
        """Sample every :data:`PERIOD_S` while the body runs."""
        async def loop() -> None:
            while True:
                self.sample()
                await asyncio.sleep(PERIOD_S)
        task = asyncio.ensure_future(loop())
        try:
            yield self
        finally:
            task.cancel()


#: End-to-end metrics that shrink / grow in proportion as the host slows.
RATES = ("commit_txn_s", "converged_txn_s")
TIMES = ("commit_p50_ms", "commit_p95_ms", "cpu_ms_per_txn")


def at_nominal_speed(end_to_end: typing.Mapping[str, float],
                     slowness: float) -> typing.Dict[str, float]:
    """``end_to_end`` as a host of nominal speed would have measured it.
    Memory does not depend on speed, and set-up time is left as
    measured (the driver mostly sleeps while sites start, and a
    yardstick that wakes a cold core every 50 ms measures the waking)."""
    scaled = dict(end_to_end)
    for name in RATES:
        if name in scaled:
            scaled[name] *= slowness
    for name in TIMES:
        if name in scaled:
            scaled[name] /= slowness
    return scaled
