"""Shrink a failing chaos scenario to a minimal fault script.

A chaos script that trips an oracle is usually noisy: background
jitter rules, drops and kills that played no part in the actual
failure.  :func:`shrink_scenario` minimises the *fault events* with
the explorer's :func:`~repro.explorer.shrink.ddmin` — every probe is a
full fresh chaos run (new WAL directory, same workload seed), so the
surviving script is a self-contained reproducer, not a snapshot.

Only the plan's events shrink; the cluster spec, fault seed and any
injected regression are part of the scenario's identity and stay
fixed.  The common shape after shrinking a regression scenario is a
single ``kill`` event — the crash that turns the neutered durability
barrier into observable divergence.
"""

from __future__ import annotations

import dataclasses
import itertools
import os
import typing

from repro.chaos.controller import ChaosRunReport, ChaosScenario, \
    run_chaos
from repro.explorer.shrink import ddmin


def shrink_scenario(scenario: ChaosScenario, work_dir: str,
                    log: typing.Optional[
                        typing.Callable[[str], None]] = None
                    ) -> typing.Tuple[ChaosScenario, ChaosRunReport]:
    """Minimise ``scenario``'s fault events while the run still fails.

    ``scenario`` must currently fail (``run_chaos(...).ok is False``)
    — probes run under ``work_dir`` (one fresh subdirectory each).
    Returns the minimal scenario and its (still-failing) report.
    """
    os.makedirs(work_dir, exist_ok=True)
    counter = itertools.count()
    cache: typing.Dict[tuple, ChaosRunReport] = {}

    def probe(events: typing.Sequence) -> ChaosRunReport:
        key = tuple(events)
        if key not in cache:
            candidate = scenario.replaced(plan=dataclasses.replace(
                scenario.plan, events=tuple(events)))
            wal_dir = os.path.join(
                work_dir, "probe{}".format(next(counter)))
            report = run_chaos(candidate, wal_dir)
            cache[key] = report
            if log is not None:
                log("shrink probe {}: {} event(s) -> {}".format(
                    len(cache), len(key),
                    "still fails" if not report.ok else "passes"))
        return cache[key]

    baseline = probe(scenario.plan.events)
    if baseline.ok:
        raise ValueError(
            "shrink_scenario needs a failing scenario (baseline run "
            "was clean)")

    minimal_events = ddmin(list(scenario.plan.events),
                           lambda events: not probe(events).ok)
    minimal = scenario.replaced(plan=dataclasses.replace(
        scenario.plan, events=tuple(minimal_events)))
    return minimal, cache[tuple(minimal_events)]
