"""Chaos harness: seeded fault schedules against the live cluster.

The simulator's explorer (:mod:`repro.explorer`) perturbs *virtual*
schedules; this package perturbs the *real* asyncio/TCP cluster — link
delay/jitter/drop at the transport seam, site kill/restart through the
server lifecycle, WAL/journal corruption between restarts — from a
seeded, serializable :class:`~repro.chaos.plan.FaultPlan`, then judges
the run with the same offline oracles plus the live watchdog.  Failing
scripts shrink to minimal replayable JSON artifacts with the explorer's
``ddmin``.  See ``docs/CHAOS.md``.
"""

from repro.chaos.controller import (
    REGRESSIONS,
    ChaosRunReport,
    ChaosScenario,
    run_chaos,
)
from repro.chaos.plan import (
    PROFILES,
    CorruptFault,
    FaultPlan,
    FaultVerdict,
    KillFault,
    LinkFault,
    LinkFaultInjector,
    profile_plan,
)
from repro.chaos.shrinker import shrink_scenario

__all__ = [
    "ChaosRunReport",
    "ChaosScenario",
    "CorruptFault",
    "FaultPlan",
    "FaultVerdict",
    "KillFault",
    "LinkFault",
    "LinkFaultInjector",
    "PROFILES",
    "REGRESSIONS",
    "profile_plan",
    "run_chaos",
    "shrink_scenario",
]
