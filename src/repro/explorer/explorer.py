"""The exploration driver: generate, perturb, check, shrink.

``explore`` walks a budgeted slice of schedule space.  Each iteration
derives a scenario seed and a perturbation seed from the run index (so
several perturbations are tried per generated scenario), runs the
schedule, and evaluates the oracle suite.  The first failure is shrunk
to a minimal reproducer and returned as a replayable trace document.
"""

from __future__ import annotations

import dataclasses
import typing

from repro.explorer.decisions import PerturbationPlan, stable_u64
from repro.explorer.generator import generate_scenario
from repro.explorer.runner import ScheduleOutcome, run_schedule
from repro.explorer.shrink import shrink_failure
from repro.explorer.trace import trace_dict


#: Maximum extra per-message delay of a perturbed schedule, as a multiple
#: of the base latency.
LATENCY_SCALE = 300.0


@dataclasses.dataclass
class ExplorationConfig:
    """Knobs of one exploration campaign."""

    protocol: str = "dag_wt"
    #: Number of perturbed schedules to run.
    budget: int = 100
    seed: int = 0
    min_sites: int = 2
    max_sites: int = 6
    #: Distinct perturbation seeds tried per generated scenario.
    perturbations_per_scenario: int = 4
    #: Probe-run budget for shrinking the first failure.
    max_shrink_runs: int = 400
    #: Stop at the first failure (otherwise keep counting).
    stop_on_failure: bool = True


@dataclasses.dataclass
class ExplorationReport:
    """Aggregate result of one exploration campaign."""

    config: ExplorationConfig
    schedules_run: int
    failures_found: int
    #: Shrunken first failure (None when the campaign was clean).
    failure: typing.Optional[ScheduleOutcome]
    #: Replayable trace document for :attr:`failure`.
    trace: typing.Optional[dict]
    committed_total: int
    events_total: int
    #: Probe runs spent shrinking.
    shrink_runs: int = 0

    @property
    def clean(self) -> bool:
        return self.failures_found == 0

    def summary(self) -> str:
        lines = ["explored {} schedules ({} events, {} commits): "
                 "{} oracle failure(s)".format(
                     self.schedules_run, self.events_total,
                     self.committed_total, self.failures_found)]
        if self.failure is not None:
            lines.append("minimal reproducer: {} transaction(s), "
                         "{} perturbation decision(s) enabled".format(
                             len(self.failure.spec.transactions),
                             len(self.failure.plan.queried
                                 - self.failure.plan.disabled)))
            for failure in self.failure.failures:
                lines.append("  [{}] {}".format(
                    failure.oracle, failure.detail.splitlines()[0]))
        return "\n".join(lines)


def explore(config: ExplorationConfig,
            progress: typing.Optional[typing.Callable[[str], None]]
            = None) -> ExplorationReport:
    """Run one exploration campaign."""

    def report_progress(message: str) -> None:
        if progress is not None:
            progress(message)

    per_scenario = max(1, config.perturbations_per_scenario)
    schedules_run = 0
    failures_found = 0
    committed_total = 0
    events_total = 0
    shrink_runs = 0
    first_failure: typing.Optional[ScheduleOutcome] = None
    first_trace: typing.Optional[dict] = None

    for index in range(config.budget):
        scenario_seed = stable_u64(config.seed, "scenario",
                                   index // per_scenario)
        spec = generate_scenario(scenario_seed, config.protocol,
                                 min_sites=config.min_sites,
                                 max_sites=config.max_sites)
        plan = PerturbationPlan(
            seed=stable_u64(config.seed, "plan", index),
            latency_scale=LATENCY_SCALE)
        outcome = run_schedule(spec, plan)
        schedules_run += 1
        committed_total += outcome.committed
        events_total += outcome.events_processed
        if not outcome.failed:
            continue
        failures_found += 1
        report_progress("schedule {}: {} oracle failure(s)".format(
            index, len(outcome.failures)))
        if first_failure is None:
            report_progress("shrinking ...")
            stats: dict = {}
            spec, plan, outcome = shrink_failure(
                spec, plan, max_runs=config.max_shrink_runs, stats=stats)
            shrink_runs = stats.get("runs", 0)
            first_failure = outcome
            first_trace = trace_dict(
                spec, plan, outcome,
                meta={"protocol": config.protocol,
                      "explore_seed": config.seed,
                      "schedule_index": index})
        if config.stop_on_failure:
            break

    return ExplorationReport(
        config=config, schedules_run=schedules_run,
        failures_found=failures_found, failure=first_failure,
        trace=first_trace, committed_total=committed_total,
        events_total=events_total, shrink_runs=shrink_runs)
