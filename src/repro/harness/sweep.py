"""Parameter sweeps: run a series of experiments varying one workload
parameter across protocols — the shape of every figure in Sec. 5.3."""

from __future__ import annotations

import dataclasses
import typing

from repro.harness.runner import (
    ExperimentConfig,
    ExperimentResult,
    run_experiment,
)
from repro.workload.params import WorkloadParams


@dataclasses.dataclass
class SweepPoint:
    """One (parameter value, protocol) cell of a sweep."""

    parameter: str
    value: typing.Any
    protocol: str
    result: ExperimentResult


def sweep(parameter: str, values: typing.Sequence,
          protocols: typing.Sequence[str],
          base_params: typing.Optional[WorkloadParams] = None,
          seed: int = 0,
          config_template: typing.Optional[ExperimentConfig] = None,
          ) -> typing.List[SweepPoint]:
    """Run ``protocols`` x ``values`` experiments varying ``parameter``.

    Each (value, protocol) pair uses the same seed so both protocols see
    the identical placement and workload — the paper's apples-to-apples
    setup.
    """
    base_params = base_params or WorkloadParams()
    template = config_template or ExperimentConfig()
    points: typing.List[SweepPoint] = []
    for value in values:
        params = base_params.replaced(**{parameter: value})
        for protocol in protocols:
            config = dataclasses.replace(
                template, protocol=protocol, params=params, seed=seed)
            points.append(SweepPoint(parameter, value, protocol,
                                     run_experiment(config)))
    return points


class Figure(typing.NamedTuple):
    """One of Sec. 5.3's throughput figures: BackEdge against PSL as
    ``parameter`` takes ``values``, on the defaults changed by
    ``overrides``."""

    parameter: str
    values: typing.Tuple
    overrides: typing.Mapping[str, typing.Any] = {}


#: The paper's Figs. 2 and 3, read by ``repro figure`` and the benches.
FIGURES: typing.Dict[str, Figure] = {
    "fig2a": Figure("backedge_probability",
                    (0.0, 0.2, 0.4, 0.6, 0.8, 1.0)),
    "fig2b": Figure("replication_probability",
                    (0.0, 0.1, 0.2, 0.4, 0.7, 1.0)),
    "fig3a": Figure("read_op_probability",
                    (0.0, 0.2, 0.4, 0.5, 0.6, 0.8, 1.0),
                    {"backedge_probability": 0.0,
                     "replication_probability": 0.5,
                     "read_txn_probability": 0.0}),
    "fig3b": Figure("read_op_probability",
                    (0.0, 0.3, 0.5, 0.7, 0.9, 1.0),
                    {"backedge_probability": 1.0,
                     "replication_probability": 0.5,
                     "read_txn_probability": 0.0}),
}


def series(points: typing.Iterable[SweepPoint], protocol: str,
           metric: str = "average_throughput"
           ) -> typing.List[typing.Tuple[typing.Any, float]]:
    """Extract one protocol's ``(value, metric)`` series from a sweep."""
    return [(point.value, getattr(point.result, metric))
            for point in points if point.protocol == protocol]
