"""R3 — replica recency (Sec. 5.3.4), measured with the staleness probe.

The paper: "we believe that recency of a site with the BackEdge
protocols can be expected to be very good in practice."  This bench
quantifies it — sampling every replica's version lag behind its primary
during the default-setting run — and contrasts PSL, whose replicas are
stale *by design* (refreshed only on access)."""

from common import SEED, banner
from repro.errors import TransactionAborted
from repro.harness.probes import StalenessProbe
from repro.harness.runner import ExperimentConfig, build_system
from repro.sim.events import AllOf
from repro.workload.params import WorkloadParams


def run_with_probe(protocol: str):
    params = WorkloadParams(transactions_per_thread=40)
    config = ExperimentConfig(protocol=protocol, params=params, seed=SEED)
    env, system, proto, generator = build_system(config)
    probe = StalenessProbe(system, period=0.050)
    probe.start()

    processes = []
    for site_id in range(params.n_sites):
        for thread in range(params.threads_per_site):
            ref = []

            def client(site_id=site_id, thread=thread, ref=ref):
                for spec in generator.thread_stream(site_id, thread):
                    try:
                        yield from proto.run_transaction(site_id, spec,
                                                         ref[0])
                    except TransactionAborted:
                        pass

            ref.append(env.process(client()))
            processes.append(ref[0])
    env.run(until=AllOf(env, processes))
    return probe


def test_replica_recency():
    probes = {protocol: run_with_probe(protocol)
              for protocol in ("backedge", "psl")}
    banner("Sec. 5.3.4: replica recency at defaults (sampled every 50 ms)",
           width=70)
    print("{:<10}{:>18}{:>14}{:>18}".format(
        "protocol", "mean version lag", "max lag", "% fully current"))
    for protocol, probe in probes.items():
        print("{:<10}{:>18.3f}{:>14}{:>17.1f}%".format(
            protocol, probe.mean_version_lag(), probe.max_version_lag(),
            probe.fraction_current() * 100.0))

    backedge, psl = probes["backedge"], probes["psl"]
    # BackEdge replicas are almost always current ("very good recency").
    assert backedge.fraction_current() > 0.9
    assert backedge.mean_version_lag() < 0.5
    # PSL replicas drift arbitrarily (never refreshed by design).
    assert psl.mean_version_lag() > 5 * max(backedge.mean_version_lag(),
                                            0.01)
