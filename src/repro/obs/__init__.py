"""``repro.obs`` — telemetry for the live cluster runtime (and the
span path of ``repro run --trace``).

What is left after the consumer trial (``docs/OBSERVABILITY.md`` has
the module → consumer table):

- :mod:`repro.obs.registry` — a low-overhead metrics registry
  (counters, gauges, fixed-bucket histograms) instrumenting the hot
  paths of :mod:`repro.cluster`; served by the ``stats`` wire request.
- :mod:`repro.obs.trace` — update-propagation tracing: per-origin
  transaction trace ids derived from the message payload (nothing rides
  on the wire), a per-site span sink (ring buffer + optional JSONL
  file, which for a live site is its black box: spans plus lifecycle
  records), and the one span observer the live server and the
  simulator share.
- :mod:`repro.obs.reconstruct` — stitches span records from many sites
  into per-transaction propagation trees with per-hop latencies and
  attribution — the paper's Sec. 5.3.4 propagation-delay measure on
  real sockets.
- :mod:`repro.obs.monitor` — the online invariant watchdog behind
  ``repro monitor``: four live rules (site-down, lag SLO, stuck
  propagation, divergence) with deduplicated structured alerts and a
  JSONL sink.  Its per-poll replica-lag sample is the one live lag
  computation.
- :mod:`repro.obs.dashboard` — the ``repro top`` terminal dashboard
  (per-site rates, lag, stage shares, propagation percentiles, active
  alerts).
- :mod:`repro.obs.postmortem` — the ``repro postmortem`` analyzer:
  merges the sites' span files into one cross-site timeline on the
  sites' shared host clock, with automatic fault localization (dark
  and fail-stopped sites, stalled hops).
"""

from repro.obs.registry import (  # noqa: F401
    MetricsRegistry,
    validate_snapshot,
)
from repro.obs.trace import (  # noqa: F401
    SpanObserver,
    TraceSink,
    load_trace_file,
    message_trace_id,
    trace_id,
)
from repro.obs.reconstruct import (  # noqa: F401
    PropagationTree,
    format_tree,
    propagation_summary,
    reconstruct,
)
from repro.obs.monitor import (  # noqa: F401
    Alert,
    MonitorConfig,
    Watchdog,
)
from repro.obs.dashboard import Dashboard  # noqa: F401
from repro.obs.postmortem import (  # noqa: F401
    analyze,
    collect_traces,
    format_report,
)
