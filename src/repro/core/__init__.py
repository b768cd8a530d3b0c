"""The paper's update-propagation protocols.

- :mod:`repro.core.timestamps` — DAG(T)'s vector timestamps (Defs. 3.1-3.3,
  epoch extension of Sec. 3.3).
- :mod:`repro.core.base` — the replicated system assembly and the protocol
  interface shared by all protocols.
- :mod:`repro.core.dag_wt` — DAG(WT), Sec. 2.
- :mod:`repro.core.dag_t` — DAG(T), Sec. 3.
- :mod:`repro.core.backedge` — BackEdge, Sec. 4: one eager phase along the
  backedges over either lazy half — ``backedge`` over DAG(WT) (the chain
  variant of Sec. 5.1 is the default used in the performance study) and
  ``backedge_t`` over DAG(T), the extension the paper defers to its
  technical report.
- :mod:`repro.core.indiscriminate` — the commercial-style lazy baseline
  the paper argues against (Sec. 1).
- :mod:`repro.core.psl` — the lazy primary-site-locking baseline, Sec. 5.1.
- :mod:`repro.core.eager` — a classic eager read-one/write-all 2PC
  baseline, used for ablation benchmarks.
"""

from repro.core.backedge import BackEdgeProtocol, BackEdgeTProtocol
from repro.core.base import (
    PROTOCOLS,
    ReplicatedSystem,
    ReplicationProtocol,
    SystemConfig,
    make_protocol,
)
from repro.core.dag_t import DagTProtocol
from repro.core.dag_wt import DagWtProtocol
from repro.core.eager import EagerProtocol
from repro.core.indiscriminate import IndiscriminateProtocol
from repro.core.psl import PrimarySiteLockingProtocol
from repro.core.timestamps import SiteTuple, VectorTimestamp

__all__ = [
    "BackEdgeProtocol",
    "BackEdgeTProtocol",
    "DagTProtocol",
    "DagWtProtocol",
    "EagerProtocol",
    "IndiscriminateProtocol",
    "PROTOCOLS",
    "PrimarySiteLockingProtocol",
    "ReplicatedSystem",
    "ReplicationProtocol",
    "SiteTuple",
    "SystemConfig",
    "VectorTimestamp",
    "make_protocol",
]
