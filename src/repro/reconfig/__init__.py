"""Online placement reconfiguration (`repro.reconfig`).

An epoch-based membership/placement plane for the live cluster: a
:class:`~repro.reconfig.coordinator.ReconfigCoordinator` drives one
placement change (add-replica, drop-replica, migrate-primary,
remove-site) per epoch transition over the cluster's client plane —
propose → epoch fence (writes on affected items are refused while their
in-flight propagation quiesces) → one read of each gained copy's state
from its primary → commit, at which point every site installs the
copies it gains, journals the epoch to its WAL and atomically swaps its
placement and propagation tree.  See docs/RECONFIGURATION.md.
"""

from repro.reconfig.change import PlacementChange, ReconfigError
from repro.reconfig.coordinator import ReconfigCoordinator, ReconfigReport

__all__ = [
    "PlacementChange",
    "ReconfigCoordinator",
    "ReconfigError",
    "ReconfigReport",
]
