"""Multi-process serving fleet: supervisor, workers, shared table store.

One :class:`FleetSupervisor` spawns N single-process ``ServerApp``
workers that all answer on one ``SO_REUSEPORT`` port, attach the
estimator tables zero-copy from one shared-memory store, shed load
explicitly instead of queueing past deadlines, and are restarted with
seeded rate-limited backoff when they die.  See ``docs/fleet.md`` for the architecture and protocols.
"""

from repro.serve.fleet.store import (
    TableStoreDescriptor,
    attach_tables,
    publish_tables,
)
from repro.serve.fleet.supervisor import (
    FleetAdminService,
    FleetConfig,
    FleetSupervisor,
)
from repro.serve.fleet.worker import (
    CRASH_EXIT_CODE,
    FleetWorkerSpec,
    fleet_worker_main,
)

__all__ = [
    "CRASH_EXIT_CODE",
    "FleetAdminService",
    "FleetConfig",
    "FleetSupervisor",
    "FleetWorkerSpec",
    "TableStoreDescriptor",
    "attach_tables",
    "fleet_worker_main",
    "publish_tables",
]
