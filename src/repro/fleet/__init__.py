"""Fleet execution: many physics requests in one wave, bit-exactly.

Public surface of the cross-request layer:

* :func:`~repro.fleet.driver.run_fleet` — deduplicated physics groups
  run one after another, each its own sequential run;
* :mod:`repro.fleet.shared` — per-geometry substrate sharing.
"""

from repro.fleet.driver import (
    FleetOutcome,
    FleetPlan,
    FleetReport,
    FleetTask,
    fleet_tasks_from_requests,
    physics_fingerprint,
    plan_fleet,
    run_fleet,
)
from repro.fleet.shared import Substrate, SubstrateCache

__all__ = [
    "FleetOutcome",
    "FleetPlan",
    "FleetReport",
    "FleetTask",
    "Substrate",
    "SubstrateCache",
    "fleet_tasks_from_requests",
    "physics_fingerprint",
    "plan_fleet",
    "run_fleet",
]
