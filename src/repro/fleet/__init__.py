"""Fleet execution: many molecules through one backend, bit-exactly.

Public surface of the cross-molecule batching layer:

* :class:`~repro.fleet.driver.FleetDriver` — round-robin pipeline
  interleaving SCF/CPSCF cycles of deduplicated request groups;
* :class:`~repro.fleet.device.FleetDevice` — shared device model that
  fuses same-kernel launches across molecules at round boundaries;
* :mod:`repro.fleet.shared` — per-geometry substrate sharing.
"""

from repro.fleet.device import FleetDevice
from repro.fleet.driver import (
    FleetDriver,
    FleetOutcome,
    FleetPlan,
    FleetReport,
    FleetTask,
    fleet_tasks_from_requests,
    physics_fingerprint,
    plan_fleet,
)
from repro.fleet.shared import Substrate, SubstrateCache

__all__ = [
    "FleetDevice",
    "FleetDriver",
    "FleetOutcome",
    "FleetPlan",
    "FleetReport",
    "FleetTask",
    "Substrate",
    "SubstrateCache",
    "fleet_tasks_from_requests",
    "physics_fingerprint",
    "plan_fleet",
]
