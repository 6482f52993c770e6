"""Test harnesses shipped with the library.

:mod:`repro.testing.chaos` drains the service under seeded worker
crashes and checks that recovery is byte-identical to a fault-free
drain.  :mod:`repro.testing.fixtures` holds the machine/cluster
factories the pytest and benchmark conftests wrap as fixtures.
"""

from repro.testing.chaos import ServiceChaosReport, run_service_chaos
from repro.testing.fixtures import make_cluster, make_machine

__all__ = ["ServiceChaosReport", "make_cluster", "make_machine", "run_service_chaos"]
