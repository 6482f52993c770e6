"""Cross-molecule launch fusion on the priced device model.

The paper's horizontal fusion (§Kernel Optimizations) merges the same
kernel launched by several ranks sharing one GPU into a single launch,
paying one launch overhead instead of m.  :class:`FleetDevice`
generalizes that to fusion across *requests*: every molecule of a
fleet launches through one shared device, and at each round boundary
the launches queued during the round are priced in per-kernel fused
groups.

Pricing never touches the numerics, which each molecule's backend has
already run on the host when it charges a launch:

* the :class:`~repro.ocl.kernel.LaunchReport` ``launch`` returns is
  the **unfused** estimate, which is exactly what a sequential run
  would have been charged, so per-molecule backend profiles stay
  attribution-correct;
* the device's own ``n_launches`` / ``modeled_time`` counters are only
  advanced at :meth:`end_round`, with one launch overhead per fused
  group — the fleet-level account the throughput benchmark compares
  against the sequential one.
"""

from __future__ import annotations

from typing import Dict, List

from repro.ocl.device import Device
from repro.ocl.kernel import Kernel, LaunchReport, NDRange


class FleetDevice(Device):
    """A shared accelerator model that prices launches in fused rounds.

    Same-name kernels queued within one round (one sweep of the fleet
    driver's round-robin over molecules) are charged a single launch
    overhead; compute, streaming and indirect-access time still
    accumulate per member, exactly as in the unfused estimates.
    """

    def __init__(self, spec) -> None:
        super().__init__(spec)
        self._round: List[LaunchReport] = []
        #: Launches as an isolated sequential run would count them.
        self.sequential_launches = 0
        #: Modeled seconds as an isolated sequential run would pay them.
        self.sequential_modeled_time = 0.0
        #: Launch overhead the fusion avoided (seconds).
        self.overhead_saved = 0.0
        #: Rounds that priced at least one launch.
        self.rounds = 0

    def launch(self, kernel: Kernel, ndrange: NDRange) -> LaunchReport:
        """Queue the launch for the round; return its unfused price."""
        report = self.estimate(kernel, ndrange)
        self._round.append(report)
        self.sequential_launches += 1
        self.sequential_modeled_time += report.total_time
        return report

    def end_round(self) -> int:
        """Price the round's queued launches as per-kernel fused groups.

        Returns the number of fused groups charged (0 for an empty
        round).  Grouping is by kernel name in first-queued order, so
        the account is deterministic for a deterministic schedule.
        """
        groups: Dict[str, List[LaunchReport]] = {}
        for report in self._round:
            groups.setdefault(report.kernel, []).append(report)
        for reports in groups.values():
            overhead = max(r.launch_overhead for r in reports)
            work = sum(r.total_time - r.launch_overhead for r in reports)
            self.n_launches += 1
            self.modeled_time += overhead + work
            self.overhead_saved += (
                sum(r.launch_overhead for r in reports) - overhead
            )
        self._round.clear()
        if groups:
            self.rounds += 1
        return len(groups)

    def model_stats(self) -> Dict[str, object]:
        """Deterministic fused-vs-sequential account for fleet reports."""
        fused = self.modeled_time
        sequential = self.sequential_modeled_time
        return {
            "launches": {
                "sequential": self.sequential_launches,
                "fused": self.n_launches,
            },
            "rounds": self.rounds,
            "modeled": {
                "sequential": {"modeled_seconds": sequential},
                "fused": {"modeled_seconds": fused},
                "overhead_saved": {"modeled_seconds": self.overhead_saved},
            },
            "fusion_speedup": (sequential / fused) if fused > 0 else 1.0,
            "bytes_transferred": self.bytes_transferred,
        }
