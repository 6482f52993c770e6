"""The device bill: a finished run priced on one machine's accelerator.

The paper's portability claim (§4.1) is one kernel source on every
machine.  Here that source is the host engine's view loops, run once on
the host; what the run would cost on an accelerator is a price on its
:class:`~repro.backends.base.BackendProfile`, computed after the run by
:func:`device_bill` — not a second engine.  Each phase is priced by the
scale model's own rule (:mod:`repro.core.phasemodel`), so a phase has
one price at paper scale and on a real run (DESIGN §8):

* ``Sumup`` / ``H`` — ``grid_kernel`` at the run's mean columns per
  point on ``points_ndrange`` (a work-group per batch); a call of k
  densities or potentials is one launch of k times the items;
* ``DM`` — ``dm_host_seconds`` per call, on the host and one rank;
* bytes — the basis table and weights staged once,
  ``8 n_points (n_basis + 1)``; a grid phase moves its input once and its
  output twice (zeroed in, result out): a Sumup reads k ``P`` matrices
  and writes k densities, an H the reverse.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Dict, Mapping, Union

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.backends.base import BackendProfile

#: The machine whose accelerator ``repro physics`` bills a run on.
DEFAULT_MACHINE = "hpc2"

#: The profile rows launched on the device: row -> (kernel, flops per
#: basis pair), the scale model's Sumup and H kernels.
GRID_KERNELS = {"Sumup": ("sumup_n1", 2.0), "H": ("h1_integration", 3.0)}


@dataclass(frozen=True)
class DeviceBill:
    """Modeled seconds per billed phase, launches and bytes moved."""

    machine: str
    phases: Dict[str, float]
    launches: int
    bytes_transferred: int

    @property
    def modeled_seconds(self) -> float:
        """The whole bill: the billed phases' seconds summed."""
        return sum(self.phases.values())


def device_bill(
    profile: Union["BackendProfile", Mapping[str, Any]],
    machine: str = DEFAULT_MACHINE,
) -> DeviceBill:
    """Price a finished run's *profile* (or its ``as_dict()``) on the
    accelerator of *machine* (``"hpc1"`` / ``"hpc2"``).

    A profile bound to no batches cannot be launched:
    :class:`~repro.ocl.kernel.NDRange` refuses it
    (:class:`~repro.errors.DeviceError`).
    """
    from repro.core.phasemodel import dm_host_seconds, grid_kernel, points_ndrange
    from repro.ocl.device import Device
    from repro.runtime.machines import machine_by_name

    doc = profile if isinstance(profile, Mapping) else profile.as_dict()
    grid, rows = doc["grid"], doc["phases"]
    spec = machine_by_name(machine)
    device = Device(spec.accelerator)
    nb, n_points, per_pass = grid["basis"], grid["points"], grid["pass_elements"]
    seconds: Dict[str, float] = {}
    launches, nbytes = 0, 8 * n_points * (nb + 1)
    for phase, (kernel, flops_per_pair) in GRID_KERNELS.items():
        row = rows.get(phase)
        if row is None:
            continue
        ndrange = points_ndrange(n_points, grid["batches"])
        one = device.estimate(grid_kernel(kernel, flops_per_pair, per_pass / n_points), ndrange)
        # The densities or potentials of every call, one pass each.
        passes = row["elements"] // per_pass
        work = one.compute_time + one.stream_time + one.indirect_time
        seconds[phase] = row["calls"] * one.launch_overhead + passes * work
        launches += row["calls"]
        matrix, values = 8 * nb * nb, 8 * n_points
        moved_in, moved_out = (matrix, values) if phase == "Sumup" else (values, matrix)
        nbytes += passes * (moved_in + 2 * moved_out)
    if "DM" in rows:
        seconds["DM"] = rows["DM"]["calls"] * dm_host_seconds(grid["atoms"], 1)
    return DeviceBill(spec.name, seconds, launches, nbytes)
