"""Shared infrastructure for the figure experiments.

Scale experiments can be expensive to *generate* (hundreds of thousands
of batches); by default they run a representative subset of the paper's
parameter grid and expand to the full grid when ``REPRO_FULL_SCALE=1``
is set in the environment.
"""

from __future__ import annotations

import os
from functools import lru_cache
from typing import Callable, Dict, List, Sequence, Tuple

from repro.atoms.builders import polyethylene, polyethylene_units_for_atoms
from repro.config import get_settings
from repro.core.flags import OptimizationFlags
from repro.core.phasemodel import PhaseModel
from repro.core.simulator import PerturbationSimulator
from repro.runtime.machines import MachineSpec

#: The paper's H(C2H4)nH sizes (6n+2 atoms): 15 002 ... 200 012.
POLY_ATOM_COUNTS: Tuple[int, ...] = (15002, 30002, 60002, 117602, 200012)


def full_scale_enabled() -> bool:
    """Run the paper's complete parameter grid (env REPRO_FULL_SCALE=1)."""
    return os.environ.get("REPRO_FULL_SCALE", "0") == "1"


@lru_cache(maxsize=8)
def polyethylene_simulator(n_atoms: int, level: str = "light") -> PerturbationSimulator:
    """Cached simulator (workload + batches are the expensive parts)."""
    n_units = polyethylene_units_for_atoms(n_atoms)
    return PerturbationSimulator(polyethylene(n_units), get_settings(level))


def flag_pairs(
    sweep: Dict[int, Sequence[int]],
    machines: Sequence[MachineSpec],
    flag: str,
    price: Callable[[PhaseModel], float],
) -> List[Tuple[MachineSpec, int, int, float, float]]:
    """``(machine, atoms, ranks, off, on)`` over a polyethylene sweep.

    *price* reads one phase model whose flags are all on but *flag*,
    which is priced off and then on: one ablation pair per
    configuration, in (atoms, machine, ranks) order.
    """
    pair = (OptimizationFlags.all().but(**{flag: False}), OptimizationFlags.all())
    rows = []
    for atoms, ranks in sorted(sweep.items()):
        sim = polyethylene_simulator(atoms)
        for machine in machines:
            for p in ranks:
                off, on = (price(sim.phase_model(machine, p, f)) for f in pair)
                rows.append((machine, atoms, p, off, on))
    return rows
