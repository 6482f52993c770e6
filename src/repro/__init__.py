"""repro — portable and scalable all-electron quantum perturbation simulations.

Python reproduction of Wu et al., SC '23 (DOI 10.1145/3581784.3607085):
a real all-electron DFPT engine plus executable models of the paper's
two supercomputers and its scalability/portability innovations.

Public entry points:

>>> from repro import PerturbationSimulator, water, get_settings
>>> sim = PerturbationSimulator(water(), get_settings("minimal"))
>>> result = sim.run_physics()          # doctest: +SKIP
"""

from repro.backends import BackendProfile, ExecutionBackend, device_bill
from repro.atoms import (
    Structure,
    hiv_ligand,
    hydrogen_molecule,
    methane,
    polyethylene,
    rbd_like_protein,
    water,
)
from repro.config import RunSettings, get_settings
from repro.core import OptimizationFlags, PerturbationSimulator
from repro.dfpt import (
    finite_difference_polarizability,
    isotropic_polarizability,
    polarizability_tensor,
)
from repro.dft import SCFDriver
from repro.runtime import HPC1_SUNWAY, HPC2_AMD, machine_by_name

__version__ = "1.0.0"

__all__ = [
    "Structure",
    "water",
    "hydrogen_molecule",
    "methane",
    "polyethylene",
    "hiv_ligand",
    "rbd_like_protein",
    "RunSettings",
    "get_settings",
    "OptimizationFlags",
    "PerturbationSimulator",
    "SCFDriver",
    "ExecutionBackend",
    "BackendProfile",
    "device_bill",
    "polarizability_tensor",
    "isotropic_polarizability",
    "finite_difference_polarizability",
    "HPC1_SUNWAY",
    "HPC2_AMD",
    "machine_by_name",
    "__version__",
]
