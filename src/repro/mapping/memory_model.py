"""Per-rank Hamiltonian storage model (the scaling obstacle of Fig. 3/9(a)).

Under the existing mapping, a rank touching delocalized atoms must keep
the *global sparse* Hamiltonian (CSR: 8-byte value + 4-byte column per
nonzero, 4-byte row pointers).  Under the locality mapping, each rank
keeps a *small dense* matrix over the union of atoms relevant to its
batches.  Both estimates here are driven by the real geometry: actual
basis cutoff radii decide which atom blocks are nonzero.
"""

from __future__ import annotations

from typing import Dict, Sequence

import numpy as np

from repro.atoms.structure import Structure
from repro.basis.basis_set import _species_shells
from repro.errors import MappingError
from repro.grids.batching import GridBatch
from repro.mapping.strategies import BatchAssignment, segment_sums
from repro.utils.neighbors import sphere_overlaps

_BYTES_VALUE = 8
_BYTES_COL = 4
_BYTES_ROWPTR = 4


def atom_cutoffs_light(structure: Structure) -> np.ndarray:
    """Farthest basis-function reach per atom for the light basis (Bohr).

    Uses the species-level radial tables directly — no per-atom basis
    objects — so it is cheap even for the 200 012-atom chain.
    """
    by_symbol: Dict[str, float] = {}
    out = np.empty(structure.n_atoms)
    for i, (sym, elem) in enumerate(zip(structure.symbols, structure.elements)):
        if sym not in by_symbol:
            by_symbol[sym] = max(
                cutoff for _, _, cutoff in _species_shells(sym, elem.z)
            )
        out[i] = by_symbol[sym]
    return out


def atom_basis_counts(structure: Structure) -> np.ndarray:
    """Light-basis function count per atom."""
    return np.array([e.n_basis_light for e in structure.elements], dtype=np.int64)


class HamiltonianMemoryModel:
    """Storage estimates for both mapping strategies on one system."""

    def __init__(self, structure: Structure, cutoffs=None, basis_counts=None) -> None:
        self.structure = structure
        self.cutoffs = (
            atom_cutoffs_light(structure) if cutoffs is None else np.asarray(cutoffs)
        )
        self.basis_counts = (
            atom_basis_counts(structure)
            if basis_counts is None
            else np.asarray(basis_counts, dtype=np.int64)
        )
        self.n_basis_total = int(self.basis_counts.sum())
        self._nnz_cache = None

    # ------------------------------------------------------------------
    def global_sparse_nnz(self) -> int:
        """Nonzeros of the global Hamiltonian at atom-block granularity."""
        if self._nnz_cache is None:
            n_atoms = self.structure.n_atoms
            if self.cutoffs.shape[0] != n_atoms:
                raise MappingError(
                    f"{self.cutoffs.shape[0]} cutoffs for {n_atoms} atoms"
                )
            # Atom blocks whose cutoff spheres overlap (the symmetric
            # pattern of H and S): block (i, j) holds b_i * b_j entries,
            # and every atom's row has at least itself in it.
            coords = self.structure.coords
            indptr, indices = sphere_overlaps(
                coords, self.cutoffs, coords, self.cutoffs
            )
            row_basis = np.add.reduceat(self.basis_counts[indices], indptr[:-1])
            self._nnz_cache = int(self.basis_counts @ row_basis)
        return self._nnz_cache

    def global_sparse_csr_bytes(self) -> int:
        """CSR storage of the global sparse Hamiltonian (per rank!).

        The existing mapping replicates this structure on every rank —
        the constant, large curve of Fig. 9(a).
        """
        nnz = self.global_sparse_nnz()
        return (
            nnz * (_BYTES_VALUE + _BYTES_COL)
            + (self.n_basis_total + 1) * _BYTES_ROWPTR
        )

    def dense_local_bytes(
        self,
        assignment: BatchAssignment,
        batches: Sequence[GridBatch],
    ) -> np.ndarray:
        """Dense local Hamiltonian bytes per rank.

        Each rank's matrix spans the union of atoms *relevant* to its
        batches: ``8 * N_loc^2`` bytes.  Under the locality mapping this
        union is small (adjacent atoms only); under the existing mapping
        it typically covers most of the system — the same formula then
        reproduces why dense storage is not even an option there.
        """
        # Fall back to owner atoms when relevance was never attached.
        bare = len(batches) and not batches[0].relevant_atoms and len(batches[0].owner_atoms)
        rank_ptr, atoms = assignment.rank_atoms(batches, use_relevant=not bare)
        n_loc = segment_sums(self.basis_counts[atoms], rank_ptr)
        return _BYTES_VALUE * n_loc * n_loc

    def per_rank_bytes(
        self,
        assignment: BatchAssignment,
        batches: Sequence[GridBatch],
    ) -> np.ndarray:
        """Storage each rank actually needs under a given strategy.

        Existing (scattered) mapping -> replicated global CSR;
        locality mapping -> per-rank dense local matrix.
        """
        if assignment.strategy == "load_balancing":
            return np.full(
                assignment.n_ranks, self.global_sparse_csr_bytes(), dtype=np.int64
            )
        return self.dense_local_bytes(assignment, batches)
