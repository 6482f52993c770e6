"""Mapping imbalance attribution (DESIGN §11.3, paper Fig. 9).

Imbalance is always the one repo-wide definition —
:func:`repro.utils.balance.max_mean_imbalance` — applied to per-rank
grid-point counts.  :func:`mapping_attribution` links an assignment's
imbalance back to the mapping strategy that produced it, next to the
relevant-atoms-per-rank locality metric, mirroring the paper's
locality-vs-load-balancing comparison (``repro analyze scaling``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence, Tuple

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.grids.batching import GridBatch
    from repro.mapping.strategies import BatchAssignment


@dataclass(frozen=True)
class MappingAttribution:
    """One mapping's imbalance, linked to its strategy (Fig. 9)."""

    strategy: str
    n_ranks: int
    imbalance: float  # max/mean grid points per rank
    mean_points: float
    hot_ranks: Tuple[int, ...]
    mean_atoms: float  # relevant atoms per rank (locality proxy)
    max_atoms: int


def mapping_attribution(
    assignment: "BatchAssignment",
    batches: Sequence["GridBatch"],
    top_k: int = 3,
) -> MappingAttribution:
    """Attribute an assignment's imbalance to its mapping strategy.

    The per-rank relevant-atom counts are the paper's locality metric:
    the locality-enhancing mapping trades a few percent of point-count
    balance for far fewer atoms per rank (less replicated work, less
    communication).
    """
    points = assignment.points_per_rank(batches)
    atoms = np.diff(assignment.rank_atoms(batches)[0]).tolist()
    order = sorted(range(len(points)), key=lambda r: (-int(points[r]), r))
    return MappingAttribution(
        strategy=assignment.strategy,
        n_ranks=assignment.n_ranks,
        imbalance=assignment.imbalance(batches),
        mean_points=float(points.mean()),
        hot_ranks=tuple(order[:top_k]),
        mean_atoms=sum(atoms) / len(atoms) if atoms else 0.0,
        max_atoms=max(atoms, default=0),
    )


def render_mapping_attributions(
    rows: Sequence[MappingAttribution],
) -> str:
    """Fig.-9-style strategy comparison table."""
    from repro.utils.reports import TableFormatter

    table = TableFormatter(
        ["strategy", "ranks", "imbalance", "mean pts", "hot ranks",
         "mean atoms", "max atoms"],
        title="mapping attribution (points balance vs atom locality)",
    )
    for m in rows:
        table.add_row(
            [
                m.strategy,
                m.n_ranks,
                f"{m.imbalance:.3f}",
                f"{m.mean_points:.0f}",
                ",".join(str(r) for r in m.hot_ranks),
                f"{m.mean_atoms:.1f}",
                m.max_atoms,
            ]
        )
    return table.render()
