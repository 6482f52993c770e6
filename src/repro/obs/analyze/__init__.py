"""Post-mortem trace analytics and scaling attribution (DESIGN §11).

The :mod:`repro.obs` layer *records* (spans, metrics, Chrome traces,
run reports, benchmark emissions); this package *explains*.  Every
function here is a pure transformation of recorded artifacts, so every
dashboard is deterministic: same input files, same output bytes.

* :mod:`~repro.obs.analyze.timeline` — normalized per-rank/per-phase
  timelines from spans, Chrome traces or modeled cycle traces, plus
  critical-path extraction;
* :mod:`~repro.obs.analyze.imbalance` — per-phase load-imbalance
  attribution and mapping-strategy linkage (Fig. 9);
* :mod:`~repro.obs.analyze.comms` — recorded communication matrices
  and packed-vs-unpacked reduction cost tables (Fig. 10);
* :mod:`~repro.obs.analyze.diff` — A/B wall-time attribution between
  two recorded runs ("explain the regression");
* :mod:`~repro.obs.analyze.scaling` — the one place strong/weak
  scaling ratios are defined (Figs. 15/16).

>>> from repro.obs.analyze import Timeline, TimelineEvent, critical_path
>>> tl = Timeline(events=[TimelineEvent(0, "H", 0.0, 1.0),
...                       TimelineEvent(1, "H", 0.0, 2.0)])
>>> critical_path(tl).steps[0].rank
1
"""

from repro.obs.analyze.comms import (
    CommCell,
    comm_matrix,
    render_comm_matrix,
    render_scheme_costs,
    scheme_cost_table,
)
from repro.obs.analyze.diff import Contribution, RunDiff, diff_timelines
from repro.obs.analyze.imbalance import (
    MappingAttribution,
    PhaseImbalance,
    mapping_attribution,
    phase_imbalances,
    render_mapping_attributions,
    render_phase_imbalances,
)
from repro.obs.analyze.scaling import (
    ScalingPoint,
    render_scaling,
    strong_scaling,
    weak_scaling,
)
from repro.obs.analyze.timeline import (
    CriticalPath,
    CriticalStep,
    FaultMark,
    Timeline,
    TimelineEvent,
    critical_path,
    load_run,
)

__all__ = [
    "CommCell",
    "Contribution",
    "CriticalPath",
    "CriticalStep",
    "FaultMark",
    "MappingAttribution",
    "PhaseImbalance",
    "RunDiff",
    "ScalingPoint",
    "Timeline",
    "TimelineEvent",
    "comm_matrix",
    "critical_path",
    "diff_timelines",
    "load_run",
    "mapping_attribution",
    "phase_imbalances",
    "render_comm_matrix",
    "render_mapping_attributions",
    "render_phase_imbalances",
    "render_scaling",
    "render_scheme_costs",
    "scheme_cost_table",
    "strong_scaling",
    "weak_scaling",
]
