"""Post-mortem trace analytics and scaling attribution (DESIGN §11).

The :mod:`repro.obs` layer *records* (spans, Chrome traces, run
reports, benchmark emissions); this package *explains*.  Every
function here is a pure transformation of recorded artifacts or of the
scale model, so every dashboard is deterministic: same input, same
output bytes.

* :mod:`~repro.obs.analyze.timeline` — one recorded run as a timeline,
  and its per-phase clock table (``repro analyze trace``);
* :mod:`~repro.obs.analyze.diff` — A/B wall-time attribution between
  two recorded runs ("explain the regression");
* :mod:`~repro.obs.analyze.imbalance` — mapping imbalance linked to
  its strategy (Fig. 9);
* :mod:`~repro.obs.analyze.comms` — packed-vs-unpacked reduction cost
  tables (Fig. 10);
* :mod:`~repro.obs.analyze.scaling` — the one place strong/weak
  scaling ratios are defined (Figs. 15/16).

>>> from repro.obs.analyze import Timeline, TimelineEvent, clock_table
>>> tl = Timeline(events=[TimelineEvent(0, "H", 0.0, 1.0),
...                       TimelineEvent(0, "H", 1.0, 3.0)])
>>> clock_table(tl)[0]
ClockRow(name='H', calls=2, seconds=3.0, p50=1.5)
"""

from repro.obs.analyze.comms import render_scheme_costs, scheme_cost_table
from repro.obs.analyze.diff import Contribution, RunDiff, diff_timelines
from repro.obs.analyze.imbalance import (
    MappingAttribution,
    mapping_attribution,
    render_mapping_attributions,
)
from repro.obs.analyze.scaling import (
    ScalingPoint,
    render_scaling,
    strong_scaling,
    weak_scaling,
)
from repro.obs.analyze.timeline import (
    ClockRow,
    Timeline,
    TimelineEvent,
    clock_table,
    load_run,
    render_clock_table,
)

__all__ = [
    "ClockRow",
    "Contribution",
    "MappingAttribution",
    "RunDiff",
    "ScalingPoint",
    "Timeline",
    "TimelineEvent",
    "clock_table",
    "diff_timelines",
    "load_run",
    "mapping_attribution",
    "render_clock_table",
    "render_mapping_attributions",
    "render_scaling",
    "render_scheme_costs",
    "scheme_cost_table",
    "strong_scaling",
    "weak_scaling",
]
