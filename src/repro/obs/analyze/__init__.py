"""Post-mortem trace analytics and scaling attribution (DESIGN §11).

The :mod:`repro.obs` layer *records* (spans, Chrome traces, run
reports); this package *explains*.  Every
function here is a pure transformation of recorded artifacts or of the
scale model, so every dashboard is deterministic: same input, same
output bytes.

* :mod:`~repro.obs.analyze.timeline` — one recorded run as a timeline,
  its per-phase clock table (``repro analyze trace``) and two runs'
  tables joined by phase (``repro analyze diff``);
* :mod:`~repro.obs.analyze.imbalance` — mapping imbalance linked to
  its strategy (Fig. 9);
* :mod:`~repro.obs.analyze.scaling` — the one place strong/weak
  scaling ratios are defined (Figs. 15/16).

>>> from repro.obs.analyze import Timeline, TimelineEvent, clock_table
>>> tl = Timeline(events=[TimelineEvent(0, "H", 0.0, 1.0),
...                       TimelineEvent(0, "H", 1.0, 3.0)])
>>> clock_table(tl)[0]
ClockRow(name='H', calls=2, seconds=3.0, p50=1.5)
"""

from repro.obs.analyze.imbalance import (
    MappingAttribution,
    mapping_attribution,
    render_mapping_attributions,
)
from repro.obs.analyze.scaling import ScalingPoint, strong_scaling, weak_scaling
from repro.obs.analyze.timeline import (
    ClockRow,
    Timeline,
    TimelineEvent,
    clock_diff,
    clock_table,
    load_run,
    render_clock_diff,
    render_clock_table,
)

__all__ = [
    "ClockRow",
    "MappingAttribution",
    "ScalingPoint",
    "Timeline",
    "TimelineEvent",
    "clock_diff",
    "clock_table",
    "load_run",
    "mapping_attribution",
    "render_clock_diff",
    "render_clock_table",
    "render_mapping_attributions",
    "strong_scaling",
    "weak_scaling",
]
