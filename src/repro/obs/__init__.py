"""repro.obs — the unified observability layer (DESIGN §10).

Three pieces, one taxonomy:

* **spans** (:mod:`repro.obs.tracer`) — timed regions with phase /
  rank / cycle / backend / comm-scheme attributes, propagated
  ambiently through the SCF and CPSCF drivers, the execution backends,
  the simulated collectives and the service's worker pool (each task
  executes under a ``service``-category span carrying worker / task /
  cache-key / attempt attributes).  Counts live with the object that
  does the work — :class:`~repro.backends.base.BackendProfile`, the
  worker pool's report and the statestore journal — never in a second
  registry;
* **artifacts** (:mod:`repro.obs.export`, :mod:`repro.obs.report`) —
  a Perfetto-loadable Chrome trace-event file and the single
  :class:`RunReport` JSON document that absorbs the legacy
  ``PhaseTimer`` / ``BackendProfile`` / ``VerifyReport`` trio;
* **analytics** (:mod:`repro.obs.analyze`) — per-phase clock tables,
  run diffs and scaling attribution over recorded artifacts.

The service's SLO rollups, worker health and fleet trace are read off
the statestore journal by :mod:`repro.service.slo`.

>>> from repro.obs import Tracer, activate, obs_span
>>> t = Tracer()
>>> with activate(t), obs_span("Sumup", rank=0):
...     pass
>>> len(t.spans)
1
"""

from repro.obs.tracer import (
    Span,
    Tracer,
    activate,
    current_context,
    current_tracer,
    obs_span,
    trace_context,
)
from repro.obs.export import (
    chrome_trace,
    span_events,
    write_chrome_trace,
)
from repro.obs.report import Provenance, RunReport, collect_provenance

__all__ = [
    "Span",
    "Tracer",
    "activate",
    "current_context",
    "current_tracer",
    "obs_span",
    "trace_context",
    "chrome_trace",
    "span_events",
    "write_chrome_trace",
    "Provenance",
    "RunReport",
    "collect_provenance",
]
