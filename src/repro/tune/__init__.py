"""Closed-loop auto-tuning over the repo's performance knobs (DESIGN §15).

The paper's authors hand-pick a configuration per machine — execution
backend, rank→atom mapping, reduction scheme, kernel batching
granularity, screening threshold, fleet wave size.  This
package closes that loop: an analytic **cost-model stage** prices every
candidate on the machine models, prior decisions in the tuner's
journal **warm-start** the short list, a bounded **measured stage**
re-prices the short list from seeded trial runs through the real
builder seam, and the winner — never predicted or measured slower than
the hand-picked default — ships as a :class:`TunerDecision` recorded in
the RunReport and appended to the ``--history`` journal, where the
next run finds it.

Entry points: ``repro tune`` (inspect a decision), ``repro submit
--tune`` (tune then run), ``repro serve --fleet auto``
(:class:`WavePlanner`), ``benchmarks/bench_tuner.py`` + ``make
tune-check`` (the regression gate).
"""

from repro.tune.costmodel import (
    DEFAULT_COST_MODEL,
    CostModel,
    CostPrediction,
    WorkloadInputs,
    predict_cost,
    price_profile,
)
from repro.tune.decision import CandidateOutcome, TunerDecision
from repro.tune.space import (
    TunedConfig,
    TuningError,
    default_config,
    search_space,
)
from repro.tune.tuner import (
    append_decision,
    tune,
    tuned_settings,
    warm_start_configs,
    workload_fingerprint,
)
from repro.tune.waves import WavePlanner

__all__ = [
    "CandidateOutcome",
    "CostModel",
    "CostPrediction",
    "DEFAULT_COST_MODEL",
    "TunedConfig",
    "TunerDecision",
    "TuningError",
    "WavePlanner",
    "WorkloadInputs",
    "append_decision",
    "default_config",
    "predict_cost",
    "price_profile",
    "search_space",
    "tune",
    "tuned_settings",
    "warm_start_configs",
    "workload_fingerprint",
]
