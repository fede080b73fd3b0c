"""repro.slo — service-level objectives and heavy-hitter attribution.

Two cooperating surfaces, both off by default and both deterministic on
the logical clock:

* :class:`SloEngine` — declarative per-operation objectives
  with rolling-window error budgets and Google-SRE multi-window burn-rate
  alerts (``slo_burn`` / ``slo_recovered`` events).
* :class:`HeavyHitterProfiler` — bounded Space-Saving sketches naming the
  hot routing keys, filter terms and query fingerprints per shard and per
  tenant, with count-error bounds on every estimate.
"""

from repro.slo.config import OBJECTIVES, SloObjective
from repro.slo.engine import BurnAlert, SloEngine
from repro.slo.profiler import HeavyHitterProfiler, query_terms
from repro.slo.sketch import SpaceSavingSketch, rank_top_k

__all__ = [
    "OBJECTIVES",
    "SloObjective",
    "BurnAlert",
    "SloEngine",
    "HeavyHitterProfiler",
    "query_terms",
    "SpaceSavingSketch",
    "rank_top_k",
]
