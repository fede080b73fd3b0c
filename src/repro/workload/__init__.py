"""Workload generation: Zipf-skewed multi-tenant transaction logs (§6.1).

The paper's benchmark samples tenant ids from a Zipf distribution with
skewness factor θ ∈ {0, 0.5, 1, 1.5, 2} (θ=1 ≈ production), generates
transaction-log documents from the production template, and scripts hotspot
scenarios (Fig 14's injected hotspot groups, Fig 19's Single's-Day spike).
`repro.workload.arrivals` adds Poisson and bursty on/off arrival processes
and flash-tenant churn; `repro.workload.trace` records a workload to a
JSON Lines trace (v1, or v2 with an arrival process) that the chaos runner
replays. Import trace names from `repro.workload.trace` itself: the package
does not import it, so `python -m repro.workload.trace` runs it once.
"""

from repro.workload.zipf import ZipfSampler, zipf_weights
from repro.workload.generator import (
    SUB_ATTRIBUTE_COUNT,
    TransactionLogGenerator,
    WorkloadConfig,
)
from repro.workload.scenarios import (
    HotspotShiftScenario,
    SinglesDayScenario,
    StaticScenario,
)
from repro.workload.arrivals import BurstyProcess, PoissonProcess, TenantChurn

__all__ = [
    "ZipfSampler",
    "zipf_weights",
    "TransactionLogGenerator",
    "WorkloadConfig",
    "SUB_ATTRIBUTE_COUNT",
    "StaticScenario",
    "HotspotShiftScenario",
    "SinglesDayScenario",
    "BurstyProcess",
    "PoissonProcess",
    "TenantChurn",
]
