"""Workload generation: Zipf-skewed multi-tenant transaction logs (§6.1).

The paper's benchmark samples tenant ids from a Zipf distribution with
skewness factor θ ∈ {0, 0.5, 1, 1.5, 2} (θ=1 ≈ production), generates
transaction-log documents from the production template, and scripts hotspot
scenarios (Fig 14's injected hotspot groups, Fig 19's Single's-Day spike).
`repro.workload.arrivals` layers arrival realism on top: Poisson/bursty/
diurnal arrival processes, CDF-driven size sampling, and flash-tenant churn
— recordable to (and replayable from) v2 trace files.
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
from repro.workload.arrivals import (
    ArrivalScenario,
    ArrivalStats,
    BurstyProcess,
    ConstantRate,
    DiurnalRate,
    PoissonProcess,
    SpikeRate,
    TenantChurn,
    TraceScenario,
    arrival_from_json,
)
from repro.workload.trace import (
    TraceInfo,
    load_into,
    read_trace,
    read_trace_events,
    replay_trace,
    scenario_from_trace,
    write_trace,
)

__all__ = [
    "TraceInfo",
    "write_trace",
    "read_trace",
    "read_trace_events",
    "replay_trace",
    "scenario_from_trace",
    "load_into",
    "ZipfSampler",
    "zipf_weights",
    "TransactionLogGenerator",
    "WorkloadConfig",
    "SUB_ATTRIBUTE_COUNT",
    "StaticScenario",
    "HotspotShiftScenario",
    "SinglesDayScenario",
    "ArrivalScenario",
    "ArrivalStats",
    "BurstyProcess",
    "ConstantRate",
    "DiurnalRate",
    "PoissonProcess",
    "SpikeRate",
    "TenantChurn",
    "TraceScenario",
    "arrival_from_json",
]
