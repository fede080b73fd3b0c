"""Governance experiment: the Single's-Day spike through the ESDB facade.

Unlike the simulator-backed fig19 (which measures routing's write-delay
digestion), this drives real facade writes so tenant governance — when
enabled with ``--tenancy`` — sits in the hot path: the flash-sale tenant
blows through its token bucket and quota during the kickoff window and is
throttled, while every background tenant keeps writing untouched.
"""

from __future__ import annotations

from repro.experiments.base import ExperimentResult, Scale, experiment

#: The flash-sale tenant that spikes at kickoff.
FLASH_TENANT = "flash-sale"


def _spike_db(tenancy_enabled: bool):
    from repro.cluster import ClusterTopology
    from repro.esdb import ESDB, EsdbConfig
    from repro.tenancy import TenancyConfig

    extras = {}
    if tenancy_enabled:
        extras["tenancy"] = TenancyConfig.strict(
            write_rate=30.0,
            write_burst=60.0,
            queue_capacity=24,
            indexed_bytes_quota=None,
            result_bytes_quota=None,
            scanned_docs_quota=None,
        )
    return ESDB(
        EsdbConfig(
            topology=ClusterTopology(num_nodes=3, num_shards=8,
                                     replicas_per_shard=0),
            consensus_interval=1.0,
            **extras,
        )
    )


@experiment("fig20")
def fig20_governed_spike(scale: Scale, tenancy: bool = False) -> ExperimentResult:
    """Single's-Day kickoff against the facade, optionally governed.

    One flash-sale tenant multiplies its write rate during the spike
    window while zipf background tenants keep their steady trickle. The
    table reports offered vs. shed writes per phase and per population —
    with governance on, every shed write belongs to the flash tenant.
    """
    from repro.errors import TenantThrottledError
    from repro.tenancy import cat_tenant_governance
    from repro.workload.generator import TransactionLogGenerator, WorkloadConfig

    steps = scale.pick(600, 2400, 9600)
    dt = 0.05  # 20 background writes per logical second
    spike_start, spike_end = steps // 3, 2 * steps // 3
    spike_factor = 8  # flash writes per step inside the window

    db = _spike_db(tenancy)
    generator = TransactionLogGenerator(WorkloadConfig(num_tenants=5_000, seed=3))
    phases = (
        ("pre-spike", 0, spike_start),
        ("spike", spike_start, spike_end),
        ("post-spike", spike_end, steps),
    )
    counts = {
        name: {"flash_offered": 0, "flash_shed": 0,
               "bg_offered": 0, "bg_shed": 0}
        for name, _, _ in phases
    }

    def phase_of(step: int) -> str:
        for name, lo, hi in phases:
            if lo <= step < hi:
                return name
        return phases[-1][0]

    def submit(doc: dict, bucket: dict, kind: str) -> None:
        bucket[f"{kind}_offered"] += 1
        try:
            db.write(doc)
        except TenantThrottledError:
            bucket[f"{kind}_shed"] += 1

    for step in range(steps):
        now = step * dt
        bucket = counts[phase_of(step)]
        submit(generator.generate(created_time=now), bucket, "bg")
        if spike_start <= step < spike_end:
            for _ in range(spike_factor):
                submit(
                    generator.generate(created_time=now, tenant_id=FLASH_TENANT),
                    bucket,
                    "flash",
                )

    rows = []
    for name, lo, hi in phases:
        bucket = counts[name]
        rows.append(
            (
                name,
                bucket["flash_offered"],
                bucket["flash_shed"],
                bucket["bg_offered"],
                bucket["bg_shed"],
            )
        )
    notes = []
    if tenancy:
        totals = db.governor.snapshot(db.now)["totals"]
        notes.append(
            f"governance ON: {totals['shed']} writes shed, "
            f"{totals['queued']} admitted via backpressure queue"
        )
        notes.extend(cat_tenant_governance(db, k=6).render().splitlines())
    else:
        notes.append(
            "governance OFF — rerun with --tenancy to throttle the flash tenant"
        )
    return ExperimentResult(
        figure="fig20",
        title="Single's-Day kickoff through the facade "
              f"({'governed' if tenancy else 'ungoverned'})",
        headers=["phase", "flash offered", "flash shed",
                 "background offered", "background shed"],
        rows=rows,
        notes=notes,
    )
