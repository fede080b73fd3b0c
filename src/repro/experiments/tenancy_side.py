"""Governance experiment: the Single's-Day spike through the ESDB facade.

Unlike the simulator-backed fig19 (which measures routing's write-delay
digestion), this drives real facade writes through two instances, one
ungoverned and one with tenant governance in the hot path: there the
flash-sale tenant blows through its token bucket during the kickoff window
and is throttled, while every background tenant keeps writing untouched.
"""

from __future__ import annotations

from repro.experiments.base import ExperimentResult, Scale, experiment

#: The flash-sale tenant that spikes at kickoff.
FLASH_TENANT = "flash-sale"


def _spike_db(governed: bool):
    from repro.cluster import ClusterTopology
    from repro.esdb import ESDB, EsdbConfig
    from repro.tenancy import TenancyConfig

    tenancy = TenancyConfig()
    if governed:
        tenancy = TenancyConfig.strict(
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
            tenancy=tenancy,
        )
    )


#: The spike's three phases, each a third of the run's steps.
PHASES = ("pre-spike", "spike", "post-spike")


def _drive_spike(steps: int, governed: bool):
    """Drive one instance through the kickoff; returns it with the
    offered and shed writes per phase and population."""
    from repro.errors import TenantThrottledError
    from repro.workload.generator import TransactionLogGenerator, WorkloadConfig

    dt = 0.05  # 20 background writes per logical second
    spike_start, spike_end = steps // 3, 2 * steps // 3
    spike_factor = 8  # flash writes per step inside the window

    db = _spike_db(governed)
    generator = TransactionLogGenerator(WorkloadConfig(num_tenants=5_000, seed=3))
    counts = {
        name: {"flash_offered": 0, "flash_shed": 0, "bg_offered": 0, "bg_shed": 0}
        for name in PHASES
    }

    def submit(doc: dict, bucket: dict, kind: str) -> None:
        bucket[f"{kind}_offered"] += 1
        try:
            db.write(doc)
        except TenantThrottledError:
            bucket[f"{kind}_shed"] += 1

    for step in range(steps):
        now = step * dt
        phase = PHASES[(step >= spike_start) + (step >= spike_end)]
        bucket = counts[phase]
        submit(generator.generate(created_time=now), bucket, "bg")
        if phase == "spike":
            for _ in range(spike_factor):
                submit(
                    generator.generate(created_time=now, tenant_id=FLASH_TENANT),
                    bucket,
                    "flash",
                )
    return db, counts


@experiment("fig20")
def fig20_governed_spike(scale: Scale) -> ExperimentResult:
    """Single's-Day kickoff against the facade, ungoverned and governed.

    One flash-sale tenant multiplies its write rate during the spike
    window while zipf background tenants keep their steady trickle. The
    same writes run through an ungoverned and a governed instance; the
    table reports offered vs. shed writes per arm, phase and population —
    ungoverned nothing is shed, governed every shed write belongs to the
    flash tenant.
    """
    from repro.tenancy import cat_tenant_governance

    steps = scale.pick(600, 2400, 9600)
    arms = {"ungoverned": _drive_spike(steps, False), "governed": _drive_spike(steps, True)}
    rows = [
        (arm, name, bucket["flash_offered"], bucket["flash_shed"],
         bucket["bg_offered"], bucket["bg_shed"])
        for arm, (_, counts) in arms.items()
        for name, bucket in counts.items()
    ]
    db = arms["governed"][0]
    totals = db.governor.snapshot(db.now)["totals"]
    notes = [
        f"governed: {totals['shed']} writes shed, "
        f"{totals['queued']} admitted via backpressure queue",
        *cat_tenant_governance(db, k=6).render().splitlines(),
    ]
    return ExperimentResult(
        figure="fig20",
        title="Single's-Day kickoff through the facade, ungoverned vs. governed",
        headers=["arm", "phase", "flash offered", "flash shed",
                 "background offered", "background shed"],
        rows=rows,
        notes=notes,
        values={arm: counts for arm, (_, counts) in arms.items()},
    )
