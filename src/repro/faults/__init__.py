"""repro.faults — deterministic fault injection and chaos testing.

Seed-driven chaos for the reproduction, in three layers:

* :class:`FaultPlan` / :class:`FaultEvent` — a declarative, reproducible
  schedule of faults (node crashes, partitions, slow replicas, translog
  corruption, clock skew, primary crashes, client-dispatch blackholes),
  either hand-built or generated from a seed;
* :class:`FaultInjector` — interprets events against a live
  :class:`~repro.esdb.ESDB` instance and knows how to *recover* each
  fault, including the consensus heal-time catch-up; backs the
  ``ESDB.inject_fault`` / ``ESDB.recover`` / ``repro.obsv.cat_faults`` API;
* :class:`ChaosRunner` — interleaves a plan with a seeded workload,
  tracks every acknowledged write, performs full recovery, and asserts
  the safety invariants (no acked write lost, rule lists converge,
  failover completes, nothing left blocked) into a :class:`ChaosReport`.

``python -m repro.faults`` runs a seeded scenario from the command line.
"""

from repro.faults.injector import ActiveFault, FaultInjector
from repro.faults.plan import FAULT_KINDS, ONE_SHOT_KINDS, FaultEvent, FaultPlan
from repro.faults.runner import ChaosConfig, ChaosReport, ChaosRunner

__all__ = [
    "FAULT_KINDS",
    "ONE_SHOT_KINDS",
    "ActiveFault",
    "ChaosConfig",
    "ChaosReport",
    "ChaosRunner",
    "FaultEvent",
    "FaultInjector",
    "FaultPlan",
]
