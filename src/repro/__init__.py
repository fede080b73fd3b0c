"""Reproduction of "ESDB: Processing Extremely Skewed Workloads in Real-time"
(SIGMOD 2022).

ESDB is Alibaba's cloud-native, document-oriented multi-tenant database;
its core contribution is *dynamic secondary hashing* -- workload-adaptive
routing that spreads a hot tenant's writes over a dynamic number of
consecutive shards while keeping cold tenants on a single shard.

Public entry points:

* :class:`repro.esdb.ESDB` -- a fully functional single-process instance
  (writes, SQL queries, balancing, consensus).
* :mod:`repro.routing` -- the three routing policies of the paper.
* :mod:`repro.sim` -- the cluster performance simulator behind the
  write-side experiments.
* :mod:`repro.workload` -- Zipf-skewed workload generation and scenarios.
"""

from repro.esdb import ESDB, EsdbConfig
from repro.routing import (
    DoubleHashRouting,
    DynamicSecondaryHashRouting,
    HashRouting,
    RuleList,
    SecondaryHashingRule,
)

__version__ = "1.0.0"

__all__ = [
    "ESDB",
    "EsdbConfig",
    "HashRouting",
    "DoubleHashRouting",
    "DynamicSecondaryHashRouting",
    "RuleList",
    "SecondaryHashingRule",
    "__version__",
]
