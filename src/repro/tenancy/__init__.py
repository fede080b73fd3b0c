"""Multi-tenant resource governance: admission control, QoS, quotas.

ESDB's premise is surviving extremely skewed multi-tenant traffic, but
skew-aware *routing* only spreads load — it does not stop one abusive
tenant from ruining tail latency for everyone. This package adds the
protective layer (ROADMAP item 3, after the FoundationDB Record Layer's
multi-tenant resource governance): per-tenant token-bucket rate limits,
QoS priority classes with a weighted shared admission queue, tumbling
byte/operation quotas, and backpressure with structured shed-load errors.
Everything runs on the logical clock, so governed runs stay deterministic.

Enable it per instance with ``EsdbConfig(tenancy=TenancyConfig(enabled=True,
...))``; the default config is off and byte-identical to no governance.
"""

from repro.tenancy.bucket import QuotaLedger, TokenBucket
from repro.tenancy.config import CLUSTER_TENANT, QUEUE_SHARES, TenancyConfig
from repro.tenancy.governor import TenantGovernor, cat_tenant_governance, doc_bytes

__all__ = [
    "CLUSTER_TENANT",
    "QUEUE_SHARES",
    "QuotaLedger",
    "TenancyConfig",
    "TenantGovernor",
    "TokenBucket",
    "cat_tenant_governance",
    "doc_bytes",
]
