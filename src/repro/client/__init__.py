"""Application-layer clients (§3.1).

* :class:`WriteClient` — routing-aware transport client with one-hop
  routing, hotspot-isolation queues, and workload batching of repeated
  modifications to the same row.
"""

from repro.client.write_client import BatchDecision, WriteClient, WriteClientConfig

__all__ = ["WriteClient", "WriteClientConfig", "BatchDecision"]
