"""Exception hierarchy shared across the ESDB reproduction.

Every error raised by this library derives from :class:`EsdbError` so that
callers can catch one base class at API boundaries while the tests can still
assert on precise failure modes.
"""

from __future__ import annotations


class EsdbError(Exception):
    """Base class for all errors raised by the ``repro`` package."""


class ConfigurationError(EsdbError):
    """A component was constructed with invalid parameters."""


class ConsensusError(EsdbError):
    """The secondary-hashing-rule consensus protocol failed."""


class ConsensusAborted(ConsensusError):
    """A proposed rule was aborted during the prepare phase."""


class ClusterError(EsdbError):
    """Cluster topology or shard-allocation failure."""


class ShardAllocationError(ClusterError):
    """A shard or replica could not be placed on any node."""


class StorageError(EsdbError):
    """Failure inside the per-shard storage engine."""


class TranslogCorruptionError(StorageError):
    """The write-ahead log failed an integrity check during recovery."""


class DocumentNotFoundError(StorageError):
    """A row id was requested that does not exist in the shard."""


class InvalidDocumentError(StorageError):
    """A document was rejected before it reached the translog: its id field
    is missing or a NUMERIC field does not hold a number."""


class QueryError(EsdbError):
    """Base class for the SQL / ES-DSL query layer."""


class SqlSyntaxError(QueryError):
    """The SQL text could not be parsed."""


class UnsupportedSqlError(QueryError):
    """The SQL parsed but uses a feature outside the supported SFW subset."""


class PlanningError(QueryError):
    """The optimizer could not build an execution plan."""


class ReplicationError(EsdbError):
    """Physical or logical replication failure."""


class SimulationError(EsdbError):
    """The discrete-event simulator was driven into an invalid state."""


class FaultInjectionError(EsdbError):
    """A fault could not be injected or recovered (bad kind or target)."""


class TenantThrottledError(EsdbError):
    """An operation was rejected by multi-tenant admission control.

    Carries enough structure for a client to back off correctly:

    Attributes:
        tenant: the tenant whose operation was rejected.
        op: ``"write"`` or ``"query"``.
        budget: the violated budget — a rate (``writes_per_s`` /
            ``queries_per_s``), a quota (``quota:indexed_bytes`` /
            ``quota:result_bytes`` / ``quota:scanned_docs``) or the shared
            admission queue (``queue``).
        retry_after: logical seconds until the budget frees up (0.0 when
            unknown); a well-behaved client waits at least this long.
        qos: the tenant's QoS class at rejection time.
    """

    def __init__(
        self,
        tenant: object,
        op: str,
        budget: str,
        retry_after: float,
        qos: str = "standard",
    ) -> None:
        super().__init__(
            f"tenant {tenant!r} {op} rejected: {budget} exhausted "
            f"(qos={qos}, retry after {retry_after:.3f}s)"
        )
        self.tenant = tenant
        self.op = op
        self.budget = budget
        self.retry_after = retry_after
        self.qos = qos
