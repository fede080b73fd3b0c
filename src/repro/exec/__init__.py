"""Batched execution: the bulk-write result type.

:class:`BulkResult` / :class:`BulkItemResult` are the per-document
outcomes of :meth:`ESDB.bulk_write`, the write pipeline's result type.
Queries have one entry point, :meth:`ESDB.execute_sql`.
"""

from repro.exec.bulk import BulkItemResult, BulkResult

__all__ = [
    "BulkItemResult",
    "BulkResult",
]
