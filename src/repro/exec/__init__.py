"""Batched execution: the bulk-write result type and shared query scans.

* :class:`BulkResult` / :class:`BulkItemResult` — per-document outcomes
  of :meth:`ESDB.bulk_write`, the write pipeline's result type.
* :func:`execute_batch` — SharedDB-style query coalescing behind
  :meth:`ESDB.execute_batch` (exact duplicates and same-column scan
  families run one scan, not N).
"""

from repro.exec.bulk import BulkItemResult, BulkResult
from repro.exec.shared import execute_batch

__all__ = [
    "BulkItemResult",
    "BulkResult",
    "execute_batch",
]
