"""Result types of the batched bulk-write path (:meth:`ESDB.bulk_write`),
and the application of one shard's batch that fills them.

Mirrors Elasticsearch's ``_bulk`` response shape: the call never throws
away per-document information — every submitted source gets exactly one
:class:`BulkItemResult` in submission order, successful or not, so a
client can retry precisely the failures.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Mapping


@dataclass(frozen=True)
class BulkItemResult:
    """Outcome of one document inside a bulk write.

    Attributes:
        position: the document's index in the submitted sequence.
        doc_id: the document id (None if the source was rejected before
            its id field could be read).
        shard_id: the routed shard (None if rejected before routing).
        ok: whether the document was applied to its shard engine.
        error: the exception that rejected it (None when ``ok``).
    """

    position: int
    doc_id: object = None
    shard_id: int | None = None
    ok: bool = True
    error: BaseException | None = None


def apply_shard_batch(
    target,
    shard_id: int,
    batch: list[tuple[int, object, Mapping[str, Any]]],
    items: list,
) -> tuple[float, list[tuple[str, ...]]]:
    """Apply one shard's documents to *target* (its engine, or its replica
    set) in submission order, recording each outcome on its item — a
    failure never aborts the batch and never re-applies a document. Returns
    the engine seconds the batch took and the applied documents'
    sub-attribute names (one tuple each)."""
    subattr_names: list[tuple[str, ...]] = []
    started = time.perf_counter()
    for position, doc_id, source in batch:
        try:
            target.index(source, subattr_names)
        except Exception as exc:
            items[position] = BulkItemResult(
                position=position, doc_id=doc_id, shard_id=shard_id,
                ok=False, error=exc,
            )
            continue
        items[position] = BulkItemResult(
            position=position, doc_id=doc_id, shard_id=shard_id
        )
    return time.perf_counter() - started, subattr_names


@dataclass
class BulkResult:
    """Outcome of one :meth:`ESDB.bulk_write` call."""

    items: list[BulkItemResult] = field(default_factory=list)
    #: Coordinator-side elapsed seconds for the whole bulk.
    took: float = 0.0

    @property
    def ok(self) -> bool:
        return all(item.ok for item in self.items)

    @property
    def applied(self) -> int:
        """Documents that reached a shard engine."""
        return sum(1 for item in self.items if item.ok)

    @property
    def errors(self) -> list[BulkItemResult]:
        """The failed items, in submission order."""
        return [item for item in self.items if not item.ok]

    def raise_first(self) -> None:
        """Re-raise the first (submission-order) error, if any."""
        for item in self.items:
            if not item.ok:
                raise item.error
