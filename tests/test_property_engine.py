"""Stateful property tests: the shard engine against a dictionary model.

Hypothesis drives random sequences of index/update/delete/refresh/flush/
merge/crash+recover operations and checks, after every step, that the
engine's visible state matches a plain-dict reference model. This is the
strongest single check on the storage substrate: segments, buffer, deletes,
merging and translog recovery all have to cooperate for it to hold.
"""

from __future__ import annotations

from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    invariant,

    rule,
)

from repro.storage import EngineConfig, Schema, ShardEngine, TieredMergePolicy

DOC_IDS = list(range(12))
STATUSES = [0, 1, 2, 3]


def _source(doc_id: int, status: int, created: float) -> dict:
    return {
        "transaction_id": doc_id,
        "tenant_id": f"t{doc_id % 3}",
        "created_time": created,
        "status": status,
    }


class EngineModel(RuleBasedStateMachine):
    """Engine vs dict: every visible document must match the model."""

    def __init__(self) -> None:
        super().__init__()
        config = EngineConfig(
            schema=Schema.transaction_logs(),
            composite_columns=(("tenant_id", "created_time"),),
            scan_columns=frozenset({"status"}),
            auto_refresh_every=None,
        )
        self.engine = ShardEngine(
            config, merge_policy=TieredMergePolicy(merge_factor=2)
        )
        self.model: dict[int, dict] = {}  # durable + buffered state
        self.flushed: dict[int, dict] = {}  # state covered by the last flush
        self.unflushed_ops: list = []  # ops since last flush (survive crash via WAL)
        self.clock = 0.0

    def _tick(self) -> float:
        self.clock += 1.0
        return self.clock

    # -- operations ----------------------------------------------------------
    @rule(doc_id=st.sampled_from(DOC_IDS), status=st.sampled_from(STATUSES))
    def index(self, doc_id, status):
        source = _source(doc_id, status, self._tick())
        self.engine.index(source)
        self.model[doc_id] = source
        self.unflushed_ops.append(("index", doc_id, source))

    @rule(doc_id=st.sampled_from(DOC_IDS), status=st.sampled_from(STATUSES))
    def update(self, doc_id, status):
        if doc_id not in self.model:
            return
        self.engine.update(doc_id, {"status": status})
        merged = dict(self.model[doc_id])
        merged["status"] = status
        self.model[doc_id] = merged
        self.unflushed_ops.append(("update", doc_id, merged))

    @rule(doc_id=st.sampled_from(DOC_IDS))
    def delete(self, doc_id):
        if doc_id not in self.model:
            return
        self.engine.delete(doc_id)
        del self.model[doc_id]
        self.unflushed_ops.append(("delete", doc_id, None))

    @rule()
    def refresh(self):
        self.engine.refresh()

    @rule()
    def flush(self):
        self.engine.flush()
        self.flushed = dict(self.model)
        self.unflushed_ops = []

    @rule()
    def merge(self):
        self.engine.maybe_merge()

    @rule()
    def crash_and_recover(self):
        """A crash loses the buffer; translog replay must restore the model."""
        self.engine.simulate_crash()
        self.engine.recover_from_translog()

    # -- invariants --------------------------------------------------------------
    @invariant()
    def visible_state_matches_model(self):
        for doc_id, source in self.model.items():
            assert self.engine.contains(doc_id), f"doc {doc_id} lost"
            assert self.engine.get(doc_id).get("status") == source["status"]
        for doc_id in DOC_IDS:
            if doc_id not in self.model:
                assert not self.engine.contains(doc_id), f"ghost doc {doc_id}"

    @invariant()
    def searchable_counts_consistent(self):
        self.engine.refresh()
        assert self.engine.doc_count() == len(self.model)

    @invariant()
    def term_search_matches_model(self):
        self.engine.refresh()
        for status in STATUSES:
            rows = self.engine.term_postings("status", status)
            docs = {self.engine.fetch(rows)[i]["transaction_id"] for i in range(len(rows))}
            expected = {
                d for d, s in self.model.items() if s["status"] == status
            }
            assert docs == expected, f"status={status}"


EngineModel.TestCase.settings = settings(
    max_examples=25, stateful_step_count=30, deadline=None
)
TestEngineStateful = EngineModel.TestCase
