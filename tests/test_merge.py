"""Segment merging: the structural merge against a re-indexing reference.

``merge_segments`` merges each index structure of its inputs — term buckets
concatenate, sorted runs merge, doc values are copied span by span. The
reference below is the merge it replaced: every live document goes back
through ``Segment.add_document`` in row order, with a tombstone for every
row of the inputs' range that holds no live document. Both must produce the
same segment, structure for structure.
"""

from __future__ import annotations

import copy

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.storage import EngineConfig, Schema, ShardEngine, TieredMergePolicy
from repro.storage.analysis import StandardAnalyzer
from repro.storage.document import Document, parse_attributes
from repro.storage.merge import merge_segments
from repro.storage.postings import PostingList
from repro.storage.segment import _TOMBSTONE, Segment, SegmentSpec
from repro.storage import segment as segment_module
from tests.conftest import make_log

_SCHEMA = Schema.transaction_logs()


def reindex_merge(segments: list[Segment], spec: SegmentSpec) -> Segment:
    """The reference merge: re-index every live document, in row order, and
    pad every other row of the inputs' range with a deleted tombstone."""
    start = min(s.base_row_id for s in segments)
    stop = max(s.base_row_id + len(s) for s in segments)
    merged = Segment(spec, start, generation=max(s.generation for s in segments) + 1)

    def pad_to(row_id: int) -> None:
        while merged.base_row_id + len(merged) < row_id:
            pad_row, _, _ = merged.add_document(Document("__tombstone__", _TOMBSTONE))
            merged.mark_deleted(pad_row)

    rows = sorted(
        (pair for segment in segments for pair in segment.iter_live()),
        key=lambda pair: pair[0],
    )
    for row_id, doc in rows:
        pad_to(row_id)
        merged.add_document(doc)
    pad_to(stop)
    merged.seal()
    return merged


def _typed(values) -> list:
    return [(type(value), value) for value in values]


def _structures(segment: Segment) -> dict:
    """Everything a segment holds, in comparable form."""
    return {
        "range": (segment.base_row_id, len(segment), segment.generation),
        "docs": [id(doc) for doc in segment._docs],
        "live": list(segment._live),
        "deleted": segment._deleted,
        "sealed": segment.sealed,
        "terms": {
            name: {term: (type(b), b) for term, b in ix._postings.items()}
            for name, ix in segment._term_indexes.items()
        },
        "subattrs": {
            term: (type(b), b) for term, b in segment._subattr_index._postings.items()
        },
        "numeric": {
            name: (_typed(ix._values), ix._rows, _typed(ix._block_mins), len(ix))
            for name, ix in segment._numeric_indexes.items()
        },
        "composites": {
            name: (ix.columns, ix._keys, ix._rows, len(ix))
            for name, ix in segment._composites.items()
        },
        "doc_values": {
            name: (dv._base, _typed(dv._values)) for name, dv in segment._doc_values.items()
        },
    }


def _snapshot(segment: Segment) -> dict:
    """A deep copy of :func:`_structures` (bucket bytes copied too)."""
    return copy.deepcopy(_structures(segment))


def _answers(segment: Segment) -> dict:
    """What every access path answers on *segment*."""
    live = list(segment.iter_live())
    terms = {
        (name, term)
        for name, ix in segment._term_indexes.items()
        for term in ix.terms()
    }
    answers: dict = {
        "live": [(row, doc.doc_id, id(doc.source)) for row, doc in live],
        "live_count": segment.live_count,
        "bytes": segment.approx_bytes(),
        "memory": segment.index_memory(),
        "rows": [
            (row, id(segment.source(row)))
            for row in range(segment.base_row_id - 1, segment.base_row_id + len(segment) + 1)
        ],
        "terms": {
            key: list(segment.term_postings(*key))
            for key in sorted(terms, key=repr)
        },
        "text": {
            text: list(segment.text_postings("auction_title", text))
            for text in ("red", "red shirt", "blue", "the")
        },
        "subattrs": {
            pair: list(segment.subattribute_postings(*pair))
            for pair in sorted({
                pair
                for _, doc in live
                for pair in parse_attributes(str(doc.get("attributes") or "")).items()
            })
        },
    }
    for name in ("created_time", "amount", "quantity"):
        answers[name] = [
            list(segment.numeric_range(name, low, high))
            for low, high in ((None, None), (0, 2), (1.5, None), (None, 1))
        ]
    for name, composite in segment._composites.items():
        answers[name] = [
            list(segment.filter_live(composite.search({composite.columns[0]: value})))
            for value in (0, 1, "t0", "t1", "t2")
        ]
    rows_all = [row for row, _ in live]
    for name, column in segment._doc_values.items():
        answers["dv", name] = (
            list(column.scan(PostingList(rows_all, presorted=True), lambda v: v is None)),
            list(segment.filter_live(column.full_scan(lambda v: v is not None))),
            [column.get(row, "absent") for row in rows_all],
        )
    return answers


def assert_same_merge(segments: list[Segment], spec: SegmentSpec) -> Segment:
    before = [_snapshot(segment) for segment in segments]
    merged = merge_segments(segments, spec)
    reference = reindex_merge(segments, spec)
    assert _structures(merged) == _structures(reference)
    assert _answers(merged) == _answers(reference)
    # Inputs are never written: a reader of the old segment list may still read them.
    assert [_snapshot(segment) for segment in segments] == before
    return merged


# -- generated histories ------------------------------------------------------

_TITLES = st.sampled_from(
    ["red shirt", "red red shirt", "the", "", "blue cotton shirt red", "Red"]
)
_ATTRIBUTES = st.sampled_from(["", "a:1", "a:1;b:2", "b:2;c", "a:2;a:1"])
_KEYS = st.one_of(st.integers(0, 2), st.sampled_from(["0", "1", "x"]), st.booleans())
_NUMBERS = st.one_of(
    st.none(), st.integers(-1, 3), st.sampled_from([0.5, 1.5, "2", "2.5", " 1 "])
)


@st.composite
def _sources(draw, txn_id: int) -> dict:
    """A transaction log whose optional columns may each be absent."""
    source = {"transaction_id": txn_id, "created_time": float(draw(st.integers(0, 3)))}
    for name, values in (
        ("tenant_id", st.sampled_from(["t0", "t1", "t2"])),
        ("status", _KEYS),
        ("group", _KEYS),
        ("amount", _NUMBERS),
        ("quantity", _NUMBERS),
        ("auction_title", _TITLES),
        ("attributes", _ATTRIBUTES),
    ):
        if draw(st.booleans()):
            source[name] = draw(values)
    return source


_DELETE = st.tuples(st.just("delete"), st.integers(0, 40))
_MERGE = st.tuples(st.just("merge"), st.sets(st.integers(0, 5), min_size=1, max_size=3))
# Merge segments i and i + 2 (padding over i + 1), delete a row, then merge
# the result with segment i + 1: their live rows interleave.
_INTERLEAVE = st.builds(
    lambda i, row: [("merge", {i, i + 2}), ("delete", row), ("merge", {i, i + 1})],
    st.integers(0, 2),
    st.integers(0, 40),
)


@st.composite
def _histories(draw):
    """Segments of 1–6 documents with deletes anywhere, then a sequence of
    deletes and merges of arbitrary (so often non-adjacent) segment subsets,
    named by position in row order."""
    batches = draw(st.lists(st.integers(1, 6), min_size=1, max_size=7))
    steps = draw(
        st.lists(st.one_of(_DELETE.map(lambda s: [s]), _MERGE.map(lambda s: [s]), _INTERLEAVE),
                 max_size=6)
    )
    doomed = st.sampled_from([False, False, True])
    deletes = [draw(st.lists(doomed, min_size=n, max_size=n)) for n in batches]
    return deletes, [step for group in steps for step in group]


@pytest.mark.parametrize(
    "spec",
    [
        SegmentSpec(_SCHEMA, composite_columns=(("tenant_id", "status"),)),
        SegmentSpec(
            _SCHEMA,
            composite_columns=(("status", "group"), ("tenant_id", "created_time")),
            indexed_subattributes=frozenset({"a"}),
        ),
    ],
    ids=["every-subattribute", "indexed-subattributes"],
)
@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_merge_equals_reindexing_every_live_document(spec, data):
    deletes, steps = data.draw(_histories())
    segments: list[Segment] = []
    txn = 0
    for doomed in deletes:
        segment = Segment(spec, txn)
        for dead in doomed:
            row, _, _ = segment.add_document(
                Document(doc_id=txn, source=data.draw(_sources(txn)))
            )
            txn += 1
            if dead:
                segment.mark_deleted(row)
        segment.seal()
        segments.append(segment)
    for op, arg in steps:
        if op == "delete":
            for segment in segments:
                if segment.mark_deleted(arg):
                    break
            continue
        victims = [segments[i] for i in sorted(arg) if i < len(segments)]
        if not victims:
            continue
        merged = assert_same_merge(victims, spec)
        # Kept in row order, so the segments a merge padded over sit next to
        # it and a later merge of neighbours often interleaves.
        segments = sorted(
            [s for s in segments if s not in victims] + [merged],
            key=lambda s: s.base_row_id,
        )


def test_interleaved_inputs_are_merged_in_row_order():
    """A merge of segments 1 and 3 pads over segment 2's rows; merging that
    segment with segment 2 interleaves their live rows."""
    spec = SegmentSpec(_SCHEMA, composite_columns=(("tenant_id", "status"),))
    segments = []
    for start in (0, 3, 6):
        segment = Segment(spec, start)
        for txn in range(start, start + 3):
            segment.add_document(
                Document.from_source(make_log(txn, status=txn % 2, amount=txn), _SCHEMA)
            )
        segment.seal()
        segments.append(segment)
    outer = assert_same_merge([segments[0], segments[2]], spec)
    assert outer.row_ids() == range(0, 9)
    assert outer.live_count == 6
    merged = assert_same_merge([outer, segments[1]], spec)
    assert list(merged.term_postings("status", 1)) == [1, 3, 5, 7]
    assert merged.live_count == 9


def test_merge_parses_and_analyzes_nothing(monkeypatch):
    spec = SegmentSpec(_SCHEMA, composite_columns=(("tenant_id", "status"),))
    segments = []
    for start in (0, 4):
        segment = Segment(spec, start)
        for txn in range(start, start + 4):
            segment.add_document(
                Document.from_source(make_log(txn, title="red and blue shirt"), _SCHEMA)
            )
        segment.mark_deleted(start + 1)
        segment.seal()
        segments.append(segment)
    calls = {"parse": 0, "analyze": 0}
    parse, analyze = segment_module.parse_attributes, StandardAnalyzer.analyze

    def counting_parse(raw):
        calls["parse"] += 1
        return parse(raw)

    def counting_analyze(self, text):
        calls["analyze"] += 1
        return analyze(self, text)

    monkeypatch.setattr(segment_module, "parse_attributes", counting_parse)
    monkeypatch.setattr(StandardAnalyzer, "analyze", counting_analyze)
    merged = merge_segments(segments, spec)
    assert calls == {"parse": 0, "analyze": 0}
    assert merged.live_count == 6
    assert list(merged.text_postings("auction_title", "blue shirt")) == [0, 2, 3, 4, 6, 7]


def test_a_merge_that_drops_a_deleted_tail_never_hands_its_rows_out_again():
    """A shard never hands out the same row id twice: the merged segment
    keeps the deleted tail's rows, so the next write gets a fresh one and a
    dynamic composite index's stale entry for the deleted row stays dead."""
    engine = ShardEngine(
        EngineConfig(schema=_SCHEMA, auto_refresh_every=None),
        merge_policy=TieredMergePolicy(merge_factor=2),
    )
    name = engine.add_composite_index(("status", "group"))
    engine.index(make_log(1, status=0, group=0))
    engine.refresh()
    engine.index(make_log(2, status=0, group=0))
    engine.index(make_log(3, status=9, group=9))
    engine.delete(3)
    engine.refresh()
    assert engine.stats.merges == 1
    row = engine.index(make_log(4, status=1, group=1))
    engine.refresh()
    assert row == 3
    assert not engine.composite_search(name, {"status": 9, "group": 9})
    found = engine.composite_search(name, {"status": 1, "group": 1})
    assert [doc["transaction_id"] for doc in engine.fetch(found)] == [4]
