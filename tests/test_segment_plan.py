"""A building segment indexes through its per-field plan.

``Segment.add_document`` resolves a field name once per segment — its type,
the structure it writes and its doc-values column — and every later value of
that name is written straight through the plan. The differential test below
checks the plan-built segment against a naive model of what indexing a
document means, written out here from the field types alone.
"""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.storage import EngineConfig, ShardEngine
from repro.storage.analysis import DEFAULT_STOPWORDS, tokenize
from repro.storage.document import Document, FieldType, Schema
from repro.storage.segment import Segment, SegmentSpec
from tests.conftest import make_log

_SCHEMA = Schema.transaction_logs()
_COMPOSITES = (("tenant_id", "created_time"), ("status", "group", "amount"))
_KEYS = ("a", "b", "c", "d")


class TestFieldsResolveOnce:
    def test_type_of_runs_once_per_segment_and_field(self, monkeypatch):
        calls: dict = {}
        type_of = Schema.type_of

        def counting(self, name):
            calls[name] = calls.get(name, 0) + 1
            return type_of(self, name)

        monkeypatch.setattr(Schema, "type_of", counting)
        engine = ShardEngine(EngineConfig(schema=_SCHEMA, auto_refresh_every=5))
        for i in range(12):
            engine.index(make_log(i, created=float(i), buyer_nickname="bob", extra=i))
        segments = engine.stats.refreshes + 1  # two sealed, one building
        assert segments == 3
        assert calls and max(calls.values()) <= segments
        assert set(calls) == set(make_log(0, buyer_nickname="bob", extra=0))

    def test_seal_drops_the_plan(self):
        segment = Segment(SegmentSpec(_SCHEMA), 0)
        segment.add_document(Document(1, make_log(1)))
        assert segment._plan
        segment.seal()
        assert segment._plan is None and segment.sealed

    def test_a_lookup_while_building_loses_no_later_row(self):
        segment = Segment(SegmentSpec(_SCHEMA, composite_columns=_COMPOSITES[:1]), 0)
        for i in range(6):
            segment.add_document(Document(i, make_log(i, tenant="t", created=float(i))))
            # Each lookup seals the index implicitly; the plan keeps writing.
            assert list(segment.numeric_range("created_time", None, None)) == list(
                range(i + 1)
            )
            composite = segment.composite("tenant_id_created_time")
            assert list(composite.search({"tenant_id": "t"})) == list(range(i + 1))


# -- the naive model ----------------------------------------------------------


def _analyze(text: str) -> list[str]:
    return [token for token in tokenize(text) if token not in DEFAULT_STOPWORDS]


def _parse(raw: str) -> dict:
    out = {}
    for fragment in raw.split(";"):
        if fragment.strip():
            key, sep, value = fragment.strip().partition(":")
            out[key.strip()] = value.strip() if sep else ""
    return out


def _encode(value) -> tuple:
    if isinstance(value, (bool, int, float)):
        return (0, float(value))
    return (1, value) if isinstance(value, str) else (2, repr(value))


class Model:
    """What indexing *docs* from row *base* must leave behind."""

    def __init__(self, spec: SegmentSpec, base: int, docs: list[dict]) -> None:
        self.returned = []
        self.terms: dict = {}  # field -> term -> rows
        self.numbers: dict = {}  # field -> [(value, row)]
        self.subattrs: dict = {}  # (key, value) -> rows
        self.columns: dict = {}  # field -> {row: value}
        self.docs = {}
        allowed = spec.indexed_subattributes
        for row, source in enumerate(docs, base):
            self.docs[row] = source
            entries, names = 0, ()
            for name, value in source.items():
                if value is None:
                    continue
                ftype = spec.schema.fields.get(name, FieldType.KEYWORD)
                stored = value
                if ftype is FieldType.KEYWORD:
                    self.terms.setdefault(name, {}).setdefault(value, set()).add(row)
                    entries += 1
                elif ftype is FieldType.NUMERIC:
                    self.numbers.setdefault(name, []).append((float(value), row))
                    entries += 1
                    if isinstance(value, str):
                        stored = float(value)
                elif ftype is FieldType.TEXT:
                    tokens = _analyze(str(value))
                    field_terms = self.terms.setdefault(name, {})
                    for token in tokens:
                        field_terms.setdefault(token, set()).add(row)
                    entries += len(tokens)
                else:
                    parsed = _parse(str(value))
                    names += tuple(parsed)
                    for pair in parsed.items():
                        if allowed is None or pair[0] in allowed:
                            self.subattrs.setdefault(pair, set()).add(row)
                            entries += 1
                self.columns.setdefault(name, {})[row] = stored
            entries += len(spec.composite_columns)
            self.returned.append((row, entries, names))

    def composite_rows(self, columns: tuple, equalities: dict) -> list[int]:
        """Rows holding every leading column up to the last one searched,
        each equal to the search's value."""
        leading = columns[: len(equalities)]
        return sorted(
            row
            for row, source in self.docs.items()
            if all(
                source.get(c) is not None and _encode(source[c]) == _encode(equalities[c])
                for c in leading
            )
        )


# -- documents ------------------------------------------------------------------

_WORDS = ("red", "Shirt", "the", "and", "of", "42", "红色", "衫", "cotton-blend")
_STOPWORDS_ONLY = st.lists(st.sampled_from(sorted(DEFAULT_STOPWORDS)), max_size=4).map(" ".join)
_TEXT = st.one_of(
    st.lists(st.sampled_from(_WORDS), max_size=5).map(" ".join),
    _STOPWORDS_ONLY,
    st.text(alphabet="ab 红色,.", max_size=8),
)
_FRAGMENT = st.one_of(
    st.tuples(st.sampled_from(_KEYS), st.sampled_from(("1", "2", "x"))).map(":".join),
    st.sampled_from(("", "   ", " a : 1 ", "b:", ":2", "novalue", " c ", "d:1:2", "\t")),
)
_ATTRIBUTES = st.lists(_FRAGMENT, max_size=6).map(";".join)
_NUMBER = st.one_of(
    st.integers(-5, 5),
    st.floats(-10, 10, allow_nan=False),
    st.booleans(),
    st.sampled_from(("1", "2.5", "-0", "1e1", " 7 ")),
)
_TERM = st.one_of(
    st.integers(0, 3), st.sampled_from((0.0, 1.0, 2.5)), st.booleans(),
    st.sampled_from(("t", "u", "1", "")),
)
_FIELDS = {
    "transaction_id": _TERM,
    "tenant_id": _TERM,
    "created_time": _NUMBER,
    "status": _TERM,
    "group": _TERM,
    "amount": _NUMBER,
    "quantity": _NUMBER,
    "auction_title": _TEXT,
    "buyer_nickname": _TEXT,
    "attributes": _ATTRIBUTES,
    "extra": _TERM,  # undeclared: a keyword
    "color": st.sampled_from(("red", "blue")),  # undeclared
}


@st.composite
def _document(draw) -> dict:
    names = draw(st.permutations(list(_FIELDS)))
    names = names[: draw(st.integers(0, len(names)))]
    return {
        name: draw(st.one_of(st.none(), _FIELDS[name]) if draw(st.booleans()) else _FIELDS[name])
        for name in names
    }


_SPEC = st.builds(
    lambda allowed, composites: SegmentSpec(
        _SCHEMA, composite_columns=composites, indexed_subattributes=allowed
    ),
    st.one_of(st.none(), st.frozensets(st.sampled_from(_KEYS))),
    st.sampled_from(((), _COMPOSITES[:1], _COMPOSITES)),
)


class TestPlanMatchesTheModel:
    @settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(
        spec=_SPEC,
        base=st.integers(0, 40),
        docs=st.lists(_document(), max_size=10),
        seal=st.booleans(),
    )
    def test_every_access_path_answers_as_the_model(self, spec, base, docs, seal):
        segment = Segment(spec, base)
        returned = [segment.add_document(Document(row, source)) for row, source in enumerate(docs)]
        if seal:
            segment.seal()
        model = Model(spec, base, docs)
        assert returned == model.returned

        # Terms: keyword values and text tokens, and no other term index.
        assert set(segment._term_indexes) == set(model.terms)
        for name, terms in model.terms.items():
            assert set(segment._term_indexes[name].terms()) == set(terms)
            for term, rows in terms.items():
                assert list(segment.term_postings(name, term)) == sorted(rows)
                if isinstance(term, str) and name in ("auction_title", "buyer_nickname"):
                    assert list(segment.text_postings(name, term)) == sorted(rows)

        # Numbers: every range the model's values bound.
        assert set(segment._numeric_indexes) == set(model.numbers)
        for name, pairs in model.numbers.items():
            values = sorted({value for value, _ in pairs})
            for low, high in [(None, None), (values[0], values[-1]), (values[len(values) // 2], None)]:
                expected = sorted(
                    row for value, row in pairs
                    if (low is None or value >= low) and (high is None or value <= high)
                )
                assert list(segment.numeric_range(name, low, high)) == expected

        # Sub-attributes: only the indexed ones, and the whole index size.
        carried = {
            pair
            for source in docs
            if source.get("attributes") is not None
            for pair in _parse(str(source["attributes"])).items()
        }
        for key, value in carried - model.subattrs.keys():
            assert not segment.subattribute_postings(key, value)
        for (key, value), rows in model.subattrs.items():
            assert list(segment.subattribute_postings(key, value)) == sorted(rows)
        pairs = sum(map(len, model.subattrs.values()))
        pairs += sum(len(rows) for terms in model.terms.values() for rows in terms.values())
        assert segment.index_memory() == pairs

        # Doc values: the stored value, None where a row lacks the field, and
        # each column ends at its last value.
        assert set(segment._doc_values) == set(model.columns)
        for name, stored in model.columns.items():
            column = segment.doc_values(name)
            assert len(column) == max(stored) - base + 1
            for row in range(base, base + len(docs)):
                got, want = column.get(row, "absent"), stored.get(row, "absent")
                assert (type(got), got) == (type(want), want)

        # Composite indexes: an equality on each leading prefix.
        for columns in spec.composite_columns:
            composite = segment.composite("_".join(columns))
            for source in docs:
                for depth in range(1, len(columns) + 1):
                    if any(source.get(c) is None for c in columns[:depth]):
                        break
                    equalities = {c: source[c] for c in columns[:depth]}
                    assert list(composite.search(equalities)) == model.composite_rows(
                        columns, equalities
                    )


@pytest.mark.parametrize("allowed", [None, frozenset({"a"})])
def test_model_agrees_on_a_written_log(allowed):
    """The model itself, on one fixed document: keeps it honest."""
    spec = SegmentSpec(_SCHEMA, composite_columns=_COMPOSITES[:1], indexed_subattributes=allowed)
    source = make_log(1, attributes=" a : 1 ;b;;a:2", buyer_nickname="the and")
    model = Model(spec, 0, [source])
    # keyword x4, created_time, "red cotton shirt", a (and b when indexed), composite
    assert model.returned == [(0, 4 + 1 + 3 + (1 if allowed else 2) + 1, ("a", "b"))]
    assert model.subattrs == ({("a", "2"): {0}} if allowed else {("a", "2"): {0}, ("b", ""): {0}})
