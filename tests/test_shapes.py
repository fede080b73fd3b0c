"""Statement shapes (:mod:`repro.query.shapes`): a statement whose shape was
compiled before is bound, not parsed, rewritten and planned again — and the
bound statement and plan are exactly what compiling would have produced."""

from __future__ import annotations

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro import ESDB, EsdbConfig
from repro.cluster import ClusterTopology
from repro.errors import SqlSyntaxError
from repro.obsv.snapshot import read_caches
from repro.query import parse_sql
from repro.query.planner import SubAttributeScan, SubAttributeSearch
from repro.query.shapes import lift
from repro.query.sql_parser import _lex
from repro.telemetry import NULL_TELEMETRY
from repro.tenancy import TenancyConfig
from tests.conftest import make_log

SMALL = ClusterTopology(num_nodes=2, num_shards=8)
UNTRACED = NULL_TELEMETRY.tracer


def _db(**config) -> ESDB:
    return ESDB(EsdbConfig(topology=SMALL, auto_refresh_every=None, **config))


def _outcomes(db: ESDB) -> dict[str, int]:
    metrics = db.telemetry.metrics
    return {
        outcome: int(metrics.value("query_shapes_total", outcome=outcome))
        for outcome in ("bind", "compile", "unstable")
    }


def _compiled(db: ESDB, sql: str):
    """What parse → rewrite → plan makes of *sql* (or the error it raises)."""
    try:
        statement = db.coordinator.xdriver.translate(parse_sql(sql)).statement
        plan = db.coordinator.optimizer.plan(statement)
    except Exception as exc:  # the error is the outcome compared
        return type(exc), str(exc)
    return repr(statement), repr(plan), plan.picks


def _prepared(db: ESDB, sql: str):
    try:
        statement, plan, _ = db.coordinator.prepare(UNTRACED, sql)
    except Exception as exc:
        return type(exc), str(exc)
    return repr(statement), repr(plan), plan.picks


# -- the statement grammar ---------------------------------------------------

_INT = st.integers(-10**6, 10**6).map(str)
_FLOAT = st.builds(
    lambda whole, frac: f"{whole}.{frac}", st.integers(-999, 999), st.integers(0, 99)
)
_STRING = st.one_of(
    st.text(alphabet="ab' %_x", max_size=5),
    st.sampled_from(["2021-09-16", "2021-09-16 12:30:00", "1999-12-31 23:59:59"]),
).map(lambda text: "'" + text.replace("'", "''") + "'")
_KINDS = {"int": _INT, "float": _FLOAT, "str": _STRING}
_VALUE_KIND = st.sampled_from(sorted(_KINDS))
_COLUMNS = ["tenant_id", "created_time", "status", "quantity", "amount", "group"]


def _leaf():
    """A WHERE leaf as a template: text pieces around ``{kind}`` holes."""
    column = st.sampled_from(_COLUMNS)
    return st.one_of(
        st.builds(lambda c, op, k: [f"{c} {op} ", k], column,
                  st.sampled_from(["=", "!=", "<>", "<", "<=", ">", ">="]), _VALUE_KIND),
        st.builds(lambda c, a, b: [f"{c} BETWEEN ", a, " AND ", b], column,
                  _VALUE_KIND, _VALUE_KIND),
        st.builds(
            lambda c, n, kinds: [f"{c} {n}IN ("]
            + [piece for i, k in enumerate(kinds) for piece in ([", "] if i else []) + [k]]
            + [")"],
            column, st.sampled_from(["", "NOT "]), st.lists(_VALUE_KIND, min_size=1, max_size=3),
        ),
        st.builds(lambda n: [f"auction_title {n}LIKE ", "str"], st.sampled_from(["", "NOT "])),
        st.just(["MATCH(auction_title, ", "str", ")"]),
        st.builds(lambda key, k: [f"ATTR({key}) = ", k],
                  st.sampled_from(["a", "b", "'a'", "'c d'"]), _VALUE_KIND),
    )


def _where():
    return st.recursive(
        _leaf(),
        lambda child: st.one_of(
            st.builds(lambda a, b: ["("] + a + [" AND "] + b + [")"], child, child),
            st.builds(lambda a, b: ["("] + a + [" OR "] + b + [")"], child, child),
            st.builds(lambda a: ["NOT ("] + a + [")"], child),
        ),
        max_leaves=4,
    )


#: (head, tails): a head's projection is valid with each of its tails.
_ENVELOPES = [
    ("SELECT * FROM t WHERE ", [
        "", " LIMIT 5", " LIMIT -1", " ORDER BY created_time DESC LIMIT 3", " garbage (",
    ]),
    ("SELECT status, IFNULL(quantity, 7) FROM t WHERE ", ["", " LIMIT 2"]),
    ("SELECT status, COUNT(*) FROM t WHERE ", [
        " GROUP BY status", " GROUP BY status HAVING COUNT(*) > 2",
    ]),
]
_TEMPLATE = st.sampled_from(_ENVELOPES).flatmap(
    lambda envelope: st.builds(
        lambda where, tail: [envelope[0]] + where + [tail],
        _where(),
        st.sampled_from(envelope[1]),
    )
)


def _render(template: list, draw) -> str:
    return "".join(draw(_KINDS[piece]) if piece in _KINDS else piece for piece in template)


@settings(max_examples=150, deadline=None)
@given(
    template=_TEMPLATE,
    event=st.sampled_from(["none", "add_index", "drop_index", "rule_commit"]),
    cut=st.sampled_from([None, None, None]) | st.tuples(st.integers(0, 200), st.integers(1, 3)),
    data=st.data(),
)
def test_bound_statement_and_plan_equal_the_compiled_ones(template, event, cut, data):
    db = _db(indexed_subattributes=frozenset({"a"}))
    db.add_index(("tenant_id", "status"))
    sqls = [_render(template, data.draw) for _ in range(3)]
    if cut is not None:  # malformed text: the same bytes missing from each
        start, length = cut
        sqls = [sql[:start] + sql[start + length:] for sql in sqls]
    for i, sql in enumerate(sqls):
        assert _prepared(db, sql) == _compiled(db, sql), sql
        if i == 0:
            if event == "add_index":
                db.add_index(("status", "quantity"))
            elif event == "drop_index":
                db.drop_index("tenant_id_status")
            elif event == "rule_commit":
                db.policy.rules.update(0.0, 4, 5)


_LEX_WORDS = st.sampled_from(["a", "b1", "x.y", "and", "or", "not", "in", "between", "like"])
_LEX_TOKENS = st.one_of(
    _LEX_WORDS, _INT, _FLOAT, _STRING, st.sampled_from(["=", "<=", "<>", "(", ")", ",", "*"])
)


@settings(max_examples=200, deadline=None)
@given(
    tokens=st.lists(st.tuples(_LEX_TOKENS, st.sampled_from(["", " ", "  ", "\n"])), max_size=12)
)
def test_lift_reads_the_literals_the_lexer_reads(tokens):
    body = "".join(token + gap for token, gap in tokens)
    sql = "SELECT * FROM t WHERE " + body
    try:
        lexed = _lex(sql)
    except SqlSyntaxError:
        assume(False)
    shape, literals = lift(sql)
    assert literals == [t.value for t in lexed if t.kind in ("string", "number")]
    # Putting the literals back into the shape gives the text again.
    pieces = list(shape)
    holes = [i for i, piece in enumerate(pieces) if piece in ("?s", "?i", "?f")]
    for i, literal in zip(holes, literals):
        pieces[i] = literal
    assert "".join(pieces) == sql


class TestLift:
    def test_only_where_literals_are_lifted(self):
        shape, literals = lift(
            "SELECT IFNULL(a, 5) FROM t WHERE limit = -3 AND b IN (1, 2.5) "
            "AND ATTR('k') = 'it''s' GROUP BY x HAVING COUNT(*) > 3 LIMIT 4"
        )
        assert literals == ["-3", "1", "2.5", "'it''s'"]
        assert shape == (
            "SELECT IFNULL(a, ", "5", ") FROM t WHERE limit = ", "?i", " AND b IN (",
            "?i", ", ", "?f", ") AND ATTR(", "'k'", ") = ", "?s",
            " GROUP BY x HAVING COUNT(*) > ", "3", " LIMIT ", "4", "",
        )

    def test_a_where_keyword_only_after_from_and_a_table(self):
        assert lift("SELECT IFNULL(where, 1) FROM where WHERE a = 2")[1] == ["2"]
        assert lift("SELECT * FROM t WHERE (a = 1) ORDER BY b LIMIT 2")[1] == ["1"]
        assert lift("SELECT * FROM t LIMIT 2")[1] == []

    def test_words_and_kinds_are_part_of_the_shape(self):
        assert lift("SELECT * FROM t WHERE a = 1")[0] != lift("SELECT * FROM t WHERE a = 1.0")[0]
        assert lift("SELECT * FROM t WHERE a = 1")[0] != lift("SELECT * FROM t WHERE a = '1'")[0]
        assert lift("SELECT * FROM t WHERE a1 = 1")[1] == ["1"]


@pytest.fixture()
def loaded() -> ESDB:
    db = _db(indexed_subattributes=frozenset({"attr_0001"}))
    for i in range(30):
        db.write(make_log(i, tenant=i % 3, created=float(i), status=i % 4))
    db.refresh()
    return db


def _tenant_sql(tenant: int, status: int) -> str:
    return f"SELECT transaction_id FROM t WHERE tenant_id = {tenant} AND status = {status}"


class TestFacade:
    def test_a_repeated_shape_binds(self, loaded):
        for tenant in range(3):
            for status in range(4):
                rows = loaded.execute_sql(_tenant_sql(tenant, status)).rows
                expected = [i for i in range(30) if i % 3 == tenant and i % 4 == status]
                assert sorted(r["transaction_id"] for r in rows) == expected
        assert _outcomes(loaded) == {"bind": 11, "compile": 1, "unstable": 0}
        assert [row for row in read_caches(loaded) if row["level"] == "shapes"] == [{
            "level": "shapes", "enabled": "on", "hits": 11, "misses": 1,
            "hit_pct": 100.0 * 11 / 12, "evictions": 0, "bytes": 0,
        }]

    def test_a_bind_records_one_span_and_the_per_call_counts(self, loaded):
        metrics = loaded.telemetry.metrics
        sqls = [
            f"SELECT * FROM t WHERE tenant_id = {t} AND ATTR(attr_0001) = 'v1'" for t in range(2)
        ]
        picks, frequencies = [], []
        for sql in sqls:
            before = metrics.total("optimizer_plan_picks_total")
            root = loaded.explain_analyze(sql)
            picks.append(metrics.total("optimizer_plan_picks_total") - before)
            frequencies.append(loaded._subattr_frequencies.query_counts["attr_0001"])
        stages = [span.name for span in root.walk()]
        assert stages.count("query.bind") == 1
        assert not {"query.parse", "query.rewrite", "query.plan"} & set(stages)
        assert root.find("query.bind").tags["shape"] == (
            "SELECT * FROM t WHERE tenant_id = ?i AND ATTR(attr_0001) = ?s"
        )
        assert picks[0] == picks[1] > 0
        assert frequencies == [1, 2]

    def test_a_fresh_shape_records_parse_rewrite_and_plan(self, loaded):
        stages = [span.name for span in loaded.explain_analyze(_tenant_sql(1, 1)).walk()]
        assert {"query.parse", "query.rewrite", "query.plan"} <= set(stages)
        assert "query.bind" not in stages

    def test_the_attr_key_chooses_the_access_path_at_compile_time(self, loaded):
        for key, path in (("attr_0001", SubAttributeSearch), ("attr_0002", SubAttributeScan)):
            for value in ("v1", "v2"):
                _, plan, _ = loaded.coordinator.prepare(
                    UNTRACED, f"SELECT * FROM t WHERE ATTR({key}) = '{value}'"
                )
                assert plan.root == path(key, value)
        assert _outcomes(loaded)["compile"] == 2

    def test_parse_errors_are_never_cached(self, loaded):
        loaded.execute_sql("SELECT * FROM t WHERE tenant_id = 1 LIMIT 5")
        for _ in range(2):
            with pytest.raises(SqlSyntaxError, match="LIMIT must be non-negative"):
                loaded.execute_sql("SELECT * FROM t WHERE tenant_id = 2 LIMIT -1")
            with pytest.raises(SqlSyntaxError, match="expected a value"):
                loaded.execute_sql("SELECT * FROM t WHERE tenant_id = AND status = 1")
        assert len(loaded.coordinator.shapes) == 1

    def test_a_column_named_twice_compiles_every_call(self, loaded):
        for status in range(3):
            rows = loaded.execute_sql(
                f"SELECT transaction_id FROM t WHERE status = {status} OR status = 3"
            ).rows
            assert len(rows) == sum(1 for i in range(30) if i % 4 in (status, 3))
        assert _outcomes(loaded) == {"bind": 0, "compile": 0, "unstable": 3}

    def test_repeated_in_values_compile_for_that_call(self, loaded):
        sql = "SELECT transaction_id FROM t WHERE status IN ({}) OR tenant_id = 7"
        assert len(loaded.execute_sql(sql.format("1, 2")).rows) == 15
        assert len(loaded.execute_sql(sql.format("1, 1")).rows) == 8
        assert len(loaded.execute_sql(sql.format("3, 1")).rows) == 15
        assert _outcomes(loaded) == {"bind": 1, "compile": 1, "unstable": 1}

    def test_an_index_change_forgets_every_shape(self, loaded):
        loaded.execute_sql(_tenant_sql(0, 0))
        loaded.add_index(("tenant_id", "status"))
        assert not loaded.coordinator.shapes
        _, plan, _ = loaded.coordinator.prepare(UNTRACED, _tenant_sql(1, 1))
        assert "tenant_id_status" in plan.describe()
        loaded.drop_index("tenant_id_status")
        _, plan, _ = loaded.coordinator.prepare(UNTRACED, _tenant_sql(1, 1))
        assert "tenant_id_status" not in plan.describe()

    def test_the_map_keeps_the_most_recent_shapes(self, loaded, monkeypatch):
        monkeypatch.setattr("repro.query.shapes.MAX_SHAPES", 2)
        for tenant, column in enumerate(("status", "group", "quantity", "status")):
            loaded.execute_sql(f"SELECT * FROM t WHERE tenant_id = {tenant} AND {column} = 1")
        assert len(loaded.coordinator.shapes) == 2
        assert _outcomes(loaded)["compile"] == 4
        assert loaded.telemetry.metrics.value("query_shape_evictions_total") == 2

    def test_governed_admission_binds(self):
        db = _db(tenancy=TenancyConfig(enabled=True))
        for i in range(12):
            db.write(make_log(i, tenant=i % 2, created=float(i), status=i % 3))
        db.refresh()
        for tenant in range(2):
            admitted = db.governor.tenant_counts(tenant)[0]
            rows = db.execute_sql(_tenant_sql(tenant, 0)).rows
            assert sorted(r["transaction_id"] for r in rows) == [
                i for i in range(12) if i % 2 == tenant and i % 3 == 0
            ]
            assert db.governor.tenant_counts(tenant)[0] == admitted + 1
        assert _outcomes(db) == {"bind": 1, "compile": 1, "unstable": 0}
